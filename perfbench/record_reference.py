"""Record the reference outputs every benchmark task is checked against.

Runs each named workload's whole catalogue (all of them when none is named)
once with the checkout's netgoods and writes its entries of
``reference.json`` beside this file; other workloads' entries are kept.  The committed file was recorded
from the commit that introduced the benchmark; re-record only when a change
to the reports is intended, and say so in the change.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, TaskFailure  # noqa: E402


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if names and os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    workdir = os.path.join(os.path.dirname(HERE), ".bench_out", "record-reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bad = []
    try:
        for name, workload in WORKLOADS.items():
            if names and name not in names:
                continue
            tasks = workload.catalogue()
            workload.setup(tasks, workdir)
            refs = {}
            for task in tasks:
                reports = workload.run(task, workdir)
                refs[task.key] = workload.reference(task, reports, workdir)
                try:
                    workload.check(task, reports, refs[task.key])
                except TaskFailure as exc:
                    bad.append(f"{name} {task.key}: {exc}")
            reference[name] = refs
            print(f"{name}: {len(refs)} inputs recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("catalogue inputs that fail their own check:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    with open(path, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
