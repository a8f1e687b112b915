"""netgoods benchmark: run one workload in fresh processes and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload er-analysis --seed 1 --seconds 30 --trace 0

With ``--trace 0`` a measuring process runs the workload closed-loop (one
client) for ``--seconds`` and further processes only set up, so ``setup_s`` is
a median over several fresh starts.  Its timings are in reference seconds:
wall seconds scaled by how long ``calibrate.spin`` took beside them.  With ``--trace 1`` one process records
spans around netgoods' public functions and prints the per-layer metrics.
Every report is checked.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full run record is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: fresh processes whose set-up time is measured in a --trace 0 run
SETUP_RUNS = 5
#: every child together must end well inside the 180 s a run may take
DEADLINE_S = 165.0
#: thread counts pinned for BLAS/OpenMP in every benchmark process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"

END_TO_END = {"tasks_per_s": "1/s", "task_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _source_digest(*dirs: str) -> str:
    """SHA-256 over the .py and .json files under ``dirs``, in a fixed order."""
    digest = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("NETGOODS_SEED", None)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def _run_child(args, mode: str, deadline: float, spans: str | None = None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"no time left for a {mode} process")
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}-{mode}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} process exited with code {proc.returncode}\n{tail}")
    result = json.loads(lines[-1])
    expected = os.path.join(ROOT, "src", "netgoods")
    if os.path.dirname(result["netgoods_file"]) != expected:
        raise BenchError(f"benchmarked {result['netgoods_file']}, not the checkout's {expected}")
    return result


def _percentiles(samples: list[float]) -> dict:
    """p50 always; p90 only with at least ten samples beyond it (100 tasks)."""
    out = {"task_s.p50": {"value": statistics.median(samples), "samples": len(samples)}}
    if len(samples) >= 100:
        out["task_s.p90"] = {"value": statistics.quantiles(samples, n=10)[-1],
                             "samples": len(samples)}
    return out


def measure(args, deadline: float) -> tuple[dict, dict]:
    """Timings in reference seconds: wall seconds scaled by ``REF_S`` / the spin beside them."""
    from calibrate import REF_S

    main = _run_child(args, "measure", deadline)
    setups = [main] + [_run_child(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
    timed = main["task_s"]  # [input key, wall seconds, spin seconds] of each timed task
    if not timed:
        raise BenchError("no task completed: " + "; ".join(main["errors"][:3]))
    tasks = [d * REF_S / spin for _, d, spin in timed]
    wall = [d for _, d, _ in timed]
    setup = [s["setup_s"] * REF_S / s["setup_spin_s"] for s in setups]
    pct = _percentiles(tasks)
    metrics = {
        "tasks_per_s": len(tasks) / sum(tasks),
        "task_s.p50": pct["task_s.p50"]["value"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {
        "percentiles": pct,
        "tasks_timed": len(tasks),
        "task_s": timed,
        "wall": {"tasks_per_s": len(wall) / sum(wall), "task_s.p50": statistics.median(wall),
                 "setup_s": statistics.median(s["setup_s"] for s in setups)},
        "spin_s": {"p50": statistics.median(t[2] for t in timed),
                   "min": min(t[2] for t in timed), "max": max(t[2] for t in timed)},
        "setup_s_runs": [s["setup_s"] for s in setups],
        "setup_spin_s_runs": [s["setup_spin_s"] for s in setups],
        "attempted": sum(s["attempted"] for s in setups),
        "failed": sum(s["failed"] for s in setups),
        "errors": [e for s in setups for e in s["errors"]],
        "cycle": main["cycle"],
        "numpy": main["numpy"],
    }
    return {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, detail


def trace(args, deadline: float, digest: str) -> tuple[dict, dict]:
    """One traced process; its counts are compared with earlier runs of the same code and seed."""
    from layers import UNITS

    stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
    res = _run_child(args, "trace", deadline, spans=stem + ".spans.jsonl.gz")
    drift = [f"{k} differs between passes of one run" for k in res["drift"]]
    counts_path = stem + ".counts.json"
    previous = None
    if os.path.exists(counts_path):
        with open(counts_path) as fh:
            previous = json.load(fh)
    same_code = previous is not None and previous.get("code_sha256") == digest
    if same_code:
        drift += [f"{k} = {res['exact'].get(k)}, an earlier run of this seed had {v}"
                  for k, v in previous["exact"].items() if res["exact"].get(k) != v]
    else:
        with open(counts_path, "w") as fh:
            json.dump({"code_sha256": digest, "exact": res["exact"]}, fh, indent=1, sort_keys=True)
    metrics = {k: (res["metrics"].get(k, 0), unit) for k, unit in UNITS.items()}
    detail = {
        "attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"],
        "count_drift": drift, "count_passes": res["count_passes"],
        "compared_with_earlier_run": same_code,
        "cycle": res["cycle"], "numpy": res["numpy"], "spans_file": stem + ".spans.jsonl.gz",
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src", "netgoods")
    try:
        if not os.path.isfile(os.path.join(src, "__init__.py")):
            raise BenchError(f"no netgoods sources at {src}")
        sys.path.insert(0, HERE)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            metrics, detail = trace(args, deadline, _source_digest(src, HERE))
        else:
            metrics, detail = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = detail["failed"] == 0 and not detail.get("count_drift")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "fail_frac": detail["failed"] / detail["attempted"] if detail["attempted"] else 1.0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
        "machine": {
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
        },
        "git_commit": _git_commit(), "src_sha256": _source_digest(src),
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>16}  {name:<44} {value:>14.6g} {unit}")
    if "wall" in detail:
        wall = ", ".join(f"{k} {v:.6g}" for k, v in detail["wall"].items())
        print(f"  wall clock: {wall}; spin median {detail['spin_s']['p50']:.4g} s")
    for err in record["errors"][:5] + record.get("count_drift", [])[:5]:
        print(f"  FAIL {err}")
    print(f"  fail_frac {record['fail_frac']:.4g} ({detail['failed']}/{detail['attempted']}); "
          f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
