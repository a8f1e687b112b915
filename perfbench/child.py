"""One fresh benchmark process: set up one workload, then time or trace it.

Started by ``run.py`` with the package on PYTHONPATH; prints one JSON object
as its last stdout line.  Modes:

* ``setup``   -- set up (import, inputs, one untimed warm-up task) and stop;
* ``measure`` -- set up, then run whole cycles closed-loop for ``--seconds``,
  with a ``calibrate.spin`` between tasks;
* ``trace``   -- set up with spans on, then untraced and traced cycles in
  turn for ``--seconds``, and one cycle that also counts scalar-family calls.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import sys
import time

_START = time.monotonic()

from calibrate import spin_s  # noqa: E402
from workloads import WORKLOADS, TaskFailure  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs tasks of one workload, checks each report and counts failures."""

    def __init__(self, workload, workdir, reference):
        self.workload, self.workdir, self.reference = workload, workdir, reference
        self.first_bytes: dict[tuple[str, str], bytes] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def task(self, task) -> float | None:
        """Run and check one task; its duration in seconds, or None if it failed."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                reports = self.workload.run(task, self.workdir)
            elapsed = time.perf_counter() - start
            self.workload.check(task, reports, self.reference[task.key])
            for step, data in reports.items():
                first = self.first_bytes.setdefault((task.key, step), data)
                if first != data:
                    raise TaskFailure(f"{step} report bytes differ from this input's first run")
        except Exception as exc:  # a task failure is counted, never fatal to the run
            self.failed += 1
            detail = sink.getvalue().strip().splitlines()
            self.errors.append(f"{task.key}: {type(exc).__name__}: {exc}"
                               + (f" [{detail[-1]}]" if detail else ""))
            return None
        return elapsed

    def cycles(self, cycle, seconds: float, calibrate: bool = False) -> list[tuple]:
        """Whole cycles, closed loop: at least one, and as many as end nearest to ``seconds``.

        Returns ``(input key, seconds, spin seconds)`` for each task that passed
        its checks.  With ``calibrate`` a ``calibrate.spin`` runs before the
        first task and after every task, and the spin seconds of a task are the
        mean of the spins on either side of it; otherwise they are None.
        """
        timed = []
        begin = time.perf_counter()
        before = spin_s() if calibrate else None
        done = 0
        while True:
            for task in cycle:
                d = self.task(task)
                after = spin_s() if calibrate else None
                if d is not None:
                    timed.append((task.key, d, 0.5 * (before + after) if calibrate else None))
                before = after
            done += 1
            elapsed = time.perf_counter() - begin
            # stop unless another cycle ends nearer to ``seconds`` than this one did;
            # stop too if every task failed, rather than loop
            if not timed or elapsed + 0.5 * elapsed / done >= seconds:
                return timed


def _setup(workload, seed, workdir, tracer=None):
    import netgoods  # noqa: F401  (import time is part of set-up)

    if tracer is not None:
        tracer.install()
    try:
        cycle = workload.cycle(seed)
        workload.setup(cycle, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cycle


def _trace(runner, cycle, seconds, tracer):
    """Untraced, span and family-count passes; metrics, exact counts, drifting counts."""
    from layers import EXACT, SpanStats, counts, family_metrics, setup_metrics, timings
    from tracer import FamilyCounter

    metrics = setup_metrics(SpanStats(tracer.spans, tracer.values, 0, tracer.mark()))

    # untraced and traced cycles alternate, so slow drifts in machine speed
    # fall on both sides of the overhead ratio alike
    untraced, traced, marks = [], [], []
    begin = time.perf_counter()
    while not marks or time.perf_counter() - begin < seconds:
        untraced += runner.cycles(cycle, 0.0)
        marks.append(tracer.mark())
        tracer.install()
        try:
            traced += runner.cycles(cycle, 0.0)
        finally:
            tracer.uninstall()
    marks.append(tracer.mark())

    family = FamilyCounter()
    family_mark = tracer.mark()
    tracer.install()
    family.install()
    try:
        runner.cycles(cycle, 0.0)
    finally:
        family.uninstall()
        tracer.uninstall()

    per_cycle = [counts(SpanStats(tracer.spans, tracer.values, lo, hi))
                 for lo, hi in zip(marks[:-1], marks[1:])]
    per_cycle.append(counts(SpanStats(tracer.spans, tracer.values, family_mark, tracer.mark())))
    drift = sorted({k for c in per_cycle[1:] for k in c if c[k] != per_cycle[0][k]})

    metrics.update(per_cycle[0])
    metrics.update(timings(SpanStats(tracer.spans, tracer.values, marks[0], marks[-1]),
                           len(traced) or 1))
    metrics.update(family_metrics(family.calls, family.elems, family.reparam_calls))
    metrics["trace.cycle_tasks"] = len(cycle)
    metrics["trace.tasks_per_s"] = len(traced) / sum(t[1] for t in traced) if traced else 0.0
    metrics["trace.untraced_tasks_per_s"] = (len(untraced) / sum(t[1] for t in untraced)
                                             if untraced else 0.0)
    metrics["trace.overhead"] = (metrics["trace.untraced_tasks_per_s"] / metrics["trace.tasks_per_s"]
                                 - 1.0) if traced and untraced else 0.0
    exact = {k: metrics[k] for k in EXACT if k in metrics}
    phases = {"setup": [0, marks[0]], "traced_cycles": marks, "family_cycle": [family_mark, tracer.mark()]}
    return metrics, exact, drift, phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, default=_START,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the recorded spans here (trace mode)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        reference = json.load(fh)[workload.name]

    os.makedirs(args.workdir)
    try:
        tracer = None
        if args.mode == "trace":
            from tracer import SpanTracer

            tracer = SpanTracer()
        cycle = _setup(workload, args.seed, args.workdir, tracer)
        runner = Runner(workload, args.workdir, reference)
        runner.task(cycle[0])  # warm-up: untimed, but checked
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "setup_spin_s": spin_s(), "cycle": [t.key for t in cycle]}
        if args.mode == "measure":
            result["task_s"] = runner.cycles(cycle, args.seconds, calibrate=True)
        elif args.mode == "trace":
            metrics, exact, drift, phases = _trace(runner, cycle, args.seconds, tracer)
            result.update(metrics=metrics, exact=exact, drift=drift,
                          count_passes=len(phases["traced_cycles"]))
            if args.spans:
                # first line: span index ranges of each phase; then one span per line
                with gzip.open(args.spans, "wt", compresslevel=3) as fh:
                    fh.write(json.dumps(phases) + "\n")
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
        import netgoods
        import numpy

        result.update(
            attempted=runner.attempted, failed=runner.failed, errors=runner.errors[:20],
            peak_rss_mb=_rss_mb(), netgoods_file=os.path.abspath(netgoods.__file__),
            numpy=numpy.__version__,
        )
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
