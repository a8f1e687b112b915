"""Per-layer timings of netgoods at n in {10, 50, 200, 1000}: the size sweep behind BENCH_*.json.

Run from the repository root:

    python3 tools/bench_sweep.py --label <label> [--src <dir>]

It times, on ``random_er_game(n, 1, 3, 1, 1, seed=5)`` and on
``fixed_work_game(default_rng([2, 0]), n)`` (the generator of perfbench's
flow-rk4 games):

- ``br_gap`` at one profile (the solver's ``x_star``) and on a batch of 201
  profiles drawn uniformly from the box;
- ``best_response``, per call, over every player at ``x_star``;
- ``pseudo_gradient`` at ``x_star``;
- ``solve_ne`` from the box centre (wall time and iterations), which steps
  one (n,) profile;
- ``solve_regularized`` over the schedule ``REG_BETAS`` from the box centre
  (wall time, summed iterations and status), the same projected-solve
  driver run in stages;
- ``multi_start_probe`` from ``MULTI_STARTS`` random starts (seed 0), which
  steps an (S, n) batch (wall time, the clusters and the summed iterations
  of their representatives);
- one ``integrate_pseudo_gradient`` run (alpha = 1) and one
  ``integrate_sw_flow`` run, each of 200 steps (step 1e-2, horizon 2) from
  the box centre, diagnostics included, as perfbench's flow-rk4 runs both
  fields (a run stops early if its field vanishes; ``steps`` records how
  many it took);
- ``trajectory_to_csv`` of that ``integrate_pseudo_gradient`` run's
  trajectory (201 rows unless the run stopped early; ``rows`` records them),
  written to a temporary file, as ``netgoods dynamics --csv`` writes it;
- ``certify_any`` with its defaults;
- ``certify_report``: ``dumps_canonical`` of the report that ``netgoods
  certify`` builds from that certificate (``bytes`` its length): its matrix
  as the sparse object when fewer than a third of the entries are stored;
- ``_sigma_bound`` (the rounding-safe sigma_max behind every certificate and
  the default solver step) on the game's |W|;
- ``load_game`` on the game written by ``save_game``: an ER file holds W in
  its sparse rows/cols/vals form and every player is the same (value, cost)
  pair, while a ``fixed_work_game`` file holds W as the dense n*n list and
  consecutive players always differ;
- ``save_game`` of the game to a file: sparse W for ER, dense for
  ``fixed_work_game``.

Once per run it also times the case-1 Monte Carlo at n = 50, p0 = 1 (a = 3,
b = 1, c0 = 1), on the draws of ``sample_seed(5, s)``:

- ``case1_keys``: deriving the ``CASE1_KEYS`` sample keys of seed 5 as
  ``casestudy case1`` does (``_sample_seeds``);
- ``edges``: drawing one chunk of samples' edges as bool arrays, from raw
  Philox words against the integer threshold (``_edges``), as the Monte
  Carlo draws it at n = 50: ``CHUNK_ENTRIES // n**2`` samples (104);
- ``degree_stats``: the delta statistics and residual peaks of that chunk,
  read from its degrees (``_degree_stats``), which is all the Monte Carlo
  reads at c0 = b = 1;
- ``sigma_bound_stack``: ``_sigma_bound`` on each of the chunk's coupling
  residuals, each formed from its sample's edges and bounded on its own, as
  the ``sigma_maxes`` column bounds them (it drops their zero rows itself);
- ``monte_carlo_case1`` with 100 samples;
- ``case1_sigma_maxes``: the same Monte Carlo, then a read of its
  ``sigma_maxes`` column, as ``netgoods casestudy case1 --csv`` reads it.

Each timing is the minimum over ``REPEATS`` runs, blocks of calls for the
fast ones (see ``Timer``); the case-1 rows take ``CASE1_REPEATS``, since at 5
they move by about 20% between runs of one tree.  Timings are in
*reference seconds*:
wall seconds scaled by ``calibrate.REF_S / spin``, where ``spin`` is the mean
of the ``calibrate.spin`` times measured before and after the repeats (see
``perfbench/calibrate.py``; the host's speed can change by 2x within seconds).
The raw wall minimum and the spin are stored beside it.  BLAS runs on one
thread.  The result goes to ``BENCH_<label>.json`` at the repository root,
with the machine, the library versions and a digest of the netgoods sources
that ran.
``--src`` selects the source tree to import netgoods from (default: this
repository's ``src``), so that one script measures any checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SIZES = (10, 50, 200, 1000)
REPEATS = 5
CASE1_REPEATS = 15
MULTI_STARTS = 4
#: beta schedule of the solve_regularized row
REG_BETAS = (1e-1, 1e-2, 1e-3)
BATCH_ROWS = 201
#: (n, p0, a, b, c0) of the case-1 Monte Carlo rows, and their sample count
CASE1 = (50, 1.0, 3.0, 1.0, 1.0)
CASE1_SAMPLES = 100
#: sample keys derived by the case1_keys row (perfbench's case1-mc runs 1000 samples)
CASE1_KEYS = 1000


def _load(name: str, path: str):
    """A module loaded from a file path, without putting its directory on sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(package_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Timer:
    """Seconds per call: the minimum over repeats, scaled to reference seconds by the spins around them.

    A call shorter than ``BLOCK_S`` is timed in blocks of as many calls as fill
    ``BLOCK_S``, so that timer resolution and one-off stalls do not dominate.
    """

    BLOCK_S = 0.02

    def __init__(self, calibrate, repeats: int):
        self.calibrate, self.repeats = calibrate, repeats

    def __call__(self, fn):
        start = time.perf_counter()
        out = fn()  # warm-up, and the block size
        calls = max(1, int(self.BLOCK_S / max(time.perf_counter() - start, 1e-9)))
        before = self.calibrate.spin_s()
        walls = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            walls.append((time.perf_counter() - start) / calls)
        spin = 0.5 * (before + self.calibrate.spin_s())
        wall = min(walls)
        return {"ref_s": wall * self.calibrate.REF_S / spin, "wall_s": wall, "spin_s": spin,
                "calls_per_block": calls}, out


def sweep_game(game, timer) -> dict:
    import numpy as np

    from netgoods.certificates import _sigma_bound, certify_any
    from netgoods.cli import _certificate_doc
    from netgoods.dynamics import integrate_pseudo_gradient, integrate_sw_flow, trajectory_to_csv
    from netgoods.equilibrium import multi_start_probe, solve_ne, solve_regularized
    from netgoods.game import best_response, br_gap, pseudo_gradient
    from netgoods.gamefile import dumps_canonical, load_game, save_game

    centre = 0.5 * (game.lower + game.upper)
    row = {}
    row["solve_ne"], res = timer(lambda: solve_ne(game, x0=centre))
    row["solve_ne"].update(iterations=res.iterations, status=res.status)
    row["solve_regularized"], reg = timer(lambda: solve_regularized(game, REG_BETAS, x0=centre))
    row["solve_regularized"].update(betas=list(REG_BETAS), iterations=reg.iterations, status=reg.status)
    row["multi_start_probe"], reps = timer(lambda: multi_start_probe(game, MULTI_STARTS, 0))
    row["multi_start_probe"].update(starts=MULTI_STARTS, clusters=len(reps),
                                    iterations=sum(r.iterations for r in reps))
    x = res.x_star
    batch = game.lower + np.random.default_rng(0).random((BATCH_ROWS, game.n)) * (game.upper - game.lower)
    row["br_gap"], _ = timer(lambda: br_gap(game, x))
    row["br_gap_batch"], _ = timer(lambda: br_gap(game, batch))
    row["br_gap_batch"]["rows"] = BATCH_ROWS
    row["best_response"], _ = timer(lambda: [best_response(game, i, x) for i in range(game.n)])
    for key in ("ref_s", "wall_s"):  # per call
        row["best_response"][key] /= game.n
    row["pseudo_gradient"], _ = timer(lambda: pseudo_gradient(game, x))
    alpha = np.ones(game.n)
    row["integrate_pseudo_gradient"], pseudo_traj = timer(
        lambda: integrate_pseudo_gradient(game, alpha, centre, step=1e-2, horizon=2.0))
    row["integrate_pseudo_gradient"]["steps"] = len(pseudo_traj.times) - 1
    row["integrate_sw_flow"], traj = timer(lambda: integrate_sw_flow(game, centre, step=1e-2, horizon=2.0))
    row["integrate_sw_flow"]["steps"] = len(traj.times) - 1
    row["certify_any"], rep = timer(lambda: certify_any(game))
    row["certify_any"].update(theorem=rep.theorem, verdict=rep.verdict)
    row["certify_report"], text = timer(lambda: dumps_canonical(_certificate_doc(rep)))
    row["certify_report"]["bytes"] = len(text)
    abs_w = np.abs(game.w)
    row["sigma_bound"], _ = timer(lambda: _sigma_bound(abs_w))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        save_game(game, path)
        row["load_game"], _ = timer(lambda: load_game(path))
        row["save_game"], _ = timer(lambda: save_game(game, path))
        csv_path = os.path.join(tmp, "trajectory.csv")
        row["trajectory_to_csv"], _ = timer(lambda: trajectory_to_csv(pseudo_traj, csv_path))
        row["trajectory_to_csv"]["rows"] = len(pseudo_traj.times)
    return row


def sweep_case1(timer) -> dict:
    from netgoods.casestudy import (CHUNK_ENTRIES, _degree_stats, _edges, _residual, _sample_seeds,
                                    monte_carlo_case1, sample_seed)
    from netgoods.certificates import _sigma_bound

    n, p0, a, b, c0 = CASE1
    p = p0 / n
    stack = max(1, CHUNK_ENTRIES // (n * n))
    seeds = [sample_seed(5, s) for s in range(stack)]
    row = {}
    row["case1_keys"], _ = timer(lambda: _sample_seeds(5, CASE1_KEYS))
    row["case1_keys"]["samples"] = CASE1_KEYS
    row["edges"], edges = timer(lambda: _edges(n, p, seeds))
    row["degree_stats"], _ = timer(lambda: _degree_stats(edges))
    row["sigma_bound_stack"], _ = timer(lambda: [_sigma_bound(_residual(e)) for e in edges])
    for key in ("edges", "degree_stats", "sigma_bound_stack"):
        row[key]["stack"] = stack
    row["monte_carlo_case1"], rep = timer(lambda: monte_carlo_case1(n, p0, a, b, c0, CASE1_SAMPLES, 5))
    row["monte_carlo_case1"].update(samples=CASE1_SAMPLES, frac_certificate=rep.frac_certificate)
    row["case1_sigma_maxes"], _ = timer(
        lambda: monte_carlo_case1(n, p0, a, b, c0, CASE1_SAMPLES, 5).sigma_maxes)
    row["case1_sigma_maxes"]["samples"] = CASE1_SAMPLES
    return row


def _progress(label: str, row: dict) -> None:
    print(f"{label}: " + ", ".join(f"{k} {v['ref_s']:.4g}" for k, v in row.items()), file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to import netgoods from")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import netgoods
    from netgoods.casestudy import random_er_game

    calibrate = _load("calibrate", os.path.join(ROOT, "perfbench", "calibrate.py"))
    workloads = _load("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    timer = Timer(calibrate, REPEATS)
    families = {
        "er": lambda n: random_er_game(n, 1.0, 3.0, 1.0, 1.0, seed=5),
        "fixed_work": lambda n: workloads.fixed_work_game(np.random.default_rng([2, 0]), n),
    }
    results = {}
    for name, make in families.items():
        results[name] = {}
        for n in SIZES:
            row = results[name][str(n)] = sweep_game(make(n), timer)
            _progress(f"{name} n={n}", row)
    results["case1"] = sweep_case1(Timer(calibrate, CASE1_REPEATS))
    _progress(f"case1 n={CASE1[0]}", results["case1"])

    doc = {
        "label": args.label,
        "netgoods_source_sha256_16": _source_digest(os.path.dirname(netgoods.__file__)),
        "unit": "reference seconds (min over repeats; best_response per call)",
        "repeats": REPEATS,
        "case1_repeats": CASE1_REPEATS,
        "machine": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
            "ref_s": calibrate.REF_S,
        },
        "results": results,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
