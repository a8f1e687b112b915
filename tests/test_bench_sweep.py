"""Smoke test of tools/bench_sweep.py: every row it times still runs against the library.

The sweep imports private names of netgoods, so a rename there would
otherwise only show up the next time the sweep is timed.  A stub timer calls
each timed function once, so the test checks the rows, not their timings.
"""

import importlib.util
from pathlib import Path

import pytest

from netgoods.casestudy import random_er_game

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("bench_sweep", ROOT / "tools" / "bench_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def once(fn):
    """A timer that calls fn once and reports zero seconds."""
    return {"ref_s": 0.0, "wall_s": 0.0}, fn()


def test_every_row_runs(sweep, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(ROOT.glob("BENCH_*.json"))
    game_row = sweep.sweep_game(random_er_game(10, 1.0, 3.0, 1.0, 1.0, seed=5), once)
    case1_row = sweep.sweep_case1(once)
    assert set(game_row) == {"solve_ne", "solve_regularized", "multi_start_probe", "br_gap", "br_gap_batch",
                             "best_response", "pseudo_gradient", "integrate_pseudo_gradient",
                             "integrate_sw_flow", "certify_any",
                             "certify_report", "sigma_bound", "load_game", "save_game"}
    assert set(case1_row) == {"case1_keys", "edges", "degree_stats", "sigma_bound_stack", "monte_carlo_case1",
                              "case1_sigma_maxes"}
    assert all(row["ref_s"] == 0.0 for row in (*game_row.values(), *case1_row.values()))
    assert sorted(ROOT.glob("BENCH_*.json")) == before and not list(tmp_path.iterdir())
