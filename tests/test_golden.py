"""CLI reports on small fixture games, compared byte for byte with recorded copies.

Each case runs ``netgoods.cli.main`` in a fresh working directory that holds
the fixture games, with every path relative to it, so no report embeds a
temporary directory.  A case compares its ``--out`` report and, for
``transform``, the game it writes.  ``python tests/test_golden.py`` records
every case into ``tests/golden/`` from the netgoods on the import path; a
re-recorded file is a change to list in CHANGES.md.
"""

import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import (make_fig1a_game, make_n1_game, make_two_player_symmetric, make_two_player_triangular,
                      strict_loads)
from netgoods.cli import build_parser, main
from netgoods.functions import AffineReparam, LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
from netgoods.game import Game
from netgoods.gamefile import save_game

GOLDEN = Path(__file__).with_name("golden")


def make_mixed_game():
    """Three players covering every family: both values, both costs, and a reparameterization of each kind."""
    return Game(
        w=np.array([[1.0, 0.2, -0.1], [0.1, 1.0, 0.3], [-0.2, 0.1, 1.0]]),
        lower=np.array([0.1, 0.2, 0.5]),
        upper=np.array([1.5, 1.5, 2.0]),
        values=(QuadraticClippedValue(a=3.0, b=1.0), LogValue(a=2.0, s=1.0),
                AffineReparam(LogValue(a=1.5, s=0.5), scale=2.0, shift=-0.5)),
        costs=(LinearCost(c1=0.8), QuadraticCost(c0=1.2),
               AffineReparam(QuadraticCost(c0=0.5), scale=1.5, shift=-0.25)),
    )


GAMES = {
    "n1.json": make_n1_game,
    "fig1a.json": make_fig1a_game,
    "tri.json": make_two_player_triangular,
    "sym.json": make_two_player_symmetric,
    "mixed.json": make_mixed_game,
}

#: case name -> argv without --out; each writes its report to report.json
CASES = {
    "solve_n1": ["solve", "--game", "n1.json"],
    "solve_fig1a": ["solve", "--game", "fig1a.json"],
    "solve_sym_regularized": ["solve", "--game", "sym.json", "--method", "regularized"],
    "solve_tri_backward": ["solve", "--game", "tri.json", "--method", "backward"],
    "solve_fig1a_multistart": ["solve", "--game", "fig1a.json", "--method", "multistart",
                               "--n-starts", "20", "--seed", "7"],
    "solve_mixed": ["solve", "--game", "mixed.json"],
    "verify_fig1a": ["verify", "--game", "fig1a.json", "--x", "1,1,0,0"],
    "verify_sym": ["verify", "--game", "sym.json", "--x", "0.5,0.7"],
    "verify_mixed": ["verify", "--game", "mixed.json", "--x", "0.5,0.5,1"],
    "certify_n1": ["certify", "--game", "n1.json", "--theorem", "any"],
    "certify_fig1a": ["certify", "--game", "fig1a.json", "--theorem", "any"],
    "certify_tri": ["certify", "--game", "tri.json", "--theorem", "any"],
    "certify_sym": ["certify", "--game", "sym.json", "--theorem", "any"],
    "certify_mixed": ["certify", "--game", "mixed.json", "--theorem", "any"],
    "dynamics_n1_sw": ["dynamics", "--game", "n1.json", "--field", "sw", "--x0", "0", "--horizon", "5"],
    "dynamics_fig1a": ["dynamics", "--game", "fig1a.json", "--horizon", "2"],
    "dynamics_mixed": ["dynamics", "--game", "mixed.json", "--alpha", "1,2,0.5", "--horizon", "3"],
    "statics_n1": ["statics", "--game", "n1.json", "--delta", "1", "--fd-t", "1e-4"],
    "statics_sym": ["statics", "--game", "sym.json", "--delta", "1,-1", "--fd-t", "1e-4"],
    "statics_mixed": ["statics", "--game", "mixed.json", "--delta", "1,-0.5,-0.5", "--fd-t", "1e-4"],
    "transform_tri": ["transform", "--game", "tri.json", "--normalize-triangular", "--out-game", "out.json"],
    "transform_n1": ["transform", "--game", "n1.json", "--d", "2", "--b", "0", "--out-game", "out.json"],
    "transform_mixed": ["transform", "--game", "mixed.json", "--d", "2,1,0.5", "--b", "0.1,0,-0.1",
                        "--out-game", "out.json"],
    "oracle_fig1a": ["oracle", "--game", "fig1a.json", "--m", "5"],
    "oracle_sym": ["oracle", "--game", "sym.json", "--m", "9"],
    "oracle_mixed": ["oracle", "--game", "mixed.json", "--m", "6", "--eps", "1e-2"],
    "casestudy_case1": ["casestudy", "case1", "--n", "8", "--samples", "100"],
    "casestudy_case2": ["casestudy", "case2", "--n", "5", "--density", "0.5", "--seed", "3"],
}


def run_case(case: str) -> dict[str, bytes]:
    """Run one case in the current directory: golden file name -> the bytes it wrote."""
    for name, make in GAMES.items():
        save_game(make(), name)
    main([*CASES[case], "--out", "report.json"])
    written = {f"{case}.json": "report.json", f"{case}.game.json": "out.json"}
    return {golden: Path(path).read_bytes() for golden, path in written.items() if os.path.exists(path)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_the_recorded_copy(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = run_case(case)
    assert f"{case}.json" in outputs, "the command wrote no report"
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name


#: one case per subcommand
FIRST_CASES = sorted({argv[0]: case for case, argv in reversed(CASES.items())}.values())


def test_every_subcommand_has_a_case():
    assert {CASES[case][0] for case in FIRST_CASES} == set(build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("case", FIRST_CASES)
def test_a_report_written_with_out_leaves_stdout_empty(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_case(case)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_golden_file_is_strict_json(name):
    strict_loads((GOLDEN / name).read_text())


def test_every_golden_file_has_a_case():
    names = {p.name for p in GOLDEN.iterdir()}
    expected = {f"{case}.json" for case in CASES} | {f"{case}.game.json" for case in CASES
                                                      if case.startswith("transform")}
    assert names == expected


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cwd = os.getcwd()
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                outputs = run_case(case)
            finally:
                os.chdir(cwd)
        for name, data in outputs.items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {name} ({len(data)} bytes)", file=sys.stderr)


if __name__ == "__main__":
    record()
