import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_fig1a_game, make_two_player_symmetric, max_iter_result, strict_loads
from netgoods import cli
from netgoods.casestudy import case2_pipeline, monte_carlo_case1, random_er_game, random_upper_triangular
from netgoods.cli import build_parser, main
from netgoods.equilibrium import multi_start_probe, solve_ne, solve_regularized
from netgoods.functions import (AffineReparam, LinearCost, LogValue, QuadraticClippedValue, QuadraticCost,
                                spec_to_dict)
from netgoods.game import Game
from netgoods.gamefile import _matrix, _w_doc, dumps_canonical, game_to_dict, load_game, save_game
from netgoods.statics import fd_check, utility_derivative


@pytest.fixture
def fig1a_path(tmp_path):
    path = tmp_path / "fig1a.json"
    save_game(make_fig1a_game(), path)
    return str(path)


@pytest.fixture
def n1_path(tmp_path, n1_game):
    path = tmp_path / "n1.json"
    save_game(n1_game, path)
    return str(path)


def run(args, out_path):
    code = main([*args, "--out", str(out_path)])
    doc = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, doc


class TestSolve:
    def test_fixed_point(self, n1_path, tmp_path):
        code, doc = run(["solve", "--game", n1_path], tmp_path / "r.json")
        assert code == 0
        assert doc["status"] == "converged"
        assert doc["x_star"][0] == pytest.approx(1.0, abs=1e-7)

    def test_multistart_finds_multiple(self, fig1a_path, tmp_path):
        code, doc = run(
            ["solve", "--game", fig1a_path, "--method", "multistart",
             "--n-starts", "50", "--seed", "7"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert len(doc["clusters"]) >= 2

    def test_multistart_negative_seed_exits_2(self, fig1a_path, tmp_path, capsys):
        code, doc = run(["solve", "--game", fig1a_path, "--method", "multistart", "--seed", "-1"],
                        tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "--seed" in capsys.readouterr().err

    def test_backward_on_wrong_game_is_input_error(self, fig1a_path, tmp_path):
        code = main(["solve", "--game", fig1a_path, "--method", "backward",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_regularized(self, n1_path, tmp_path):
        code, doc = run(
            ["solve", "--game", n1_path, "--method", "regularized"], tmp_path / "r.json"
        )
        assert code == 0
        assert doc["x_star"][0] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("schedule", ["nan", "inf", "1,nan"])
    def test_regularized_non_finite_schedule_exits_2(self, n1_path, tmp_path, capsys, schedule):
        code, doc = run(["solve", "--game", n1_path, "--method", "regularized", "--beta-schedule", schedule],
                        tmp_path / "r.json")
        assert code == 2 and doc is None
        assert capsys.readouterr().err == "error: beta_schedule must be finite, strictly decreasing and positive\n"


class TestVerify:
    def test_accepts_ne(self, fig1a_path, tmp_path):
        code, doc = run(
            ["verify", "--game", fig1a_path, "--x", "1,1,0,0", "--eps", "1e-8"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["is_ne"] is True

    def test_rejects_non_ne(self, fig1a_path, tmp_path):
        code, doc = run(
            ["verify", "--game", fig1a_path, "--x", "1,1,1,1"], tmp_path / "r.json"
        )
        assert code == 0
        assert doc["is_ne"] is False
        assert doc["gap"] == pytest.approx(0.5, abs=1e-9)

    def test_wrong_length_vector(self, fig1a_path, tmp_path):
        assert main(["verify", "--game", fig1a_path, "--x", "1,1"]) == 2

    def test_nan_eps_is_an_input_error(self, fig1a_path, tmp_path):
        code, doc = run(["verify", "--game", fig1a_path, "--x", "1,1,0,0", "--eps", "nan"],
                        tmp_path / "r.json")
        assert code == 2 and doc is None

    def test_overflowing_gap_is_written_as_null(self, tmp_path):
        # a valid game whose cost overflows at the top of its box: the gap there is +inf
        path, out = tmp_path / "g.json", tmp_path / "r.json"
        save_game(Game(w=np.eye(1), lower=np.zeros(1), upper=np.array([1e5]),
                       values=(QuadraticClippedValue(a=3.0, b=1.0),), costs=(QuadraticCost(c0=1e300),)), path)
        assert main(["verify", "--game", str(path), "--x", "100000", "--out", str(out)]) == 0
        doc = strict_loads(out.read_text())
        assert doc["gap"] is None and doc["is_ne"] is False

    def test_clipped_value_with_a_huge_peak(self, tmp_path):
        # the value's peak a^2/(4b) overflows a float: it reads inf, and only gains past the clip read it
        path, out = tmp_path / "g.json", tmp_path / "r.json"
        save_game(Game(w=np.eye(1), lower=np.zeros(1), upper=np.ones(1),
                       values=(QuadraticClippedValue(a=1e200, b=1.0),), costs=(QuadraticCost(c0=1.0),)), path)
        assert main(["verify", "--game", str(path), "--x", "0.5", "--out", str(out)]) == 0
        assert strict_loads(out.read_text())["is_ne"] is False


class TestDynamics:
    def test_sw_flow_with_csv(self, n1_path, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, doc = run(
            ["dynamics", "--game", n1_path, "--field", "sw", "--x0", "0",
             "--horizon", "5", "--csv", str(csv_path)],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["final_state"][0] == pytest.approx(1.0, abs=1e-6)
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,x_1,sw,br_gap,energy"

    def test_pseudo_flow_scaled(self, n1_path, tmp_path):
        code, doc = run(
            ["dynamics", "--game", n1_path, "--field", "pseudo", "--alpha", "2",
             "--x0", "zeros", "--horizon", "8"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["final_state"][0] == pytest.approx(1.0, abs=1e-6)
        assert doc["projection_steps"] == 0

    def test_step_count_overflow_exits_2(self, n1_path, tmp_path, capsys):
        code, doc = run(["dynamics", "--game", n1_path, "--step", "1e-300", "--horizon", "1e10"],
                        tmp_path / "r.json")
        assert code == 2 and doc is None
        assert ("error: need finite step>0, horizon>0, horizon/step; "
                "got step=1e-300, horizon=10000000000.0") in capsys.readouterr().err

    def test_step_count_too_large_to_store_exits_2(self, n1_path, tmp_path, capsys):
        # 10^300 steps is a finite count, but their states exceed numpy's index range
        code, doc = run(["dynamics", "--game", n1_path, "--step", "1e-300", "--horizon", "1"],
                        tmp_path / "r.json")
        assert code == 2 and doc is None
        assert capsys.readouterr().err.startswith("error: horizon/step is too large: an array of shape (")

    def test_states_beyond_physical_memory_exit_2(self, n1_path, tmp_path, capsys, monkeypatch):
        # 10^12 steps fit numpy's index range, but not their states in memory: refused before the first step
        monkeypatch.setattr(Game, "project", lambda *args: pytest.fail("took a step"))
        code, doc = run(["dynamics", "--game", n1_path, "--x0", "0", "--step", "1e-12", "--horizon", "1"],
                        tmp_path / "r.json")
        assert code == 2 and doc is None
        assert capsys.readouterr().err.startswith("error: horizon/step is too large: 1000000000001 stored states")


class TestCertify:
    def test_any_on_fig1a_fails_cleanly(self, fig1a_path, tmp_path):
        code, doc = run(["certify", "--game", fig1a_path], tmp_path / "r.json")
        assert code == 0
        assert doc["verdict"] == "fail"
        # 8 of the 16 entries are stored, and 3 * 8 >= 16: the matrix stays 4 rows
        assert [len(row) for row in doc["matrix"]] == [4] * 4
        assert sum(v != 0.0 for row in doc["matrix"] for v in row) == 8

    def test_er_report_does_not_grow_with_n_squared(self, tmp_path):
        # 1.04 MB when the 300x300 matrix is written dense; about n entries are stored
        path = tmp_path / "er.json"
        save_game(random_er_game(300, 1, 3, 1, 1, seed=5), path)
        code, doc = run(["certify", "--game", str(path), "--theorem", "any"], tmp_path / "r.json")
        assert code == 0 and set(doc["matrix"]) == {"cols", "rows", "vals"}
        assert (tmp_path / "r.json").stat().st_size < 100_000

    def test_gamma_ones_explicit(self, fig1a_path, tmp_path):
        code, doc = run(
            ["certify", "--game", fig1a_path, "--gamma", "ones",
             "--theorem", "near-individual"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["theorem"] == "near_individual"
        assert doc["sigma_max"] == pytest.approx(6.0, abs=1e-8)

    def test_any_reports_slack_and_attempts(self, fig1a_path, tmp_path):
        code, doc = run(["certify", "--game", fig1a_path], tmp_path / "r.json")
        assert code == 0
        assert doc["slack"] > 0
        assert [a["theorem"] for a in doc["attempts"]] == [
            "near_individual", "near_potential", "near_symmetric", "near_symmetric"]
        assert doc["margin"] == max(a["margin"] for a in doc["attempts"] if a["margin"] is not None)

    def test_near_potential_takes_the_shared_value(self, fig1a_path, tmp_path, capsys):
        code, doc = run(["certify", "--game", fig1a_path, "--theorem", "near-potential"],
                        tmp_path / "r.json")
        assert code == 0 and doc["theorem"] == "near_potential"
        game = make_fig1a_game()
        hetero = tmp_path / "hetero.json"
        save_game(replace(game, values=(QuadraticClippedValue(a=4.0, b=1.0), *game.values[1:])), hetero)
        code, doc = run(["certify", "--game", str(hetero), "--theorem", "near-potential"],
                        tmp_path / "r2.json")
        assert code == 2 and doc is None
        assert "--f-common is required for heterogeneous values" in capsys.readouterr().err

    def test_f_common_at_its_log_pole_exits_2(self, tmp_path, capsys):
        game, f_common = tmp_path / "g.json", tmp_path / "f.json"
        save_game(Game(w=np.array([[1.0, 0.5], [0.5, 1.0]]), lower=np.zeros(2), upper=np.ones(2),
                       values=(LogValue(a=1.0, s=1.0),) * 2, costs=(QuadraticCost(c0=1.0),) * 2), game)
        f_common.write_text(json.dumps(spec_to_dict(AffineReparam(LogValue(a=1.0, s=1.0), 1.0, 1.0))))
        code, doc = run(["certify", "--game", str(game), "--theorem", "near-potential",
                         "--f-common", str(f_common)], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "does not cover the required interval" in capsys.readouterr().err

    def test_w0_from_matrix_file(self, fig1a_path, tmp_path):
        w0_path = tmp_path / "w0.json"
        w0_path.write_text(json.dumps(np.eye(4).ravel().tolist()))
        code, doc = run(
            ["certify", "--game", fig1a_path, "--theorem", "near-symmetric",
             "--w0", str(w0_path)],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["theorem"] == "near_symmetric"
        assert doc["threshold"] == pytest.approx(1.0, abs=1e-10)

    def test_w0_file_with_nan_exits_2(self, fig1a_path, tmp_path, capsys):
        w0 = np.eye(4)
        w0[0, 1] = w0[1, 0] = np.nan
        w0_path = tmp_path / "w0.json"
        w0_path.write_text(json.dumps(w0.ravel().tolist()))  # json writes and reads NaN
        code, doc = run(["certify", "--game", fig1a_path, "--theorem", "near-symmetric",
                         "--w0", str(w0_path)], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "W0 has non-finite entries" in capsys.readouterr().err

    def test_w0_near_the_largest_float(self, fig1a_path, tmp_path):
        # W0's symmetric part would overflow if its entries were summed before halving
        w0 = np.eye(4)
        w0[0, 1] = w0[1, 0] = 1.7e308
        w0_path = tmp_path / "w0.json"
        w0_path.write_text(json.dumps(w0.ravel().tolist()))
        code, doc = run(["certify", "--game", fig1a_path, "--theorem", "near-symmetric",
                         "--w0", str(w0_path)], tmp_path / "r.json")
        assert code == 0 and doc["verdict"] == "fail"
        assert doc["details"]["sigma_0"] == doc["threshold"] < -1.7e308
        assert doc["notes"][-1] == "W0 is not positive definite beyond the rounding slack"

    def test_maps_file_enables_transform_pass(self, tmp_path, two_player_triangular):
        src = tmp_path / "tri.json"
        save_game(two_player_triangular, src)
        maps_path = tmp_path / "maps.json"
        d = 1 / 0.225
        maps_path.write_text(json.dumps([{"d": [d, d * d], "b": [0.0, 0.0]}]))
        code, doc = run(
            ["certify", "--game", str(src), "--maps", str(maps_path)],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["verdict"] == "pass"
        assert doc["transform"].startswith("map[0]")


class TestTransform:
    def test_normalize_triangular(self, tmp_path, two_player_triangular):
        src = tmp_path / "tri.json"
        save_game(two_player_triangular, src)
        out_game = tmp_path / "tri2.json"
        code, doc = run(
            ["transform", "--game", str(src), "--normalize-triangular",
             "--out-game", str(out_game)],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["map"]["d"] == pytest.approx([1 / 0.225, (1 / 0.225) ** 2])
        from netgoods.gamefile import load_game

        g2 = load_game(out_game)
        assert g2.w[0, 1] == pytest.approx(0.225)

    def test_explicit_map(self, n1_path, tmp_path):
        out_game = tmp_path / "g2.json"
        code, doc = run(
            ["transform", "--game", n1_path, "--d", "2", "--b", "0",
             "--out-game", str(out_game)],
            tmp_path / "r.json",
        )
        assert code == 0
        from netgoods.gamefile import load_game

        assert load_game(out_game).upper[0] == 4.0

    def test_non_numeric_eps_exits_2(self, tmp_path, two_player_triangular, capsys):
        src = tmp_path / "tri.json"
        save_game(two_player_triangular, src)
        code, doc = run(["transform", "--game", str(src), "--normalize-triangular", "--eps", "abc",
                         "--out-game", str(tmp_path / "tri2.json")], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "error: --eps" in capsys.readouterr().err
        assert not (tmp_path / "tri2.json").exists()


class TestStatics:
    def test_n1_with_fd(self, n1_path, tmp_path):
        code, doc = run(
            ["statics", "--game", n1_path, "--delta", "1", "--fd-t", "1e-4"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["du_dt"][0] == pytest.approx(1.0, abs=1e-8)
        assert doc["dx_dt"][0] == pytest.approx(-2 / 3, abs=1e-8)
        assert doc["fd"]["du_rel_err"] < 1e-3

    def test_boundary_ne_is_input_error(self, fig1a_path, tmp_path):
        code = main(["statics", "--game", fig1a_path, "--delta", "1,1,1,1",
                     "--x-star", "1,1,0,0", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_singular_system_exits_1(self, tmp_path, capsys):
        # both players see the same gain through an all-ones W, so the system that
        # dx/dt solves is singular: a computation failure, not an input error
        game = Game(w=np.ones((2, 2)), lower=np.zeros(2), upper=np.full(2, 2.0),
                    values=(LogValue(a=1.0, s=1.0),) * 2, costs=(LinearCost(c1=0.5),) * 2)
        save_game(game, tmp_path / "g.json")
        code, doc = run(["statics", "--game", str(tmp_path / "g.json"), "--x-star", "0.5,0.5",
                         "--delta", "1,0"], tmp_path / "r.json")
        assert code == 1 and doc is None
        assert capsys.readouterr().err.startswith(
            "computation failed: statics system is numerically singular")


class TestCasestudy:
    def test_case1_report_and_csv(self, tmp_path):
        csv_path = tmp_path / "samples.csv"
        code, doc = run(
            ["casestudy", "case1", "--n", "10", "--p0", "1", "--samples", "100",
             "--seed", "3", "--csv", str(csv_path)],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["samples"] == 100
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("sample,seed,inf_norm")
        assert len(lines) == 101

    def test_case1_csv_fields_are_numbers(self, tmp_path):
        from netgoods.casestudy import _edges, coupling_residual, monte_carlo_case1
        from netgoods.certificates import _peak

        # how many verdicts the sigma bound decides (the residual's peak lies below
        # c0/(2b)), and how many samples pass: at c0 = 1 every peak fails its sample
        for c0, by_sigma, passed in ((1.0, 0, 0), (5.0, 1, 0), (40.0, 100, 100)):
            csv_path = tmp_path / f"samples{c0}.csv"
            code, _ = run(["casestudy", "case1", "--n", "12", "--p0", "2", "--samples", "100",
                           "--seed", "4", "--c0", str(c0), "--csv", str(csv_path)], tmp_path / "r.json")
            assert code == 0
            rep = monte_carlo_case1(12, 2.0, 3.0, 1.0, c0, samples=100, seed=4)
            header, *rows = csv_path.read_text().splitlines()
            assert header == "sample,seed,inf_norm,sigma_max,within_bound,certified"
            parsed = [(int(s), int(seed), float(inf), float(sig), int(within), int(cert))
                      for s, seed, inf, sig, within, cert in (row.split(",") for row in rows)]
            assert [row[0] for row in parsed] == list(range(100))
            assert [row[1] for row in parsed] == rep.sample_seeds
            assert np.array_equal([row[2] for row in parsed], rep.inf_norms)
            sigma = np.array([row[3] for row in parsed])
            assert sigma.tobytes() == rep.sigma_maxes.tobytes()
            within = np.array([row[4] for row in parsed], dtype=bool)
            assert np.array_equal(within, rep.within_bound)
            assert rep.frac_inf_norm_within == float(np.mean(rep.within_bound))
            certified = np.array([row[5] for row in parsed], dtype=bool)
            assert np.array_equal(certified, rep.certified)
            peaks = np.array([_peak(coupling_residual(e + np.eye(12)))
                              for e in _edges(12, 2.0 / 12, rep.sample_seeds)])
            assert (np.sum(peaks < c0 / 2.0), np.sum(certified)) == (by_sigma, passed)

    @pytest.mark.parametrize("flag", ["--a", "--b", "--c0"])
    def test_case1_infinite_family_parameter_exits_2(self, tmp_path, flag):
        code, doc = run(["casestudy", "case1", "--n", "10", "--samples", "100", "--seed", "1",
                         flag, "inf"], tmp_path / "r.json")
        assert code == 2 and doc is None

    @pytest.mark.parametrize("args", [
        ["casestudy", "case1", "--n", "10", "--samples", "100", "--seed", "-1"],
        ["casestudy", "case2", "--n", "3", "--seed", "-1"],
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, args):
        code, doc = run(args, tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_case2_seed_range(self, tmp_path, capsys):
        code, doc = run(["casestudy", "case2", "--n", "3", "--seed", str(2**64 - 1)], tmp_path / "a.json")
        assert code == 0 and doc["seed"] == 2**64 - 1
        code, doc = run(["casestudy", "case2", "--n", "3", "--seed", str(2**64 + 5)], tmp_path / "b.json")
        assert code == 2 and doc is None
        assert "seed must lie in [0, 2**64), got 18446744073709551621" in capsys.readouterr().err
        code, doc = run(["casestudy", "case1", "--n", "5", "--samples", "100", "--seed", str(2**64 + 3)],
                        tmp_path / "c.json")
        assert code == 0 and doc["seed"] == 2**64 + 3

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_case2_empty_network_exits_2(self, tmp_path, capsys, n):
        code, doc = run(["casestudy", "case2", "--n", n, "--seed", "5"], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert f"error: need n >= 1, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["60", "200"])
    def test_case2_scaling_overflow_exits_2(self, tmp_path, capsys, n):
        # with the default a, b, c0, eps**-n itself overflows a float from n = 126
        code, doc = run(["casestudy", "case2", "--n", n, "--seed", "5"], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "error: scaling overflow: eps^-n = 10^" in capsys.readouterr().err

    def test_case2_huge_value_peak_exits_2(self, tmp_path, capsys):
        # the value's peak a^2/(4b) overflows a float; the mapped box does too, and the map is refused
        code, doc = run(["casestudy", "case2", "--n", "3", "--a", "1e308"], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "error: mapped bounds exceed" in capsys.readouterr().err

    def test_case2(self, tmp_path):
        code, doc = run(
            ["casestudy", "case2", "--n", "3", "--seed", "5"], tmp_path / "r.json"
        )
        assert code == 0
        assert doc["certificate"]["verdict"] == "pass"
        assert doc["solver_vs_backward"] < 1e-6

    def test_case2_low_density_writes_sparse_matrices(self, tmp_path):
        code, doc = run(["casestudy", "case2", "--n", "8", "--density", "0.2", "--seed", "5"],
                        tmp_path / "r.json")
        assert code == 0
        assert len(doc["W"]["vals"]) == 11  # of 64
        assert _matrix(doc["W"], 8, "W").tobytes() == random_upper_triangular(8, 0.2, 5).tobytes()
        cert = case2_pipeline(8, 3.0, 1.0, 1.0, density=0.2, seed=5).certificate
        assert _matrix(doc["certificate"]["matrix"], 8, "matrix").tobytes() == cert.matrix.tobytes()


class TestReportsCarryTheirRecords:
    """A report is its record's fields plus the command's own keys, so a field added to the record reaches it."""

    @staticmethod
    def as_json(doc):
        return strict_loads(dumps_canonical(doc))

    def test_fixed_point_and_regularized(self, fig1a_path, tmp_path):
        game = load_game(fig1a_path)
        _, doc = run(["solve", "--game", fig1a_path], tmp_path / "r.json")
        assert doc == self.as_json({"method": "fixed-point", **vars(solve_ne(game))})
        _, doc = run(["solve", "--game", fig1a_path, "--method", "regularized", "--beta-schedule", "1e-2,1e-4"],
                        tmp_path / "r.json")
        res = solve_regularized(game, [1e-2, 1e-4])
        assert doc == self.as_json({"method": "regularized", "beta_schedule": [1e-2, 1e-4], **vars(res)})

    def test_multistart_clusters(self, fig1a_path, tmp_path):
        _, doc = run(["solve", "--game", fig1a_path, "--method", "multistart", "--n-starts", "8", "--seed", "3"],
                        tmp_path / "r.json")
        reps = multi_start_probe(load_game(fig1a_path), n_starts=8, seed=3)
        assert len(reps) > 1
        assert doc["clusters"] == self.as_json([vars(r) for r in reps])

    @pytest.mark.parametrize("with_csv", [False, True])
    def test_case1(self, tmp_path, with_csv):
        # the per-sample columns go to the CSV only; --csv reads sigma_maxes, which must stay out too
        csv = str(tmp_path / "s.csv") if with_csv else None
        _, doc = run(["casestudy", "case1", "--n", "8", "--p0", "1", "--c0", "5", "--samples", "100", "--seed", "4",
                      *(["--csv", csv] if csv else [])], tmp_path / "r.json")
        rep = monte_carlo_case1(8, 1.0, 3.0, 1.0, 5.0, samples=100, seed=4)
        columns = ("sample_seeds", "inf_norms", "within_bound", "certified")
        fields = {k: v for k, v in vars(rep).items() if k not in columns}
        assert doc == self.as_json({"case": "case1", **fields, "frac_inf_norm_within": rep.frac_inf_norm_within,
                                    "frac_certificate": rep.frac_certificate, "csv": csv})
        assert "sigma_maxes" not in doc and 0.0 < doc["frac_certificate"] < 1.0

    def test_case2(self, tmp_path):
        _, doc = run(["casestudy", "case2", "--n", "6", "--density", "0.5", "--seed", "5"], tmp_path / "r.json")
        rep = case2_pipeline(6, 3.0, 1.0, 1.0, density=0.5, seed=5)
        fields = {k: v for k, v in vars(rep).items() if k not in ("w", "certificate")}
        assert doc == self.as_json({"case": "case2", **fields, "W": _w_doc(rep.w),
                                    "certificate": cli._certificate_doc(rep.certificate)})
        assert doc["certificate"].keys() == vars(rep.certificate).keys()

    def test_statics_and_its_fd_block(self, n1_path, tmp_path):
        _, doc = run(["statics", "--game", n1_path, "--delta", "1", "--x-star", "1", "--fd-t", "1e-4"],
                     tmp_path / "r.json")
        game, x_star, delta = load_game(n1_path), np.ones(1), np.ones(1)
        assert doc == self.as_json({"x_star": x_star, "delta": delta, **vars(utility_derivative(game, x_star, delta)),
                                    "fd": {"t": 1e-4, **vars(fd_check(game, x_star, delta, t=1e-4))}})


class TestOracle:
    def test_fig1a_three_equilibria(self, fig1a_path, tmp_path):
        code, doc = run(
            ["oracle", "--game", fig1a_path, "--m", "15", "--eps", "1e-8"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["count"] == 3


class TestNonFiniteFlags:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["dynamics", "--step"],
        ["dynamics", "--horizon"],
        ["solve", "--tol"],
        ["solve", "--step-eps"],
        ["solve", "--method", "multistart", "--cluster-tol"],
        ["verify", "--x", "1,1,0,0", "--eps"],
        ["oracle", "--m", "3", "--eps"],
        ["statics", "--delta", "1,1,1,1", "--fd-t"],
    ], ids=lambda argv: " ".join(argv))
    def test_is_an_input_error(self, fig1a_path, tmp_path, argv, value):
        code, doc = run([argv[0], "--game", fig1a_path, *argv[1:], value], tmp_path / "r.json")
        assert code == 2 and doc is None

    @pytest.mark.parametrize("argv", [
        ["certify", "--gamma"],
        ["solve", "--gamma"],
        ["dynamics", "--alpha"],
    ], ids=lambda argv: " ".join(argv))
    def test_infinite_weight_is_an_input_error(self, tmp_path, capsys, argv):
        game = tmp_path / "er6.json"
        save_game(random_er_game(6, 1.0, 3.0, 1.0, 1.0, seed=1), game)
        code, doc = run([argv[0], "--game", str(game), *argv[1:], "1,1,1,1,1,inf"], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert f"error: {argv[1][2:]} must be a strictly positive n-vector" in capsys.readouterr().err


class TestNanProfiles:
    @pytest.mark.parametrize("argv", [
        ["verify", "--x", "nan,1"],
        ["solve", "--x0", "nan,1"],
        ["dynamics", "--x0", "nan,1"],
        ["statics", "--delta", "1,0", "--x-star", "nan,1"],
        ["statics", "--delta", "nan,0"],
    ], ids=lambda argv: " ".join(argv))
    def test_is_an_input_error(self, tmp_path, two_player_symmetric, capsys, argv):
        path = tmp_path / "g.json"
        save_game(two_player_symmetric, path)
        code, doc = run([argv[0], "--game", str(path), *argv[1:]], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert "error:" in capsys.readouterr().err


class TestMatrixFiles:
    """--w0 and --maps files: numbers follow the game-file rules, errors name the file and entry."""

    @pytest.fixture
    def game_path(self, tmp_path, two_player_symmetric):
        path = tmp_path / "g.json"
        save_game(two_player_symmetric, path)
        return str(path)

    def certify(self, game_path, tmp_path, flag, content):
        path = tmp_path / "m.json"
        if content is not None:  # None leaves the file missing
            path.write_text(content)
        argv = ["certify", "--game", game_path, flag, str(path)]
        if flag == "--w0":
            argv += ["--theorem", "near-symmetric"]
        return run(argv, tmp_path / "r.json")

    def test_w0_by_rows(self, game_path, tmp_path):
        code, doc = self.certify(game_path, tmp_path, "--w0", "[[1, 0], [0, 1]]")
        assert code == 0 and doc["threshold"] == pytest.approx(1.0, abs=1e-10)

    def test_w0_sparse_identity_is_identity(self, tmp_path):
        game_path = tmp_path / "er.json"
        save_game(random_er_game(30, 1.0, 3.0, 1.0, 1.0, seed=4), game_path)
        eye = {"rows": list(range(30)), "cols": list(range(30)), "vals": [1.0] * 30}
        code, doc = self.certify(str(game_path), tmp_path, "--w0", json.dumps(eye))
        assert code == 0 and doc["theorem"] == "near_symmetric"
        argv = ["certify", "--game", str(game_path), "--theorem", "near-symmetric", "--w0", "identity"]
        assert run(argv, tmp_path / "identity.json")[0] == 0
        assert (tmp_path / "identity.json").read_bytes() == (tmp_path / "r.json").read_bytes()

    def test_w0_sparse_bad_index_is_an_input_error(self, game_path, tmp_path, capsys):
        bad = '{"rows": [0, 2], "cols": [0, 1], "vals": [1, 1]}'
        code, doc = self.certify(game_path, tmp_path, "--w0", bad)
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert err == f"error: --w0: {tmp_path / 'm.json'}.rows[1]: index 2 outside [0, 2)\n"

    @pytest.mark.parametrize("flag, content, message", [
        ("--w0", '["a", 0, 0, 1]', "--w0: {}[0]: expected a number, got 'a'"),
        ("--w0", '{"x": 1}', "--w0: {}: expected a list of 4 numbers"),
        ("--w0", "[1, 0, true, 1]", "--w0: {}[2]: expected a number, got True"),
        ("--w0", '[[1, 0], [0, "q"]]', "--w0: {}[1][1]: expected a number, got 'q'"),
        ("--maps", '[{"d": "abc", "b": [0, 0]}]', "{}[0].d: expected a list of numbers"),
        ("--maps", "[5]", "{}[0]: expected an object, got int"),
        ("--maps", '[{"d": [true, 1], "b": [0, 0]}]', "{}[0].d[0]: expected a number, got True"),
        ("--maps", '[{"d": [1, 1], "b": [0, 0]}, {"d": [1, 1], "b": ["x", 0]}]',
         "{}[1].b[0]: expected a number, got 'x'"),
        ("--f-common", '{"family": "quadratic_clipped_value", "params": {"a": 1' + "0" * 400 + ', "b": 1}}',
         "{}.params.a: integer too large for a float"),
    ], ids=["w0-string", "w0-object", "w0-bool", "w0-row-string", "maps-string", "maps-number",
            "maps-bool", "maps-second-b", "f-common-huge-int"])
    def test_bad_entry_is_an_input_error(self, game_path, tmp_path, capsys, flag, content, message):
        code, doc = self.certify(game_path, tmp_path, flag, content)
        assert code == 2 and doc is None
        assert capsys.readouterr().err == f"error: {message.format(tmp_path / 'm.json')}\n"

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read {flag} file {path}: "),
        ("[1, 0", "{flag} file {path} is not valid JSON: "),
    ], ids=["missing", "not-json"])
    @pytest.mark.parametrize("flag", ["--maps", "--f-common", "--w0"])
    def test_unreadable_file_is_an_input_error(self, game_path, tmp_path, capsys, flag, content, message):
        code, doc = self.certify(game_path, tmp_path, flag, content)
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(flag=flag, path=tmp_path / "m.json"))


OUTPUT_FLAGS = pytest.mark.parametrize("argv, flag", [
    (["verify", "--x", "1"], "--out"),
    (["verify", "--x", "1"], "--meta"),
    (["dynamics", "--horizon", "0.1"], "--csv"),
    (["casestudy", "case1", "--n", "5", "--samples", "100"], "--csv"),
    (["transform", "--d", "2", "--b", "0"], "--out-game"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)


def refuse_to_compute(monkeypatch):
    """Make every command fail the moment it starts work: a game load or a case study."""
    def computed(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    monkeypatch.setattr(cli, "load_game", computed)
    monkeypatch.setattr(cli.cs, "monte_carlo_case1", computed)


class TestContract:
    def test_missing_required_flag_exits_2_without_artifact(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_bad_game_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1}')
        assert main(["verify", "--game", str(bad), "--x", "1"]) == 2

    @pytest.mark.parametrize("field, value", [
        ("cost", {"family": "linear_cost", "params": {"c1": float("inf")}}),
        ("W", 10**400),
        ("upper", 10**400),
    ], ids=["infinite-c1", "huge-W", "huge-upper"])
    def test_unrepresentable_game_number_exits_2(self, tmp_path, capsys, field, value):
        doc = game_to_dict(make_fig1a_game())
        if field == "cost":
            doc["players"][1]["cost"] = value
        else:
            doc[field][1] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))  # writes Infinity and all 401 digits
        code, report = run(["solve", "--game", str(path)], tmp_path / "r.json")
        assert code == 2 and report is None
        assert "error:" in capsys.readouterr().err

    def test_game_spec_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        doc = game_to_dict(make_fig1a_game())
        doc["players"][1]["cost"]["params"]["c0"] = 10**400
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))  # writes all 401 digits
        code, report = run(["solve", "--game", str(path)], tmp_path / "r.json")
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {path}.players[1].cost.params.c0: integer too large for a float\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "multistart", "--n-starts", str(10**15)],  # 8 PB of starts
        ["casestudy", "case2", "--n", str(10**7)],  # an 800 TB W
        # more bytes than numpy can index: refused before any allocation
        ["casestudy", "case1", "--n", str(10**10), "--samples", "100"],
        ["casestudy", "case2", "--n", str(10**10)],
        ["casestudy", "case1", "--n", str(10**20), "--samples", "100"],
        ["solve", "--method", "multistart", "--n-starts", str(10**20)],
        # p0 = 1e103 overflows the tail bound's p0**3: the size check comes first
        ["casestudy", "case1", "--n", str(10**103), "--p0", "1e103", "--samples", "100"],
    ], ids=["multistart", "case2", "case1-index", "case2-index", "case1-dimension", "multistart-dimension",
            "case1-before-overflow"])
    def test_size_too_large_to_allocate_exits_2(self, n1_path, tmp_path, capsys, argv):
        game = [] if argv[0] == "casestudy" else ["--game", n1_path]
        code, doc = run([*argv, *game], tmp_path / "r.json")
        assert code == 2 and doc is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_reports_byte_identical_across_runs(self, tmp_path):
        args = ["casestudy", "case1", "--n", "8", "--p0", "1",
                "--samples", "100", "--seed", "11"]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([*args, "--out", str(p1)]) == 0
        assert main([*args, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_meta_file_separate_from_report(self, n1_path, tmp_path):
        out, meta = tmp_path / "r.json", tmp_path / "m.json"
        assert main(["solve", "--game", n1_path, "--out", str(out),
                     "--meta", str(meta)]) == 0
        report = out.read_text()
        assert "started_unix" not in report
        assert "started_unix" in meta.read_text()

    @OUTPUT_FLAGS
    def test_output_path_in_a_missing_directory_exits_2(self, n1_path, tmp_path, capsys, monkeypatch,
                                                        argv, flag):
        refuse_to_compute(monkeypatch)
        game = [] if argv[0] == "casestudy" else ["--game", n1_path]
        missing = tmp_path / "missing" / "file"
        out = [] if flag == "--out" else ["--out", str(tmp_path / "r.json")]
        assert main([*argv, *game, *out, flag, str(missing)]) == 2
        assert f"error: [Errno 2] No such file or directory: '{missing}'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @OUTPUT_FLAGS
    def test_output_path_that_is_a_directory_exits_2(self, n1_path, tmp_path, capsys, monkeypatch,
                                                     argv, flag):
        refuse_to_compute(monkeypatch)
        game = [] if argv[0] == "casestudy" else ["--game", n1_path]
        out = [] if flag == "--out" else ["--out", str(tmp_path / "r.json")]
        assert main([*argv, *game, *out, flag, str(tmp_path)]) == 2
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_output_path_under_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        refuse_to_compute(monkeypatch)
        under = tmp_path / "r.json" / "x.csv"
        (tmp_path / "r.json").write_text("kept")
        assert main(["casestudy", "case1", "--n", "5", "--csv", str(under)]) == 2
        assert f"error: [Errno 20] Not a directory: '{under}'" in capsys.readouterr().err
        assert (tmp_path / "r.json").read_text() == "kept"

    def test_stdout_when_no_out(self, n1_path, capsys):
        assert main(["verify", "--game", n1_path, "--x", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_ne"] is True

    def test_one_parser_serves_repeated_calls(self, fig1a_path, capsys):
        commands = [
            ["solve", "--game", fig1a_path],
            ["verify", "--game", fig1a_path, "--x", "1,1,0,0"],
            ["certify", "--game", fig1a_path],
            ["dynamics", "--game", fig1a_path, "--horizon", "0.5"],
            ["solve", "--game", fig1a_path, "--no-such-flag"],  # argparse error
            ["solve", "--game", fig1a_path, "--max-iter", "0"],  # InputError
        ]

        def run_one(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in commands:
            build_parser.cache_clear()
            fresh.append(run_one(argv))
        build_parser.cache_clear()
        shared = [run_one(argv) for _ in range(2) for argv in commands]
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2]
        assert all(out for _, out, _ in fresh[:4]) and all(err for _, _, err in fresh[4:])
        assert shared == fresh * 2


#: argv in a directory holding sym.json (two players), map.json (one map, not a list of
#: maps) and w0.json (three entries); the module whose solve_ne is stubbed not to
#: converge, or None; and the error message
REFUSALS = [
    (["verify", "--game", "sym.json", "--x", "1,a"], None, "--x: expected comma-separated reals, got '1,a'"),
    (["verify", "--game", "sym.json", "--x", "mid"], None, "--x=mid is not supported here"),
    (["transform", "--game", "sym.json", "--out-game", "o.json"], None,
     "provide --d and --b, or --normalize-triangular"),
    (["transform", "--game", "sym.json", "--d", "1,1", "--out-game", "o.json"], None,
     "provide --d and --b, or --normalize-triangular"),
    (["certify", "--game", "sym.json", "--maps", "map.json"], None, "map.json: expected a JSON list of maps"),
    (["certify", "--game", "sym.json", "--theorem", "near-symmetric", "--w0", "w0.json"], None,
     "--w0: matrix in w0.json has 3 entries, need 4"),
    (["statics", "--game", "sym.json", "--delta", "1,0"], "cli",
     "equilibrium solve did not converge; pass --x-star explicitly"),
    (["statics", "--game", "sym.json", "--delta", "1,0", "--x-star", "0.75,0.75", "--fd-t", "1e-4"], "statics",
     "perturbed solve at t=0.0001 did not converge"),
    # f''*delta overflows; the fd solves at +-1e300 reach utilities of -inf
    (["statics", "--game", "sym.json", "--delta", "1e308,-1e308"], None,
     "the derivatives along delta = [1e+308, -1e+308] are not finite floats"),
    (["statics", "--game", "sym.json", "--delta", "1,0", "--fd-t", "1e300"], None,
     "the finite differences along delta = [1.0, 0.0] at t = 1e+300 are not finite floats"),
    (["dynamics", "--game", "sym.json", "--step", "1", "--horizon", "0.4"], None,
     "horizon 0.4 rounds to 0 steps of 1.0; a run takes round(horizon/step) steps"),
    (["dynamics", "--game", "sym.json", "--step", "1", "--horizon", "0.5"], None,
     "horizon 0.5 rounds to 0 steps of 1.0; a run takes round(horizon/step) steps"),
    (["solve", "--game", "sym.json", "--step-eps", "1e-320"], None,
     "the stop threshold tol * step_eps = 1e-10 * 1e-320 is not a positive finite float"),
]


@pytest.mark.parametrize("argv, stubbed, message", REFUSALS, ids=[" ".join(argv) for argv, _, _ in REFUSALS])
def test_refusals_exit_2_with_their_message(tmp_path, monkeypatch, capsys, argv, stubbed, message):
    # RuntimeWarnings are errors in this suite, so none of these may warn on the way
    from netgoods import statics

    monkeypatch.chdir(tmp_path)
    save_game(make_two_player_symmetric(), "sym.json")
    (tmp_path / "map.json").write_text('{"d": [1, 1], "b": [0, 0]}')
    (tmp_path / "w0.json").write_text("[1, 0, 0]")
    if stubbed is not None:
        monkeypatch.setattr({"cli": cli, "statics": statics}[stubbed], "solve_ne", max_iter_result)
    assert main([*argv, "--out", "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["verify", "--x", "1e200"], ["dynamics", "--x0", "1e200", "--horizon", "0.05"]],
                         ids=["verify", "dynamics"])
def test_huge_gains_past_the_peak_do_not_warn(tmp_path, argv):
    # one player on [0, 1e200] with a linear cost: past the peak 1.5 the value reads
    # its peak, and the curved side's a*t - b*t^2, which would overflow, is not evaluated
    path = tmp_path / "big.json"
    save_game(Game(w=np.eye(1), lower=np.zeros(1), upper=np.array([1e200]),
                   values=(QuadraticClippedValue(a=3.0, b=1.0),), costs=(LinearCost(c1=1.0),)), path)
    code, doc = run([argv[0], "--game", str(path), *argv[1:]], tmp_path / "r.json")
    assert code == 0
    if argv[0] == "verify":
        assert doc == {"eps": 1e-08, "gap": 1e200, "is_ne": False, "worst": 0}
    else:
        assert doc["final_sw"] == -1e200 and doc["final_br_gap"] == 1e200


def test_near_symmetric_against_the_symmetrized_w(tmp_path):
    # sym.json's W is symmetric, so W0 = (W + W^T)/2 = W: the coupling term alone is
    # left, 2 L_i |w_ij| / C_i = 0.5 against lambda_min(W0) = 0.5, and the rounding
    # slack decides the fail
    from netgoods.certificates import cert_near_symmetric

    game = make_two_player_symmetric()
    save_game(game, tmp_path / "sym.json")
    code, doc = run(["certify", "--game", str(tmp_path / "sym.json"), "--theorem", "near-symmetric",
                     "--w0", "symmetrized"], tmp_path / "r.json")
    assert code == 0
    rep = cert_near_symmetric(game, game.w)
    assert doc["matrix"] == [[0.0, 0.5], [0.5, 0.0]] and doc["verdict"] == "fail"
    assert (doc["margin"], doc["threshold"], doc["slack"]) == (rep.margin, rep.threshold, rep.slack)
    assert -1e-14 < doc["margin"] < 0.0
