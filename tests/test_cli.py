import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_fig1a_game
from netgoods.cli import build_parser, main
from netgoods.functions import QuadraticClippedValue
from netgoods.gamefile import save_game


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


class TestCertify:
    def test_any_on_fig1a_fails_cleanly(self, fig1a_path, tmp_path):
        code, doc = run(["certify", "--game", fig1a_path], tmp_path / "r.json")
        assert code == 0
        assert doc["verdict"] == "fail"
        assert len(doc["matrix"]) == 4

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

    def test_case2(self, tmp_path):
        code, doc = run(
            ["casestudy", "case2", "--n", "3", "--seed", "5"], tmp_path / "r.json"
        )
        assert code == 0
        assert doc["certificate"]["verdict"] == "pass"
        assert doc["solver_vs_backward"] < 1e-6


class TestOracle:
    def test_fig1a_three_equilibria(self, fig1a_path, tmp_path):
        code, doc = run(
            ["oracle", "--game", fig1a_path, "--m", "15", "--eps", "1e-8"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["count"] == 3


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

    def test_reports_byte_identical_across_runs(self, tmp_path):
        args = ["casestudy", "case1", "--n", "8", "--p0", "1",
                "--samples", "100", "--seed", "11"]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([*args, "--out", str(p1)]) == 0
        assert main([*args, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_env_seed_used_as_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETGOODS_SEED", "11")
        p1 = tmp_path / "env.json"
        assert main(["casestudy", "case1", "--n", "8", "--p0", "1",
                     "--samples", "100", "--out", str(p1)]) == 0
        assert json.loads(p1.read_text())["seed"] == 11

    def test_meta_file_separate_from_report(self, n1_path, tmp_path):
        out, meta = tmp_path / "r.json", tmp_path / "m.json"
        assert main(["solve", "--game", n1_path, "--out", str(out),
                     "--meta", str(meta)]) == 0
        report = out.read_text()
        assert "started_unix" not in report
        assert "started_unix" in meta.read_text()

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
