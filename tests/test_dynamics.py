import numpy as np
import pytest

from netgoods.dynamics import (
    Trajectory,
    fit_exponential,
    fit_inverse_linear,
    fit_rate,
    integrate_pseudo_gradient,
    integrate_sw_flow,
    trajectory_to_csv,
)
from netgoods.errors import InputError, IntegrationError
from netgoods.functions import QuadraticClippedValue, QuadraticCost
from netgoods.game import Game, br_gap, sw_gradient, utility_profile, weighted_welfare_gradient

ONES1 = np.ones(1)


class TestPseudoGradientFlow:
    def test_n1_converges_to_interior_ne(self, n1_game):
        traj = integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), horizon=10.0)
        assert abs(traj.final_state[0] - 1.0) < 1e-6

    def test_n1_matches_analytic_solution(self, n1_game):
        # dx/dt = 3 - 3x from 0 solves to x(t) = 1 - exp(-3t)
        traj = integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), step=1e-2, horizon=2.0)
        exact = 1.0 - np.exp(-3.0 * traj.times)
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8

    def test_constant_at_interior_ne(self, fig1a_game):
        x0 = np.full(4, 3 / 7)
        traj = integrate_pseudo_gradient(fig1a_game, np.ones(4), x0, horizon=5.0)
        assert np.max(np.abs(traj.states - x0[None, :])) < 1e-10

    def test_fig1a_basin_of_boundary_ne(self, fig1a_game):
        x0 = np.array([1.0, 1.0, 0.01, 0.01])
        traj = integrate_pseudo_gradient(fig1a_game, np.ones(4), x0, horizon=50.0)
        gap, _ = br_gap(fig1a_game, traj.final_state)
        assert gap < 1e-8
        assert np.allclose(traj.final_state, [1, 1, 0, 0], atol=1e-4)

    def test_rk4_order(self, n1_game):
        # global error should shrink at least 8x when the step is halved
        exact = 1.0 - np.exp(-3.0)
        errs = []
        for h in (0.02, 0.01):
            traj = integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), step=h, horizon=1.0)
            assert traj.times[-1] == pytest.approx(1.0)
            errs.append(abs(traj.final_state[0] - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_non_finite_state_raises(self, n1_game):
        # box projection makes game fields overflow-proof, so drive the
        # integrator core with a field that goes bad mid-flight
        from netgoods.dynamics import _integrate

        def field(x):
            return np.array([np.nan]) if x[0] > 0.5 else np.array([1.0])

        with pytest.raises(IntegrationError) as exc:
            _integrate(n1_game, field, np.zeros(1), step=0.1, horizon=5.0)
        assert isinstance(exc.value.last_good, Trajectory)
        assert np.all(np.isfinite(exc.value.last_good.states))
        assert exc.value.last_good.times.size >= 2

    def test_bad_step_rejected(self, n1_game):
        with pytest.raises(InputError):
            integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), step=0.0)

    def test_step_count_overflow_rejected(self, n1_game):
        # both are finite and positive, but horizon/step is inf
        with pytest.raises(InputError, match=r"horizon/step; got step=1e-300, horizon=10000000000\.0"):
            integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), step=1e-300, horizon=1e10)
        with pytest.raises(InputError, match="horizon/step; got"):
            integrate_sw_flow(n1_game, np.zeros(1), step=1e-300, horizon=1e10)

    def test_step_count_too_large_to_store_rejected(self, n1_game):
        # 10^300 steps is a finite count, so only the size of the stored states refuses it
        with pytest.raises(InputError, match=r"horizon/step is too large: an array of shape \(\d{300}, 1\)"):
            integrate_sw_flow(n1_game, np.zeros(1), step=1e-300, horizon=1.0)

    def test_states_beyond_physical_memory_rejected(self, n1_game, fig1a_game, monkeypatch):
        # 10^12 steps can be indexed, but their 8 TB of states exceed any memory: refused before a step
        from netgoods import dynamics

        monkeypatch.setattr(Game, "project", lambda *args: pytest.fail("took a step"))
        with pytest.raises(InputError, match=r"horizon/step is too large: 1000000000001 stored states of 1 "
                                             r"floats, with their per-step records, take 33000000000033 bytes, "
                                             r"more than the \d+ bytes"):
            integrate_sw_flow(n1_game, np.zeros(1), step=1e-12, horizon=1.0)
        monkeypatch.undo()
        # the limit is the bytes of every per-step array: 201 rows of 4 floats, a time, a clipped flag, the
        # welfare and the gap need 201 * 57 = 11457, and 201 * 8 more with an energy
        for x_star, need in ((None, 11457), (np.ones(4), 13065)):
            monkeypatch.setattr(dynamics, "_physical_memory", lambda: need - 1)
            with pytest.raises(InputError, match=f"201 stored states of 4 floats, with their per-step records, "
                                                 f"take {need} bytes, more than the {need - 1}"):
                integrate_pseudo_gradient(fig1a_game, np.ones(4), np.full(4, 0.5), step=1e-2, horizon=2.0,
                                          x_star=x_star)
            monkeypatch.setattr(dynamics, "_physical_memory", lambda: need)
            traj = integrate_pseudo_gradient(fig1a_game, np.ones(4), np.full(4, 0.5), step=1e-2, horizon=2.0,
                                             x_star=x_star)
            assert len(traj.times) > 1

    def test_peak_memory_is_what_the_cap_counts(self, n1_game):
        # 5000 steps at n=1: every per-step array is allocated once, as the cap counts it; states kept as a
        # list of (1,) arrays took about 26 times the bytes of the stored floats
        import tracemalloc

        from netgoods.dynamics import _trajectory_bytes

        tracemalloc.start()
        try:
            traj = integrate_sw_flow(n1_game, np.zeros(1), step=2e-4, horizon=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == 5001 and not traj.converged
        assert peak <= 2 * _trajectory_bytes(5001, 1, False)


class TestSwFlow:
    def test_n1_rate_is_minus_six(self, n1_game):
        # SW = 3x - 1.5x^2 is 3-strongly concave; gap decays like exp(-2*3*t)
        traj = integrate_sw_flow(n1_game, np.zeros(1), step=1e-2, horizon=3.0)
        sw_star = 1.5
        gaps = sw_star - traj.sw
        fit = fit_rate(traj.times, gaps)
        assert fit.model == "exponential"
        assert fit.rate == pytest.approx(-6.0, rel=0.10)
        assert fit.r_squared > 0.999

    def test_identity_network_limit_is_individual_optima(self):
        # with W = I each player maximizes f_i - c_i alone: x_i* = a_i/(2b_i + c0_i)
        a = np.array([3.0, 4.0, 2.5])
        b = np.array([1.0, 0.8, 1.2])
        c0 = np.array([1.0, 2.0, 0.5])
        g = Game(
            w=np.eye(3), lower=np.zeros(3), upper=np.full(3, 1.4),
            values=tuple(QuadraticClippedValue(a=a[i], b=b[i]) for i in range(3)),
            costs=tuple(QuadraticCost(c0=c0[i]) for i in range(3)),
        )
        traj = integrate_sw_flow(g, np.full(3, 0.1), horizon=40.0)
        expect = a / (2 * b + c0)
        assert np.allclose(traj.final_state, expect, atol=1e-7)

    def test_symmetric_pair_limit_maximizes_welfare(self, two_player_symmetric):
        g = two_player_symmetric
        traj = integrate_sw_flow(g, np.zeros(2), horizon=40.0)
        sw_lim = utility_profile(g, traj.final_state)[1]
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x = rng.uniform(g.lower, g.upper)
            assert utility_profile(g, x)[1] <= sw_lim + 1e-9

    def test_sw_nondecreasing_on_interior(self, two_player_symmetric):
        traj = integrate_sw_flow(two_player_symmetric, np.array([0.1, 1.1]), horizon=20.0)
        interior = ~traj.clipped
        diffs = np.diff(traj.sw)
        assert np.all(diffs[interior[1:]] >= -1e-9)

    def test_strong_concavity_gradient_inequality(self, n1_game):
        # 2*c*(SW(x*) - SW(x)) <= |grad SW(x)|^2: modulus 3 on the quadratic
        # branch [0, 1.5], modulus 1 (cost curvature only) on the whole box
        sw_star = 1.5
        for x in np.linspace(0.0, 1.5, 1000):
            sw = utility_profile(n1_game, np.array([x]))[1]
            grad = sw_gradient(n1_game, np.array([x]))
            assert 2 * 3.0 * (sw_star - sw) <= float(grad @ grad) + 1e-9
        for x in np.linspace(0.0, 2.0, 1000):
            sw = utility_profile(n1_game, np.array([x]))[1]
            grad = sw_gradient(n1_game, np.array([x]))
            assert 2 * 1.0 * (sw_star - sw) <= float(grad @ grad) + 1e-9


class TestEnergy:
    def test_energy_nonincreasing_on_certified_game(self):
        from netgoods.certificates import cert_near_individual
        from netgoods.equilibrium import solve_ne

        w = np.array([[1.0, 0.05, 0.03], [0.02, 1.0, 0.04], [0.05, 0.01, 1.0]])
        g = Game(
            w=w, lower=np.zeros(3), upper=np.full(3, 0.6),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(3)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(3)),
        )
        assert cert_near_individual(g).passed
        x_star = solve_ne(g).x_star
        traj = integrate_pseudo_gradient(
            g, np.ones(3), np.array([0.1, 0.5, 0.3]), horizon=10.0, x_star=x_star
        )
        assert traj.energy is not None
        assert np.all(traj.energy >= -1e-12)
        assert np.all(np.diff(traj.energy) <= 1e-10)


class TestFitRate:
    def test_synthetic_exponential(self):
        t = np.linspace(0, 5, 101)
        fit = fit_rate(t, np.exp(-2.0 * t))
        assert fit.model == "exponential"
        assert fit.rate == pytest.approx(-2.0, abs=1e-8)
        assert fit.r_squared > 0.999

    def test_synthetic_inverse_linear(self):
        t = np.linspace(1, 100, 200)
        fit = fit_rate(t, 1.0 / t)
        assert fit.model == "inverse_linear"
        assert fit.r_squared > 0.999
        assert fit.rate == pytest.approx(1.0, abs=1e-8)

    def test_transient_discarded(self):
        # first 10% corrupted; fit should still recover the clean exponential
        t = np.linspace(0, 5, 100)
        g = np.exp(-2.0 * t)
        g[:9] = 5.0
        fit = fit_exponential(t, g)
        assert fit.rate == pytest.approx(-2.0, abs=1e-6)

    def test_degenerate_series(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(InputError):
            fit_rate(t, np.zeros(20))
        with pytest.raises(InputError):
            fit_rate(t, np.ones(20))
        with pytest.raises(InputError):
            fit_rate(t[:5], np.exp(-t[:5]))

    def test_inverse_linear_needs_positive_times(self):
        t = np.linspace(-2, -1, 50)
        with pytest.raises(InputError):
            fit_inverse_linear(t, np.exp(-t))


    def test_fit_rate_falls_back_to_the_exponential(self):
        # no time is positive, so the inverse-linear fit refuses and fit_rate keeps the exponential
        t = np.linspace(-2, -1, 50)
        with pytest.raises(InputError, match="inverse-linear fit needs at least 2 samples with t > 0"):
            fit_inverse_linear(t, np.exp(-t))
        assert fit_rate(t, np.exp(-t)) == fit_exponential(t, np.exp(-t))
        assert fit_rate(t, np.exp(-t)).model == "exponential"


T20 = np.linspace(0.0, 1.0, 20)


@pytest.mark.parametrize("call, message", [
    (lambda g: fit_rate(T20, np.exp(-T20)[:19]), "times and gaps must be 1-D arrays of equal length"),
    (lambda g: fit_exponential(T20[None], np.exp(-T20)[None]), "times and gaps must be 1-D arrays of equal length"),
    (lambda g: fit_rate(T20[:5], np.exp(-T20[:5])), "need at least 10 samples, got 5"),
    (lambda g: fit_rate(T20, np.zeros(20)), "degenerate series: non-positive gaps"),
    (lambda g: fit_rate(T20, np.ones(20)), "degenerate series: constant gaps"),
    (lambda g: integrate_sw_flow(g, np.zeros(1), step=0.0), "need finite step>0, horizon>0, horizon/step; "
                                                            "got step=0.0, horizon=50.0"),
    (lambda g: integrate_pseudo_gradient(g, ONES1, np.zeros(1), step=1.0, horizon=0.5),
     "horizon 0.5 rounds to 0 steps of 1.0; a run takes round(horizon/step) steps"),
    (lambda g: integrate_sw_flow(g, np.zeros(1), step=0.3, horizon=0.1),
     "horizon 0.1 rounds to 0 steps of 0.3; a run takes round(horizon/step) steps"),
], ids=["lengths", "2-d", "too-few", "zero-gaps", "constant-gaps", "step-zero", "half-a-step", "third-of-a-step"])
def test_refusals(n1_game, call, message):
    with pytest.raises(InputError) as exc:
        call(n1_game)
    assert str(exc.value) == message


def test_a_horizon_rounds_to_its_step_count(n1_game):
    # round(horizon/step) steps: 0.6 rounds up to one step of 1, 0.14 down to one of 0.1
    for step, horizon, t_final in ((1.0, 0.6, 1.0), (0.1, 0.14, 0.1), (0.1, 0.16, 0.2)):
        traj = integrate_sw_flow(n1_game, np.zeros(1), step=step, horizon=horizon)
        assert traj.times[-1] == t_final


class TestCsvExport:
    def test_columns_and_roundtrip(self, n1_game, tmp_path):
        traj = integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), horizon=0.1)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,sw,br_gap,energy"
        assert len(lines) == traj.times.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[-1] == ""  # no energy recorded

    @pytest.mark.parametrize("with_energy", [False, True])
    def test_bytes_equal_row_by_row_writer(self, fig1a_game, tmp_path, with_energy):
        # reference: the writer that formats every value with repr, one row at a time
        import csv

        x_star = np.array([1.0, 1.0, 0.0, 0.0]) if with_energy else None
        traj = integrate_pseudo_gradient(fig1a_game, np.ones(4), np.array([0.3, 0.0, 0.7, 1e-17]),
                                         horizon=0.5, x_star=x_star)
        assert (traj.energy is not None) == with_energy
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_1", "x_2", "x_3", "x_4", "sw", "br_gap", "energy"])
            for k in range(traj.times.size):
                energy = "" if traj.energy is None else repr(float(traj.energy[k]))
                writer.writerow([repr(float(traj.times[k])),
                                 *[repr(float(v)) for v in traj.states[k]],
                                 repr(float(traj.sw[k])), repr(float(traj.br_gaps[k])), energy])
        got = tmp_path / "got.csv"
        trajectory_to_csv(traj, got)
        assert got.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("with_energy", [False, True])
    def test_chunks_write_the_one_shot_bytes(self, n1_game, tmp_path, with_energy):
        # reference: the writer that formats the whole trajectory with one .tolist()
        from netgoods.dynamics import DIAG_CHUNK

        traj = integrate_pseudo_gradient(n1_game, ONES1, np.zeros(1), step=1e-2, horizon=6.0,
                                         x_star=np.ones(1) if with_energy else None)
        assert traj.times.size == 601 > 2 * DIAG_CHUNK  # two full chunks and a partial one
        cols = [traj.times[:, None], traj.states, traj.sw[:, None], traj.br_gaps[:, None]]
        if with_energy:
            cols.append(traj.energy[:, None])
        end = "\r\n" if with_energy else ",\r\n"
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            fh.write("t,x_1,sw,br_gap,energy\r\n")
            fh.writelines(",".join(map(repr, row)) + end for row in np.hstack(cols).tolist())
        got = tmp_path / "got.csv"
        trajectory_to_csv(traj, got)
        assert got.read_bytes() == ref.read_bytes()


class TestIntegratorCore:
    def test_four_field_evaluations_per_step(self, n1_game):
        from netgoods.dynamics import _integrate
        from netgoods.game import pseudo_gradient

        calls = []

        def field(x):
            calls.append(x)
            return pseudo_gradient(n1_game, x)

        traj = _integrate(n1_game, field, np.zeros(1), step=0.01, horizon=0.5)
        steps = traj.times.size - 1
        assert steps == 50
        assert len(calls) == 1 + 4 * steps

    def test_states_bitwise_equal_to_five_evaluation_rk4(self):
        # reference: classical RK4 that re-evaluates k1 at the start of every step
        from conftest import random_small_interaction_game
        from netgoods.dynamics import FIELD_TOL, _integrate
        from netgoods.game import pseudo_gradient

        g = random_small_interaction_game(np.random.default_rng(3), n=5)

        def field(x):
            return pseudo_gradient(g, x)

        step, x = 0.05, g.lower.copy()
        ref = [x]
        for _ in range(40):
            k1 = field(g.project(x))
            k2 = field(g.project(x + 0.5 * step * k1))
            k3 = field(g.project(x + 0.5 * step * k2))
            k4 = field(g.project(x + step * k3))
            x = g.project(x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            ref.append(x)
            if np.max(np.abs(field(x))) < FIELD_TOL:
                break
        traj = _integrate(g, field, g.lower, step=step, horizon=step * 40)
        assert np.array_equal(traj.states, np.asarray(ref))

    def test_batched_diagnostics_match_per_state_across_chunks(self, monkeypatch):
        import netgoods.dynamics as dyn
        from conftest import random_small_interaction_game
        from netgoods.equilibrium import solve_ne

        monkeypatch.setattr(dyn, "DIAG_CHUNK", 7)  # 31 states: four full chunks and a partial one
        g = random_small_interaction_game(np.random.default_rng(9), n=6)
        alpha = np.linspace(0.5, 1.5, 6)
        x_star = solve_ne(g).x_star
        traj = integrate_pseudo_gradient(g, alpha, g.upper, step=0.05, horizon=1.5, x_star=x_star)
        assert traj.times.size == 31
        u_star = float(utility_profile(g, x_star)[0] @ alpha)
        grad_star = weighted_welfare_gradient(g, alpha, x_star)
        for k, x in enumerate(traj.states):
            u, sw = utility_profile(g, x)
            assert traj.sw[k] == pytest.approx(sw, abs=1e-13)
            assert traj.br_gaps[k] == pytest.approx(br_gap(g, x)[0], abs=1e-13)
            energy = u_star - float(u @ alpha) + float((x - x_star) @ grad_star)
            assert traj.energy[k] == pytest.approx(energy, abs=1e-13)

    def test_diagnostics_evaluate_each_state_once(self, monkeypatch):
        # per chunk: the utilities, shared by sw, the gaps and the energy, and the best responses' values
        import netgoods.dynamics as dyn
        from conftest import random_small_interaction_game
        from netgoods.game import Evaluator

        monkeypatch.setattr(dyn, "DIAG_CHUNK", 7)  # 31 states: four full chunks and a partial one
        g = random_small_interaction_game(np.random.default_rng(9), n=6)
        shapes = []
        value = Evaluator.value
        monkeypatch.setattr(Evaluator, "value", lambda ev, k: shapes.append(k.shape) or value(ev, k))
        traj = integrate_pseudo_gradient(g, np.ones(6), g.upper, step=0.05, horizon=1.5, x_star=g.lower)
        assert traj.times.size == 31
        assert shapes == [(6,)] + [(7, 6), (7, 6)] * 4 + [(3, 6), (3, 6)]  # x_star's, then the chunks'

    def test_last_good_carries_diagnostics(self, n1_game):
        from netgoods.dynamics import _integrate

        def field(x):
            return np.array([np.nan]) if x[0] > 0.5 else np.array([1.0])

        with pytest.raises(IntegrationError) as exc:
            _integrate(n1_game, field, np.zeros(1), step=0.1, horizon=5.0)
        good = exc.value.last_good
        assert good.sw.shape == good.br_gaps.shape == good.times.shape
        for k, x in enumerate(good.states):
            assert good.sw[k] == utility_profile(n1_game, x)[1]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_step_raises_even_when_projection_hides_it(self, n1_game, bad):
        from netgoods.dynamics import _integrate

        def field(x):  # +-inf steps land on the box edge after projection
            return np.array([bad]) if x[0] > 0.5 else np.array([1.0])

        with pytest.raises(IntegrationError, match="non-finite state") as exc:
            _integrate(n1_game, field, np.zeros(1), step=0.1, horizon=5.0)
        assert np.all(exc.value.last_good.states <= 0.5 + 0.1)

    @pytest.mark.parametrize("flow", ["pseudo", "sw"])
    def test_flows_bitwise_equal_rk4_on_public_fields(self, flow):
        # the integrators evaluate unvalidated fields on projected states; the
        # reference validates every evaluation through the public functions
        from conftest import random_small_interaction_game
        from netgoods.dynamics import FIELD_TOL
        from netgoods.equivalence import EquivalenceMap, transform_game
        from netgoods.game import pseudo_gradient

        rng = np.random.default_rng(12)
        g = random_small_interaction_game(rng, n=6)
        for _ in range(2):
            g = transform_game(g, EquivalenceMap(d=rng.uniform(0.5, 2.0, 6), b=rng.uniform(-0.5, 0.5, 6)))
        alpha = np.linspace(0.5, 2.0, 6)

        def field(x):
            return alpha * pseudo_gradient(g, x) if flow == "pseudo" else sw_gradient(g, x)

        step, x = 0.05, g.upper.copy()
        ref, clipped = [x], [False]
        for _ in range(60):
            k1 = field(x)
            k2 = field(g.project(x + 0.5 * step * k1))
            k3 = field(g.project(x + 0.5 * step * k2))
            k4 = field(g.project(x + step * k3))
            raw = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x = g.project(raw)
            ref.append(x)
            clipped.append(bool(np.any(x != raw)))
            if np.max(np.abs(field(x))) < FIELD_TOL:
                break
        if flow == "pseudo":
            traj = integrate_pseudo_gradient(g, alpha, g.upper, step=step, horizon=step * 60)
        else:
            traj = integrate_sw_flow(g, g.upper, step=step, horizon=step * 60)
        assert np.array_equal(traj.states, np.asarray(ref))
        assert list(traj.clipped) == clipped and any(clipped)
