import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import games_and_profiles, random_small_interaction_game
from netgoods import equilibrium
from netgoods.casestudy import random_er_game
from netgoods.certificates import cert_near_individual, spectral_bounds
from netgoods.equilibrium import (
    _iterate,
    backward_induction,
    default_step_eps,
    grid_oracle,
    multi_start_probe,
    solve_ne,
    solve_regularized,
    verify_ne,
)
from netgoods.errors import InputError
from netgoods.functions import LinearCost, QuadraticClippedValue, QuadraticCost
from netgoods.equivalence import EquivalenceMap, transform_game
from netgoods.game import Game, _pseudo_gradient, br_gap, evaluate, pseudo_gradient


class TestSolveNe:
    def test_n1_unique_point(self, n1_game):
        for x0 in ([0.0], [2.0], [0.7]):
            res = solve_ne(n1_game, x0=np.array(x0))
            assert res.converged
            assert res.x_star[0] == pytest.approx(1.0, abs=1e-8)
            assert res.final_gap <= 1e-10

    def test_fig1a_stays_at_boundary_ne(self, fig1a_game):
        res = solve_ne(fig1a_game, x0=np.array([1.0, 1.0, 0.0, 0.0]))
        assert res.converged
        assert np.allclose(res.x_star, [1, 1, 0, 0], atol=1e-9)

    def test_fig1a_interior_ne_basin(self, fig1a_game):
        res = solve_ne(fig1a_game, x0=np.full(4, 0.43))
        assert res.converged
        assert np.allclose(res.x_star, 3 / 7, atol=1e-6)

    def test_converged_implies_verified(self):
        rng = np.random.default_rng(60)
        tol = 1e-10
        for _ in range(10):
            g = random_small_interaction_game(rng)
            res = solve_ne(g, tol=tol)
            assert res.converged
            assert verify_ne(g, res.x_star, 10 * tol)[0]

    def test_residual_monotone_under_certificate(self, solver_iterates):
        # contraction property: distances to the fixed point never increase
        rng = np.random.default_rng(61)
        for _ in range(5):
            g = random_small_interaction_game(rng, coupling=0.1)
            if not cert_near_individual(g).passed:
                continue
            solver_iterates.clear()
            res = solve_ne(g, step_eps=1e-3, tol=1e-9)
            assert res.converged and len(solver_iterates) == res.iterations
            d = np.max(np.abs(np.array([*solver_iterates, res.x_star]) - res.x_star[None, :]), axis=1)
            assert np.all(np.diff(d) <= 1e-12)

    def test_diverged_keeps_last_finite_point(self, n1_game, monkeypatch):
        calls = []

        def field(game, y):
            calls.append(y.copy())
            return np.full_like(y, np.nan if len(calls) == 4 else 0.1)

        monkeypatch.setattr(equilibrium, "_pseudo_gradient", field)
        res = solve_ne(n1_game, x0=np.zeros(1), step_eps=0.1)
        assert res.status == "diverged" and res.iterations == 4
        assert np.isnan(res.final_gap) and res.residual == np.inf
        # the field ran at 0, 0.01, 0.02 and 0.03, and its NaN step there left x_star at 0.03
        assert [y.shape for y in calls] == [(1,)] * 4  # the field sees (n,) profiles
        assert np.allclose(calls, [[0.0], [0.01], [0.02], [0.03]])
        assert res.x_star.tobytes() == calls[-1].tobytes()

    def test_rejects_max_iter_below_one(self, n1_game):
        for bad in (0, -3):
            with pytest.raises(InputError, match="max_iter"):
                solve_ne(n1_game, max_iter=bad)

    def test_subnormal_stop_threshold_runs(self, n1_game):
        # tol * 0.1 = 1e-321 is a positive subnormal, so the run can stop
        res = solve_ne(n1_game, tol=1e-320)
        assert res.converged and res.x_star[0] == 1.0

    def test_default_step_in_declared_range(self, fig1a_game):
        eps = default_step_eps(fig1a_game, np.ones(4))
        assert 1e-4 <= eps <= 1e-1

    def test_default_step_reads_only_sigma(self, fig1a_game):
        # 0.5 / (1 + L * sigma_max(|W|) + c0) with L = 2b = 2, sigma_max = 3, c0 = 1:
        # the same step spectral_bounds' sigma gives, never above the exact 1/16
        eps = default_step_eps(fig1a_game, np.ones(4))
        sigma, _ = spectral_bounds(np.abs(fig1a_game.w))
        assert eps == 0.5 / (1.0 + 2.0 * sigma + 1.0)
        assert eps <= 0.0625 and eps == pytest.approx(0.0625, rel=1e-14)


class TestVerifyNe:
    def test_acceptance_iff_zero_gap(self, fig1a_game):
        # br_gap(x) = 0 (to 1e-10) exactly when verify_ne accepts at 1e-10
        rng = np.random.default_rng(63)
        profiles = [np.array(p, dtype=float)
                    for p in ([1, 1, 0, 0], [0, 0, 1, 1], [3 / 7] * 4)]
        profiles += [rng.uniform(0, 1, 4) for _ in range(20)]
        for x in profiles:
            gap, _ = br_gap(fig1a_game, x)
            assert verify_ne(fig1a_game, x, 1e-10)[0] == (gap <= 1e-10)

    def test_fig1a_equilibria(self, fig1a_game):
        assert verify_ne(fig1a_game, np.array([1.0, 1, 0, 0]), 1e-8)[0]
        assert verify_ne(fig1a_game, np.array([0.0, 0, 1, 1]), 1e-8)[0]
        ok, gap, worst = verify_ne(fig1a_game, np.ones(4), 1e-8)
        assert not ok
        assert gap == pytest.approx(0.5, abs=1e-10)

    def test_gap_threshold_boundary(self, fig1a_game):
        ok, gap, _ = verify_ne(fig1a_game, np.ones(4), 0.5 + 1e-6)
        assert ok and gap <= 0.5 + 1e-6

    def test_eps_must_be_a_non_negative_number(self, fig1a_game):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InputError, match="eps must be non-negative"):
                verify_ne(fig1a_game, np.ones(4), bad)
            with pytest.raises(InputError, match="eps must be non-negative"):
                grid_oracle(fig1a_game, m=3, eps=bad)


class TestSolveRegularized:
    def test_matches_direct_solve_on_strongly_convex_costs(self, two_player_symmetric):
        direct = solve_ne(two_player_symmetric)
        reg = solve_regularized(two_player_symmetric, [1e-1, 1e-2, 1e-4, 1e-6, 1e-9])
        assert reg.converged
        assert np.max(np.abs(reg.x_star - direct.x_star)) < 1e-8

    def test_linear_cost_game_existence_path(self):
        # linear costs are not strongly convex; the vanishing regularizer
        # still lands on a point that verifies as an epsilon-NE
        w = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.3], [0.2, 0.2, 1.0]])
        g = Game(
            w=w, lower=np.zeros(3), upper=np.full(3, 2.0),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(3)),
            costs=tuple(LinearCost(c1=1.0) for _ in range(3)),
        )
        res = solve_regularized(g, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert verify_ne(g, res.x_star, 1e-4)[0]

    def test_n1_beta_stationary_points(self, n1_game):
        # f'(x) = c'(x) + 2 beta x solves to x_beta = 3/(3 + 2 beta)
        xs = []
        for beta in (0.5, 0.1, 0.01):
            res = solve_regularized(n1_game, [beta])
            assert res.x_star[0] == pytest.approx(3.0 / (3.0 + 2.0 * beta), abs=1e-7)
            xs.append(res.x_star[0])
        assert xs == sorted(xs)  # path increases toward the unregularized NE

    def test_rejects_max_iter_below_one(self, n1_game):
        for bad in (0, -3):
            with pytest.raises(InputError, match="max_iter"):
                solve_regularized(n1_game, [1e-1, 1e-2], max_iter=bad)

    def test_schedule_validation(self, n1_game):
        with pytest.raises(InputError):
            solve_regularized(n1_game, [1e-3, 1e-2])
        with pytest.raises(InputError):
            solve_regularized(n1_game, [])
        with pytest.raises(InputError):
            solve_regularized(n1_game, [1e-1, 0.0])

    @pytest.mark.parametrize("schedule", [[math.nan], [math.inf], [1.0, math.nan], [2.0, math.nan, 1.0]],
                             ids=["nan", "inf", "then-nan", "nan-inside"])
    def test_non_finite_schedule_refused(self, n1_game, schedule):
        with pytest.raises(InputError, match="^beta_schedule must be finite, strictly decreasing and positive$"):
            solve_regularized(n1_game, schedule)


class TestGridOracle:
    def test_fig1a_exactly_three(self, fig1a_game):
        out = grid_oracle(fig1a_game, m=15, eps=1e-8)
        got = sorted(tuple(np.round(x, 9)) for x in out)
        grid = np.linspace(0, 1, 15)
        expect = sorted(
            [
                (1.0, 1.0, 0.0, 0.0),
                (0.0, 0.0, 1.0, 1.0),
                tuple(np.round(np.full(4, grid[6]), 9)),
            ]
        )
        assert got == expect

    def test_n1_exact_grid_point(self, n1_game):
        out = grid_oracle(n1_game, m=101, eps=1e-8)
        assert len(out) == 1
        assert out[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_separable_game_is_product_of_argmaxes(self):
        # per-player optima 3/(2+1)=1 and 3/(2+2)=0.75 both sit on the grid
        g = Game(
            w=np.eye(2), lower=np.zeros(2), upper=np.full(2, 2.0),
            values=(QuadraticClippedValue(a=3.0, b=1.0), QuadraticClippedValue(a=3.0, b=1.0)),
            costs=(QuadraticCost(c0=1.0), QuadraticCost(c0=2.0)),
        )
        m = 41
        out = grid_oracle(g, m=m, eps=1e-9)
        grid = np.linspace(0, 2, m)
        expected = []
        for i in range(2):
            u = np.array([evaluate(g.values[i], k)[0] - evaluate(g.costs[i], k)[0] for k in grid])
            expected.append(grid[int(np.argmax(u))])
        assert expected == [1.0, 0.75]
        assert len(out) == 1
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_symmetry_under_network_automorphism(self, fig1a_game):
        # swapping the two sides (1<->3, 2<->4) is a W-automorphism
        perm = np.array([2, 3, 0, 1])
        assert np.array_equal(fig1a_game.w[np.ix_(perm, perm)], fig1a_game.w)
        out = {tuple(np.round(x, 9)) for x in grid_oracle(fig1a_game, m=15, eps=1e-8)}
        permuted = {tuple(np.round(np.asarray(x)[perm], 9)) for x in out}
        assert out == permuted

    def test_size_guard(self, fig1a_game):
        with pytest.raises(InputError, match="too large"):
            grid_oracle(fig1a_game, m=100, eps=1e-8)

    def test_no_point_closer_to_the_best_response_is_no_pass(self):
        # the best response is 0.5001, off the grid {0, 0.5, 1}; at 0.5 the gap is
        # 1.5 * 1e-4^2 = 1.5e-8 > eps, although no 2048-point deviation grid beats 0.5
        g = Game(w=np.eye(1), lower=np.zeros(1), upper=np.ones(1),
                 values=(QuadraticClippedValue(a=1.5003, b=1.0),), costs=(QuadraticCost(c0=1.0),))
        assert not verify_ne(g, np.array([0.5]), 1e-8)[0]
        assert grid_oracle(g, m=3, eps=1e-8) == []


@settings(max_examples=60, deadline=None)
@given(games_and_profiles(), st.integers(2, 6), st.sampled_from([1e-8, 1e-3, 1e-1]))
def test_grid_oracle_keeps_exactly_the_points_verify_ne_accepts(case, m, eps):
    game, _ = case
    axes = [np.linspace(lo, hi, m) for lo, hi in zip(game.lower, game.upper)]
    want = [x for x in map(np.array, itertools.product(*axes)) if verify_ne(game, x, eps)[0]]
    got = grid_oracle(game, m=m, eps=eps)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("call, message", [
    (lambda game: multi_start_probe(game, n_starts=0, seed=3), "need n_starts >= 1, got 0"),
    (lambda game: grid_oracle(random_er_game(7, 1.0, 3.0, 1.0, 1.0, seed=1), m=2, eps=1e-8),
     "grid oracle supports n <= 6, got n=7"),
    (lambda game: grid_oracle(game, m=1, eps=1e-8), "need m >= 2, got 1"),
    (lambda game: multi_start_probe(game, 2, -1), "need seed >= 0, got -1"),
    # a stop threshold tol * step that underflows to 0 never stops a run; one that overflows stops any
    (lambda game: solve_ne(game, tol=1e-300, step_eps=1e-30),
     "the stop threshold tol * step_eps = 1e-300 * 1e-30 is not a positive finite float"),
    (lambda game: solve_ne(game, tol=1e300, step_eps=1e10),
     "the stop threshold tol * step_eps = 1e+300 * 10000000000.0 is not a positive finite float"),
    (lambda game: multi_start_probe(game, 2, 0, step_eps=1e-320),
     "the stop threshold tol * step_eps = 1e-10 * 1e-320 is not a positive finite float"),
    # the beta = 1000 stage's default step is clipped to 1e-4, where tol * step underflows; at the
    # beta = 1e-3 stage's step of about 0.1 it would not
    (lambda game: solve_regularized(game, [1e3, 1e-3], tol=1e-320),
     "the stop threshold tol * step_eps = 1e-320 * 0.0001 is not a positive finite float"),
], ids=["no-starts", "grid-n7", "grid-m1", "seed-negative", "stop-underflows", "stop-overflows",
        "probe-stop-underflows", "stage-stop-underflows"])
def test_probe_and_oracle_refusals(n1_game, call, message):
    with pytest.raises(InputError) as exc:
        call(n1_game)
    assert str(exc.value) == message


class TestMultiStart:
    def test_rejects_max_iter_below_one(self, n1_game):
        for bad in (0, -3):
            with pytest.raises(InputError, match="max_iter"):
                multi_start_probe(n1_game, n_starts=5, seed=3, max_iter=bad)

    def test_n1_single_cluster(self, n1_game):
        reps = multi_start_probe(n1_game, n_starts=10, seed=3)
        assert len(reps) == 1
        assert reps[0].x_star[0] == pytest.approx(1.0, abs=1e-7)

    def test_fig1a_at_least_two_clusters(self, fig1a_game):
        reps = multi_start_probe(fig1a_game, n_starts=50, seed=7)
        assert len(reps) >= 2

    def test_certified_game_single_cluster(self):
        rng = np.random.default_rng(62)
        seen = 0
        while seen < 5:
            g = random_small_interaction_game(rng, coupling=0.1)
            if not cert_near_individual(g).passed:
                continue
            seen += 1
            reps = multi_start_probe(g, n_starts=20, seed=11, cluster_tol=1e-5)
            assert len(reps) == 1

    def test_clusters_are_single_start_solves(self, fig1a_game):
        reps = multi_start_probe(fig1a_game, n_starts=12, seed=5)
        rng = np.random.default_rng(5)
        starts = fig1a_game.lower + rng.random((12, 4)) * (fig1a_game.upper - fig1a_game.lower)
        solo = [solve_ne(fig1a_game, x0=x0) for x0 in starts]
        for r in reps:
            match = [s for s in solo if np.max(np.abs(s.x_star - r.x_star)) < 1e-9]
            assert match and match[0].status == "converged"
            assert abs(match[0].iterations - r.iterations) <= 1

    @pytest.mark.parametrize("cluster_tol", [1e-4, 0.3])
    def test_clusters_match_a_pairwise_loop(self, fig1a_game, cluster_tol):
        # reference: each converged limit against each representative so far, in start order
        g, n_starts, seed = fig1a_game, 300, 9
        reps = multi_start_probe(g, n_starts=n_starts, seed=seed, cluster_tol=cluster_tol)
        xs = g.lower + np.random.default_rng(seed).random((n_starts, g.n)) * (g.upper - g.lower)
        gamma = np.ones(g.n)
        status, _, _ = _iterate(g, None, gamma, default_step_eps(g, gamma), xs, 1e-10, 50_000)
        want = []
        for s in np.nonzero(status == "converged")[0]:
            if not any(np.max(np.abs(xs[s] - r)) <= cluster_tol for r in want):
                want.append(xs[s])
        assert len(reps) == len(want) >= 2
        for r, x in zip(reps, want):
            assert np.array_equal(r.x_star, x)

    def test_deterministic(self, fig1a_game):
        a = multi_start_probe(fig1a_game, n_starts=12, seed=5)
        b = multi_start_probe(fig1a_game, n_starts=12, seed=5)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.x_star, rb.x_star)


class TestBackwardInduction:
    def test_two_player_chain(self, two_player_triangular):
        x = backward_induction(two_player_triangular)
        assert np.allclose(x, [1 / 3, 1.0], atol=1e-10)
        assert verify_ne(two_player_triangular, x, 1e-8)[0]

    def test_identity_gives_individual_optima(self):
        g = Game(
            w=np.eye(3), lower=np.zeros(3), upper=np.full(3, 1.4),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(3)),
            costs=tuple(QuadraticCost(c0=float(c)) for c in (1.0, 2.0, 0.5)),
        )
        x = backward_induction(g)
        assert np.allclose(x, [3 / 3, 3 / 4, 3 / 2.5], atol=1e-10)

    def test_agrees_with_fixed_point_solver(self, two_player_triangular):
        bi = backward_induction(two_player_triangular)
        fp = solve_ne(two_player_triangular, tol=1e-11)
        assert fp.converged
        assert np.max(np.abs(bi - fp.x_star)) < 1e-6

    def test_rejects_non_triangular(self, fig1a_game):
        with pytest.raises(InputError, match="upper-triangular"):
            backward_induction(fig1a_game)


def plain_projected_solve(game, eps, tol, max_iter, x):
    """Reference: the projected iteration on one (1, n) row through the public field."""
    x, res, gamma = x[None, :].copy(), np.inf, np.ones(game.n)
    for it in range(1, max_iter + 1):
        y = game.project(x + eps * gamma * pseudo_gradient(game, x))
        res = np.max(np.abs(y - x))
        x = y
        if res < tol * eps:
            return x[0], it, res, "converged"
    return x[0], max_iter, res, "max_iter"


def reference_rows(game, field, gamma, eps, starts, tol, max_iter):
    """Reference: each row iterated on its own, with _iterate's stopping rules."""
    out = []
    for x in starts:
        x, status, it, res = x[None, :].copy(), "max_iter", 0, np.inf
        for it in range(1, max_iter + 1):
            y = game.project(x + eps * gamma * field(x))
            r = np.max(np.abs(y - x))
            if np.isnan(r):
                status, res = "diverged", np.inf
                break
            x, res = y, r
            if r < tol * eps:
                status = "converged"
                break
        out.append((status, it, res, x[0]))
    return out


class TestProjectedIterationBits:
    @pytest.mark.parametrize("nested", [False, True])
    def test_solve_ne_bitwise_equals_plain_loop(self, nested):
        game = random_er_game(100, 1.0, 3.0, 1.0, 1.0, seed=4)
        rng = np.random.default_rng(9)
        for _ in range(2 if nested else 0):  # affine reparameterizations nest two deep
            emap = EquivalenceMap(d=rng.uniform(0.8, 1.25, game.n), b=rng.uniform(-0.2, 0.2, game.n))
            game = transform_game(game, emap)
        eps = default_step_eps(game, np.ones(game.n))
        res = solve_ne(game)
        x, iterations, residual, status = plain_projected_solve(
            game, eps, 1e-10, 50_000, 0.5 * (game.lower + game.upper))
        assert status == res.status == "converged"
        assert np.array_equal(res.x_star, x) and res.iterations == iterations
        assert res.residual == residual

    def test_rows_stop_at_different_iterations(self, n1_game):
        # a row-wise field that is NaN on [0.6, 0.7): rows that step into it diverge
        def field(y):
            bad = (0.6 <= y) & (y < 0.7)
            return np.where(bad, np.nan, pseudo_gradient(n1_game, y))

        starts = np.array([[0.0], [0.2], [0.65], [1.0], [1.0 - 1e-9], [0.8], [1.9], [2.0]])
        gamma, eps, tol, max_iter = np.ones(1), 0.1, 1e-10, 60
        xs = starts.copy()
        status, iters, residuals = _iterate(n1_game, field, gamma, eps, xs, tol, max_iter)
        want = reference_rows(n1_game, field, gamma, eps, starts, tol, max_iter)
        assert list(status) == [w[0] for w in want]
        assert list(iters) == [w[1] for w in want]
        assert np.array_equal(residuals, [w[2] for w in want])
        assert np.array_equal(xs, np.array([w[3] for w in want]))
        assert {"converged", "diverged", "max_iter"} <= set(status)
        assert len(set(iters[status == "converged"])) > 1

    def test_diverged_row_keeps_its_last_finite_point(self, n1_game):
        def field(y):
            return np.where(y > 0.5, np.nan, pseudo_gradient(n1_game, y))

        xs = np.array([[0.0], [0.3]])
        status, iters, _ = _iterate(n1_game, field, np.ones(1), 0.1, xs, 1e-10, 100)
        assert list(status) == ["diverged", "diverged"]
        # 0 -> 0.3 -> 0.51 (NaN next) and 0.3 -> 0.51
        assert list(iters) == [3, 2]
        assert np.array_equal(xs, np.array([[0.51], [0.51]]))


class TestProfileShapes:
    """A single start iterates as one (n,) profile; it must give the (1, n) batch's bits."""

    @pytest.fixture
    def er_game(self):
        return random_er_game(100, 1.0, 3.0, 1.0, 1.0, seed=3)

    @pytest.mark.parametrize("case, max_iter", [("converged", 50_000), ("diverged", 50_000), ("max_iter", 50)])
    def test_profile_and_one_row_batch_agree(self, er_game, case, max_iter):
        game = er_game
        gamma = np.ones(game.n)
        eps = default_step_eps(game, gamma)

        def recording(hist):
            def field(y):  # NaN once an entry drops below 0.9, which the path from the centre does
                hist.append(y.copy())  # the iterate the step starts from
                grad = pseudo_gradient(game, y)
                return np.where(y < 0.9, np.nan, grad) if case == "diverged" else grad
            return field

        x0 = 0.5 * (game.lower + game.upper)
        vec, row = x0.copy(), x0[None, :].copy()
        hist_vec, hist_row = [], []
        got_vec = _iterate(game, recording(hist_vec), gamma, eps, vec, 1e-10, max_iter)
        got_row = _iterate(game, recording(hist_row), gamma, eps, row, 1e-10, max_iter)
        assert got_vec[0][0] == got_row[0][0] == case
        for a, b in zip(got_vec, got_row):  # status, iterations, residuals
            assert a.shape == b.shape == (1,) and a.tobytes() == b.tobytes()
        assert vec.tobytes() == row[0].tobytes()
        assert len(hist_vec) == len(hist_row) > 1
        assert np.asarray(hist_vec).tobytes() == np.asarray(hist_row).tobytes()

    def test_field_shapes(self, fig1a_game, monkeypatch):
        shapes = []

        def recording(game, y):
            shapes.append(y.shape)
            return _pseudo_gradient(game, y)

        monkeypatch.setattr(equilibrium, "_pseudo_gradient", recording)
        solve_ne(fig1a_game)
        solve_regularized(fig1a_game, [1.0, 0.1])
        assert set(shapes) == {(4,)}
        shapes.clear()
        multi_start_probe(fig1a_game, n_starts=6, seed=5)
        assert shapes[0] == (6, 4) and all(len(s) == 2 and s[1] == 4 for s in shapes)

    def test_gains_of_a_profile_equal_a_one_row_batch(self, er_game):
        # the (n,) iteration keeps the (1, n) bits because x @ W.T does
        rng = np.random.default_rng(17)
        wt = er_game.w.T
        for _ in range(200):
            x = er_game.lower + rng.random(er_game.n) * (er_game.upper - er_game.lower)
            assert (x @ wt).tobytes() == (x[None] @ wt)[0].tobytes()
