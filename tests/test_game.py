import importlib.util
import sys
import warnings
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings

import family_oracle as oracle
from conftest import games_and_profiles
from netgoods.certificates import cert_near_individual
from netgoods.dynamics import integrate_pseudo_gradient
from netgoods.equilibrium import solve_ne
from netgoods.errors import DomainError, InputError
from netgoods.functions import (
    AffineReparam,
    LinearCost,
    LogValue,
    QuadraticClippedValue,
    QuadraticCost,
)
from netgoods.game import (
    COST_FLOOR_TOL,
    Evaluator,
    Game,
    _best_responses,
    _fold,
    _run_field,
    best_response,
    br_gap,
    evaluate,
    externality,
    gain_bounds,
    gains,
    pseudo_gradient,
    sw_gradient,
    utility_profile,
    weighted_welfare_gradient,
)

QUAD = QuadraticClippedValue(a=3.0, b=1.0)
COST = QuadraticCost(c0=1.0)
#: stopping width of the reference bisections below
REF_TOL = 1e-12
ROOT = Path(__file__).resolve().parent.parent


def make_game(w, lo, hi):
    n = np.asarray(w).shape[0]
    return Game(
        w=w,
        lower=np.full(n, float(lo)),
        upper=np.full(n, float(hi)),
        values=tuple(QUAD for _ in range(n)),
        costs=tuple(COST for _ in range(n)),
    )


class TestValidation:
    def test_diagonal_must_be_one(self):
        with pytest.raises(InputError, match="diagonal must be 1"):
            make_game([[2.0, 0.0], [0.0, 1.0]], 0, 1)

    def test_bounds_ordered(self):
        with pytest.raises(InputError, match="lower < upper"):
            Game(w=np.eye(1), lower=np.array([1.0]), upper=np.array([1.0]),
                 values=(QUAD,), costs=(COST,))

    def test_ragged_players(self):
        with pytest.raises(InputError, match="one value spec"):
            Game(w=np.eye(2), lower=np.zeros(2), upper=np.ones(2),
                 values=(QUAD,), costs=(COST, COST))

    def test_kind_mismatch(self):
        with pytest.raises(InputError, match="cost family, expected a value"):
            Game(w=np.eye(1), lower=np.zeros(1), upper=np.ones(1),
                 values=(COST,), costs=(QUAD,))

    def test_gain_outside_value_domain_rejected(self):
        # negative reachable gains fall outside the log value's domain
        w = np.array([[1.0, -3.0], [0.0, 1.0]])
        with pytest.raises(InputError, match="gain interval"):
            Game(w=w, lower=np.zeros(2), upper=np.ones(2),
                 values=(LogValue(a=1.0, s=1.0), LogValue(a=1.0, s=1.0)),
                 costs=(COST, COST))

    @pytest.mark.parametrize("lower0", [-1.0, -1.0 - 0.5e-9])
    def test_gain_at_a_log_pole_rejected(self, lower0):
        # player 0 can reach the gain -1 = -s, where f' and f'' are unbounded
        with pytest.raises(InputError, match=r"player 0: gain interval"):
            Game(w=np.eye(2), lower=np.array([lower0, 0.0]), upper=np.ones(2),
                 values=(LogValue(a=1.0, s=1.0),) * 2, costs=(LinearCost(c1=1.0),) * 2)
        Game(w=np.eye(2), lower=np.array([np.nextafter(-1.0, 0.0), 0.0]), upper=np.ones(2),
             values=(LogValue(a=1.0, s=1.0),) * 2, costs=(LinearCost(c1=1.0),) * 2)

    def test_gain_the_folded_t_rounds_onto_a_nested_pole_rejected(self):
        # the next float above domain()'s end lies inside the domain, but the evaluator's folded
        # t = (k - v_shift)/v_scale rounds it onto the pole, where ln(mu*t + s) is -inf
        spec = AffineReparam(AffineReparam(LogValue(a=4.5725, s=3.0371), 1.7678, 1.7403), 2.5028, -1.9890)
        lower = np.array([np.nextafter(spec.domain()[0], np.inf)])
        with pytest.raises(InputError, match=r"player 0: gain interval .* \(at or below its log value's pole\)"):
            Game(w=np.eye(1), lower=lower, upper=lower + 1.0, values=(spec,), costs=(LinearCost(c1=1.0),))

    def test_action_outside_cost_domain_rejected(self):
        with pytest.raises(InputError, match="cost domain"):
            Game(w=np.eye(1), lower=np.array([-1.0]), upper=np.array([1.0]),
                 values=(QUAD,), costs=(COST,))

    def test_first_offending_player_named(self):
        # players 0 and 1 are fine; player 2 breaks each rule in turn
        ok_values, ok_costs = (QUAD, QUAD), (COST, COST)
        with pytest.raises(InputError, match=r"player 2: values\[2\] is a cost family"):
            Game(w=np.eye(3), lower=np.zeros(3), upper=np.ones(3),
                 values=(*ok_values, COST), costs=(*ok_costs, COST))
        with pytest.raises(InputError, match=r"player 2: costs\[2\] is a value family"):
            Game(w=np.eye(3), lower=np.zeros(3), upper=np.ones(3),
                 values=(*ok_values, QUAD), costs=(*ok_costs, QUAD))
        with pytest.raises(InputError, match=r"player 2: gain interval \[-1\.0, 1\.0\] "
                                             r"not contained in value domain \[-1\.0, inf\]"):
            Game(w=np.eye(3), lower=np.array([0.0, 0.0, -1.0]), upper=np.ones(3),
                 values=(*ok_values, LogValue(a=1.0, s=1.0)), costs=(*ok_costs, LinearCost(c1=1.0)))
        with pytest.raises(InputError, match=r"player 1: action box \[-1\.0, 1\.0\] "
                                             r"not contained in cost domain \[0\.0, inf\]"):
            Game(w=np.eye(3), lower=np.array([0.0, -1.0, -1.0]), upper=np.ones(3),
                 values=(QUAD,) * 3, costs=(COST, COST, LinearCost(c1=1.0)))

    def test_weights_must_be_a_strictly_positive_n_vector(self):
        g = make_game(np.eye(2), 0, 1)
        x = np.full(2, 0.5)
        for bad in ([2.0], [-1.0, 1.0], [0.0, 1.0], [np.nan, 1.0]):
            with pytest.raises(InputError, match="gamma must be a strictly positive n-vector"):
                weighted_welfare_gradient(g, bad, x)
            with pytest.raises(InputError, match="gamma must be a strictly positive n-vector"):
                solve_ne(g, gamma=bad)
            with pytest.raises(InputError, match="gamma must be a strictly positive n-vector"):
                cert_near_individual(g, bad)
            with pytest.raises(InputError, match="alpha must be a strictly positive n-vector"):
                integrate_pseudo_gradient(g, bad, x)

    @pytest.mark.parametrize("w, lower, upper, message", [
        (np.ones((2, 3)), np.zeros(2), np.ones(2), r"W must be square, got shape \(2, 3\)"),
        (np.ones(2), np.zeros(2), np.ones(2), r"W must be square, got shape \(2,\)"),
        (np.eye(2), np.zeros(3), np.ones(2), "lower/upper must be length-n vectors"),
        (np.eye(2), np.zeros(2), np.ones(1), "lower/upper must be length-n vectors"),
        ([[1.0, np.nan], [0.0, 1.0]], np.zeros(2), np.ones(2), "W has non-finite entries"),
        ([[1.0, 0.0], [-np.inf, 1.0]], np.zeros(2), np.ones(2), "W has non-finite entries"),
        (np.eye(2), [0.0, -np.inf], np.ones(2), "bounds must be finite"),
        (np.eye(2), np.zeros(2), [1.0, np.nan], "bounds must be finite"),
    ], ids=["non-square", "one-dimensional", "long-lower", "short-upper", "nan-w", "inf-w", "inf-lower",
            "nan-upper"])
    def test_malformed_arrays_refused(self, w, lower, upper, message):
        with pytest.raises(InputError, match=message):
            Game(w=w, lower=np.asarray(lower), upper=np.asarray(upper), values=(QUAD, QUAD), costs=(COST, COST))

    def test_immutability(self):
        g = make_game(np.eye(2), 0, 1)
        with pytest.raises(ValueError):
            g.w[0, 1] = 5.0


class TestGains:
    def test_direct_arithmetic(self):
        g = make_game([[1.0, 0.5], [0.3, 1.0]], 0, 2)
        assert np.allclose(gains(g, np.array([1.0, 2.0])), [2.0, 2.3])

    def test_identity_network(self):
        g = make_game(np.eye(3), 0, 1)
        x = np.array([0.2, 0.5, 0.9])
        assert np.allclose(gains(g, x), x)

    def test_fig1a(self, fig1a_game):
        assert np.allclose(gains(fig1a_game, np.array([1.0, 1.0, 0.0, 0.0])), [1, 1, 2, 2])

    def test_linearity(self):
        rng = np.random.default_rng(5)
        g = make_game([[1.0, 0.4, -0.2], [0.1, 1.0, 0.3], [0.0, 0.2, 1.0]], 0, 2)
        for _ in range(20):
            x, y = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
            a, b = rng.uniform(-1, 1, 2)
            lhs = gains(g, np.clip(a * x + b * y, g.lower, g.upper))
            # linearity of W@x itself (profile feasibility aside)
            assert np.allclose(g.w @ (a * x + b * y), a * (g.w @ x) + b * (g.w @ y), atol=1e-12)
            del lhs


class TestGainBounds:
    def test_mixed_signs(self):
        g = make_game([[1.0, -0.5], [0.3, 1.0]], 0, 1)
        gb = gain_bounds(g)
        assert gb.k_lo[0] == pytest.approx(-0.5)
        assert gb.k_hi[0] == pytest.approx(1.0)

    def test_identity(self):
        g = make_game(np.eye(2), 0.25, 1.0)
        gb = gain_bounds(g)
        assert np.allclose(gb.k_lo, g.lower) and np.allclose(gb.k_hi, g.upper)

    def test_tightness_via_sign_split_vertex(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(-1, 1, size=(5, 5))
        np.fill_diagonal(w, 1.0)
        g = Game(w=w, lower=np.zeros(5), upper=rng.uniform(0.5, 2.0, 5),
                 values=tuple(QUAD for _ in range(5)),
                 costs=tuple(COST for _ in range(5)))
        gb = gain_bounds(g)
        for i in range(5):
            x_hi = np.where(w[i] > 0, g.upper, g.lower)
            x_lo = np.where(w[i] > 0, g.lower, g.upper)
            assert gb.k_hi[i] == pytest.approx(float(w[i] @ x_hi), abs=1e-12)
            assert gb.k_lo[i] == pytest.approx(float(w[i] @ x_lo), abs=1e-12)

    def test_computed_once_read_only_same_bits(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(-1, 1, size=(6, 6))
        np.fill_diagonal(w, 1.0)
        g = Game(w=w, lower=rng.uniform(-1.0, 0.0, 6), upper=rng.uniform(0.5, 2.0, 6),
                 values=tuple(QUAD for _ in range(6)), costs=tuple(LinearCost(c1=1.0) for _ in range(6)))
        gb = gain_bounds(g)
        assert gain_bounds(g) is gb
        # the formula the bounds were computed with before they were stored
        pos, neg = np.maximum(g.w, 0.0), np.minimum(g.w, 0.0)
        want = (pos @ g.lower + neg @ g.upper, pos @ g.upper + neg @ g.lower)
        for got, ref in zip((gb.k_lo, gb.k_hi), want):
            assert got.tobytes() == ref.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.0


class TestUtilities:
    def test_n1(self, n1_game):
        u, sw = utility_profile(n1_game, np.array([1.0]))
        assert u[0] == pytest.approx(1.5)
        assert sw == pytest.approx(1.5)

    def test_fig1a_free_riders(self, fig1a_game):
        u, sw = utility_profile(fig1a_game, np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(u, [1.5, 1.5, 2.25, 2.25])
        assert sw == pytest.approx(7.5)

    def test_cancellation(self):
        # f(1) = 3-1 = 2 (unclipped) equals c(1) = c0/2 with c0 = 4
        g = Game(w=np.eye(2), lower=np.zeros(2), upper=np.full(2, 1.2),
                 values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(2)),
                 costs=tuple(QuadraticCost(c0=4.0) for _ in range(2)))
        _, sw = utility_profile(g, np.ones(2))
        assert sw == pytest.approx(0.0, abs=1e-14)


class TestPseudoGradient:
    def test_interior_stationarity(self, n1_game):
        assert pseudo_gradient(n1_game, np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_fig1a_boundary_ne(self, fig1a_game):
        pg = pseudo_gradient(fig1a_game, np.array([1.0, 1.0, 0.0, 0.0]))
        # workers: f'(1)-c'(1) = 1-1 = 0; free riders: f'(2)-c'(0) = 0-0 = 0
        assert np.allclose(pg, 0.0, atol=1e-14)

    def test_monotone_value_dominates_at_lower_bound(self, fig1a_game):
        pg = pseudo_gradient(fig1a_game, np.zeros(4))
        assert np.all(pg > 0)


class TestSwGradient:
    def test_identity_matches_pseudo_gradient(self):
        rng = np.random.default_rng(21)
        g = make_game(np.eye(4), 0, 1.2)
        for _ in range(20):
            x = rng.uniform(0, 1.2, 4)
            assert np.allclose(sw_gradient(g, x), pseudo_gradient(g, x), atol=1e-12)

    def test_n1_at_zero(self, n1_game):
        assert sw_gradient(n1_game, np.zeros(1))[0] == pytest.approx(3.0)

    def test_finite_difference_oracle(self, two_player_symmetric):
        # central differences of SW as the independent oracle
        g = two_player_symmetric
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(50):
            x = rng.uniform(0.05, 1.1, 2)
            grad = sw_gradient(g, x)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                swp = utility_profile(g, x + e)[1]
                swm = utility_profile(g, x - e)[1]
                assert (swp - swm) / (2 * h) == pytest.approx(grad[j], rel=1e-5, abs=1e-5)


def grid_argmax_br(game, i, x, m=200_001):
    """Independent best-response oracle: dense scan of own utility."""
    d = externality(game, i, x)
    t = np.linspace(game.lower[i], game.upper[i], m)
    ev = game.evaluator.column(i)
    u = ev.value(t + d) - ev.cost(t)
    return float(t[int(np.argmax(u))])


class TestBestResponse:
    def test_n1(self, n1_game):
        assert best_response(n1_game, 0, np.zeros(1)) == pytest.approx(1.0, abs=1e-10)

    def test_fig1a_free_rider(self, fig1a_game):
        # player 3 facing (1,1,.,0): gain already clipped, smallest maximizer is 0
        x = np.array([1.0, 1.0, 0.5, 0.0])
        assert best_response(fig1a_game, 2, x) == 0.0

    def test_triangular_player1(self, two_player_triangular):
        x = np.array([0.0, 1.0])
        assert best_response(two_player_triangular, 0, x) == pytest.approx(1 / 3, abs=1e-10)

    def test_against_grid_scan(self, two_player_symmetric):
        rng = np.random.default_rng(41)
        g = two_player_symmetric
        for _ in range(10):
            x = rng.uniform(0, 1.2, 2)
            for i in range(2):
                bi = best_response(g, i, x)
                oracle = grid_argmax_br(g, i, x)
                assert bi == pytest.approx(oracle, abs=1e-5)

    def test_interior_br_zeroes_own_gradient(self, two_player_symmetric):
        rng = np.random.default_rng(43)
        g = two_player_symmetric
        for _ in range(20):
            x = rng.uniform(0, 1.2, 2)
            i = int(rng.integers(0, 2))
            bi = best_response(g, i, x)
            if g.lower[i] + 1e-9 < bi < g.upper[i] - 1e-9:
                y = x.copy()
                y[i] = bi
                assert abs(pseudo_gradient(g, y)[i]) <= 1e-8


class TestBrGap:
    def test_zero_at_ne(self, fig1a_game):
        for ne in ([1, 1, 0, 0], [0, 0, 1, 1], [3 / 7] * 4):
            gap, _ = br_gap(fig1a_game, np.array(ne, dtype=float))
            assert gap <= 1e-10

    def test_full_effort_gap(self, fig1a_game):
        gap, worst = br_gap(fig1a_game, np.ones(4))
        assert gap == pytest.approx(0.5, abs=1e-10)
        assert worst in (0, 1, 2, 3)

    def test_nonnegative_random(self, fig1a_game):
        rng = np.random.default_rng(51)
        for _ in range(25):
            gap, _ = br_gap(fig1a_game, rng.uniform(0, 1, 4))
            assert gap >= 0.0


# --- batched player layer ------------------------------------------------------

BASE_VALUES = (QuadraticClippedValue(a=3.0, b=1.0), LogValue(a=2.0, s=1.5))
BASE_COSTS = (QuadraticCost(c0=1.5), LinearCost(c1=0.7))


def nest(spec, depth, rng):
    for _ in range(depth):
        spec = AffineReparam(inner=spec, scale=float(rng.uniform(0.3, 3.0)),
                             shift=float(rng.uniform(-1.0, 1.0)))
    return spec


def inside(spec, rng, size):
    """Points inside a spec's domain, spanning both sides of any kink."""
    lo, hi = spec.domain()
    kinks = oracle.kinks(spec)
    centre = kinks[0] if kinks else (lo + 1.0 if np.isfinite(lo) else 0.0)
    pts = centre + rng.uniform(-2.0, 2.0, size)
    return np.maximum(pts, lo + 1e-3) if np.isfinite(lo) else pts


class TestEvaluator:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_matches_scalar_specs_for_every_family(self, depth):
        rng = np.random.default_rng(100 + depth)
        values = [nest(BASE_VALUES[i % 2], depth, rng) for i in range(8)]
        costs = [nest(BASE_COSTS[(i // 2) % 2], depth, rng) for i in range(8)]
        ev = Evaluator.of(values, costs)
        k = np.stack([inside(v, rng, 50) for v in values], axis=1)
        x = np.stack([inside(c, rng, 50) for c in costs], axis=1)
        want = {
            "value": np.stack([oracle.value(v, k[:, i]) for i, v in enumerate(values)], axis=1),
            "value_d1": np.stack([oracle.d1(v, k[:, i]) for i, v in enumerate(values)], axis=1),
            "value_d2": np.stack([oracle.d2(v, k[:, i]) for i, v in enumerate(values)], axis=1),
            "cost": np.stack([oracle.value(c, x[:, i]) for i, c in enumerate(costs)], axis=1),
            "cost_d1": np.stack([oracle.d1(c, x[:, i]) for i, c in enumerate(costs)], axis=1),
        }
        for name, ref in want.items():
            arg = k if name.startswith("value") else x
            got = getattr(ev, name)(arg)  # (S, n) batch
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(getattr(ev, name)(arg[3]), ref[3], rtol=1e-13, atol=1e-13)
            for i in (0, 1, 5):  # per-player column view on its own trailing axis
                np.testing.assert_allclose(getattr(ev.column(i), name)(arg[:, i]), ref[:, i],
                                           rtol=1e-13, atol=1e-13)

    def test_same_bits_without_reparameterization(self):
        rng = np.random.default_rng(7)
        values = [BASE_VALUES[i % 2] for i in range(4)]
        costs = [BASE_COSTS[(i // 2) % 2] for i in range(4)]
        ev = Evaluator.of(values, costs)
        k = np.stack([inside(v, rng, 30) for v in values], axis=1)
        x = np.abs(rng.normal(size=(30, 4)))
        for i in range(4):
            assert np.array_equal(ev.value_d1(k)[:, i], oracle.d1(values[i], k[:, i]))
            assert np.array_equal(ev.value(k)[:, i], oracle.value(values[i], k[:, i]))
            assert np.array_equal(ev.cost(x)[:, i], oracle.value(costs[i], x[:, i]))
            assert np.array_equal(ev.cost_d1(x)[:, i], oracle.d1(costs[i], x[:, i]))

    def test_equal_neighbours_share_rows_with_per_player_bits(self):
        def player(value, cost, shift):  # fresh objects, equal for equal arguments
            return (AffineReparam(AffineReparam(value, 2.0, shift), 0.5, shift),
                    AffineReparam(cost, 1.5, shift))

        pairs = [(QuadraticClippedValue(a=3.0, b=1.0), QuadraticCost(c0=1.0))] * 2
        pairs += [(QuadraticClippedValue(a=3.0, b=1.0), QuadraticCost(c0=1.0)) for _ in range(2)]
        pairs += [player(LogValue(a=1.0, s=1.0), LinearCost(c1=0.5), z) for z in (0.0, -0.0, 0.0)]
        pairs += [player(QuadraticClippedValue(a=3.0, b=1.0), QuadraticCost(c0=1.0), -0.0)] * 2
        values, costs = zip(*pairs)
        per_player = np.hstack([Evaluator.of([v], [c]).cols for v, c in pairs])
        assert Evaluator.of(values, costs).cols.tobytes() == per_player.tobytes()
        with pytest.raises(InputError, match=r"player 2: values\[2\] is a cost family"):
            Evaluator.of([QUAD, QUAD, COST], [COST] * 3)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_gain_at_or_below_a_log_pole_refused(self, depth):
        # dyadic reparameterizations fold exactly, so t puts domain()'s end on the pole itself
        f = LogValue(a=1.0, s=1.0)
        for _ in range(depth):
            f = AffineReparam(inner=f, scale=2.0, shift=0.5)
        ev = Evaluator.of([QUAD, f], [COST, COST])
        pole = f.domain()[0]
        inside = np.array([0.3, np.nextafter(pole, np.inf)])
        batch = np.stack([inside, inside])
        for call in (ev.value, ev.value_d1, ev.value_d2):
            assert np.all(np.isfinite(call(batch)))  # a RuntimeWarning fails here
            for k in (pole, pole - 5e-10, pole - 1.0):  # 5e-10 was once clamped onto the pole
                below = np.array([0.3, k])
                with pytest.raises(DomainError, match="pole"):
                    call(below)  # single profile
                with pytest.raises(DomainError, match="pole"):
                    call(np.stack([inside, below]))  # (S, n) batch
                with pytest.raises(DomainError, match="pole"):
                    getattr(ev.column(1), call.__name__)(np.stack([inside, below])[:, 1:])

    def test_deviation_scan_rejects_unreachable_gains(self):
        w = np.array([[1.0, -1.0], [0.0, 1.0]])
        g = Game(w=w, lower=np.zeros(2), upper=np.ones(2),
                 values=(LogValue(a=1.0, s=1.0 + 1e-12), QUAD), costs=(COST, COST))
        with pytest.raises(DomainError):
            best_response(g, 0, np.array([0.0, 1.5]))  # gain -1.5, beyond the domain

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_value_domains_unbounded_above(self, depth):
        # the evaluator keeps only each domain's lower end, and Game checks no upper one
        rng = np.random.default_rng(400 + depth)
        for spec in (*BASE_VALUES, *BASE_COSTS):
            assert nest(spec, depth, rng).domain()[1] == np.inf

    def test_built_with_the_game(self):
        g = make_game(np.eye(2), 0, 1)
        assert "evaluator" in vars(g)
        assert g.evaluator is g.evaluator

    def test_parameters_read_only(self):
        ev = make_game(np.eye(2), 0, 1).evaluator
        for arr in (ev.cols, ev.a, ev.q, ev.log, ev.column(1).cols, ev.column(1).k_lo):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestRequireFeasible:
    def test_batch_kept_clipped_or_rejected(self):
        g = make_game(np.eye(2), 0, 1)
        inside = np.array([[0.0, 1.0], [0.25, 0.5]])
        assert np.array_equal(g.require_feasible(inside), inside)
        near = inside + np.array([[-0.5e-9, 0.5e-9], [0.0, 0.0]])
        assert np.array_equal(g.require_feasible(near), inside)
        with pytest.raises(InputError, match=r"x\[1\]"):
            g.require_feasible(inside + np.array([[0.0, 0.0], [0.0, 0.6]]))
        assert g.require_feasible(np.empty((0, 2))).shape == (0, 2)


def scalar_best_response(game, i, x, tol=REF_TOL):
    """Reference: one player's bisection on the slopes ``evaluate`` gives."""
    d = externality(game, i, x)
    f, c = game.values[i], game.costs[i]
    dlo, dhi = f.domain()

    def slope(t):
        return evaluate(f, min(max(t + d, dlo), dhi))[1] - evaluate(c, t)[1]

    lo, hi = float(game.lower[i]), float(game.upper[i])
    if slope(lo) <= 0.0:
        return lo
    if slope(hi) > 0.0:
        return hi
    a, b = lo, hi
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        if slope(m) <= 0.0:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


class TestLockstepBestResponses:
    def test_match_scalar_bisection(self):
        from conftest import random_small_interaction_game

        rng = np.random.default_rng(61)
        for _ in range(10):
            g = random_small_interaction_game(rng, n=6)
            xs = rng.uniform(g.lower, g.upper, size=(9, g.n))
            d = xs @ g.w.T - np.diag(g.w) * xs
            batch = _best_responses(g.evaluator, d, g.lower, g.upper)
            for s in range(xs.shape[0]):
                for i in range(g.n):
                    ref = scalar_best_response(g, i, xs[s])
                    assert abs(batch[s, i] - ref) <= REF_TOL
                    assert abs(best_response(g, i, xs[s]) - ref) <= REF_TOL

    def test_flat_optimum_tie_break_fig1a(self, fig1a_game):
        # players 2 and 3 face a gain already at the value peak: the whole
        # box is optimal for them and the smallest maximizer, 0, must win
        x = np.array([1.0, 1.0, 0.5, 0.0])
        d = fig1a_game.w @ x - x
        got = _best_responses(fig1a_game.evaluator, d, fig1a_game.lower, fig1a_game.upper)
        ref = [scalar_best_response(fig1a_game, i, x) for i in range(4)]
        assert got[2] == got[3] == ref[2] == ref[3] == 0.0
        assert np.all(np.abs(got - ref) <= REF_TOL)

    def test_batched_br_gap_matches_rows(self, fig1a_game):
        rng = np.random.default_rng(71)
        xs = rng.uniform(0, 1, size=(25, 4))
        gaps, worst = br_gap(fig1a_game, xs)
        assert gaps.shape == worst.shape == (25,)
        for s in range(25):
            gap, who = br_gap(fig1a_game, xs[s])
            assert gaps[s] == pytest.approx(gap, abs=1e-13)
            assert worst[s] == who


def per_family_reference(values, k, d1):
    """Reference: each player evaluates only its own family, as a per-family selection would."""
    cols = []
    for i, spec in enumerate(values):
        f, scale, shift = _fold(spec)
        t = (k[:, i] - shift) / scale
        if isinstance(f, LogValue):
            col = f.a / (f.s + t) / scale if d1 else f.a * np.log(f.s + t)
        elif d1:
            col = np.where(t <= oracle.clip_point(f), f.a - 2.0 * f.b * t, 0.0) / scale
        else:
            col = np.where(t <= oracle.clip_point(f), f.a * t - f.b * t * t, f.a**2 / (4.0 * f.b))
        cols.append(col)
    return np.stack(cols, axis=1)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # tells -0.0 from 0.0


class TestMaskFreeEvaluator:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_same_bits_as_per_family_selection(self, depth):
        rng = np.random.default_rng(200 + depth)
        values = [nest(BASE_VALUES[i % 2], depth, rng) for i in range(8)]
        ev = Evaluator.of(values, [COST] * 8)
        k = np.stack([inside(v, rng, 60) for v in values], axis=1)
        if depth == 0:  # signed zeros and the exact peak of the quadratic players
            k[:3, 0::2] = [[-0.0], [0.0], [oracle.clip_point(BASE_VALUES[0])]]
        for name, d1 in (("value", False), ("value_d1", True)):
            assert same_bits(getattr(ev, name)(k), per_family_reference(values, k, d1))


def general_value_d1(ev, k):
    """Reference: f_i'(k_i) with every term kept, t = (k - v_shift)/v_scale and the log term included."""
    t = (k - ev.v_shift) / ev.v_scale
    arg = ev.mu * t + ev.s
    if not np.all(arg > 0.0):
        raise DomainError("outside the value domain")
    return (ev.log / arg + np.where(t <= ev.clip, ev.a - ev.b2 * t, 0.0)) / ev.v_scale


def _fixed_work_game(rng, n):
    """perfbench's flow-rk4 game generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {"workloads": module}):  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return module.fixed_work_game(rng, n)


FOLD_GAMES = ("er", "fixed_work", "fixed_work_twice_reparameterized", "er_one_log_value", "er_one_mapped_value")


@pytest.fixture(scope="module")
def fold_games():
    """name -> (game, (mapped, logged)): the terms its evaluator keeps, a game on each side of each choice."""
    games = {name: (game, flags) for name, game, flags in _fold_games()}
    assert tuple(games) == FOLD_GAMES
    return games


def _fold_games():
    from netgoods.casestudy import random_er_game
    from netgoods.equivalence import EquivalenceMap, transform_game

    er = random_er_game(30, 1.0, 3.0, 1.0, 1.0, seed=5)
    yield "er", er, (False, False)
    rng = np.random.default_rng([2, 0])
    fixed = _fixed_work_game(rng, 20)
    yield "fixed_work", fixed, (False, True)
    for _ in range(2):
        fixed = transform_game(fixed, EquivalenceMap(d=rng.uniform(0.5, 2.0, 20), b=rng.uniform(-0.5, 0.5, 20)))
    yield "fixed_work_twice_reparameterized", fixed, (True, True)
    one = list(er.values)
    one[7] = LogValue(a=2.0, s=2.0)
    yield "er_one_log_value", Game(w=er.w, lower=er.lower, upper=er.upper, values=tuple(one),
                                   costs=er.costs), (False, True)
    one[7] = AffineReparam(inner=er.values[7], scale=1.5, shift=0.0)
    yield "er_one_mapped_value", Game(w=er.w, lower=er.lower, upper=er.upper, values=tuple(one),
                                      costs=er.costs), (True, False)


class TestSkippedTerms:
    """value_d1 skips the affine map or the log term only where neither can change a bit for any player."""

    @staticmethod
    def gains(game):
        # random in-box gains, then rows of -0.0, +0.0 and each quadratic value's exact peak wherever the
        # player's value domain holds them
        ev, rng = game.evaluator, np.random.default_rng(game.n)
        k = (game.lower + rng.random((40, game.n)) * (game.upper - game.lower)) @ game.w.T
        for row, special in enumerate((np.full(game.n, -0.0), np.full(game.n, 0.0), ev.value_kink())):
            ok = np.isfinite(special) & ~ev.outside_domain(special)[0]
            k[row] = np.where(ok, special, k[row])
        assert np.signbit(k[0]).any() and (k[1] == 0.0).any() and (k[2] == ev.value_kink()).any()
        return k

    @pytest.mark.parametrize("name", FOLD_GAMES)
    def test_same_bits_as_the_general_formula(self, fold_games, name):
        game, flags = fold_games[name]
        ev = game.evaluator
        assert (ev._mapped, ev._logged) == flags
        k = self.gains(game)
        assert same_bits(ev.value_d1(k), general_value_d1(ev, k))  # (S, n) batch
        for row in k[:4]:  # single profiles
            assert same_bits(ev.value_d1(row), general_value_d1(ev, row))
        for i in (0, 7):  # each column decides for itself
            col = ev.column(i)
            assert same_bits(col.value_d1(k[:, i]), general_value_d1(col, k[:, i]))
        x = game.lower + np.random.default_rng(1).random((5, game.n)) * (game.upper - game.lower)
        assert same_bits(pseudo_gradient(game, x), general_value_d1(ev, x @ game.w.T) - ev.cost_d1(x))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["er", "er_one_mapped_value"])
    def test_non_finite_gain_in_a_log_free_game_raises(self, fold_games, name, bad):
        game, (_, logged) = fold_games[name]
        assert not logged
        k = self.gains(game)
        k[5, 7] = bad
        for gains_ in (k, k[5]):
            # 0 * inf in mu*t + s warns, as it did before the log term was skipped
            with np.errstate(invalid="ignore"), pytest.raises(DomainError,
                                                              match=f"gain {bad} is outside its value domain"):
                game.evaluator.value_d1(gains_)


def weakly_coupled_game(values, costs, rng):
    """A game of these players under small positive weights, on boxes of width 0.5 above their domains' ends."""
    n = len(values)
    w = np.eye(n) + 0.05 * rng.uniform(0.0, 1.0, (n, n)) * (1 - np.eye(n))
    lo = np.array([max(c.domain()[0], 0.0) + 0.1 for c in costs])
    # keep every reachable gain inside the value domains
    k_lo = np.array([v.domain()[0] for v in values])
    lo = np.maximum(lo, np.where(np.isfinite(k_lo), k_lo + 1.0, lo))
    return Game(w=w, lower=lo, upper=lo + 0.5, values=tuple(values), costs=tuple(costs))


def pseudo_gradient_formula(game, x):
    """Reference: the pseudo-gradient f'(Wx) - c'(x), written out."""
    return game.evaluator.value_d1(x @ game.w.T) - game.evaluator.cost_d1(x)


def welfare_gradient_formula(game, alpha, x):
    """Reference: the alpha-weighted welfare gradient (alpha * f'(Wx)) W - alpha * c'(x), written out."""
    return (alpha * game.evaluator.value_d1(x @ game.w.T)) @ game.w - alpha * game.evaluator.cost_d1(x)


class TestPrivateFields:
    def games(self):
        rng = np.random.default_rng(31)
        for depth in (0, 2):
            n = 6
            values = [nest(BASE_VALUES[i % 2], depth, rng) for i in range(n)]
            costs = [nest(BASE_COSTS[(i // 2) % 2], depth, rng) for i in range(n)]
            yield weakly_coupled_game(values, costs, rng)

    def test_bitwise_equal_to_public_fields_in_box(self):
        for g in self.games():
            rng = np.random.default_rng(g.n)
            xs = g.lower + rng.random((9, g.n)) * (g.upper - g.lower)
            xs[0], xs[1] = g.lower, g.upper
            for x in (xs, xs[3]):
                assert same_bits(pseudo_gradient(g, x), pseudo_gradient_formula(g, x))
                assert same_bits(sw_gradient(g, x), welfare_gradient_formula(g, np.ones(g.n), x))

    def test_public_fields_still_validate(self):
        g = next(self.games())
        outside = g.upper + 0.1
        for call in (lambda x: pseudo_gradient(g, x), lambda x: sw_gradient(g, x),
                     lambda x: weighted_welfare_gradient(g, np.ones(g.n), x)):
            with pytest.raises(InputError, match="infeasible profile"):
                call(outside)
            with pytest.raises(InputError, match="infeasible profile"):
                call(np.stack([g.lower, outside]))
            with pytest.raises(InputError, match="profile must have shape"):
                call(g.lower[:-1])


class TestRunField:
    """A run's field, built once, has the written-out formulas' bits, and refuses gains outside the value domains."""

    PAIRS = [(v, c) for v in BASE_VALUES for c in BASE_COSTS]

    @staticmethod
    def game(value, cost, depth, rng, n=5):
        """n players of one family pair, each nested ``depth`` deep with its own maps."""
        return weakly_coupled_game([nest(value, depth, rng) for _ in range(n)],
                                   [nest(cost, depth, rng) for _ in range(n)], rng)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("pair", range(4), ids=["quad-quad", "quad-linear", "log-quad", "log-linear"])
    def test_same_bits_as_the_unbound_fields(self, pair, depth):
        rng = np.random.default_rng([pair, depth])
        g = self.game(*self.PAIRS[pair], depth, rng)
        assert (g.evaluator._mapped, g.evaluator._logged) == (depth > 0, pair >= 2)
        xs = g.lower + rng.random((9, g.n)) * (g.upper - g.lower)
        xs[0], xs[1] = g.lower, g.upper
        sw = _run_field(g, welfare=True)
        for alpha in (np.ones(g.n), np.linspace(0.5, 2.0, g.n)):
            field, weighted = _run_field(g, alpha), _run_field(g, alpha, welfare=True)
            for x in (xs, xs[3]):
                assert same_bits(field(x), alpha * pseudo_gradient_formula(g, x))
                want = welfare_gradient_formula(g, alpha, x)
                assert same_bits(weighted(x), want)
                assert same_bits(weighted_welfare_gradient(g, alpha, x), want)
                assert same_bits(sw(x), welfare_gradient_formula(g, np.ones(g.n), x))

    @pytest.mark.parametrize("value", BASE_VALUES, ids=["quad", "log"])
    def test_gains_outside_the_value_domains_raise(self, value):
        g = self.game(value, BASE_COSTS[0], 1, np.random.default_rng(7))
        nan = g.lower.copy()
        nan[2] = np.nan
        bad = [nan, np.stack([g.upper, nan])]
        if isinstance(value, LogValue):  # every gain below its log pole
            bad.append(g.lower - 100.0)
        for field in (_run_field(g), _run_field(g, np.linspace(0.5, 2.0, g.n)), _run_field(g, welfare=True)):
            for x in bad:
                with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="outside its value domain"):
                    field(x)


def full_array_bisect(ev, d, lo, hi, tol):
    """Reference: the lockstep bisection over the whole array, settled entries carried along."""

    def slope(t):
        return ev.value_d1(t + d) - ev.cost_d1(t)

    lo, hi = np.broadcast_to(lo, d.shape), np.broadcast_to(hi, d.shape)
    at_lo = slope(lo) <= 0.0
    at_hi = slope(hi) > 0.0
    a, b = lo, hi
    active = ~(at_lo | at_hi)
    while True:
        m = 0.5 * (a + b)
        active &= (b - a > tol) & (a < m) & (m < b)
        if not active.any():
            break
        down = slope(m) <= 0.0
        a, b = np.where(active & ~down, m, a), np.where(active & down, m, b)
    return np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a + b)))


def full_array_roots(ev, d, lo, hi):
    """Reference: the closed-form root taken on the whole array, settled entries carried along."""
    lo, hi = np.broadcast_to(lo, d.shape), np.broadcast_to(hi, d.shape)
    at_lo = ev.value_d1(lo + d) - ev.cost_d1(lo) <= 0.0
    at_hi = ev.value_d1(hi + d) - ev.cost_d1(hi) > 0.0
    with np.errstate(all="ignore"):  # settled entries may have no root
        root = np.clip(ev.slope_root(d), lo, hi)
    return np.where(at_lo, lo, np.where(at_hi, hi, root))


class TestUndecidedOnlyBisection:
    def mixed(self, depth):
        """Players of every family pairing, externalities that put best responses at lo, hi and inside."""
        rng = np.random.default_rng(300 + depth)
        n = 8
        values = [nest(BASE_VALUES[i % 2], depth, rng) for i in range(n)]
        costs = [nest(BASE_COSTS[(i // 2) % 2], depth, rng) for i in range(n)]
        ev = Evaluator.of(values, costs)
        lo = np.array([max(c.domain()[0], v.domain()[0], -1.0) + 0.1 for v, c in zip(values, costs)])
        hi = lo + rng.uniform(0.5, 1.5, n)
        d = rng.uniform(0.0, 3.0, (40, n))  # every gain t + d stays inside its value domain
        return ev, d, lo, hi

    def check(self, ev, d, lo, hi):
        """Bit for bit the full-array solve; edge entries bit for bit the full-array
        bisection's, interior ones within its tolerance."""
        want = full_array_bisect(ev, d, lo, hi, REF_TOL)
        got = _best_responses(ev, d, lo, hi)
        assert same_bits(got, full_array_roots(ev, d, lo, hi))
        edge = (want == np.broadcast_to(lo, d.shape)) | (want == np.broadcast_to(hi, d.shape))
        assert got.shape == want.shape
        assert same_bits(got[edge], want[edge])
        assert np.all(np.abs(got[~edge] - want[~edge]) <= REF_TOL)
        return want

    @pytest.mark.parametrize("depth", [0, 2])
    def test_bitwise_equal_to_full_array_bisection(self, depth):
        ev, d, lo, hi = self.mixed(depth)
        want = self.check(ev, d, lo, hi)  # (S, n)
        at_lo, at_hi = want == lo, want == hi
        assert at_lo.any() and at_hi.any() and (~at_lo & ~at_hi).any()
        for s in (0, 7):  # (n,)
            self.check(ev, d[s], lo, hi)
        for i in (0, 3, 6):  # one player's column, as best_response calls it and batched
            col = ev.column(i)
            self.check(col, d[5, i:i + 1], lo[i:i + 1], hi[i:i + 1])
            self.check(col, d[:, i:i + 1], lo[i:i + 1], hi[i:i + 1])
            self.check(col, d[:, i], lo[i], hi[i])

    def test_bitwise_equal_on_fig1a_flat_optimum(self, fig1a_game):
        g = fig1a_game
        rng = np.random.default_rng(81)
        xs = np.vstack([[1.0, 1.0, 0.5, 0.0], g.lower, g.upper, rng.uniform(0, 1, (20, 4))])
        d = xs @ g.w.T - xs
        tie = self.check(g.evaluator, d[0], g.lower, g.upper)
        assert tie[2] == tie[3] == 0.0
        self.check(g.evaluator, d, g.lower, g.upper)

    def test_root_on_the_flat_side_of_a_peak(self):
        # a box reaching just below the quadratic cost's floor (within the
        # tolerance a Game allows) and a gain past the peak: f' = 0 there, and
        # g = -c' has its root at the floor, not on the value's curved piece
        ev = Evaluator.of([QUAD], [COST])
        lo, hi = np.array([-0.5 * COST_FLOOR_TOL]), np.ones(1)
        d = np.array([2.0])
        got = _best_responses(ev, d, lo, hi)
        assert got[0] == 0.0
        assert abs(got[0] - full_array_bisect(ev, d, lo, hi, REF_TOL)[0]) <= REF_TOL

    def test_domain_error_when_only_an_undecided_entry_leaves_its_domain(self):
        # player 1's log value lives on gains > -1; every other entry sits at an edge
        f = LogValue(a=1.0, s=1.0)
        ev = Evaluator.of([QUAD, f, QUAD], [LinearCost(c1=0.1), COST, LinearCost(c1=5.0)])
        lo, hi = np.zeros(3), np.ones(3)
        inside = np.array([0.0, 0.5, 0.0])
        got = _best_responses(ev, inside, lo, hi)
        assert got[0] == 1.0 and got[2] == 0.0 and 0.0 < got[1] < 1.0
        outside = inside - np.array([0.0, 2.0, 0.0])  # player 1's gain at lo is -1.5, below -1
        with pytest.raises(DomainError):
            _best_responses(ev, outside, lo, hi)
        with pytest.raises(DomainError):
            _best_responses(ev, np.stack([inside, outside, inside]), lo, hi)


# --- best responses against an exact root ---------------------------------------

def exact_d1(spec, k):
    """spec'(k) in mpmath, through its AffineReparam chain level by level."""
    factor = mp.mpf(1)
    while isinstance(spec, AffineReparam):
        k, factor = (k - mp.mpf(spec.shift)) / mp.mpf(spec.scale), factor * mp.mpf(spec.scale)
        spec = spec.inner
    if isinstance(spec, LogValue):
        out = mp.mpf(spec.a) / (mp.mpf(spec.s) + k)
    elif isinstance(spec, QuadraticClippedValue):
        out = max(mp.mpf(spec.a) - 2 * mp.mpf(spec.b) * k, mp.mpf(0))
    elif isinstance(spec, QuadraticCost):
        out = mp.mpf(spec.c0) * k
    else:
        out = mp.mpf(spec.c1)
    return out / factor


@settings(max_examples=300, deadline=None)
@given(games_and_profiles())
def test_best_responses_match_an_exact_root_and_the_grid_argmax(case):
    game, x = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [best_response(game, i, x) for i in range(game.n)]
        batch = _best_responses(game.evaluator, x @ game.w.T - x, game.lower, game.upper)
    assert np.all(np.abs(batch - got) <= 1e-12)  # batched externalities round differently
    for i, t in enumerate(got):
        f, c, d = game.values[i], game.costs[i], externality(game, i, x)
        lo, hi = float(game.lower[i]), float(game.upper[i])
        with mp.workdps(50):
            def slope(u):
                return exact_d1(f, mp.mpf(u) + mp.mpf(d)) - exact_d1(c, mp.mpf(u))
            if slope(lo) <= 0:
                want = mp.mpf(lo)
            elif slope(hi) > 0:
                want = mp.mpf(hi)
            else:
                want = mp.findroot(slope, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")
            assert abs(t - want) <= 1e-13 * max(1.0, abs(lo), abs(hi))
        grid = np.linspace(lo, hi, 4001)
        ev = game.evaluator.column(i)
        u = ev.value(grid + d) - ev.cost(grid)
        assert abs(t - grid[np.argmax(u)]) <= grid[1] - grid[0]  # argmax: the first maximizer
