import numpy as np
import pytest

from conftest import make_two_player_symmetric, make_two_player_triangular, random_small_interaction_game
from netgoods.equilibrium import solve_ne, verify_ne
from netgoods.equivalence import (
    EquivalenceMap,
    auto_epsilon,
    map_profile,
    transform_game,
    upper_triangular_normalizer,
)
from netgoods.errors import InputError
from netgoods.functions import LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
from netgoods.game import Game, br_gap, evaluate, gains, utility_profile


def random_map(rng, n, scale_range=(0.5, 2.0), offset_range=(-0.3, 0.3)):
    return EquivalenceMap(
        d=rng.uniform(*scale_range, size=n),
        b=rng.uniform(*offset_range, size=n),
    )


class TestMapBasics:
    def test_validation(self):
        with pytest.raises(InputError):
            EquivalenceMap(d=np.array([1.0, -2.0]), b=np.zeros(2))
        with pytest.raises(InputError):
            EquivalenceMap(d=np.ones(2), b=np.zeros(3))

    def test_shifts_formula(self, fig1a_game):
        emap = EquivalenceMap(d=np.array([1.0, 2.0, 4.0, 0.5]), b=np.array([0.1, 0.0, -0.2, 0.3]))
        m = emap.shifts(fig1a_game)
        w, d, b = fig1a_game.w, emap.d, emap.b
        expect = np.array([d[i] * sum(w[i, j] * b[j] / d[j] for j in range(4)) for i in range(4)])
        assert np.allclose(m, expect, atol=1e-14)

    def test_serialization_roundtrip(self):
        emap = EquivalenceMap(d=np.array([2.0, 5.0]), b=np.array([-1.0, 0.5]))
        back = EquivalenceMap.from_dict(emap.to_dict())
        assert np.array_equal(back.d, emap.d) and np.array_equal(back.b, emap.b)


class TestTransformGame:
    def test_identity_map_unchanged_fields(self, fig1a_game):
        g2 = transform_game(fig1a_game, EquivalenceMap(d=np.ones(4), b=np.zeros(4)))
        assert np.array_equal(g2.w, fig1a_game.w)
        assert np.array_equal(g2.lower, fig1a_game.lower)
        assert np.array_equal(g2.upper, fig1a_game.upper)
        # the very spec objects, not equal copies
        assert all(a is b for a, b in zip(g2.values + g2.costs, fig1a_game.values + fig1a_game.costs))

    def test_n1_doubling(self, n1_game):
        emap = EquivalenceMap(d=np.array([2.0]), b=np.zeros(1))
        g2 = transform_game(n1_game, emap)
        assert np.allclose([g2.lower[0], g2.upper[0]], [0.0, 4.0])
        # c2(y) = c1(y/2) = y^2/8 and f2(k) = f1(k/2)
        assert evaluate(g2.costs[0], 2.0)[0] == pytest.approx(0.5)
        assert evaluate(g2.costs[0], 4.0)[0] == pytest.approx(2.0)
        assert evaluate(g2.values[0], 2.0)[0] == pytest.approx(2.0)  # f1(1)
        res = solve_ne(g2)
        assert res.x_star[0] == pytest.approx(2.0, abs=1e-7)

    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_small_interaction_game(rng)
            emap = random_map(rng, g.n)
            g2 = transform_game(g, emap)
            assert np.all(np.diag(g2.w) == 1.0)

    def test_spectrum_preserved_by_similarity(self):
        # characteristic polynomials agree at sample points (n <= 10)
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_small_interaction_game(rng)
            emap = random_map(rng, g.n)
            g2 = transform_game(g, emap)
            for lam in (-1.5, -0.3, 0.0, 0.7, 2.2):
                p1 = np.linalg.det(g.w - lam * np.eye(g.n))
                p2 = np.linalg.det(g2.w - lam * np.eye(g.n))
                assert p2 == pytest.approx(p1, rel=1e-8, abs=1e-10)

    def test_round_trip_evaluations(self, two_player_symmetric):
        rng = np.random.default_rng(10)
        g = two_player_symmetric
        emap = EquivalenceMap(d=np.array([2.0, 0.5]), b=np.array([0.25, -0.1]))
        g2 = transform_game(g, emap)
        g1_back = transform_game(g2, emap.inverse())
        assert np.allclose(g1_back.w, g.w, atol=1e-12)
        assert np.allclose(g1_back.lower, g.lower, atol=1e-12)
        assert np.allclose(g1_back.upper, g.upper, atol=1e-12)
        for _ in range(100):
            x = rng.uniform(g.lower, g.upper)
            u1, sw1 = utility_profile(g, x)
            u2, sw2 = utility_profile(g1_back, x)
            assert np.allclose(u1, u2, atol=1e-12)

    def test_bound_magnitude_guard(self, n1_game):
        with pytest.raises(InputError, match="mapped bounds exceed"):
            transform_game(n1_game, EquivalenceMap(d=np.array([1e13]), b=np.zeros(1)))


class TestMapProfile:
    def test_identity(self):
        emap = EquivalenceMap(d=np.ones(3), b=np.zeros(3))
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(map_profile(emap, x), x)

    def test_forward_inverse_roundtrip(self):
        rng = np.random.default_rng(12)
        emap = random_map(rng, 5)
        x = rng.uniform(0, 1, 5)
        y = map_profile(emap, x, "forward")
        back = map_profile(emap, y, "inverse")
        assert np.allclose(back, x, atol=1e-12)

    def test_gains_transform_affinely(self, two_player_symmetric):
        rng = np.random.default_rng(13)
        g = two_player_symmetric
        emap = EquivalenceMap(d=np.array([1.5, 0.8]), b=np.array([0.1, 0.2]))
        g2 = transform_game(g, emap)
        m = emap.shifts(g)
        for _ in range(50):
            x = rng.uniform(g.lower, g.upper)
            k1 = gains(g, x)
            k2 = gains(g2, map_profile(emap, x, "forward"))
            assert np.allclose(k2, emap.d * k1 + m, atol=1e-12)


def _triangular(w01=1.0, costs=None):
    """The two-player triangular game with its W entry above the diagonal or its costs changed."""
    g = make_two_player_triangular()
    return Game(w=[[1.0, w01], [0.0, 1.0]], lower=g.lower, upper=g.upper, values=g.values, costs=costs or g.costs)


MAP2 = EquivalenceMap(d=np.ones(2), b=np.zeros(2))
MAP3 = EquivalenceMap(d=np.ones(3), b=np.zeros(3))


@pytest.mark.parametrize("call, message", [
    (lambda: EquivalenceMap(d=np.ones(2), b=np.zeros(3)), "d and b must be equal-length vectors"),
    (lambda: EquivalenceMap(d=np.ones((2, 2)), b=np.zeros((2, 2))), "d and b must be equal-length vectors"),
    (lambda: EquivalenceMap(d=np.array([1.0, -2.0]), b=np.zeros(2)), "need finite d > 0 and finite b"),
    (lambda: EquivalenceMap(d=np.ones(2), b=np.array([0.0, np.inf])), "need finite d > 0 and finite b"),
    (lambda: MAP3.shifts(make_two_player_symmetric()), "map is for 3 players, game has 2"),
    (lambda: transform_game(make_two_player_symmetric(), MAP3), "map is for 3 players, game has 2"),
    (lambda: EquivalenceMap.from_dict([1.0, 1.0]), "map: expected an object, got list"),
    (lambda: EquivalenceMap.from_dict({"b": [0.0]}, where="m[2]"), "m[2]: missing required field 'd'"),
    (lambda: EquivalenceMap.from_dict({"d": [1.0]}), "map: missing required field 'b'"),
    (lambda: EquivalenceMap.from_dict({"d": [1.0], "b": ["x"]}), "map.b[0]: expected a number, got 'x'"),
    (lambda: EquivalenceMap.from_dict({"d": [0.0], "b": [0.0]}), "map: need finite d > 0 and finite b"),
    (lambda: EquivalenceMap.from_dict({"d": [1.0], "b": [0.0, 1.0]}), "map: d and b must be equal-length vectors"),
    (lambda: map_profile(MAP2, np.zeros(3)), r"profile must have shape (2,), got (3,)"),
    (lambda: map_profile(MAP2, np.zeros((1, 2)), "inverse"), r"profile must have shape (2,), got (1, 2)"),
    (lambda: map_profile(MAP2, np.zeros(2), "sideways"), "direction must be 'forward' or 'inverse', got 'sideways'"),
    (lambda: auto_epsilon(_triangular(costs=(QuadraticCost(c0=1.0), QuadraticCost(c0=2.0)))), "auto epsilon needs identical players"),
    (lambda: auto_epsilon(_triangular(costs=(LinearCost(c1=1.0),) * 2)),
     "auto epsilon needs homogeneous clipped-quadratic values and quadratic costs"),
    (lambda: upper_triangular_normalizer(_triangular(w01=1.5)), "need |w_ij| <= 1 above the diagonal"),
    (lambda: upper_triangular_normalizer(_triangular(w01=-1.5), eps=0.5), "need |w_ij| <= 1 above the diagonal"),
    (lambda: upper_triangular_normalizer(_triangular(), eps=1.0), "need 0 < eps < 1, got 1.0"),
    (lambda: upper_triangular_normalizer(_triangular(), eps=0.0), "need 0 < eps < 1, got 0.0"),
    (lambda: upper_triangular_normalizer(_triangular(), eps=np.nan), "need 0 < eps < 1, got nan"),
    (lambda: upper_triangular_normalizer(make_two_player_symmetric()),
     r"W must be upper-triangular (w_ij = 0 for i > j)"),
], ids=["d-b-lengths", "d-b-matrices", "d-negative", "b-inf", "shifts-size", "transform-size", "doc-list",
        "doc-no-d", "doc-no-b", "doc-b-string", "doc-d-zero", "doc-lengths", "profile-size", "profile-batch",
        "direction", "auto-unequal", "auto-linear-cost", "w-above-one", "w-below-minus-one", "eps-one", "eps-zero",
        "eps-nan", "not-triangular"])
def test_refusals(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


class TestUtilityInvarianceAndTransport:
    def test_utility_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            g = random_small_interaction_game(rng)
            emap = random_map(rng, g.n)
            g2 = transform_game(g, emap)
            for _ in range(20):
                x = rng.uniform(g.lower, g.upper)
                u1, _ = utility_profile(g, x)
                u2, _ = utility_profile(g2, map_profile(emap, x, "forward"))
                assert np.max(np.abs(u2 - u1)) < 1e-10

    def test_ne_transport_both_ways(self, fig1a_game):
        emap = EquivalenceMap(
            d=np.array([1.25, 0.8, 1.0, 1.5]), b=np.array([0.2, 0.0, -0.1, 0.05])
        )
        g2 = transform_game(fig1a_game, emap)
        for ne in ([1, 1, 0, 0], [0, 0, 1, 1], [3 / 7] * 4):
            x1 = np.array(ne, dtype=float)
            x2 = map_profile(emap, x1, "forward")
            assert verify_ne(fig1a_game, x1, 1e-8)[0]
            assert verify_ne(g2, x2, 1e-8)[0]
        # a non-NE stays a non-NE with the same gap
        bad = np.ones(4)
        gap1, _ = br_gap(fig1a_game, bad)
        gap2, _ = br_gap(g2, map_profile(emap, bad, "forward"))
        assert gap2 == pytest.approx(gap1, abs=1e-9)


class TestTriangularNormalizer:
    def test_two_player_example(self, two_player_triangular):
        emap = upper_triangular_normalizer(two_player_triangular, eps=0.2)
        assert np.allclose(emap.d, [5.0, 25.0])
        g2 = transform_game(two_player_triangular, emap)
        assert g2.w[0, 1] == pytest.approx(0.2)

    def test_auto_epsilon_value(self, two_player_triangular):
        assert auto_epsilon(two_player_triangular) == pytest.approx(0.225)

    def test_identity_network_stays_identity(self):
        g = Game(
            w=np.eye(3), lower=np.zeros(3), upper=np.ones(3),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(3)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(3)),
        )
        emap = upper_triangular_normalizer(g, eps=0.1)
        g2 = transform_game(g, emap)
        assert np.array_equal(g2.w, np.eye(3))

    def test_shrinks_couplings_below_eps(self):
        w = np.triu(np.ones((4, 4)))
        g = Game(
            w=w, lower=np.zeros(4), upper=np.full(4, 1.5),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(4)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(4)),
        )
        eps = 0.15
        g2 = transform_game(g, upper_triangular_normalizer(g, eps=eps))
        off = g2.w[np.triu_indices(4, k=1)]
        assert np.all(np.abs(off) <= eps + 1e-12)

    def test_rejects_non_triangular(self, fig1a_game):
        with pytest.raises(InputError, match="upper-triangular"):
            upper_triangular_normalizer(fig1a_game, eps=0.2)

    def test_auto_needs_homogeneous_quadratics(self):
        g = Game(
            w=np.array([[1.0, 0.5], [0.0, 1.0]]), lower=np.zeros(2), upper=np.ones(2),
            values=(LogValue(a=1.0, s=1.0), LogValue(a=1.0, s=1.0)),
            costs=(QuadraticCost(c0=1.0), QuadraticCost(c0=1.0)),
        )
        with pytest.raises(InputError, match="homogeneous"):
            upper_triangular_normalizer(g, eps="auto")
