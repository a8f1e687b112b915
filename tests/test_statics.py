import numpy as np
import pytest

from conftest import max_iter_result
from netgoods.equilibrium import solve_ne
from netgoods.errors import InputError, SingularMatrixError
from netgoods.functions import LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
from netgoods.game import Game, evaluate, gains, utility_profile
from netgoods.statics import (
    equilibrium_derivative,
    fd_check,
    perturb_money,
    utility_derivative,
)

D1 = np.array([1.0])


class TestPerturbMoney:
    def test_zero_magnitude_identity(self, two_player_symmetric):
        g0 = two_player_symmetric
        g = perturb_money(g0, np.array([1.0, -1.0]), 0.0)  # shifts -0.0 and +0.0
        # the very spec objects, not equal copies
        assert all(a is b for a, b in zip(g.values + g.costs, g0.values + g0.costs))
        assert np.array_equal(g.w, g0.w)

    def test_value_reads_shifted_gain(self, n1_game):
        g = perturb_money(n1_game, D1, 0.1)
        k = 0.7
        assert evaluate(g.values[0], k)[0] == pytest.approx(
            evaluate(n1_game.values[0], k + 0.1)[0], abs=1e-14
        )

    def test_utilities_shift_by_value_difference(self, two_player_symmetric):
        rng = np.random.default_rng(23)
        g = two_player_symmetric
        delta = np.array([0.4, -0.2])
        t = 0.05
        pert = perturb_money(g, delta, t)
        for _ in range(20):
            x = rng.uniform(g.lower, g.upper)
            k = gains(g, x)
            u0, _ = utility_profile(g, x)
            u1, _ = utility_profile(pert, x)
            expect = np.array(
                [
                    evaluate(g.values[i], k[i] + delta[i] * t)[0]
                    - evaluate(g.values[i], k[i])[0]
                    for i in range(2)
                ]
            )
            assert np.allclose(u1 - u0, expect, atol=1e-12)


class TestEquilibriumDerivative:
    def test_n1_closed_form(self, n1_game):
        # (c'' - f''W)^-1 f'' delta = (1+2)^-1 * (-2)
        dx = equilibrium_derivative(n1_game, np.array([1.0]), D1)
        assert dx[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_zero_direction(self, n1_game):
        assert equilibrium_derivative(n1_game, np.array([1.0]), np.zeros(1))[0] == 0.0

    def test_identity_network_diagonal_formula(self):
        a = np.array([3.0, 4.0, 2.5])
        b = np.array([1.0, 0.8, 1.2])
        c0 = np.array([1.0, 2.0, 0.5])
        g = Game(
            w=np.eye(3), lower=np.zeros(3), upper=np.full(3, 1.4),
            values=tuple(QuadraticClippedValue(a=a[i], b=b[i]) for i in range(3)),
            costs=tuple(QuadraticCost(c0=c0[i]) for i in range(3)),
        )
        x_star = a / (2 * b + c0)
        delta = np.array([1.0, -0.5, 2.0])
        dx = equilibrium_derivative(g, x_star, delta)
        fpp = -2 * b
        assert np.allclose(dx, fpp * delta / (c0 - fpp), atol=1e-12)

    def test_boundary_ne_rejected(self, fig1a_game):
        with pytest.raises(InputError, match="boundary"):
            equilibrium_derivative(fig1a_game, np.array([1.0, 1, 0, 0]), np.ones(4))

    def test_non_stationary_rejected(self, n1_game):
        with pytest.raises(InputError, match="stationary"):
            equilibrium_derivative(n1_game, np.array([0.5]), D1)

    def test_singular_system(self):
        # continuum of equilibria (all-ones W, linear costs): the implicit
        # system is exactly singular and must be reported, not divided through
        g = Game(
            w=np.ones((2, 2)), lower=np.zeros(2), upper=np.full(2, 0.7),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(2)),
            costs=tuple(LinearCost(c1=1.0) for _ in range(2)),
        )
        x_star = np.array([0.5, 0.5])  # any split of x1+x2 = 1 is stationary
        with pytest.raises(SingularMatrixError):
            equilibrium_derivative(g, x_star, np.array([1.0, 0.0]))


class TestUtilityDerivative:
    def test_n1_envelope(self, n1_game):
        res = utility_derivative(n1_game, np.array([1.0]), D1)
        assert res.du_dt[0] == pytest.approx(1.0, abs=1e-10)
        assert res.dx_dt[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert res.boundary_margin == pytest.approx(1.0)

    def test_identity_network_envelope(self):
        g = Game(
            w=np.eye(2), lower=np.zeros(2), upper=np.full(2, 1.4),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(2)),
            costs=(QuadraticCost(c0=1.0), QuadraticCost(c0=2.0)),
        )
        x_star = np.array([1.0, 0.75])
        delta = np.array([0.3, -1.2])
        res = utility_derivative(g, x_star, delta)
        fp = np.array([evaluate(g.values[i], x_star[i])[1] for i in range(2)])
        assert np.allclose(res.du_dt, fp * delta, atol=1e-12)

    def test_two_player_hand_solved_system(self, two_player_symmetric):
        # x* = 0.75, k* = 1.125, f' = 0.75, f'' = -2, c'' = 1:
        # both system matrices equal [[3,1],[1,3]]
        x_star = np.full(2, 0.75)
        delta = np.array([1.0, 0.0])
        res = utility_derivative(two_player_symmetric, x_star, delta)
        assert np.allclose(res.dx_dt, [-0.75, 0.25], atol=1e-12)
        assert np.allclose(res.du_dt, [27 / 32, -9 / 32], atol=1e-12)

    def test_consistency_identity(self, two_player_symmetric):
        # u'(0) = diag(f') delta + diag(f') (W - I) dx*/dt
        g = two_player_symmetric
        x_star = np.full(2, 0.75)
        rng = np.random.default_rng(29)
        fp = np.array([evaluate(g.values[i], 1.125)[1] for i in range(2)])
        for _ in range(10):
            delta = rng.normal(size=2)
            res = utility_derivative(g, x_star, delta)
            rhs = fp * delta + fp * ((g.w - np.eye(2)) @ res.dx_dt)
            assert np.max(np.abs(res.du_dt - rhs)) < 1e-9

    def test_linearity_in_delta(self, two_player_symmetric):
        g = two_player_symmetric
        x_star = np.full(2, 0.75)
        rng = np.random.default_rng(31)
        for _ in range(10):
            d1, d2 = rng.normal(size=2), rng.normal(size=2)
            a, b = rng.normal(), rng.normal()
            lhs = utility_derivative(g, x_star, a * d1 + b * d2)
            r1 = utility_derivative(g, x_star, d1)
            r2 = utility_derivative(g, x_star, d2)
            assert np.max(np.abs(lhs.du_dt - a * r1.du_dt - b * r2.du_dt)) < 1e-9
            assert np.max(np.abs(lhs.dx_dt - a * r1.dx_dt - b * r2.dx_dt)) < 1e-9

    def test_kink_proximity_warning(self):
        # equilibrium gain sits exactly at the clip point a/(2b) = 1
        g = Game(
            w=np.eye(1), lower=np.zeros(1), upper=np.array([2.0]),
            values=(QuadraticClippedValue(a=2.0, b=1.0),),
            costs=(QuadraticCost(c0=1e-9),),
        )
        res = solve_ne(g, tol=1e-12)
        sr = utility_derivative(g, res.x_star, D1)
        assert any("kink" in w for w in sr.warnings)


class TestFdCheck:
    def test_n1(self, n1_game):
        rep = fd_check(n1_game, np.array([1.0]), D1, t=1e-4)
        assert rep.du_rel_err < 1e-3
        assert rep.dx_rel_err < 1e-3
        assert not rep.warm_start_jump

    def test_zero_direction_exact(self, n1_game):
        rep = fd_check(n1_game, np.array([1.0]), np.zeros(1), t=1e-4)
        assert rep.du_rel_err == 0.0
        assert rep.dx_rel_err == 0.0

    def test_two_player(self, two_player_symmetric):
        rep = fd_check(two_player_symmetric, np.full(2, 0.75), np.array([1.0, 0.0]), t=1e-4)
        assert rep.du_rel_err < 1e-3
        assert rep.dx_rel_err < 1e-3

    def test_quadratic_error_scaling(self):
        # central differences carry O(t^2) bias when third derivatives are
        # nonzero (log values): quartering t cuts the bias ~16x
        g = Game(
            w=np.array([[1.0, 0.3], [0.3, 1.0]]),
            lower=np.zeros(2), upper=np.full(2, 2.0),
            values=tuple(LogValue(a=2.0, s=1.0) for _ in range(2)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(2)),
        )
        x_star = solve_ne(g, tol=1e-13, max_iter=400_000).x_star
        delta = np.array([1.0, -0.5])
        closed = utility_derivative(g, x_star, delta)
        errs = []
        for t in (4e-3, 1e-3):
            rep = fd_check(g, x_star, delta, t=t)
            errs.append(float(np.max(np.abs(rep.du_dt - closed.du_dt))))
        assert errs[0] / errs[1] >= 8.0


@pytest.mark.parametrize("call, message", [
    (lambda g: utility_derivative(g, np.full(2, 0.75), np.ones(3)), "delta must have shape (2,), got (3,)"),
    (lambda g: utility_derivative(g, np.full(2, 0.75), np.array([1.0, np.nan])), "delta must be finite"),
    # f''*delta = -2*1e308 overflows
    (lambda g: utility_derivative(g, np.full(2, 0.75), np.array([1e308, -1e308])),
     "the derivatives along delta = [1e+308, -1e+308] are not finite floats"),
    (lambda g: equilibrium_derivative(g, np.full(2, 0.75), np.array([1e308, 0.0])),
     "the derivatives along delta = [1e+308, 0.0] are not finite floats"),
    (lambda g: fd_check(g, np.full(2, 0.75), np.ones(2), t=0.0), "need finite t > 0, got 0.0"),
    (lambda g: fd_check(g, np.full(2, 0.75), np.ones(2), t=np.inf), "need finite t > 0, got inf"),
    # at -1e300 the value's curved side reads about -1e600: the utility is -inf
    (lambda g: fd_check(g, np.full(2, 0.75), np.array([1.0, 0.0]), t=1e300),
     "the finite differences along delta = [1.0, 0.0] at t = 1e+300 are not finite floats"),
    (lambda g: fd_check(g, np.full(2, 0.75), np.array([0.0, -2.0]), t=1e200),
     "the finite differences along delta = [0.0, -2.0] at t = 1e+200 are not finite floats"),
], ids=["delta-shape", "delta-nan", "derivative-overflows", "dx-overflows", "t-zero", "t-inf", "fd-at-1e300",
        "fd-at-1e200"])
def test_refusals(two_player_symmetric, call, message):
    with pytest.raises(InputError) as exc:
        call(two_player_symmetric)
    assert str(exc.value) == message


def test_fd_check_refuses_a_perturbed_solve_that_does_not_converge(two_player_symmetric, monkeypatch):
    from netgoods import statics

    monkeypatch.setattr(statics, "solve_ne", max_iter_result)
    with pytest.raises(InputError) as exc:
        fd_check(two_player_symmetric, np.full(2, 0.75), np.ones(2), t=1e-4)
    assert str(exc.value) == "perturbed solve at t=0.0001 did not converge"


def random_interior_game(rng: np.random.Generator) -> tuple[Game, np.ndarray]:
    """A weakly coupled game (W >= 0, not symmetric; clipped-quadratic and log values) and its interior NE."""
    n = int(rng.integers(2, 25))
    w = rng.uniform(0.0, 0.4 / n, size=(n, n))
    np.fill_diagonal(w, 1.0)
    values = tuple(QuadraticClippedValue(a=rng.uniform(2.0, 4.0), b=rng.uniform(0.5, 1.5)) if rng.random() < 0.5
                   else LogValue(a=rng.uniform(1.0, 3.0), s=rng.uniform(0.5, 2.0)) for _ in range(n))
    costs = tuple(QuadraticCost(c0=rng.uniform(0.5, 2.0)) for _ in range(n))
    g = Game(w=w, lower=np.zeros(n), upper=np.full(n, 10.0), values=values, costs=costs)
    res = solve_ne(g, tol=1e-13, max_iter=400_000)
    assert res.converged
    return g, res.x_star


class TestEnvelopeForm:
    """du/dt read from dx*/dt's one system, against the second system it replaced."""

    @staticmethod
    def curvatures(g, x_star):
        ev, k = g.evaluator, gains(g, x_star)
        return ev.value_d1(k), ev.value_d2(k), ev.dq

    def test_matches_the_two_system_closed_form(self):
        rng = np.random.default_rng(2002)
        for _ in range(40):
            g, x_star = random_interior_game(rng)
            delta = rng.normal(size=g.n)
            fp, fpp, cpp = self.curvatures(g, x_star)
            a_x = np.diag(cpp) - fpp[:, None] * g.w
            a_u = np.diag(cpp) - g.w * fpp[None, :]
            du_two_systems = fp * (cpp - fpp) * np.linalg.solve(a_u, delta)

            res = utility_derivative(g, x_star, delta)
            assert np.array_equal(res.dx_dt, np.linalg.solve(a_x, fpp * delta))
            assert np.array_equal(equilibrium_derivative(g, x_star, delta), res.dx_dt)
            scale = np.max(np.abs(du_two_systems))
            assert np.max(np.abs(res.du_dt - du_two_systems)) <= 1e-13 * scale
            assert res.condition_number == np.linalg.cond(a_x)

    def test_one_condition_number_and_one_solve_per_call(self, monkeypatch, two_player_symmetric):
        calls = {"cond": 0, "solve": 0}

        def counted(name):
            inner = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        utility_derivative(two_player_symmetric, np.full(2, 0.75), np.array([1.0, -0.5]))
        assert calls == {"cond": 1, "solve": 1}
