"""Comparative statics of money redistribution.

A redistribution direction delta shifts every gain by delta_i*t.  At an
interior equilibrium x*, the implicit-function system
(diag(c''(x*)) - diag(f''(k*)) W) dx*/dt = diag(f''(k*)) delta gives the
equilibrium response.  By the envelope theorem a player's own effort has no
first-order effect on their own utility there (c'(x*) = f'(k*), w_ii = 1), so
the utility response follows from dx*/dt by one matrix-vector product:
u'(0) = diag(f'(k*)) ((W - I) dx*/dt + delta).
Both are validated against central finite differences of re-solved equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_ne
from .errors import InputError, SingularMatrixError
from .functions import _reparam
from .game import Game, gains, pseudo_gradient, utility_profile

#: componentwise stationarity required of the supplied equilibrium
STATIONARITY_TOL = 1e-8
#: solver tolerance and iteration cap of the re-solved equilibria in ``fd_check``
FD_SOLVER_TOL = 1e-13
FD_MAX_ITER = 400_000
#: minimum distance of x* from every box face
BOUNDARY_TOL = 1e-6
#: reciprocal condition number below which the system counts as singular
RCOND_SINGULAR = 1e-12
KINK_WARN_TOL = 1e-6


@dataclass(frozen=True)
class StaticsResult:
    """Closed-form derivatives at t=0 plus numerical context."""

    du_dt: np.ndarray
    dx_dt: np.ndarray
    condition_number: float
    boundary_margin: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FdReport:
    """Central-difference cross-check of the closed forms."""

    du_dt: np.ndarray
    dx_dt: np.ndarray
    du_rel_err: float
    dx_rel_err: float
    warm_start_jump: bool


def perturb_money(game: Game, delta: np.ndarray, t: float) -> Game:
    """The game whose values read f_i(k + delta_i*t); W, costs, bounds unchanged."""
    delta = _delta(game, delta)
    values = tuple(_reparam(game.values[i], 1.0, -float(delta[i]) * float(t)) for i in range(game.n))
    return Game(w=game.w, lower=game.lower, upper=game.upper, values=values, costs=tuple(game.costs))


def _delta(game: Game, delta) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (game.n,):
        raise InputError(f"delta must have shape ({game.n},), got {delta.shape}")
    if not np.all(np.isfinite(delta)):
        raise InputError("delta must be finite")
    return delta


def _interior_curvatures(game: Game, x_star: np.ndarray):
    x_star = game.require_feasible(np.asarray(x_star, dtype=float))
    pg = pseudo_gradient(game, x_star)
    if np.max(np.abs(pg)) > STATIONARITY_TOL:
        i = int(np.argmax(np.abs(pg)))
        raise InputError(
            f"x_star is not stationary: |pseudo_gradient[{i}]| = {abs(pg[i]):.3g} "
            f"> {STATIONARITY_TOL:g}"
        )
    margin = float(np.min(np.minimum(x_star - game.lower, game.upper - x_star)))
    if margin <= BOUNDARY_TOL:
        raise InputError(
            f"x_star sits on the box boundary (margin {margin:.3g}); "
            "interior equilibrium required"
        )
    ev = game.evaluator
    k = gains(game, x_star)
    fp, fpp, cpp = ev.value_d1(k), ev.value_d2(k), ev.dq
    warnings = tuple(f"player {i}: equilibrium gain within {KINK_WARN_TOL:g} of a value "
                     "kink; second derivative uses the curved-side convention"
                     for i in np.flatnonzero(np.abs(k - ev.value_kink()) < KINK_WARN_TOL))
    return fp, fpp, cpp, margin, warnings


def equilibrium_derivative(game: Game, x_star: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """dx*/dt at t=0 for the money-redistribution direction delta."""
    return utility_derivative(game, x_star, delta).dx_dt


def utility_derivative(game: Game, x_star: np.ndarray, delta: np.ndarray) -> StaticsResult:
    """u'(0) and dx*/dt at t=0, with condition and boundary diagnostics.

    One linear system is solved, (diag(c'') - diag(f'') W) dx*/dt = f'' delta;
    ``condition_number`` is its 2-norm condition number.  The utility response
    du_i/dt = f_i'(k*) (sum_{j != i} w_ij dx_j/dt + delta_i) is the envelope
    identity, which rests on c'(x*) = f'(k*) and the unit diagonal, the
    interior stationarity that x* is checked for.
    """
    delta = _delta(game, delta)
    fp, fpp, cpp, margin, warnings = _interior_curvatures(game, x_star)
    a_x = np.diag(cpp) - fpp[:, None] * game.w
    cond = float(np.linalg.cond(a_x))
    if not np.isfinite(cond) or 1.0 / cond < RCOND_SINGULAR:
        raise SingularMatrixError(f"statics system is numerically singular (cond {cond:.3g})")
    with np.errstate(over="ignore", invalid="ignore"):  # a derivative beyond the float range is refused below
        dx_dt = np.linalg.solve(a_x, fpp * delta)
        du_dt = fp * (game.w @ dx_dt - dx_dt + delta)
    _require_finite(f"the derivatives along delta = {delta.tolist()}", dx_dt, du_dt)
    return StaticsResult(
        du_dt=du_dt,
        dx_dt=dx_dt,
        condition_number=cond,
        boundary_margin=margin,
        warnings=warnings,
    )


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise InputError(f"{what} are not finite floats")


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    safe = np.where(scale > 1e-12, scale, 1.0)
    return float(np.max(np.where(scale > 1e-12, np.abs(a - b) / safe, 0.0)))


def fd_check(game: Game, x_star: np.ndarray, delta: np.ndarray, t: float) -> FdReport:
    """Central differences of re-solved equilibria at +-t against the closed forms.

    Differentiability of the equilibrium path is an assumption, not a theorem;
    ``warm_start_jump`` flags instances where the re-solved equilibrium moved
    more than 100*t away from x*, i.e. where the path visibly is not smooth.
    """
    if not 0 < t < np.inf:  # also rejects NaN
        raise InputError(f"need finite t > 0, got {t}")
    delta = _delta(game, delta)
    closed = utility_derivative(game, x_star, delta)
    x_star = np.asarray(x_star, dtype=float)

    sides = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a difference beyond the float range is refused below
        for s in (+1.0, -1.0):
            pert = perturb_money(game, delta, s * t)
            res = solve_ne(pert, x0=x_star, tol=FD_SOLVER_TOL, max_iter=FD_MAX_ITER)
            if not res.converged:
                raise InputError(f"perturbed solve at t={s * t:g} did not converge")
            u, _ = utility_profile(pert, res.x_star)
            sides[s] = (res.x_star, u)
        dx_fd = (sides[1.0][0] - sides[-1.0][0]) / (2.0 * t)
        du_fd = (sides[1.0][1] - sides[-1.0][1]) / (2.0 * t)
    _require_finite(f"the finite differences along delta = {delta.tolist()} at t = {t}", dx_fd, du_fd)
    jump = max(
        float(np.max(np.abs(sides[s][0] - x_star))) for s in (+1.0, -1.0)
    ) > 100.0 * t
    return FdReport(
        du_dt=du_fd,
        dx_dt=dx_fd,
        du_rel_err=_rel_err(closed.du_dt, du_fd),
        dx_rel_err=_rel_err(closed.dx_dt, dx_fd),
        warm_start_jump=jump,
    )
