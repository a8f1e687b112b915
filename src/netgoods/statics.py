"""Comparative statics of money redistribution.

A redistribution direction delta shifts every gain by delta_i*t.  At an
interior equilibrium x*, the implicit-function system
(diag(c''(x*)) - diag(f''(k*)) W) dx*/dt = diag(f''(k*)) delta gives the
equilibrium response, and the utility response has the closed form
u'(0) = diag(f'(k*)) diag(c''(x*) - f''(k*)) (diag(c''(x*)) - W diag(f''(k*)))^{-1} delta.
Both are validated against central finite differences of re-solved equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_ne
from .errors import InputError, SingularMatrixError
from .functions import AffineReparam
from .game import Game, gains, pseudo_gradient, utility_profile

#: componentwise stationarity required of the supplied equilibrium
STATIONARITY_TOL = 1e-8
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

    du_dt_fd: np.ndarray
    dx_dt_fd: np.ndarray
    du_rel_err: float
    dx_rel_err: float
    warm_start_jump: bool


def perturb_money(game: Game, delta: np.ndarray, t: float) -> Game:
    """The game whose values read f_i(k + delta_i*t); W, costs, bounds unchanged."""
    delta = _delta(game, delta)
    values = []
    for i in range(game.n):
        shift = -float(delta[i]) * float(t)
        if shift == 0.0:
            values.append(game.values[i])
        else:
            values.append(AffineReparam(inner=game.values[i], scale=1.0, shift=shift))
    return Game(w=game.w, lower=game.lower, upper=game.upper,
                values=tuple(values), costs=tuple(game.costs))


def _delta(game: Game, delta) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (game.n,):
        raise InputError(f"delta must have shape ({game.n},), got {delta.shape}")
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
    k = ev.clamp_gains(gains(game, x_star))
    fp, fpp, cpp = ev.value_d1(k), ev.value_d2(k), ev.dq
    warnings = tuple(f"player {i}: equilibrium gain within {KINK_WARN_TOL:g} of a value "
                     "kink; second derivative uses the curved-side convention"
                     for i in np.flatnonzero(np.abs(k - ev.value_kink()) < KINK_WARN_TOL))
    return fp, fpp, cpp, margin, warnings


def _solve(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or 1.0 / cond < RCOND_SINGULAR:
        raise SingularMatrixError(
            f"statics system is numerically singular (cond {cond:.3g})"
        )
    sol = np.linalg.solve(a, rhs)
    return sol, cond


def _dx_dt(game: Game, fpp: np.ndarray, cpp: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, float]:
    """dx*/dt and the condition number of its system, from the curvatures at x*."""
    return _solve(np.diag(cpp) - fpp[:, None] * game.w, fpp * delta)


def equilibrium_derivative(game: Game, x_star: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """dx*/dt at t=0 for the money-redistribution direction delta."""
    delta = _delta(game, delta)
    _, fpp, cpp, _, _ = _interior_curvatures(game, x_star)
    return _dx_dt(game, fpp, cpp, delta)[0]


def utility_derivative(game: Game, x_star: np.ndarray, delta: np.ndarray) -> StaticsResult:
    """u'(0) and dx*/dt at t=0, with condition and boundary diagnostics.

    The closed form rests on the equilibrium identity c'(x*) = f'(k*), the
    interior stationarity (through the unit diagonal) that x* is checked for.
    """
    delta = _delta(game, delta)
    fp, fpp, cpp, margin, warnings = _interior_curvatures(game, x_star)
    dx_dt, cond_x = _dx_dt(game, fpp, cpp, delta)
    a_u = np.diag(cpp) - game.w * fpp[None, :]
    y, cond_u = _solve(a_u, delta)
    du_dt = fp * (cpp - fpp) * y
    return StaticsResult(
        du_dt=du_dt,
        dx_dt=dx_dt,
        condition_number=max(cond_x, cond_u),
        boundary_margin=margin,
        warnings=warnings,
    )


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    safe = np.where(scale > 1e-12, scale, 1.0)
    return float(np.max(np.where(scale > 1e-12, np.abs(a - b) / safe, 0.0)))


def fd_check(
    game: Game,
    x_star: np.ndarray,
    delta: np.ndarray,
    t: float,
    solver_tol: float = 1e-13,
    max_iter: int = 400_000,
) -> FdReport:
    """Central differences of re-solved equilibria at +-t against the closed forms.

    Differentiability of the equilibrium path is an assumption, not a theorem;
    ``warm_start_jump`` flags instances where the re-solved equilibrium moved
    more than 100*t away from x*, i.e. where the path visibly is not smooth.
    """
    if t <= 0:
        raise InputError(f"need t > 0, got {t}")
    closed = utility_derivative(game, x_star, delta)
    x_star = np.asarray(x_star, dtype=float)

    sides = {}
    for s in (+1.0, -1.0):
        pert = perturb_money(game, delta, s * t)
        res = solve_ne(pert, x0=x_star, tol=solver_tol, max_iter=max_iter)
        if not res.converged:
            raise InputError(f"perturbed solve at t={s * t:g} did not converge")
        u, _ = utility_profile(pert, res.x_star)
        sides[s] = (res.x_star, u)

    dx_fd = (sides[1.0][0] - sides[-1.0][0]) / (2.0 * t)
    du_fd = (sides[1.0][1] - sides[-1.0][1]) / (2.0 * t)
    jump = max(
        float(np.max(np.abs(sides[s][0] - x_star))) for s in (+1.0, -1.0)
    ) > 100.0 * t
    return FdReport(
        du_dt_fd=du_fd,
        dx_dt_fd=dx_fd,
        du_rel_err=_rel_err(closed.du_dt, du_fd),
        dx_rel_err=_rel_err(closed.dx_dt, dx_fd),
        warm_start_jump=jump,
    )


def statics_to_dict(result: StaticsResult) -> dict:
    return {
        "du_dt": [float(v) for v in result.du_dt],
        "dx_dt": [float(v) for v in result.dx_dt],
        "condition_number": float(result.condition_number),
        "boundary_margin": float(result.boundary_margin),
        "warnings": list(result.warnings),
    }
