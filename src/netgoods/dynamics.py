"""Continuous-time effort dynamics as RK4 integrators, plus convergence-rate fits.

Two flows: the alpha-scaled ascent along own-utility derivatives, and the
social-welfare gradient flow.  States are projected onto the action box after
every step (a no-op on interior trajectories); stage evaluations use
box-clipped states so gains never leave the value domains.  The integration
never reads its own diagnostics (welfare, best-response gap, energy), so they
are computed once it ends, in batches of stored states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrationError
from .game import (
    Game,
    _pseudo_gradient,
    _sw_gradient,
    _weights,
    br_gap,
    utility_profile,
    weighted_welfare_gradient,
)

#: the flow is declared converged once the driving field is this small
FIELD_TOL = 1e-8
DEFAULT_STEP = 1e-2
DEFAULT_HORIZON = 50.0
#: leading fraction of samples discarded by rate fits to skip transients
FIT_DISCARD = 0.1
#: states per batch when computing trajectory diagnostics, which bounds their memory
DIAG_CHUNK = 256


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states with per-step diagnostics.

    ``clipped[k]`` is True when the box projection was active at step k, which
    flags boundary episodes the interior analysis does not cover.  ``energy``
    is present only when the integrator was given a reference point.
    """

    times: np.ndarray
    states: np.ndarray
    sw: np.ndarray
    br_gaps: np.ndarray
    clipped: np.ndarray
    energy: np.ndarray | None
    converged: bool

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay-rate fit: gap ~ exp(rate*t) or gap ~ rate/t + const."""

    model: str  # "exponential" | "inverse_linear"
    rate: float
    r_squared: float


def _integrate(game: Game, field, x0: np.ndarray, step: float, horizon: float,
               energy_fn=None) -> Trajectory:
    if step <= 0 or horizon <= 0:
        raise InputError(f"need step>0 and horizon>0, got step={step}, horizon={horizon}")
    x = game.require_feasible(np.asarray(x0, dtype=float))
    times, states, clipped = [0.0], [x], [False]
    # every state is already in the box, so field(x) is also the next step's k1
    fx = field(x)
    converged = bool(np.abs(fx).max() < FIELD_TOL)
    n_steps = int(round(horizon / step))
    t = 0.0
    for _ in range(n_steps):
        if converged:
            break
        k1 = fx
        k2 = field(game.project(x + 0.5 * step * k1))
        k3 = field(game.project(x + 0.5 * step * k2))
        k4 = field(game.project(x + step * k3))
        raw = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = game.project(raw)
        # projecting a non-finite entry always moves it, so only a clipped step needs the test
        was_clipped = bool((x != raw).any())
        if was_clipped and not np.isfinite(raw).all():
            raise IntegrationError(
                f"non-finite state at t={t + step}",
                last_good=_finish(game, times, states, clipped, energy_fn, False),
            )
        t += step
        times.append(t)
        states.append(x)
        clipped.append(was_clipped)
        fx = field(x)
        converged = bool(np.abs(fx).max() < FIELD_TOL)
    return _finish(game, times, states, clipped, energy_fn, converged)


def _finish(game, times, states, clipped, energy_fn, converged):
    """The trajectory, with its diagnostics computed on the stored states in row chunks."""
    states = np.asarray(states)
    sw, gaps = np.empty(len(states)), np.empty(len(states))
    energy = np.empty(len(states)) if energy_fn is not None else None
    for lo in range(0, len(states), DIAG_CHUNK):
        rows = slice(lo, lo + DIAG_CHUNK)
        sw[rows] = utility_profile(game, states[rows])[1]
        gaps[rows] = br_gap(game, states[rows])[0]
        if energy is not None:
            energy[rows] = energy_fn(states[rows])
    return Trajectory(times=np.asarray(times), states=states, sw=sw, br_gaps=gaps,
                      clipped=np.asarray(clipped, dtype=bool), energy=energy, converged=converged)


def integrate_pseudo_gradient(
    game: Game,
    alpha: np.ndarray,
    x0: np.ndarray,
    step: float = DEFAULT_STEP,
    horizon: float = DEFAULT_HORIZON,
    x_star: np.ndarray | None = None,
) -> Trajectory:
    """Integrate dx_i/dt = alpha_i * (f_i'(k_i) - c_i'(x_i)) from x0.

    When ``x_star`` is supplied, the trajectory also records the energy
    E(x) = U(x*) - U(x) + <x - x*, grad U(x*)> of the alpha-weighted welfare
    U = sum_i alpha_i u_i, the quantity that decays exponentially under a
    passing uniqueness certificate.
    """
    alpha = _weights(game, alpha, "alpha")

    def field(x):  # on in-box states only: the start is validated, every stage projected
        return alpha * _pseudo_gradient(game, x)

    energy_fn = None
    if x_star is not None:
        x_star = game.require_feasible(np.asarray(x_star, dtype=float))
        u_star = utility_profile(game, x_star)[0] @ alpha
        g_star = weighted_welfare_gradient(game, alpha, x_star)

        def energy_fn(xs):
            return u_star - utility_profile(game, xs)[0] @ alpha + (xs - x_star) @ g_star

    return _integrate(game, field, x0, step, horizon, energy_fn=energy_fn)


def integrate_sw_flow(
    game: Game,
    x0: np.ndarray,
    step: float = DEFAULT_STEP,
    horizon: float = DEFAULT_HORIZON,
) -> Trajectory:
    """Integrate the social-welfare gradient flow dx/dt = grad SW(x) from x0."""

    def field(x):  # on in-box states only, as in integrate_pseudo_gradient
        return _sw_gradient(game, x)

    return _integrate(game, field, x0, step, horizon)


def _r_squared(resp, pred):
    ss_res = float(np.sum((resp - pred) ** 2))
    ss_tot = float(np.sum((resp - np.mean(resp)) ** 2))
    if ss_tot == 0.0:
        raise InputError("degenerate series: constant gaps")
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def _prepare_series(times, gaps):
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if times.shape != gaps.shape or times.ndim != 1:
        raise InputError("times and gaps must be 1-D arrays of equal length")
    if times.size < 10:
        raise InputError(f"need at least 10 samples, got {times.size}")
    if np.any(gaps <= 0):
        raise InputError("degenerate series: non-positive gaps")
    skip = int(FIT_DISCARD * times.size)
    return times[skip:], gaps[skip:]


def fit_exponential(times, gaps) -> RateFit:
    """Fit log(gap) = log(A) + rate*t; r^2 measured on log(gap)."""
    t, g = _prepare_series(times, gaps)
    logg = np.log(g)
    slope, intercept = np.polyfit(t, logg, 1)
    return RateFit("exponential", float(slope), _r_squared(logg, slope * t + intercept))


def fit_inverse_linear(times, gaps) -> RateFit:
    """Fit gap = rate*(1/t) + const on the strictly positive times."""
    t, g = _prepare_series(times, gaps)
    mask = t > 0
    if int(np.sum(mask)) < 2:
        raise InputError("inverse-linear fit needs at least 2 samples with t > 0")
    u = 1.0 / t[mask]
    slope, intercept = np.polyfit(u, g[mask], 1)
    return RateFit("inverse_linear", float(slope), _r_squared(g[mask], slope * u + intercept))


def fit_rate(times, gaps) -> RateFit:
    """Fit both decay models to a positive gap series and return the better r^2."""
    expo = fit_exponential(times, gaps)
    try:
        inv = fit_inverse_linear(times, gaps)
    except InputError:
        return expo
    return expo if expo.r_squared >= inv.r_squared else inv


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write columns t, x_1..x_n, sw, br_gap, energy (energy blank if absent)."""
    n = traj.states.shape[1]
    cols = [traj.times[:, None], traj.states, traj.sw[:, None], traj.br_gaps[:, None]]
    if traj.energy is not None:
        cols.append(traj.energy[:, None])
    rows = np.hstack(cols).tolist()  # Python floats, written as their repr
    # the bytes csv.writer writes: no field needs quoting, lines end in "\r\n"
    end = "\r\n" if traj.energy is not None else ",\r\n"  # a blank energy field
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *[f"x_{i + 1}" for i in range(n)], "sw", "br_gap", "energy"]) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + end for row in rows)
