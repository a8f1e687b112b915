"""Continuous-time effort dynamics as RK4 integrators, plus convergence-rate fits.

Two flows: the alpha-scaled ascent along own-utility derivatives, and the
social-welfare gradient flow.  States are projected onto the action box after
every step (a no-op on interior trajectories); stage evaluations use
box-clipped states so gains never leave the value domains.  The integration
never reads its own diagnostics (welfare, best-response gap, energy), so they
are computed once it ends, in batches of stored states.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrationError, check_shape
from .game import (
    Game,
    _br_gap,
    _run_field,
    _utilities,
    _weights,
    utility_profile,
)

#: the flow is declared converged once the driving field is this small
FIELD_TOL = 1e-8
DEFAULT_STEP = 1e-2
DEFAULT_HORIZON = 50.0
#: leading fraction of samples discarded by rate fits to skip transients
FIT_DISCARD = 0.1
#: states per batch when computing trajectory diagnostics or writing a trajectory's CSV, which bounds
#: the memory of both
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


def _physical_memory() -> float:
    """This machine's physical memory in bytes, or inf where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name, on this platform
        return math.inf


def _trajectory_bytes(n_states: int, n: int, energy: bool) -> int:
    """Bytes of a trajectory's per-step arrays: states, times, clipped flags, welfare, gaps and energy."""
    return n_states * (8 * n + 8 + 1 + 8 + 8 + (8 if energy else 0))


def _integrate(game: Game, field, x0: np.ndarray, step: float, horizon: float,
               energy_fn=None) -> Trajectory:
    """Classical RK4 on ``field`` from x0 for round(horizon/step) steps, each projected onto the box.

    ``field`` is the run's one-argument field (``game._run_field``), evaluated
    on in-box states only.  The state after a step is also the next step's k1,
    so a step takes four evaluations, each of which must return a new array.
    The stage states and the unprojected step end are written into two O(n)
    rows allocated once, and each projected state straight into its row of
    ``states``, beside the per-step arrays that the physical-memory cap
    counts.  The run stops early once max|field| falls below FIELD_TOL, and
    raises IntegrationError, with the trajectory so far as ``last_good``, on a
    non-finite step.
    """
    if not (0 < step < np.inf and 0 < horizon < np.inf and horizon / step < np.inf):  # NaN fails too
        raise InputError(f"need finite step>0, horizon>0, horizon/step; got step={step}, horizon={horizon}")
    n_steps = int(round(horizon / step))
    if n_steps < 1:
        raise InputError(f"horizon {horizon} rounds to 0 steps of {step}; a run takes round(horizon/step) steps")
    shape = check_shape((n_steps + 1, game.n), "horizon/step")
    stored = _trajectory_bytes(n_steps + 1, game.n, energy_fn is not None)
    if stored > (memory := _physical_memory()):
        raise InputError(f"horizon/step is too large: {n_steps + 1} stored states of {game.n} floats, with their "
                         f"per-step records, take {stored} bytes, more than the {memory} bytes of physical memory")
    x0 = game.require_feasible(x0)
    # row m holds the start (m = 0) or the state after step m; rows [0, filled) are written
    times, states, clipped = np.empty(shape[0]), np.empty(shape), np.zeros(shape[0], dtype=bool)
    times[0], states[0], filled = 0.0, x0, 1
    x, stage, raw, lo, hi = states[0], np.empty(game.n), np.empty(game.n), game.lower, game.upper
    # the step's scalars as 0-d arrays, which numpy multiplies an array by faster than a Python float
    half, full, sixth, two = np.array(0.5 * step), np.array(step), np.array(step / 6.0), np.array(2.0)
    fx = field(x)  # every state is already in the box, so field(x) is also the next step's k1
    t = 0.0
    # ufunc reductions and count_nonzero run in C, where ndarray.max and .any go through Python
    while not (converged := bool(np.maximum.reduce(np.abs(fx), axis=None) < FIELD_TOL)) and filled <= n_steps:
        k = [fx]
        for h in (half, half, full):  # stage = project(x + h*k[-1]), in place
            np.add(x, np.multiply(h, k[-1], out=stage), out=stage)
            k.append(field(np.minimum(np.maximum(stage, lo, out=stage), hi, out=stage)))
        k1, k2, k3, k4 = k
        # raw = x + (step/6)*(k1 + 2*k2 + 2*k3 + k4), in that order of operations
        np.add(k1, np.multiply(two, k2, out=raw), out=raw)
        np.add(raw, np.multiply(two, k3, out=stage), out=raw)
        np.add(x, np.multiply(sixth, np.add(raw, k4, out=raw), out=raw), out=raw)
        x = np.minimum(np.maximum(raw, lo, out=states[filled]), hi, out=states[filled])  # game.project
        # projecting a non-finite entry always moves it, so only a clipped step needs the test
        was_clipped = np.count_nonzero(x != raw) != 0
        if was_clipped and np.count_nonzero(np.isfinite(raw)) != raw.size:
            raise IntegrationError(
                f"non-finite state at t={t + step}",
                last_good=_finish(game, times, states, clipped, filled, energy_fn, False),
            )
        t += step
        times[filled], clipped[filled] = t, was_clipped
        filled += 1
        fx = field(x)
    return _finish(game, times, states, clipped, filled, energy_fn, converged)


def _finish(game, times, states, clipped, filled, energy_fn, converged):
    """The trajectory of the first ``filled`` rows, with its diagnostics computed on them in row chunks."""
    times, states, clipped = times[:filled], states[:filled], clipped[:filled]
    sw, gaps = np.empty(filled), np.empty(filled)
    energy = np.empty(filled) if energy_fn is not None else None
    for lo in range(0, filled, DIAG_CHUNK):
        rows = slice(lo, lo + DIAG_CHUNK)
        k, u = _utilities(game, states[rows])  # every stored state is in the box
        sw[rows] = np.sum(u, axis=-1)
        gaps[rows] = _br_gap(game, states[rows], k, u)[0]
        if energy is not None:
            energy[rows] = energy_fn(states[rows], u)
    return Trajectory(times=times, states=states, sw=sw, br_gaps=gaps, clipped=clipped, energy=energy,
                      converged=converged)


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

    energy_fn = None
    if x_star is not None:
        x_star = game.require_feasible(x_star)
        u_star = utility_profile(game, x_star)[0] @ alpha
        g_star = _run_field(game, alpha, welfare=True)(x_star)

        def energy_fn(xs, u):
            return u_star - u @ alpha + (xs - x_star) @ g_star

    # on in-box states only: the start is validated, every stage projected
    return _integrate(game, _run_field(game, alpha), x0, step, horizon, energy_fn=energy_fn)


def integrate_sw_flow(
    game: Game,
    x0: np.ndarray,
    step: float = DEFAULT_STEP,
    horizon: float = DEFAULT_HORIZON,
) -> Trajectory:
    """Integrate the social-welfare gradient flow dx/dt = grad SW(x) from x0."""
    return _integrate(game, _run_field(game, welfare=True), x0, step, horizon)


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
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(gaps))):  # NaN passes the tests below
        raise InputError("degenerate series: non-finite times or gaps")
    if np.any(gaps <= 0):
        raise InputError("degenerate series: non-positive gaps")
    skip = int(FIT_DISCARD * times.size)
    return times[skip:], gaps[skip:]


def fit_exponential(times, gaps) -> RateFit:
    """Fit log(gap) = log(A) + rate*t; r^2 measured on log(gap)."""
    t, g = _prepare_series(times, gaps)
    if np.all(t == t[0]):  # no line through them: polyfit fails or warns
        raise InputError("degenerate series: all times equal")
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
    if np.all(u == u[0]):
        raise InputError("inverse-linear fit needs 1/t to take at least 2 values")
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
    """Write columns t, x_1..x_n, sw, br_gap, energy (energy blank if absent), each value as its repr.

    The rows go out in batches of DIAG_CHUNK.  A batch formats each distinct
    bit pattern once and indexes the strings back into place: a player at its
    box top, for one, repeats its value on every row.  Bits, not values, tell
    the floats apart, so -0.0 keeps its sign.
    """
    n = traj.states.shape[1]
    cols = [traj.times[:, None], traj.states, traj.sw[:, None], traj.br_gaps[:, None]]
    if traj.energy is not None:
        cols.append(traj.energy[:, None])
    # the bytes csv.writer writes: no field needs quoting, lines end in "\r\n"
    end = "\r\n" if traj.energy is not None else ",\r\n"  # a blank energy field
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *[f"x_{i + 1}" for i in range(n)], "sw", "br_gap", "energy"]) + "\r\n")
        for lo in range(0, traj.times.size, DIAG_CHUNK):
            block = np.hstack([col[lo:lo + DIAG_CHUNK] for col in cols])
            bits, at = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            fh.writelines(",".join(row) + end for row in text[at].reshape(block.shape).tolist())
