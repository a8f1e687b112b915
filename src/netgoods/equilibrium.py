"""NE computation and verification.

The workhorse is the projected contraction iteration
x <- Pi_X(x + eps * gamma * pseudo_gradient(x)), whose unique fixed point is
the NE whenever a uniqueness certificate passes and eps is small enough.
Around it: epsilon-NE verification, a vanishing-regularization existence path
for non-strongly-convex costs, a brute-force grid oracle, a clustered
multi-start probe, and backward induction for triangular networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import spectral_bounds
from .errors import InputError
from .game import Game, _pseudo_gradient, _weights, best_response, br_gap, gain_bounds, gains

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50_000
#: hard cap on grid-oracle size
GRID_POINT_CAP = 10_000_000
_GRID_CHUNK = 1 << 18


@dataclass(frozen=True)
class SolveResult:
    """Fixed-point solve outcome.

    ``residual`` is the final infinity-norm displacement of one iteration;
    ``final_gap`` the best-response gap at ``x_star`` (NaN if diverged).
    ``iterates`` is present only when history was requested.
    """

    x_star: np.ndarray
    status: str  # "converged" | "max_iter" | "diverged"
    iterations: int
    final_gap: float
    residual: float
    iterates: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def default_step_eps(game: Game, gamma: np.ndarray) -> float:
    """Conservative contraction step from the game's interaction scale.

    The scaled field's Jacobian is bounded by the value-derivative Lipschitz
    constants spread through W plus the cost curvature, so 0.5/(1 + that
    scale) keeps the iteration inside the contraction regime with room to
    spare; clipped to [1e-4, 1e-1].
    """
    gb, ev = gain_bounds(game), game.evaluator
    l_val = float(np.max(gamma * ev.value_lipschitz_d1(gb.k_lo, gb.k_hi)))
    l_cost = float(np.max(gamma * ev.dq))
    s_w, _ = spectral_bounds(np.abs(game.w))
    scale = l_val * s_w + l_cost
    return float(np.clip(0.5 / (1.0 + scale), 1e-4, 1e-1))


def _prep(game, gamma, step_eps, x0, tol, max_iter):
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    gamma = np.ones(game.n) if gamma is None else _weights(game, gamma, "gamma")
    if step_eps is None:
        step_eps = default_step_eps(game, gamma)
    if step_eps <= 0:
        raise InputError(f"step_eps must be positive, got {step_eps}")
    if x0 is None:
        x0 = 0.5 * (game.lower + game.upper)
    x0 = game.require_feasible(np.asarray(x0, dtype=float))
    return gamma, float(step_eps), x0


def _iterate(game, field, gamma, eps, xs, tol, max_iter, history=None):
    """Projected steps x <- Pi_X(x + eps*gamma*field(x)) on the rows of xs, in place.

    A row stops once a step moves it less than tol*eps ("converged") or is not
    finite ("diverged"; the row keeps its last finite point).  Returns each row's
    status, iteration count and last displacement; ``history`` collects one row's iterates.
    """
    field = field or (lambda y: _pseudo_gradient(game, y))  # the rows never leave the box
    step, stop = eps * gamma, tol * eps
    iters, residuals = np.zeros(xs.shape[0], dtype=int), np.full(xs.shape[0], np.inf)
    active, cur, res, it = np.arange(xs.shape[0]), xs, residuals, 0
    for it in range(1, max_iter + 1):
        stepped = game.project(cur + step * field(cur))
        res = np.abs(stepped - cur).max(axis=1)  # NaN where the step is not finite
        if history is not None and not np.isnan(res).any():
            history.append(stepped[0].copy())
        going = res >= stop
        if not going.all():  # file the rows that stop here and go on with the rest
            done, nan = active[~going], np.isnan(res[~going])
            xs[done] = np.where(nan[:, None], cur[~going], stepped[~going])
            residuals[done], iters[done] = np.where(nan, np.inf, res[~going]), it
            active, stepped, res = active[going], stepped[going], res[going]
        cur = stepped
        if not active.size:
            break
    xs[active], residuals[active], iters[active] = cur, res, it
    diverged = (residuals == np.inf) & (iters > 0)
    status = np.where(residuals < stop, "converged", np.where(diverged, "diverged", "max_iter"))
    return status, iters, residuals


def solve_ne(
    game: Game,
    gamma: np.ndarray | None = None,
    step_eps: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
    keep_iterates: bool = False,
    field=None,
) -> SolveResult:
    """Projected fixed-point iteration on the (gamma-scaled) pseudo-gradient.

    Stops when the iteration displacement drops below tol*step_eps.  ``field``
    overrides the driving field (used internally by the regularized path); it
    must have the same signature as pseudo_gradient's partial application and
    is called on (1, n) batches.
    """
    gamma, eps, x = _prep(game, gamma, step_eps, x0, tol, max_iter)
    history = [x.copy()] if keep_iterates else None
    xs = x[None, :].copy()
    (status,), (iterations,), (residual,) = _iterate(game, field, gamma, eps, xs, tol, max_iter, history)
    gap = float("nan") if status == "diverged" else br_gap(game, xs[0])[0]
    return SolveResult(
        x_star=xs[0], status=str(status), iterations=int(iterations),
        final_gap=gap, residual=float(residual),
        iterates=np.asarray(history) if history is not None else None,
    )


def verify_ne(game: Game, x: np.ndarray, eps: float) -> tuple[bool, float, int]:
    """Accept x as an eps-NE iff no unilateral deviation gains more than eps."""
    if eps < 0:
        raise InputError(f"eps must be non-negative, got {eps}")
    gap, worst = br_gap(game, x)
    return gap <= eps, gap, worst


def solve_regularized(
    game: Game,
    beta_schedule,
    gamma: np.ndarray | None = None,
    step_eps: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """Existence path: solve under costs c_i(x) + beta*x^2 for decreasing beta.

    Each stage adds 2*beta*x_i to the cost derivative (the quadratic
    regularizer makes every cost strongly convex), solves with a warm start
    from the previous stage, and the final point is judged against the
    original game.
    """
    betas = [float(b) for b in beta_schedule]
    if not betas or min(betas) <= 0 or any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise InputError("beta_schedule must be strictly decreasing and positive")
    gamma, eps, x = _prep(game, gamma, step_eps, x0, tol, max_iter)
    xs, total_iters = x[None, :].copy(), 0
    for beta in betas:
        eps_b = eps if step_eps is not None else float(np.clip(eps / (1.0 + 2.0 * beta), 1e-4, 1e-1))

        def field(y, beta=beta):
            return _pseudo_gradient(game, y) - 2.0 * beta * y

        (status,), (iterations,), (residual,) = _iterate(game, field, gamma, eps_b, xs, tol, max_iter)
        total_iters += int(iterations)
        if status == "diverged":
            break
    gap = float("nan") if status == "diverged" else br_gap(game, xs[0])[0]
    return SolveResult(
        x_star=xs[0], status=str(status), iterations=total_iters,
        final_gap=gap, residual=float(residual),
    )


def multi_start_probe(
    game: Game,
    n_starts: int,
    seed: int,
    cluster_tol: float = 1e-4,
    gamma: np.ndarray | None = None,
    step_eps: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SolveResult]:
    """Solve from deterministic random starts and cluster the limits.

    Starts iterate as one vectorized batch; converged limits are merged by
    infinity-norm distance in start order, and one representative SolveResult
    per cluster comes back.  A certified-unique game must yield one cluster.
    """
    if n_starts < 1:
        raise InputError(f"need n_starts >= 1, got {n_starts}")
    gamma_v, eps, _ = _prep(game, gamma, step_eps, None, tol, max_iter)
    rng = np.random.default_rng(seed)
    xs = game.lower + rng.random((n_starts, game.n)) * (game.upper - game.lower)
    status, iters, residuals = _iterate(game, None, gamma_v, eps, xs, tol, max_iter)
    converged = np.nonzero(status == "converged")[0]
    reps: list[SolveResult] = []
    centres = np.empty((converged.size, game.n))  # reps' x_star, stacked in the first len(reps) rows
    for s in converged:
        x = xs[s]
        if (np.abs(x - centres[:len(reps)]).max(axis=1) <= cluster_tol).any():
            continue
        centres[len(reps)] = x
        reps.append(SolveResult(
            x_star=x.copy(), status="converged", iterations=int(iters[s]),
            final_gap=br_gap(game, x)[0], residual=float(residuals[s]),
        ))
    return reps


#: own-axis deviation resolution for the oracle's second pass
_FINE_DEVIATIONS = 2048


def _deviation_gains(game: Game, coords: np.ndarray, devs: list[np.ndarray]) -> np.ndarray:
    """Best single-player deviation gain per profile, scanning dev grids per player."""
    ev = game.evaluator
    ks = ev.clamp_gains(gains(game, coords))
    u_base = ev.value(ks) - ev.cost(coords)
    best = np.full(coords.shape[0], -np.inf)
    for i in range(game.n):
        k_alt = ev.column(i).clamp_gains(ks[:, i, None] + (devs[i][None, :] - coords[:, i, None]))
        u_alt = game.values[i].value(k_alt) - game.costs[i].value(devs[i])[None, :]
        best = np.maximum(best, u_alt.max(axis=1) - u_base[:, i])
    return best


def grid_oracle(game: Game, m: int, eps: float) -> list[np.ndarray]:
    """All profiles on the m^n uniform grid where no unilateral deviation gains > eps.

    Brute force: a first pass screens all m^n profiles against deviations on
    the m-point axis grid; survivors are re-checked against a dense own-axis
    deviation grid, which rejects grid-locked near-equilibria (profiles that
    only look stable because the coarse grid cannot express the profitable
    move) and keeps exactly the grid points that are epsilon-NEs of the game.
    """
    if game.n > 6:
        raise InputError(f"grid oracle supports n <= 6, got n={game.n}")
    if m < 2:
        raise InputError(f"need m >= 2, got {m}")
    total = m**game.n
    if total > GRID_POINT_CAP:
        raise InputError(f"instance too large: {m}^{game.n} = {total} > {GRID_POINT_CAP}")

    axes = [np.linspace(game.lower[i], game.upper[i], m) for i in range(game.n)]
    fine = [
        np.union1d(np.linspace(game.lower[i], game.upper[i], _FINE_DEVIATIONS), axes[i])
        for i in range(game.n)
    ]
    found: list[np.ndarray] = []
    for start in range(0, total, _GRID_CHUNK):
        idx = np.arange(start, min(start + _GRID_CHUNK, total))
        coords = np.stack([ax[j] for ax, j in zip(axes, np.unravel_index(idx, (m,) * game.n))], axis=1)
        survivors = coords[_deviation_gains(game, coords, axes) <= eps]
        for s0 in range(0, survivors.shape[0], 4096):
            block = survivors[s0:s0 + 4096]
            found.extend(block[_deviation_gains(game, block, fine) <= eps])
    return found


def backward_induction(game: Game) -> np.ndarray:
    """Exact NE of an upper-triangular network by solving players n..1 in turn.

    With w_ij = 0 below the diagonal, player n faces no externalities, so her
    best response is unconditional; fixing it makes player n-1 unconditional,
    and so on down to player 1.
    """
    if np.any(np.tril(game.w, k=-1) != 0.0):
        raise InputError("W must be upper-triangular (w_ij = 0 for i > j)")
    x = game.lower.copy()
    for i in range(game.n - 1, -1, -1):
        x[i] = best_response(game, i, x)
    return x
