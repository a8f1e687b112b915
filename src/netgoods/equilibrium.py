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

from .certificates import _sigma_bound
from .errors import InputError, check_shape
from .game import (Game, _default_gamma, _pseudo_gradient, _require_upper_triangular, best_response, br_gap,
                   gain_bounds)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50_000
DEFAULT_CLUSTER_TOL = 1e-4
#: hard cap on grid-oracle size
GRID_POINT_CAP = 10_000_000
_GRID_CHUNK = 1 << 16  # rows per br_gap call: bounds the oracle's peak memory
_STEP_RANGE = (1e-4, 1e-1)  # every default step is clipped into it


@dataclass(frozen=True)
class SolveResult:
    """Fixed-point solve outcome.

    ``residual`` is the final infinity-norm displacement of one iteration;
    ``final_gap`` the best-response gap at ``x_star`` (NaN if diverged).
    """

    x_star: np.ndarray
    status: str  # "converged" | "max_iter" | "diverged"
    iterations: int
    final_gap: float
    residual: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def default_step_eps(game: Game, gamma: np.ndarray) -> float:
    """Conservative contraction step from the game's interaction scale.

    The scaled field's Jacobian is bounded by the value-derivative Lipschitz
    constants spread through W plus the cost curvature, so 0.5/(1 + that
    scale) keeps the iteration inside the contraction regime with room to
    spare; clipped into ``_STEP_RANGE``.
    """
    gb, ev = gain_bounds(game), game.evaluator
    l_val = float(np.max(gamma * ev.value_lipschitz_d1(gb.k_lo, gb.k_hi)))
    l_cost = float(np.max(gamma * ev.dq))
    scale = l_val * _sigma_bound(np.abs(game.w))[0] + l_cost
    return float(np.clip(0.5 / (1.0 + scale), *_STEP_RANGE))


def _prep(game, gamma, step_eps, x0, tol, max_iter, betas=(0.0,)):
    """(gamma, the step of each stage (one per beta, as in ``_solve``), x0), checked."""
    if not 0 < tol < np.inf:  # also rejects NaN
        raise InputError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    gamma = _default_gamma(game, gamma)
    if step_eps is None:
        eps = default_step_eps(game, gamma)
        steps = [float(np.clip(eps / (1.0 + 2.0 * beta), *_STEP_RANGE)) for beta in betas]
    elif 0 < step_eps < np.inf:
        steps = [float(step_eps)] * len(betas)
    else:
        raise InputError(f"step_eps must be positive and finite, got {step_eps}")
    for eps in steps:  # a stage stops once a step moves less than tol * eps: at 0 it never would
        if not 0 < tol * eps < np.inf:
            raise InputError(f"the stop threshold tol * step_eps = {tol} * {eps} is not a positive finite float")
    if x0 is None:
        x0 = 0.5 * (game.lower + game.upper)
    x0 = game.require_feasible(np.asarray(x0, dtype=float))
    return gamma, steps, x0


def _iterate(game, field, gamma, eps, xs, tol, max_iter):
    """Projected steps x <- Pi_X(x + eps*gamma*field(x)) on xs, in place.

    ``xs`` is one (n,) profile or an (S, n) batch of rows.  The field and the
    step see ``xs`` in its own shape, so a single start never pays numpy's
    broadcast of (1, n) against the (n,) parameter rows.  A row stops once a
    step moves it less than tol*eps ("converged") or is not finite
    ("diverged"; the row keeps its last finite point).  Filing the rows that
    stop works on (S, n) views and runs only on iterations where some row
    stops.  Returns each row's status, iteration count and last displacement
    as (S,) arrays (S = 1 for a profile).
    """
    field = field or (lambda y: _pseudo_gradient(game, y))  # the rows never leave the box
    step, stop, rows = eps * gamma, tol * eps, xs.reshape(-1, game.n)
    iters, residuals = np.zeros(rows.shape[0], dtype=int), np.full(rows.shape[0], np.inf)
    active, cur, res, it = np.arange(rows.shape[0]), xs, residuals, 0
    for it in range(1, max_iter + 1):
        stepped = game.project(cur + step * field(cur))
        # ufunc reductions and count_nonzero run in C, where ndarray.max and .all go through Python
        res = np.maximum.reduce(np.abs(stepped - cur), axis=-1)  # NaN where the step is not finite
        going = res >= stop
        if np.count_nonzero(going) != going.size:  # file the rows that stop here and go on with the rest
            cur, stepped = cur.reshape(-1, game.n), stepped.reshape(-1, game.n)
            res, going = res.reshape(-1), going.reshape(-1)
            done, nan = active[~going], np.isnan(res[~going])
            rows[done] = np.where(nan[:, None], cur[~going], stepped[~going])
            residuals[done], iters[done] = np.where(nan, np.inf, res[~going]), it
            active, stepped, res = active[going], stepped[going], res[going]
        cur = stepped
        if not active.size:
            break
    rows[active], residuals[active], iters[active] = cur, res, it
    diverged = (residuals == np.inf) & (iters > 0)
    status = np.where(residuals < stop, "converged", np.where(diverged, "diverged", "max_iter"))
    return status, iters, residuals


def _result(game, x, status, iterations, residual) -> SolveResult:
    gap = float("nan") if status == "diverged" else br_gap(game, x)[0]
    return SolveResult(x, str(status), int(iterations), gap, float(residual))


def _solve(game, betas, gamma, step_eps, tol, max_iter, x0) -> SolveResult:
    """The projected iteration in stages, one per beta (0: the original game); see solve_regularized."""
    gamma, steps, x = _prep(game, gamma, step_eps, x0, tol, max_iter, betas)
    x, total = x.copy(), 0
    for beta, eps in zip(betas, steps):
        field = (lambda y, beta=beta: _pseudo_gradient(game, y) - 2.0 * beta * y) if beta else None
        (status,), (iterations,), (residual,) = _iterate(game, field, gamma, eps, x, tol, max_iter)
        total += int(iterations)
        if status == "diverged":
            break
    return _result(game, x, status, total, residual)


def solve_ne(
    game: Game,
    gamma: np.ndarray | None = None,
    step_eps: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """Projected fixed-point iteration on the (gamma-scaled) pseudo-gradient.

    Stops when the iteration displacement drops below tol*step_eps.
    """
    return _solve(game, (0.0,), gamma, step_eps, tol, max_iter, x0)


def _check_eps(eps: float) -> None:
    if not 0 <= eps < np.inf:  # also rejects NaN
        raise InputError(f"eps must be non-negative and finite, got {eps}")


def verify_ne(game: Game, x: np.ndarray, eps: float) -> tuple[bool, float, int]:
    """Accept x as an eps-NE iff no unilateral deviation gains more than eps."""
    _check_eps(eps)
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
    regularizer makes every cost strongly convex) and, unless step_eps is
    given, divides the default step by 1 + 2*beta.  It solves with a warm
    start from the previous stage; the iterations add up, a diverged stage
    ends the path, and the final point is judged against the original game.
    """
    betas = [float(b) for b in beta_schedule]
    if not betas or not all(0 < b < np.inf for b in betas) or any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise InputError("beta_schedule must be finite, strictly decreasing and positive")
    return _solve(game, betas, gamma, step_eps, tol, max_iter, x0)


def multi_start_probe(
    game: Game,
    n_starts: int,
    seed: int,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
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
    if not 0 <= cluster_tol < np.inf:
        raise InputError(f"cluster_tol must be non-negative and finite, got {cluster_tol}")
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    gamma_v, (eps,), _ = _prep(game, gamma, step_eps, None, tol, max_iter)
    rng = np.random.default_rng(seed)
    xs = game.lower + rng.random(check_shape((n_starts, game.n), "n_starts")) * (game.upper - game.lower)
    status, iters, residuals = _iterate(game, None, gamma_v, eps, xs, tol, max_iter)
    converged = np.nonzero(status == "converged")[0]
    reps: list[SolveResult] = []
    centres = np.empty((converged.size, game.n))  # reps' x_star, stacked in the first len(reps) rows
    for s in converged:
        if (np.abs(xs[s] - centres[:len(reps)]).max(axis=1) <= cluster_tol).any():
            continue
        centres[len(reps)] = xs[s]
        reps.append(_result(game, xs[s].copy(), "converged", iters[s], residuals[s]))
    return reps


def grid_oracle(game: Game, m: int, eps: float) -> list[np.ndarray]:
    """All profiles on the m^n uniform grid that ``verify_ne`` accepts at eps.

    Brute force: every grid profile is judged by its exact best-response gap
    (``br_gap``), in chunks of rows.
    """
    _check_eps(eps)
    if game.n > 6:
        raise InputError(f"grid oracle supports n <= 6, got n={game.n}")
    if m < 2:
        raise InputError(f"need m >= 2, got {m}")
    total = m**game.n
    if total > GRID_POINT_CAP:
        raise InputError(f"instance too large: {m}^{game.n} = {total} > {GRID_POINT_CAP}")

    axes = [np.linspace(game.lower[i], game.upper[i], m) for i in range(game.n)]
    found: list[np.ndarray] = []
    for start in range(0, total, _GRID_CHUNK):
        idx = np.arange(start, min(start + _GRID_CHUNK, total))
        coords = np.stack([ax[j] for ax, j in zip(axes, np.unravel_index(idx, (m,) * game.n))], axis=1)
        found.extend(coords[br_gap(game, coords)[0] <= eps])
    return found


def backward_induction(game: Game) -> np.ndarray:
    """Exact NE of an upper-triangular network by solving players n..1 in turn.

    With w_ij = 0 below the diagonal, player n faces no externalities, so her
    best response is unconditional; fixing it makes player n-1 unconditional,
    and so on down to player 1.
    """
    _require_upper_triangular(game)
    x = game.lower.copy()
    for i in range(game.n - 1, -1, -1):
        x[i] = best_response(game, i, x)
    return x
