"""Core model: game container, gains, utilities, welfare, gradients, best responses.

Effort profiles are plain numpy vectors; a profile x is feasible when
lower <= x <= upper componentwise.  Functions documented as batched also take
an (S, n) array of profiles, one per row.  All operations are pure and the
Game is immutable, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .functions import _PLACEHOLDERS, _ROWS, AffineReparam, ScalarFunction

#: how far an action box may reach below its cost domain's floor (a quadratic cost's 0)
COST_FLOOR_TOL = 1e-9
#: how far a profile given to a public entry point may lie outside the box before it is refused
FEASIBILITY_TOL = 1e-9
_ZERO = np.zeros(())  # 0 as a 0-d array, which numpy compares an array with faster than 0.0


@dataclass(frozen=True)
class GainBounds:
    """Componentwise gain interval [k_lo, k_hi] over the action box."""

    k_lo: np.ndarray
    k_hi: np.ndarray


def _fold(spec: ScalarFunction) -> tuple[ScalarFunction, float, float]:
    """Base family of a spec and the one (scale, shift) its AffineReparam chain composes to."""
    scale, shift = 1.0, 0.0
    while isinstance(spec, AffineReparam):
        # the chain so far reads y as (y - shift)/scale; this level reads that as (. - s)/c
        scale, shift = scale * spec.scale, shift + scale * spec.shift
        spec = spec.inner
    return spec, scale, shift


class Evaluator:
    """Values, costs, their derivatives and interval constants of many players at once.

    Players lie on the last axis.  Each player's AffineReparam chain folds into
    one (scale, shift) pair, t = (y - shift)/scale.  A value is a quadratic term
    a*t - b*t^2 (flat past its peak) plus a log term log*ln(mu*t + s), one of
    them exactly zero for each player; a cost is 0.5*q*t^2 + l*t, and its slope
    in x is the one affine map dq*x + dl, folded when the evaluator is built (the
    same bits as the unfolded slope for a player without reparameterization).
    Every domain is unbounded above, and a value domain's only finite end is a
    log pole, open: ``value``, ``value_d1`` and ``value_d2`` raise DomainError
    wherever the log argument mu*t + s is not > 0, and ``outside_domain``
    tells where gains leave the domains.  Nothing is clamped.

    ``value_d1``, the field of every solver step and RK4 stage, skips a term
    that cannot change a bit for any of the evaluator's players.  Each
    evaluator decides from its own rows when it is built, so a ``column`` or
    a gathered sub-evaluator decides for its players alone:
    - the affine map, when every player has v_scale 1 and v_shift +0.0:
      (k - 0.0)/1.0 is k bit for bit, -0.0 included, and so is d1/1.0;
    - the log term, when every player has log 0, mu 0 and s > 0: log/arg is
      then +-0.0 and the quadratic term is never -0.0 (a > 0 on the curved
      side, +0.0 on the flat one), so the sum has the quadratic term's bits.
      A non-finite t, where mu*t + s would be NaN, still raises the same
      DomainError.

    Rows, one entry per player: ``k_lo`` and ``x_lo``, the lower ends of the
    value and cost domains; the value parameters ``v_scale``, ``v_shift``,
    ``a``, ``b``, ``b2`` = 2b, ``clip`` (the peak in t), ``peak``, ``log``, ``mu``,
    ``s``; the cost parameters ``c_scale``, ``c_shift``, ``q``, ``l``; and the
    folded slope ``dq``, ``dl``.  ``dq`` is c'', a constant, so it is also each
    cost's modulus and the Lipschitz constant of c'.

    Methods at points: ``value``, ``value_d1``, ``value_d2``, ``cost``,
    ``cost_d1``, and ``slope_root``, the root of the own-utility slope that a
    best response takes.  ``value_kink`` is where f'' jumps, in gain
    coordinates.  Over gain intervals [lo, hi]: ``value_modulus`` (inf of
    -f''), ``value_modulus_increasing`` (the same where f' > 0),
    ``value_jumps`` (whether the peak lies inside), ``value_lipschitz_d1`` (sup
    of |f''|), ``value_lipschitz_d2`` (sup of |f'''|) and ``closeness`` (sup of
    |gamma f_i'' - f''| for a common value f).  These constants are exact
    closed forms for intervals inside the value domains; like ``value_d2``, they
    read f'' at a peak on the curved side.

    ``of`` reads each base family's parameters through its row in the family
    table ``functions._FAMILIES``, looked up by exact type: a family without a
    row there has no array form and is refused.
    """

    def __init__(self, cols: np.ndarray):
        cols.setflags(write=False)  # frozen like the Game fields the parameters come from
        self.cols = cols  # one row per parameter, one column per player
        (self.k_lo, self.x_lo, self.v_scale, self.v_shift, self.a, self.b, self.b2, self.clip, self.peak,
         self.log, self.mu, self.s, self.c_scale, self.c_shift, self.q, self.l, self.dq, self.dl) = cols
        # the value terms that can change a bit for some player; value_d1 skips the others
        self._mapped = bool(np.count_nonzero((self.v_scale != 1.0) | (self.v_shift != 0.0)
                                             | np.signbit(self.v_shift)))
        self._logged = bool(np.count_nonzero((self.log != 0.0) | (self.mu != 0.0) | ~(self.s > 0.0)))

    @classmethod
    def of(cls, values, costs) -> Evaluator:
        """The evaluator of players with these value and cost specs (InputError on a wrong kind).

        A player whose value and cost equal the previous player's shares that
        player's row, so a homogeneous game folds one player.  Equal specs give
        the same row bits: == does not tell a shift of -0.0 from 0.0, but the
        fold and the domains add each shift to a term that is never -0.0, so
        the sign of a zero shift never reaches the row.
        """
        rows = []  # one per run of equal players
        index = []  # each player's row
        prev = None
        for i, pair in enumerate(zip(values, costs)):
            if pair != prev:
                prev = value, cost = pair
                if value.kind != "value":
                    raise InputError(f"player {i}: values[{i}] is a {value.kind} family, expected a value")
                if cost.kind != "cost":
                    raise InputError(f"player {i}: costs[{i}] is a {cost.kind} family, expected a cost")
                (f, v_scale, v_shift), (c, c_scale, c_shift) = _fold(value), _fold(cost)
                f_row, c_row = _ROWS.get(type(f)), _ROWS.get(type(c))
                if f_row is None or c_row is None:
                    raise InputError(f"no array form for the family pair {f!r}, {c!r}")
                fam, (q, l) = f_row(f), c_row(c)
                # d/dx [0.5*q*t^2 + l*t] with t = (x - c_shift)/c_scale, as dq*x + dl
                slope = (q / c_scale / c_scale, (l - q * c_shift / c_scale) / c_scale)
                rows.append((value.domain()[0], cost.domain()[0], v_scale, v_shift, *fam, c_scale,
                             c_shift, q, l, *slope))
            index.append(len(rows) - 1)
        return cls(np.array(rows, dtype=float).reshape(-1, 18)[index].T.copy())

    @classmethod
    def of_one(cls, spec: ScalarFunction) -> Evaluator:
        """The one-column evaluator of a lone spec, beside a placeholder of the other kind."""
        if spec.kind == "value":
            return cls.of((spec,), (_PLACEHOLDERS["cost"],))
        return cls.of((_PLACEHOLDERS["value"],), (spec,))

    def column(self, i: int) -> Evaluator:
        """The evaluator of player i alone, broadcasting over any trailing axis."""
        return Evaluator(self.cols[:, i:i + 1])

    def value(self, k: np.ndarray) -> np.ndarray:
        """f_i(k_i)."""
        t, arg = self._in_domain(k)
        curved = t <= self.clip
        t = np.where(curved, t, 0.0)  # the flat side reads the peak, so its t*t must not overflow
        quad = np.where(curved, self.a * t - self.b * t * t, self.peak)
        return quad + self.log * np.log(arg)

    def value_d1(self, k: np.ndarray) -> np.ndarray:
        """f_i'(k_i)."""
        if self._logged:
            t, arg = self._in_domain(k)
            d1 = self.log / arg + np.where(t <= self.clip, self.a - self.b2 * t, 0.0)
        else:
            t = self._t(k)
            finite = np.isfinite(t)
            if np.count_nonzero(finite) != finite.size:  # where mu*t + s is NaN
                self._in_domain(k)  # raises
            d1 = np.where(t <= self.clip, self.a - self.b2 * t, 0.0)
        return d1 / self.v_scale if self._mapped else d1

    def value_d2(self, k: np.ndarray) -> np.ndarray:
        """f_i''(k_i)."""
        t, arg = self._in_domain(k)
        return self._d2(arg, t)

    def value_kink(self) -> np.ndarray:
        """Each value's peak in gain coordinates, where f_i'' jumps; -inf for a log value."""
        return self.clip * self.v_scale + self.v_shift

    def value_modulus(self, lo, hi) -> np.ndarray:
        """inf of -f_i'' over [lo_i, hi_i]."""
        return self._curvature(np.where(self._t(hi) <= self.clip, self.b2, 0.0), hi)

    def value_modulus_increasing(self, lo, hi) -> np.ndarray:
        """inf of -f_i'' over the part of [lo_i, hi_i] where f_i' > 0, the only gains an argmax takes."""
        return self._curvature(np.where(self._t(lo) < self.clip, self.b2, 0.0), hi)

    def value_lipschitz_d1(self, lo, hi) -> np.ndarray:
        """sup of |f_i''| over [lo_i, hi_i]."""
        return self._curvature(self.b2, lo)

    def value_jumps(self, lo, hi) -> np.ndarray:
        """Whether f_i'' jumps in [lo_i, hi_i): the peak lies there (never for a log value)."""
        return (self._t(lo) <= self.clip) & (self.clip < self._t(hi))

    def value_lipschitz_d2(self, lo, hi) -> np.ndarray:
        """sup of |f_i'''| over [lo_i, hi_i]; inf where f_i'' jumps, or overflows at a log pole."""
        jump = np.where(self.value_jumps(lo, hi), np.inf, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            return (jump + 2.0 * self.log / self._arg(lo) ** 3) / self.v_scale**3

    def closeness(self, common: Evaluator, gamma, lo, hi) -> np.ndarray:
        """sup of |gamma_i f_i'' - f''| over [lo_i, hi_i], f the value of the one-player ``common``.

        The two peaks cut the interval into at most three pieces.  On each, the
        difference is a constant plus A/(k - p)^2 - gamma_i A_i/(k - p_i)^2 (A the
        log coefficients, p their poles in gain coordinates), so its modulus
        peaks at a piece end or where its derivative vanishes:
        k - p = r (k - p_i) with r = cbrt(A / (gamma_i A_i)).
        """
        kinks = self.value_kink(), common.value_kink()
        cuts = np.clip(np.minimum(*kinks), lo, hi), np.clip(np.maximum(*kinks), lo, hi)
        edges = np.stack(np.broadcast_arrays(lo, *cuts, hi))
        left, right = edges[:-1], edges[1:]
        mid = 0.5 * (left + right)
        branch_i, branch = self._t(mid), common._t(mid)  # the quadratic branches of each piece
        p_i, p = self.v_shift - self.s * self.v_scale, common.v_shift - common.s * common.v_scale
        with np.errstate(divide="ignore", invalid="ignore"):  # also inf - inf at a log pole
            r = np.cbrt(common.log / (gamma * self.log))
            k_star = np.where((self.log > 0) & (common.log > 0), (p - r * p_i) / (1.0 - r), np.nan)
            ends = (left, right, np.fmax(np.fmin(k_star, right), left))  # fmin takes nan to right
            gaps = [np.abs(gamma * self._d2(self._arg(k), branch_i) - common._d2(common._arg(k), branch))
                    for k in ends]
        return np.max(np.where(right > left, gaps, 0.0), axis=(0, 1))

    def _t(self, k):
        return (k - self.v_shift) / self.v_scale if self._mapped else k

    def _arg(self, k):
        # the log argument mu*t + s at gains k, unchecked: 0 at a log pole
        return self.mu * self._t(k) + self.s

    def outside_domain(self, k) -> tuple[np.ndarray, np.ndarray]:
        """(outside, at_pole): where gains k leave the open value domains, and where that is at a log pole.

        A gain is inside when it lies above the domain's lower end ``k_lo`` and
        the folded log argument mu*t + s there is > 0: the fold can round a gain
        a few ulps inside ``domain()`` onto the pole.  Every domain is unbounded
        above and t does not decrease as k grows, so for a gain interval its
        lower end decides.
        """
        at_pole = ~(self._arg(k) > 0.0)
        return ~(k > self.k_lo) | at_pole, at_pole

    def _in_domain(self, k):
        # t and the log argument mu*t + s at gains k; DomainError where it is not > 0 (at or below a log pole)
        t = self._t(k)
        arg = self.mu * t + self.s
        if np.count_nonzero(arg > _ZERO) != arg.size:  # cheaper than ndarray.all
            bad = np.broadcast_to(k, arg.shape)[~(arg > 0.0)][0]
            raise DomainError(f"gain {bad} is outside its value domain: mu*t + s is not > 0 (a log pole)")
        return t, arg

    def _d2(self, arg, branch):
        # f'' where the log argument is arg, on the quadratic branch that the t `branch` lies on
        quad = np.where(branch <= self.clip, -self.b2, 0.0)
        with np.errstate(divide="ignore", over="ignore"):  # -inf at a log pole
            return (quad - self.log / arg ** 2) / self.v_scale**2

    def _curvature(self, quad, at) -> np.ndarray:
        # a quadratic curvature plus the log term's |f''| at the gain `at`, inf at a log pole
        with np.errstate(divide="ignore", over="ignore"):
            return (quad + self.log / self._arg(at) ** 2) / self.v_scale**2

    def cost(self, x: np.ndarray) -> np.ndarray:
        """c_i(x_i); inf where it overflows."""
        t = (x - self.c_shift) / self.c_scale
        with np.errstate(over="ignore"):
            return 0.5 * self.q * t * t + self.l * t

    def cost_d1(self, x: np.ndarray) -> np.ndarray:
        """c_i'(x_i)."""
        return self.dq * x + self.dl

    def slope_root(self, d: np.ndarray) -> np.ndarray:
        """The action t at which f_i'(t + d_i) = c_i'(t), in closed form.

        In gain coordinates a quadratic value has f'(k) = max(A - B*k, 0), so
        the root is the larger of the roots of the curved piece and of the flat
        one, -dl/dq (-inf for a linear cost).  A log value has f'(k) = L/(k - p),
        p its pole, so the root is the larger root of (dq*t + dl)*(t + P) = L,
        P = d - p, where both factors are positive; it is taken from the form of
        the quadratic formula free of cancellation (the linear root when dq = 0),
        with the discriminant (dq*P - dl)^2 + 4*dq*L kept from rounding below 0.
        Meaningful where the root exists; callers clip it into the box.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf where a term overflows
            b = self.b2 / self.v_scale**2  # B
            curved = (self.a / self.v_scale - b * (d - self.v_shift) - self.dl) / (b + self.dq)
            quad = np.maximum(curved, -self.dl / self.dq)
            dp = d - (self.v_shift - self.s * self.v_scale)  # P
            # t^2 coefficient dq; a1, a0 those of t and 1
            a1 = self.dq * dp + self.dl
            a0 = self.dl * dp - self.log
            root = np.sqrt(np.maximum(a1 * a1 - 4.0 * self.dq * a0, 0.0))
            t = np.where(a1 >= 0.0, -2.0 * a0 / (a1 + root), (root - a1) / (2.0 * self.dq))
            return np.where(self.log > 0.0, t, quad)


def evaluate(spec: ScalarFunction, point: float) -> tuple[float, float, float]:
    """Exact (value, d1, d2) of one spec at a point of its domain, through its one-column evaluator.

    A value's finite lower domain end is a log pole, open as in a Game; a point
    there or outside the domain raises DomainError, and so does one that the
    evaluator's folded t puts on the pole: for a nested log value that can be a
    few ulps inside ``domain()``.  A cost's d2 is its constant curvature ``dq``.
    """
    (dlo, dhi), is_value = spec.domain(), spec.kind == "value"
    if not ((dlo < point if is_value else dlo <= point) and point <= dhi):
        opening = "(" if is_value else "["
        raise DomainError(f"point {point} outside domain {opening}{dlo}, {dhi}] of {spec!r}")
    ev, at = Evaluator.of_one(spec), np.array([point], dtype=float)
    if is_value:
        return float(ev.value(at)[0]), float(ev.value_d1(at)[0]), float(ev.value_d2(at)[0])
    return float(ev.cost(at)[0]), float(ev.cost_d1(at)[0]), float(ev.dq[0])


@dataclass(frozen=True)
class Game:
    """n-player networked public-goods game.

    ``w[i, j]`` is the marginal gain of player i from player j's effort, with
    unit diagonal.  ``values[i]``/``costs[i]`` are the concave value and convex
    cost specs of player i; the box action space of player i is
    [lower[i], upper[i]].  ``evaluator``, the array form of all players'
    families (an ``Evaluator``), is built with the game.
    """

    w: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    values: tuple[ScalarFunction, ...]
    costs: tuple[ScalarFunction, ...]

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError(f"W must be square, got shape {w.shape}")
        n = w.shape[0]
        if lower.shape != (n,) or upper.shape != (n,):
            raise InputError("lower/upper must be length-n vectors")
        if not np.all(np.isfinite(w)):
            raise InputError("W has non-finite entries")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InputError("bounds must be finite")
        bad = np.nonzero(np.abs(np.diag(w) - 1.0) > 1e-12)[0]
        if bad.size:
            raise InputError(f"diagonal must be 1 (w[{bad[0]},{bad[0]}]={w[bad[0], bad[0]]})")
        if not np.all(lower < upper):
            i = int(np.nonzero(~(lower < upper))[0][0])
            raise InputError(f"need lower < upper for every player (player {i}: [{lower[i]}, {upper[i]}])")
        values = tuple(self.values)
        costs = tuple(self.costs)
        if len(values) != n or len(costs) != n:
            raise InputError("need one value spec and one cost spec per player")
        ev = Evaluator.of(values, costs)

        for arr in (w, lower, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "costs", costs)

        gb = _compute_gain_bounds(w, lower, upper)
        for arr in (gb.k_lo, gb.k_hi):
            arr.setflags(write=False)
        object.__setattr__(self, "_gain_bounds", gb)
        object.__setattr__(self, "evaluator", ev)

        # reachable gains must lie in the value domains, actions in the cost domains
        bad_value, at_pole = ev.outside_domain(gb.k_lo)
        bad_cost = lower < ev.x_lo - COST_FLOOR_TOL
        if (bad_value | bad_cost).any():
            i = int(np.argmax(bad_value | bad_cost))
            if bad_value[i]:
                pole = " (at or below its log value's pole)" if at_pole[i] else ""
                raise InputError(f"player {i}: gain interval [{gb.k_lo[i]}, {gb.k_hi[i]}] "
                                 f"not contained in value domain [{ev.k_lo[i]}, inf]{pole}")
            raise InputError(f"player {i}: action box [{lower[i]}, {upper[i]}] "
                             f"not contained in cost domain [{ev.x_lo[i]}, inf]")

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Componentwise projection onto the action box."""
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def require_feasible(self, x: np.ndarray) -> np.ndarray:
        """The profile (batched) clipped into the box; InputError if it lies outside by > FEASIBILITY_TOL or is NaN."""
        x = _profiles(self, x)
        excess = np.maximum(self.lower - x, x - self.upper)
        worst = np.max(excess, initial=-np.inf)
        if not worst <= FEASIBILITY_TOL:
            at = np.unravel_index(np.argmax(excess), x.shape)
            i = at[-1]
            raise InputError(f"infeasible profile: x[{i}]={x[at]} outside [{self.lower[i]}, {self.upper[i]}]")
        return x if worst <= 0.0 else self.project(x)  # clip only what lies outside


def _profiles(game: Game, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != game.n:
        raise InputError(f"profile must have shape ({game.n},) or (S, {game.n}), got {x.shape}")
    return x


def _require_upper_triangular(game: Game) -> None:
    if np.any(np.tril(game.w, k=-1) != 0.0):
        raise InputError("W must be upper-triangular (w_ij = 0 for i > j)")


def gains(game: Game, x: np.ndarray) -> np.ndarray:
    """Gain vector k = W x (batched)."""
    return _profiles(game, x) @ game.w.T


def gain_bounds(game: Game) -> GainBounds:
    """Tight componentwise bounds on the gains k = W x over the box (read-only).

    Positive weights contribute their source's bound of matching direction,
    negative weights the opposite one.  Computed once, when the game is built.
    """
    return game._gain_bounds


def _compute_gain_bounds(w: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> GainBounds:
    pos = np.maximum(w, 0.0)
    neg = np.minimum(w, 0.0)
    k_lo = pos @ lower + neg @ upper
    k_hi = pos @ upper + neg @ lower
    return GainBounds(k_lo=k_lo, k_hi=k_hi)


def utility_profile(game: Game, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-player utilities u_i = f_i(k_i) - c_i(x_i) and their sum, social welfare (batched)."""
    u = _utilities(game, game.require_feasible(x))[1]
    sw = np.sum(u, axis=-1)
    return u, float(sw) if u.ndim == 1 else sw


def _utilities(game: Game, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # x: as for _pseudo_gradient; its gains k = Wx and its utilities f(k) - c(x)
    k = x @ game.w.T
    return k, game.evaluator.value(k) - game.evaluator.cost(x)


def _pseudo_gradient(game: Game, x: np.ndarray) -> np.ndarray:
    # x: a float array of profiles already inside the box, so nothing is validated
    return game.evaluator.value_d1(x @ game.w.T) - game.evaluator.cost_d1(x)


def _sw_gradient(game: Game, x: np.ndarray) -> np.ndarray:
    # x: as for _pseudo_gradient
    return game.evaluator.value_d1(x @ game.w.T) @ game.w - game.evaluator.cost_d1(x)


def pseudo_gradient(game: Game, x: np.ndarray) -> np.ndarray:
    """Own-action utility derivatives (f_i'(k_i) - c_i'(x_i))_i (unit diagonal; batched)."""
    return _pseudo_gradient(game, game.require_feasible(x))


def sw_gradient(game: Game, x: np.ndarray) -> np.ndarray:
    """Gradient of social welfare: component j is sum_i f_i'(k_i) w_ij - c_j'(x_j) (batched)."""
    return _sw_gradient(game, game.require_feasible(x))


def _weights(game: Game, v, name: str) -> np.ndarray:
    """v as floats, or InputError unless it is a strictly positive, finite n-vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (game.n,) or not np.all((v > 0) & (v < np.inf)):
        raise InputError(f"{name} must be a strictly positive n-vector of finite entries")
    return v


def _default_gamma(game: Game, gamma) -> np.ndarray:
    """The player weights gamma, checked as ``_weights`` does; ones when None."""
    return np.ones(game.n) if gamma is None else _weights(game, gamma, "gamma")


def weighted_welfare_gradient(game: Game, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the gamma-weighted welfare (batched)."""
    gamma = _weights(game, gamma, "gamma")
    x = game.require_feasible(x)
    fp = gamma * game.evaluator.value_d1(gains(game, x))
    return fp @ game.w - gamma * game.evaluator.cost_d1(x)


def externality(game: Game, i: int, x: np.ndarray) -> float:
    """Gain player i receives from everyone else: sum_{j != i} w_ij x_j."""
    x = np.asarray(x, dtype=float)
    return float(game.w[i] @ x - game.w[i, i] * x[i])


def _best_responses(ev: Evaluator, d: np.ndarray, lo, hi) -> np.ndarray:
    """Smallest maximizers of f(t + d) - c(t) over [lo, hi].

    The own-utility derivative g(t) = f'(t + d) - c'(t) is non-increasing
    (concave value, convex cost), so the smallest maximizer, which also breaks
    ties across a flat optimum, is the left edge of {g <= 0}.  The slopes at the
    edges settle some entries on the whole array; the rest are gathered with
    their players' parameters (ev's players lie on the last axis of d, or ev has
    one column), take the root of g in closed form (``Evaluator.slope_root``),
    clipped into [lo, hi], and are scattered back.
    """
    lo, hi = np.broadcast_to(lo, d.shape), np.broadcast_to(hi, d.shape)
    at_lo = ev.value_d1(lo + d) - ev.cost_d1(lo) <= 0.0
    at_hi = ev.value_d1(hi + d) - ev.cost_d1(hi) > 0.0
    out = np.where(at_lo, lo, hi)
    undecided = np.nonzero(~(at_lo | at_hi))
    ev = ev if ev.cols.shape[1] == 1 else Evaluator(ev.cols[:, undecided[-1]])
    out[undecided] = np.clip(ev.slope_root(d[undecided]), lo[undecided], hi[undecided])
    return out


def best_response(game: Game, i: int, x: np.ndarray) -> float:
    """Smallest maximizer of f_i(t + d_i) - c_i(t) over [lower_i, upper_i]."""
    d, lo, hi = np.array([externality(game, i, x)]), game.lower[i:i + 1], game.upper[i:i + 1]
    return float(_best_responses(game.evaluator.column(i), d, lo, hi)[0])


def br_gap(game: Game, x: np.ndarray) -> tuple[float, int]:
    """Largest unilateral improvement any player can make at x, and who attains it.

    For an (S, n) batch both come back as length-S arrays, one entry per row.
    """
    x = game.require_feasible(x)
    gap, worst = _br_gap(game, x, *_utilities(game, x))
    return (float(gap), int(worst)) if x.ndim == 1 else (gap, worst)


def _br_gap(game: Game, x: np.ndarray, k: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # x: as for _pseudo_gradient, k and u its gains and utilities (_utilities); a deviation's gain is
    # its utility less u
    ev, d = game.evaluator, k - np.diag(game.w) * x
    br = _best_responses(ev, d, game.lower, game.upper)
    gaps = (ev.value(br + d) - ev.cost(br)) - u
    return np.maximum(np.max(gaps, axis=-1), 0.0), np.argmax(gaps, axis=-1)
