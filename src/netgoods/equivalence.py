"""Affine game equivalence: transforms preserving utilities and transporting NEs.

A positive scaling vector d and offset vector b reparameterize a game as
W' = D W D^{-1} with affinely mapped boxes; value/cost specs are wrapped in
the matching affine change of variable, so u'_i at the mapped profile equals
u_i at the original one and NEs map one-to-one in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .functions import QuadraticClippedValue, QuadraticCost, _reparam
from .game import Game, _require_upper_triangular
from .gamefile import _number_list

#: transformed box bounds beyond this magnitude are rejected (cancellation risk)
MAX_MAPPED_BOUND = 1e12


@dataclass(frozen=True)
class EquivalenceMap:
    """Scaling d > 0 and offset b; the induced gain shifts m are derived.

    m is always recomputed from the source game's interaction matrix,
    never stored or user-supplied, so the map cannot drift out of sync.
    """

    d: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        b = np.array(self.b, dtype=float)
        if d.ndim != 1 or b.shape != d.shape:
            raise InputError("d and b must be equal-length vectors")
        if np.any(d <= 0) or not np.all(np.isfinite(d)) or not np.all(np.isfinite(b)):
            raise InputError("need finite d > 0 and finite b")
        d.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.d.size

    def shifts(self, game: Game) -> np.ndarray:
        """Gain shifts m_i = d_i * sum_j w_ij b_j / d_j, from the source game."""
        if game.n != self.n:
            raise InputError(f"map is for {self.n} players, game has {game.n}")
        return self.d * (game.w @ (self.b / self.d))

    def inverse(self) -> "EquivalenceMap":
        """The map sending the transformed game back to the source."""
        return EquivalenceMap(d=1.0 / self.d, b=-self.b / self.d)

    def to_dict(self) -> dict:
        return {"d": [float(v) for v in self.d], "b": [float(v) for v in self.b]}

    @staticmethod
    def from_dict(doc: dict, where: str = "map") -> "EquivalenceMap":
        """Parse {"d": [...], "b": [...]}; the numbers follow the game-file rules, errors name their field."""
        if not isinstance(doc, dict):
            raise InputError(f"{where}: expected an object, got {type(doc).__name__}")
        for key in ("d", "b"):
            if key not in doc:
                raise InputError(f"{where}: missing required field '{key}'")
        d, b = (_number_list(doc[key], None, f"{where}.{key}") for key in ("d", "b"))
        try:
            return EquivalenceMap(d=d, b=b)
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from exc


def transform_game(game: Game, emap: EquivalenceMap) -> Game:
    """Build the equivalent game under (d, b).

    W' = D W D^{-1} keeps the unit diagonal exactly; boxes map affinely; the
    cost of player i becomes c_i((y - b_i)/d_i) and the value f_i((k - m_i)/d_i).
    """
    if game.n != emap.n:
        raise InputError(f"map is for {emap.n} players, game has {game.n}")
    d, b = emap.d, emap.b
    m = emap.shifts(game)
    w2 = (d[:, None] * game.w) / d[None, :]
    np.fill_diagonal(w2, 1.0)
    with np.errstate(over="ignore"):  # a bound that overflows is inf, which the check below rejects
        lower2, upper2 = d * game.lower + b, d * game.upper + b
    if np.max(np.abs(np.concatenate([lower2, upper2]))) > MAX_MAPPED_BOUND:
        raise InputError(f"mapped bounds exceed {MAX_MAPPED_BOUND:g}; map rejected")
    values2 = tuple(_reparam(game.values[i], d[i], m[i]) for i in range(game.n))
    costs2 = tuple(_reparam(game.costs[i], d[i], b[i]) for i in range(game.n))
    return Game(w=w2, lower=lower2, upper=upper2, values=values2, costs=costs2)


def map_profile(emap: EquivalenceMap, x: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Map a profile x across the equivalence: forward y = d*x + b, inverse x = (y-b)/d."""
    x = np.asarray(x, dtype=float)
    if x.shape != (emap.n,):
        raise InputError(f"profile must have shape ({emap.n},), got {x.shape}")
    if direction == "forward":
        return emap.d * x + emap.b
    if direction == "inverse":
        return (x - emap.b) / emap.d
    raise InputError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _homogeneous_quadratic_params(game: Game) -> tuple[float, float]:
    """(b, c0) when every player has the same clipped-quadratic value and quadratic cost."""
    v0, c0 = game.values[0], game.costs[0]
    if not isinstance(v0, QuadraticClippedValue) or not isinstance(c0, QuadraticCost):
        raise InputError(
            "auto epsilon needs homogeneous clipped-quadratic values and quadratic costs"
        )
    if any(v != v0 for v in game.values) or any(c != c0 for c in game.costs):
        raise InputError("auto epsilon needs identical players")
    return v0.b, c0.c0


def auto_epsilon(game: Game) -> float:
    """90% of the contraction bound b/(n(b+c0)) for the homogeneous quadratic family."""
    b, c0 = _homogeneous_quadratic_params(game)
    return 0.9 * b / (game.n * (b + c0))


def upper_triangular_normalizer(game: Game, eps: float | str = "auto") -> EquivalenceMap:
    """Scaling map d_i = eps^-i shrinking an upper-triangular W's couplings to <= eps.

    Requires w_ij = 0 below the diagonal and |w_ij| <= 1 above it; the
    transformed couplings become eps^(j-i) * w_ij.  In auto mode, eps is
    derived from the homogeneous quadratic family's contraction bound.
    """
    _require_upper_triangular(game)
    if np.any(np.abs(game.w[np.triu_indices(game.n, k=1)]) > 1.0 + 1e-12):
        raise InputError("need |w_ij| <= 1 above the diagonal")
    if eps == "auto":
        eps = auto_epsilon(game)
    eps = float(eps)
    if not 0 < eps < 1:
        raise InputError(f"need 0 < eps < 1, got {eps}")
    d = eps ** -(1.0 + np.arange(game.n))
    return EquivalenceMap(d=d, b=np.zeros(game.n))
