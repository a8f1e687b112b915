"""Scalar value and cost families with exact derivatives.

Every family is a closed-form, immutable spec exposing zeroth/first/second
derivative oracles, its domain, the points where its second derivative jumps
(``kinks``) and JSON serialization.  Value families are concave and
non-decreasing; cost families are convex and non-decreasing.  Every parameter
must be finite: a constructor raises InputError on inf or NaN.  All evaluation
methods accept scalars or numpy arrays: ``ScalarFunction`` converts the input
to a float array and a 0-d result to a float, and each family writes only its
closed forms ``_value``/``_d1``/``_d2`` on arrays.  One tag table serializes
every family, as {"family": tag, "params": {...}} with the parameters named
by the family's dataclass fields, in field order; every parse error, a
constructor's range error included, names its field.  This is the one-player
API; the curvature and Lipschitz constants the certificates need are computed
for all players at once by ``game.Evaluator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InputError


def _scalar_or_array(out):
    return out if out.ndim else float(out)


class ScalarFunction:
    """Base class for the closed family of scalar functions."""

    kind: str  # "value" or "cost"

    def domain(self) -> tuple[float, float]:
        raise NotImplementedError

    def value(self, k):
        return _scalar_or_array(self._value(np.asarray(k, dtype=float)))

    def d1(self, k):
        return _scalar_or_array(self._d1(np.asarray(k, dtype=float)))

    def d2(self, k):
        return _scalar_or_array(self._d2(np.asarray(k, dtype=float)))

    def kinks(self) -> tuple[float, ...]:
        """Points where the second derivative jumps."""
        return ()


def _positive(v) -> bool:
    """A finite parameter > 0; False for NaN."""
    return 0 < v < math.inf


@dataclass(frozen=True)
class QuadraticClippedValue(ScalarFunction):
    """a*k - b*k^2 up to the peak k = a/(2b), constant a^2/(4b) beyond.

    C1 but not C2 at the peak; derivative oracles at the kink report the
    unclipped-side values (d2 = -2b), which keeps f'' defined everywhere.
    """

    a: float
    b: float
    kind = "value"

    def __post_init__(self):
        if not (_positive(self.a) and _positive(self.b)):
            raise InputError(f"QuadraticClippedValue needs finite a>0, b>0, got a={self.a}, b={self.b}")

    @property
    def clip_point(self) -> float:
        return self.a / (2.0 * self.b)

    def domain(self):
        return (-math.inf, math.inf)

    def _value(self, k):
        return np.where(k <= self.clip_point, self.a * k - self.b * k * k, self.a**2 / (4.0 * self.b))

    def _d1(self, k):
        return np.where(k <= self.clip_point, self.a - 2.0 * self.b * k, 0.0)

    def _d2(self, k):
        return np.where(k <= self.clip_point, -2.0 * self.b, 0.0)

    def kinks(self):
        return (self.clip_point,)


@dataclass(frozen=True)
class QuadraticCost(ScalarFunction):
    """(c0/2) * x^2 on x >= 0."""

    c0: float
    kind = "cost"

    def __post_init__(self):
        if not _positive(self.c0):
            raise InputError(f"QuadraticCost needs finite c0>0, got {self.c0}")

    def domain(self):
        return (0.0, math.inf)

    def _value(self, x):
        return 0.5 * self.c0 * x * x

    def _d1(self, x):
        return self.c0 * x

    def _d2(self, x):
        return np.full_like(x, self.c0)


@dataclass(frozen=True)
class LinearCost(ScalarFunction):
    """c1 * x."""

    c1: float
    kind = "cost"

    def __post_init__(self):
        if not _positive(self.c1):
            raise InputError(f"LinearCost needs finite c1>0, got {self.c1}")

    def domain(self):
        return (-math.inf, math.inf)

    def _value(self, x):
        return self.c1 * x

    def _d1(self, x):
        return np.full_like(x, self.c1)

    def _d2(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class LogValue(ScalarFunction):
    """a * ln(s + k) on k > -s; strictly increasing, strictly concave."""

    a: float
    s: float
    kind = "value"

    def __post_init__(self):
        if not (_positive(self.a) and _positive(self.s)):
            raise InputError(f"LogValue needs finite a>0, s>0, got a={self.a}, s={self.s}")

    def domain(self):
        return (-self.s, math.inf)

    def _value(self, k):
        return self.a * np.log(self.s + k)

    def _d1(self, k):
        return self.a / (self.s + k)

    def _d2(self, k):
        return -self.a / (self.s + k) ** 2


@dataclass(frozen=True)
class AffineReparam(ScalarFunction):
    """inner((y - shift) / scale): the affine change of variable used by game equivalence.

    Exact chain rule: g'(y) = inner'(t)/scale and g''(y) = inner''(t)/scale^2
    with t = (y - shift)/scale.
    """

    inner: ScalarFunction
    scale: float
    shift: float

    def __post_init__(self):
        if not (_positive(self.scale) and -math.inf < self.shift < math.inf):
            raise InputError(f"AffineReparam needs finite scale>0 and shift, "
                             f"got scale={self.scale}, shift={self.shift}")

    @property
    def kind(self):
        return self.inner.kind

    def _pre(self, y):
        return (y - self.shift) / self.scale

    def domain(self):
        ilo, ihi = self.inner.domain()
        lo = -math.inf if ilo == -math.inf else ilo * self.scale + self.shift
        hi = math.inf if ihi == math.inf else ihi * self.scale + self.shift
        return (lo, hi)

    def _value(self, y):
        return self.inner._value(self._pre(y))

    def _d1(self, y):
        return self.inner._d1(self._pre(y)) / self.scale

    def _d2(self, y):
        return self.inner._d2(self._pre(y)) / self.scale**2

    def kinks(self):
        return tuple(k * self.scale + self.shift for k in self.inner.kinks())


def evaluate(spec: ScalarFunction, point: float) -> tuple[float, float, float]:
    """Exact (value, d1, d2) at a point inside the declared domain."""
    dlo, dhi = spec.domain()
    if not (dlo <= point <= dhi):
        raise DomainError(f"point {point} outside domain [{dlo}, {dhi}] of {spec!r}")
    return float(spec.value(point)), float(spec.d1(point)), float(spec.d2(point))


# --- serialization -----------------------------------------------------------

#: tag -> (family, its parameter names in field order); a parameter named "inner" is a nested spec
_FAMILIES = {
    tag: (cls, tuple(f.name for f in fields(cls)))
    for tag, cls in (
        ("quadratic_clipped_value", QuadraticClippedValue),
        ("quadratic_cost", QuadraticCost),
        ("linear_cost", LinearCost),
        ("log_value", LogValue),
        ("affine_reparam", AffineReparam),
    )
}
_TAGS = {cls: tag for tag, (cls, _) in _FAMILIES.items()}


def spec_to_dict(spec: ScalarFunction) -> dict:
    """Serialize a spec as {"family": tag, "params": {...}}, every number as a float.

    A parse gives floats, so a spec built with int parameters re-saves to the same bytes.
    """
    tag = _TAGS.get(type(spec))
    if tag is None:
        raise InputError(f"unknown function family {type(spec).__name__}")
    params = {name: spec_to_dict(getattr(spec, name)) if name == "inner" else float(getattr(spec, name))
              for name in _FAMILIES[tag][1]}
    return {"family": tag, "params": params}


def spec_from_dict(doc: dict, where: str = "spec") -> ScalarFunction:
    """Parse a serialized spec; errors name the offending field."""
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in ("family", "params"):
        if key not in doc:
            raise InputError(f"{where}: missing required field '{key}'")
    family, params = doc["family"], doc["params"]
    if not isinstance(params, dict):
        raise InputError(f"{where}.params: expected an object")
    entry = _FAMILIES.get(family) if isinstance(family, str) else None
    if entry is None:
        raise InputError(f"{where}.family: unknown family '{family}'")
    cls, names = entry
    args = [_param(params, name, family, where) for name in names]
    try:
        return cls(*args)
    except InputError as exc:  # a range error: give it the field path the parse errors carry
        raise InputError(f"{where}: {exc}") from exc


def _param(params: dict, name: str, family: str, where: str):
    if name == "inner":
        if name not in params:
            raise InputError(f"{where}.params: missing 'inner'")
        return spec_from_dict(params[name], where=f"{where}.params.inner")
    if name not in params:
        raise InputError(f"{where}.params: missing '{name}' for family '{family}'")
    v = params[name]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise InputError(f"{where}.params.{name}: expected a number, got {v!r}")
    return float(v)
