"""Scalar value and cost families as immutable parameter records.

Value families are concave and non-decreasing; cost families are convex and
non-decreasing.  A family is its parameters, its kind, its domain and its
serialization: every parameter must be finite, and a constructor raises
InputError on inf, NaN or a value out of range.  The closed forms themselves
live in one place, the array evaluator ``game.Evaluator``, which reads each
base family's parameters through its row in the family table below;
``game.evaluate`` evaluates one spec at a point through it.  The same table
serializes every family, as {"family": tag, "params": {...}} with the
parameters named by the family's dataclass fields, in field order; every
parse error, a constructor's range error included, names its field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InputError


class ScalarFunction:
    """Base class for the closed family of scalar functions."""

    kind: str  # "value" or "cost"

    def domain(self) -> tuple[float, float]:
        raise NotImplementedError


def _positive(v) -> bool:
    """A finite parameter > 0; False for NaN."""
    return 0 < v < math.inf


@dataclass(frozen=True)
class QuadraticClippedValue(ScalarFunction):
    """a*k - b*k^2 up to the peak k = a/(2b), constant a^2/(4b) beyond.

    C1 but not C2 at the peak, where f'' is read on the curved side (-2b),
    which keeps f'' defined everywhere.
    """

    a: float
    b: float
    kind = "value"

    def __post_init__(self):
        if not (_positive(self.a) and _positive(self.b)):
            raise InputError(f"QuadraticClippedValue needs finite a>0, b>0, got a={self.a}, b={self.b}")

    def domain(self):
        return (-math.inf, math.inf)


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


@dataclass(frozen=True)
class AffineReparam(ScalarFunction):
    """inner((y - shift) / scale): the affine change of variable used by game equivalence."""

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

    def domain(self):
        ilo, ihi = self.inner.domain()
        lo = -math.inf if ilo == -math.inf else ilo * self.scale + self.shift
        hi = math.inf if ihi == math.inf else ihi * self.scale + self.shift
        return (lo, hi)


def _reparam(spec: ScalarFunction, scale, shift) -> ScalarFunction:
    """spec((y - shift) / scale), or spec itself when the map is the identity (shift -0.0 included)."""
    if scale == 1.0 and shift == 0.0:
        return spec
    return AffineReparam(inner=spec, scale=float(scale), shift=float(shift))


#: a spec of each kind, to pair with a lone spec of the other kind whose rows alone are read
_PLACEHOLDERS = {"value": QuadraticClippedValue(a=1.0, b=1.0), "cost": LinearCost(c1=1.0)}


# --- the family table ---------------------------------------------------------
#
# A base family's evaluator row holds its parameters in game.Evaluator's sum form:
# a value's (a, b, 2b, clip, peak, log, mu, s), where the other value family's
# term adds -0.0, which leaves any sum's bits alone (+0.0 only to a/(t+s) > 0);
# a cost's (q, l).  AffineReparam has no row: the evaluator folds its chain onto
# the base family's.

#: tag -> (family, its parameter names in field order, its evaluator row or None); a parameter
#: named "inner" is a nested spec
_FAMILIES = {
    tag: (cls, tuple(f.name for f in fields(cls)), row)
    for tag, cls, row in (
        ("quadratic_clipped_value", QuadraticClippedValue,
         lambda f: (f.a, f.b, 2.0 * f.b, f.a / (2.0 * f.b), f.a * f.a / (4.0 * f.b), -0.0, 0.0, 1.0)),
        ("quadratic_cost", QuadraticCost, lambda c: (c.c0, 0.0)),
        ("linear_cost", LinearCost, lambda c: (0.0, c.c1)),
        ("log_value", LogValue, lambda f: (0.0, 0.0, 0.0, -math.inf, -0.0, f.a, 1.0, f.s)),
        ("affine_reparam", AffineReparam, None),
    )
}
_TAGS = {cls: tag for tag, (cls, _, _) in _FAMILIES.items()}
#: base family -> its evaluator row, looked up by exact type like a tag
_ROWS = {cls: row for cls, _, row in _FAMILIES.values() if row is not None}


# --- serialization -----------------------------------------------------------

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
    cls, names, _ = entry
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
    try:
        return float(v)
    except OverflowError:
        raise InputError(f"{where}.params.{name}: integer too large for a float") from None
