"""Per-spec closed forms of the scalar families, the reference of the evaluator's bit-pinning tests.

``value``, ``d1`` and ``d2`` evaluate one spec on a float array, one family at
a time, in the plain closed form of that family alone: no fused sum of terms,
no fold.  An AffineReparam applies the exact chain rule level by level,
g'(y) = inner'(t)/scale and g''(y) = inner''(t)/scale^2 with
t = (y - shift)/scale.  ``game.Evaluator`` must give the same bits for a spec
without reparameterization, and agree to rounding for a nested one.  At a
clipped quadratic's peak the derivatives are the curved side's.  ``kinks``
lists where a spec's second derivative jumps.
"""

import numpy as np

from netgoods.functions import AffineReparam, LinearCost, LogValue, QuadraticClippedValue, QuadraticCost


def clip_point(f: QuadraticClippedValue) -> float:
    """The peak a/(2b) of a clipped quadratic value."""
    return f.a / (2.0 * f.b)


#: base family -> its (value, d1, d2) on a float array
FORMS = {
    QuadraticClippedValue: (
        lambda f, k: np.where(k <= clip_point(f), f.a * k - f.b * k * k, f.a**2 / (4.0 * f.b)),
        lambda f, k: np.where(k <= clip_point(f), f.a - 2.0 * f.b * k, 0.0),
        lambda f, k: np.where(k <= clip_point(f), -2.0 * f.b, 0.0),
    ),
    QuadraticCost: (
        lambda c, x: 0.5 * c.c0 * x * x,
        lambda c, x: c.c0 * x,
        lambda c, x: np.full_like(x, c.c0),
    ),
    LinearCost: (
        lambda c, x: c.c1 * x,
        lambda c, x: np.full_like(x, c.c1),
        lambda c, x: np.zeros_like(x),
    ),
    LogValue: (
        lambda f, k: f.a * np.log(f.s + k),
        lambda f, k: f.a / (f.s + k),
        lambda f, k: -f.a / (f.s + k) ** 2,
    ),
}


def _derivative(order, spec, y):
    if isinstance(spec, AffineReparam):
        return _derivative(order, spec.inner, (y - spec.shift) / spec.scale) / spec.scale**order
    return FORMS[type(spec)][order](spec, y)


def value(spec, k):
    return _derivative(0, spec, np.asarray(k, dtype=float))


def d1(spec, k):
    return _derivative(1, spec, np.asarray(k, dtype=float))


def d2(spec, k):
    return _derivative(2, spec, np.asarray(k, dtype=float))


def kinks(spec) -> tuple[float, ...]:
    """Points where the second derivative jumps: a clipped quadratic's peak, carried out of each reparam."""
    if isinstance(spec, AffineReparam):
        return tuple(k * spec.scale + spec.shift for k in kinks(spec.inner))
    return (clip_point(spec),) if isinstance(spec, QuadraticClippedValue) else ()
