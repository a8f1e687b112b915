import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netgoods.errors import DomainError, InputError
from netgoods.functions import (
    AffineReparam,
    LinearCost,
    LogValue,
    QuadraticClippedValue,
    QuadraticCost,
    ScalarFunction,
    _FAMILIES,
    _reparam,
    spec_from_dict,
    spec_to_dict,
)
from netgoods.game import Evaluator, Game, br_gap, evaluate, pseudo_gradient, utility_profile

ALL_SPECS = [
    QuadraticClippedValue(a=3.0, b=1.0),
    QuadraticClippedValue(a=5.0, b=0.25),
    QuadraticCost(c0=1.0),
    QuadraticCost(c0=2.5),
    LinearCost(c1=2.0),
    LogValue(a=1.0, s=1.0),
    LogValue(a=2.0, s=0.5),
    AffineReparam(QuadraticClippedValue(a=3.0, b=1.0), scale=2.0, shift=0.5),
    AffineReparam(QuadraticCost(c0=1.5), scale=0.5, shift=0.0),
    AffineReparam(LogValue(a=1.0, s=1.0), scale=3.0, shift=-1.0),
]


def sample_interval(spec, width=3.0):
    """A finite probe interval inside the spec's domain."""
    dlo, dhi = spec.domain()
    lo = dlo + 0.1 if np.isfinite(dlo) else -width / 2
    hi = lo + width
    return lo, hi


def curve(spec, points):
    """(value, d1, d2) arrays of ``evaluate`` at each point."""
    return np.array([evaluate(spec, float(k)) for k in points]).T


def kinks(spec):
    """Where f'' jumps, in the spec's own coordinates: its peak, or none for a log value or a cost."""
    if spec.kind != "value":
        return ()
    kink = float(Evaluator.of_one(spec).value_kink()[0])
    return (kink,) if np.isfinite(kink) else ()


def test_eval_clipped_examples():
    f = QuadraticClippedValue(a=3.0, b=1.0)
    assert evaluate(f, 1.0) == (2.0, 1.0, -2.0)
    assert evaluate(f, 2.0) == (2.25, 0.0, 0.0)
    # kink takes the unclipped-side derivatives
    assert evaluate(f, 1.5) == (2.25, 0.0, -2.0)


def test_eval_quadratic_cost_example():
    c = QuadraticCost(c0=1.0)
    assert evaluate(c, 1.0) == (0.5, 1.0, 1.0)


def test_eval_outside_domain_errors():
    with pytest.raises(DomainError):
        evaluate(QuadraticCost(c0=1.0), -0.5)
    with pytest.raises(DomainError):
        evaluate(LogValue(a=1.0, s=1.0), -1.5)
    assert evaluate(QuadraticCost(c0=1.0), 0.0) == (0.0, 0.0, 1.0)  # a cost's finite end is closed


@pytest.mark.parametrize("spec", [
    LogValue(a=1.0, s=1.0),
    AffineReparam(LogValue(a=1.0, s=1.0), scale=3.0, shift=-1.0),
    AffineReparam(AffineReparam(LogValue(a=2.0, s=0.5), scale=2.0, shift=0.25), scale=0.5, shift=-1.0),
], ids=["log", "nested once", "nested twice"])
def test_eval_refuses_a_log_pole(spec):
    # the lower end of a log value's domain is its pole: open, as in a Game
    pole = spec.domain()[0]
    with pytest.raises(DomainError, match=r"outside domain \("):
        evaluate(spec, pole)
    value, d1, d2 = evaluate(spec, float(np.nextafter(pole, np.inf)))  # a RuntimeWarning fails here
    assert math.isfinite(value) and 0.0 < d1 < math.inf and -math.inf < d2 < 0.0


def test_parameter_validation():
    with pytest.raises(InputError):
        QuadraticClippedValue(a=-1.0, b=1.0)
    with pytest.raises(InputError):
        QuadraticCost(c0=0.0)
    with pytest.raises(InputError):
        AffineReparam(LinearCost(c1=1.0), scale=-2.0, shift=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("build", [
    lambda v: QuadraticClippedValue(a=v, b=1.0),
    lambda v: QuadraticClippedValue(a=3.0, b=v),
    lambda v: QuadraticCost(c0=v),
    lambda v: LinearCost(c1=v),
    lambda v: LogValue(a=v, s=1.0),
    lambda v: LogValue(a=1.0, s=v),
    lambda v: AffineReparam(LinearCost(c1=1.0), scale=v, shift=0.0),
    lambda v: AffineReparam(LinearCost(c1=1.0), scale=1.0, shift=v),
], ids=["clipped.a", "clipped.b", "quadratic.c0", "linear.c1", "log.a", "log.s", "affine.scale",
        "affine.shift"])
def test_non_finite_parameters_are_input_errors(build, bad):
    with pytest.raises(InputError, match="finite"):
        build(bad)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: repr(s))
def test_derivatives_match_finite_differences(spec):
    # central differences with step 1e-6 as the independent derivative oracle
    rng = np.random.default_rng(101)
    lo, hi = sample_interval(spec)
    h = 1e-6
    points = rng.uniform(lo + 2 * h, hi - 2 * h, size=100)
    for k in points:
        if any(abs(k - q) < 1e-3 for q in kinks(spec)):
            continue
        (v_plus, d1_plus, _), (v_minus, d1_minus, _) = evaluate(spec, k + h), evaluate(spec, k - h)
        fd1 = (v_plus - v_minus) / (2 * h)
        fd2 = (d1_plus - d1_minus) / (2 * h)
        _, d1, d2 = evaluate(spec, k)
        assert fd1 == pytest.approx(d1, rel=1e-5, abs=1e-5)
        assert fd2 == pytest.approx(d2, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: repr(s))
def test_curvature_sign_matches_kind(spec):
    lo, hi = sample_interval(spec)
    grid = np.linspace(lo, hi, 500)
    _, d1, d2 = curve(spec, grid)
    assert np.all(d1 >= -1e-12)
    if spec.kind == "value":
        assert np.all(d2 <= 1e-12)
    else:
        assert np.all(d2 >= -1e-12)


PARTNER_COST = QuadraticCost(c0=1.0)


def constants(spec, lo, hi):
    """(modulus, Lipschitz constant of d1, of d2) over [lo, hi], as the evaluator gives them."""
    ev = Evaluator.of_one(spec)
    if spec.kind == "cost":  # c'' is the constant dq: it is both the modulus and L1, and L2 = 0
        return float(ev.dq[0]), float(ev.dq[0]), 0.0
    return (float(ev.value_modulus(lo, hi)[0]), float(ev.value_lipschitz_d1(lo, hi)[0]),
            float(ev.value_lipschitz_d2(lo, hi)[0]))


def closeness(f_i, f, gamma, lo, hi):
    """sup |gamma f_i'' - f''| over [lo, hi], as the evaluator gives it."""
    return float(Evaluator.of_one(f_i).closeness(Evaluator.of_one(f), np.array([gamma]), lo, hi)[0])


def test_smoothness_clipped_on_unclipped_interval():
    f = QuadraticClippedValue(a=3.0, b=1.0)
    assert constants(f, 0.0, 1.5) == (2.0, 2.0, 0.0)
    assert Evaluator.of_one(f).value_modulus_increasing(0.0, 1.5)[0] == 2.0


def test_smoothness_clipped_crossing_interval():
    # flat branch contributes zero curvature; verified by a dense d2 scan
    f = QuadraticClippedValue(a=3.0, b=1.0)
    assert constants(f, 0.0, 2.0) == (0.0, 2.0, math.inf)  # no finite L2: d2 jumps at 1.5
    assert constants(f, 1.5, 2.0)[2] == math.inf  # d2 at the peak itself is the curved side's
    assert Evaluator.of_one(f).value_modulus_increasing(0.0, 2.0)[0] == 2.0  # f' > 0 on [0, 1.5)
    grid = np.linspace(0.0, 2.0, 10_000)
    assert float(np.min(np.abs(curve(f, grid)[2]))) == 0.0


def test_smoothness_linear_cost():
    assert constants(LinearCost(c1=2.0), 0.0, 1.0) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: repr(s))
def test_smoothness_constants_are_valid_certificates(spec):
    rng = np.random.default_rng(202)
    lo, hi = sample_interval(spec)
    modulus, lipschitz_d1, lipschitz_d2 = constants(spec, lo, hi)
    assert modulus >= 0 and lipschitz_d1 >= 0
    k1 = rng.uniform(lo, hi, size=1000)
    k2 = rng.uniform(lo, hi, size=1000)
    (v1, d1_1, d2_1), (v2, d1_2, d2_2) = curve(spec, k1), curve(spec, k2)
    assert np.all(np.abs(d1_1 - d1_2) <= lipschitz_d1 * np.abs(k1 - k2) + 1e-12)
    # strong concavity/convexity inequality at the reported modulus
    sign = -1.0 if spec.kind == "value" else 1.0
    # value: f(k2) <= f(k1) + f'(k1)(k2-k1) - (c/2)(k2-k1)^2 ; cost: flipped
    lhs = sign * (v2 - v1 - d1_1 * (k2 - k1))
    assert np.all(lhs >= 0.5 * modulus * (k2 - k1) ** 2 - 1e-12)
    if math.isfinite(lipschitz_d2):
        assert np.all(np.abs(d2_1 - d2_2) <= lipschitz_d2 * np.abs(k1 - k2) + 1e-12)


def test_affine_reparam_chain_rule_exact():
    inner = QuadraticClippedValue(a=3.0, b=1.0)
    g = AffineReparam(inner, scale=2.0, shift=0.5)
    for y in np.linspace(-1.0, 4.0, 37):
        t = (y - 0.5) / 2.0
        (value, d1, d2), (inner_value, inner_d1, inner_d2) = evaluate(g, y), evaluate(inner, t)
        assert value == pytest.approx(inner_value, abs=1e-15)
        assert d1 == pytest.approx(inner_d1 / 2.0, abs=1e-15)
        assert d2 == pytest.approx(inner_d2 / 4.0, abs=1e-15)


def test_reparam_keeps_the_spec_under_the_identity():
    spec = LogValue(a=1.0, s=1.0)
    assert _reparam(spec, 1.0, 0.0) is spec
    assert _reparam(spec, 1.0, -0.0) is spec
    assert _reparam(spec, np.float64(2.0), np.float64(0.5)) == AffineReparam(spec, scale=2.0, shift=0.5)


def test_affine_reparam_smoothness_rescaling():
    inner = LogValue(a=2.0, s=0.5)
    d, m = 3.0, -1.0
    g = AffineReparam(inner, scale=d, shift=m)
    lo, hi = 0.0, 5.0
    rep_g = constants(g, lo, hi)
    rep_i = constants(inner, (lo - m) / d, (hi - m) / d)
    assert rep_g == pytest.approx((rep_i[0] / d**2, rep_i[1] / d**2, rep_i[2] / d**3), rel=1e-14)


@pytest.mark.parametrize(
    "spec",
    [QuadraticClippedValue(a=3.0, b=1.0), LogValue(a=1.0, s=1.0), QuadraticCost(c0=2.0)],
    ids=lambda s: type(s).__name__,
)
def test_affine_reparam_roundtrip_identity(spec):
    rng = np.random.default_rng(7)
    d, m = 2.5, 0.75
    once = AffineReparam(spec, scale=d, shift=m)
    back = AffineReparam(once, scale=1.0 / d, shift=-m / d)
    dlo, dhi = spec.domain()
    lo = dlo + 0.2 if np.isfinite(dlo) else -2.0
    pts = rng.uniform(lo, lo + 3.0, size=100)
    (back_value, back_d1, _), (value, d1, _) = curve(back, pts), curve(spec, pts)
    assert np.allclose(back_value, value, atol=1e-12)
    assert np.allclose(back_d1, d1, atol=1e-12)


def test_closeness_identical_specs_zero():
    f = QuadraticClippedValue(a=3.0, b=1.0)
    assert closeness(f, f, 1.0, 0.0, 1.4) == 0.0
    g = LogValue(a=1.0, s=1.0)
    assert closeness(g, g, 1.0, 0.0, 2.0) == 0.0


def test_closeness_scaled_quadratic_analytic():
    # h(k) = 2 f'(k) - f'(k) = 3 - 2k on the unclipped branch: slope -2
    f = QuadraticClippedValue(a=3.0, b=1.0)
    assert closeness(f, f, 2.0, 0.0, 1.5) == 2.0
    # beyond the clip both derivatives vanish; the max piece slope still rules
    assert closeness(f, f, 2.0, 0.0, 2.5) == 2.0


def test_closeness_two_different_quadratics():
    f_i = QuadraticClippedValue(a=3.0, b=1.0)
    f = QuadraticClippedValue(a=4.0, b=0.5)
    # h'(k) = gamma*(-2) - (-1) on the jointly unclipped branch
    assert closeness(f_i, f, 1.0, 0.0, 1.4) == pytest.approx(1.0)
    assert closeness(f_i, f, 0.5, 0.0, 1.4) == pytest.approx(0.0)
    # past f_i's peak at 1.5 only f curves, |0 - (-1)| = 1; past f's peak at 4 neither does
    assert closeness(f_i, f, 3.0, 2.0, 5.0) == 1.0
    assert closeness(f_i, f, 3.0, 4.5, 5.0) == 0.0
    # from f_i's peak on, f_i is flat: the curved-side value at the peak is no piece of its own
    assert closeness(f_i, f, 3.0, 1.5, 3.0) == 1.0


def test_closeness_log_pair_exact():
    # h'(k) = 2*(-2/(1+k)^2) + 1/(2+k)^2 is largest in modulus at k = 0: |-4 + 1/4|
    f_i = LogValue(a=2.0, s=1.0)
    f = LogValue(a=1.0, s=2.0)
    lo, hi = 0.0, 2.0
    grid = np.linspace(lo, hi, 200_001)
    hprime = 2.0 * Evaluator.of_one(f_i).value_d2(grid) - Evaluator.of_one(f).value_d2(grid)
    assert closeness(f_i, f, 2.0, lo, hi) == 3.75 == float(np.max(np.abs(hprime)))


def test_closeness_interior_stationary_point():
    # h'(k) = -1/(1+k)^2 + 8/(2+k)^2 peaks at the zero k = 0 of h'' (2+k = 2(1+k)), h'(0) = 1,
    # above both ends: |h'(-0.5)| = 4/9 and h'(5) = 8/49 - 1/36
    f_i, f = LogValue(a=1.0, s=1.0), LogValue(a=8.0, s=2.0)
    grid = np.linspace(-0.5, 5.0, 400_001)
    hprime = Evaluator.of_one(f_i).value_d2(grid) - Evaluator.of_one(f).value_d2(grid)
    assert closeness(f_i, f, 1.0, -0.5, 5.0) == 1.0
    assert 1.0 - 1e-9 < float(np.max(np.abs(hprime))) <= 1.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: repr(s))
def test_serialization_roundtrip(spec):
    doc = spec_to_dict(spec)
    back = spec_from_dict(doc)
    assert back == spec


def test_deserialization_errors_name_the_field():
    with pytest.raises(InputError, match="family"):
        spec_from_dict({"family": "nope", "params": {}})
    with pytest.raises(InputError, match=r"params.*c0"):
        spec_from_dict({"family": "quadratic_cost", "params": {}})
    with pytest.raises(InputError, match="players\\[3\\].value"):
        spec_from_dict({"params": {}}, where="players[3].value")


@pytest.mark.parametrize("doc, message", [
    ([1.0], "spec: expected an object, got list"),
    (None, "spec: expected an object, got NoneType"),
    ({"params": {}}, "spec: missing required field 'family'"),
    ({"family": "log_value"}, "spec: missing required field 'params'"),
    ({"family": "log_value", "params": [1.0, 1.0]}, "spec.params: expected an object"),
    ({"family": 3, "params": {}}, "spec.family: unknown family '3'"),
    ({"family": "affine_reparam", "params": {"scale": 1.0, "shift": 0.0}}, "spec.params: missing 'inner'"),
    ({"family": "affine_reparam", "params": {"inner": 2, "scale": 1.0, "shift": 0.0}},
     "spec.params.inner: expected an object, got int"),
    ({"family": "affine_reparam", "params": {"inner": {"family": "log_value", "params": "a=1"}, "scale": 1.0,
                                             "shift": 0.0}}, "spec.params.inner.params: expected an object"),
    ({"family": "linear_cost", "params": {}}, "spec.params: missing 'c1' for family 'linear_cost'"),
    ({"family": "quadratic_cost", "params": {"c0": True}}, "spec.params.c0: expected a number, got True"),
    ({"family": "quadratic_cost", "params": {"c0": "1"}}, "spec.params.c0: expected a number, got '1'"),
    ({"family": "quadratic_cost", "params": {"c0": -1}}, "spec: QuadraticCost needs finite c0>0, got -1.0"),
], ids=["list", "null", "no-family", "no-params", "params-list", "family-int", "no-inner", "inner-int",
        "inner-params-string", "no-c1", "c0-bool", "c0-string", "c0-negative"])
def test_spec_document_refusals(doc, message):
    with pytest.raises(InputError) as exc:
        spec_from_dict(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("doc, where", [
    ({"family": "quadratic_cost", "params": {"c0": 10**400}}, "spec.params.c0"),
    ({"family": "affine_reparam",
      "params": {"inner": {"family": "log_value", "params": {"a": 1.0, "s": -10**400}}, "scale": 1.0, "shift": 0.0}},
     "spec.params.inner.params.s"),
], ids=["cost", "nested"])
def test_integer_beyond_the_float_range_is_an_input_error(doc, where):
    with pytest.raises(InputError, match=rf"^{re.escape(where)}: integer too large for a float$"):
        spec_from_dict(doc)


def test_increasing_cutoff():
    f = QuadraticClippedValue(a=3.0, b=1.0)
    g = AffineReparam(f, scale=2.0, shift=1.0)
    ev = Evaluator.of([f, LogValue(a=1.0, s=1.0), g], [PARTNER_COST] * 3)
    assert ev.value_kink().tolist() == [1.5, -math.inf, 4.0]
    # f' > 0 left of the peak only; there g'' = -2/2^2
    lo, hi = np.array([0.0, 0.0, 3.0]), np.array([3.0, 3.0, 5.0])
    assert ev.value_modulus_increasing(lo, hi).tolist() == [2.0, 1.0 / 16.0, 0.5]
    lo, hi = np.array([1.5, 4.0, 4.0]), np.full(3, 5.0)
    assert ev.value_modulus_increasing(lo, hi).tolist() == [0.0, 1.0 / 36.0, 0.0]


# --- the family table -----------------------------------------------------------

INF = math.inf
#: tag -> one spec of that base family and the bits of its one-column evaluator (Evaluator.of_one):
#: k_lo, x_lo, v_scale, v_shift, a, b, b2, clip, peak, log, mu, s, c_scale, c_shift, q, l, dq, dl
TABLE_ROWS = {
    "quadratic_clipped_value": (
        QuadraticClippedValue(a=3.0, b=0.5),
        [-INF, -INF, 1.0, 0.0, 3.0, 0.5, 1.0, 3.0, 4.5, -0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]),
    "quadratic_cost": (
        QuadraticCost(c0=1.5),
        [-INF, 0.0, 1.0, 0.0, 1.0, 1.0, 2.0, 0.5, 0.25, -0.0, 0.0, 1.0, 1.0, 0.0, 1.5, 0.0, 1.5, 0.0]),
    "linear_cost": (
        LinearCost(c1=0.7),
        [-INF, -INF, 1.0, 0.0, 1.0, 1.0, 2.0, 0.5, 0.25, -0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.7, 0.0, 0.7]),
    "log_value": (
        LogValue(a=2.0, s=1.5),
        [-1.5, -INF, 1.0, 0.0, 0.0, 0.0, 0.0, -INF, -0.0, 2.0, 1.0, 1.5, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("tag", [tag for tag, (cls, _, _) in _FAMILIES.items() if cls is not AffineReparam])
def test_every_base_family_builds_its_recorded_row(tag):
    spec, row = TABLE_ROWS[tag]
    assert type(spec) is _FAMILIES[tag][0]
    assert Evaluator.of_one(spec).cols[:, 0].tobytes() == np.array(row).tobytes()  # tells -0.0 from 0.0


class Unlisted(ScalarFunction):
    kind = "value"

    def domain(self):
        return (-math.inf, math.inf)


class ListedSubclass(QuadraticCost):
    """Not a QuadraticCost to the table, which looks families up by exact type."""


@pytest.mark.parametrize("value, cost", [
    (Unlisted(), LinearCost(c1=1.0)),
    (AffineReparam(Unlisted(), scale=2.0, shift=0.5), LinearCost(c1=1.0)),
    (QuadraticClippedValue(a=3.0, b=1.0), ListedSubclass(c0=1.0)),
], ids=["unlisted", "nested unlisted", "subclass"])
def test_a_family_outside_the_table_has_no_array_form(value, cost):
    with pytest.raises(InputError, match="no array form for the family pair"):
        Evaluator.of((value,), (cost,))
    with pytest.raises(InputError, match="no array form for the family pair"):
        Game(w=np.eye(1), lower=np.zeros(1), upper=np.ones(1), values=(value,), costs=(cost,))
    with pytest.raises(InputError, match="unknown function family"):  # nor can it be saved
        spec_to_dict(cost if isinstance(cost, ListedSubclass) else value)


# --- every interval constant against an exact evaluation ----------------------

VALUE_FAMILIES = st.one_of(
    st.builds(QuadraticClippedValue, a=st.floats(0.1, 10.0), b=st.floats(0.05, 5.0)),
    st.builds(LogValue, a=st.floats(0.1, 10.0), s=st.floats(0.01, 5.0)),
)
COST_FAMILIES = st.one_of(st.builds(QuadraticCost, c0=st.floats(0.1, 10.0)),
                          st.builds(LinearCost, c1=st.floats(0.1, 10.0)))


@st.composite
def nested(draw, families):
    spec = draw(families)
    for _ in range(draw(st.integers(0, 2))):
        spec = AffineReparam(spec, scale=draw(st.floats(0.3, 3.0)), shift=draw(st.floats(-1.0, 1.0)))
    return spec


class ExactSpec:
    """A spec evaluated in mpmath through its AffineReparam chain, level by level."""

    def __init__(self, spec):
        self.levels = []  # (scale, shift), outermost first
        while isinstance(spec, AffineReparam):
            self.levels.append((mp.mpf(spec.scale), mp.mpf(spec.shift)))
            spec = spec.inner
        self.base = spec
        self.factor = mp.fprod(scale for scale, _ in self.levels)

    def _pre(self, y):
        for scale, shift in self.levels:
            y = (y - shift) / scale
        return y

    def _post(self, t):
        for scale, shift in reversed(self.levels):
            t = t * scale + shift
        return t

    def kink(self):
        base = self.base
        if isinstance(base, QuadraticClippedValue):
            return self._post(mp.mpf(base.a) / (2 * mp.mpf(base.b)))
        return None

    def pole_and_weight(self):
        """(p, A) with f'' = -A/(k - p)^2 + a constant, or None for a quadratic value."""
        if isinstance(self.base, LogValue):
            return self._post(-mp.mpf(self.base.s)), mp.mpf(self.base.a)
        return None

    def d2(self, k, branch):
        """f''(k), reading a quadratic value on the branch of the gain ``branch``."""
        base, t = self.base, self._pre(mp.mpf(k))
        if isinstance(base, LogValue):
            out = -mp.mpf(base.a) / (mp.mpf(base.s) + t) ** 2
        elif isinstance(base, QuadraticClippedValue):
            out = -2 * mp.mpf(base.b) if self._pre(branch) <= mp.mpf(base.a) / (2 * mp.mpf(base.b)) else 0
        elif isinstance(base, QuadraticCost):
            out = mp.mpf(base.c0)
        else:
            out = mp.mpf(0)
        return out / self.factor**2

    def d3(self, k):
        base = self.base
        if not isinstance(base, LogValue):
            return mp.mpf(0)
        return 2 * mp.mpf(base.a) / (mp.mpf(base.s) + self._pre(mp.mpf(k))) ** 3 / self.factor**3


def pieces(lo, hi, *kinks):
    cuts = sorted({k for k in kinks if k is not None and lo < k < hi})
    edges = [mp.mpf(lo), *cuts, mp.mpf(hi)]
    return [(u, v, (u + v) / 2) for u, v in zip(edges[:-1], edges[1:])]


def stationary_points(f_i, f, gamma, u, v):
    """Zeros in (u, v) of d/dk [gamma f_i'' - f''], as real roots of a cubic."""
    both = f_i.pole_and_weight(), f.pole_and_weight()
    if None in both:
        return []  # one log term at most: monotone on every piece
    (p_i, a_i), (p, a) = both
    if p == p_i:
        return []  # one pole: h' = constant + constant/(k - p)^2 is monotone
    c = mp.mpf(gamma) * a_i
    # c (k - p)^3 = a (k - p_i)^3, expanded
    coeffs = [c - a, -3 * c * p + 3 * a * p_i, 3 * c * p**2 - 3 * a * p_i**2, -c * p**3 + a * p_i**3]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) < 2:
        return []
    try:
        roots = mp.polyroots(coeffs, maxsteps=100, extraprec=100)
    except mp.libmp.NoConvergence:
        # poles that nearly coincide make a near-triple root polyroots may not converge on;
        # with c, a > 0 a real k has (k - p)/(k - p_i) = r, the real cube root of a/c, so
        # k = (p - r p_i)/(1 - r) is the only real root
        r = mp.cbrt(a / c)
        roots = [] if r == 1 else [(p - r * p_i) / (1 - r)]
    return [mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30 and u < mp.re(r) < v]


def away_from(x, *points):
    return all(q is None or abs(x - q) > 1e-9 * (1 + abs(q)) for q in points)


@settings(max_examples=200, deadline=None)
@given(f_i=nested(VALUE_FAMILIES), f=nested(VALUE_FAMILIES), cost=nested(COST_FAMILIES),
       gamma=st.floats(0.1, 10.0), where=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_interval_constants_match_mpmath(f_i, f, cost, gamma, where):
    # an interval inside both value domains, kept 1e-2 (relative) off their poles
    floor = max(f_i.domain()[0], f.domain()[0])
    if floor == -math.inf:
        lo = -5.0 + 10.0 * where[0]
    else:
        lo = floor + (1 + abs(floor)) * 10 ** (-2 + 3 * where[0])
    hi = lo + (1 + abs(lo)) * 10 ** (-3 + 4.5 * where[1])
    point = lo + where[2] * (hi - lo)
    ev, common = Evaluator.of([f_i], [cost]), Evaluator.of_one(f)
    with mp.workdps(50):
        x_i, x = ExactSpec(f_i), ExactSpec(f)
        kinks = x_i.kink(), x.kink()
        # which side of a peak a point lies on depends on rounding there: keep clear of the peaks
        assume(all(away_from(e, *kinks) for e in (lo, hi, point)))
        assume(None in kinks or kinks[0] == kinks[1] or away_from(kinks[0], kinks[1]))

        # closeness: |h'| on each piece peaks at an end or at a zero of h''
        exact = max(abs(gamma * x_i.d2(k, mid) - x.d2(k, mid))
                    for u, v, mid in pieces(lo, hi, *kinks)
                    for k in [u, v, *stationary_points(x_i, x, gamma, u, v)])
        # -f'' and |f''| are monotone on each piece, so their inf and sup lie at piece ends
        sup = {spec: max(abs(spec.d2(k, mid)) for u, v, mid in pieces(lo, hi, spec.kink()) for k in (u, v))
               for spec in (x_i, x)}
        got = float(ev.closeness(common, np.array([gamma]), lo, hi)[0])
        assert abs(got - exact) <= 1e-12 * (gamma * sup[x_i] + sup[x])

        for evaluator, spec in ((ev, x_i), (common, x)):
            kink, cuts = spec.kink(), pieces(lo, hi, spec.kink())
            climbing = [(u, v, mid) for u, v, mid in cuts if kink is None or mid < kink]
            checks = [
                (evaluator.value_modulus(lo, hi), min(-spec.d2(k, mid) for u, v, mid in cuts for k in (u, v))),
                (evaluator.value_modulus_increasing(lo, hi),
                 min((-spec.d2(k, mid) for u, v, mid in climbing for k in (u, v)), default=0)),
                (evaluator.value_d2(np.array([point])), spec.d2(point, point)),
            ]
            for got, want in checks:
                assert abs(float(got[0]) - want) <= 1e-12 * sup[spec]
            # past its peak a quadratic value keeps L1 = 2b/scale^2: a bound there, exact for a log
            got = float(evaluator.value_lipschitz_d1(lo, hi)[0])
            assert got >= sup[spec] * (1 - 1e-12)
            assert kink is not None or got <= sup[spec] * (1 + 1e-12)
            got = float(evaluator.value_lipschitz_d2(lo, hi)[0])
            if kink is not None and lo <= kink < hi:
                assert got == math.inf  # f'' jumps inside
            else:
                assert abs(got - spec.d3(lo)) <= 1e-12 * spec.d3(lo)
            got = float(evaluator.value_kink()[0])
            assert got == -math.inf if kink is None else abs(got - kink) <= 1e-12 * (1 + abs(kink))
        want = ExactSpec(cost).d2(0, 0)
        assert abs(float(ev.dq[0]) - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(f_i=nested(st.builds(LogValue, a=st.floats(0.1, 10.0), s=st.floats(0.01, 5.0))),
       f=nested(st.builds(LogValue, a=st.floats(0.1, 10.0), s=st.floats(0.01, 5.0))),
       gamma=st.floats(0.1, 10.0), where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_closeness_at_an_interior_stationary_point_matches_mpmath(f_i, f, gamma, where):
    # two log values and an interval around the zero of h'' = d/dk [gamma f_i'' - f'']
    floor = max(f_i.domain()[0], f.domain()[0])
    with mp.workdps(50):
        x_i, x = ExactSpec(f_i), ExactSpec(f)
        inside = stationary_points(x_i, x, gamma, floor + 1e-2 * (1 + abs(floor)), mp.inf)
        assume(inside)
        k_star = float(inside[0])
        lo = k_star - (k_star - floor) * where[0] * 0.9
        hi = k_star + (1 + abs(k_star)) * 10 ** (-2 + 3 * where[1])
        exact = max(abs(gamma * x_i.d2(k, k) - x.d2(k, k)) for k in (lo, hi, inside[0]))
        scale = gamma * abs(x_i.d2(lo, lo)) + abs(x.d2(lo, lo))
        got = float(Evaluator.of_one(f_i).closeness(Evaluator.of_one(f), np.array([gamma]), lo, hi)[0])
        assert abs(got - exact) <= 1e-12 * scale


NESTED_LOG = nested(st.builds(LogValue, a=st.floats(0.1, 5.0), s=st.floats(0.01, 5.0)))


def above_domain_end(spec, ulps):
    point = spec.domain()[0]
    for _ in range(ulps):
        point = float(np.nextafter(point, np.inf))
    return point


@settings(max_examples=300, deadline=None)
@given(spec=NESTED_LOG, ulps=st.integers(1, 8))
def test_eval_near_a_nested_pole_is_finite_or_refused(spec, ulps):
    # the folded t can round a point a few ulps inside domain() onto the pole: refused, never -inf or nan
    try:
        value, d1, d2 = evaluate(spec, above_domain_end(spec, ulps))  # a RuntimeWarning fails here
    except DomainError as exc:
        assert "pole" in str(exc)
    else:
        assert math.isfinite(value) and 0.0 < d1 < math.inf and -math.inf < d2 < 0.0


@settings(max_examples=300, deadline=None)
@given(spec=NESTED_LOG, ulps=st.integers(1, 8))
def test_game_near_a_nested_pole_is_refused_or_finite(spec, ulps):
    # a box whose lowest gain the folded t rounds onto the pole is refused; any other box is finite there
    lower = np.array([above_domain_end(spec, ulps)])
    try:
        game = Game(w=np.eye(1), lower=lower, upper=lower + 1.0, values=(spec,), costs=(LinearCost(c1=1.0),))
    except InputError as exc:
        assert "pole" in str(exc)
        return
    u, sw = utility_profile(game, lower)  # a RuntimeWarning fails here
    gap, _ = br_gap(game, lower)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(pseudo_gradient(game, lower))) and math.isfinite(gap)
