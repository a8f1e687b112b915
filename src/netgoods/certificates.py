"""Uniqueness certificates for the NE, plus the spectral numerics they need.

Three sufficient conditions are checked, each comparing a curvature constant
against the largest singular value of a constructed non-negative residual
matrix: near-individual (weak coupling), near-potential (couplings near one
and values near a common spec), near-symmetric (W near a positive-definite
symmetric W0).  A passing verdict certifies a unique NE; a failing one proves
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .equivalence import EquivalenceMap, transform_game
from .errors import InputError
from .functions import ScalarFunction
from .game import Evaluator, Game, _default_gamma, gain_bounds

#: float64 unit roundoff
UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
#: the constant c of the spectral rounding slack c * n * u * ||M||_F
SLACK_C = 8.0


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one uniqueness check.

    ``threshold`` is the curvature side of the theorem's inequality and
    ``margin`` the amount by which it beats the spectral side.  The spectral
    quantities are rounding-safe bounds (``sigma_max`` from above, an
    eigenvalue threshold from below), and ``slack`` is how much their
    widening lowered the margin; the verdict is "pass" exactly when that
    margin is positive.  ``details`` carries the per-player constants for
    audit; ``transform`` names the equivalence map the certificate was
    evaluated under, if any; ``attempts`` lists, for ``certify_any``, every
    certificate it tried.  A report whose margin is not finite is a "fail",
    and its last note says why.
    """

    theorem: str
    gamma: np.ndarray
    matrix: np.ndarray
    sigma_max: float
    threshold: float
    margin: float
    verdict: str
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    transform: str | None = None
    slack: float = 0.0
    attempts: tuple[dict, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _peak(m: np.ndarray) -> float:
    """max |entry| of the matrix (0 for an empty one); not finite exactly when an entry is not."""
    return float(np.abs(m).max(initial=0.0))


def _pow2_scale(m: np.ndarray, peak: float) -> tuple[np.ndarray, int]:
    """(2^-e M, e), 2^e putting M's ``_peak`` in [1/2, 1).

    The scaling is exact except for entries that land below 2^-1022, which
    move by at most 2^-1075 each; the scaled matrix's squares and sums of
    squares neither over- nor underflow.
    """
    e = math.frexp(peak)[1]
    return np.ldexp(m, -e), e


def _slack(m: np.ndarray) -> float:
    """Rounding slack c * n * u * ||M||_F of the eigenvalues of the n x n matrix M.

    LAPACK's symmetric eigen-solver is backward stable: the values it returns
    are exact for some M + E with ||E||_2 <= p(n) u ||M||_2, p(n) a modest
    multiple of n, so by Weyl's theorem each returned value lies within
    ||E||_2 of the true one.  ``SLACK_C`` * n covers p(n), the rounding of the
    certificate matrices' own non-negative sums and products (at most
    (n + 2) u ||M||_2 entrywise-relative error), and the rounding of adding the
    slack; ||M||_2 <= ||M||_F.  ||M||_F is taken from M scaled by a power of
    two (``_pow2_scale``), so it neither over- nor underflows, and scaled back:
    at ordinary scales that moves no bit.
    """
    s, e = _pow2_scale(m, _peak(m))
    return math.ldexp(SLACK_C * m.shape[-1] * UNIT_ROUNDOFF * float(np.linalg.norm(s, axis=(-2, -1))), e)


def _sigma_bound(m: np.ndarray) -> tuple[float, float]:
    """(upper bound on sigma_max, its slack) of the r x c matrix M.

    Zero rows do not change M^T M, so they are dropped first: sigma_max(M) is
    that of the k x c matrix S of M's non-zero rows, exactly, and k = 0 gives
    0 for both without an eigen-solve.  sigma_max(S)^2 is the largest
    eigenvalue of the Gram matrix on S's smaller side, G = S S^T when k < c
    and S^T S otherwise, so a square M without zero rows keeps the plain
    M^T M.  S is first scaled by a power of two (``_pow2_scale``), so neither
    G nor ||M||_F^2 over- or underflows.  With n the larger side of M, which
    bounds both G's order and the length of the inner products that form it,
    the computed G is within gamma_n ||M||_F^2 of the exact one in the 2-norm
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.5),
    and ``eigvalsh`` is backward stable with error p(n) u ||G||_2, p(n) <= 6n
    as in ``_slack``; by Weyl's theorem sigma_max^2 <= lambda_hat + SLACK_C n
    u ||M||_F^2, the SLACK_C * n = 8n covering both terms (7n) and the
    rounding of ||M||_F^2, of the sum and of the square root.  Like
    ``_slack`` this rests on LAPACK's backward-error model; the rounding in
    forming a certificate matrix (up to (n + 2) u relative per non-negative
    entry) is left to the remaining n and to p(n) falling well short of 6n in
    practice.  The bound is 2^e sqrt(max(lambda_hat, 0) + that slack),
    floored at ``_peak(M)``: sigma_max(M) >= |e_i^T M e_j| = |m_ij| for every
    entry, and the peak is exact, so the floor holds whatever LAPACK returns
    and makes "peak >= t" imply "bound >= t" for any threshold t.  The slack
    is the bound minus 2^e sqrt(max(lambda_hat, 0)).  A matrix with a
    non-finite entry gets nan for both, and LAPACK never sees it.
    """
    peak = _peak(m)
    if not math.isfinite(peak):
        return math.nan, math.nan
    if peak == 0.0:  # no row is non-zero
        return 0.0, 0.0
    n = max(m.shape)
    s, e = _pow2_scale(m[m.any(axis=1)], peak)
    g = s @ s.T if s.shape[0] < s.shape[1] else s.T @ s
    lam = max(float(np.linalg.eigvalsh(g)[-1]), 0.0)
    fro2 = float(np.trace(g))  # ||M||_F^2, scaled
    # the scaled peak 2^-e peak is exact, in [1/2, 1)
    top = max(math.sqrt(lam + SLACK_C * n * UNIT_ROUNDOFF * fro2), math.ldexp(peak, -e))
    # a bound past the largest float is inf, as numpy's ldexp gives it
    return float(np.ldexp(top, e)), float(np.ldexp(top - math.sqrt(lam), e))


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2, halved before the sum so that it overflows only where the result does."""
    return 0.5 * m + 0.5 * m.T


def _eig_bounds(m: np.ndarray) -> tuple[float, float, float]:
    """(lower bound on lambda_min, upper bound on lambda_max, slack) of m's symmetric part."""
    eigs = np.linalg.eigvalsh(_symmetric_part(m))
    slack = _slack(m)
    return float(eigs[0]) - slack, float(eigs[-1]) + slack, slack


def _lambda_min_bound(w0: np.ndarray) -> tuple[float, float]:
    """(lower bound on lambda_min, slack) of the symmetric w0, as ``_eig_bounds`` gives them.

    The identity needs no eigen-solve: its eigenvalues are exactly 1.
    """
    if np.count_nonzero(w0) == w0.shape[0] and np.all(np.diag(w0) == 1.0):
        slack = _slack(w0)
        return 1.0 - slack, slack
    lo, _, slack = _eig_bounds(w0)
    return lo, slack


def spectral_bounds(m: np.ndarray) -> tuple[float, tuple[float, float] | None]:
    """(sigma_max, (min_eig, max_eig) when symmetric, else None), each widened to a bound.

    sigma_max is the square root of the largest eigenvalue of M^T M widened
    by its rounding slack (``_sigma_bound``), so under the backward-error
    bound that slack rests on it never falls short of the true value; the
    extreme eigenvalues come from ``eigvalsh`` widened outward by the slack of
    ``_slack``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"need a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    return _sigma_bound(m)[0], _eig_bounds(m)[:2] if _symmetric(m) else None


def _symmetric(m: np.ndarray) -> bool:
    """max|M - M^T| <= 1e-12 * max(1, max|M|); a nan entry does not count against it."""
    return not np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, float(np.max(np.abs(m))))


def _report(theorem: str, game: Game, gamma: np.ndarray, matrix: np.ndarray, threshold: float, *,
            weight: float = 1.0, extra_slack: float = 0.0, notes=(), details: dict,
            inapplicable: str | None = None) -> CertificateReport:
    """The report of the inequality threshold > weight * sigma_max(matrix) on the game.

    margin = threshold - weight * sigma_max, with sigma_max bounded from above
    (``_sigma_bound``), and slack = extra_slack + weight * sigma_max's slack.
    The verdict is "pass" exactly when threshold and margin are both positive.
    Notes start with the players whose value kink lies inside their reachable
    gains; a zero threshold gets a note, and a margin that is not finite fails
    with the reason last.  A theorem that does not apply, for the reason
    ``inapplicable``, gets sigma_max = inf and margin = -inf.
    """
    gb, kink = gain_bounds(game), game.evaluator.value_kink()
    notes = tuple(f"player {i}: value kink inside reachable gain interval; "
                  "second-order smoothness holds only piecewise"
                  for i in np.flatnonzero((gb.k_lo < kink) & (kink < gb.k_hi))) + tuple(notes)
    if inapplicable is not None:
        sigma_max, margin, slack = math.inf, -math.inf, extra_slack
        notes += (inapplicable,)
    else:
        sigma_max, s_slack = _sigma_bound(matrix)
        margin = threshold - weight * sigma_max
        slack = extra_slack + weight * s_slack
        if threshold == 0.0:
            notes += ("zero modulus: no strong concavity available",)
        if not math.isfinite(margin):
            notes += (f"margin is {margin}: a constant it is computed from is not finite",)
    return CertificateReport(
        theorem=theorem, gamma=gamma, matrix=matrix, sigma_max=sigma_max, threshold=threshold,
        margin=margin, verdict="pass" if threshold > 0 and margin > 0 else "fail",
        notes=notes, details=details, slack=slack,
    )


def common_value(game: Game) -> ScalarFunction | None:
    """The value spec every player shares, or None when they differ."""
    return game.values[0] if all(v == game.values[0] for v in game.values) else None


def coupling_residual(w: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
    """The weak-coupling matrix sigma_ij = sum_{k != i} gamma_k |w_ki| |w_kj|, gamma defaulting to ones.

    It is off^T (gamma |W|), off being the (n, n) |W| with its diagonal
    zeroed, so the k = i term drops out and every summand is non-negative.
    """
    abs_w = np.abs(np.asarray(w, dtype=float))
    if abs_w.ndim != 2 or abs_w.shape[0] != abs_w.shape[1]:
        raise InputError(f"need a square matrix, got shape {abs_w.shape}")
    off = abs_w.copy()
    np.fill_diagonal(off, 0.0)
    return off.T @ (abs_w if gamma is None else gamma[:, None] * abs_w)


def cert_near_individual(game: Game, gamma: np.ndarray | None = None) -> CertificateReport:
    """Weak-coupling certificate: c > L0 * sigma_max(Sigma).

    c is the worst-case modulus of gamma_i*(f_i(x+d) - c_i(x)) over the box,
    minimized over reachable externalities (equivalently, the value modulus
    over the full gain interval plus the cost modulus); L0 bounds every f_i'
    Lipschitz constant; sigma_ij = sum_{k != i} gamma_k |w_ki w_kj| (``coupling_residual``).
    """
    gamma = _default_gamma(game, gamma)
    gb, ev = gain_bounds(game), game.evaluator
    per_c = gamma * (ev.value_modulus(gb.k_lo, gb.k_hi) + ev.dq)
    l_ones = ev.value_lipschitz_d1(gb.k_lo, gb.k_hi)
    c = float(np.min(per_c))
    l0 = float(np.max(l_ones))

    return _report("near_individual", game, gamma, coupling_residual(game.w, gamma), c, weight=l0,
                   details={"c": c, "l0": l0, "per_player_c": per_c.tolist()})


def cert_near_potential(
    game: Game,
    f_common: ScalarFunction,
    gamma: np.ndarray | None = None,
) -> CertificateReport:
    """Common-value certificate: c > sigma_max(B).

    sigma_i measures how far gamma_i*f_i' drifts from f_common' over player i's
    gains; c is the worst modulus of f_common(x+d) - gamma_i*c_i(x); the matrix
    B combines sigma_i with how far W sits from the all-ones matrix, weighted
    by the Lipschitz constants of f_common' and f_common''.
    """
    gamma = _default_gamma(game, gamma)
    gb = gain_bounds(game)
    if f_common.kind != "value":
        raise InputError("f_common must be a value family")

    hull_lo = min(float(np.min(gb.k_lo)), float(np.sum(game.lower)))
    hull_hi = max(float(np.max(gb.k_hi)), float(np.sum(game.upper)))
    common = Evaluator.of_one(f_common)
    outside, at_pole = common.outside_domain(hull_lo)
    if outside[0]:
        pole = " (at or below its log pole)" if at_pole[0] else ""
        raise InputError(f"f_common domain ({common.k_lo[0]}, inf) does not cover the required "
                         f"interval [{hull_lo}, {hull_hi}]{pole}")

    sigmas = game.evaluator.closeness(common, gamma, gb.k_lo, gb.k_hi)
    per_c = common.value_modulus(gb.k_lo, gb.k_hi) + gamma * game.evaluator.dq
    c = float(np.min(per_c))
    c1 = float(common.value_lipschitz_d1(hull_lo, hull_hi)[0])
    c2 = float(common.value_lipschitz_d2(hull_lo, hull_hi)[0])

    dev = np.abs(game.w - 1.0)
    box_mag = np.maximum(-game.lower, game.upper)
    s_row = dev @ box_mag  # per-row sum |w_il - 1| * max(-lo_l, hi_l)

    notes, inapplicable = (), None
    if c2 == math.inf and float(np.max(s_row)) == 0.0:
        c2 = 0.0
        notes = ("f_common'' Lipschitz constant unused: W is exactly all-ones",)
    elif common.value_jumps(hull_lo, hull_hi)[0]:
        inapplicable = ("not applicable: f_common'' is discontinuous on the required interval "
                        "and W deviates from all-ones")
    with np.errstate(invalid="ignore"):  # inf * 0 at a log pole: nan, and the margin fails
        b = sigmas[:, None] * np.abs(game.w) + c1 * dev
        if inapplicable is None:
            b = b + c2 * s_row[:, None]
    return _report("near_potential", game, gamma, b, c, notes=notes, inapplicable=inapplicable,
                   details={"c": c, "c1": c1, "c2": c2, "sigma_i": sigmas.tolist()})


def cert_near_symmetric(game: Game, w0: np.ndarray) -> CertificateReport:
    """Near-positive-definite certificate: sigma_min(W0) > sigma_max(Sigma).

    Off-diagonal sigma_ij = 2 L_i |w_ij| / C_i + |w0_ij - w_ij| with zero
    diagonal, where L_i is the Lipschitz constant of c_i' and C_i the value
    modulus over the part of the gain interval where f_i still climbs (the
    only region an optimal gain can occupy).  sigma_min(W0) is W0's smallest
    eigenvalue, bounded from below; W0 is taken as its symmetric part.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != game.w.shape:
        raise InputError(f"W0 must have shape {game.w.shape}, got {w0.shape}")
    if not np.all(np.isfinite(w0)):
        raise InputError("W0 has non-finite entries")
    if not _symmetric(w0):
        raise InputError("W0 must be symmetric")
    if np.max(np.abs(np.diag(w0) - 1.0)) > 1e-12:
        raise InputError("W0 must have unit diagonal")

    w0 = _symmetric_part(w0)
    sigma_0, slack_0 = _lambda_min_bound(w0)
    gb = gain_bounds(game)
    l_costs = game.evaluator.dq
    c_vals = game.evaluator.value_modulus_increasing(gb.k_lo, gb.k_hi)

    inapplicable = ("W0 is not positive definite beyond the rounding slack" if sigma_0 <= 0.0
                    else "zero modulus: some value has no curvature over its optimal-gain range"
                    if np.any(c_vals <= 0.0) else None)
    sigma = np.abs(w0 - game.w)
    if inapplicable is None:
        sigma = (2.0 * l_costs / c_vals)[:, None] * np.abs(game.w) + sigma
        np.fill_diagonal(sigma, 0.0)
    return _report("near_symmetric", game, np.ones(game.n), sigma, sigma_0, extra_slack=slack_0,
                   inapplicable=inapplicable,
                   details={"sigma_0": sigma_0, "l_costs": l_costs.tolist(),
                            "c_values": c_vals.tolist()})


def _sym_candidates(game: Game) -> list[np.ndarray]:
    cands = [np.eye(game.n)]
    sym = _symmetric_part(game.w)
    if np.max(np.abs(sym - np.eye(game.n))) > 0:
        cands.append(sym)
    return cands


def certify_any(
    game: Game,
    gamma: np.ndarray | None = None,
    f_common: ScalarFunction | None = None,
    maps: list[EquivalenceMap] | None = None,
) -> CertificateReport:
    """Best certificate over all applicable theorems and candidate transforms.

    Evaluates every applicable certificate on the game itself and on each
    equivalence-transformed variant (a pass there certifies the original via
    NE transport); returns the report with the largest margin, or the
    least-negative one when everything fails.  Provenance lands in
    ``transform``; every certificate tried lands in ``attempts`` with its
    verdict, its float margin and, when that margin is not finite, the reason
    (a certificate that raised InputError: verdict "inapplicable", margin
    None and the error as its reason).
    """
    gamma = _default_gamma(game, gamma)
    candidates: list[tuple[str, Game]] = [("identity", game)]
    for idx, emap in enumerate(maps or []):
        candidates.append((f"map[{idx}] d={np.round(emap.d, 6).tolist()}", transform_game(game, emap)))

    reports: list[CertificateReport] = []
    attempts: list[dict] = []

    def attempt(theorem: str, label: str, run) -> None:
        try:
            rep = replace(run(), transform=label)
        except InputError as exc:
            attempts.append({"theorem": theorem, "transform": label, "verdict": "inapplicable",
                             "margin": None, "reason": str(exc)})
            return
        reports.append(rep)
        # a report whose margin is not finite carries its reason last in notes
        attempts.append({"theorem": theorem, "transform": label, "verdict": rep.verdict,
                         "margin": rep.margin,
                         "reason": None if math.isfinite(rep.margin) else rep.notes[-1]})

    for label, g in candidates:
        attempt("near_individual", label, lambda: cert_near_individual(g, gamma))
        fc = f_common if f_common is not None else common_value(g)
        if fc is not None:
            attempt("near_potential", label, lambda: cert_near_potential(g, fc, gamma))
        for w0 in _sym_candidates(g):
            attempt("near_symmetric", label, lambda: cert_near_symmetric(g, w0))
    if not reports:
        raise InputError("no certificate was applicable to this game")
    return replace(max(reports, key=lambda r: (r.passed, r.margin)), attempts=tuple(attempts))
