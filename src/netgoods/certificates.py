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
from .functions import LinearCost, ScalarFunction
from .game import Evaluator, Game, _weights, gain_bounds

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


def _slack(m: np.ndarray) -> np.ndarray:
    """Rounding slack c * n * u * ||M||_F of each matrix of an (..., n, n) stack.

    LAPACK's SVD and symmetric eigen-solvers are backward stable: the values
    they return are exact for some M + E with ||E||_2 <= p(n) u ||M||_2, p(n)
    a modest multiple of n, so by Weyl's theorem each returned value lies
    within ||E||_2 of the true one.  ``SLACK_C`` * n covers p(n), the rounding
    of the certificate matrices' own non-negative sums and products (at most
    (n + 2) u ||M||_2 entrywise-relative error), and the rounding of adding the
    slack; ||M||_2 <= ||M||_F.  Entries are assumed far from underflow.
    """
    return SLACK_C * m.shape[-1] * UNIT_ROUNDOFF * np.linalg.norm(m, axis=(-2, -1))


def _sigma_bound(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper bound on sigma_max, its slack) for each matrix of an (..., n, n) stack."""
    slack = _slack(m)
    finite = np.isfinite(m).all(axis=(-2, -1))
    if finite.all():
        top = np.linalg.svd(m, compute_uv=False)[..., 0]
    else:  # a matrix with a non-finite entry has no bound: nan, and LAPACK never sees it
        top = np.full(m.shape[:-2], np.nan)
        top[finite] = np.linalg.svd(m[finite], compute_uv=False)[..., 0]
    return top + slack, slack


def _eig_bounds(m: np.ndarray) -> tuple[float, float, float]:
    """(lower bound on lambda_min, upper bound on lambda_max, slack) of m's symmetric part."""
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    slack = float(_slack(m))
    return float(eigs[0]) - slack, float(eigs[-1]) + slack, slack


def spectral_bounds(m: np.ndarray) -> tuple[float, tuple[float, float] | None]:
    """(sigma_max, (min_eig, max_eig) when symmetric, else None), each widened to a bound.

    sigma_max is LAPACK's largest singular value plus the rounding slack of
    ``_slack``, so under the backward-error bound that slack rests on it never
    falls short of the true value; the extreme eigenvalues come from
    ``eigvalsh`` widened outward by the same slack.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"need a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    sigma, _ = _sigma_bound(m)
    return float(sigma), _eig_bounds(m)[:2] if _symmetric(m) else None


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
        s_max, s_slack = _sigma_bound(matrix)
        sigma_max = float(s_max)
        margin = threshold - weight * sigma_max
        slack = extra_slack + weight * float(s_slack)
        if threshold == 0.0:
            notes += ("zero modulus: no strong concavity available",)
        if not math.isfinite(margin):
            notes += (f"margin is {margin}: a constant it is computed from is not finite",)
    return CertificateReport(
        theorem=theorem, gamma=gamma, matrix=matrix, sigma_max=sigma_max, threshold=threshold,
        margin=margin, verdict="pass" if threshold > 0 and margin > 0 else "fail",
        notes=notes, details=details, slack=slack,
    )


def _default_gamma(game: Game, gamma) -> np.ndarray:
    return np.ones(game.n) if gamma is None else _weights(game, gamma, "gamma")


def common_value(game: Game) -> ScalarFunction | None:
    """The value spec every player shares, or None when they differ."""
    return game.values[0] if all(v == game.values[0] for v in game.values) else None


def cert_near_individual(game: Game, gamma: np.ndarray | None = None) -> CertificateReport:
    """Weak-coupling certificate: c > L0 * sigma_max(Sigma).

    c is the worst-case modulus of gamma_i*(f_i(x+d) - c_i(x)) over the box,
    minimized over reachable externalities (equivalently, the value modulus
    over the full gain interval plus the cost modulus); L0 bounds every f_i'
    Lipschitz constant; sigma_ij = sum_{k != i} gamma_k |w_ki w_kj|.
    """
    gamma = _default_gamma(game, gamma)
    gb, ev = gain_bounds(game), game.evaluator
    per_c = gamma * (ev.value_modulus(gb.k_lo, gb.k_hi) + ev.dq)
    l_ones = ev.value_lipschitz_d1(gb.k_lo, gb.k_hi)
    c = float(np.min(per_c))
    l0 = float(np.max(l_ones))

    abs_w = np.abs(game.w)
    off = abs_w.copy()
    np.fill_diagonal(off, 0.0)
    sigma = off.T @ (gamma[:, None] * abs_w)  # k = i dropped by the zero diagonal
    return _report("near_individual", game, gamma, sigma, c, weight=l0,
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

    sum_lo = float(np.sum(game.lower))
    sum_hi = float(np.sum(game.upper))
    hull_lo = min(float(np.min(gb.k_lo)), sum_lo)
    hull_hi = max(float(np.max(gb.k_hi)), sum_hi)
    dlo, dhi = f_common.domain()
    if hull_lo < dlo or hull_hi > dhi:
        raise InputError(
            f"f_common domain [{dlo}, {dhi}] does not cover the required "
            f"interval [{hull_lo}, {hull_hi}]"
        )

    common = Evaluator.of((f_common,), (LinearCost(c1=1.0),))  # only its value rows are read
    sigmas = game.evaluator.closeness(common, gamma, gb.k_lo, gb.k_hi)
    per_c = common.value_modulus(gb.k_lo, gb.k_hi) + gamma * game.evaluator.dq
    c = float(np.min(per_c))
    c1 = float(common.value_lipschitz_d1(hull_lo, hull_hi)[0])
    c2 = float(common.value_lipschitz_d2(hull_lo, hull_hi)[0])

    dev = np.abs(game.w - 1.0)
    box_mag = np.maximum(-game.lower, game.upper)
    s_row = dev @ box_mag  # per-row sum |w_il - 1| * max(-lo_l, hi_l)

    notes, inapplicable = (), None
    if c2 == math.inf:  # f_common'' jumps inside the hull
        if float(np.max(s_row)) == 0.0:
            c2 = 0.0
            notes = ("f_common'' Lipschitz constant unused: W is exactly all-ones",)
        else:
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
    if not _symmetric(w0):
        raise InputError("W0 must be symmetric")
    if np.max(np.abs(np.diag(w0) - 1.0)) > 1e-12:
        raise InputError("W0 must have unit diagonal")

    w0 = 0.5 * (w0 + w0.T)
    sigma_0, _, slack_0 = _eig_bounds(w0)
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
    sym = 0.5 * (game.w + game.w.T)
    if np.max(np.abs(sym - np.eye(game.n))) > 0:
        cands.append(sym)
    return cands


def certify_any(
    game: Game,
    gamma: np.ndarray | None = None,
    f_common: ScalarFunction | None = None,
    w0_candidates: list[np.ndarray] | None = None,
    maps: list[EquivalenceMap] | None = None,
) -> CertificateReport:
    """Best certificate over all applicable theorems and candidate transforms.

    Evaluates every applicable certificate on the game itself and on each
    equivalence-transformed variant (a pass there certifies the original via
    NE transport); returns the report with the largest margin, or the
    least-negative one when everything fails.  Provenance lands in
    ``transform``; every certificate tried, with its verdict and margin or
    the reason it was inapplicable, lands in ``attempts``.
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
                         "margin": _json_num(rep.margin),
                         "reason": None if math.isfinite(rep.margin) else rep.notes[-1]})

    for label, g in candidates:
        attempt("near_individual", label, lambda: cert_near_individual(g, gamma))
        fc = f_common if f_common is not None else common_value(g)
        if fc is not None:
            attempt("near_potential", label, lambda: cert_near_potential(g, fc, gamma))
        for w0 in (w0_candidates if w0_candidates is not None else _sym_candidates(g)):
            attempt("near_symmetric", label, lambda: cert_near_symmetric(g, w0))
    if not reports:
        raise InputError("no certificate was applicable to this game")
    return replace(max(reports, key=lambda r: (r.passed, r.margin)), attempts=tuple(attempts))


def _json_num(v):
    """A number or an array of them as JSON-ready floats or nested lists, non-finite entries None."""
    a = np.asarray(v, dtype=float)
    finite = np.isfinite(a)
    return (a if finite.all() else np.where(finite, a, None)).tolist()


def report_to_dict(report: CertificateReport) -> dict:
    """JSON-ready form of a certificate report, including the full matrix.

    Non-finite numbers (inapplicable certificates, constants at a pole) serialize as null.
    """
    return {
        "theorem": report.theorem,
        "gamma": _json_num(report.gamma),
        "matrix": _json_num(np.atleast_2d(report.matrix)),
        "sigma_max": _json_num(report.sigma_max),
        "threshold": _json_num(report.threshold),
        "margin": _json_num(report.margin),
        "verdict": report.verdict,
        "notes": list(report.notes),
        "details": {k: _json_num(v) for k, v in report.details.items()},
        "transform": report.transform,
        "slack": _json_num(report.slack),
        "attempts": list(report.attempts),
    }
