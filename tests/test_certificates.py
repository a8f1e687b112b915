import json
import math
import warnings

import numpy as np
import pytest

from conftest import random_small_interaction_game
from spectral_oracle import jacobi_eigenvalues
from netgoods.certificates import (
    _sigma_bound,
    cert_near_individual,
    cert_near_potential,
    cert_near_symmetric,
    certify_any,
    report_to_dict,
    spectral_bounds,
)
from netgoods.equilibrium import multi_start_probe, solve_ne
from netgoods.equivalence import upper_triangular_normalizer
from netgoods.errors import InputError
from netgoods.functions import LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
from netgoods.game import Game
from netgoods.gamefile import dumps_canonical


class TestSpectralBounds:
    def test_permutation_matrix(self):
        s, eigs = spectral_bounds(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert s == pytest.approx(1.0, abs=1e-10)
        assert eigs == (pytest.approx(-1.0, abs=1e-10), pytest.approx(1.0, abs=1e-10))

    def test_asymmetric_2x2(self):
        # eigenvalues of M^T M are 15 +- sqrt(221)
        s, eigs = spectral_bounds(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert s == pytest.approx(math.sqrt(15 + math.sqrt(221)), abs=1e-9)
        assert eigs is None

    def test_zero_matrix(self):
        s, eigs = spectral_bounds(np.zeros((3, 3)))
        assert s == 0.0
        assert eigs == (0.0, 0.0)

    def test_agrees_with_numpy_on_random_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            m = rng.normal(size=(n, n))
            s, _ = spectral_bounds(m)
            assert s == pytest.approx(float(np.linalg.norm(m, 2)), abs=1e-8)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            assert spectral_bounds(m)[0] == pytest.approx(spectral_bounds(m.T)[0], abs=1e-9)

    def test_top_space_orthogonal_to_ones_start(self):
        # all-ones start has no overlap with the dominant eigenvector here, so
        # a start-vector method would miss sigma_max; the bound must not
        v = np.array([1.0, -1.0]) / math.sqrt(2)
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        m = 2.0 * np.outer(v, v) + 0.5 * np.outer(u, u)
        s, _ = spectral_bounds(m)
        assert s == pytest.approx(2.0, abs=1e-9)

    def test_non_finite_matrix_in_a_stack_gets_nan_alone(self):
        rng = np.random.default_rng(79)
        stack = rng.normal(size=(4, 3, 3))
        stack[1, 0, 2], stack[3, 1, 1] = math.nan, math.inf
        got, slack = _sigma_bound(stack)
        assert np.isnan(got[[1, 3]]).all()
        for k in (0, 2):  # the finite matrices keep their bits
            want, want_slack = _sigma_bound(stack[k])
            assert got[k] == want and slack[k] == want_slack


def _mp_extreme_eigs(a, mpmath):
    """(min, max) eigenvalue of the symmetric float matrix a, at 30 digits."""
    with mpmath.workdps(30):
        eigs = mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True)
        return min(eigs), max(eigs)


def _soundness_matrices(rng, count):
    """Random dense matrices and sparse non-negative reducible ones with empty rows/columns."""
    for k in range(count):
        n = int(rng.integers(1, 21))
        if k % 2 == 0:
            yield rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
            continue
        m = (rng.random((n, n)) < 0.2) * rng.integers(0, 4, size=(n, n)).astype(float)
        empty = rng.random(n) < 0.3
        m[empty, :] = 0.0
        m[:, rng.random(n) < 0.3] = 0.0
        yield m


class TestSpectralSoundness:
    def test_sigma_max_is_an_upper_bound(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(81)
        for m in _soundness_matrices(rng, 100):
            with mpmath.workdps(30):
                a = mpmath.matrix(m.tolist())  # float entries convert exactly
                exact = mpmath.sqrt(max(mpmath.eigsy(a.T * a, eigvals_only=True)))
            s, _ = spectral_bounds(m)
            assert s >= exact
            assert s - exact <= 1e-12 * exact

    def test_eigenvalue_bounds_enclose(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(82)
        for m in _soundness_matrices(rng, 60):
            m = m + m.T
            lo_mp, hi_mp = _mp_extreme_eigs(m, mpmath)
            _, (lo, hi) = spectral_bounds(m)
            scale = max(abs(lo_mp), abs(hi_mp))
            assert lo <= lo_mp and hi >= hi_mp
            assert lo_mp - lo <= 1e-12 * scale and hi - hi_mp <= 1e-12 * scale


class TestJacobi:
    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            got = jacobi_eigenvalues(a)
            assert np.allclose(got, np.linalg.eigvalsh(a), atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="symmetric"):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


def quad_game(w, upper=0.6, a=3.0, b=1.0, c0=1.0):
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    return Game(
        w=w, lower=np.zeros(n), upper=np.full(n, upper),
        values=tuple(QuadraticClippedValue(a=a, b=b) for _ in range(n)),
        costs=tuple(QuadraticCost(c0=c0) for _ in range(n)),
    )


class TestNearIndividual:
    def test_identity_network_zero_matrix_pass(self):
        rep = cert_near_individual(quad_game(np.eye(3)))
        assert rep.passed
        assert np.array_equal(rep.matrix, np.zeros((3, 3)))
        assert rep.sigma_max == 0.0
        assert rep.threshold > 0

    def test_case_family_constants(self, fig1a_game):
        # homogeneous clipped family with gains crossing the peak: the only
        # globally valid curvature is the cost's, and L0 is the family's 2b
        rep = cert_near_individual(fig1a_game)
        assert rep.details["c"] == 1.0  # c0
        assert rep.details["l0"] == 2.0  # 2b
        # pass criterion specializes to sigma_max < c0/(2b)
        assert rep.passed == (rep.sigma_max < 1.0 / 2.0)

    def test_fig1a_matrix_and_failure(self, fig1a_game):
        rep = cert_near_individual(fig1a_game)
        expect = np.array(
            [
                [2.0, 2.0, 1.0, 1.0],
                [2.0, 2.0, 1.0, 1.0],
                [1.0, 1.0, 2.0, 2.0],
                [1.0, 1.0, 2.0, 2.0],
            ]
        )
        assert np.allclose(rep.matrix, expect)
        assert rep.sigma_max == pytest.approx(6.0, abs=1e-9)
        assert not rep.passed

    def test_scale_equivariance_in_gamma(self):
        g = quad_game(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]]))
        base = cert_near_individual(g, np.ones(3))
        for lam in (0.3, 2.0, 11.0):
            scaled = cert_near_individual(g, lam * np.ones(3))
            assert scaled.threshold == pytest.approx(lam * base.threshold, rel=1e-12)
            assert np.allclose(scaled.matrix, lam * base.matrix, atol=1e-12)
            assert scaled.passed == base.passed

    def test_matrix_nonnegative(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            g = random_small_interaction_game(rng)
            rep = cert_near_individual(g)
            assert np.all(rep.matrix >= 0)


class TestNearPotential:
    def log_players_game(self, w, f=LogValue(a=2.0, s=2.0)):
        w = np.asarray(w, dtype=float)
        n = w.shape[0]
        return Game(
            w=w, lower=np.zeros(n), upper=np.full(n, 1.0),
            values=tuple(f for _ in range(n)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(n)),
        )

    def test_all_ones_identical_players_zero_matrix_pass(self):
        g = self.log_players_game(np.ones((3, 3)))
        rep = cert_near_potential(g, g.values[0])
        assert rep.passed
        assert np.array_equal(rep.matrix, np.zeros((3, 3)))

    def test_all_ones_with_clipped_family_skips_unused_c2(self):
        g = quad_game(np.ones((3, 3)), upper=1.0)  # gains reach 3 > clip 1.5
        rep = cert_near_potential(g, g.values[0])
        assert rep.passed  # B = 0, c = c0 > 0
        assert rep.details["c2"] == 0.0
        assert any("all-ones" in note for note in rep.notes)

    def test_single_off_one_entry(self):
        w = np.ones((3, 3))
        w[0, 1] = 1.1
        g = self.log_players_game(w)
        rep = cert_near_potential(g, g.values[0])
        # only row 0 deviates from the all-ones matrix
        assert np.allclose(rep.matrix[1:], 0.0)
        assert rep.matrix[0].max() > 0
        assert rep.passed == (rep.threshold > rep.sigma_max)

    def test_far_heterogeneous_values_fail(self):
        w = np.ones((2, 2))
        g = Game(
            w=w, lower=np.zeros(2), upper=np.ones(2),
            values=(LogValue(a=50.0, s=2.0), LogValue(a=0.1, s=2.0)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(2)),
        )
        rep = cert_near_potential(g, LogValue(a=1.0, s=2.0))
        assert not rep.passed
        assert max(rep.details["sigma_i"]) >= 10 * rep.details["c"]

    def test_clipped_common_value_not_applicable_off_ones(self):
        g = quad_game(np.array([[1.0, 0.5], [0.5, 1.0]]), upper=1.2)
        rep = cert_near_potential(g, g.values[0])
        assert rep.verdict == "fail"
        assert rep.margin == -math.inf
        assert any("not applicable" in note for note in rep.notes)

    def test_log_closeness_is_the_true_sup_no_false_pass(self):
        # sup |f_i'' - f''| on [0, 100] sits at k = 0: 1/0.001^2 - 1/1^2 = 999 999.  A grid
        # estimate of that slope fell 10x short and turned this fail into a pass (margin +9.1e3).
        g = Game(
            w=np.ones((2, 2)), lower=np.zeros(2), upper=np.full(2, 50.0),
            values=tuple(LogValue(a=1.0, s=1e-3) for _ in range(2)),
            costs=tuple(QuadraticCost(c0=2e5) for _ in range(2)),
        )
        rep = cert_near_potential(g, LogValue(a=1.0, s=1.0))
        assert rep.details["sigma_i"] == pytest.approx([999_999.0] * 2, rel=1e-12)
        assert rep.verdict == "fail"
        # c = 2e5 + 1/101^2 against sigma_max(B) = 2 * 999 999 (B = sigma_i times the ones matrix)
        assert rep.margin == pytest.approx(2e5 + 101.0**-2 - 2 * 999_999.0, rel=1e-12)

    def test_domain_coverage_error(self):
        # reachable gains start at -0.15, below the candidate's domain edge -0.1
        g = Game(
            w=np.ones((3, 3)), lower=np.full(3, -0.05), upper=np.ones(3),
            values=tuple(LogValue(a=2.0, s=2.0) for _ in range(3)),
            costs=tuple(LinearCost(c1=0.5) for _ in range(3)),
        )
        with pytest.raises(InputError, match="does not cover"):
            cert_near_potential(g, LogValue(a=1.0, s=0.1))


class TestNearSymmetric:
    def test_linear_costs_psd_w_zero_matrix_pass(self):
        w = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.3], [0.0, 0.3, 1.0]])
        assert np.all(np.linalg.eigvalsh(w) > 0)
        g = Game(
            w=w, lower=np.zeros(3), upper=np.ones(3),
            values=tuple(LogValue(a=2.0, s=1.0) for _ in range(3)),
            costs=tuple(LinearCost(c1=0.5) for _ in range(3)),
        )
        rep = cert_near_symmetric(g, w)
        assert rep.passed
        assert np.array_equal(rep.matrix, np.zeros((3, 3)))
        assert rep.threshold == pytest.approx(float(np.linalg.eigvalsh(w)[0]), abs=1e-9)

    def test_identity_network_quadratic_players(self):
        # L_i = c0 = 1, C_i = 2b = 2, no off-diagonal couplings: Sigma = 0
        g = quad_game(np.eye(2), upper=0.7)
        rep = cert_near_symmetric(g, np.eye(2))
        assert rep.passed
        assert np.array_equal(rep.matrix, np.zeros((2, 2)))
        assert rep.threshold == pytest.approx(1.0, abs=1e-10)
        assert rep.details["l_costs"] == [1.0, 1.0]
        assert rep.details["c_values"] == [2.0, 2.0]

    def test_hand_computed_two_player(self):
        # L_i/C_i = 0.5 and w_off = 0.4 with W0=I: sigma_offdiag = 0.4 + 0.4
        w = np.array([[1.0, 0.4], [0.4, 1.0]])
        g = Game(
            w=w, lower=np.zeros(2), upper=np.full(2, 0.5),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(2)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(2)),
        )
        rep = cert_near_symmetric(g, np.eye(2))
        assert np.allclose(rep.matrix, [[0.0, 0.8], [0.8, 0.0]])
        assert rep.sigma_max == pytest.approx(0.8, abs=1e-10)
        assert rep.passed  # 0.8 < sigma_0 = 1

    def test_zero_diagonal_always(self, fig1a_game):
        rep = cert_near_symmetric(fig1a_game, np.eye(4))
        assert np.all(np.diag(rep.matrix) == 0.0)
        assert np.all(rep.matrix >= 0)

    def test_fig1a_fails_both_candidates(self, fig1a_game):
        rep_i = cert_near_symmetric(fig1a_game, np.eye(4))
        assert not rep_i.passed
        rep_w = cert_near_symmetric(fig1a_game, fig1a_game.w)
        assert not rep_w.passed  # W itself is indefinite

    def test_w0_validation(self, fig1a_game):
        with pytest.raises(InputError, match="symmetric"):
            cert_near_symmetric(fig1a_game, np.triu(np.ones((4, 4))))
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(InputError, match="unit diagonal"):
            cert_near_symmetric(fig1a_game, bad)

    def test_exact_zero_margin_fails(self):
        # Sigma = M, a circulant with row and column sums 1, so sigma_max(M) = 1
        # = lambda_min(I) exactly; LAPACK and power iteration can both round
        # sigma_max to 1 - 2^-52 here, which without the slack certifies the game
        n = 7
        m = 0.75 * np.roll(np.eye(n), 1, axis=1) + 0.25 * np.roll(np.eye(n), 3, axis=1)
        g = Game(
            w=np.eye(n) + m, lower=np.zeros(n), upper=np.full(n, 0.5),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(n)),
            costs=tuple(LinearCost(c1=0.5) for _ in range(n)),
        )
        rep = cert_near_symmetric(g, np.eye(n))
        assert np.array_equal(rep.matrix, m)
        assert rep.sigma_max >= 1.0 and rep.threshold <= 1.0
        assert rep.verdict == "fail"
        assert -2.0 * rep.slack <= rep.margin < 0  # exact margin 0, shifted by the slack

    def test_threshold_is_lower_eigenvalue_bound(self):
        g = quad_game(np.eye(2))
        rep = cert_near_symmetric(g, np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert 0.5 - rep.slack <= rep.threshold <= 0.5
        assert rep.details["sigma_0"] == rep.threshold

    def test_zero_modulus_reported_not_divided(self):
        # the whole gain range sits beyond the value peak: no curvature at all
        g = Game(
            w=np.eye(1), lower=np.array([2.0]), upper=np.array([3.0]),
            values=(QuadraticClippedValue(a=3.0, b=1.0),),
            costs=(QuadraticCost(c0=1.0),),
        )
        rep = cert_near_symmetric(g, np.eye(1))
        assert rep.verdict == "fail"
        assert any("zero modulus" in note for note in rep.notes)


def near_pole_game():
    # the gain 0 lies 1e-200 off the log pole: L0 overflows to inf and sigma_max(Sigma) = 0
    return Game(w=np.eye(1), lower=np.zeros(1), upper=np.ones(1),
                values=(LogValue(a=1.0, s=1e-200),), costs=(QuadraticCost(c0=1.0),))


def near_pole_reports(g):
    return [certify_any(g), cert_near_individual(g), cert_near_potential(g, g.values[0]),
            cert_near_symmetric(g, np.eye(1))]


class TestCertifyAny:
    def test_non_finite_margin_fails_with_a_reason(self):
        g = near_pole_game()
        rep = cert_near_individual(g)
        best = certify_any(g)
        assert math.isnan(rep.margin) and rep.verdict == "fail"
        assert rep.notes[-1].startswith("margin is nan")
        assert report_to_dict(rep)["slack"] is None  # l0 * 0 = nan: no bound, like the margin
        tried = {a["theorem"]: a for a in best.attempts}
        assert tried["near_individual"]["verdict"] == "fail"
        assert tried["near_individual"]["reason"] == rep.notes[-1]
        # the potential certificate's matrix holds a nan, on which the SVD does not converge
        assert tried["near_potential"]["verdict"] == "fail"
        assert tried["near_potential"]["reason"].startswith("margin is nan")

    def test_non_finite_numbers_written_as_null(self):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        docs = [json.loads(dumps_canonical(report_to_dict(rep)), parse_constant=reject)
                for rep in near_pole_reports(near_pole_game())]
        assert docs[1]["details"]["l0"] is None and docs[1]["details"]["c"] == 2.0
        assert docs[2]["details"]["sigma_i"] == [None] and docs[2]["matrix"] == [[None]]

    def test_no_runtime_warning_at_a_log_pole(self):
        g = near_pole_game()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = near_pole_reports(g)
            solve_ne(g)
        assert [r.verdict for r in reports] == ["pass", "fail", "fail", "pass"]

    def test_identity_network_passes_directly(self):
        rep = certify_any(quad_game(np.eye(4)))
        assert rep.passed
        assert rep.transform == "identity"

    def test_fig1a_all_fail(self, fig1a_game):
        rep = certify_any(fig1a_game)
        assert not rep.passed

    def test_triangular_game_passes_via_transform(self, two_player_triangular):
        emap = upper_triangular_normalizer(two_player_triangular, eps="auto")
        rep = certify_any(two_player_triangular, maps=[emap])
        assert rep.passed
        assert rep.transform.startswith("map[0]")
        assert rep.theorem == "near_symmetric"

    def test_soundness_against_multistart(self):
        # empirical soundness: a passing certificate means one NE cluster
        rng = np.random.default_rng(90)
        checked = 0
        for _ in range(40):
            g = random_small_interaction_game(rng)
            rep = certify_any(g)
            if not rep.passed:
                continue
            checked += 1
            reps = multi_start_probe(g, n_starts=20, seed=1, cluster_tol=1e-5)
            assert len(reps) == 1
        assert checked >= 10

    def test_attempts_cover_every_certificate(self, fig1a_game):
        rep = certify_any(fig1a_game)
        tried = [(a["theorem"], a["transform"], a["verdict"]) for a in rep.attempts]
        assert tried == [
            ("near_individual", "identity", "fail"),
            ("near_potential", "identity", "fail"),
            ("near_symmetric", "identity", "fail"),
            ("near_symmetric", "identity", "fail"),
        ]
        assert [a["margin"] is None for a in rep.attempts] == [False, True, False, True]
        assert rep.margin == max(a["margin"] for a in rep.attempts if a["margin"] is not None)
        # the clipped common value has a discontinuous f'' and W is not all-ones;
        # the symmetrized W of fig1a is indefinite
        reasons = [a["reason"] for a in rep.attempts]
        assert reasons[0] is None and reasons[2] is None
        assert reasons[1].startswith("not applicable")
        assert "not positive definite" in reasons[3]

    def test_attempts_keep_inapplicable_reasons(self, fig1a_game):
        rep = certify_any(fig1a_game, w0_candidates=[np.eye(3), np.eye(4)])
        bad = [a for a in rep.attempts if a["verdict"] == "inapplicable"]
        assert len(bad) == 1
        assert bad[0]["theorem"] == "near_symmetric" and bad[0]["margin"] is None
        assert "shape" in bad[0]["reason"]

    def test_report_serializes(self, fig1a_game):
        import json

        doc = report_to_dict(certify_any(fig1a_game))
        json.dumps(doc)
        assert doc["verdict"] in ("pass", "fail")
        assert len(doc["matrix"]) == 4
        assert doc["slack"] > 0
        assert len(doc["attempts"]) == 4
