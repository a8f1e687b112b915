import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_small_interaction_game, strict_loads
from spectral_oracle import jacobi_eigenvalues
from netgoods.certificates import (
    _eig_bounds,
    _lambda_min_bound,
    _peak,
    _sigma_bound,
    cert_near_individual,
    cert_near_potential,
    cert_near_symmetric,
    certify_any,
    spectral_bounds,
)
from netgoods.cli import _certificate_doc
from netgoods.equilibrium import multi_start_probe, solve_ne
from netgoods.equivalence import upper_triangular_normalizer
from netgoods.errors import InputError
from netgoods.functions import AffineReparam, LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
from netgoods.game import Game
from netgoods.gamefile import dumps_canonical


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every matrix or stack that reaches np.linalg.eigvalsh, in call order."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def recording(g):
        shapes.append(g.shape)
        return eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


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

    def test_non_finite_matrix_gets_nan_without_eigen_solve(self, eigvalsh_shapes):
        m = np.random.default_rng(79).normal(size=(3, 3))
        for value in (math.nan, math.inf, -math.inf):
            bad = m.copy()
            bad[1, 2] = value
            got, slack = _sigma_bound(bad)
            assert math.isnan(got) and math.isnan(slack)
        assert not eigvalsh_shapes

    def test_bound_is_floored_at_the_largest_entry(self, monkeypatch):
        # sigma_max >= max |m_ij|, so an eigen-solve that falls short never takes the
        # bound below the peak; that is what lets case 1 fail a sample from its peak
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: 0.01 * eigvalsh(g))
        rng = np.random.default_rng(87)
        for k, scale in enumerate((1.0, 1e-200, 1e200)):
            m = rng.normal(size=(6, 6)) * scale
            if k == 1:
                m[[0, 4]] = 0.0  # zero rows are dropped before the Gram
            got, slack = _sigma_bound(m)
            assert got == _peak(m)
            assert 0.0 < slack <= got

    def test_zero_rows_removed_keep_bits(self, eigvalsh_shapes):
        rng = np.random.default_rng(86)
        for n in (2, 7, 30):
            m = rng.normal(size=(n, n))
            m[rng.random(n) < 0.4] = 0.0
            m[0] = rng.normal(size=n)
            kept = m[m.any(axis=1)]
            assert _sigma_bound(m) == _sigma_bound(kept)
        # an all-zero matrix is not solved
        eigvalsh_shapes.clear()
        assert _sigma_bound(np.zeros((9, 9))) == (0.0, 0.0) and not eigvalsh_shapes

    def test_rectangular_gram_on_smaller_side(self, eigvalsh_shapes):
        m = np.random.default_rng(87).normal(size=(3, 7))
        for a in (m, m.T):
            s, _ = _sigma_bound(a)
            exact = float(np.linalg.norm(a, 2))
            assert exact <= s <= exact * (1 + 1e-12)
        assert eigvalsh_shapes == [(3, 3), (3, 3)]

    def test_identity_lambda_min_needs_no_eigen_solve(self):
        for n in (1, 2, 10, 100, 1000):
            lo, _, slack = _eig_bounds(np.eye(n))
            got = _lambda_min_bound(np.eye(n))
            assert got[0] == lo and got[1] == slack
        # a unit diagonal within the 1e-12 tolerance is not the identity
        w0 = np.diag([1.0, 1.0 + 2e-13, 1.0])
        assert _lambda_min_bound(w0) == _eig_bounds(w0)[::2]
        w0 = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert _lambda_min_bound(w0) == _eig_bounds(w0)[::2]


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

    def test_sigma_max_is_an_upper_bound_at_extreme_scales(self):
        # M^T M and ||M||_F^2 would over- or underflow here without the power-of-two scaling
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(84)
        for scale in (1e150, 1e-150, 1e200, 1e-200):
            for k in range(20):
                n = int(rng.integers(1, 21))
                m = rng.normal(size=(n, n)) if k % 2 == 0 else (rng.random((n, n)) < 0.3) * 1.0
                m = m * scale
                with mpmath.workdps(30):
                    a = mpmath.matrix(m.tolist())
                    exact = mpmath.sqrt(max(mpmath.eigsy(a.T * a, eigvals_only=True)))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    s, _ = _sigma_bound(m)
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

    def test_eigenvalue_bounds_enclose_at_extreme_scales(self):
        # the eigenvalue slack's ||M||_F would over- or underflow here without the power-of-two scaling
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(88)
        for scale in (1e150, 1e-150, 1e200, 1e-200):
            for k in range(10):
                n = int(rng.integers(1, 21))
                m = rng.normal(size=(n, n)) if k % 2 == 0 else (rng.random((n, n)) < 0.3) * 1.0
                m = (m + m.T) * scale
                lo_mp, hi_mp = _mp_extreme_eigs(m, mpmath)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    _, (lo, hi) = spectral_bounds(m)
                size = max(abs(lo_mp), abs(hi_mp))
                assert lo <= lo_mp and hi >= hi_mp
                assert lo_mp - lo <= 1e-12 * size and hi - hi_mp <= 1e-12 * size
                if size > 0:
                    assert lo < lo_mp and hi > hi_mp  # widened, not just rounded
        # the symmetric part of entries near the largest float: summed first, they overflow
        m = np.array([[1.0, 1.7e308], [1.7e308, 1.0]])
        lo_mp, hi_mp = _mp_extreme_eigs(m, mpmath)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, (lo, hi) = spectral_bounds(m)
        assert lo < lo_mp and hi > hi_mp
        assert lo_mp - lo <= 1e-12 * hi_mp and hi - hi_mp <= 1e-12 * hi_mp


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


@pytest.mark.parametrize("call, message", [
    (lambda: spectral_bounds(np.ones((2, 3))), r"need a square matrix, got shape \(2, 3\)"),
    (lambda: spectral_bounds(np.ones(3)), r"need a square matrix, got shape \(3,\)"),
    (lambda: spectral_bounds(np.array([[0.0, np.nan], [1.0, 0.0]])), "matrix has non-finite entries"),
    (lambda: spectral_bounds(np.array([[np.inf, 0.0], [0.0, 1.0]])), "matrix has non-finite entries"),
    (lambda: cert_near_potential(quad_game(np.eye(2)), QuadraticCost(c0=1.0)), "f_common must be a value family"),
], ids=["non-square", "one-dimensional", "nan", "inf", "cost-as-f-common"])
def test_spectral_and_potential_refusals(call, message):
    with pytest.raises(InputError, match=message):
        call()


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

    def test_overflow_at_a_log_pole_is_not_a_jump(self):
        # the hull starts 1e-120 off the log pole, so the Lipschitz constant c2 of
        # f_common'' overflows to inf; f_common'' is continuous, so the theorem applies
        f = LogValue(a=1.0, s=1e-120)
        g = self.log_players_game([[1.0, 0.5], [0.5, 1.0]], f=f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = cert_near_potential(g, f)
        assert rep.details["c2"] == math.inf and rep.verdict == "fail"
        assert not any("not applicable" in note for note in rep.notes)
        assert rep.notes[-1].startswith("margin is nan")
        ones = cert_near_potential(self.log_players_game(np.ones((2, 2)), f=f), f)
        assert ones.details["c2"] == 0.0 and any("all-ones" in note for note in ones.notes)

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

    def test_f_common_pole_at_the_hull_end_is_refused(self):
        # f_common's log pole is the hull's low end, 0: its open domain does not cover the hull,
        # by the same rule that refuses such a game
        g = Game(w=np.array([[1.0, 0.5], [0.5, 1.0]]), lower=np.zeros(2), upper=np.ones(2),
                 values=(LogValue(a=1.0, s=1.0),) * 2, costs=(QuadraticCost(c0=1.0),) * 2)
        f_common = AffineReparam(LogValue(a=1.0, s=1.0), scale=1.0, shift=1.0)
        with pytest.raises(InputError, match=r"does not cover .* \(at or below its log pole\)"):
            cert_near_potential(g, f_common)
        tried = [a for a in certify_any(g, f_common=f_common).attempts if a["theorem"] == "near_potential"]
        assert [(a["verdict"], a["margin"]) for a in tried] == [("inapplicable", None)]
        assert "does not cover" in tried[0]["reason"]


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

    def test_w0_with_nan_is_an_input_error(self):
        w0 = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InputError, match="W0 has non-finite entries"):
            cert_near_symmetric(quad_game(np.array([[1.0, 0.5], [0.5, 1.0]])), w0)

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


def written(rep):
    """A report as the CLI writes it, parsed back strictly."""
    return strict_loads(dumps_canonical(_certificate_doc(rep)))


class TestCertifyAny:
    def test_non_finite_margin_fails_with_a_reason(self):
        g = near_pole_game()
        rep = cert_near_individual(g)
        best = certify_any(g)
        assert math.isnan(rep.margin) and rep.verdict == "fail"
        assert rep.notes[-1].startswith("margin is nan")
        assert math.isnan(rep.slack)  # l0 * 0 = nan: no bound, like the margin
        assert written(rep)["slack"] is None and written(rep)["margin"] is None
        tried = {a["theorem"]: a for a in best.attempts}
        assert tried["near_individual"]["verdict"] == "fail"
        assert math.isnan(tried["near_individual"]["margin"])
        assert tried["near_individual"]["reason"] == rep.notes[-1]
        # the potential certificate's matrix holds a nan, on which the SVD does not converge
        assert tried["near_potential"]["verdict"] == "fail"
        assert tried["near_potential"]["reason"].startswith("margin is nan")

    def test_non_finite_numbers_written_as_null(self):
        docs = [written(rep) for rep in near_pole_reports(near_pole_game())]
        assert docs[1]["details"]["l0"] is None and docs[1]["details"]["c"] == 2.0
        assert docs[2]["details"]["sigma_i"] == [None] and docs[2]["matrix"] == [[None]]  # 1 of 1 stored
        assert docs[1]["matrix"] == {"cols": [], "rows": [], "vals": []}  # a 1x1 zero residual
        inf_at = np.zeros((3, 3))
        inf_at[1, 2] = math.inf
        rep = replace(cert_near_individual(near_pole_game()), matrix=inf_at)
        assert written(rep)["matrix"] == {"cols": [2], "rows": [1], "vals": [None]}

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
        # the two inapplicable theorems report margin -inf, written as null
        assert [math.isfinite(a["margin"]) for a in rep.attempts] == [True, False, True, False]
        assert rep.margin == max(a["margin"] for a in rep.attempts)
        assert [a["margin"] is None for a in written(rep)["attempts"]] == [False, True, False, True]
        # the clipped common value has a discontinuous f'' and W is not all-ones;
        # the symmetrized W of fig1a is indefinite
        reasons = [a["reason"] for a in rep.attempts]
        assert reasons[0] is None and reasons[2] is None
        assert reasons[1].startswith("not applicable")
        assert "not positive definite" in reasons[3]

    def test_report_serializes(self, fig1a_game):
        doc = written(certify_any(fig1a_game))
        assert doc["verdict"] in ("pass", "fail")
        assert len(doc["matrix"]) == 4
        assert doc["slack"] > 0
        assert len(doc["attempts"]) == 4
