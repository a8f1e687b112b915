import itertools
import math
import re
import warnings

import case1_oracle
import numpy as np
import pytest

from netgoods.casestudy import (
    case2_pipeline,
    closed_form_delta_mean,
    closed_form_delta_sq_mean,
    closed_form_delta_var,
    coupling_residual,
    delta_row_stats,
    monte_carlo_case1,
    random_er_game,
    random_upper_triangular,
    sigma_inf_bound,
)
from netgoods.equilibrium import verify_ne
from netgoods.errors import InputError


def philox(seed: int, stream: int) -> np.random.Generator:
    """numpy's Philox generator keyed by (seed, stream): the float draw the raw-word sampler reproduces."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


class TestRandomErGame:
    def test_zero_probability_identity(self):
        g = random_er_game(6, 0.0, 3.0, 1.0, 1.0, seed=1)
        assert np.array_equal(g.w, np.eye(6))

    def test_density_matches_probability(self):
        # p = p0/n = 0.02; 50*49 = 2450 Bernoulli draws per sample
        n, p0 = 50, 1.0
        count = 0
        trials = 40
        for s in range(trials):
            g = random_er_game(n, p0, 3.0, 1.0, 1.0, seed=1000 + s)
            count += int(g.w.sum() - n)
        total = trials * n * (n - 1)
        p_hat = count / total
        se = math.sqrt(0.02 * 0.98 / total)
        assert abs(p_hat - 0.02) < 5 * se

    def test_deterministic_per_seed(self):
        a = random_er_game(20, 1.5, 3.0, 1.0, 1.0, seed=42)
        b = random_er_game(20, 1.5, 3.0, 1.0, 1.0, seed=42)
        assert np.array_equal(a.w, b.w)
        c = random_er_game(20, 1.5, 3.0, 1.0, 1.0, seed=43)
        assert not np.array_equal(a.w, c.w)

    def test_box_top_is_dominated(self):
        g = random_er_game(5, 1.0, 3.0, 1.0, 1.0, seed=9)
        assert g.upper[0] == 2.5  # a/(2b) + 1
        # at the top of the box the own marginal value is zero but cost bites
        x = np.full(5, 2.5)
        from netgoods.game import pseudo_gradient

        assert np.all(pseudo_gradient(g, x) < 0)

    def test_invalid_probability(self):
        with pytest.raises(InputError):
            random_er_game(4, 8.0, 3.0, 1.0, 1.0, seed=0)


class TestRandomUpperTriangular:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 64])
    @pytest.mark.parametrize("density", [0.0, 5e-324, 0.1, 1 / 3, 0.5, math.nextafter(1.0, 0.0), 1.0])
    def test_is_the_float_draw_on_stream_1(self, n, density):
        # the strict upper triangle, row by row, holds numpy's uniforms below the density on stream 1
        m = n * (n - 1) // 2
        for seed in (0, 1, 5, 123456789, 2**64 - 1):
            want = np.eye(n)
            want[np.triu_indices(n, k=1)] = philox(seed, 1).random(m) < density
            w = random_upper_triangular(n, density, seed)
            assert w.dtype == float and np.array_equal(w, want)


@pytest.mark.parametrize("call, message", [
    (lambda: random_upper_triangular(4, -0.1, 1), r"density must lie in \[0, 1\], got -0.1"),
    (lambda: random_upper_triangular(4, 1.5, 1), r"density must lie in \[0, 1\], got 1.5"),
    (lambda: random_upper_triangular(4, math.nan, 1), r"density must lie in \[0, 1\], got nan"),
    (lambda: random_er_game(0, 1.0, 3.0, 1.0, 1.0, seed=1), "need n >= 1, got 0"),
], ids=["density-below", "density-above", "density-nan", "er-n0"])
def test_network_draw_refusals(call, message):
    with pytest.raises(InputError, match=message):
        call()


class TestDeltaRowStats:
    def test_identity(self):
        delta, inf_norm = delta_row_stats(np.eye(4))
        assert np.array_equal(delta, np.zeros(4))
        assert inf_norm == 0.0

    def test_hand_enumerated_three_player(self):
        # only in-edges 2->1 and 3->1: delta_1 = 2*2 + 0
        w = np.eye(3)
        w[1, 0] = 1.0
        w[2, 0] = 1.0
        delta, inf_norm = delta_row_stats(w)
        assert delta[0] == 4.0
        assert inf_norm == 4.0

    def test_formula_equals_matrix_inf_norm(self):
        # the definition, counted edge by edge: delta_i = 2 * indegree_i plus, for
        # every in-neighbour k of i, k's out-edges to targets other than i and k
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            w = (rng.random((n, n)) < 0.15).astype(float)
            np.fill_diagonal(w, 1.0)
            expected = np.zeros(n)
            for i in range(n):
                for k in range(n):
                    if k != i and w[k, i] == 1.0:
                        expected[i] += 2 + sum(w[k, j] == 1.0 for j in range(n) if j not in (i, k))
            delta, inf_norm = delta_row_stats(w)
            assert np.array_equal(delta, expected)
            assert inf_norm == float(np.max(expected))
            assert inf_norm == float(np.max(coupling_residual(w).sum(axis=1)))

    def test_stacks_match_the_residual_row_sums(self):
        # the degree identity against the residual itself, densities from none to complete;
        # _degree_stats reads a stack of edge matrices, each W's residual is formed on its own
        from netgoods.casestudy import _degree_stats
        from netgoods.certificates import _peak

        rng = np.random.default_rng(5)
        for density in (0.0, 0.05, 0.3, 0.7, 1.0):
            for n in (1, 2, 7, 30):
                ws = (rng.random((5, n, n)) < density).astype(float)
                ws[:, range(n), range(n)] = 1.0
                _, peaks = _degree_stats((ws == 1.0) & ~np.eye(n, dtype=bool))
                for w, peak in zip(ws, peaks):
                    residual = coupling_residual(w)
                    delta, inf_norm = delta_row_stats(w)
                    assert delta.tobytes() == residual.sum(axis=-1).tobytes()
                    assert inf_norm == residual.sum(axis=-1).max()
                    assert peak == _peak(residual)

    def test_rejects_non_binary(self):
        w = np.eye(2)
        w[0, 1] = 0.5
        with pytest.raises(InputError, match="0/1"):
            delta_row_stats(w)

    def test_rejects_nan_diagonal(self):
        w = np.eye(4)
        w[2, 2] = math.nan
        with pytest.raises(InputError, match="unit diagonal"):
            delta_row_stats(w)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (2, 3), (4,), (0, 0)])
    def test_rejects_a_shape_other_than_one_square_matrix(self, shape):
        with pytest.raises(InputError, match=re.escape(f"need a non-empty square matrix, got shape {shape}")):
            delta_row_stats(np.ones(shape))


class TestCouplingResidual:
    @staticmethod
    def definition(w, gamma):
        n = w.shape[0]
        return np.array([[sum(gamma[k] * abs(w[k, i]) * abs(w[k, j]) for k in range(n) if k != i)
                          for j in range(n)] for i in range(n)])

    def test_non_unit_diagonal_follows_the_definition(self):
        # |W|^T|W| - |W| reads 2 at (0, 0) here; the sum over k != 0 is 0
        w = np.array([[2.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(coupling_residual(w), self.definition(w, np.ones(2)))
        assert coupling_residual(w)[0, 0] == 0.0

    def test_weights_and_stacks(self):
        rng = np.random.default_rng(8)
        gamma = rng.uniform(0.5, 2.0, size=5)
        for w in rng.normal(size=(4, 5, 5)):
            r = coupling_residual(w, gamma)
            assert np.allclose(r, self.definition(w, gamma), rtol=1e-13, atol=0.0)
            # the weights scale W's rows: gamma = ones gives the unweighted residual's bits
            assert np.array_equal(coupling_residual(w, np.ones(5)), coupling_residual(w))

    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 4, 4), (2, 3), (4,)])
    def test_rejects_a_shape_other_than_one_square_matrix(self, shape):
        # a stack of W would otherwise come back as a (4, 4, 4) array of wrong sums
        with pytest.raises(InputError, match=re.escape(f"need a square matrix, got shape {shape}")):
            coupling_residual(np.ones(shape))

    def test_is_the_near_individual_matrix(self):
        from netgoods.certificates import cert_near_individual

        g = random_er_game(30, 2.0, 3.0, 1.0, 1.0, seed=21)
        assert np.array_equal(coupling_residual(g.w), cert_near_individual(g).matrix)


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p0_frac", [0.3, 0.8])
    def test_moments_by_exhaustive_enumeration(self, n, p0_frac):
        # weight every off-diagonal 0/1 matrix by its exact probability
        p = p0_frac * 1.0  # probability itself; p0 = p*n below
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        e1 = e2 = 0.0
        for bits in itertools.product([0, 1], repeat=len(off)):
            w = np.eye(n)
            for (i, j), bit in zip(off, bits):
                w[i, j] = bit
            k = sum(bits)
            weight = p**k * (1 - p) ** (len(off) - k)
            delta, _ = delta_row_stats(w)
            e1 += weight * delta[0]
            e2 += weight * float(delta[0] ** 2)
        p0 = p * n
        assert e1 == pytest.approx(closed_form_delta_mean(n, p0), abs=1e-12)
        assert e2 == pytest.approx(closed_form_delta_sq_mean(n, p0), abs=1e-10)
        var = e2 - e1**2
        assert var == pytest.approx(closed_form_delta_var(n, p0), abs=1e-10)

    def test_reference_values_n50(self):
        assert closed_form_delta_mean(50, 1.0) == pytest.approx(2.9008)
        assert sigma_inf_bound(50, 1.0) == pytest.approx(3.0 + math.sqrt(1100.0))
        assert sigma_inf_bound(50, 1.0) == pytest.approx(36.17, abs=0.01)

    @pytest.mark.parametrize("form, n, p0", [
        (sigma_inf_bound, 10**103, 1e103),  # p0**3 is out of float range
        (closed_form_delta_var, 10**200, 1e200),  # (n - 1)(n - 2)**3 is too large for a float
        (closed_form_delta_mean, 10**400, 1.0),  # n itself is
        (sigma_inf_bound, 10**250, 1e100),  # n * 4p0**3 rounds to inf
        (sigma_inf_bound, 10**103, np.float64(1e103)),  # a numpy p0 does not warn
    ], ids=["bound-pow", "var-int", "mean-n", "bound-inf", "bound-numpy"])
    def test_no_finite_value_refused_naming_n_and_p0(self, form, n, p0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=re.escape(f"no finite float value at n = {n}, p0 = {p0}") + "$"):
                form(n, p0)

    @pytest.mark.parametrize("form, n, p0, reason", [
        (closed_form_delta_mean, 0, 1.0, "need n >= 1, got 0"),  # divided by zero
        (sigma_inf_bound, -3, 1.0, "need n >= 1, got -3"),  # a square root of a negative
        (sigma_inf_bound, 5, -1.0, "edge probability p0/n = -0.2 outside [0, 1]"),
        (closed_form_delta_mean, 5, -1.0, "edge probability p0/n = -0.2 outside [0, 1]"),  # a negative mean
        (closed_form_delta_var, 5, 10.0, "edge probability p0/n = 2.0 outside [0, 1]"),  # a negative variance
        (closed_form_delta_sq_mean, 10, 1e78, "edge probability p0/n = 1e+77 outside [0, 1]"),
        (closed_form_delta_var, np.int64(10**6), np.float64(1e300), "edge probability p0/n = 1e+294 outside [0, 1]"),
        (closed_form_delta_mean, 8, math.nan, "edge probability p0/n = nan outside [0, 1]"),
    ], ids=["mean-n0", "bound-n-negative", "bound-p0-negative", "mean-p0-negative", "var-p-above-1",
            "sq-mean-p-huge", "var-numpy", "mean-nan"])
    def test_outside_the_domain_refused_naming_n_and_p0(self, form, n, p0, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"{form.__name__} at n = {n}, p0 = {p0}: {reason}"
            with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
                form(n, p0)

    def test_values_kept_where_finite(self):
        # the refusal wraps each formula without touching its arithmetic
        assert repr(closed_form_delta_mean(8, 1.0)) == "2.40625"
        assert repr(closed_form_delta_var(50, 1.0)) == "9.336624639999997"
        assert repr(sigma_inf_bound(50, 1.0)) == "36.166247903554"
        assert closed_form_delta_var(10**6, np.float64(1.0)) == closed_form_delta_var(10**6, 1.0)
        assert closed_form_delta_var(np.int64(10**6), 1.0) == closed_form_delta_var(10**6, 1.0)  # no int64 wrap
        # both ends of the edge probability's range are in the domain
        assert closed_form_delta_mean(8, 0.0) == 0.0 and sigma_inf_bound(8, 0.0) == 0.0
        assert closed_form_delta_mean(8, 8.0) == 2 * 7 + 7 * 6

    def test_variance_below_dimension_free_bound(self):
        for n in (5, 20, 50, 200):
            for p0 in (0.3, 1.0, 2.0):
                assert closed_form_delta_var(n, p0) <= 4 * p0 + 5 * p0**2 + 2 * p0**3


@pytest.fixture(scope="module")
def report():
    return monte_carlo_case1(20, 1.0, 3.0, 1.0, 1.0, samples=400, seed=11)


@pytest.fixture
def chunks_of(monkeypatch):
    """``chunks_of(n, size)`` sets the entry budget to ``size`` samples of n*n entries (None keeps it); it
    returns the list of the sample counts that ``_edges`` is then called with, one entry per drawn chunk."""
    from netgoods import casestudy

    drawn, draw = [], casestudy._edges

    def edges(n, p, seeds):
        drawn.append(len(seeds))
        return draw(n, p, seeds)

    def chunks_of(n, size):
        if size is not None:
            monkeypatch.setattr(casestudy, "CHUNK_ENTRIES", size * n * n)
        monkeypatch.setattr(casestudy, "_edges", edges)
        return drawn

    return chunks_of


class TestMonteCarloCase1:
    def test_moments_within_confidence(self, report):
        assert abs(report.emp_delta_mean - report.closed_delta_mean) <= 4 * report.se_delta_mean
        assert abs(report.emp_delta_var - report.closed_delta_var) <= 4 * report.se_delta_var

    def test_bound_fraction(self, report):
        assert report.frac_inf_norm_within >= 0.5
        assert 0.0 <= report.frac_certificate <= 1.0

    def test_replays_bit_identical(self):
        a = monte_carlo_case1(10, 1.0, 3.0, 1.0, 1.0, samples=100, seed=5)
        b = monte_carlo_case1(10, 1.0, 3.0, 1.0, 1.0, samples=100, seed=5)
        assert a.emp_delta_mean == b.emp_delta_mean
        assert np.array_equal(a.inf_norms, b.inf_norms)
        assert np.array_equal(a.sigma_maxes, b.sigma_maxes)
        assert a.sample_seeds == b.sample_seeds

    def test_samples_match_per_game_route(self, chunks_of):
        # 100 samples in chunks of 32 end in a partial chunk; every sample must
        # give what the game random_er_game draws for its seed gives on its own
        from netgoods.casestudy import sample_seed
        from netgoods.certificates import spectral_bounds

        drawn = chunks_of(12, 32)
        rep = monte_carlo_case1(12, 2.0, 3.0, 1.0, 1.0, samples=100, seed=6)
        assert drawn == [32, 32, 32, 4]
        drawn.clear()
        rep.sigma_maxes  # drawn again in the same chunks
        assert drawn == [32, 32, 32, 4]
        for s in range(100):
            w = random_er_game(12, 2.0, 3.0, 1.0, 1.0, sample_seed(6, s)).w
            assert rep.sigma_maxes[s] == spectral_bounds(coupling_residual(w))[0]
            assert rep.inf_norms[s] == delta_row_stats(w)[1]

    @pytest.mark.parametrize("n, p0, c0, peaks_below", [
        (5, 0.5, 1.0, "some"), (5, 0.5, 5.0, "all"), (5, 0.5, 40.0, "all"),
        (12, 2.0, 1.0, "none"), (12, 2.0, 5.0, "some"), (12, 2.0, 40.0, "all"),
        (50, 1.0, 1.0, "none"), (50, 1.0, 5.0, "some"), (50, 1.0, 40.0, "all"),
    ])
    def test_certificate_fraction_is_the_share_of_sigma_maxes_below(self, n, p0, c0, peaks_below):
        # the Monte Carlo fails a sample whose residual peak reaches the threshold
        # without bounding it; the bounds read later must give the same fraction
        from netgoods.casestudy import _edges
        from netgoods.certificates import _peak

        threshold = c0 / 2.0
        rep = monte_carlo_case1(n, p0, 3.0, 1.0, c0, samples=100, seed=3)
        below = np.array([_peak(coupling_residual(e + np.eye(n))) < threshold
                          for e in _edges(n, p0 / n, rep.sample_seeds)])
        assert {0: "none", 100: "all"}.get(int(below.sum()), "some") == peaks_below
        assert rep.frac_certificate == float(np.mean(rep.sigma_maxes < threshold))
        assert rep.frac_certificate == float(np.mean(rep.certified))
        assert np.array_equal(rep.certified, rep.sigma_maxes < threshold)

    def test_no_eigen_solve_when_every_peak_reaches_the_threshold(self, monkeypatch):
        # at n = 50, p0 = 1 every sample has an edge, so its residual has an integer
        # entry >= 1 > c0/(2b) = 0.5: no residual is formed and none is bounded
        from netgoods import casestudy

        def refuse(*args):
            raise AssertionError("a residual was formed or bounded")

        monkeypatch.setattr(casestudy, "_sigma_bound", refuse)
        monkeypatch.setattr(casestudy, "coupling_residual", refuse)
        rep = monte_carlo_case1(50, 1.0, 3.0, 1.0, 1.0, samples=100, seed=808)
        assert rep.frac_certificate == 0.0
        assert "sigma_maxes" not in vars(rep)
        monkeypatch.undo()
        sigma = rep.sigma_maxes  # computed on first read
        assert rep.sigma_maxes is sigma
        assert sigma.shape == (100,) and np.all(sigma >= 0.5)

    def test_partial_buckets_keep_sample_order(self, chunks_of):
        # at n = 5, p0 = 0.5 the residuals of one chunk have 0 to 4 non-zero rows;
        # each sample keeps the bound of its residual alone, in sample order
        from netgoods.casestudy import sample_seed
        from netgoods.certificates import _sigma_bound

        drawn = chunks_of(5, 32)
        rep = monte_carlo_case1(5, 0.5, 3.0, 1.0, 1.0, samples=100, seed=12)
        rep.sigma_maxes
        assert drawn == [32, 32, 32, 4] * 2  # the Monte Carlo's chunks, then the column's
        residuals = [coupling_residual(random_er_game(5, 0.5, 3.0, 1.0, 1.0, sample_seed(12, s)).w)
                     for s in range(100)]
        counts = [int(r.any(axis=1).sum()) for r in residuals]
        assert 0 in counts
        for lo in range(0, 100, 32):  # every chunk, the partial last one too, mixes row counts
            assert len(set(counts[lo:lo + 32])) >= 2
        for s, r in enumerate(residuals):
            assert rep.sigma_maxes[s] == _sigma_bound(r)[0]
        assert np.all(rep.sigma_maxes[np.array(counts) == 0] == 0.0)

    def test_er_matrix_keeps_the_per_seed_stream(self):
        # the chunk buffer draws what one (n, n) draw per seed gave, and random_er_game draws one seed's
        from netgoods.casestudy import _edges, sample_seed

        seeds = [sample_seed(13, s) for s in range(5)]
        ws = _edges(20, 0.1, seeds) + np.eye(20)
        for w, seed in zip(ws, seeds):
            want = (philox(seed, 0).random((20, 20)) < 0.1).astype(float)
            np.fill_diagonal(want, 1.0)
            assert np.array_equal(w, want)
            assert np.array_equal(random_er_game(20, 2.0, 3.0, 1.0, 1.0, seed).w, want)  # p0/n = 0.1
        # n*n not a multiple of Philox's 4-word block: a stale buffer would leak into the next sample
        for n in (5, 7):
            ws = _edges(n, 0.3, seeds) + np.eye(n)
            for w, seed in zip(ws, seeds):
                want = (philox(seed, 0).random((n, n)) < 0.3).astype(float)
                np.fill_diagonal(want, 1.0)
                assert np.array_equal(w, want)
            assert np.array_equal(_edges(n, 0.3, seeds[:2])[1], _edges(n, 0.3, seeds[1:2])[0])

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 5e-324, 1 / 50, 1 / 3, 0.5, 1 - 2.0**-53, 1.0])
    def test_integer_threshold_at_its_boundary(self, p):
        # a word r draws the double m * 2**-53, m = r >> 11, and is an edge when m < c = ceil(p * 2**53);
        # the one compare r < c * 2**11 must agree on hand-made words at both ends of the word range,
        # on each side of c * 2**11 (no word at p = 1, where it is 2**64) under four patterns of
        # the 11 dropped bits, and on random words
        from netgoods.casestudy import _threshold

        c = math.ceil(math.ldexp(p, 53))
        t = _threshold(p)
        assert t == c << 11
        crafted = [w for m in (c - 1, c) if 0 <= m < 2**53 for w in (m << 11, m << 11 | 1, m << 11 | 0x5A5,
                                                                        m << 11 | 2**11 - 1)]
        crafted += [0, t - 1, t, 2**64 - 1]
        words = np.array([w for w in crafted if 0 <= w < 2**64], dtype=np.uint64)
        words = np.concatenate([words, np.random.Philox(key=[3, 0]).random_raw(1000)])
        got = np.less(words, t)
        assert got.dtype == bool and got.shape == words.shape
        assert np.array_equal(got, (words >> np.uint64(11)) < np.uint64(c))  # c <= 2**53 fits a uint64
        assert np.array_equal(got, (words >> np.uint64(11)) * 2.0**-53 < p)  # the double numpy draws
        if 0 < c < 2**53:  # the word c * 2**11 is the first that fails: a compare r <= c * 2**11 would take it
            assert np.less(np.array([t - 1, t], dtype=np.uint64), t).tolist() == [True, False]

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 1 / 50, 0.5, 1 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("stream", [0, 1])
    def test_one_compare_is_the_float_draw(self, p, stream):
        # every row of the sampler is numpy's own uniforms below p for its (seed, stream) key
        from netgoods.casestudy import _bernoulli, sample_seed

        seeds = [0, 2**64 - 1] + [sample_seed(21, s) for s in range(6)]
        rows = _bernoulli(p, seeds, 997, stream)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, philox(seed, stream).random(997) < p)
        if p in (0.0, 1.0):  # no word is below t = 0, and every word is below t = 2**64
            assert np.all(rows == (p == 1.0))

    @pytest.mark.parametrize("n", [1, 5, 7, 20])
    @pytest.mark.parametrize("p", [0.0, 5e-324, 0.1, 1 / 3, 0.5, math.nextafter(1.0, 0.0), 1.0])
    def test_edges_are_the_float_draw(self, n, p):
        # the integer comparison draws what numpy's uniforms below p draw, off the diagonal
        from netgoods.casestudy import _edges, sample_seed

        seeds = [sample_seed(14, s) for s in range(6)]
        for edges, seed in zip(_edges(n, p, seeds), seeds):
            want = philox(seed, 0).random((n, n)) < p
            np.fill_diagonal(want, False)
            assert edges.dtype == bool and np.array_equal(edges, want)

    @pytest.mark.parametrize("n, p0s", [(1, (0.0, 0.5, 1.0)), (5, (0.0, 0.5, 1.0, 2.0, 5.0)),
                                        (12, (0.0, 0.5, 1.0, 2.0, 12.0)), (50, (0.0, 0.5, 1.0, 2.0, 50.0))])
    @pytest.mark.parametrize("size, chunks", [(32, [32, 32, 32, 4]), (None, [100])])
    def test_bits_equal_the_dense_oracle(self, n, p0s, size, chunks, chunks_of):
        # 100 samples in chunks of 32 end in a partial chunk, and the default budget draws them
        # in one (n <= 51); every column and moment keeps the dense route's bits
        drawn = chunks_of(n, size)
        for p0 in p0s:
            for c0 in (1.0, 5.0, 40.0):
                drawn.clear()
                rep = monte_carlo_case1(n, p0, 3.0, 1.0, c0, samples=100, seed=n + 17)
                assert drawn == chunks
                want = case1_oracle.case1(n, p0, 1.0, c0, samples=100, seed=n + 17)
                for key in ("emp_delta_mean", "emp_delta_var", "se_delta_mean", "se_delta_var"):
                    assert repr(getattr(rep, key)) == repr(want[key]), (p0, c0, key)
                for key in ("inf_norms", "certified", "sigma_maxes"):
                    got = getattr(rep, key)
                    assert got.dtype == want[key].dtype and got.tobytes() == want[key].tobytes(), (p0, c0, key)

    @pytest.mark.parametrize("n, seeds, chunks", [
        (5, 250, [250]), (50, 250, [104, 104, 42]), (362, 5, [2, 2, 1]), (363, 3, [1, 1, 1]), (512, 2, [1, 1]),
    ])
    def test_chunks_are_sized_in_entries(self, monkeypatch, n, seeds, chunks):
        # max(1, 2**18 // n**2) samples to a chunk: 104 at n = 50, one from n = 363 on
        from netgoods import casestudy

        monkeypatch.setattr(casestudy, "_edges", lambda n, p, seeds: seeds)
        drawn = list(casestudy._edge_chunks(n, 0.1, list(range(seeds))))
        assert [len(c) for c in drawn] == chunks
        assert [s for c in drawn for s in c] == list(range(seeds))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 99])
    @pytest.mark.parametrize("count", [1, 100, 1000])
    def test_vectorized_keys_are_numpy_seed_sequence(self, seed, count):
        # 1-, 2-, 3- and 5-word seeds; with the index word, 2**130 + 99 overfills the 4-word pool
        from netgoods.casestudy import _sample_seeds, sample_seed

        assert _sample_seeds(seed, count) == [sample_seed(seed, s) for s in range(count)]

    def test_parameters_checked_up_front(self):
        with pytest.raises(InputError, match="edge probability"):
            monte_carlo_case1(4, 8.0, 3.0, 1.0, 1.0, samples=100, seed=5)
        with pytest.raises(InputError, match="c0"):
            monte_carlo_case1(4, 1.0, 3.0, 1.0, -1.0, samples=100, seed=5)

    def test_sample_count_guard(self):
        with pytest.raises(InputError):
            monte_carlo_case1(10, 1.0, 3.0, 1.0, 1.0, samples=50, seed=5)

    def test_sample_count_above_one_key_word_refused_before_drawing(self, monkeypatch):
        from netgoods import casestudy

        def unreachable(*args):
            raise AssertionError("drew keys for a refused sample count")

        monkeypatch.setattr(casestudy, "_sample_seeds", unreachable)
        with pytest.raises(InputError, match="2\\*\\*32"):
            monte_carlo_case1(10, 1.0, 3.0, 1.0, 1.0, samples=2**32 + 1, seed=5)

    def test_negative_seed_refused(self):
        with pytest.raises(InputError, match="seed"):
            monte_carlo_case1(10, 1.0, 3.0, 1.0, 1.0, samples=100, seed=-1)

    @pytest.mark.parametrize("n, p0, c0, want", [
        (3, 0.5, 1.0, 0.325), (5, 0.5, 1.0, 0.1425), (4, 1.0, 2.0, 0.0275),
    ])
    def test_certificate_fraction_is_the_share_without_edges(self, n, p0, c0, want):
        # with c0/(2b) in (0, 1] an edge puts an entry >= 1 into the residual, and a W
        # without one has a zero residual, so a sample is certified exactly when W = I
        from netgoods.casestudy import _edges

        rep = monte_carlo_case1(n, p0, 3.0, 1.0, c0, samples=400, seed=7)
        edgeless = ~np.any(_edges(n, p0 / n, rep.sample_seeds), axis=(1, 2))
        assert rep.frac_certificate == float(np.mean(edgeless)) == want

    def test_seeds_above_one_key_word_keep_working(self):
        # case-1 draws are keyed by SeedSequence outputs, so any non-negative seed works
        rep = monte_carlo_case1(5, 1.0, 3.0, 1.0, 1.0, samples=100, seed=2**64 + 3)
        assert rep.seed == 2**64 + 3 and max(rep.sample_seeds) < 2**64


class TestSeedRange:
    """One Philox key word holds a seed: seeds outside [0, 2**64) are refused, not masked."""

    def test_largest_seed_accepted(self):
        from netgoods.casestudy import random_upper_triangular

        top = 2**64 - 1
        assert random_er_game(6, 2.0, 3.0, 1.0, 1.0, seed=top).w.shape == (6, 6)
        assert random_upper_triangular(6, 0.5, top).shape == (6, 6)
        assert case2_pipeline(3, 3.0, 1.0, 1.0, 0.5, seed=top).seed == top

    def test_seed_past_one_key_word_refused(self):
        from netgoods.casestudy import _bernoulli, _edges

        bad = 2**64 + 5
        with pytest.raises(InputError, match=r"seed must lie in \[0, 2\*\*64\), got 18446744073709551621"):
            random_er_game(6, 2.0, 3.0, 1.0, 1.0, seed=bad)
        with pytest.raises(InputError, match=r"\[0, 2\*\*64\)"):
            random_upper_triangular(6, 0.5, bad)
        with pytest.raises(InputError, match=r"\[0, 2\*\*64\)"):
            case2_pipeline(3, 3.0, 1.0, 1.0, 0.5, seed=bad)
        with pytest.raises(InputError, match=r"\[0, 2\*\*64\)"):
            random_er_game(6, 2.0, 3.0, 1.0, 1.0, seed=-1)
        for key in (bad, -1):  # the chunked draw refuses rather than masks, on either stream
            with pytest.raises(OverflowError):
                _edges(6, 0.3, [key])
            with pytest.raises(OverflowError):
                _bernoulli(0.5, [key], 15, stream=1)


class TestCase2Pipeline:
    def test_two_player_full_density(self):
        rep = case2_pipeline(2, 3.0, 1.0, 1.0, density=1.0, seed=2, x_upper=1.5)
        assert np.allclose(rep.x_backward, [1 / 3, 1.0], atol=1e-9)
        assert rep.certificate.passed
        assert rep.certificate.margin > 0
        assert rep.mapped_ne_verified
        assert rep.solver_vs_backward < 1e-6
        assert rep.solver_vs_transformed < 1e-6
        assert rep.epsilon == pytest.approx(0.225)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_certificate_passes_for_small_n(self, n):
        rep = case2_pipeline(n, 3.0, 1.0, 1.0, density=1.0, seed=7, x_upper=1.5)
        assert rep.certificate.passed
        assert rep.certificate.margin > 0
        assert rep.solver_vs_backward < 1e-6
        assert rep.solver_vs_transformed < 1e-6
        third = float(np.max(np.abs(rep.x_backward - rep.x_transformed_back)))
        assert third < 1e-6  # all three routes agree pairwise

    def test_zero_density_identity(self):
        rep = case2_pipeline(3, 3.0, 1.0, 1.0, density=0.0, seed=3)
        assert np.array_equal(rep.w, np.eye(3))
        assert rep.certificate.passed
        # per-player optimum a/(2b + c0) = 1, inside the default box [0, 1.5]
        assert np.allclose(rep.x_backward, 1.0, atol=1e-10)

    def test_overflow_guard(self):
        with pytest.raises(InputError, match="overflow"):
            case2_pipeline(14, 3.0, 1.0, 1.0, density=1.0, seed=1)

    def test_end_to_end_ne_is_real(self):
        rep = case2_pipeline(4, 3.0, 1.0, 1.0, density=0.6, seed=8)
        from netgoods.functions import QuadraticClippedValue, QuadraticCost
        from netgoods.game import Game

        game = Game(
            w=rep.w, lower=np.zeros(4), upper=np.full(4, 1.5),
            values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(4)),
            costs=tuple(QuadraticCost(c0=1.0) for _ in range(4)),
        )
        assert verify_ne(game, rep.x_backward, 1e-8)[0]

    def test_moments_match_per_sample_statistics(self):
        # the stacked delta statistics give the moments of the one-matrix route, bit for bit
        from netgoods.casestudy import sample_seed

        rep = monte_carlo_case1(12, 2.0, 3.0, 1.0, 1.0, samples=100, seed=6)
        deltas = [delta_row_stats(random_er_game(12, 2.0, 3.0, 1.0, 1.0, sample_seed(6, s)).w)[0]
                  for s in range(100)]
        means = np.array([float(np.mean(d)) for d in deltas])
        sq_means = np.array([float(np.mean(d**2)) for d in deltas])
        assert rep.emp_delta_mean == float(np.mean(means))
        assert rep.emp_delta_var == float(np.mean(sq_means)) - float(np.mean(means)) ** 2
        assert rep.se_delta_var == float(np.std(sq_means - means**2, ddof=1) / np.sqrt(100))
