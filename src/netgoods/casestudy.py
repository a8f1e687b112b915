"""Random-network case studies for the homogeneous clipped-quadratic family.

Case 1 draws directed Erdos-Renyi interaction matrices (edge probability
p0/n), measures the coupling statistic delta_i whose maximum is the infinity
norm of the weak-coupling residual matrix, and compares empirical moments to
exact closed forms plus the Chebyshev-style tail bound.  Case 2 runs the
upper-triangular pipeline: scale-normalize, certify near-symmetric, and
cross-check the solver against backward induction through the equivalence map.
Both draw their networks with one keyed Bernoulli sampler (``_bernoulli``):
raw Philox words against an integer threshold, on stream 0 for case 1 and
stream 1 for case 2.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .certificates import CertificateReport, _sigma_bound, cert_near_symmetric, coupling_residual
from .equilibrium import backward_induction, solve_ne, verify_ne
from .equivalence import auto_epsilon, map_profile, transform_game, upper_triangular_normalizer
from .errors import InputError, check_shape
from .functions import QuadraticClippedValue, QuadraticCost
from .game import Game

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), which _sample_seeds replays
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
#: case-1 entries per drawn chunk: max(1, CHUNK_ENTRIES // n**2) samples, so a chunk's bool edge array
#: and edge lists stay near this size at any n
CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Case1Report:
    """Monte Carlo summary for the random-network uniqueness condition.

    Per sample, ``within_bound`` says whether its ``inf_norms`` entry is at
    most ``bound``, ``certified`` whether its coupling residual's sigma_max
    bound lies below c0/(2b); the ``frac_*`` properties are their shares.
    ``sigma_maxes`` holds those bounds, computed on first read.
    """

    n: int
    p0: float
    samples: int
    seed: int
    sample_seeds: list[int]
    emp_delta_mean: float
    emp_delta_var: float
    se_delta_mean: float
    se_delta_var: float
    closed_delta_mean: float
    closed_delta_var: float
    bound: float
    inf_norms: np.ndarray
    within_bound: np.ndarray
    certified: np.ndarray

    @property
    def frac_inf_norm_within(self) -> float:
        return float(np.mean(self.within_bound))

    @property
    def frac_certificate(self) -> float:
        return float(np.mean(self.certified))

    @functools.cached_property
    def sigma_maxes(self) -> np.ndarray:
        """Each sample's ``_sigma_bound`` of its coupling residual, from its W drawn again by its seed.

        The edges are drawn again in the chunks of ``monte_carlo_case1``
        (``_edge_chunks``, about ``CHUNK_ENTRIES`` entries each), and each
        sample's residual is formed and bounded on its own.
        """
        chunks = _edge_chunks(self.n, _edge_probability(self.n, self.p0), self.sample_seeds)
        return np.array([_sigma_bound(_residual(e))[0] for edges in chunks for e in edges])


@dataclass(frozen=True)
class Case2Report:
    """Upper-triangular pipeline outcome for one sampled network."""

    n: int
    density: float
    seed: int
    epsilon: float
    w: np.ndarray
    scaling: np.ndarray
    certificate: CertificateReport
    x_solver: np.ndarray
    x_backward: np.ndarray
    x_transformed_back: np.ndarray
    solver_vs_backward: float
    solver_vs_transformed: float
    mapped_ne_verified: bool


def _key(seed: int) -> int:
    """The seed as one Philox key word; InputError outside [0, 2**64), where seeds would alias."""
    if not 0 <= seed <= _MASK64:
        raise InputError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def sample_seed(seed: int, index: int) -> int:
    """Per-sample key derived from (seed, index); independent of drawing order.

    The first uint64 of ``SeedSequence([seed, index])``; ``_sample_seeds``
    derives a run of them at once.
    """
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def _hash_schedule(init: int, mult: int):
    """SeedSequence's (xor, multiplier) hash constants, as Python ints masked to 32 bits.

    The schedule does not depend on the data, so a column of samples shares
    it, and no numpy scalar overflows.
    """
    while True:
        xor, init = init, init * mult & _MASK32
        yield xor, init


def _hash(value: np.ndarray, schedule) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 column, with the schedule's next constants."""
    xor, mult = next(schedule)
    value = (value ^ xor) * mult
    return value ^ value >> XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ result >> XSHIFT


def _sample_seeds(seed: int, count: int) -> list[int]:
    """``[sample_seed(seed, s) for s in range(count)]``, from one vectorized pass.

    Replays SeedSequence's entropy mixing on uint32 columns with one entry
    per sample: the entropy words are the seed's (least significant first)
    and then the index, which fits one word since ``count <= 2**32``.  The
    pool of ``POOL_SIZE`` words is hashed, mixed and extended exactly as
    numpy does it, and its first two output words join little-endian into
    one uint64.
    """
    seed = int(seed)
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = [np.full(count, word, dtype=np.uint32) for word in words]
    entropy.append(np.arange(count, dtype=np.uint32))

    schedule = _hash_schedule(INIT_A, MULT_A)
    zeros = np.zeros(count, dtype=np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zeros, schedule) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], schedule))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, schedule))

    schedule = _hash_schedule(INIT_B, MULT_B)
    low, high = (_hash(word, schedule).astype(np.uint64) for word in pool[:2])
    return (low | high << 32).tolist()


def _edge_probability(n: int, p0: float) -> float:
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    p = p0 / n
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability p0/n = {p} outside [0, 1]")
    return p


def _threshold(p: float) -> int:
    """t = ceil(p * 2**53) * 2**11: a Philox word r draws a uniform below p exactly when r < t.

    numpy's Philox double is m * 2**-53 with m = r >> 11, exactly, and
    p * 2**53 is exact too, so m * 2**-53 < p holds exactly when m < c =
    ceil(p * 2**53), and for integers m < c holds exactly when r < c * 2**11.
    t is a Python int, since t = 2**64 at p = 1 fits no uint64.
    """
    return math.ceil(math.ldexp(p, 53)) << 11


def _below(words: np.ndarray, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """Whether each Philox word's double lies below p, for t = ``_threshold(p)``: one compare per word.

    numpy compares a uint64 array with a Python int exactly: numpy 2 by its
    Python-int comparison loops, numpy 1.x in uint64 up to 2**64 - 1 and as
    Python objects at t = 2**64 (p = 1), where every word lies below t.  At
    t = 0 (p = 0) none does.
    """
    return np.less(words, t, out=out)


def _bernoulli(p: float, seeds, count: int, stream: int = 0) -> np.ndarray:
    """(S, count) bool Bernoulli(p) entries, one row per seed, keyed by (seed, stream).

    Each row is ``Generator(Philox(key=(seed, stream))).random(count) < p``,
    read from the raw words with one compare each (``_below``): one Philox
    generator is re-keyed from one reused state dict, with counter 0 and an
    empty buffer, before each draw, so no bits of one row reach the next.
    Each seed must lie in [0, 2**64): numpy refuses any other key word with
    an ``OverflowError`` (the public entry points check theirs with ``_key``
    for an InputError).
    """
    words_shape = check_shape((count,), "n")  # the uint64 words of one draw
    out = np.empty(check_shape((len(seeds), count), "n", itemsize=1), dtype=bool)
    t = _threshold(p)
    bits = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, stream)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k, seed in enumerate(seeds):
        state["state"]["key"] = (seed, stream)
        bits.state = state
        _below(bits.random_raw(words_shape), t, out=out[k])
    return out


def _edges(n: int, p: float, seeds) -> np.ndarray:
    """(S, n, n) bool edges, Bernoulli(p) off the diagonal and false on it: the seeds' stream-0 ``_bernoulli`` draws."""
    edges = _bernoulli(p, seeds, n * n)
    edges[:, ::n + 1] = False
    return edges.reshape(len(seeds), n, n)


def _edge_chunks(n: int, p: float, seeds):
    """The seeds' ``_edges``, max(1, ``CHUNK_ENTRIES`` // n**2) seeds to a chunk.

    That is 104 samples at n = 50 and one from n = 363 on (from n = 512 on,
    one sample holds more entries than the budget), and only the last
    chunk can be partial.
    """
    size = max(1, CHUNK_ENTRIES // (n * n))
    for lo in range(0, len(seeds), size):
        yield _edges(n, p, seeds[lo:lo + size])


def _residual(edges: np.ndarray) -> np.ndarray:
    """The coupling residual of W = edges + I, for one (n, n) edge matrix."""
    return coupling_residual(edges + np.eye(len(edges)))


def _degree_stats(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(delta, peak) of the residuals of W = edges + I, from an (S, n, n) bool stack with a false diagonal.

    sigma_ij = sum_{k != i} w_ki w_kj, so row i sums to
    delta_i = sum_{k != i} w_ki (1 + outdeg_k), and sigma_ij <= sigma_ii =
    indeg_i makes the largest in-degree the residual's ``_peak``.  Both are
    integer counts, tallied by ``bincount`` over the edge list, so the (S, n)
    float deltas and the (S,) peaks equal the residuals' row sums and peaks
    bit for bit in any summation order.
    """
    s, n = edges.shape[:2]
    rows, cols = np.divmod(np.flatnonzero(edges), n)  # rows number (sample, source) pairs
    cols += rows // n * n  # and now cols number (sample, target) pairs
    outdeg = np.bincount(rows, minlength=s * n)
    # float even without edges, where bincount ignores the weights and counts in ints
    delta = np.bincount(cols, weights=(1.0 + outdeg)[rows], minlength=s * n).astype(float, copy=False)
    indeg = np.bincount(cols, minlength=s * n)
    return delta.reshape(s, n), indeg.reshape(s, n).max(axis=-1)


def _homogeneous_game(w: np.ndarray, x_hi: float, a: float, b: float, c0: float) -> Game:
    """The game on W whose players share the box [0, x_hi], the value {a, b} and the cost {c0}."""
    n = len(w)
    return Game(w=w, lower=np.zeros(n), upper=np.full(n, x_hi),
                values=(QuadraticClippedValue(a=a, b=b),) * n, costs=(QuadraticCost(c0=c0),) * n)


def random_er_game(n: int, p0: float, a: float, b: float, c0: float, seed: int) -> Game:
    """Directed Erdos-Renyi game: off-diagonal w_ij ~ Bernoulli(p0/n), unit diagonal.

    Homogeneous clipped-quadratic values {a, b} and quadratic costs {c0}; the
    action box is [0, a/(2b) + 1], whose top is strictly dominated.  Entries
    come from a counter-based generator keyed by the seed (in [0, 2**64)), so
    any entry is reproducible independent of how many samples are drawn
    around it.
    """
    w = _edges(n, _edge_probability(n, p0), [_key(seed)])[0] + np.eye(n)
    return _homogeneous_game(w, a / (2.0 * b) + 1.0, a, b, c0)


def delta_row_stats(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Row statistics delta_i = 2*indegree_i + paired-out-edge count, and max_i delta_i.

    delta_i is row i's sum of the coupling residual, so the maximum is the
    residual's infinity norm; both are read from W's degrees
    (``_degree_stats``).  W must be a 0/1 (n, n) matrix with unit diagonal.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or not 0 < w.shape[0] == w.shape[1]:
        raise InputError(f"need a non-empty square matrix, got shape {w.shape}")
    if np.any(np.diag(w) != 1.0):  # a nan diagonal entry fails too
        raise InputError("need unit diagonal")
    if not np.all((w == 0.0) | (w == 1.0)):  # the diagonal passed already
        raise InputError("need 0/1 off-diagonal entries")
    delta = _degree_stats(((w == 1.0) & ~np.eye(len(w), dtype=bool))[None])[0][0]
    return delta, float(delta.max())


def _closed_form(formula):
    """The closed form of (n, p0) in Python numbers, or InputError naming n and p0 outside its domain or float range.

    (n, p0) must satisfy the Monte Carlo's rule (``_edge_probability``: n >= 1
    and p0/n in [0, 1], so a nan p0 is refused).  An OverflowError (an int too
    large for a float, a power out of range) and a product rounded to inf are
    both refused; numpy scalars neither wrap nor warn.
    """
    @functools.wraps(formula)
    def closed_form(n: int, p0: float) -> float:
        n, p0 = operator.index(n), float(p0)
        try:
            _edge_probability(n, p0)
        except InputError as exc:
            raise InputError(f"{formula.__name__} at n = {n}, p0 = {p0}: {exc}") from None
        except OverflowError:  # n beyond the float range, where the formula overflows too
            pass
        try:
            value = formula(n, p0)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise InputError(f"{formula.__name__} has no finite float value at n = {n}, p0 = {p0}")
        return value
    return closed_form


@_closed_form
def closed_form_delta_mean(n: int, p0: float) -> float:
    p = p0 / n
    return 2 * (n - 1) * p + (n - 1) * (n - 2) * p**2


@_closed_form
def closed_form_delta_sq_mean(n: int, p0: float) -> float:
    # exact second moment, verified against exhaustive enumeration for small n
    p = p0 / n
    return (
        4 * (n - 1) * p
        + 9 * (n - 1) * (n - 2) * p**2
        + (n - 1) * (n - 2) * (5 * n - 11) * p**3
        + (n - 1) * (n - 2) ** 3 * p**4
    )


@_closed_form
def closed_form_delta_var(n: int, p0: float) -> float:
    return closed_form_delta_sq_mean(n, p0) - closed_form_delta_mean(n, p0) ** 2


@_closed_form
def sigma_inf_bound(n: int, p0: float) -> float:
    """Mean-plus-tail bound 2p0 + p0^2 + sqrt(n(8p0 + 10p0^2 + 4p0^3)).

    Chebyshev at probability 1/2 with the dimension-free variance bound, so
    at least half of sampled networks satisfy max_i delta_i <= this value.
    """
    return 2 * p0 + p0**2 + math.sqrt(n * (8 * p0 + 10 * p0**2 + 4 * p0**3))


def monte_carlo_case1(
    n: int, p0: float, a: float, b: float, c0: float, samples: int, seed: int
) -> Case1Report:
    """Sample games, compare delta moments to closed forms, measure both fractions.

    The certificate fraction instantiates the weak-coupling theorem for the
    homogeneous family: curvature c0 against Lipschitz constant 2b, so the
    condition is sigma_max(residual) < c0/(2b), with sigma_max bounded from
    above.  Only each sample's W is drawn (as ``random_er_game`` draws it),
    keyed by ``sample_seed(seed, s)``; ``_sample_seeds`` derives all those
    keys in one pass, which limits ``samples`` to 2**32.  The edges come as
    bool arrays of about ``CHUNK_ENTRIES`` entries, max(1, CHUNK_ENTRIES // n**2)
    samples each (``_edge_chunks``, whose ``_edges`` compare each raw Philox
    word once with an integer threshold), and every statistic is read
    from their degrees (``_degree_stats``): delta_i, its maximum (the
    residual's infinity norm) and the residual's largest entry (``_peak``),
    all integers, with the bits the residual itself gives.  Each verdict
    (``Case1Report.certified``) is decided from a bracket: sigma_max is at
    least that largest entry, so a sample whose peak reaches the threshold
    fails without forming its residual, and only the others get theirs,
    one at a time, for ``_sigma_bound`` (at c0 = b = 1, only samples without
    an edge).  That bound is floored at the peak, so each verdict is
    whether ``Case1Report.sigma_maxes`` lies below the threshold; those
    bounds are computed only when that column is read.
    """
    if not 100 <= samples <= 1 << 32:
        raise InputError(f"need 100 <= samples <= 2**32, got {samples}")
    check_shape((n, n), "n")  # one draw's Philox words, before any arithmetic on n can overflow
    p = _edge_probability(n, p0)
    # the family constructors validate a, b and c0, as building each game did
    QuadraticClippedValue(a=a, b=b)
    QuadraticCost(c0=c0)
    seeds = _sample_seeds(seed, samples)
    bound = sigma_inf_bound(n, p0)
    threshold = c0 / (2.0 * b)

    chunks = []  # per chunk: the delta means, delta square means, infinity norms and verdicts
    for edges in _edge_chunks(n, p, seeds):
        delta, peaks = _degree_stats(edges)
        below = peaks < threshold  # the rest fail: sigma_max >= peak >= threshold
        below[below] = [_sigma_bound(_residual(e))[0] < threshold for e in edges[below]]
        chunks.append((np.mean(delta, axis=-1), np.mean(delta**2, axis=-1), delta.max(axis=-1), below))
    means, sq_means, inf_norms, certified = map(np.concatenate, zip(*chunks))

    emp_mean = float(np.mean(means))
    emp_var = float(np.mean(sq_means)) - emp_mean**2
    # across-sample spread of per-sample statistics; samples are independent
    se_mean = float(np.std(means, ddof=1) / math.sqrt(samples))
    var_samples = sq_means - means**2
    se_var = float(np.std(var_samples, ddof=1) / math.sqrt(samples))
    return Case1Report(
        n=n, p0=p0, samples=samples, seed=seed, sample_seeds=seeds,
        emp_delta_mean=emp_mean, emp_delta_var=emp_var, se_delta_mean=se_mean, se_delta_var=se_var,
        closed_delta_mean=closed_form_delta_mean(n, p0), closed_delta_var=closed_form_delta_var(n, p0),
        bound=bound, inf_norms=inf_norms, within_bound=inf_norms <= bound, certified=certified,
    )


def random_upper_triangular(n: int, density: float, seed: int) -> np.ndarray:
    """Unit-diagonal 0/1 matrix with Bernoulli(density) strict upper entries, row by row.

    The ``_bernoulli`` draw on Philox stream 1 keyed by the seed, which must
    lie in [0, 2**64).
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must lie in [0, 1], got {density}")
    check_shape((n, n), "n")
    w = np.eye(n)
    w[np.triu_indices(n, k=1)] = _bernoulli(density, [_key(seed)], n * (n - 1) // 2, stream=1)[0]
    return w


def case2_pipeline(
    n: int, a: float, b: float, c0: float, density: float, seed: int,
    x_upper: float | None = None,
) -> Case2Report:
    """Sample an upper-triangular network and run the full uniqueness pipeline.

    Normalizes with the auto-chosen scaling, certifies the transformed game
    near-symmetric against the identity, solves the original game with the
    contraction iteration, and cross-checks against backward induction plus
    the inverse-mapped transformed-game solution.
    """
    x_hi = a / (2.0 * b) if x_upper is None else float(x_upper)
    w = random_upper_triangular(n, density, seed)
    game = _homogeneous_game(w, x_hi, a, b, c0)
    eps = auto_epsilon(game)
    if -n * math.log10(eps) > 12.0:  # eps^-n, the largest scaling, > 1e12; eps**-n itself can overflow
        raise InputError(f"scaling overflow: eps^-n = 10^{-n * math.log10(eps):.3g} exceeds 1e12")
    emap = upper_triangular_normalizer(game, eps=eps)
    g2 = transform_game(game, emap)
    cert = cert_near_symmetric(g2, np.eye(n))

    x_solver = solve_ne(game, tol=1e-11).x_star
    x_backward = backward_induction(game)
    # the transformed game's fields scale like 1/d_i^2; the per-player weights
    # undo that so the iteration is as well-conditioned as the original
    res2 = solve_ne(g2, gamma=emap.d**2, tol=1e-11)
    x_back_mapped = map_profile(emap, res2.x_star, "inverse")
    mapped_ok = verify_ne(g2, map_profile(emap, x_backward, "forward"), 1e-8)[0]
    return Case2Report(
        n=n, density=density, seed=seed, epsilon=eps,
        w=w, scaling=emap.d, certificate=cert,
        x_solver=x_solver, x_backward=x_backward,
        x_transformed_back=x_back_mapped,
        solver_vs_backward=float(np.max(np.abs(x_solver - x_backward))),
        solver_vs_transformed=float(np.max(np.abs(x_solver - x_back_mapped))),
        mapped_ne_verified=mapped_ok,
    )
