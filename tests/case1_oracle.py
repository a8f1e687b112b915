"""The dense case-1 route, the reference of the degree route's bit-pinning tests.

Each sample's W is drawn as ``Generator(Philox(key=(seed, 0))).random((n, n)) < p``
with a unit diagonal, from the float uniforms.  Every statistic is read from
each sample's coupling residual, formed on its own: delta_i is row i's sum,
the infinity norm its maximum, a sample whose residual ``_peak`` reaches
c0/(2b) fails, and the rest, like every ``sigma_maxes`` entry, are decided by
``_sigma_bound`` on the residual alone.  ``monte_carlo_case1`` reads degrees
and integer thresholds instead, and must give the same bits.
"""

import math

import numpy as np

from netgoods.casestudy import sample_seed
from netgoods.certificates import _peak, _sigma_bound, coupling_residual


def er_matrix(n: int, p: float, seed: int) -> np.ndarray:
    """Unit-diagonal W whose off-diagonal entries are the seed's Philox uniforms below p."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    w = (rng.random((n, n)) < p).astype(float)
    np.fill_diagonal(w, 1.0)
    return w


def residuals(n: int, p0: float, samples: int, seed: int) -> list[np.ndarray]:
    """The samples' coupling residuals, one (n, n) matrix each."""
    return [coupling_residual(er_matrix(n, p0 / n, sample_seed(seed, s))) for s in range(samples)]


def case1(n: int, p0: float, b: float, c0: float, samples: int, seed: int) -> dict:
    """The Monte Carlo's moments and per-sample columns, from each sample's residual."""
    residual = residuals(n, p0, samples, seed)
    threshold = c0 / (2.0 * b)
    delta = np.array([r.sum(axis=-1) for r in residual])
    means, sq_means = np.mean(delta, axis=-1), np.mean(delta**2, axis=-1)
    sigma_maxes = np.array([_sigma_bound(r)[0] for r in residual])
    certified = np.array([_peak(r) < threshold for r in residual])
    certified[certified] = sigma_maxes[certified] < threshold
    emp_mean = float(np.mean(means))
    return {
        "emp_delta_mean": emp_mean,
        "emp_delta_var": float(np.mean(sq_means)) - emp_mean**2,
        "se_delta_mean": float(np.std(means, ddof=1) / math.sqrt(samples)),
        "se_delta_var": float(np.std(sq_means - means**2, ddof=1) / math.sqrt(samples)),
        "inf_norms": delta.max(axis=-1),
        "certified": certified,
        "sigma_maxes": sigma_maxes,
    }
