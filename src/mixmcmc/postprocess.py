"""Chain-derived summaries: clustering point estimates and MCMC diagnostics.

The Binder point estimate is computed from the integer co-clustering counts
of the T retained records on n data. Every intermediate is an integer of
magnitude at most T * n^2, exact in float64 while T * n^2 < 2^53, so the
losses are exact and the earliest record wins an exact tie.
"""

import numpy as np

from ._util import log_mean_exp


def allocation_matrix(collector):
    """Stack the allocation vectors of every record into a (T, n) int array."""
    rows = [record.allocations for record in collector]
    if not rows:
        raise ValueError("empty chain")
    return np.vstack(rows)


def num_clusters_chain(collector):
    """Number of distinct allocation values per record."""
    return np.array([record.num_clusters() for record in collector], dtype=int)


# one-hot entries per block of records (1 MB): bounds the working memory
_ONE_HOT_BLOCK = 1 << 17


def _one_hot_blocks(allocs):
    """One-hot encode a (T, n) allocation matrix, a block of records at a time.

    Yields each block's rows and its (n, rows * k) one-hot matrix, with
    record t's label h in column t * k + h, k the largest label plus one.
    """
    t, n = allocs.shape
    k = int(allocs.max()) + 1
    block = max(1, _ONE_HOT_BLOCK // (n * k))
    for start in range(0, t, block):
        rows = allocs[start:start + block]
        one_hot = np.zeros((n, rows.shape[0] * k))
        one_hot[np.arange(n), rows + k * np.arange(rows.shape[0])[:, None]] = 1.0
        yield rows, one_hot


def _coclustering(allocs):
    """Co-clustering counts of a (T, n) allocation matrix.

    N[i, j] is the number of records in which data i and j share a label
    (N[i, i] = T), summed over one-hot blocks by one matrix product each.
    The counts are integers, exact in floating point, so they do not
    depend on the block size.
    """
    n = allocs.shape[1]
    counts = np.zeros((n, n))
    for _, one_hot in _one_hot_blocks(allocs):
        counts += one_hot @ one_hot.T
    return counts


def _binder_argmin(allocs, counts):
    """Index of the allocation row minimizing expected Binder loss; earliest wins ties.

    ``counts`` are the co-clustering counts N of the T records. With
    S = sum_{i<j} N_ij, record t's loss times T is

        S + T*n + T * sum_h C(n_th, 2) - q_t,    q_t = sum_h 1_h' N 1_h,

    over its clusters h of sizes n_th, and q_t comes from one product of
    N with each one-hot block. Every term is an integer at most T * n^2,
    exact in float64 while T * n^2 < 2^53, so equal losses compare equal
    and ``argmin`` returns the earliest exact minimum.
    """
    t, n = allocs.shape
    pairs = (counts.sum() - t * n) / 2
    losses = []
    for rows, one_hot in _one_hot_blocks(allocs):
        sizes = one_hot.sum(axis=0)
        per_label = t * sizes * (sizes - 1) / 2 - ((counts @ one_hot) * one_hot).sum(axis=0)
        losses.append(per_label.reshape(rows.shape[0], -1).sum(axis=1))
    return int(np.argmin(pairs + t * n + np.concatenate(losses)))


def binder_best_clustering(collector):
    """Visited partition minimizing expected Binder loss; earliest wins ties.

    The loss is exact (see ``_binder_argmin``): it is computed from the
    integer co-clustering counts, so exact ties go to the earliest record.
    """
    allocs = allocation_matrix(collector)
    return allocs[_binder_argmin(allocs, _coclustering(allocs))].copy()


def autocorrelation(x, max_lag):
    """Normalized autocorrelations rho(0..max_lag), biased 1/T estimator.

    A constant series has gamma(0) = 0; by convention rho(0) = 1 and all
    later lags are 0.
    """
    x = np.asarray(x, dtype=float)
    t = x.shape[0]
    if t == 0:
        raise ValueError("empty series")
    max_lag = min(int(max_lag), t - 1)
    centered = x - x.mean()
    size = 1
    while size < 2 * t:
        size *= 2
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[: max_lag + 1] / t
    if acov[0] <= 0:
        out = np.zeros(max_lag + 1)
        out[0] = 1.0
        return out
    return acov / acov[0]


def ess(x):
    """Effective sample size via paired-autocorrelation truncation.

    Uses the initial monotone positive sequence on sums of adjacent
    autocorrelation pairs; the result is clamped to (0, T]. A constant
    series has ESS = T by convention.
    """
    x = np.asarray(x, dtype=float)
    t = x.shape[0]
    if t == 0:
        raise ValueError("empty series")
    if t == 1:
        return 1.0
    rho = autocorrelation(x, t - 1)
    if np.all(x == x[0]):
        return float(t)
    n_pairs = (rho.shape[0]) // 2
    pair_sums = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    tau = 0.0
    prev = np.inf
    found = False
    for gamma in pair_sums:
        if gamma <= 0:
            break
        gamma = min(gamma, prev)
        tau += 2.0 * gamma
        prev = gamma
        found = True
    tau -= 1.0
    if not found or tau <= 0:
        return float(t)
    return float(min(t / tau, t))


def log_mean_density(lpdf_matrix):
    """Pointwise log of the across-records mean density (log-mean-exp).

    This is the Monte Carlo estimate of the posterior predictive density,
    returned on the log scale.
    """
    arr = np.asarray(lpdf_matrix, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return log_mean_exp(arr, axis=0)


def mean_log_density(lpdf_matrix):
    """Pointwise mean of the per-record log densities (exp-of-mean-log variant)."""
    arr = np.asarray(lpdf_matrix, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr.mean(axis=0)
