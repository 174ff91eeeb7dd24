"""Chain-derived summaries: clustering point estimates and MCMC diagnostics."""

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


def similarity_matrix(collector):
    """Posterior co-clustering frequencies: pi[i, j] = mean of 1{c_i == c_j}."""
    return _coclustering(allocation_matrix(collector))


# one-hot entries per block of records (1 MB): bounds the working memory
_ONE_HOT_BLOCK = 1 << 17


def _coclustering(allocs):
    """Co-clustering frequencies of a (T, n) allocation matrix.

    Each block of records is one-hot encoded, record t's label h in column
    t * k + h, and one matrix product counts the records in which two data
    share a label. The counts are integers, exact in floating point, so the
    result does not depend on the block size.
    """
    t, n = allocs.shape
    k = int(allocs.max()) + 1
    block = max(1, _ONE_HOT_BLOCK // (n * k))
    counts = np.zeros((n, n))
    for start in range(0, t, block):
        rows = allocs[start:start + block]
        one_hot = np.zeros((n, rows.shape[0] * k))
        cols = rows + k * np.arange(rows.shape[0])[:, None]
        one_hot[np.arange(n), cols] = 1.0
        counts += one_hot @ one_hot.T
    return counts / t


def binder_loss(labels, similarity):
    """Posterior expected Binder loss of one partition, unit costs."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(labels.shape[0], k=1)
    pi = similarity[iu]
    return float(np.sum(np.where(same[iu], 1.0 - pi, pi)))


def _binder_argmin(allocs, similarity):
    """Index of the allocation row minimizing expected Binder loss; earliest wins ties."""
    best, best_loss = None, np.inf
    for t, row in enumerate(allocs):
        loss = binder_loss(row, similarity)
        if loss < best_loss:
            best, best_loss = t, loss
    return best


def binder_best_clustering(collector):
    """Visited partition minimizing expected Binder loss; earliest wins ties."""
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
