"""Component kernels f(y | state) with sufficient-statistic bookkeeping.

A likelihood owns the current component state, counts the data in the
cluster (``card``), and maintains whatever statistics it needs to
evaluate the whole-cluster log density and to feed posterior updates.
Univariate kernels accept a scalar or a length-1 row as datum; the
multivariate normal accepts a length-d row.

The statistics are sums over the cluster's data of z = y - ``ref``, a
fixed reference: 0 unless a :class:`~mixmcmc.hierarchy.Hierarchy` sets it
to its prior's mean (``clone_empty`` copies it). The Gamma kernel's prior
has no mean, so it sums y. Centred on the prior mean the statistics keep
their precision for data far from the origin, and they are what the
conjugate posteriors read. ``stats`` is a list holding them. The samplers
recount them from their labels: ``stat_terms(data)`` gives every datum's
terms once per run (z and z^2 for the normal kernel), and the static
``label_stats(terms, labels, k)`` sums them for k clusters, each in index
order, into k statistic lists. ``update_stats(stats, z, add)``
changes a list in place for one datum; it serves ``add_datum`` and
``remove_datum`` (a newborn cluster, whose full conditional reads its one
datum) and Neal3's predictive scorers. ``lpdf`` scores one datum; the sweep
calls it only for a datum it draws from its log weights and for the state
Neal8 takes back from a datum's dead cluster.

``score_batch(batch, rows)`` scores a
:class:`~mixmcmc.states.StateBatch` against n data rows: a batch of shape
(n, m) row by row, datum i against the states of row i (Neal8's auxiliary
states), and one of shape (1, k) every datum against all k states (the
score table of the marginal sweep, all its clusters in one call). It and
``lpdf_grid`` go through one per-family formula that reads the state's
fields by name, so a state and a batch of states share it, and a batch's
score of (datum, state) has the bits of that state's own ``lpdf_grid``.

The normal and Laplace kernels also give the whole-cluster log density at
unconstrained states, which the Metropolis updater targets, in closed form
with its gradient. The static ``unconstrained_stats(likes, rows, labels)``
collects what k clusters' densities read: the normal kernel's recounted
statistics, or the data ``rows`` and their ``labels`` in 0..k-1 indexing
``likes``. The static ``unconstrained_lpdf(stats, u, grad=True)`` takes u
of shape (p, k) and returns the k clusters' densities and, unless ``grad``
is false (the random walk), their gradient, of shape (p, k). The other
kernels have neither.
"""

import math

import numpy as np

from ._util import LOG_2PI
from .states import GammaState, MultiLSState, UniLSState


def _as_scalar(datum):
    if isinstance(datum, (float, int)):
        return float(datum)
    arr = np.asarray(datum, dtype=float).reshape(-1)
    if arr.shape[0] != 1:
        raise ValueError(f"expected a univariate datum, got dimension {arr.shape[0]}")
    return float(arr[0])


def whiten_rows(chol_inv, diff):
    """Rows of diff mapped through the inverse Cholesky factor.

    Uses einsum (not a LAPACK batched solve) so each row's result is
    bitwise independent of how many rows are transformed together; scalar
    and grid evaluations therefore agree exactly. Leading axes broadcast,
    so a stack of factors whitens a stack of row sets.
    """
    return np.einsum("...ij,...kj->...ki", chol_inv, diff)


def squared_norm_rows(z):
    """Per-row squared Euclidean norm with fixed summation order."""
    return np.einsum("...ki,...ki->...k", z, z)


class _BaseLikelihood:
    _as_datum = staticmethod(_as_scalar)
    # the statistics sum z = y - ref
    ref = 0.0

    def __init__(self, state, stats):
        self.state = state
        self.stats = stats
        self.card = 0

    def clone_empty(self):
        """A cluster with no data, a copy of the state and the same reference."""
        clone = self._empty()
        clone.ref = self.ref
        return clone

    def add_datum(self, datum):
        # may reject the datum; the count stays clean
        self.update_stats(self.stats, self._as_datum(datum) - self.ref, True)
        self.card += 1

    def remove_datum(self, datum):
        if not self.card:
            raise ValueError("cannot remove a datum from an empty cluster")
        self.update_stats(self.stats, self._as_datum(datum) - self.ref, False)
        self.card -= 1

    @staticmethod
    def label_stats(terms, labels, k):
        """The statistic lists of k clusters: each row of ``stat_terms`` summed by label.

        ``np.bincount`` adds a bin's weights in the order they come, so each
        sum has the bits of a plain loop over the data in index order.
        """
        return list(map(list, zip(*[np.bincount(labels, row, k).tolist() for row in terms])))

    def lpdf(self, datum):
        return self._score(self._as_datum(datum))

    def lpdf_grid(self, grid):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim == 1:
            grid = grid.reshape(-1, 1)
        return self._lpdf_rows(grid)

    def _lpdf_rows(self, grid):
        if grid.shape[1] != 1:
            raise ValueError(f"expected 1 column, got {grid.shape[1]}")
        return self._log_density(self.state, grid[:, 0])

    def score_batch(self, batch, rows):
        """log f(rows[i] | batch state (i, j)) for a batch of shape (n, m) or (1, m), n rows."""
        return self._log_density(batch, rows[:, :1])


class UniNormLikelihood(_BaseLikelihood):
    """Univariate normal kernel N(y | mean, var) over a UniLSState."""

    is_multivariate = False

    def __init__(self, state=None):
        # stats: [sum of z, sum of z^2], z = y - ref
        super().__init__(state if state is not None else UniLSState(0.0, 1.0), [0.0, 0.0])

    def _empty(self):
        return UniNormLikelihood(self.state.copy())

    def stat_terms(self, data):
        """Every datum's z and z^2, shape (2, n)."""
        z = data[:, 0] - self.ref
        return np.array((z, z * z))

    @staticmethod
    def update_stats(stats, z, add):
        if add:
            stats[0] += z
            stats[1] += z * z
        else:
            stats[0] -= z
            stats[1] -= z * z

    def _score(self, y):
        st = self.state
        d = y - st.mean
        return -0.5 * (LOG_2PI + math.log(st.var)) - d * d / (2.0 * st.var)

    @staticmethod
    def _log_density(st, y):
        d = y - st.mean
        return -0.5 * (LOG_2PI + np.log(st.var)) - d * d / (2.0 * st.var)

    @staticmethod
    def unconstrained_stats(likes, rows, labels):
        """The k clusters' sizes n, sums S of z and Q of z^2 (arrays of k), and the reference."""
        n, centred_sum, centred_sum_squares = np.array(
            [(like.card, *like.stats) for like in likes]).T
        return n, centred_sum, centred_sum_squares, likes[0].ref

    @staticmethod
    def unconstrained_lpdf(stats, u, grad=True):
        """Sum of log N(y_i | mean, var) per cluster at u = (mean, log var), with gradient.

        With e = 1/var, d = mean - ref and q = sum (y_i - mean)^2 =
        Q + d (n d - 2 S), the value is -(n (log 2 pi + log var) + q e) / 2
        and the gradient (e (S - n d), (q e - n) / 2); None without ``grad``.
        """
        n, centred_sum, centred_sum_squares, ref = stats
        mean, logvar = u
        e = np.exp(-logvar)
        dev = mean - ref
        n_dev = n * dev
        quad_e = (centred_sum_squares + dev * (n_dev - 2.0 * centred_sum)) * e
        value = -0.5 * (n * (LOG_2PI + logvar) + quad_e)
        if not grad:
            return value, None
        return value, np.array([e * (centred_sum - n_dev), 0.5 * (quad_e - n)])


class MultiNormLikelihood(_BaseLikelihood):
    """Multivariate normal kernel N_d(y | mean, cov) over a MultiLSState."""

    is_multivariate = True

    def __init__(self, state):
        d = state.dim
        # stats: [sum of z, sum of z z^T], z = y - ref
        super().__init__(state, [np.zeros(d), np.zeros((d, d))])

    @property
    def dim(self):
        return self.state.dim

    def _empty(self):
        return MultiNormLikelihood(self.state.copy())

    def _as_datum(self, datum):
        y = np.asarray(datum, dtype=float).reshape(-1)
        if y.shape[0] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {y.shape[0]}")
        return y

    def stat_terms(self, data):
        """Every datum's z over z z^T, shape (n, d + 1, d)."""
        z = data - self.ref
        return np.concatenate((z[:, None, :], z[:, :, None] * z[:, None, :]), axis=1)

    @staticmethod
    def label_stats(terms, labels, k):
        # one bincount over every entry, each entry's bins in index order
        rows, d = terms.shape[1:]
        m = rows * d
        bins = (labels[:, None] * m + np.arange(m)).reshape(-1)
        sums = np.bincount(bins, terms.reshape(-1), k * m).reshape(k, rows, d)
        return [[cluster[0], cluster[1:]] for cluster in sums]

    @staticmethod
    def update_stats(stats, z, add):
        if add:
            stats[0] += z
            stats[1] += np.outer(z, z)
        else:
            stats[0] -= z
            stats[1] -= np.outer(z, z)

    def _constants(self, st):
        return st.mean, st.chol_inv, self.dim * LOG_2PI + st.log_det

    def _score(self, y):
        return float(_mvn_lpdf_rows(y.reshape(1, -1), *self._constants(self.state))[0])

    def _lpdf_rows(self, grid):
        if grid.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} columns, got {grid.shape[1]}")
        return _mvn_lpdf_rows(grid, *self._constants(self.state))

    def score_batch(self, batch, rows):
        # each (i, j) scores a one-row grid: rows (n, 1, 1, d) against means (n, m, 1, d)
        mean, chol_inv, log_norm = self._constants(batch)
        out = _mvn_lpdf_rows(rows[:, None, None, :], mean[..., None, :], chol_inv,
                             log_norm[..., None])
        return out[..., 0]


def _mvn_lpdf_rows(rows, mean, chol_inv, log_norm):
    quad = squared_norm_rows(whiten_rows(chol_inv, rows - mean))
    return -0.5 * (log_norm + quad)


class LaplaceLikelihood(_BaseLikelihood):
    """Laplace kernel with density exp(-|y - mean| / scale) / (2 scale).

    Reuses UniLSState with ``var`` holding the scale. The summed absolute
    deviation has no fixed-size sufficient statistic, so the cluster keeps
    none: it counts its data, and the Metropolis target reads the member
    data from the sampler's rows and labels.
    """

    is_multivariate = False

    def __init__(self, state=None):
        super().__init__(state if state is not None else UniLSState(0.0, 1.0), [])

    def _empty(self):
        return LaplaceLikelihood(self.state.copy())

    def stat_terms(self, data):
        return None

    @staticmethod
    def label_stats(terms, labels, k):
        return [[] for _ in range(k)]

    @staticmethod
    def update_stats(stats, z, add):
        pass

    def _score(self, y):
        scale = self.state.var
        return -math.log(2.0 * scale) - abs(y - self.state.mean) / scale

    @staticmethod
    def _log_density(st, y):
        scale = st.var
        return -np.log(2.0 * scale) - np.abs(y - st.mean) / scale

    @staticmethod
    def unconstrained_stats(likes, rows, labels):
        """The k clusters' sizes, every datum (N,), and the cluster of each datum."""
        return np.bincount(labels, minlength=len(likes)), rows[:, 0], labels

    @staticmethod
    def unconstrained_lpdf(stats, u, grad=True):
        """Sum of log Laplace(y_i | mean, scale) per cluster at u = (mean, log scale).

        With e = 1/scale, A = sum |y_i - mean| and S its slope in mean, the
        value is -n (log 2 + log scale) - A e and the gradient
        (-S e, A e - n); None without ``grad``. The slope of |y - mean| is
        -1 where y >= mean (ties included) and +1 below; A and S are summed
        per cluster by ``np.bincount``.
        """
        n, data, labels = stats
        mean, logscale = u
        dev = data - mean[labels]
        e = np.exp(-logscale)
        abs_sum_e = np.bincount(labels, np.abs(dev), len(n)) * e
        value = -n * (math.log(2.0) + logscale) - abs_sum_e
        if not grad:
            return value, None
        slope_sum = np.bincount(labels, np.where(dev >= 0, -1.0, 1.0), len(n))
        return value, np.array([-slope_sum * e, abs_sum_e - n])


_NOT_POSITIVE = "Gamma likelihood requires positive data"


class GammaLikelihood(_BaseLikelihood):
    """Gamma kernel with fixed shape and random rate, for positive data.

    lpdf(y) = shape*log(rate) - lgamma(shape) + (shape-1)*log(y) - rate*y
    for y > 0 and -inf otherwise. Tracks the data sum (the reference is 0)
    and the size, all the conjugate rate update reads.
    """

    is_multivariate = False

    def __init__(self, shape, state=None):
        if shape <= 0:
            raise ValueError("shape must be positive")
        # stats: [sum of y]
        super().__init__(state if state is not None else GammaState(shape, 1.0), [0.0])
        self.shape = float(shape)

    def _empty(self):
        return GammaLikelihood(self.shape, self.state.copy())

    def add_datum(self, datum):
        if _as_scalar(datum) <= 0:
            raise ValueError(_NOT_POSITIVE)
        super().add_datum(datum)

    def stat_terms(self, data):
        """Every datum's y, shape (1, n)."""
        if (data[:, 0] <= 0).any():
            raise ValueError(_NOT_POSITIVE)
        return data.T

    @staticmethod
    def update_stats(stats, z, add):
        if add:
            stats[0] += z
        else:
            stats[0] -= z

    def _score(self, y):
        if y <= 0:
            return -math.inf
        s, r = self.state.shape, self.state.rate
        return s * math.log(r) - math.lgamma(s) + (s - 1.0) * math.log(y) - r * y

    @staticmethod
    def _log_density(st, y):
        s, r = st.shape, st.rate  # one kernel shape for a whole batch
        with np.errstate(divide="ignore", invalid="ignore"):
            out = s * np.log(r) - math.lgamma(s) + (s - 1.0) * np.log(y) - r * y
        return np.where(y > 0, out, -np.inf)
