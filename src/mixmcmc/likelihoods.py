"""Component kernels f(y | state) with sufficient-statistic bookkeeping.

A likelihood owns the current component state, counts the data in the
cluster (``card``), and maintains whatever statistics it needs to
evaluate the whole-cluster log density and to feed posterior updates.
Univariate kernels accept a scalar or a length-1 row as datum; the
multivariate normal accepts a length-d row.

The marginal sweep's cluster store works with two more pieces of each
family: ``stats`` is a list holding the sufficient statistics, and
``update_stats(stats, datum_id, y, add)`` changes such a list in place for
one datum; the store calls it directly and writes each ``card`` back once
per sweep. ``lpdf`` scores one datum; the sweep
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
collects what k clusters' densities read: the data ``rows`` and their
``labels`` in 0..k-1 indexing ``likes``. The static
``unconstrained_lpdf(stats, u)`` takes u of shape (p, k) and returns the
k clusters' densities and their gradient, of shape (p, k). The other
kernels have neither.
"""

import math
from collections import namedtuple

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


# What a conjugate posterior update reads of a cluster: its size and the
# likelihood's statistic list. Likelihoods themselves have both attributes.
ClusterStats = namedtuple("ClusterStats", ("card", "stats"))


class _BaseLikelihood:
    _as_datum = staticmethod(_as_scalar)

    def __init__(self, state, stats):
        self.state = state
        self.stats = stats
        self.card = 0

    def add_datum(self, datum_id, datum):
        # may reject the datum; the count stays clean
        self.update_stats(self.stats, datum_id, self._as_datum(datum), True)
        self.card += 1

    def remove_datum(self, datum_id, datum):
        if not self.card:
            raise ValueError(f"cannot remove datum id {datum_id} from an empty cluster")
        self.update_stats(self.stats, datum_id, self._as_datum(datum), False)
        self.card -= 1

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
        # stats: [sum of y, sum of y^2]
        super().__init__(state if state is not None else UniLSState(0.0, 1.0), [0.0, 0.0])

    @property
    def data_sum(self):
        return self.stats[0]

    @property
    def data_sum_squares(self):
        return self.stats[1]

    def clone_empty(self):
        return UniNormLikelihood(self.state.copy())

    @staticmethod
    def update_stats(stats, datum_id, y, add):
        if add:
            stats[0] += y
            stats[1] += y * y
        else:
            stats[0] -= y
            stats[1] -= y * y

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
        """Rows (size, sum of y, sum of y^2) over k clusters, a (3, k) array of running sums."""
        return np.array([(like.card, *like.stats) for like in likes]).T

    @staticmethod
    def unconstrained_lpdf(stats, u):
        """Sum of log N(y_i | mean, var) per cluster at u = (mean, log var), with gradient.

        With e = 1/var and q = sum (y_i - mean)^2, the value is
        -(n (log 2 pi + log var) + q e) / 2 and the gradient
        (e (sum y_i - n mean), (q e - n) / 2).
        """
        n, data_sum, data_sum_squares = stats
        mean, logvar = u
        e = np.exp(-logvar)
        n_mean = n * mean
        quad_e = (data_sum_squares + mean * (n_mean - 2.0 * data_sum)) * e
        value = -0.5 * (n * (LOG_2PI + logvar) + quad_e)
        return value, np.array([e * (data_sum - n_mean), 0.5 * (quad_e - n)])


class MultiNormLikelihood(_BaseLikelihood):
    """Multivariate normal kernel N_d(y | mean, cov) over a MultiLSState."""

    is_multivariate = True

    def __init__(self, state):
        d = state.dim
        # stats: [sum of y, sum of y y^T]
        super().__init__(state, [np.zeros(d), np.zeros((d, d))])

    @property
    def dim(self):
        return self.state.dim

    @property
    def data_sum(self):
        return self.stats[0]

    @property
    def data_sum_outer(self):
        return self.stats[1]

    def clone_empty(self):
        return MultiNormLikelihood(self.state.copy())

    def _as_datum(self, datum):
        y = np.asarray(datum, dtype=float).reshape(-1)
        if y.shape[0] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {y.shape[0]}")
        return y

    @staticmethod
    def update_stats(stats, datum_id, y, add):
        if add:
            stats[0] += y
            stats[1] += np.outer(y, y)
        else:
            stats[0] -= y
            stats[1] -= np.outer(y, y)

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

    def clone_empty(self):
        return LaplaceLikelihood(self.state.copy())

    @staticmethod
    def update_stats(stats, datum_id, y, add):
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
    def unconstrained_lpdf(stats, u):
        """Sum of log Laplace(y_i | mean, scale) per cluster at u = (mean, log scale).

        With e = 1/scale, A = sum |y_i - mean| and S its slope in mean, the
        value is -n (log 2 + log scale) - A e and the gradient
        (-S e, A e - n). The slope of |y - mean| is -1 where y >= mean (ties
        included) and +1 below; A and S are summed per cluster by
        ``np.bincount``.
        """
        n, data, labels = stats
        mean, logscale = u
        dev = data - mean[labels]
        e = np.exp(-logscale)
        abs_sum_e = np.bincount(labels, np.abs(dev), len(n)) * e
        slope_sum = np.bincount(labels, np.where(dev >= 0, -1.0, 1.0), len(n))
        value = -n * (math.log(2.0) + logscale) - abs_sum_e
        return value, np.array([-slope_sum * e, abs_sum_e - n])


class GammaLikelihood(_BaseLikelihood):
    """Gamma kernel with fixed shape and random rate, for positive data.

    lpdf(y) = shape*log(rate) - lgamma(shape) + (shape-1)*log(y) - rate*y
    for y > 0 and -inf otherwise. Tracks the data sum and the size, all the
    conjugate rate update reads.
    """

    is_multivariate = False

    def __init__(self, shape, state=None):
        if shape <= 0:
            raise ValueError("shape must be positive")
        # stats: [sum of y]
        super().__init__(state if state is not None else GammaState(shape, 1.0), [0.0])
        self.shape = float(shape)

    @property
    def data_sum(self):
        return self.stats[0]

    def clone_empty(self):
        return GammaLikelihood(self.shape, self.state.copy())

    def add_datum(self, datum_id, datum):
        if _as_scalar(datum) <= 0:
            raise ValueError("Gamma likelihood requires positive data")
        super().add_datum(datum_id, datum)

    @staticmethod
    def update_stats(stats, datum_id, y, add):
        if add:
            stats[0] += y
        else:
            stats[0] -= y

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
