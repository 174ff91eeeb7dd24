"""Component kernels f(y | state) with sufficient-statistic bookkeeping.

A likelihood owns the current component state, counts the data in the
cluster (``card``), and maintains whatever statistics it needs to
evaluate the whole-cluster log density and to feed posterior updates.
Univariate kernels accept a scalar or a length-1 row as datum; the
multivariate normal accepts a length-d row.

The marginal sweep's score table reads a cluster's scores as one
``lpdf_grid`` column: every datum of a block in one array call. Its
cluster store works with two more pieces of each family: ``stats`` is a
list holding the sufficient statistics, and
``update_stats(stats, datum_id, y, add)`` changes such a list in place for
one datum; the store calls it directly and writes each ``card`` back once
per sweep. ``lpdf`` scores one datum; the sweep
calls it only for a datum it draws from its log weights and for the state
Neal8 takes back from a datum's dead cluster.

For Neal8's auxiliary states, ``score_batch(batch, rows)`` scores a
:class:`~mixmcmc.states.StateBatch` of shape (n, m) against n data rows,
row i of the batch at datum i. It and ``lpdf_grid`` go through one
per-family formula that reads the state's fields by name, so a state and a
batch of states share it.

The normal and Laplace kernels also give the whole-cluster log density at
an unconstrained state vector, which the Metropolis updater targets. The
static ``unconstrained_lpdf(stats, u)`` is its one formula, written against
:mod:`mixmcmc.autodiff`. ``stats`` is what ``unconstrained_stats()`` returns
for one cluster (floats, with u of shape (p,)), or what
``stack_unconstrained_stats(likes)`` returns for k clusters (arrays over the
clusters, with u of shape (p, k)); the value then holds the k clusters'
densities. ``cluster_lpdf_from_unconstrained(u)`` evaluates one cluster. The
other kernels raise :class:`~mixmcmc.exceptions.CapabilityError` there.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

from . import autodiff as ad
from ._util import LOG_2PI
from .exceptions import CapabilityError
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
        """log f(rows[i] | batch state (i, j)) for a batch of shape (n, m) and n rows."""
        return self._log_density(batch, rows[:, :1])

    def unconstrained_stats(self):
        """The statistics ``unconstrained_lpdf`` reads, for this one cluster."""
        raise CapabilityError(
            f"{type(self).__name__} has no unconstrained parameterization"
        )

    def cluster_lpdf_from_unconstrained(self, u):
        """Sum of log f(y_i | state) over the cluster at the unconstrained u; 0 when empty."""
        stats = self.unconstrained_stats()
        return self.unconstrained_lpdf(stats, u) if self.card else 0.0


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

    def unconstrained_stats(self):
        return self.card, self.stats[0], self.stats[1]

    @staticmethod
    def stack_unconstrained_stats(likes):
        """(size, sum of y, sum of y^2) of k clusters, each a (k,) array."""
        columns = zip(*[like.unconstrained_stats() for like in likes])
        return tuple(np.array(column) for column in columns)

    @staticmethod
    def unconstrained_lpdf(stats, u):
        """Sum of log N(y_i | mean, var) over a cluster, from (mean, log var)."""
        n, data_sum, data_sum_squares = stats
        mean, logvar = u[0], u[1]
        quad = data_sum_squares + mean * (n * mean - 2.0 * data_sum)
        return -0.5 * (n * (LOG_2PI + logvar) + quad * ad.exp(-logvar))


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
    its raw data keyed by id and re-sums when needed.
    """

    is_multivariate = False

    def __init__(self, state=None):
        # stats: [{datum id: y}], in the order the data joined
        super().__init__(state if state is not None else UniLSState(0.0, 1.0), [{}])

    @property
    def data(self):
        return self.stats[0]

    def clone_empty(self):
        return LaplaceLikelihood(self.state.copy())

    @staticmethod
    def update_stats(stats, datum_id, y, add):
        if add:
            stats[0][datum_id] = y
        else:
            del stats[0][datum_id]

    def add_datum(self, datum_id, datum):
        if datum_id in self.data:  # a second copy would leave card above len(data)
            raise ValueError(f"datum id {datum_id} is already in the cluster")
        super().add_datum(datum_id, datum)

    def remove_datum(self, datum_id, datum):
        if datum_id not in self.data:
            raise ValueError(f"datum id {datum_id} is not in the cluster")
        if self.data[datum_id] != _as_scalar(datum):
            raise ValueError(f"datum id {datum_id} was added with a different value")
        super().remove_datum(datum_id, datum)

    def _score(self, y):
        scale = self.state.var
        return -math.log(2.0 * scale) - abs(y - self.state.mean) / scale

    @staticmethod
    def _log_density(st, y):
        scale = st.var
        return -np.log(2.0 * scale) - np.abs(y - st.mean) / scale

    def unconstrained_stats(self):
        return self.card, np.fromiter(self.data.values(), float, self.card), None

    @staticmethod
    def stack_unconstrained_stats(likes):
        """Sizes (k,), every member datum (N,), and the cluster index of each datum."""
        sizes = np.array([like.card for like in likes])
        data = np.fromiter(itertools.chain.from_iterable(like.data.values() for like in likes),
                           float, int(sizes.sum()))
        return sizes, data, np.repeat(np.arange(len(likes)), sizes)

    @staticmethod
    def unconstrained_lpdf(stats, u):
        """Sum of log Laplace(y_i | mean, scale) over a cluster, from (mean, log scale)."""
        n, data, groups = stats
        mean, logscale = u[0], u[1]
        scale = ad.exp(logscale)
        abs_sum = ad.abs_dev_sum(data, mean, groups)
        return -n * (math.log(2.0) + logscale) - abs_sum / scale


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
