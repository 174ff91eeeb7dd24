"""Component kernels f(y | state) and the statistics their clusters keep.

A likelihood owns the current component state, counts the data in the
cluster (``card``), and holds the statistics ``stats`` (a list) that the
conjugate posteriors and the Metropolis target read. A family writes each
of three things once:

- its statistics, as ``stat_terms(data)``: every datum's terms (z and z^2
  for the normal kernel), and, where its statistics are not one number
  per row of terms, the static ``label_stats(terms, labels, k)``, which
  sums the terms of k clusters by label, each in index order, into k
  statistic lists. Everything else is built from these two: the samplers
  recount every cluster once per sweep, and take a datum's own list,
  ``label_stats(terms, arange(n), n)``, computed once per run, as a
  newborn's statistics and for Neal3's moves (:func:`moved_stats`);
- its density, as one array formula, which reads the state's fields by
  name, and which ``score_batch(batch, rows)`` evaluates: it scores a
  :class:`~mixmcmc.states.StateBatch`, or one state, against n data rows.
  A batch of shape (n, m) is scored row by row, datum i against the
  states of row i (Neal8's auxiliary states), and one of shape (1, k)
  scores every datum against all k states (the score table of the
  marginal sweep, all its clusters in one call). One state is a batch of
  shape (), which scores every row as an (n, 1) column. The formula is
  elementwise, so a (datum, state) pair has the same bits in each;
- its dimension ``dim``, 1 for a univariate kernel, against which
  :meth:`check_dim` checks every grid and data set that comes from
  outside; ``score_batch`` checks nothing.

The statistics are sums over the cluster's data of z = y - ``ref``, a
fixed reference: 0 unless a :class:`~mixmcmc.hierarchy.Hierarchy` sets it
to its prior's mean (``clone_empty`` copies it). The Gamma kernel's prior
has no mean, so it sums y. Centred on the prior mean the statistics keep
their precision for data far from the origin.

The normal and Laplace kernels also give the whole-cluster log density at
an unconstrained state (mean, log scale), which the Metropolis updater
targets, in closed form with its gradient. The static
``unconstrained_stats(likes, rows, labels, grad)`` returns a function of
the k clusters' means (a list) that gives, per cluster, the tuple of
numbers its density reads: the normal kernel's size, recounted sums and
reference, the same at every mean, or the Laplace kernel's size and its
sums of |y - mean| and of their slopes, summed over the data ``rows`` by
their ``labels`` (0..k-1, indexing ``likes``); without ``grad`` the slope
sums, which only the gradient reads, are left at 0. The static
``unconstrained_lpdf(*numbers, mean, log_scale, e)``, with e = exp(-log
scale) passed in, is one branch-free elementwise expression: on one
cluster's floats it gives the density and its two partial derivatives, and
on arrays it gives them elementwise. The other kernels have neither.
"""

import math
from operator import add, sub

import numpy as np

from ._util import LOG_2PI
from .states import GammaState, UniLSState

_LOG_2 = math.log(2.0)


def moved_stats(stats, terms, adding):
    """A new statistic list: ``stats`` plus (``adding``) or minus one datum's ``terms``.

    Entry by entry, and never in place, since a datum's terms are shared
    for the whole run.
    """
    return list(map(add if adding else sub, stats, terms))


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
    # the statistics sum z = y - ref
    ref = 0.0
    # the number of columns of a datum
    dim = 1

    def __init__(self, state, stats):
        self.state = state
        # those of no data, which every empty clone shares: statistics are never written in place
        self.stats = self._no_stats = stats
        self.card = 0

    def clone_empty(self):
        """A cluster with no data, a copy of the state and the same reference."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.state = self.state.copy()
        clone.stats = self._no_stats
        clone.card = 0
        return clone

    @staticmethod
    def label_stats(terms, labels, k):
        """The statistic lists of k clusters: each row of ``stat_terms`` summed by label.

        ``np.bincount`` adds a bin's weights in the order they come, so each
        sum has the bits of a plain loop over the data in index order.
        """
        return list(map(list, zip(*[np.bincount(labels, row, k).tolist() for row in terms])))

    def check_dim(self, rows):
        """Reject a 2-d array of data whose rows do not have the kernel's dimension."""
        if rows.shape[1] != self.dim:
            raise ValueError(f"data of dimension {rows.shape[1]}; the kernel expects {self.dim}")

    def score_batch(self, batch, rows):
        """log f(rows[i] | batch state (i, j)): shape (n, m) for a batch of shape (n, m) or
        (1, m), and (n, 1) for one state."""
        return self._log_density(batch, rows[:, :1])


class UniNormLikelihood(_BaseLikelihood):
    """Univariate normal kernel N(y | mean, var) over a UniLSState."""

    def __init__(self, state=None):
        # stats: [sum of z, sum of z^2], z = y - ref
        super().__init__(state if state is not None else UniLSState(0.0, 1.0), [0.0, 0.0])

    def stat_terms(self, data):
        """Every datum's z and z^2, shape (2, n)."""
        z = data[:, 0] - self.ref
        return np.array((z, z * z))

    @staticmethod
    def _log_density(st, y):
        d = y - st.mean
        return -0.5 * (LOG_2PI + np.log(st.var)) - d * d / (2.0 * st.var)

    @staticmethod
    def unconstrained_stats(likes, rows, labels, grad=True):
        """Means -> per cluster (n, S, Q, ref): its size, sums of z and z^2, and reference."""
        stats = [(like.card, *like.stats, like.ref) for like in likes]
        return lambda means: stats

    @staticmethod
    def unconstrained_lpdf(n, centred_sum, centred_sum_squares, ref, mean, log_var, e):
        """Sum of log N(y_i | mean, var) over a cluster at (mean, log var), e = 1/var.

        With d = mean - ref and q = sum (y_i - mean)^2 = Q + d (n d - 2 S),
        the value is -(n (log 2 pi + log var) + q e) / 2 and the partial
        derivatives are e (S - n d) and (q e - n) / 2.
        """
        dev = mean - ref
        n_dev = n * dev
        quad_e = (centred_sum_squares + dev * (n_dev - 2.0 * centred_sum)) * e
        return (-0.5 * (n * (LOG_2PI + log_var) + quad_e), e * (centred_sum - n_dev),
                0.5 * (quad_e - n))


class MultiNormLikelihood(_BaseLikelihood):
    """Multivariate normal kernel N_d(y | mean, cov) over a MultiLSState."""

    def __init__(self, state):
        d = state.dim
        # stats: [sum of z, sum of z z^T], z = y - ref
        super().__init__(state, [np.zeros(d), np.zeros((d, d))])

    @property
    def dim(self):
        return self.state.dim

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

    def score_batch(self, batch, rows):
        # each (i, j) scores a one-row grid: rows (n, 1, 1, d) against means (n, m, 1, d);
        # one state's float log_det is an array of shape () here
        log_norm = np.asarray(self.dim * LOG_2PI + batch.log_det)
        diff = rows[:, None, None, :] - batch.mean[..., None, :]
        quad = squared_norm_rows(whiten_rows(batch.chol_inv, diff))
        return -0.5 * (log_norm[..., None] + quad)[..., 0]


class LaplaceLikelihood(_BaseLikelihood):
    """Laplace kernel with density exp(-|y - mean| / scale) / (2 scale).

    Reuses UniLSState with ``var`` holding the scale. The summed absolute
    deviation has no fixed-size sufficient statistic, so the cluster keeps
    none: it counts its data, and the Metropolis target reads the member
    data from the sampler's rows and labels.
    """

    def __init__(self, state=None):
        super().__init__(state if state is not None else UniLSState(0.0, 1.0), [])

    def stat_terms(self, data):
        return None

    @staticmethod
    def label_stats(terms, labels, k):
        return [[] for _ in range(k)]

    @staticmethod
    def _log_density(st, y):
        scale = st.var
        return -np.log(2.0 * scale) - np.abs(y - st.mean) / scale

    @staticmethod
    def unconstrained_stats(likes, rows, labels, grad=True):
        """Means -> per cluster (n, A, slope): its size, sum |y_i - mean| and its slope in mean.

        The sizes are counted from the labels. The slope of |y - mean| is
        -1 where y >= mean (ties included) and +1 below; without ``grad``
        it is not summed, and reads 0. ``np.bincount`` sums A and the slope
        over the data in index order.
        """
        k, data = len(likes), rows[:, 0]
        sizes = np.bincount(labels, minlength=k).tolist()
        no_slopes = [0.0] * k

        def sums(means):
            dev = data - np.array(means)[labels]
            abs_sums = np.bincount(labels, np.abs(dev), k).tolist()
            slope_sums = (np.bincount(labels, np.where(dev >= 0, -1.0, 1.0), k).tolist()
                          if grad else no_slopes)
            return zip(sizes, abs_sums, slope_sums)

        return sums

    @staticmethod
    def unconstrained_lpdf(n, abs_sum, slope_sum, mean, log_scale, e):
        """Sum of log Laplace(y_i | mean, scale) over a cluster at (mean, log scale), e = 1/scale.

        The value is -n (log 2 + log scale) - A e and the partial
        derivatives are -slope e and A e - n; the mean enters through A and
        the slope.
        """
        abs_sum_e = abs_sum * e
        return -n * (_LOG_2 + log_scale) - abs_sum_e, -slope_sum * e, abs_sum_e - n


class GammaLikelihood(_BaseLikelihood):
    """Gamma kernel with fixed shape and random rate, for positive data.

    log f(y) = shape*log(rate) - lgamma(shape) + (shape-1)*log(y) - rate*y
    for y > 0 and -inf otherwise. Tracks the data sum (the reference is 0)
    and the size, all the conjugate rate update reads.
    """

    def __init__(self, shape, state=None):
        # stats: [sum of y]
        super().__init__(state if state is not None else GammaState(shape, 1.0), [0.0])

    def stat_terms(self, data):
        """Every datum's y, shape (1, n)."""
        if (data[:, 0] <= 0).any():
            raise ValueError("Gamma likelihood requires positive data")
        return data.T

    @staticmethod
    def _log_density(st, y):
        s, r = st.shape, st.rate  # one kernel shape for a whole batch
        with np.errstate(divide="ignore", invalid="ignore"):
            out = s * np.log(r) - math.lgamma(s) + (s - 1.0) * np.log(y) - r * y
        return np.where(y > 0, out, -np.inf)
