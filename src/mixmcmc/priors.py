"""Base measures over component states: sampling, and a density where a
Metropolis updater needs one.

The hyperparameter classes are plain records. A prior checks its own once,
in its constructor, which config, the estimator and Python callers all go
through; the posterior hyperparameters a sampler passes to ``sample`` are
not checked.

A prior writes its draw once, as ``_draw(rng, size, hypers)``, which
returns a :class:`~mixmcmc.states.StateBatch` of ``size`` draws at the
given hyperparameters (``size=None`` gives one draw of floats). The base
:class:`_Prior` turns it into ``sample`` (one state, optionally from
supplied posterior hyperparameters) and ``sample_batch`` (a batch from the
prior itself). The NIG and N x IG priors also evaluate the
change-of-variables corrected log density of an unconstrained state
(mean, log var), which the Metropolis updater targets. It is the private
``_unconstrained_lpdf(mean, log_var, e)``, with e = exp(-log var) passed
in: one branch-free elementwise expression that gives the density and its
two partial derivatives on one state's floats, or elementwise on arrays.
The updater calls it once per cluster and evaluation; it is private so
that tracing, which wraps the public members, leaves it alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import LOG_2PI
from ._validation import check_positive, check_spd_matrix
from .states import GammaState, MultiLSState, StateBatch, UniLSState


def _invgamma_log_norm(shape, scale):
    """log of IG(shape, scale)'s normalizer scale^shape / Gamma(shape)."""
    return shape * math.log(scale) - math.lgamma(shape)


@dataclass(frozen=True)
class NIGHypers:
    """Normal-inverse-gamma hyperparameters (mean, var_scaling, shape, scale)."""

    mean: float
    var_scaling: float
    shape: float
    scale: float


@dataclass(frozen=True)
class NxIGHypers:
    """Independent normal x inverse-gamma hyperparameters (mean, var, shape, scale)."""

    mean: float
    var: float
    shape: float
    scale: float


@dataclass(frozen=True, eq=False)
class NWHypers:
    """Normal-inverse-Wishart hyperparameters (mean, var_scaling, deg_free, scale)."""

    mean: np.ndarray
    var_scaling: float
    deg_free: float
    scale: np.ndarray

    @property
    def dim(self):
        return self.mean.shape[-1]


@dataclass(frozen=True)
class GammaPriorHypers:
    """Gamma prior on the kernel rate; ``shape`` is the fixed kernel shape."""

    shape: float
    rate_alpha: float
    rate_beta: float


class _Prior:
    """A prior's two samplers, both through the subclass's one ``_draw``."""

    # the hyperparameters that must be positive finite scalars
    _positive = ()

    def __init__(self, hypers):
        for name in self._positive:
            check_positive(getattr(hypers, name), name)
        self.hypers = hypers

    def sample(self, rng, hypers=None):
        """One state, drawn at ``hypers`` (default: the prior's own), used unchecked."""
        return self._draw(rng, None, self.hypers if hypers is None else hypers).state(())

    def sample_batch(self, rng, size):
        """``size`` independent prior draws, as a :class:`StateBatch`."""
        return self._draw(rng, size, self.hypers)


class NIGPrior(_Prior):
    """Normal-inverse-gamma: var ~ IG(shape, scale), mean | var ~ N(mean0, var/var_scaling)."""

    _positive = ("var_scaling", "shape", "scale")

    def __init__(self, hypers):
        super().__init__(hypers)
        self._log_norm = 0.5 * (math.log(hypers.var_scaling) - LOG_2PI) + _invgamma_log_norm(
            hypers.shape, hypers.scale)

    def _draw(self, rng, size, h):
        var = h.scale / rng.gamma(h.shape, size=size)
        mean = h.mean + np.sqrt(var / h.var_scaling) * rng.standard_normal(size)
        return StateBatch(UniLSState, ("mean", "var"), mean=mean, var=var)

    def _unconstrained_lpdf(self, mean, log_var, e):
        """log N(mean | mean0, var / var_scaling) + log IG(var | shape, scale) + log var.

        In (mean, log var), with e = 1/var, the density's exponent is
        -(scale + var_scaling (mean - mean0)^2 / 2) e, and log var's
        coefficient -(shape + 1/2) holds the log-Jacobian. Returns the
        density and its two partial derivatives.
        """
        h = self.hypers
        dev = mean - h.mean
        rate = (h.scale + 0.5 * h.var_scaling * dev * dev) * e
        return (self._log_norm - (h.shape + 0.5) * log_var - rate, -h.var_scaling * dev * e,
                rate - (h.shape + 0.5))


class NxIGPrior(_Prior):
    """Independent prior: mean ~ N(mean0, var0), var ~ IG(shape, scale).

    Also serves the Laplace kernel, whose ``var`` field holds the scale.
    """

    _positive = ("var", "shape", "scale")

    def __init__(self, hypers):
        super().__init__(hypers)
        self._log_norm = -0.5 * (LOG_2PI + math.log(hypers.var)) + _invgamma_log_norm(
            hypers.shape, hypers.scale)

    def _draw(self, rng, size, h):
        mean = h.mean + math.sqrt(h.var) * rng.standard_normal(size)
        var = h.scale / rng.gamma(h.shape, size=size)
        return StateBatch(UniLSState, ("mean", "var"), mean=mean, var=var)

    def _unconstrained_lpdf(self, mean, log_var, e):
        """log N(mean | mean0, var0) + log IG(var | shape, scale) + log var, e = 1/var.

        In (mean, log var), log var's coefficient -shape holds the
        log-Jacobian. Returns the density and its two partial derivatives.
        """
        h = self.hypers
        dev = mean - h.mean
        rate = h.scale * e
        return (self._log_norm - dev * dev / (2.0 * h.var) - h.shape * log_var - rate,
                -dev / h.var, rate - h.shape)


class NWPrior(_Prior):
    """Normal-inverse-Wishart: cov ~ IW(deg_free, scale), mean | cov ~ N(mean0, cov/var_scaling).

    E[cov] = scale / (deg_free - dim - 1) when deg_free > dim + 1.
    """

    def __init__(self, hypers):
        mean = np.asarray(hypers.mean, dtype=float).reshape(-1)
        var_scaling = check_positive(hypers.var_scaling, "var_scaling")
        deg_free = float(hypers.deg_free)
        scale, _ = check_spd_matrix(hypers.scale, "scale")
        d = mean.shape[0]
        if scale.shape[0] != d:
            raise ValueError("mean and scale dimensions disagree")
        if not deg_free > d - 1:
            raise ValueError(f"deg_free must exceed dim - 1 = {d - 1}")
        super().__init__(NWHypers(mean, var_scaling, deg_free, scale))
        self._prior_bartlett = self._bartlett_factor(self.hypers)

    @staticmethod
    def _bartlett_factor(hypers):
        # lower Cholesky factor of scale^-1, used by the Wishart draw; a
        # posterior scale that rounding left indefinite fails here by name
        try:
            inv = np.linalg.inv(hypers.scale)
            return np.linalg.cholesky(0.5 * (inv + inv.T))
        except np.linalg.LinAlgError as err:
            raise ValueError("'scale' is not positive definite") from err

    def _draw(self, rng, size, h):
        """Besides ``mean`` and ``cov``, a batch holds each covariance's
        ``chol_inv`` and ``log_det``, which the kernel's batch score reads;
        a single draw hands its Cholesky factor to the state's constructor,
        as the drawn covariance is exactly symmetric."""
        shape = () if size is None else size
        bartlett = self._prior_bartlett if h is self.hypers else self._bartlett_factor(h)
        cov = _inverse_wishart(rng, bartlett, h.deg_free, shape)
        if not np.isfinite(cov).all():
            raise ValueError("a drawn 'cov' contains non-finite entries")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError("a drawn 'cov' is not positive definite") from err
        z = rng.standard_normal(shape + (h.dim, 1))
        mean = h.mean + (chol @ z)[..., 0] / math.sqrt(h.var_scaling)
        if size is None:
            return StateBatch(MultiLSState, ("mean", "cov", "chol"), mean=mean, cov=cov, chol=chol)
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        return StateBatch(MultiLSState, ("mean", "cov"), mean=mean, cov=cov,
                          chol_inv=np.linalg.inv(chol), log_det=log_det)


def _inverse_wishart(rng, chol_inv_scale, deg_free, size):
    """Covariances ~ IW(deg_free, scale), stacked over the shape ``size``.

    Each is the inverse of a Wishart(deg_free, scale^-1) draw through the
    Bartlett decomposition; ``chol_inv_scale`` is the lower Cholesky factor
    of scale^-1.
    """
    d = chol_inv_scale.shape[0]
    a = np.zeros(size + (d, d))
    diag = np.arange(d)
    a[..., diag, diag] = np.sqrt(rng.chisquare(deg_free - diag, size=size + (d,)))
    lower = np.tril_indices(d, k=-1)
    a[(...,) + lower] = rng.standard_normal(size + (len(lower[0]),))
    m_inv = np.linalg.inv(chol_inv_scale @ a)
    cov = np.swapaxes(m_inv, -1, -2) @ m_inv
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


class GammaPrior(_Prior):
    """Gamma prior on the kernel rate; kernel shape is a fixed hyperparameter."""

    _positive = ("shape", "rate_alpha", "rate_beta")

    def _draw(self, rng, size, h):
        rate = rng.gamma(h.rate_alpha, size=size) / h.rate_beta
        # every draw shares the kernel shape
        return StateBatch(GammaState, ("shape", "rate"), shape=h.shape, rate=rate)
