"""Base measures over component states: sampling, and a density where a
Metropolis updater needs one.

A prior writes its draw once, as ``_draw(rng, size, hypers)``, which
returns a :class:`~mixmcmc.states.StateBatch` of ``size`` draws at the
given hyperparameters (``size=None`` gives one draw of floats). The base
:class:`_Prior` turns it into ``sample`` (one state, optionally from
supplied posterior hyperparameters) and ``sample_batch`` (a batch from the
prior itself). The NIG and N x IG priors also evaluate the
change-of-variables corrected log density of an unconstrained state vector
(``lpdf_from_unconstrained``), which the Metropolis updater targets. Written
against :mod:`mixmcmc.autodiff`, it takes u of shape (p,) for one state or
(p, k) for k states, as floats, arrays or dual numbers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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

    def __post_init__(self):
        check_positive(self.var_scaling, "var_scaling")
        check_positive(self.shape, "shape")
        check_positive(self.scale, "scale")


@dataclass(frozen=True)
class NxIGHypers:
    """Independent normal x inverse-gamma hyperparameters (mean, var, shape, scale)."""

    mean: float
    var: float
    shape: float
    scale: float

    def __post_init__(self):
        check_positive(self.var, "var")
        check_positive(self.shape, "shape")
        check_positive(self.scale, "scale")


class NWHypers:
    """Normal-inverse-Wishart hyperparameters (mean, var_scaling, deg_free, scale)."""

    __slots__ = ("mean", "var_scaling", "deg_free", "scale")

    def __init__(self, mean, var_scaling, deg_free, scale):
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        self.var_scaling = check_positive(var_scaling, "var_scaling")
        self.deg_free = float(deg_free)
        self.scale, _ = check_spd_matrix(scale, "scale")
        d = self.mean.shape[0]
        if self.scale.shape[0] != d:
            raise ValueError("mean and scale dimensions disagree")
        if not self.deg_free > d - 1:
            raise ValueError(f"deg_free must exceed dim - 1 = {d - 1}")

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True)
class GammaPriorHypers:
    """Gamma prior on the kernel rate; ``shape`` is the fixed kernel shape."""

    shape: float
    rate_alpha: float
    rate_beta: float

    def __post_init__(self):
        check_positive(self.shape, "shape")
        check_positive(self.rate_alpha, "rate_alpha")
        check_positive(self.rate_beta, "rate_beta")


class _Prior:
    """A prior's two samplers, both through the subclass's one ``_draw``."""

    def __init__(self, hypers):
        self.hypers = hypers

    def sample(self, rng, hypers=None):
        """One state, drawn at ``hypers`` (default: the prior's own)."""
        return self._draw(rng, None, self.hypers if hypers is None else hypers).state(())

    def sample_batch(self, rng, size):
        """``size`` independent prior draws, as a :class:`StateBatch`."""
        return self._draw(rng, size, self.hypers)


class NIGPrior(_Prior):
    """Normal-inverse-gamma: var ~ IG(shape, scale), mean | var ~ N(mean0, var/var_scaling)."""

    def _draw(self, rng, size, h):
        var = h.scale / rng.gamma(h.shape, size=size)
        mean = h.mean + np.sqrt(var / h.var_scaling) * rng.standard_normal(size)
        return StateBatch(UniLSState, ("mean", "var"), mean=mean, var=var)

    def lpdf_from_unconstrained(self, u):
        """log N(mean | mean0, var / var_scaling) + log IG(var | shape, scale) + log var.

        Collected in u = (mean, log var), the density's exponent is
        -(scale + var_scaling (mean - mean0)^2 / 2) / var, and log var's
        coefficient -(shape + 1/2) holds the log-Jacobian.
        """
        mean, logvar = u[0], u[1]
        h = self.hypers
        dev = mean - h.mean
        log_norm = 0.5 * (math.log(h.var_scaling) - LOG_2PI) + _invgamma_log_norm(
            h.shape, h.scale)
        return (log_norm - (h.shape + 0.5) * logvar
                - (h.scale + 0.5 * h.var_scaling * dev * dev) * ad.exp(-logvar))


class NxIGPrior(_Prior):
    """Independent prior: mean ~ N(mean0, var0), var ~ IG(shape, scale).

    Also serves the Laplace kernel, whose ``var`` field holds the scale.
    """

    def _draw(self, rng, size, h):
        mean = h.mean + math.sqrt(h.var) * rng.standard_normal(size)
        var = h.scale / rng.gamma(h.shape, size=size)
        return StateBatch(UniLSState, ("mean", "var"), mean=mean, var=var)

    def lpdf_from_unconstrained(self, u):
        """log N(mean | mean0, var0) + log IG(var | shape, scale) + log var.

        In u = (mean, log var), log var's coefficient -shape holds the
        log-Jacobian.
        """
        mean, logvar = u[0], u[1]
        h = self.hypers
        dev = mean - h.mean
        log_norm = -0.5 * (LOG_2PI + math.log(h.var)) + _invgamma_log_norm(h.shape, h.scale)
        return (log_norm - dev * dev / (2.0 * h.var) - h.shape * logvar
                - h.scale * ad.exp(-logvar))


class NWPrior(_Prior):
    """Normal-inverse-Wishart: cov ~ IW(deg_free, scale), mean | cov ~ N(mean0, cov/var_scaling).

    E[cov] = scale / (deg_free - dim - 1) when deg_free > dim + 1.
    """

    def __init__(self, hypers):
        super().__init__(hypers)
        self._prior_bartlett = self._bartlett_factor(hypers)

    @staticmethod
    def _bartlett_factor(hypers):
        # lower Cholesky factor of scale^-1, used by the Wishart draw
        inv = np.linalg.inv(hypers.scale)
        inv = 0.5 * (inv + inv.T)
        return np.linalg.cholesky(inv)

    def _draw(self, rng, size, h):
        """Besides ``mean`` and ``cov``, a batch holds each covariance's
        ``chol_inv`` and ``log_det``, which the kernel's batch score reads;
        a single draw leaves them to the state's constructor."""
        shape = () if size is None else size
        bartlett = self._prior_bartlett if h is self.hypers else self._bartlett_factor(h)
        cov = _inverse_wishart(rng, bartlett, h.deg_free, shape)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError("a drawn 'cov' is not positive definite") from err
        z = rng.standard_normal(shape + (h.dim, 1))
        mean = h.mean + (chol @ z)[..., 0] / math.sqrt(h.var_scaling)
        if size is None:
            return StateBatch(MultiLSState, ("mean", "cov"), mean=mean, cov=cov)
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

    def _draw(self, rng, size, h):
        rate = rng.gamma(h.rate_alpha, size=size) / h.rate_beta
        # every draw shares the kernel shape
        return StateBatch(GammaState, ("shape", "rate"), shape=h.shape, rate=rate)
