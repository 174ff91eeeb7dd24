"""Base measures over component states: densities and sampling.

Every prior evaluates its log density at a state, draws states (optionally
from supplied posterior hyperparameters) and draws a batch of states from
itself as arrays (``sample_batch``). The NIG and N x IG priors also
evaluate the change-of-variables corrected log density of an unconstrained
state vector (``lpdf_from_unconstrained``), which the Metropolis updater
targets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._util import LOG_2PI
from ._validation import check_positive, check_spd_matrix
from .states import GammaState, MultiLSState, StateBatch, UniLSState


def _norm_lpdf(x, mean, var):
    """log N(x | mean, var); generic over floats and duals."""
    return -0.5 * (LOG_2PI + ad.log(var)) - (x - mean) ** 2 / (2.0 * var)


def _invgamma_lpdf(x, shape, scale):
    """log IG(x | shape, scale), density scale^shape/Gamma(shape) x^-(shape+1) e^(-scale/x)."""
    return (
        shape * math.log(scale)
        - math.lgamma(shape)
        - (shape + 1.0) * ad.log(x)
        - scale / x
    )


def _gamma_lpdf(x, shape, rate):
    """log Gamma(x | shape, rate)."""
    return (
        shape * math.log(rate)
        - math.lgamma(shape)
        + (shape - 1.0) * math.log(x)
        - rate * x
    )


def _multigammaln(a, d):
    out = 0.25 * d * (d - 1) * math.log(math.pi)
    for j in range(d):
        out += math.lgamma(a - 0.5 * j)
    return out


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

    __slots__ = ("mean", "var_scaling", "deg_free", "scale", "scale_chol")

    def __init__(self, mean, var_scaling, deg_free, scale):
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        self.var_scaling = check_positive(var_scaling, "var_scaling")
        self.deg_free = float(deg_free)
        self.scale, self.scale_chol = check_spd_matrix(scale, "scale")
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


class NIGPrior:
    """Normal-inverse-gamma: var ~ IG(shape, scale), mean | var ~ N(mean0, var/var_scaling)."""

    def __init__(self, hypers):
        self.hypers = hypers

    def lpdf(self, state):
        if not isinstance(state, UniLSState):
            raise ValueError(f"NIGPrior expects a UniLSState, got {type(state).__name__}")
        h = self.hypers
        return _norm_lpdf(state.mean, h.mean, state.var / h.var_scaling) + _invgamma_lpdf(
            state.var, h.shape, h.scale
        )

    def sample(self, rng, hypers=None):
        h = hypers if hypers is not None else self.hypers
        var = h.scale / rng.gamma(h.shape)
        mean = h.mean + math.sqrt(var / h.var_scaling) * rng.standard_normal()
        return UniLSState(mean, var)

    def sample_batch(self, rng, size):
        """``size`` independent prior draws, as a :class:`StateBatch`."""
        h = self.hypers
        var = h.scale / rng.gamma(h.shape, size=size)
        mean = h.mean + np.sqrt(var / h.var_scaling) * rng.standard_normal(size)
        return StateBatch(UniLSState, ("mean", "var"), mean=mean, var=var)

    def lpdf_from_unconstrained(self, u):
        mean, logvar = u[0], u[1]
        var = ad.exp(logvar)
        h = self.hypers
        lpdf = _norm_lpdf(mean, h.mean, var / h.var_scaling) + _invgamma_lpdf(
            var, h.shape, h.scale
        )
        return lpdf + logvar


class NxIGPrior:
    """Independent prior: mean ~ N(mean0, var0), var ~ IG(shape, scale).

    Also serves the Laplace kernel, whose ``var`` field holds the scale.
    """

    def __init__(self, hypers):
        self.hypers = hypers

    def lpdf(self, state):
        if not isinstance(state, UniLSState):
            raise ValueError(f"NxIGPrior expects a UniLSState, got {type(state).__name__}")
        h = self.hypers
        return _norm_lpdf(state.mean, h.mean, h.var) + _invgamma_lpdf(
            state.var, h.shape, h.scale
        )

    def sample(self, rng, hypers=None):
        h = hypers if hypers is not None else self.hypers
        mean = h.mean + math.sqrt(h.var) * rng.standard_normal()
        var = h.scale / rng.gamma(h.shape)
        return UniLSState(mean, var)

    def sample_batch(self, rng, size):
        """``size`` independent prior draws, as a :class:`StateBatch`."""
        h = self.hypers
        mean = h.mean + math.sqrt(h.var) * rng.standard_normal(size)
        var = h.scale / rng.gamma(h.shape, size=size)
        return StateBatch(UniLSState, ("mean", "var"), mean=mean, var=var)

    def lpdf_from_unconstrained(self, u):
        mean, logvar = u[0], u[1]
        var = ad.exp(logvar)
        h = self.hypers
        lpdf = _norm_lpdf(mean, h.mean, h.var) + _invgamma_lpdf(var, h.shape, h.scale)
        return lpdf + logvar


class NWPrior:
    """Normal-inverse-Wishart: cov ~ IW(deg_free, scale), mean | cov ~ N(mean0, cov/var_scaling).

    E[cov] = scale / (deg_free - dim - 1) when deg_free > dim + 1.
    """

    def __init__(self, hypers):
        self.hypers = hypers
        self._prior_bartlett = self._bartlett_factor(hypers)

    @staticmethod
    def _bartlett_factor(hypers):
        # lower Cholesky factor of scale^-1, used by the Wishart draw
        inv = np.linalg.inv(hypers.scale)
        inv = 0.5 * (inv + inv.T)
        return np.linalg.cholesky(inv)

    def lpdf(self, state):
        if not isinstance(state, MultiLSState):
            raise ValueError(f"NWPrior expects a MultiLSState, got {type(state).__name__}")
        h = self.hypers
        d = h.dim
        nu = h.deg_free
        # log N_d(mean | mean0, cov / var_scaling)
        diff = state.mean - h.mean
        z = np.linalg.solve(state.chol, diff)
        log_norm = -0.5 * (
            d * LOG_2PI + state.log_det - d * math.log(h.var_scaling)
        ) - 0.5 * h.var_scaling * float(z @ z)
        # log IW(cov | nu, scale)
        sign, logdet_scale = np.linalg.slogdet(h.scale)
        sol = np.linalg.solve(state.chol, h.scale)
        sol = np.linalg.solve(state.chol.T, sol)  # cov^-1 @ scale, via two solves
        trace_term = float(np.trace(sol))
        log_iw = (
            0.5 * nu * logdet_scale
            - 0.5 * nu * d * math.log(2.0)
            - _multigammaln(0.5 * nu, d)
            - 0.5 * (nu + d + 1.0) * state.log_det
            - 0.5 * trace_term
        )
        return log_norm + log_iw

    def sample(self, rng, hypers=None):
        h = hypers if hypers is not None else self.hypers
        chol_inv_scale = (
            self._prior_bartlett if h is self.hypers else self._bartlett_factor(h)
        )
        d = h.dim
        cov = _inverse_wishart(rng, chol_inv_scale, h.deg_free, ())
        state = MultiLSState(np.zeros(d), cov)
        # mean | cov ~ N(mean0, cov / var_scaling), through the state's own factor
        state.mean = h.mean + (state.chol @ rng.standard_normal(d)) / math.sqrt(
            h.var_scaling
        )
        return state

    def sample_batch(self, rng, size):
        """``size`` independent prior draws, as a :class:`StateBatch`.

        Besides ``mean`` and ``cov`` the batch holds each covariance's
        ``chol_inv`` and ``log_det``, which the kernel's batch score reads.
        """
        h = self.hypers
        cov = _inverse_wishart(rng, self._prior_bartlett, h.deg_free, size)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError("a drawn 'cov' is not positive definite") from err
        z = rng.standard_normal(size + (h.dim, 1))
        mean = h.mean + (chol @ z)[..., 0] / math.sqrt(h.var_scaling)
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


class GammaPrior:
    """Gamma prior on the kernel rate; kernel shape is a fixed hyperparameter."""

    def __init__(self, hypers):
        self.hypers = hypers

    @property
    def shape(self):
        return self.hypers.shape

    def lpdf(self, state):
        if not isinstance(state, GammaState):
            raise ValueError(f"GammaPrior expects a GammaState, got {type(state).__name__}")
        h = self.hypers
        return _gamma_lpdf(state.rate, h.rate_alpha, h.rate_beta)

    def sample(self, rng, hypers=None):
        h = hypers if hypers is not None else self.hypers
        rate = rng.gamma(h.rate_alpha) / h.rate_beta
        return GammaState(h.shape, rate)

    def sample_batch(self, rng, size):
        """``size`` independent prior draws, as a :class:`StateBatch`; all share the shape."""
        h = self.hypers
        rate = rng.gamma(h.rate_alpha, size=size) / h.rate_beta
        return StateBatch(GammaState, ("shape", "rate"), shape=h.shape, rate=rate)
