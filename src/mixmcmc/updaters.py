"""Full-conditional samplers for component parameters.

The conjugate updater computes posterior hyperparameters from the cluster's
sufficient statistics and draws through the prior's sampler; it also exposes
the matching marginal (predictive) densities used by marginal algorithms.
The Metropolis updater, random-walk or Langevin, works with any
likelihood/prior pair that has an unconstrained parameterization: the
normal and Laplace kernels under the NIG and N x IG priors. It moves one
cluster (``draw``) or all of a sampler's non-empty clusters at once
(``draw_batch``), through one routine on the likelihood's and the prior's
unconstrained densities, which take one cluster's floats or k clusters'
arrays.
"""

import math

import numpy as np

from . import autodiff as ad
from ._validation import check_positive, check_positive_int
from .likelihoods import squared_norm_rows, whiten_rows
from .priors import GammaPriorHypers, NIGHypers, NWHypers


def nnig_posterior_hypers(like, hypers):
    """Posterior normal-inverse-gamma hyperparameters for a normal cluster.

    Like the other posterior-hyperparameter functions, it reads only
    ``like.card`` and ``like.stats``, so a likelihood or a
    :class:`~mixmcmc.likelihoods.ClusterStats` will do.
    """
    n = like.card
    if n == 0:
        return hypers
    data_sum, data_sum_squares = like.stats
    ybar = data_sum / n
    lam_n = hypers.var_scaling + n
    mean_n = (hypers.var_scaling * hypers.mean + data_sum) / lam_n
    shape_n = hypers.shape + 0.5 * n
    ss = max(data_sum_squares - n * ybar * ybar, 0.0)
    scale_n = (
        hypers.scale
        + 0.5 * ss
        + 0.5 * hypers.var_scaling * n * (ybar - hypers.mean) ** 2 / lam_n
    )
    return NIGHypers(mean_n, lam_n, shape_n, scale_n)


def nnw_posterior_hypers(like, hypers):
    """Posterior normal-inverse-Wishart hyperparameters for a multinormal cluster."""
    n = like.card
    if n == 0:
        return hypers
    data_sum, data_sum_outer = like.stats
    ybar = data_sum / n
    lam_n = hypers.var_scaling + n
    mean_n = (hypers.var_scaling * hypers.mean + data_sum) / lam_n
    df_n = hypers.deg_free + n
    centered = data_sum_outer - n * np.outer(ybar, ybar)
    dev = ybar - hypers.mean
    scale_n = (
        hypers.scale
        + centered
        + (hypers.var_scaling * n / lam_n) * np.outer(dev, dev)
    )
    scale_n = 0.5 * (scale_n + scale_n.T)
    return NWHypers(mean_n, lam_n, df_n, scale_n)


def gamma_gamma_posterior_hypers(like, hypers):
    """Posterior Gamma hyperparameters for a Gamma-rate cluster."""
    n = like.card
    if n == 0:
        return hypers
    return GammaPriorHypers(
        hypers.shape,
        hypers.rate_alpha + hypers.shape * n,
        hypers.rate_beta + like.stats[0],
    )


def nnxig_mean_full_conditional(hypers, data_sum, card, var):
    """Mean and variance of mean | var, data under the independent prior."""
    prec = 1.0 / hypers.var + card / var
    mean = (hypers.mean / hypers.var + data_sum / var) / prec
    return mean, 1.0 / prec


def nnxig_var_full_conditional(hypers, data_sum, data_sum_squares, card, mean):
    """Inverse-gamma (shape, scale) of var | mean, data under the independent prior."""
    shape_n = hypers.shape + 0.5 * card
    scale_n = hypers.scale + 0.5 * max(
        data_sum_squares - 2.0 * mean * data_sum + card * mean * mean, 0.0
    )
    return shape_n, scale_n


class StudentT:
    """Univariate Student-t predictive with df, location and scale."""

    __slots__ = ("df", "loc", "scale", "_log_norm")

    def __init__(self, df, loc, scale):
        self.df = df
        self.loc = loc
        self.scale = scale
        self._log_norm = (
            math.lgamma(0.5 * (df + 1.0))
            - math.lgamma(0.5 * df)
            - 0.5 * math.log(df * math.pi)
            - math.log(scale)
        )

    def lpdf(self, y):
        z = (float(y) - self.loc) / self.scale
        return self._log_norm - 0.5 * (self.df + 1.0) * math.log1p(z * z / self.df)

    def lpdf_grid(self, ys):
        z = (np.asarray(ys, dtype=float).reshape(-1) - self.loc) / self.scale
        return self._log_norm - 0.5 * (self.df + 1.0) * np.log1p(z * z / self.df)


class MultivariateT:
    """Multivariate Student-t predictive with df, location and scale matrix."""

    __slots__ = ("df", "loc", "chol_inv", "dim", "_log_norm")

    def __init__(self, df, loc, scale_matrix):
        self.df = df
        self.loc = np.asarray(loc, dtype=float).reshape(-1)
        self.dim = self.loc.shape[0]
        scale_matrix = 0.5 * (scale_matrix + scale_matrix.T)
        chol = np.linalg.cholesky(scale_matrix)
        self.chol_inv = np.linalg.inv(chol)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        d = self.dim
        self._log_norm = (
            math.lgamma(0.5 * (df + d))
            - math.lgamma(0.5 * df)
            - 0.5 * d * math.log(df * math.pi)
            - 0.5 * log_det
        )

    def lpdf(self, y):
        y = np.asarray(y, dtype=float).reshape(1, -1)
        return float(self.lpdf_grid(y)[0])

    def lpdf_grid(self, ys):
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys.reshape(-1, self.dim)
        diff = ys - self.loc
        quad = squared_norm_rows(whiten_rows(self.chol_inv, diff))
        return self._log_norm - 0.5 * (self.df + self.dim) * np.log1p(quad / self.df)


class CompoundGamma:
    """Marginal of a Gamma kernel with fixed shape under a Gamma prior on the rate."""

    __slots__ = ("shape", "alpha", "beta", "_log_norm")

    def __init__(self, shape, alpha, beta):
        self.shape = shape
        self.alpha = alpha
        self.beta = beta
        self._log_norm = (
            alpha * math.log(beta)
            + math.lgamma(alpha + shape)
            - math.lgamma(alpha)
            - math.lgamma(shape)
        )

    def lpdf(self, y):
        y = float(y)
        if y <= 0:
            return -math.inf
        return (
            self._log_norm
            + (self.shape - 1.0) * math.log(y)
            - (self.alpha + self.shape) * math.log(self.beta + y)
        )

    def lpdf_grid(self, ys):
        y = np.asarray(ys, dtype=float).reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (
                self._log_norm
                + (self.shape - 1.0) * np.log(y)
                - (self.alpha + self.shape) * np.log(self.beta + y)
            )
        return np.where(y > 0, out, -np.inf)


def nnig_predictive(hypers):
    """Student-t marginal of one datum under normal-inverse-gamma hyperparameters."""
    scale = math.sqrt(
        hypers.scale * (hypers.var_scaling + 1.0) / (hypers.shape * hypers.var_scaling)
    )
    return StudentT(2.0 * hypers.shape, hypers.mean, scale)


def nnw_predictive(hypers):
    """Multivariate-t marginal of one datum under normal-inverse-Wishart hyperparameters."""
    d = hypers.dim
    df = hypers.deg_free - d + 1.0
    if df <= 0:
        raise ValueError("deg_free too small for a proper predictive")
    scale = hypers.scale * (hypers.var_scaling + 1.0) / (hypers.var_scaling * df)
    return MultivariateT(df, hypers.mean, scale)


def gamma_gamma_predictive(hypers):
    """Compound-gamma marginal of one datum under Gamma-rate hyperparameters."""
    return CompoundGamma(hypers.shape, hypers.rate_alpha, hypers.rate_beta)


class ConjugateUpdater:
    """Closed-form updater for a conjugate likelihood/prior pair.

    ``posterior_hypers(like, hypers)`` maps the cluster's sufficient
    statistics and the prior hyperparameters to the posterior ones; the
    draw goes through the prior's sampler at those. ``predictive(hypers)``
    builds the marginal density of one datum under given hyperparameters.
    """

    def __init__(self, posterior_hypers, predictive):
        self._posterior_hypers = posterior_hypers
        self.predictive = predictive

    def is_conjugate(self):
        return True

    def compute_posterior_hypers(self, like, prior):
        return self._posterior_hypers(like, prior.hypers)

    def draw(self, like, prior, rng):
        state = prior.sample(rng, hypers=self.compute_posterior_hypers(like, prior))
        like.state = state
        return state


class NNxIGUpdater:
    """One Gibbs scan for the normal kernel under the independent N x IG prior."""

    def is_conjugate(self):
        return False

    def draw(self, like, prior, rng):
        h = prior.hypers
        n = like.card
        var = like.state.var
        mean_fc, var_fc = nnxig_mean_full_conditional(h, like.data_sum, n, var)
        mean = mean_fc + math.sqrt(var_fc) * rng.standard_normal()
        shape_n, scale_n = nnxig_var_full_conditional(
            h, like.data_sum, like.data_sum_squares, n, mean
        )
        var = scale_n / rng.gamma(shape_n)
        state = type(like.state)(mean, var)
        like.state = state
        return state


class MetropolisUpdater:
    """Metropolis on the unconstrained parameterization of the clusters' states.

    Without ``langevin`` the proposal is a Gaussian random walk and the
    target is evaluated on floats. With it the proposal drifts along the
    gradient (MALA) and carries the matching correction; gradients come
    from forward-mode dual numbers, so any likelihood/prior pair whose
    unconstrained log densities are written against
    :mod:`mixmcmc.autodiff` works without extra code.

    ``draw`` moves one cluster, on a state vector u of shape (p,) and the
    likelihood's ``unconstrained_stats``. ``draw_batch`` moves k clusters
    of one family together, on u of shape (p, k) and the stacked
    statistics: each step draws one (p, k) normal block and k uniforms and
    accepts or rejects each cluster's proposal on its own, so a batch of
    one is the same kernel as ``draw``. Both run ``_move``. A proposal whose
    target or gradient is not finite (an overflowing or underflowing scale)
    is rejected; the target is evaluated with numpy's floating-point
    warnings silenced.
    """

    def __init__(self, step_size, num_steps, langevin):
        self.step_size = check_positive(step_size, "step_size")
        self.num_steps = check_positive_int(num_steps, "num_steps")
        self.langevin = langevin

    def is_conjugate(self):
        return False

    def draw(self, like, prior, rng):
        u = like.state.to_unconstrained()
        target = _log_target(type(like).unconstrained_lpdf, like.unconstrained_stats(), prior)
        state = type(like.state).from_unconstrained(self._move(target, u, rng))
        like.state = state
        return state

    def draw_batch(self, likes, prior, rng):
        """Move the clusters whose likelihoods are ``likes`` (one family, none empty)."""
        like_cls, state_cls = type(likes[0]), type(likes[0].state)
        u = np.stack([like.state.to_unconstrained() for like in likes], axis=1)
        target = _log_target(like_cls.unconstrained_lpdf,
                             like_cls.stack_unconstrained_stats(likes), prior)
        for like, col in zip(likes, self._move(target, u, rng).T):
            like.state = state_cls.from_unconstrained(col)

    def _evaluate(self, target, u):
        """The target at u, -inf where it or its gradient is not finite, and the gradient."""
        if self.langevin:
            logp, grad = ad.gradient(target, u)
            finite = np.isfinite(logp) & np.isfinite(grad).all(axis=0)
        else:
            logp, grad = target(u), None
            finite = np.isfinite(logp)
        return _select(finite, logp, -np.inf), grad

    def _move(self, target, u, rng):
        """``num_steps`` Metropolis steps from u, (p,) or (p, k); returns the new u."""
        eps = self.step_size
        half = 0.5 * eps * eps
        batch = u.shape[1:] or None  # the uniforms' shape: one per cluster
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logp, grad = self._evaluate(target, u)
            for _ in range(self.num_steps):
                fwd_mean = u + half * grad if self.langevin else u
                prop = fwd_mean + eps * rng.standard_normal(u.shape)
                logp_prop, grad_prop = self._evaluate(target, prop)
                log_ratio = logp_prop - logp
                if self.langevin:
                    rev_mean = prop + half * grad_prop
                    log_ratio += (np.sum((prop - fwd_mean) ** 2, axis=0)
                                  - np.sum((u - rev_mean) ** 2, axis=0)) / (2.0 * eps * eps)
                # a NaN ratio (a rejected proposal from a rejected state) compares False
                accept = np.log(rng.random(batch)) < log_ratio
                u = _select(accept, prop, u)
                logp = _select(accept, logp_prop, logp)
                if self.langevin:
                    grad = _select(accept, grad_prop, grad)
        return u


def _select(take, new, old):
    """``new`` where ``take``, else ``old``: per cluster (the last axis) for a batch.

    One cluster's ``take`` is a numpy bool, and a plain branch is much
    cheaper than ``np.where``.
    """
    if isinstance(take, np.ndarray):
        return np.where(take, new, old)
    return new if take else old


def _log_target(unconstrained_lpdf, stats, prior):
    """u -> the clusters' log posterior at u: likelihood plus prior, both unconstrained."""
    def target(u):
        return unconstrained_lpdf(stats, u) + prior.lpdf_from_unconstrained(u)

    return target


# config name -> (langevin, default step size)
_METROPOLIS_KINDS = {"rwmh": (False, 0.25), "mala": (True, 0.1)}


def build_metropolis_updater(kind, step_size=None, num_steps=1):
    """Create a Metropolis updater by config name ('rwmh' or 'mala')."""
    if kind not in _METROPOLIS_KINDS:
        raise ValueError(f"unknown updater '{kind}'; expected 'rwmh' or 'mala'")
    langevin, default_step = _METROPOLIS_KINDS[kind]
    return MetropolisUpdater(default_step if step_size is None else step_size, num_steps, langevin)
