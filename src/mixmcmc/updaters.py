"""Full-conditional samplers for component parameters.

The conjugate updater computes posterior hyperparameters from the cluster's
size and sufficient statistics, which are sums about the prior mean (the
reference a :class:`~mixmcmc.hierarchy.Hierarchy` sets), and draws through
the prior's sampler; it also exposes the matching marginal (predictive)
densities used by marginal algorithms. Each family's posterior is one
elementwise function, ``posterior_hypers(card, stats, hypers)``, of one
cluster's numbers or of k clusters' stacked arrays. Posterior
hyperparameters are computed from checked prior ones and are not checked
again.

The Metropolis updater, random-walk or Langevin, works with any
likelihood/prior pair that has an unconstrained parameterization: the
normal and Laplace kernels under the NIG and N x IG priors. It moves all
of a sampler's non-empty clusters at once (``draw_batch``), on the
likelihood's and the prior's unconstrained densities, each written in
closed form with its gradient over k clusters' arrays. The clusters'
member data come from the sampler's rows and labels.
"""

import math

import numpy as np

from ._validation import check_positive, check_positive_int
from .likelihoods import squared_norm_rows, whiten_rows
from .priors import GammaPriorHypers, NIGHypers, NWHypers


def nnig_posterior_hypers(card, stats, hypers):
    """Posterior normal-inverse-gamma hyperparameters of a normal cluster.

    Like the other posterior-hyperparameter functions it is elementwise:
    ``card`` and the statistic list ``stats`` (sums about ``hypers.mean``)
    are one cluster's numbers or k clusters' stacked arrays, and at card 0
    it gives the prior's values. With S and Q the sums of y - mean0 and its
    square, mean_n = mean0 + S / lam_n and scale_n = scale + (Q - S^2 / lam_n) / 2.
    """
    centred_sum, centred_sum_squares = stats
    lam_n = hypers.var_scaling + card
    spread = centred_sum_squares - centred_sum * centred_sum / lam_n
    return NIGHypers(
        hypers.mean + centred_sum / lam_n,
        lam_n,
        hypers.shape + 0.5 * card,
        # (x + |x|) / 2 is max(x, 0), elementwise: rounding can leave the spread below 0
        hypers.scale + 0.25 * (spread + abs(spread)),
    )


def nnw_posterior_hypers(card, stats, hypers):
    """Posterior normal-inverse-Wishart hyperparameters of a multinormal cluster.

    With S and Q the sums of y - mean0 and its outer product (stacked: the
    last one and two axes), mean_n = mean0 + S / lam_n and
    scale_n = scale + Q - S S^T / lam_n, symmetrised.
    """
    centred_sum, centred_sum_outer = stats
    lam_n = hypers.var_scaling + card
    lam_vector = np.asarray(lam_n)[..., None]
    outer = centred_sum[..., :, None] * centred_sum[..., None, :]
    scale_n = hypers.scale + centred_sum_outer - outer / lam_vector[..., None]
    scale_n = 0.5 * (scale_n + np.swapaxes(scale_n, -1, -2))
    return NWHypers(hypers.mean + centred_sum / lam_vector, lam_n, hypers.deg_free + card,
                    scale_n)


def gamma_gamma_posterior_hypers(card, stats, hypers):
    """Posterior Gamma hyperparameters of a Gamma-rate cluster; ``stats`` holds the data sum."""
    return GammaPriorHypers(
        hypers.shape,
        hypers.rate_alpha + hypers.shape * card,
        hypers.rate_beta + stats[0],
    )


def nnxig_mean_full_conditional(hypers, centred_sum, card, var):
    """Mean and variance of mean | var, data under the independent prior.

    ``centred_sum`` is the sum of y - mean0 over the cluster.
    """
    prec = 1.0 / hypers.var + card / var
    return hypers.mean + centred_sum / var / prec, 1.0 / prec


def nnxig_var_full_conditional(hypers, centred_sum, centred_sum_squares, card, mean):
    """Inverse-gamma (shape, scale) of var | mean, data under the independent prior.

    The sums are of y - mean0 and its square; with d = mean - mean0,
    sum (y - mean)^2 = Q - 2 d S + n d^2.
    """
    dev = mean - hypers.mean
    shape_n = hypers.shape + 0.5 * card
    scale_n = hypers.scale + 0.5 * max(
        centred_sum_squares - 2.0 * dev * centred_sum + card * dev * dev, 0.0
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

    ``posterior_hypers(card, stats, hypers)`` maps a cluster's size and
    statistics, centred on the prior mean, and the prior hyperparameters
    to the posterior ones; the draw goes through the prior's sampler at
    those. ``predictive(hypers)`` builds the marginal density of one datum
    under given hyperparameters.
    """

    def __init__(self, posterior_hypers, predictive):
        self.posterior_hypers = posterior_hypers
        self.predictive = predictive

    def is_conjugate(self):
        return True

    def draw(self, like, prior, rng):
        hypers = self.posterior_hypers(like.card, like.stats, prior.hypers)
        state = prior.sample(rng, hypers=hypers)
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
        centred_sum, centred_sum_squares = like.stats
        mean_fc, var_fc = nnxig_mean_full_conditional(h, centred_sum, n, var)
        mean = mean_fc + math.sqrt(var_fc) * rng.standard_normal()
        shape_n, scale_n = nnxig_var_full_conditional(
            h, centred_sum, centred_sum_squares, n, mean
        )
        var = scale_n / rng.gamma(shape_n)
        state = type(like.state)(mean, var)
        like.state = state
        return state


class MetropolisUpdater:
    """Metropolis on the unconstrained parameterization of the clusters' states.

    Without ``langevin`` the proposal is a Gaussian random walk. With it the
    proposal drifts along the gradient (MALA) and carries the matching
    correction. The target is the likelihood's ``unconstrained_lpdf`` plus
    the prior's ``lpdf_from_unconstrained``, each giving a value and a
    gradient in closed form; the random walk evaluates the value only.

    ``draw_batch`` moves k clusters of one family together, on u of shape
    (p, k): each step draws one (p, k) normal block and k uniforms and
    accepts or rejects each cluster's proposal on its own, so a batch of
    one is the single-cluster kernel. A proposal whose target (or, for
    MALA, gradient) is not finite (an overflowing or underflowing scale)
    is rejected; the target is evaluated with numpy's floating-point
    warnings silenced.
    """

    def __init__(self, step_size, num_steps, langevin):
        self.step_size = check_positive(step_size, "step_size")
        self.num_steps = check_positive_int(num_steps, "num_steps")
        self.langevin = langevin

    def is_conjugate(self):
        return False

    def draw_batch(self, likes, prior, rng, rows, labels):
        """Move the clusters whose likelihoods are ``likes`` (one family, none empty).

        ``rows`` are the sampler's data and ``labels`` their clusters, in
        0..k-1 indexing ``likes``.
        """
        like_cls, state_cls = type(likes[0]), type(likes[0].state)
        u = np.array([like.state.to_unconstrained() for like in likes]).T
        target = _log_target(like_cls.unconstrained_lpdf,
                             like_cls.unconstrained_stats(likes, rows, labels), prior,
                             self.langevin)
        self._move(target, u, rng)
        for like, col in zip(likes, u.T):
            like.state = state_cls.from_unconstrained(col)

    def _evaluate(self, target, u):
        """The target at u, -inf where it (MALA: or its gradient) is not finite; the gradient.

        The random walk's target gives no gradient (None).
        """
        logp, grad = target(u)
        finite = np.isfinite(logp)
        if self.langevin:
            finite &= np.isfinite(grad).all(axis=0)
        np.copyto(logp, -np.inf, where=~finite)
        return logp, grad

    def _move(self, target, u, rng):
        """``num_steps`` Metropolis steps from u, of shape (p, k), which it updates in place."""
        eps = self.step_size
        half = 0.5 * eps * eps
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logp, grad = self._evaluate(target, u)
            for _ in range(self.num_steps):
                fwd_mean = u + half * grad if self.langevin else u
                z = rng.standard_normal(u.shape)
                prop = fwd_mean + eps * z
                logp_prop, grad_prop = self._evaluate(target, prop)
                log_ratio = logp_prop - logp
                if self.langevin:
                    # the proposal densities' exponents; prop - fwd_mean is eps z
                    rev_dev = u - prop - half * grad_prop
                    log_ratio += ((eps * eps) * (z * z).sum(axis=0)
                                  - (rev_dev * rev_dev).sum(axis=0)) / (2.0 * eps * eps)
                # a NaN ratio (a rejected proposal from a rejected state) compares False
                accept = np.log(rng.random(u.shape[1])) < log_ratio
                np.copyto(u, prop, where=accept)
                np.copyto(logp, logp_prop, where=accept)
                if self.langevin:
                    np.copyto(grad, grad_prop, where=accept)


def _log_target(unconstrained_lpdf, stats, prior, grad=True):
    """u -> the clusters' log posterior at u and its gradient (None without ``grad``)."""
    def target(u):
        like_value, like_grad = unconstrained_lpdf(stats, u, grad)
        prior_value, prior_grad = prior.lpdf_from_unconstrained(u, grad)
        return like_value + prior_value, like_grad + prior_grad if grad else None

    return target


# config name -> (langevin, default step size)
_METROPOLIS_KINDS = {"rwmh": (False, 0.25), "mala": (True, 0.1)}


def build_metropolis_updater(kind, step_size=None, num_steps=1):
    """Create a Metropolis updater by config name ('rwmh' or 'mala')."""
    if kind not in _METROPOLIS_KINDS:
        raise ValueError(f"unknown updater '{kind}'; expected 'rwmh' or 'mala'")
    langevin, default_step = _METROPOLIS_KINDS[kind]
    return MetropolisUpdater(default_step if step_size is None else step_size, num_steps, langevin)
