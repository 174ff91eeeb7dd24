"""Full-conditional samplers for component parameters.

Every updater has one draw, ``draw_batch(likes, prior, rng, rows, labels)``,
of all of a sampler's clusters (``rows`` its data, ``labels`` their clusters)
or of a birth's one. The conjugate updater stacks the clusters' sizes and
sufficient statistics, sums about the prior mean (the reference a
:class:`~mixmcmc.hierarchy.Hierarchy` sets), and draws every state in one
stacked prior draw at their posterior hyperparameters: one elementwise
function per family, ``posterior_hypers(card, stats, hypers)``, of one
cluster's numbers or k clusters' stacked arrays (the prior's at card 0),
not checked again. It also exposes the matching marginal (predictive)
densities used by marginal algorithms, each written once: the univariate
ones as a float ``lpdf``, which Neal3 calls n k times per sweep and their
shared ``lpdf_grid`` maps over a grid's rows, the multivariate t as one
array ``lpdf_grid``, whose one-row call is its ``lpdf``. The N x IG
updater runs its Gibbs scan elementwise on the same stacked numbers.

The Metropolis updater, random-walk or Langevin, works with any
likelihood/prior pair that has an unconstrained parameterization: the
normal and Laplace kernels under the NIG and N x IG priors. It draws the
empty clusters from the prior and moves the others at once, on the
likelihood's and the prior's unconstrained densities. Each is one
elementwise closed-form expression of one cluster's numbers that gives
the value and the gradient; the updater calls them on Python floats,
cluster by cluster, and keeps numpy for the draws, the exponentials
exp(-log scale) that both expressions read, and the acceptance logs. The
clusters' member data come from the sampler's rows and labels.
"""

import math
from math import inf, isfinite

import numpy as np

from ._validation import check_positive, check_positive_int
from .exceptions import CapabilityError, ConfigError
from .likelihoods import squared_norm_rows, whiten_rows
from .priors import GammaPriorHypers, NIGHypers, NWHypers, variates
from .states import UniLSState


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

    ``centred_sum`` is the sum of y - mean0 over the cluster. Like the
    variance's, it is elementwise over stacked clusters.
    """
    prec = 1.0 / hypers.var + card / var
    return hypers.mean + centred_sum / var / prec, 1.0 / prec


def nnxig_var_full_conditional(hypers, centred_sum, centred_sum_squares, card, mean):
    """Inverse-gamma (shape, scale) of var | mean, data under the independent prior.

    The sums are of y - mean0 and its square; with d = mean - mean0,
    sum (y - mean)^2 = Q - 2 d S + n d^2.
    """
    dev = mean - hypers.mean
    spread = centred_sum_squares - 2.0 * dev * centred_sum + card * dev * dev
    # (x + |x|) / 2 is max(x, 0), elementwise
    return hypers.shape + 0.5 * card, hypers.scale + 0.25 * (spread + abs(spread))


class _UnivariatePredictive:
    """A predictive written once, as a float ``lpdf``; ``lpdf_grid`` maps it over a grid's
    rows, so each entry has its bits (a sampler maps it once per run)."""

    __slots__ = ()

    def lpdf_grid(self, ys):
        return np.array(list(map(self.lpdf, np.ravel(ys).tolist())))


class StudentT(_UnivariatePredictive):
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


class MultivariateT:
    """Multivariate Student-t predictive with df, location and scale matrix."""

    __slots__ = ("df", "loc", "chol_inv", "dim", "_log_norm")

    def __init__(self, df, loc, scale_matrix):
        self.df = df
        self.loc = np.asarray(loc, dtype=float).reshape(-1)
        self.dim = self.loc.shape[0]
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
        return float(self.lpdf_grid(np.reshape(y, (1, -1)))[0])

    def lpdf_grid(self, ys):
        diff = ys - self.loc
        quad = squared_norm_rows(whiten_rows(self.chol_inv, diff))
        return self._log_norm - 0.5 * (self.df + self.dim) * np.log1p(quad / self.df)


class CompoundGamma(_UnivariatePredictive):
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


def _stacked(likes):
    """The clusters' sizes and statistics, stacked along a first axis; one cluster's are
    its own numbers (all is elementwise), so that a birth's posterior runs on floats."""
    if len(likes) == 1:
        return likes[0].card, likes[0].stats
    return (np.array([like.card for like in likes], dtype=float),
            [np.array(column) for column in zip(*[like.stats for like in likes])])


class ConjugateUpdater:
    """Closed-form updater for a conjugate likelihood/prior pair.

    ``posterior_hypers(card, stats, hypers)`` maps a cluster's size and
    statistics, centred on the prior mean, and the prior hyperparameters
    to the posterior ones, elementwise over stacked clusters; the draw goes
    through the prior's sampler at those. ``predictive(hypers)`` builds the
    marginal density of one datum under given hyperparameters.
    """

    def __init__(self, posterior_hypers, predictive):
        self.posterior_hypers = posterior_hypers
        self.predictive = predictive

    def is_conjugate(self):
        return True

    def draw_batch(self, likes, prior, rng, rows, labels):
        """Draw the k clusters' states from their posteriors, in one stacked prior draw."""
        cards, stats = _stacked(likes)
        hypers = self.posterior_hypers(cards, stats, prior.hypers)
        for like, state in zip(likes, prior._draw(rng, (len(likes),), hypers).states()):
            like.state = state


class NNxIGUpdater:
    """One Gibbs scan for the normal kernel under the independent N x IG prior, elementwise."""

    def is_conjugate(self):
        return False

    def draw_batch(self, likes, prior, rng, rows, labels):
        h = prior.hypers
        cards, (centred_sum, centred_sum_squares) = _stacked(likes)
        # each cluster's normal, then its gamma (var | mean's shape is free of the mean)
        normals, gammas = variates(lambda a, s=None: (rng.standard_normal(s), rng.gamma(a, size=s)),
                                   h.shape + 0.5 * cards, (len(likes),))
        var = np.array([like.state.var for like in likes])
        mean_fc, var_fc = nnxig_mean_full_conditional(h, centred_sum, cards, var)
        mean = mean_fc + np.sqrt(var_fc) * normals
        _, scale_n = nnxig_var_full_conditional(h, centred_sum, centred_sum_squares, cards, mean)
        for like, mean_j, var_j in zip(likes, mean.tolist(), (scale_n / gammas).tolist()):
            like.state = UniLSState(mean_j, var_j)


class MetropolisUpdater:
    """Metropolis on the unconstrained parameterization of the clusters' states.

    Without ``langevin`` the proposal is a Gaussian random walk. With it the
    proposal drifts along the gradient (MALA) and carries the matching
    correction. The target is the likelihood's ``unconstrained_lpdf`` plus
    the prior's ``_unconstrained_lpdf``, each giving a value and a gradient
    in closed form.

    ``draw_batch`` draws the empty clusters from the prior, in list order,
    then moves the k others together: each step draws one (2, k) normal
    block and k uniforms and accepts or rejects each cluster's proposal on
    its own, so a batch of one is the single-cluster kernel. A proposal
    whose target (or, for MALA, gradient) is not finite (an overflowing or
    underflowing scale) is rejected.
    """

    def __init__(self, step_size, num_steps, langevin):
        self.step_size = check_positive(step_size, "step_size")
        self.num_steps = check_positive_int(num_steps, "num_steps")
        self.langevin = langevin
        if langevin and not 2.0 * self.step_size * self.step_size > 0.0:
            # the Langevin correction divides by it
            raise ValueError(f"step_size {step_size} is too small for MALA: its square "
                             "underflows")

    def is_conjugate(self):
        return False

    def draw_batch(self, likes, prior, rng, rows, labels):
        """Refresh the clusters whose likelihoods are ``likes`` (one family).

        Without ``rows`` and ``labels`` a non-empty cluster raises
        :class:`~mixmcmc.exceptions.CapabilityError`. The clusters'
        coordinates are lists of Python floats, and each cluster's step runs
        on them in the order of operations of the (2, k) array kernel, so
        the chain has its bits.
        """
        for like in likes:
            if not like.card:
                like.state = prior.sample(rng)
        occupied = [like for like in likes if like.card]
        if not occupied:
            return
        if rows is None:
            raise CapabilityError(f"{type(self).__name__}.draw_batch moves non-empty clusters "
                                  "on a sampler's data and labels")
        if len(occupied) < len(likes):  # numbered 0..k-1 in list order
            labels = (np.cumsum([like.card > 0 for like in likes]) - 1)[labels]
        likes = occupied
        # a state without an unconstrained representation raises CapabilityError here
        u = np.array([like.state.to_unconstrained() for like in likes])
        means, log_scales = u.T.tolist()
        like_cls, state_cls = type(likes[0]), type(likes[0].state)
        langevin = self.langevin
        # the random walk reads no gradient, so the likelihood may leave out its sums
        sums = like_cls.unconstrained_stats(likes, rows, labels, langevin)
        like_lpdf, prior_lpdf = like_cls.unconstrained_lpdf, prior._unconstrained_lpdf

        def target(means, log_scales):
            """Per cluster (log target, its two partial derivatives); -inf where not finite."""
            out = []
            es = np.exp([-s for s in log_scales]).tolist()
            for numbers, mean, log_scale, e in zip(sums(means), means, log_scales, es):
                value, g_mean, g_log = like_lpdf(*numbers, mean, log_scale, e)
                p_value, p_mean, p_log = prior_lpdf(mean, log_scale, e)
                value, g_mean, g_log = value + p_value, g_mean + p_mean, g_log + p_log
                if not (isfinite(value)
                        and (not langevin or isfinite(g_mean) and isfinite(g_log))):
                    value = -inf
                out.append((value, g_mean, g_log))
            return out

        eps = self.step_size
        half, eps_sq, two_eps_sq = 0.5 * eps * eps, eps * eps, 2.0 * eps * eps
        k = len(likes)
        # only the exponentials and the logs of the uniforms are numpy's
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            current = target(means, log_scales)
            for _ in range(self.num_steps):
                z_means, z_logs = rng.standard_normal((2, k)).tolist()
                prop_means, prop_logs = [], []
                for mean, log_scale, (_, g_mean, g_log), z_mean, z_log in zip(
                        means, log_scales, current, z_means, z_logs):
                    if langevin:
                        mean, log_scale = mean + half * g_mean, log_scale + half * g_log
                    prop_means.append(mean + eps * z_mean)
                    prop_logs.append(log_scale + eps * z_log)
                proposed = target(prop_means, prop_logs)
                log_uniforms = np.log(rng.random(k)).tolist()
                for j, log_uniform in enumerate(log_uniforms):
                    log_ratio = proposed[j][0] - current[j][0]
                    if langevin:
                        # the proposal densities' exponents; prop - forward mean is eps z
                        _, g_mean, g_log = proposed[j]
                        rev_mean = means[j] - prop_means[j] - half * g_mean
                        rev_log = log_scales[j] - prop_logs[j] - half * g_log
                        log_ratio += (eps_sq * (z_means[j] * z_means[j] + z_logs[j] * z_logs[j])
                                      - (rev_mean * rev_mean + rev_log * rev_log)) / two_eps_sq
                    # a NaN ratio (a rejected proposal from a rejected state) compares False
                    if log_uniform < log_ratio:
                        means[j], log_scales[j] = prop_means[j], prop_logs[j]
                        current[j] = proposed[j]
        for like, mean, log_scale in zip(likes, means, log_scales):
            like.state = state_cls.from_unconstrained((mean, log_scale))


# config name -> (langevin, default step size)
_METROPOLIS_KINDS = {"rwmh": (False, 0.25), "mala": (True, 0.1)}


def build_metropolis_updater(kind, step_size=None, num_steps=1):
    """Create a Metropolis updater by config name ('rwmh' or 'mala')."""
    if kind not in _METROPOLIS_KINDS:
        raise ConfigError(f"key 'updater' must be 'rwmh' or 'mala', got {kind!r}")
    langevin, default_step = _METROPOLIS_KINDS[kind]
    return MetropolisUpdater(default_step if step_size is None else step_size, num_steps, langevin)
