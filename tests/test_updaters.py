import dataclasses
import math

import numpy as np
import pytest
from scipy import special
from oracles import (
    fill,
    gamma_rate_quadrature,
    metropolis_array_move,
    metropolis_array_target,
    monte_carlo_se,
    nnig_quadrature,
    nxig_quadrature,
)

from mixmcmc.exceptions import CapabilityError
from mixmcmc.hierarchy import build_hierarchy
from mixmcmc.likelihoods import (
    GammaLikelihood,
    LaplaceLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
)
from mixmcmc.priors import (
    GammaPrior,
    GammaPriorHypers,
    NIGHypers,
    NIGPrior,
    NWHypers,
    NWPrior,
    NxIGHypers,
    NxIGPrior,
)
from mixmcmc.states import GammaState, MultiLSState, UniLSState
from mixmcmc.updaters import (
    ConjugateUpdater,
    NNxIGUpdater,
    build_metropolis_updater,
    gamma_gamma_posterior_hypers,
    gamma_gamma_predictive,
    nnig_posterior_hypers,
    nnig_predictive,
    nnw_posterior_hypers,
    nnw_predictive,
    nnxig_mean_full_conditional,
)

NIG_REF = NIGHypers(0.0, 0.1, 2.0, 2.0)


def _nnig_updater():
    return ConjugateUpdater(nnig_posterior_hypers, nnig_predictive)


def _nnw_updater():
    return ConjugateUpdater(nnw_posterior_hypers, nnw_predictive)


def _gamma_gamma_updater():
    return ConjugateUpdater(gamma_gamma_posterior_hypers, gamma_gamma_predictive)


def _normal_cluster(data):
    return fill(UniNormLikelihood(UniLSState(0.0, 1.0)), data)


def _target(likes, prior, rows, labels):
    """u (2, k) -> the k clusters' log targets (k,) and gradient (2, k).

    Each cluster's value and partial derivatives are the likelihood's and
    the prior's per-cluster expressions, summed, on Python floats.
    """
    like_cls = type(likes[0])
    sums = like_cls.unconstrained_stats(likes, rows, labels)

    def target(u):
        means, log_scales = u.tolist()
        out = []
        for numbers, mean, log_scale, e in zip(sums(means), means, log_scales,
                                               np.exp(-u[1]).tolist()):
            like_terms = like_cls.unconstrained_lpdf(*numbers, mean, log_scale, e)
            prior_terms = prior._unconstrained_lpdf(mean, log_scale, e)
            out.append([a + b for a, b in zip(like_terms, prior_terms)])
        out = np.array(out).T
        return out[0], out[1:]

    return target


def _draw(updater, like, prior, rng):
    """One draw of the cluster ``like`` from its full conditional, as a batch of one."""
    updater.draw_batch([like], prior, rng, None, None)
    return like.state


def _metropolis_draw(updater, like, prior, rng, data):
    """One Metropolis draw of the cluster ``like``, which holds ``data``, as a batch of one."""
    rows = np.asarray(data, dtype=float).reshape(-1, 1)
    updater.draw_batch([like], prior, rng, rows, np.zeros(len(rows), dtype=int))
    return like.state


def test_nnig_empty_cluster_returns_prior_hypers():
    like = _normal_cluster([])
    assert nnig_posterior_hypers(like.card, like.stats, NIG_REF) == NIG_REF


def test_nnig_single_datum_worked_example():
    like = _normal_cluster([1.0])
    post = nnig_posterior_hypers(like.card, like.stats, NIG_REF)
    assert post.var_scaling == pytest.approx(1.1)
    assert post.mean == pytest.approx(10.0 / 11.0)
    assert post.shape == pytest.approx(2.5)
    assert post.scale == pytest.approx(2.0 + 1.0 / 22.0)


def test_nnig_posterior_matches_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(20):
        data = rng.normal(rng.normal(), 1.0 + rng.random(), size=rng.integers(1, 6))
        like = _normal_cluster(data)
        post = nnig_posterior_hypers(like.card, like.stats, NIG_REF)
        oracle = nnig_quadrature(data, 0.0, 0.1, 2.0, 2.0)
        # posterior marginal of mean is centered at post.mean; E[var] = scale/(shape-1)
        assert post.mean == pytest.approx(oracle["e_mean"], rel=1e-3, abs=1e-6)
        assert post.scale / (post.shape - 1.0) == pytest.approx(
            oracle["e_var"], rel=1e-3
        )


def test_nnig_posterior_at_a_nonzero_prior_mean_matches_quadrature():
    # a hierarchy centres the statistics on its prior mean, here 3
    rng = np.random.default_rng(46)
    values = {"mean": 3.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}
    for _ in range(20):
        data = rng.normal(3.0 + rng.normal(), 1.0 + rng.random(), size=rng.integers(1, 6))
        hier = fill(build_hierarchy("NNIG", {"fixed_values": values}), data)
        post = _posterior(hier)
        oracle = nnig_quadrature(data, 3.0, 0.1, 2.0, 2.0)
        assert post.mean == pytest.approx(oracle["e_mean"], rel=1e-3, abs=1e-6)
        assert post.scale / (post.shape - 1.0) == pytest.approx(oracle["e_var"], rel=1e-3)


# each conjugate family's prior (normal ones away from mean 0) and a datum draw
_CONJUGATE_FAMILIES = {
    "NNIG": ({"mean": 3.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0},
             lambda rng: 3.0 + rng.normal()),
    "NNW": ({"mean": {"size": 2, "data": [3.0, -1.0]}, "var_scaling": 0.1, "deg_free": 5.0,
             "scale": {"rows": 2, "cols": 2, "data": [2.0, 0.3, 0.3, 1.0]}},
            lambda rng: np.array([3.0, -1.0]) + rng.normal(size=2)),
    "GammaGamma": ({"shape": 2.0, "rate_alpha": 2.0, "rate_beta": 2.0},
                   lambda rng: rng.gamma(2.0)),
}


@pytest.mark.parametrize("family", sorted(_CONJUGATE_FAMILIES))
def test_posterior_hypers_are_elementwise(family):
    # k clusters' stacked sizes and statistics give, bitwise, what k
    # single-cluster calls give; an empty cluster gets the prior's values
    values, draw = _CONJUGATE_FAMILIES[family]
    template = build_hierarchy(family, {"fixed_values": values})
    rng = np.random.default_rng(47)
    clusters = []
    for size in (0, 1, 4, 9, 0, 2):
        clusters.append(fill(template.likelihood.clone_empty(), [draw(rng) for _ in range(size)]))
    posterior, hypers = template.updater.posterior_hypers, template.prior.hypers
    singles = [posterior(c.card, c.stats, hypers) for c in clusters]
    stacked = posterior(np.array([c.card for c in clusters]),
                        [np.array(s) for s in zip(*(c.stats for c in clusters))],
                        hypers)
    for name in (field.name for field in dataclasses.fields(hypers)):
        column = getattr(stacked, name)
        for j, single in enumerate(singles):
            want = np.asarray(getattr(single, name), dtype=float)
            got = np.broadcast_to(column, (len(singles),) + want.shape)[j]
            assert got.tobytes() == want.tobytes(), (name, j)
            if not clusters[j].card:
                assert np.array_equal(want, getattr(hypers, name)), name


_NXIG_VALUES = {"mean": 3.0, "var": 2.0, "shape": 2.0, "scale": 2.0}


def _nnxig_scan(like, h, rng):
    """The single-cluster Gibbs scan on Python floats, with max(x, 0)."""
    n, var, (centred_sum, centred_sum_squares) = like.card, like.state.var, like.stats
    prec = 1.0 / h.var + n / var
    mean = h.mean + centred_sum / var / prec + math.sqrt(1.0 / prec) * rng.standard_normal()
    dev = mean - h.mean
    scale_n = h.scale + 0.5 * max(
        centred_sum_squares - 2.0 * dev * centred_sum + n * dev * dev, 0.0)
    return UniLSState(mean, scale_n / rng.gamma(h.shape + 0.5 * n))


@pytest.mark.parametrize("family", sorted(_CONJUGATE_FAMILIES) + ["NNxIG"])
def test_a_stacked_draw_has_the_bits_of_single_posterior_draws(family):
    # one draw_batch over k clusters draws, bit for bit, what k single draws
    # in list order draw: one prior draw at each posterior (NNxIG: the scalar
    # Gibbs scan); a batch of one is a birth's draw, and an empty cluster's
    # alone is the prior's own draw
    if family == "NNxIG":
        values, draw = _NXIG_VALUES, _CONJUGATE_FAMILIES["NNIG"][1]
    else:
        values, draw = _CONJUGATE_FAMILIES[family]
    template = build_hierarchy(family, {"fixed_values": values})
    updater, prior = template.updater, template.prior
    data_rng = np.random.default_rng(48)
    for sizes in [(0,), (1,), (3,), (7,), (4, 0, 9, 1)]:
        likes = [fill(template.likelihood.clone_empty(), [draw(data_rng) for _ in range(size)])
                 for size in sizes]
        for seed in range(100):
            for like in likes:
                like.state = template.likelihood.state.copy()
            rng = np.random.default_rng(seed)
            if family == "NNxIG":
                wanted = [_nnxig_scan(like, prior.hypers, rng) for like in likes]
            else:
                wanted = [prior._draw(rng, (), updater.posterior_hypers(
                    like.card, like.stats, prior.hypers)).state(()) for like in likes]
            updater.draw_batch(likes, prior, np.random.default_rng(seed), None, None)
            for want, like in zip(wanted, likes):
                assert type(like.state) is type(want)
                want, got = want.to_params(), like.state.to_params()
                assert all(want[k].tobytes() == got[k].tobytes() for k in want), (sizes, seed)
            if sizes == (0,) and family != "NNxIG":
                assert likes[0].state == prior.sample(np.random.default_rng(seed)), seed


def _posterior_moments(family, post):
    """(name, function of a state, its exact posterior mean) for a family's draws."""
    if family == "NNIG":
        return [("mean", lambda s: s.mean, post.mean),
                ("log var", lambda s: math.log(s.var),
                 math.log(post.scale) - special.digamma(post.shape))]
    if family == "NNW":
        # cov[0, 0] ~ IG((deg_free - d + 1) / 2, scale[0, 0] / 2)
        return [("mean[0]", lambda s: s.mean[0], post.mean[0]),
                ("log cov[0, 0]", lambda s: math.log(s.cov[0, 0]),
                 math.log(post.scale[0, 0] / 2.0)
                 - special.digamma((post.deg_free - post.dim + 1.0) / 2.0))]
    return [("rate", lambda s: s.rate, post.rate_alpha / post.rate_beta)]


@pytest.mark.parametrize("family", sorted(_CONJUGATE_FAMILIES))
def test_a_stacked_draw_has_each_clusters_posterior_moments(family):
    # one draw_batch over clusters of different sizes and statistics, an
    # empty one among them, draws each from its own posterior
    values, draw = _CONJUGATE_FAMILIES[family]
    template = build_hierarchy(family, {"fixed_values": values})
    rng = np.random.default_rng(49)
    likes = [fill(template.likelihood.clone_empty(), [draw(rng) for _ in range(size)])
             for size in (4, 0, 9, 1)]
    moments = [_posterior_moments(family, template.updater.posterior_hypers(
        like.card, like.stats, template.prior.hypers)) for like in likes]
    draws = 4_000
    values = np.empty((draws, len(likes), 2 if family != "GammaGamma" else 1))
    for t in range(draws):
        template.updater.draw_batch(likes, template.prior, rng, None, None)
        for j, like in enumerate(likes):
            values[t, j] = [f(like.state) for _, f, _ in moments[j]]
    for j, cluster_moments in enumerate(moments):
        for m, (name, _, want) in enumerate(cluster_moments):
            got = values[:, j, m]
            se = got.std() / math.sqrt(draws)
            assert abs(got.mean() - want) < 4 * se, (j, name, got.mean(), want, se)


def test_nnig_posterior_mean_between_prior_and_sample_mean():
    rng = np.random.default_rng(22)
    for _ in range(100):
        data = rng.normal(rng.normal() * 5, 2.0, size=rng.integers(1, 10))
        like = _normal_cluster(data)
        post = nnig_posterior_hypers(like.card, like.stats, NIG_REF)
        lo, hi = sorted([NIG_REF.mean, float(np.mean(data))])
        assert lo - 1e-12 <= post.mean <= hi + 1e-12


def _nw_fields(hypers):
    return (hypers.mean.tolist(), hypers.var_scaling, hypers.deg_free, hypers.scale.tolist())


def test_nnw_empty_cluster_unchanged():
    hypers = NWHypers(np.array([0.5, -1.0]), 0.5, 5.0, np.array([[2.0, 0.3], [0.3, 1.0]]))
    like = MultiNormLikelihood(MultiLSState(np.zeros(2), np.eye(2)))
    assert _nw_fields(nnw_posterior_hypers(like.card, like.stats, hypers)) == _nw_fields(hypers)


def _posterior(hier):
    like = hier.likelihood
    return hier.updater.posterior_hypers(like.card, like.stats, hier.prior.hypers)


def test_nnw_dimension_one_reduces_to_nnig():
    # IW_1(nu, psi) == IG(nu/2, psi/2), so the two updates must agree; both
    # hierarchies centre their statistics on the prior mean 0.3
    rng = np.random.default_rng(23)
    nw_values = {"mean": {"size": 1, "data": [0.3]}, "var_scaling": 0.7, "deg_free": 5.0,
                 "scale": {"rows": 1, "cols": 1, "data": [3.0]}}
    nig_values = {"mean": 0.3, "var_scaling": 0.7, "shape": 2.5, "scale": 1.5}
    for _ in range(20):
        data = rng.normal(1.0, 2.0, size=rng.integers(1, 8))
        multi = fill(build_hierarchy("NNW", {"fixed_values": nw_values}), data)
        uni = fill(build_hierarchy("NNIG", {"fixed_values": nig_values}), data)
        post_nw, post_nig = _posterior(multi), _posterior(uni)
        assert post_nw.mean[0] == pytest.approx(post_nig.mean, rel=1e-12)
        assert post_nw.var_scaling == pytest.approx(post_nig.var_scaling)
        assert post_nw.deg_free / 2.0 == pytest.approx(post_nig.shape)
        assert post_nw.scale[0, 0] / 2.0 == pytest.approx(post_nig.scale, rel=1e-12)


def test_nnw_posterior_scale_is_spd():
    rng = np.random.default_rng(24)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        a = rng.normal(size=(d, d))
        hypers = NWHypers(rng.normal(size=d), 0.5, d + 3.0, a @ a.T + d * np.eye(d))
        like = fill(MultiNormLikelihood(MultiLSState(np.zeros(d), np.eye(d))),
                    [rng.normal(size=d) for _ in range(int(rng.integers(1, 20)))])
        post = nnw_posterior_hypers(like.card, like.stats, hypers)
        np.linalg.cholesky(post.scale)  # raises unless positive definite
        assert np.array_equal(post.scale, post.scale.T)
        assert post.deg_free == hypers.deg_free + like.card


def test_gamma_gamma_worked_example():
    hypers = GammaPriorHypers(1.0, 2.0, 2.0)
    like = fill(GammaLikelihood(1.0), [1.0, 3.0])
    post = gamma_gamma_posterior_hypers(like.card, like.stats, hypers)
    assert post.rate_alpha == pytest.approx(4.0)
    assert post.rate_beta == pytest.approx(6.0)
    empty = GammaLikelihood(1.0)
    assert gamma_gamma_posterior_hypers(empty.card, empty.stats, hypers) == hypers


def test_gamma_gamma_concentrates_on_truth():
    rng = np.random.default_rng(25)
    hypers = GammaPriorHypers(2.0, 2.0, 2.0)
    for n in (50, 500, 5000):
        data = rng.gamma(2.0, 1.0 / 3.0, size=n)  # kernel rate 3
        like = fill(GammaLikelihood(2.0), data)
        post = gamma_gamma_posterior_hypers(like.card, like.stats, hypers)
        est = post.rate_alpha / post.rate_beta
        # the prior's pull on the posterior mean decays like 1/n
        assert abs(est - 2.0 / data.mean()) < 25.0 / n
    assert abs(est - 3.0) < 0.2


def test_gamma_gamma_posterior_mean_matches_quadrature():
    rng = np.random.default_rng(26)
    data = rng.gamma(1.5, 0.5, size=6)
    like = fill(GammaLikelihood(1.5), data)
    post = gamma_gamma_posterior_hypers(like.card, like.stats, GammaPriorHypers(1.5, 2.0, 1.0))
    oracle = gamma_rate_quadrature(data, 1.5, 2.0, 1.0)
    assert post.rate_alpha / post.rate_beta == pytest.approx(oracle, rel=1e-3)


def test_nnxig_empty_cluster_draws_from_prior_conditionals():
    hypers = NxIGHypers(1.0, 4.0, 3.0, 2.0)
    mean, var_of_mean = nnxig_mean_full_conditional(hypers, 0.0, 0, 1.7)
    assert mean == pytest.approx(1.0)
    assert var_of_mean == pytest.approx(4.0)


def test_nnxig_mean_conditional_flat_prior_limit():
    hypers = NxIGHypers(0.0, 1e8, 2.0, 2.0)
    data_sum, n, var = 7.5, 5, 1.3
    mean, var_of_mean = nnxig_mean_full_conditional(hypers, data_sum, n, var)
    assert mean == pytest.approx(data_sum / n, rel=1e-6)
    assert var_of_mean == pytest.approx(var / n, rel=1e-6)


def test_nnxig_chain_matches_quadrature_posterior():
    # the hierarchy centres the statistics on the prior mean 0.5
    hier = build_hierarchy(
        "NNxIG", {"fixed_values": {"mean": 0.5, "var": 2.0, "shape": 3.0, "scale": 2.0}})
    data = [-0.2, 0.9, 1.4, 0.1, 0.6]
    fill(hier, data)
    updater = hier.updater
    assert isinstance(updater, NNxIGUpdater) and not updater.is_conjugate()
    rng = np.random.default_rng(27)
    mus = np.empty(20_000)
    for t in range(mus.size):
        mus[t] = _draw(updater, hier.likelihood, hier.prior, rng).mean
    oracle = nxig_quadrature(data, 0.5, 2.0, 3.0, 2.0)
    se = monte_carlo_se(mus)
    assert abs(mus.mean() - oracle["e_mean"]) < 3 * se


def test_semi_conjugate_empty_cluster_equals_prior_draw():
    prior = NIGPrior(NIG_REF)
    like = _normal_cluster([])
    updater = _nnig_updater()
    drawn = _draw(updater, like, prior, np.random.default_rng(42))
    direct = prior.sample(np.random.default_rng(42))
    assert drawn == direct


def test_nnig_draws_single_datum_posterior_mean():
    prior = NIGPrior(NIG_REF)
    updater = _nnig_updater()
    rng = np.random.default_rng(28)
    like = _normal_cluster([1.0])
    means = np.array([_draw(updater, like, prior, rng).mean for _ in range(100_000)])
    se = means.std() / math.sqrt(means.size)
    assert abs(means.mean() - 10.0 / 11.0) < 3 * se


def test_gamma_gamma_draws_match_posterior_mean():
    prior = GammaPrior(GammaPriorHypers(1.0, 2.0, 2.0))
    updater = _gamma_gamma_updater()
    like = fill(GammaLikelihood(1.0), [1.0, 3.0])
    rng = np.random.default_rng(29)
    rates = np.array([_draw(updater, like, prior, rng).rate for _ in range(100_000)])
    se = rates.std() / math.sqrt(rates.size)
    assert abs(rates.mean() - 4.0 / 6.0) < 3 * se


def test_is_conjugate_flags():
    assert _nnig_updater().is_conjugate()
    assert _nnw_updater().is_conjugate()
    assert _gamma_gamma_updater().is_conjugate()
    assert not NNxIGUpdater().is_conjugate()
    assert not build_metropolis_updater("rwmh").is_conjugate()
    assert not build_metropolis_updater("mala").is_conjugate()


def test_random_walk_tiny_step_acceptance():
    prior = NIGPrior(NIG_REF)
    data = [0.5, -0.5, 1.0]
    like = _normal_cluster(data)
    like.state = UniLSState(0.2, 1.3)
    start = like.state.to_unconstrained()
    updater = build_metropolis_updater("rwmh", step_size=1e-8)
    rng = np.random.default_rng(30)
    accepted = 0
    for _ in range(1000):
        before = like.state.to_unconstrained()
        after = _metropolis_draw(updater, like, prior, rng, data).to_unconstrained()
        if not np.array_equal(before, after):
            accepted += 1
    assert accepted / 1000 > 0.999
    assert np.max(np.abs(like.state.to_unconstrained() - start)) < 1e-6


# the Metropolis families: (kernel, prior) of NNIG, NNxIG and LapNIG
_METROPOLIS_FAMILIES = {
    "NNIG": (UniNormLikelihood, NIGPrior(NIGHypers(0.3, 0.5, 2.5, 1.5))),
    "NNxIG": (UniNormLikelihood, NxIGPrior(NxIGHypers(0.3, 4.0, 2.5, 1.5))),
    "LapNIG": (LaplaceLikelihood, NxIGPrior(NxIGHypers(0.3, 4.0, 2.5, 1.5))),
}


# every family under both kinds; LapNIG's cases keep the ids they had when
# they were the only ones
_HUGE_STEP_CASES = [
    pytest.param(family, kind, id=kind if family == "LapNIG" else f"{family}-{kind}")
    for family in sorted(_METROPOLIS_FAMILIES) for kind in ("rwmh", "mala")
]


def _clusters(like_cls, sizes, rng):
    """Clusters of the given sizes; their data, per cluster and as rows with labels."""
    likes, data, labels = [], [], []
    for h, size in enumerate(sizes):
        ys = rng.normal(h - 2.0, 1.5, size=size).tolist()
        likes.append(fill(like_cls(UniLSState(0.0, 1.0)), ys))
        labels.extend([h] * size)
        data.append(ys)
    rows = np.concatenate(data).reshape(-1, 1)
    # the rows in a shuffled order, as a sampler's labels interleave the clusters
    order = rng.permutation(len(labels))
    return likes, data, rows[order], np.array(labels)[order]


# every (kernel, prior) pair the unconstrained densities compose
_TARGET_PAIRS = [(like_cls, prior) for like_cls in (UniNormLikelihood, LaplaceLikelihood)
                 for prior in (NIGPrior(NIG_REF), NxIGPrior(NxIGHypers(0.0, 2.0, 2.0, 2.0)))]


def test_mala_gradient_matches_finite_differences():
    # the closed-form gradients of k clusters' targets, on u of shape (2, k)
    # with log scales out to +-8, against central differences; a Laplace
    # cluster whose mean sits on one of its data (a tie) takes the slope -1
    # of |y - mean| there, the derivative from below
    rng = np.random.default_rng(31)
    h = 1e-6
    for like_cls, prior in _TARGET_PAIRS:
        for trial in range(30):
            k = int(rng.integers(1, 9))
            likes, data, rows, labels = _clusters(like_cls, rng.integers(1, 7, size=k), rng)
            target = _target(likes, prior, rows, labels)
            u = np.vstack([rng.normal(scale=2.0, size=k), rng.uniform(-8.0, 8.0, size=k)])
            tie = like_cls is LaplaceLikelihood and trial % 2 == 0
            if tie:
                u[0, -1] = data[-1][0]
            val, grad = target(u)
            assert val.shape == (k,) and grad.shape == (2, k)
            for j in range(2):
                up, dn = u.copy(), u.copy()
                up[j] += h
                dn[j] -= h
                fd = (target(up)[0] - target(dn)[0]) / (2 * h)
                if tie and j == 0:
                    fd[-1] = (val[-1] - target(dn)[0][-1]) / h
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
    # the tie y == mean counts as y >= mean, slope -1: exact values at log scale 0
    ys, groups = np.array([[0.5], [-1.0], [2.0], [0.5], [3.0]]), np.array([0, 0, 1, 2, 2])
    means = [0.5, 1.0, 4.0]
    sums = LaplaceLikelihood.unconstrained_stats([LaplaceLikelihood()] * 3, ys, groups)
    val, g_mean, g_log = zip(*[LaplaceLikelihood.unconstrained_lpdf(*numbers, mean, 0.0, 1.0)
                               for numbers, mean in zip(sums(means), means)])
    assert list(val) == [-2 * math.log(2.0) - 1.5, -math.log(2.0) - 1.0,
                         -2 * math.log(2.0) - 4.5]
    # d/d mean = -(sum of slopes) / scale; d/d log scale = -n + (sum of |y - mean|) / scale
    assert [list(g_mean), list(g_log)] == [[0.0, 1.0, -2.0], [-0.5, 0.0, 2.5]]


def _run_metropolis_chain(updater, like, prior, steps, seed, data):
    rng = np.random.default_rng(seed)
    means = np.empty(steps)
    for t in range(steps):
        means[t] = _metropolis_draw(updater, like, prior, rng, data).mean
    return means


@pytest.mark.parametrize(
    "updater,seed",
    [(build_metropolis_updater("rwmh", 0.5), 32), (build_metropolis_updater("mala", 0.35), 33)],
)
def test_metropolis_matches_conjugate_posterior(updater, seed):
    data = [0.4, -0.3, 1.2, 0.8, 0.1]
    like = _normal_cluster(data)
    prior = NIGPrior(NIG_REF)
    post = nnig_posterior_hypers(like.card, like.stats, prior.hypers)
    # marginal posterior of the mean is Student-t centered at post.mean
    target_mean = post.mean
    like.state = UniLSState(post.mean, post.scale / post.shape)
    chain = _run_metropolis_chain(updater, like, prior, 20_000, seed, data)
    chain = chain[2000:]
    se = monte_carlo_se(chain)
    assert abs(chain.mean() - target_mean) < 3 * se


def test_laplace_metropolis_matches_quadrature_posterior():
    # one LapNIG cluster, moved as a batch of one: the chain's means of the
    # kernel's mean and scale against the quadrature posterior's
    data = [-0.4, 0.9, 1.3, 0.2, 2.1, 0.6]
    prior = NxIGPrior(NxIGHypers(0.3, 4.0, 2.5, 1.5))
    oracle = nxig_quadrature(data, 0.3, 4.0, 2.5, 1.5, kernel="laplace")
    for kind, step_size, seed in [("rwmh", 0.7, 44), ("mala", 0.5, 45)]:
        like = fill(LaplaceLikelihood(UniLSState(0.7, 0.8)), data)
        updater = build_metropolis_updater(kind, step_size)
        rng = np.random.default_rng(seed)
        burnin, steps = 1000, 10_000
        draws = np.empty((steps, 2))
        for t in range(burnin + steps):
            state = _metropolis_draw(updater, like, prior, rng, data)
            if t >= burnin:
                draws[t - burnin] = state.mean, state.var
        for chain, want in zip(draws.T, (oracle["e_mean"], oracle["e_var"])):
            assert abs(chain.mean() - want) < 3 * monte_carlo_se(chain), kind


def test_metropolis_requires_unconstrained_support():
    pairs = [
        (MultiNormLikelihood(MultiLSState(np.zeros(2), np.eye(2))),
         NWPrior(NWHypers(np.zeros(2), 1.0, 5.0, np.eye(2))), np.ones((1, 2))),
        (GammaLikelihood(2.0, GammaState(2.0, 1.0)), GammaPrior(GammaPriorHypers(2.0, 2.0, 2.0)),
         np.ones((1, 1))),
    ]
    for like, prior, rows in pairs:
        fill(like, rows)
        for kind in ("rwmh", "mala"):
            with pytest.raises(CapabilityError):
                build_metropolis_updater(kind).draw_batch(
                    [like], prior, np.random.default_rng(0), rows, np.zeros(1, dtype=int))


def test_step_size_validation():
    with pytest.raises(ValueError):
        build_metropolis_updater("rwmh", step_size=0.0)
    with pytest.raises(ValueError):
        build_metropolis_updater("mala", step_size=-1.0)
    with pytest.raises(ValueError, match="finite"):
        build_metropolis_updater("rwmh", step_size=math.inf)
    # the Langevin correction divides by 2 step^2, which must not underflow to 0
    with pytest.raises(ValueError, match="too small"):
        build_metropolis_updater("mala", step_size=1e-170)
    assert build_metropolis_updater("rwmh", step_size=1e-170).step_size == 1e-170


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, kind", _HUGE_STEP_CASES)
def test_proposal_whose_target_cannot_be_evaluated_is_rejected(family, kind):
    # a step this large proposes log scales whose exp overflows, or underflows
    # to a 0 whose log fails; such a proposal is a rejected move, on Python
    # floats as on arrays: no exception and no floating-point warning
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    data = [0.5, -0.7, 2.0]
    like = fill(like_cls(UniLSState(0.0, 1.0)), data)
    updater = build_metropolis_updater(kind, step_size=1000.0, num_steps=3)
    rng = np.random.default_rng(34)
    for _ in range(50):
        before = like.state
        state = _metropolis_draw(updater, like, prior, rng, data)
        # a move to a far-away state would be accepted with negligible probability
        assert state == before


# the ids name the random-walk and Langevin flavours of the one updater
@pytest.mark.parametrize("kind", ["rwmh", "mala"], ids=["RandomWalkUpdater", "MALAUpdater"])
@pytest.mark.parametrize("num_steps", [0, -2, 1.5])
def test_num_steps_must_be_a_positive_integer(kind, num_steps):
    # an updater that never moves would leave its clusters at their prior draw
    with pytest.raises(ValueError, match="num_steps"):
        build_metropolis_updater(kind, num_steps=num_steps)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("family", sorted(_METROPOLIS_FAMILIES))
def test_batched_target_equals_the_per_cluster_targets(family, k):
    # a batch of k clusters is k batches of one: the same values and gradients
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    rng = np.random.default_rng(40 + k)
    # the first cluster holds a single datum
    likes, data, rows, labels = _clusters(
        like_cls, [1] + rng.integers(1, 9, size=k - 1).tolist(), rng)
    batch = _target(likes, prior, rows, labels)
    singles = []
    for like, ys in zip(likes, data):
        one_rows, one_labels = np.reshape(ys, (-1, 1)), np.zeros(len(ys), dtype=int)
        singles.append(_target([like], prior, one_rows, one_labels))
    for trial in range(20):
        u = np.vstack([rng.normal(size=k), rng.normal(scale=0.7, size=k)])
        # on even trials the last cluster's mean sits on one of its data: for
        # Laplace a tie
        if trial % 2 == 0:
            u[0, -1] = data[-1][-1]
        val, grad = batch(u)
        assert val.shape == (k,) and grad.shape == (2, k)
        for c, single in enumerate(singles):
            one_val, one_grad = single(u[:, c:c + 1])
            assert val[c] == pytest.approx(one_val[0], rel=1e-12)
            assert grad[:, c] == pytest.approx(one_grad[:, 0], rel=1e-12, abs=1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("family", sorted(_METROPOLIS_FAMILIES))
def test_per_cluster_target_equals_the_array_oracle(family, k):
    # the per-cluster float expressions give the bits of the (2, k) array
    # target: log scales out to +-700, where exp(-log scale) reaches 1e304
    # and 1e-304 and the sums overflow, and a Laplace mean on one of its data
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    rng = np.random.default_rng(50 + k)
    likes, data, rows, labels = _clusters(
        like_cls, [1] + rng.integers(1, 9, size=k - 1).tolist(), rng)
    target = _target(likes, prior, rows, labels)
    oracle = metropolis_array_target(likes, prior, rows, labels)
    for reach in (1.0, 30.0, 700.0):
        for trial in range(10):
            u = np.vstack([rng.normal(scale=3.0, size=k), rng.uniform(-reach, reach, size=k)])
            if trial % 2 == 0:
                u[0, -1] = data[-1][-1]
            if trial == 1:
                u[1, -1] = reach if k % 2 else -reach
            value, grad = target(u)
            with np.errstate(over="ignore", invalid="ignore"):
                want_value, want_grad = oracle(u)
            assert _bits(value) == _bits(want_value)
            assert _bits(grad) == _bits(want_grad)


@pytest.mark.parametrize("family", sorted(_METROPOLIS_FAMILIES))
def test_unconstrained_expressions_are_elementwise(family):
    # on k clusters' arrays each expression gives the bits it gives on each
    # cluster's floats
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    rng = np.random.default_rng(53)
    likes, _, rows, labels = _clusters(like_cls, rng.integers(1, 9, size=6).tolist(), rng)
    means, log_scales = rng.normal(scale=3.0, size=6), rng.uniform(-700.0, 700.0, size=6)
    es = np.exp(-log_scales)
    numbers = list(like_cls.unconstrained_stats(likes, rows, labels)(means.tolist()))
    points = list(zip(means.tolist(), log_scales.tolist(), es.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        like_arrays = like_cls.unconstrained_lpdf(*map(np.array, zip(*numbers)), means,
                                                  log_scales, es)
        prior_arrays = prior._unconstrained_lpdf(means, log_scales, es)
    like_floats = [like_cls.unconstrained_lpdf(*nums, *point)
                   for nums, point in zip(numbers, points)]
    prior_floats = [prior._unconstrained_lpdf(*point) for point in points]
    assert _bits(like_arrays) == _bits(np.transpose(like_floats))
    assert _bits(prior_arrays) == _bits(np.transpose(prior_floats))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["rwmh", "mala"])
@pytest.mark.parametrize("family", sorted(_METROPOLIS_FAMILIES))
def test_draw_batch_matches_the_array_move(family, kind):
    # from the same generator state the float kernel moves k clusters as the
    # (2, k) array kernel does, bit for bit: small to huge steps, k = 1, 3, 8
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    rng = np.random.default_rng(54)
    for k, step_size in ((1, 0.3), (3, 1.0), (8, 0.05), (3, 1000.0)):
        likes, _, rows, labels = _clusters(like_cls, rng.integers(1, 9, size=k).tolist(), rng)
        for like in likes:
            like.state = UniLSState(rng.normal(), rng.gamma(2.0))
        updater = build_metropolis_updater(kind, step_size, num_steps=3)
        oracle = metropolis_array_target(likes, prior, rows, labels, grad=updater.langevin)
        for seed in range(20):
            u = np.array([like.state.to_unconstrained() for like in likes]).T
            metropolis_array_move(oracle, u, np.random.default_rng(seed), step_size, 3,
                                  updater.langevin)
            updater.draw_batch(likes, prior, np.random.default_rng(seed), rows, labels)
            want = [UniLSState.from_unconstrained(col) for col in u.T]
            assert _bits([like.state.to_params()["mean"] for like in likes]) == _bits(
                [state.mean for state in want])
            assert _bits([like.state.var for like in likes]) == _bits(
                [state.var for state in want])


@pytest.mark.parametrize("kind,step_size,seed", [("rwmh", 0.5, 35), ("mala", 0.35, 36)])
def test_batched_metropolis_matches_conjugate_posterior(kind, step_size, seed):
    # 64 copies of one five-point NNIG cluster, moved together
    data = [0.4, -0.3, 1.2, 0.8, 0.1]
    prior = NIGPrior(NIG_REF)
    likes = [_normal_cluster(data) for _ in range(64)]
    rows = np.tile(data, len(likes)).reshape(-1, 1)
    labels = np.repeat(np.arange(len(likes)), len(data))
    post = nnig_posterior_hypers(likes[0].card, likes[0].stats, prior.hypers)
    target_mean = post.mean
    target_var = post.scale / ((post.shape - 1.0) * post.var_scaling)
    for like in likes:
        like.state = UniLSState(post.mean, post.scale / post.shape)
    updater = build_metropolis_updater(kind, step_size)
    rng = np.random.default_rng(seed)
    burnin, steps = 500, 3000
    chains = np.empty((steps, len(likes)))
    for t in range(burnin + steps):
        updater.draw_batch(likes, prior, rng, rows, labels)
        if t >= burnin:
            chains[t - burnin] = [like.state.mean for like in likes]
    # the copies are independent chains, so their per-row statistics are iid
    row_means = chains.mean(axis=0)
    pooled_mean = row_means.mean()
    row_vars = ((chains - pooled_mean) ** 2).mean(axis=0)
    root_k = math.sqrt(len(likes))
    assert abs(pooled_mean - target_mean) < 3 * row_means.std(ddof=1) / root_k
    assert abs(row_vars.mean() - target_var) < 3 * row_vars.std(ddof=1) / root_k


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, kind", _HUGE_STEP_CASES)
def test_batch_accepts_or_rejects_each_cluster_on_its_own(family, kind):
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    likes, _, rows, labels = _clusters(like_cls, [3, 4, 2, 5], np.random.default_rng(37))
    rng = np.random.default_rng(38)
    # a step this large proposes scales that overflow or underflow: every
    # proposal is rejected, without a floating-point warning
    huge = build_metropolis_updater(kind, step_size=1000.0, num_steps=3)
    for _ in range(50):
        before = [like.state for like in likes]
        huge.draw_batch(likes, prior, rng, rows, labels)
        assert [like.state for like in likes] == before
    # at a moderate step some clusters move while others stay
    moderate = build_metropolis_updater(kind, step_size=0.8)
    patterns = set()
    for _ in range(40):
        before = [like.state for like in likes]
        moderate.draw_batch(likes, prior, rng, rows, labels)
        patterns.add(tuple(like.state != b for like, b in zip(likes, before)))
    assert any(0 < sum(p) < len(likes) for p in patterns)


@pytest.mark.parametrize("hier_type", ["NNIG", "NNW"])
def test_posterior_scale_does_not_depend_on_the_data_offset(hier_type):
    # the same 200 points and prior, both moved away from the origin: the
    # statistics, centred on the prior mean, keep the posterior scale
    d = 1 if hier_type == "NNIG" else 3
    points = np.random.default_rng(31).normal(size=(200, d))
    scales = []
    for offset in (0.0, 1e6, 1e8):
        if hier_type == "NNIG":
            values = {"mean": offset, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}
        else:
            values = {"mean": {"size": d, "data": [offset] * d}, "var_scaling": 0.1,
                      "deg_free": d + 3.0,
                      "scale": {"rows": d, "cols": d, "data": np.eye(d).ravel().tolist()}}
        hier = fill(build_hierarchy(hier_type, {"fixed_values": values}), points + offset)
        post = _posterior(hier)
        scales.append(np.asarray(post.scale, dtype=float))
    for scale in scales[1:]:
        assert np.abs(scale - scales[0]).max() <= 1e-8 * np.abs(scales[0]).max()
