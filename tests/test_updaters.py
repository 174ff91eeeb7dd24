import math

import numpy as np
import pytest
from oracles import gamma_rate_quadrature, monte_carlo_se, nnig_quadrature, nxig_quadrature

from mixmcmc.exceptions import CapabilityError
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
    _log_target,
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


def _target(like, prior):
    return _log_target(type(like).unconstrained_lpdf, like.unconstrained_stats(), prior)


def _normal_cluster(data):
    like = UniNormLikelihood(UniLSState(0.0, 1.0))
    for i, y in enumerate(data):
        like.add_datum(i, float(y))
    return like


def test_nnig_empty_cluster_returns_prior_hypers():
    like = _normal_cluster([])
    assert nnig_posterior_hypers(like, NIG_REF) is NIG_REF


def test_nnig_single_datum_worked_example():
    like = _normal_cluster([1.0])
    post = nnig_posterior_hypers(like, NIG_REF)
    assert post.var_scaling == pytest.approx(1.1)
    assert post.mean == pytest.approx(10.0 / 11.0)
    assert post.shape == pytest.approx(2.5)
    assert post.scale == pytest.approx(2.0 + 1.0 / 22.0)


def test_nnig_posterior_matches_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(20):
        data = rng.normal(rng.normal(), 1.0 + rng.random(), size=rng.integers(1, 6))
        like = _normal_cluster(data)
        post = nnig_posterior_hypers(like, NIG_REF)
        oracle = nnig_quadrature(data, 0.0, 0.1, 2.0, 2.0)
        # posterior marginal of mean is centered at post.mean; E[var] = scale/(shape-1)
        assert post.mean == pytest.approx(oracle["e_mean"], rel=1e-3, abs=1e-6)
        assert post.scale / (post.shape - 1.0) == pytest.approx(
            oracle["e_var"], rel=1e-3
        )


def test_nnig_posterior_mean_between_prior_and_sample_mean():
    rng = np.random.default_rng(22)
    for _ in range(100):
        data = rng.normal(rng.normal() * 5, 2.0, size=rng.integers(1, 10))
        like = _normal_cluster(data)
        post = nnig_posterior_hypers(like, NIG_REF)
        lo, hi = sorted([NIG_REF.mean, float(np.mean(data))])
        assert lo - 1e-12 <= post.mean <= hi + 1e-12


def test_nnw_empty_cluster_unchanged():
    hypers = NWHypers(np.zeros(2), 0.5, 5.0, np.eye(2))
    like = MultiNormLikelihood(MultiLSState(np.zeros(2), np.eye(2)))
    assert nnw_posterior_hypers(like, hypers) is hypers


def test_nnw_dimension_one_reduces_to_nnig():
    # IW_1(nu, psi) == IG(nu/2, psi/2), so the two updates must agree
    rng = np.random.default_rng(23)
    for _ in range(20):
        data = rng.normal(1.0, 2.0, size=rng.integers(1, 8))
        nw_hypers = NWHypers([0.3], 0.7, 5.0, [[3.0]])
        nig_hypers = NIGHypers(0.3, 0.7, 2.5, 1.5)
        uni = _normal_cluster(data)
        multi = MultiNormLikelihood(MultiLSState([0.0], [[1.0]]))
        for i, y in enumerate(data):
            multi.add_datum(i, np.array([y]))
        post_nw = nnw_posterior_hypers(multi, nw_hypers)
        post_nig = nnig_posterior_hypers(uni, nig_hypers)
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
        like = MultiNormLikelihood(MultiLSState(np.zeros(d), np.eye(d)))
        for i in range(int(rng.integers(1, 20))):
            like.add_datum(i, rng.normal(size=d))
        post = nnw_posterior_hypers(like, hypers)  # constructor validates SPD
        assert post.deg_free == hypers.deg_free + like.card


def test_gamma_gamma_worked_example():
    hypers = GammaPriorHypers(1.0, 2.0, 2.0)
    like = GammaLikelihood(1.0)
    like.add_datum(0, 1.0)
    like.add_datum(1, 3.0)
    post = gamma_gamma_posterior_hypers(like, hypers)
    assert post.rate_alpha == pytest.approx(4.0)
    assert post.rate_beta == pytest.approx(6.0)
    empty = GammaLikelihood(1.0)
    assert gamma_gamma_posterior_hypers(empty, hypers) is hypers


def test_gamma_gamma_concentrates_on_truth():
    rng = np.random.default_rng(25)
    hypers = GammaPriorHypers(2.0, 2.0, 2.0)
    for n in (50, 500, 5000):
        like = GammaLikelihood(2.0)
        data = rng.gamma(2.0, 1.0 / 3.0, size=n)  # kernel rate 3
        for i, y in enumerate(data):
            like.add_datum(i, float(y))
        post = gamma_gamma_posterior_hypers(like, hypers)
        est = post.rate_alpha / post.rate_beta
        # the prior's pull on the posterior mean decays like 1/n
        assert abs(est - 2.0 / data.mean()) < 25.0 / n
    assert abs(est - 3.0) < 0.2


def test_gamma_gamma_posterior_mean_matches_quadrature():
    rng = np.random.default_rng(26)
    data = rng.gamma(1.5, 0.5, size=6)
    like = GammaLikelihood(1.5)
    for i, y in enumerate(data):
        like.add_datum(i, float(y))
    post = gamma_gamma_posterior_hypers(like, GammaPriorHypers(1.5, 2.0, 1.0))
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
    hypers = NxIGHypers(0.5, 2.0, 3.0, 2.0)
    prior = NxIGPrior(hypers)
    data = [-0.2, 0.9, 1.4, 0.1, 0.6]
    like = _normal_cluster(data)
    updater = NNxIGUpdater()
    assert not updater.is_conjugate()
    rng = np.random.default_rng(27)
    mus = np.empty(20_000)
    for t in range(mus.size):
        state = updater.draw(like, prior, rng)
        mus[t] = state.mean
    oracle = nxig_quadrature(data, 0.5, 2.0, 3.0, 2.0)
    se = monte_carlo_se(mus)
    assert abs(mus.mean() - oracle["e_mean"]) < 3 * se


def test_semi_conjugate_empty_cluster_equals_prior_draw():
    prior = NIGPrior(NIG_REF)
    like = _normal_cluster([])
    updater = _nnig_updater()
    drawn = updater.draw(like, prior, np.random.default_rng(42))
    direct = prior.sample(np.random.default_rng(42))
    assert drawn == direct


def test_nnig_draws_single_datum_posterior_mean():
    prior = NIGPrior(NIG_REF)
    updater = _nnig_updater()
    rng = np.random.default_rng(28)
    like = _normal_cluster([1.0])
    means = np.array([updater.draw(like, prior, rng).mean for _ in range(100_000)])
    se = means.std() / math.sqrt(means.size)
    assert abs(means.mean() - 10.0 / 11.0) < 3 * se


def test_gamma_gamma_draws_match_posterior_mean():
    prior = GammaPrior(GammaPriorHypers(1.0, 2.0, 2.0))
    updater = _gamma_gamma_updater()
    like = GammaLikelihood(1.0)
    like.add_datum(0, 1.0)
    like.add_datum(1, 3.0)
    rng = np.random.default_rng(29)
    rates = np.array([updater.draw(like, prior, rng).rate for _ in range(100_000)])
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
    like = _normal_cluster([0.5, -0.5, 1.0])
    like.state = UniLSState(0.2, 1.3)
    start = like.state.to_unconstrained()
    updater = build_metropolis_updater("rwmh", step_size=1e-8)
    rng = np.random.default_rng(30)
    accepted = 0
    for _ in range(1000):
        before = like.state.to_unconstrained()
        after = updater.draw(like, prior, rng).to_unconstrained()
        if not np.array_equal(before, after):
            accepted += 1
    assert accepted / 1000 > 0.999
    assert np.max(np.abs(like.state.to_unconstrained() - start)) < 1e-6


def test_mala_gradient_matches_finite_differences():
    cases = [
        (NIGPrior(NIG_REF), _normal_cluster([0.3, -1.0, 0.7])),
        (NxIGPrior(NxIGHypers(0.0, 2.0, 2.0, 2.0)), _normal_cluster([0.3, -1.0])),
    ]
    lap = LaplaceLikelihood(UniLSState(0.0, 1.0))
    for i, y in enumerate([0.5, -0.7, 2.0]):
        lap.add_datum(i, y)
    cases.append((NxIGPrior(NxIGHypers(0.0, 2.0, 2.0, 2.0)), lap))
    updater = build_metropolis_updater("mala")
    rng = np.random.default_rng(31)
    for prior, like in cases:
        for _ in range(100):
            u = rng.normal(size=2)
            val, grad = updater._evaluate(_target(like, prior), u)

            def target(v):
                return like.cluster_lpdf_from_unconstrained(
                    v
                ) + prior.lpdf_from_unconstrained(v)

            assert val == pytest.approx(target(u), rel=1e-12)
            h = 1e-6
            for j in range(2):
                up, dn = u.copy(), u.copy()
                up[j] += h
                dn[j] -= h
                fd = (target(up) - target(dn)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def _run_metropolis_chain(updater, like, prior, steps, seed):
    rng = np.random.default_rng(seed)
    means = np.empty(steps)
    for t in range(steps):
        means[t] = updater.draw(like, prior, rng).mean
    return means


@pytest.mark.parametrize(
    "updater,seed",
    [(build_metropolis_updater("rwmh", 0.5), 32), (build_metropolis_updater("mala", 0.35), 33)],
)
def test_metropolis_matches_conjugate_posterior(updater, seed):
    data = [0.4, -0.3, 1.2, 0.8, 0.1]
    like = _normal_cluster(data)
    prior = NIGPrior(NIG_REF)
    post = nnig_posterior_hypers(like, prior.hypers)
    # marginal posterior of the mean is Student-t centered at post.mean
    target_mean = post.mean
    like.state = UniLSState(post.mean, post.scale / post.shape)
    chain = _run_metropolis_chain(updater, like, prior, 20_000, seed)
    chain = chain[2000:]
    se = monte_carlo_se(chain)
    assert abs(chain.mean() - target_mean) < 3 * se


def test_metropolis_requires_unconstrained_support():
    pairs = [
        (MultiNormLikelihood(MultiLSState(np.zeros(2), np.eye(2))),
         NWPrior(NWHypers(np.zeros(2), 1.0, 5.0, np.eye(2)))),
        (GammaLikelihood(2.0, GammaState(2.0, 1.0)), GammaPrior(GammaPriorHypers(2.0, 2.0, 2.0))),
    ]
    for like, prior in pairs:
        for kind in ("rwmh", "mala"):
            with pytest.raises(CapabilityError):
                build_metropolis_updater(kind).draw(like, prior, np.random.default_rng(0))


def test_step_size_validation():
    with pytest.raises(ValueError):
        build_metropolis_updater("rwmh", step_size=0.0)
    with pytest.raises(ValueError):
        build_metropolis_updater("mala", step_size=-1.0)
    with pytest.raises(ValueError, match="finite"):
        build_metropolis_updater("rwmh", step_size=math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["rwmh", "mala"])
def test_proposal_whose_target_cannot_be_evaluated_is_rejected(kind):
    # a step this large proposes log scales whose exp overflows, or underflows
    # to a 0 whose log fails; such a proposal is a rejected move
    prior = NxIGPrior(NxIGHypers(0.0, 4.0, 2.0, 2.0))
    like = LaplaceLikelihood(UniLSState(0.0, 1.0))
    for i, y in enumerate([0.5, -0.7, 2.0]):
        like.add_datum(i, y)
    updater = build_metropolis_updater(kind, step_size=1000.0, num_steps=3)
    rng = np.random.default_rng(34)
    for _ in range(50):
        before = like.state
        state = updater.draw(like, prior, rng)
        # a move to a far-away state would be accepted with negligible probability
        assert state == before


# the ids name the random-walk and Langevin flavours of the one updater
@pytest.mark.parametrize("kind", ["rwmh", "mala"], ids=["RandomWalkUpdater", "MALAUpdater"])
@pytest.mark.parametrize("num_steps", [0, -2, 1.5])
def test_num_steps_must_be_a_positive_integer(kind, num_steps):
    # an updater that never moves would leave its clusters at their prior draw
    with pytest.raises(ValueError, match="num_steps"):
        build_metropolis_updater(kind, num_steps=num_steps)


# the Metropolis families: (kernel, prior) of NNIG, NNxIG and LapNIG
_METROPOLIS_FAMILIES = {
    "NNIG": (UniNormLikelihood, NIGPrior(NIGHypers(0.3, 0.5, 2.5, 1.5))),
    "NNxIG": (UniNormLikelihood, NxIGPrior(NxIGHypers(0.3, 4.0, 2.5, 1.5))),
    "LapNIG": (LaplaceLikelihood, NxIGPrior(NxIGHypers(0.3, 4.0, 2.5, 1.5))),
}


def _clusters(like_cls, sizes, rng):
    """Clusters of the given sizes, and their data."""
    likes, data = [], []
    for h, size in enumerate(sizes):
        like = like_cls(UniLSState(0.0, 1.0))
        ys = rng.normal(h - 2.0, 1.5, size=size).tolist()
        for i, y in enumerate(ys):
            like.add_datum(i, y)
        likes.append(like)
        data.append(ys)
    return likes, data


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("family", sorted(_METROPOLIS_FAMILIES))
def test_batched_target_equals_the_per_cluster_targets(family, k):
    like_cls, prior = _METROPOLIS_FAMILIES[family]
    rng = np.random.default_rng(40 + k)
    # the first cluster holds a single datum
    likes, data = _clusters(like_cls, [1] + rng.integers(1, 9, size=k - 1).tolist(), rng)
    batch = _log_target(like_cls.unconstrained_lpdf, like_cls.stack_unconstrained_stats(likes),
                        prior)
    singles = [_target(like, prior) for like in likes]
    updater = build_metropolis_updater("mala")
    h = 1e-6
    for trial in range(20):
        u = np.vstack([rng.normal(size=k), rng.normal(scale=0.7, size=k)])
        # on even trials the last cluster's mean sits on one of its data: for
        # Laplace a tie, where the slope of |y - mean| is -1 (y >= mean)
        kink = family == "LapNIG" and trial % 2 == 0
        if trial % 2 == 0:
            u[0, -1] = data[-1][-1]
        val, grad = updater._evaluate(batch, u)
        assert val.shape == (k,) and grad.shape == (2, k)
        for c, single in enumerate(singles):
            want = single(u[:, c])
            assert val[c] == pytest.approx(want, rel=1e-12)
            for j in range(2):
                up, dn = u[:, c].copy(), u[:, c].copy()
                up[j] += h
                dn[j] -= h
                if kink and j == 0 and c == k - 1:
                    # the derivative from below, which the tie convention takes
                    fd = (want - single(dn)) / h
                    assert grad[j, c] == pytest.approx(fd, rel=1e-4, abs=1e-5)
                else:
                    fd = (single(up) - single(dn)) / (2 * h)
                    assert grad[j, c] == pytest.approx(fd, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("kind,step_size,seed", [("rwmh", 0.5, 35), ("mala", 0.35, 36)])
def test_batched_metropolis_matches_conjugate_posterior(kind, step_size, seed):
    # 64 copies of one five-point NNIG cluster, moved together
    data = [0.4, -0.3, 1.2, 0.8, 0.1]
    prior = NIGPrior(NIG_REF)
    likes = [_normal_cluster(data) for _ in range(64)]
    post = nnig_posterior_hypers(likes[0], prior.hypers)
    target_mean = post.mean
    target_var = post.scale / ((post.shape - 1.0) * post.var_scaling)
    for like in likes:
        like.state = UniLSState(post.mean, post.scale / post.shape)
    updater = build_metropolis_updater(kind, step_size)
    rng = np.random.default_rng(seed)
    burnin, steps = 500, 3000
    chains = np.empty((steps, len(likes)))
    for t in range(burnin + steps):
        updater.draw_batch(likes, prior, rng)
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
@pytest.mark.parametrize("kind", ["rwmh", "mala"])
def test_batch_accepts_or_rejects_each_cluster_on_its_own(kind):
    prior = NxIGPrior(NxIGHypers(0.0, 4.0, 2.0, 2.0))
    likes, _ = _clusters(LaplaceLikelihood, [3, 4, 2, 5], np.random.default_rng(37))
    rng = np.random.default_rng(38)
    # a step this large proposes scales that overflow or underflow: every
    # proposal is rejected, without a floating-point warning
    huge = build_metropolis_updater(kind, step_size=1000.0, num_steps=3)
    for _ in range(50):
        before = [like.state for like in likes]
        huge.draw_batch(likes, prior, rng)
        assert [like.state for like in likes] == before
    # at a moderate step some clusters move while others stay
    moderate = build_metropolis_updater(kind, step_size=0.8)
    patterns = set()
    for _ in range(40):
        before = [like.state for like in likes]
        moderate.draw_batch(likes, prior, rng)
        patterns.add(tuple(like.state != b for like, b in zip(likes, before)))
    assert any(0 < sum(p) < len(likes) for p in patterns)
