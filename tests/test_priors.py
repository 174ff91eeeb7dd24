import math

import numpy as np
import pytest
from scipy import stats

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
from mixmcmc.states import MultiLSState, UniLSState

NIG_REF = NIGHypers(0.0, 0.1, 2.0, 2.0)


def _state_lpdf(prior, u):
    """The prior's log density at the state ``u`` maps to: the unconstrained
    density less its log-Jacobian, log var = u[1]."""
    value, _, _ = prior._unconstrained_lpdf(u[0], u[1], math.exp(-u[1]))
    return value - u[1]


def test_nig_lpdf_against_scipy():
    prior = NIGPrior(NIG_REF)
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = np.array([rng.normal(), math.log(rng.gamma(2.0) + 0.05)])
        s = UniLSState.from_unconstrained(u)
        expected = stats.norm.logpdf(
            s.mean, 0.0, math.sqrt(s.var / 0.1)
        ) + stats.invgamma.logpdf(s.var, 2.0, scale=2.0)
        assert _state_lpdf(prior, u) == pytest.approx(float(expected), abs=1e-10)


def test_nxig_lpdf_against_scipy():
    prior = NxIGPrior(NxIGHypers(1.0, 4.0, 3.0, 2.0))
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = np.array([rng.normal(), math.log(rng.gamma(2.0) + 0.05)])
        s = UniLSState.from_unconstrained(u)
        expected = stats.norm.logpdf(s.mean, 1.0, 2.0) + stats.invgamma.logpdf(
            s.var, 3.0, scale=2.0
        )
        assert _state_lpdf(prior, u) == pytest.approx(float(expected), abs=1e-10)


def test_nig_sample_monte_carlo_moments():
    prior = NIGPrior(NIG_REF)
    rng = np.random.default_rng(3)
    draws = [prior.sample(rng) for _ in range(100_000)]
    means = np.array([d.mean for d in draws])
    variances = np.array([d.var for d in draws])
    # E[mean] = mean0; E[var] = scale / (shape - 1) = 2
    se_mean = means.std() / math.sqrt(means.size)
    assert abs(means.mean() - 0.0) < 4 * se_mean
    se_var = variances.std() / math.sqrt(variances.size)
    assert abs(variances.mean() - 2.0) < 4 * se_var


def test_gamma_sample_monte_carlo_moments():
    prior = GammaPrior(GammaPriorHypers(1.0, 3.0, 2.0))
    rng = np.random.default_rng(4)
    rates = np.array([prior.sample(rng).rate for _ in range(100_000)])
    se = rates.std() / math.sqrt(rates.size)
    assert abs(rates.mean() - 1.5) < 4 * se


def test_sample_with_equal_posterior_hypers_is_identical():
    prior = NIGPrior(NIG_REF)
    equal = NIGHypers(0.0, 0.1, 2.0, 2.0)
    s1 = prior.sample(np.random.default_rng(9))
    s2 = prior.sample(np.random.default_rng(9), hypers=equal)
    assert s1 == s2


def test_nw_samples_are_spd():
    hypers = NWHypers(np.zeros(3), 0.2, 6.0, np.eye(3))
    prior = NWPrior(hypers)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        state = prior.sample(rng)  # constructor fails if cov is not SPD
        assert np.all(np.isfinite(state.mean))


def test_nw_sample_mean_of_cov_matches_analytic():
    # E[cov] = scale / (deg_free - d - 1)
    scale = np.array([[2.0, 0.5], [0.5, 1.0]])
    hypers = NWHypers(np.zeros(2), 1.0, 7.0, scale)
    prior = NWPrior(hypers)
    rng = np.random.default_rng(6)
    acc = np.zeros((2, 2))
    n = 40_000
    for _ in range(n):
        acc += prior.sample(rng).cov
    assert np.allclose(acc / n, scale / 4.0, atol=0.03)


def test_nig_unconstrained_zero_point():
    # at u = 0 the state is (0, 1) and the log-Jacobian is 0
    prior = NIGPrior(NIG_REF)
    expected = stats.norm.logpdf(0.0, 0.0, math.sqrt(10.0)) + stats.invgamma.logpdf(
        1.0, 2.0, scale=2.0
    )
    value, _, _ = prior._unconstrained_lpdf(0.0, 0.0, 1.0)
    assert value == pytest.approx(float(expected), abs=1e-12)


@pytest.mark.parametrize(
    "prior",
    [
        NIGPrior(NIGHypers(0.5, 1.0, 3.0, 2.0)),
        NxIGPrior(NxIGHypers(0.5, 1.5, 3.0, 2.0)),
    ],
)
def test_unconstrained_density_integrates_to_one(prior):
    # trapezoid quadrature over the (mean, log var) plane
    mean_grid = np.linspace(-25.0, 26.0, 1200)
    logvar_grid = np.linspace(-9.0, 5.5, 500)
    # elementwise over every (mean, log var) pair of the plane, (1200, 500)
    means, logvars = np.meshgrid(mean_grid, logvar_grid, indexing="ij")
    vals, _, _ = prior._unconstrained_lpdf(means, logvars, np.exp(-logvars))
    inner = np.trapezoid(np.exp(vals), logvar_grid, axis=1)
    mass = float(np.trapezoid(inner, mean_grid))
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_nw_has_no_unconstrained_lpdf():
    # the conjugate families take no Metropolis updater
    assert not hasattr(NWPrior, "_unconstrained_lpdf")
    assert not hasattr(GammaPrior, "_unconstrained_lpdf")


def test_hyper_validation():
    # the records take any values; a prior checks its own when it is built
    with pytest.raises(ValueError, match="'var_scaling'"):
        NIGPrior(NIGHypers(0.0, -1.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="'var'"):
        NxIGPrior(NxIGHypers(0.0, math.inf, 2.0, 2.0))
    with pytest.raises(ValueError, match="'shape'"):
        GammaPrior(GammaPriorHypers(0.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="deg_free"):
        NWPrior(NWHypers(np.zeros(3), 1.0, 1.5, np.eye(3)))  # deg_free <= d - 1
    with pytest.raises(ValueError, match="'scale' is not positive definite"):
        NWPrior(NWHypers(np.zeros(2), 1.0, 5.0, np.diag([1.0, -1.0])))
    with pytest.raises(ValueError, match="dimensions disagree"):
        NWPrior(NWHypers(np.zeros(3), 1.0, 5.0, np.eye(2)))


def test_nw_prior_stores_converted_hypers():
    # a list mean becomes a flat float array and the scale is symmetrised
    scale = np.array([[2.0, 0.5], [0.5 + 1e-12, 1.0]])
    h = NWPrior(NWHypers([1, 2], 1, 5, scale)).hypers
    assert h.mean.dtype == float and h.mean.shape == (2,)
    assert (type(h.var_scaling), type(h.deg_free)) == (float, float)
    assert np.array_equal(h.scale, h.scale.T)


def test_nw_draw_at_an_indefinite_posterior_scale_raises():
    # posterior hyperparameters are not checked; a scale that rounding left
    # indefinite fails the draw by name
    prior = NWPrior(NWHypers(np.zeros(2), 1.0, 5.0, np.eye(2)))
    for scale in (np.diag([1.0, -1e-12]), np.zeros((2, 2))):
        indefinite = NWHypers(np.zeros(2), 2.0, 6.0, scale)
        with pytest.raises(ValueError, match="'scale'"):
            prior.sample(np.random.default_rng(0), hypers=indefinite)


def _two_sample_z(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var() / a.shape[0] + b.var() / b.shape[0])
    return abs(a.mean() - b.mean()) / se


# shape > 4: the inverse-gamma variance has the four moments the
# standard errors of the second moments need
@pytest.mark.parametrize("prior,fields", [
    (NIGPrior(NIGHypers(1.0, 0.5, 5.5, 3.0)), ("mean", "var")),
    (NxIGPrior(NxIGHypers(-1.0, 2.0, 5.5, 3.0)), ("mean", "var")),
    (GammaPrior(GammaPriorHypers(2.0, 3.0, 2.0)), ("rate",)),
])
def test_batch_draw_matches_the_scalar_sampler(prior, fields):
    rng = np.random.default_rng(16)
    batch = prior.sample_batch(rng, (20_000, 3))
    scalar = [prior.sample(rng) for _ in range(20_000)]
    for name in fields:
        drawn = getattr(batch, name)
        want = np.array([getattr(s, name) for s in scalar])
        assert drawn.shape == (20_000, 3)
        # first and second moments, of the whole batch and of each column
        for got in [drawn.reshape(-1)] + [drawn[:, j] for j in range(3)]:
            assert _two_sample_z(got, want) < 4
            assert _two_sample_z(got**2, want**2) < 4
    built = batch.state((5, 2))
    assert type(built) is type(scalar[0])
    for name in fields:
        assert getattr(built, name) == getattr(batch, name)[5, 2]


def test_nw_batch_draw_matches_the_scalar_sampler_and_the_analytic_mean():
    scale = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    d, nu = 3, 9.0
    prior = NWPrior(NWHypers([1.0, -1.0, 0.0], 2.0, nu, scale))
    rng = np.random.default_rng(17)
    batch = prior.sample_batch(rng, (10_000, 2))
    covs = batch.cov.reshape(-1, d, d)
    means = batch.mean.reshape(-1, d)
    assert batch.mean.shape == (10_000, 2, d) and batch.cov.shape == (10_000, 2, d, d)
    # E[cov] = scale / (deg_free - d - 1), E[mean] = mean0, within 4 standard errors
    se_cov = covs.std(axis=0) / math.sqrt(covs.shape[0])
    assert np.all(np.abs(covs.mean(axis=0) - scale / (nu - d - 1.0)) < 4 * se_cov)
    se_mean = means.std(axis=0) / math.sqrt(means.shape[0])
    assert np.all(np.abs(means.mean(axis=0) - [1.0, -1.0, 0.0]) < 4 * se_mean)
    # Var[mean] = E[cov] / var_scaling
    mean_sq = (means - [1.0, -1.0, 0.0]) ** 2
    want_var = np.diag(scale) / (nu - d - 1.0) / 2.0
    se_var = mean_sq.std(axis=0) / math.sqrt(mean_sq.shape[0])
    assert np.all(np.abs(mean_sq.mean(axis=0) - want_var) < 4 * se_var)
    scalar = [prior.sample(rng) for _ in range(10_000)]
    for a in range(d):
        assert _two_sample_z(means[:, a], [s.mean[a] for s in scalar]) < 4
        assert _two_sample_z(means[:, a] ** 2, [s.mean[a] ** 2 for s in scalar]) < 4
        for b in range(a, d):
            assert _two_sample_z(covs[:, a, b], [s.cov[a, b] for s in scalar]) < 4
    # the derived fields the kernel's batch score reads agree with the built state's
    for index in [(0, 0), (123, 1), (9_999, 1)]:
        state = batch.state(index)
        assert isinstance(state, MultiLSState)
        assert np.allclose(state.chol_inv, batch.chol_inv[index])
        assert state.log_det == pytest.approx(batch.log_det[index], abs=1e-10)


@pytest.mark.parametrize("prior", [
    NIGPrior(NIGHypers(1.0, 0.5, 2.5, 3.0)),
    NxIGPrior(NxIGHypers(-1.0, 2.0, 2.5, 3.0)),
    NWPrior(NWHypers([1.0, -1.0, 0.0], 2.0, 6.0, np.diag([2.0, 1.0, 1.5]))),
    GammaPrior(GammaPriorHypers(2.0, 3.0, 2.0)),
], ids=["NIG", "NxIG", "NW", "Gamma"])
def test_single_draw_equals_a_batch_of_one(prior):
    # one draw formula: a single state is the batch's only row, bit for bit
    for seed in range(2_000):
        single = prior.sample(np.random.default_rng(seed))
        row = prior.sample_batch(np.random.default_rng(seed), (1,)).state((0,))
        assert type(single) is type(row)
        want, got = single.to_params(), row.to_params()
        assert all(want[k].tobytes() == got[k].tobytes() for k in want), seed


@pytest.mark.parametrize("d", [1, 2, 4, 10])
def test_nw_draw_hands_the_state_the_factor_it_would_compute(d):
    # the drawn covariance is exactly symmetric, so the state built from the
    # draw's own Cholesky factor equals the one that checks and factors it
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d))
    prior = NWPrior(NWHypers(rng.normal(size=d), 0.3, d + 1.5, a @ a.T + d * np.eye(d)))
    for seed in range(2_000):
        state = prior.sample(np.random.default_rng(seed))
        assert np.array_equal(state.cov, state.cov.T)
        ref = MultiLSState(state.mean, state.cov)
        for field in ("mean", "cov", "chol", "chol_inv"):
            assert getattr(state, field).tobytes() == getattr(ref, field).tobytes(), (seed, field)
        assert state.log_det == ref.log_det, seed


def test_nw_draw_with_a_non_finite_covariance_raises():
    prior = NWPrior(NWHypers(np.zeros(2), 1.0, 3.0, np.eye(2) * 1e307))
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        for seed in range(200):
            prior.sample(np.random.default_rng(seed))
