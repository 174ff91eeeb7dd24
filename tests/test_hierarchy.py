import math

import numpy as np
import pytest
from oracles import nnig_quadrature

from mixmcmc.config import parse_config
from mixmcmc.exceptions import CapabilityError, ConfigError
from mixmcmc.hierarchy import build_hierarchy
from mixmcmc.states import UniLSState

NNIG_ARGS = {
    "fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}
}
GAMMA_ARGS = {"fixed_values": {"shape": 1.0, "rate_alpha": 2.0, "rate_beta": 2.0}}
NNW_ARGS = {
    "fixed_values": {
        "mean": {"size": 2, "data": [0.0, 0.0]},
        "var_scaling": 0.5,
        "deg_free": 6.0,
        "scale": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0], "rowmajor": True},
    }
}
LAP_ARGS = {"fixed_values": {"mean": 0.0, "var": 4.0, "shape": 2.0, "scale": 2.0}}


def _nnig():
    return build_hierarchy("NNIG", NNIG_ARGS)


def _conditional_pred_lpdf(h, y):
    """log predictive density of y given the hierarchy's current members."""
    return h.conditional_pred_scorer(h.card, h.likelihood.stats)(y)


def test_build_from_config_text():
    text = """
    fixed_values {
        mean: 0.0
        var_scaling: 0.1
        shape: 2.0
        scale: 2.0
    }
    """
    h = build_hierarchy("NNIG", parse_config(text))
    assert h.prior.hypers.var_scaling == 0.1
    assert h.is_conjugate()


def test_unknown_hierarchy_type():
    with pytest.raises(ConfigError):
        build_hierarchy("NNQQ", NNIG_ARGS)


def test_sample_prior_matches_prior_sample():
    h = _nnig()
    h.sample_prior(np.random.default_rng(1))
    direct = h.prior.sample(np.random.default_rng(1))
    assert h.state == direct
    assert h.state.var > 0


def test_sample_full_cond_empty_equals_sample_prior():
    h1, h2 = _nnig(), _nnig()
    h1.sample_full_cond(np.random.default_rng(5))
    h2.sample_prior(np.random.default_rng(5))
    assert h1.state == h2.state


def test_sample_full_cond_single_datum_long_run_mean():
    h = _nnig()
    h.add_datum(0, 1.0)
    rng = np.random.default_rng(6)
    means = np.empty(50_000)
    for t in range(means.size):
        h.sample_full_cond(rng)
        means[t] = h.state.mean
    se = means.std() / math.sqrt(means.size)
    assert abs(means.mean() - 10.0 / 11.0) < 3 * se


def test_full_cond_kernel_preserves_exact_posterior():
    # feed exact posterior draws through the kernel; moments must be preserved
    from scipy import stats

    h = _nnig()
    data = [0.5, 1.5, -0.4]
    for i, y in enumerate(data):
        h.add_datum(i, y)
    post = h.updater.compute_posterior_hypers(h.likelihood, h.prior)
    rng = np.random.default_rng(7)
    scipy_rng = np.random.default_rng(8)
    out = np.empty(10_000)
    for t in range(out.size):
        var = float(stats.invgamma.rvs(post.shape, scale=post.scale, random_state=scipy_rng))
        mean = float(
            stats.norm.rvs(post.mean, math.sqrt(var / post.var_scaling), random_state=scipy_rng)
        )
        h.state = UniLSState(mean, var)
        h.sample_full_cond(rng)
        out[t] = h.state.mean
    target_mean = post.mean
    target_var = post.scale / ((post.shape - 1.0) * post.var_scaling)
    se_mean = out.std() / math.sqrt(out.size)
    assert abs(out.mean() - target_mean) < 4 * se_mean
    assert abs(out.var() - target_var) < 4 * target_var / math.sqrt(out.size) * 3


def test_prior_pred_lpdf_matches_quadrature():
    h = _nnig()
    oracle = nnig_quadrature([0.0], 0.0, 0.1, 2.0, 2.0)
    assert h.prior_predictive().lpdf(0.0) == pytest.approx(oracle["log_marginal"], abs=1e-6)
    rng = np.random.default_rng(9)
    for _ in range(8):
        y = float(rng.normal() * 3)
        oracle = nnig_quadrature([y], 0.0, 0.1, 2.0, 2.0)
        assert h.prior_predictive().lpdf(y) == pytest.approx(oracle["log_marginal"], abs=1e-6)


def test_prior_pred_symmetry_about_prior_mean():
    h = build_hierarchy(
        "NNIG",
        {"fixed_values": {"mean": 1.5, "var_scaling": 0.2, "shape": 2.0, "scale": 1.0}},
    )
    pred = h.prior_predictive()
    for y in (0.0, 2.2, -3.0):
        assert pred.lpdf(y) == pytest.approx(pred.lpdf(3.0 - y), abs=1e-12)


def test_prior_pred_integrates_to_one():
    # NNIG
    h = _nnig()
    grid = np.linspace(-80.0, 80.0, 200_001)
    mass = np.trapezoid(np.exp(h.prior_predictive().lpdf_grid(grid)), grid)
    assert mass == pytest.approx(1.0, abs=1e-3)
    # GammaGamma
    g = build_hierarchy("GammaGamma", GAMMA_ARGS)
    ygrid = np.linspace(1e-9, 4000.0, 400_001)
    mass = np.trapezoid(np.exp(g.prior_predictive().lpdf_grid(ygrid)), ygrid)
    assert mass == pytest.approx(1.0, abs=1e-3)
    # NNW, two dimensions
    w = build_hierarchy("NNW", NNW_ARGS)
    axis = np.linspace(-60.0, 60.0, 901)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.reshape(-1), yy.reshape(-1)])
    vals = np.exp(w.prior_predictive().lpdf_grid(pts)).reshape(xx.shape)
    mass = np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_conditional_pred_empty_equals_prior_pred():
    h = _nnig()
    for y in (-1.0, 0.0, 2.5):
        assert _conditional_pred_lpdf(h, y) == h.prior_predictive().lpdf(y)


def test_conditional_pred_matches_marginal_ratio_quadrature():
    # p(y | data) = m(data + [y]) / m(data), both sides by quadrature
    h = _nnig()
    data = [0.8, 1.2, 0.3]
    for i, y in enumerate(data):
        h.add_datum(i, y)
    log_m_data = nnig_quadrature(data, 0.0, 0.1, 2.0, 2.0)["log_marginal"]
    for y in (-0.5, 0.9, 2.0):
        log_m_joint = nnig_quadrature(data + [y], 0.0, 0.1, 2.0, 2.0)["log_marginal"]
        assert _conditional_pred_lpdf(h, y) == pytest.approx(
            log_m_joint - log_m_data, abs=1e-6
        )


def test_conditional_pred_mode_follows_new_datum():
    h = _nnig()
    h.add_datum(0, 0.0)
    base = _conditional_pred_lpdf(h, 8.0)
    h.add_datum(1, 8.0)
    pulled = _conditional_pred_lpdf(h, 8.0)
    assert pulled > base


def test_predictive_capability_error_for_non_conjugate():
    lap = build_hierarchy("LapNIG", LAP_ARGS)
    with pytest.raises(CapabilityError):
        lap.prior_predictive()
    with pytest.raises(CapabilityError):
        lap.conditional_pred_scorer(0, lap.likelihood.stats)


def test_membership_tracks_card():
    # card is the count of data; the samplers' labels say which data they are
    h = _nnig()
    h.add_datum(3, 1.0)
    h.add_datum(7, -1.0)
    assert h.card == 2
    h.remove_datum(3, 1.0)
    assert h.card == 1
    h.remove_datum(7, -1.0)
    assert h.card == 0
    assert h.likelihood.stats == [0.0, 0.0]
    with pytest.raises(ValueError, match="empty"):
        h.remove_datum(7, -1.0)
    assert h.card == 0


def test_clone_shares_no_mutable_state():
    h = _nnig()
    h.add_datum(0, 2.0)
    h.state = UniLSState(5.0, 2.0)
    c = h.clone()
    assert c.card == 0
    assert c.state == h.state
    c.add_datum(0, -10.0)
    c.state = UniLSState(-1.0, 0.5)
    c.sample_full_cond(np.random.default_rng(0))
    assert h.card == 1
    assert h.likelihood.data_sum == 2.0
    assert h.state == UniLSState(5.0, 2.0)


@pytest.mark.parametrize("extra, key", [
    ({"updater": "rwmh", "num_steps": 0}, "num_steps"),
    ({"updater": "mala", "num_steps": -1}, "num_steps"),
    ({"updater": "rwmh", "step_size": "abc"}, "step_size"),
    ({"updater": "mala", "step_size": True}, "step_size"),
    ({"updater": [1.0]}, "updater"),
    ({"updater": "rwmh", "step_size": float("nan")}, "step_size"),
])
def test_bad_metropolis_arguments_are_rejected(extra, key):
    with pytest.raises((ConfigError, ValueError), match=key):
        build_hierarchy("LapNIG", {**LAP_ARGS, **extra})


@pytest.mark.parametrize("hier_type, args", [("NNW", NNW_ARGS), ("GammaGamma", GAMMA_ARGS)])
@pytest.mark.parametrize("updater", ["rwmh", "mala"])
def test_conjugate_only_families_take_no_metropolis_updater(hier_type, args, updater):
    with pytest.raises(ConfigError, match="Metropolis"):
        build_hierarchy(hier_type, {**args, "updater": updater})


def test_metropolis_updater_from_config():
    args = dict(NNIG_ARGS)
    args["updater"] = "mala"
    args["step_size"] = 0.05
    h = build_hierarchy("NNIG", args)
    assert not h.is_conjugate()
    assert h.updater.step_size == 0.05
