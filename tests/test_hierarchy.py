import math

import numpy as np
import pytest
from oracles import datum_stats, fill, nnig_quadrature

from mixmcmc.algorithms import build_algorithm
from mixmcmc.config import parse_config
from mixmcmc.exceptions import CapabilityError, ConfigError
from mixmcmc.hierarchy import Hierarchy, build_hierarchy
from mixmcmc.likelihoods import (
    GammaLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
    moved_stats,
)
from mixmcmc.mixings import DirichletMixing
from mixmcmc.priors import GammaPrior, GammaPriorHypers, NIGHypers, NIGPrior, NWHypers, NWPrior
from mixmcmc.states import MultiLSState, UniLSState
from mixmcmc.updaters import (
    ConjugateUpdater,
    gamma_gamma_posterior_hypers,
    gamma_gamma_predictive,
    nnig_posterior_hypers,
    nnig_predictive,
    nnw_posterior_hypers,
    nnw_predictive,
)

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


def _conditional_pred_lpdf(h, like, y):
    """log predictive density of y given the members of the cluster ``like``."""
    return h.predictive(like.card, like.stats).lpdf(y)


def _prior_pred(h):
    """The prior predictive, that of an empty cluster."""
    return h.predictive(0, h.likelihood.stats)


def _add_datum(like, terms):
    """Count one datum, given as its own statistic list, into the cluster ``like``."""
    like.stats = moved_stats(like.stats, terms, True)
    like.card += 1


def _full_cond_draw(h, like, rng):
    """A birth's draw: the cluster ``like`` from its full conditional, as a batch of one."""
    h.updater.draw_batch([like], h.prior, rng, None, None)


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
    # a sampler's starting clusters are empty clones of the template's
    # likelihood, each drawn by the prior in turn
    h = _nnig()
    algo = build_algorithm("Neal2", h, DirichletMixing(1.0), init_num_clusters=3)
    algo._prepare_data(np.arange(5.0).reshape(-1, 1))
    algo._initialize(np.random.default_rng(1))
    rng = np.random.default_rng(1)
    assert [cluster.state for cluster in algo.clusters] == [h.prior.sample(rng) for _ in range(3)]
    assert all(type(cluster) is UniNormLikelihood and cluster is not h.likelihood
               for cluster in algo.clusters)


def test_full_cond_kernel_preserves_exact_posterior():
    # feed exact posterior draws through the kernel; moments must be preserved
    from scipy import stats

    h = _nnig()
    like = fill(h.likelihood.clone_empty(), [0.5, 1.5, -0.4])
    post = h.updater.posterior_hypers(like.card, like.stats, h.prior.hypers)
    rng = np.random.default_rng(7)
    scipy_rng = np.random.default_rng(8)
    out = np.empty(10_000)
    for t in range(out.size):
        var = float(stats.invgamma.rvs(post.shape, scale=post.scale, random_state=scipy_rng))
        mean = float(
            stats.norm.rvs(post.mean, math.sqrt(var / post.var_scaling), random_state=scipy_rng)
        )
        like.state = UniLSState(mean, var)
        _full_cond_draw(h, like, rng)
        out[t] = like.state.mean
    target_mean = post.mean
    target_var = post.scale / ((post.shape - 1.0) * post.var_scaling)
    se_mean = out.std() / math.sqrt(out.size)
    assert abs(out.mean() - target_mean) < 4 * se_mean
    assert abs(out.var() - target_var) < 4 * target_var / math.sqrt(out.size) * 3


def test_prior_pred_lpdf_matches_quadrature():
    h = _nnig()
    oracle = nnig_quadrature([0.0], 0.0, 0.1, 2.0, 2.0)
    assert _prior_pred(h).lpdf(0.0) == pytest.approx(oracle["log_marginal"], abs=1e-6)
    rng = np.random.default_rng(9)
    for _ in range(8):
        y = float(rng.normal() * 3)
        oracle = nnig_quadrature([y], 0.0, 0.1, 2.0, 2.0)
        assert _prior_pred(h).lpdf(y) == pytest.approx(oracle["log_marginal"], abs=1e-6)


def test_prior_pred_symmetry_about_prior_mean():
    h = build_hierarchy(
        "NNIG",
        {"fixed_values": {"mean": 1.5, "var_scaling": 0.2, "shape": 2.0, "scale": 1.0}},
    )
    pred = _prior_pred(h)
    for y in (0.0, 2.2, -3.0):
        assert pred.lpdf(y) == pytest.approx(pred.lpdf(3.0 - y), abs=1e-12)


def test_prior_pred_integrates_to_one():
    # NNIG
    h = _nnig()
    grid = np.linspace(-80.0, 80.0, 200_001)
    mass = np.trapezoid(np.exp(_prior_pred(h).lpdf_grid(grid)), grid)
    assert mass == pytest.approx(1.0, abs=1e-3)
    # GammaGamma
    g = build_hierarchy("GammaGamma", GAMMA_ARGS)
    ygrid = np.linspace(1e-9, 4000.0, 400_001)
    mass = np.trapezoid(np.exp(_prior_pred(g).lpdf_grid(ygrid)), ygrid)
    assert mass == pytest.approx(1.0, abs=1e-3)
    # NNW, two dimensions
    w = build_hierarchy("NNW", NNW_ARGS)
    axis = np.linspace(-60.0, 60.0, 901)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.reshape(-1), yy.reshape(-1)])
    vals = np.exp(_prior_pred(w).lpdf_grid(pts)).reshape(xx.shape)
    mass = np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_conditional_pred_empty_equals_prior_pred():
    # in every conjugate family, the predictive of an empty cluster has the bits of the
    # predictive at the prior's own hyperparameters, on a grid and datum by datum, and
    # each grid entry has the bits of the density at its point: random points, far
    # tails and, for GammaGamma, y <= 0, where the density is -inf
    rng = np.random.default_rng(10)
    for hier_type, args in [("NNIG", NNIG_ARGS), ("NNW", NNW_ARGS), ("GammaGamma", GAMMA_ARGS)]:
        h = build_hierarchy(hier_type, args)
        d = h.likelihood.dim
        if hier_type == "GammaGamma":
            grid = np.concatenate((rng.gamma(2.0, size=20_000), 10.0 ** rng.uniform(-300, 100, 50),
                                   [0.0, -0.0, -1.5, -1e100]))[:, None]
        else:
            grid = np.vstack((rng.normal(size=(20_000, d)) * 3,
                              rng.normal(size=(50, d)) * 10.0 ** rng.uniform(2, 100, (50, 1))))
        prior_pred = h.updater.predictive(h.prior.hypers)
        empty = h.predictive(0, h.likelihood.clone_empty().stats)
        entries = empty.lpdf_grid(grid)
        assert np.array_equal(entries, prior_pred.lpdf_grid(grid)), hier_type
        assert not np.isnan(entries).any(), hier_type
        points = grid[:, 0] if d == 1 else grid
        mismatches = [y for y, entry in zip(points, entries.tolist())
                      if not empty.lpdf(y) == entry == prior_pred.lpdf(y)]
        assert not mismatches, (hier_type, len(mismatches))
        if hier_type == "GammaGamma":
            assert np.all(entries[grid[:, 0] <= 0] == -np.inf)


def test_conditional_pred_matches_marginal_ratio_quadrature():
    # p(y | data) = m(data + [y]) / m(data), both sides by quadrature
    data = [0.8, 1.2, 0.3]
    h = _nnig()
    like = fill(h.likelihood.clone_empty(), data)
    log_m_data = nnig_quadrature(data, 0.0, 0.1, 2.0, 2.0)["log_marginal"]
    for y in (-0.5, 0.9, 2.0):
        log_m_joint = nnig_quadrature(data + [y], 0.0, 0.1, 2.0, 2.0)["log_marginal"]
        assert _conditional_pred_lpdf(h, like, y) == pytest.approx(
            log_m_joint - log_m_data, abs=1e-6
        )


def test_conditional_pred_mode_follows_new_datum():
    h = _nnig()
    like = h.likelihood.clone_empty()
    zero, eight = datum_stats(like, [0.0, 8.0])
    _add_datum(like, zero)
    base = _conditional_pred_lpdf(h, like, 8.0)
    _add_datum(like, eight)
    pulled = _conditional_pred_lpdf(h, like, 8.0)
    assert pulled > base


def test_predictive_capability_error_for_non_conjugate():
    lap = build_hierarchy("LapNIG", LAP_ARGS)
    with pytest.raises(CapabilityError):
        lap.predictive(0, lap.likelihood.stats)


def test_a_hierarchy_centres_its_statistics_on_the_prior_mean():
    # however it is built, and in every empty clone of its likelihood (each
    # cluster of a sampler); a prior with no mean leaves 0
    cases = [
        (UniNormLikelihood(), NIGPrior(NIGHypers(3.0, 0.1, 2.0, 2.0)),
         (nnig_posterior_hypers, nnig_predictive), 3.0),
        (MultiNormLikelihood(MultiLSState(np.zeros(2), np.eye(2))),
         NWPrior(NWHypers([3.0, -1.0], 0.5, 5.0, np.eye(2))),
         (nnw_posterior_hypers, nnw_predictive), [3.0, -1.0]),
        (GammaLikelihood(2.0), GammaPrior(GammaPriorHypers(2.0, 2.0, 2.0)),
         (gamma_gamma_posterior_hypers, gamma_gamma_predictive), 0.0),
    ]
    for like, prior, functions, ref in cases:
        Hierarchy(like, prior, ConjugateUpdater(*functions))
        for cluster in (like, like.clone_empty(), like.clone_empty().clone_empty()):
            assert np.array_equal(cluster.ref, ref)
    h = build_hierarchy("NNIG", {"fixed_values": {**NNIG_ARGS["fixed_values"], "mean": 3.0}})
    like = h.likelihood.clone_empty()
    _add_datum(like, *datum_stats(like, [3.5]))
    assert like.stats == [0.5, 0.25]


def test_membership_tracks_card():
    # card is the count of data; the samplers' labels say which data they are
    h = _nnig()
    one, minus_one = datum_stats(h.likelihood, [1.0, -1.0])
    h.add_datum(one)
    h.add_datum(minus_one)
    assert h.card == 2
    h.remove_datum(one)
    assert h.card == 1
    h.remove_datum(minus_one)
    assert h.card == 0
    assert h.likelihood.stats == [0.0, 0.0]
    with pytest.raises(ValueError, match="empty"):
        h.remove_datum(minus_one)
    assert h.card == 0


def test_a_component_counts_into_its_cluster_alone():
    # a sampler's birth and death go through the component of the cluster
    h = _nnig()
    like = h.likelihood.clone_empty()
    comp = h.component(like)
    assert comp.likelihood is like and comp.prior is h.prior and comp.updater is h.updater
    (two,) = datum_stats(like, [2.0])
    comp.add_datum(two)
    like.state = UniLSState(5.0, 2.0)
    assert (comp.card, comp.state, like.stats) == (1, UniLSState(5.0, 2.0), [2.0, 4.0])
    assert (h.card, h.likelihood.stats) == (0, [0.0, 0.0])
    assert h.state != like.state
    comp.remove_datum(two)
    assert (like.card, like.stats) == (0, [0.0, 0.0])


def test_clone_shares_no_mutable_state():
    # an empty clone of a cluster starts at a copy of its state and shares
    # nothing that a birth, a draw or a recount writes
    h = _nnig()
    like = h.likelihood.clone_empty()
    two, minus_ten = datum_stats(like, [2.0, -10.0])
    _add_datum(like, two)
    like.state = UniLSState(5.0, 2.0)
    c = like.clone_empty()
    assert c.card == 0 and c.stats == [0.0, 0.0]
    assert c.state == like.state and c.state is not like.state
    _add_datum(c, minus_ten)
    c.state = UniLSState(-1.0, 0.5)
    _full_cond_draw(h, c, np.random.default_rng(0))
    assert like.card == 1
    assert like.stats[0] == 2.0
    assert like.state == UniLSState(5.0, 2.0)


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


@pytest.mark.parametrize("hier_type, args", [
    ("NNIG", NNIG_ARGS), ("NNxIG", {"fixed_values": LAP_ARGS["fixed_values"]}),
    ("NNW", NNW_ARGS), ("GammaGamma", GAMMA_ARGS)])
@pytest.mark.parametrize("key, value", [("step_size", -5.0), ("num_steps", 0.5)])
def test_metropolis_keys_without_a_metropolis_updater_raise(hier_type, args, key, value):
    # no updater reads them, so a value is an error, not ignored; LapNIG's
    # default random walk takes both
    with pytest.raises(ConfigError, match=key):
        build_hierarchy(hier_type, {**args, key: value})
    lap = build_hierarchy("LapNIG", {**LAP_ARGS, "step_size": 0.3, "num_steps": 2})
    assert (lap.updater.step_size, lap.updater.num_steps, lap.updater.langevin) == (0.3, 2, False)


@pytest.mark.parametrize("hier_type, args, key", [
    ("NNIG", {"fixed_values": {**NNIG_ARGS["fixed_values"], "extra": 3.0}},
     "unknown key 'fixed_values.extra'"),
    ("LapNIG", {**LAP_ARGS, "num_step": 5.0}, "unknown key 'num_step'"),
    ("LapNIG", {**LAP_ARGS, "updater": "mala", "stepsize": 0.1}, "unknown key 'stepsize'"),
    ("NNxIG", {"fixed_values": {**LAP_ARGS["fixed_values"], "var_scaling": 0.1}},
     "unknown key 'fixed_values.var_scaling'"),
    ("GammaGamma", {**GAMMA_ARGS, "fixed_value": {"shape": 1.0}}, "unknown key 'fixed_value'"),
    ("NNW", {"fixed_values": {**NNW_ARGS["fixed_values"],
                              "mean": {"size": 2, "data": [0.0, 0.0], "rowmajor": True}}},
     "unknown key 'fixed_values.mean.rowmajor'"),
    ("NNW", {"fixed_values": {**NNW_ARGS["fixed_values"],
                              "mean": {"size": 3, "data": [0.0, 0.0]}}},
     "'mean' declares size 3 but has 2 entries"),
    ("NNW", {"fixed_values": {**NNW_ARGS["fixed_values"],
                              "scale": {"rows": 2, "cols": 3, "data": [1.0, 0.0, 0.0, 1.0]}}},
     "'scale' declares 2x3 but has 4 entries"),
])
def test_a_key_the_family_does_not_read_is_rejected(hier_type, args, key):
    # a key no reader takes used to be dropped, whatever it was meant to set;
    # a vector or matrix block must hold as many entries as it declares
    with pytest.raises(ConfigError, match=key):
        build_hierarchy(hier_type, args)


def test_a_table_entry_is_a_whole_family(monkeypatch):
    # a renamed copy of the NNIG entry is a family of its own: the config
    # reader, the estimator's defaults and a sampler take it from the table alone
    import mixmcmc.hierarchy as hierarchy
    from mixmcmc.chainio import MemoryCollector
    from mixmcmc.estimator import BayesianMixture

    monkeypatch.setitem(hierarchy._FAMILIES, "NNIG2", hierarchy._FAMILIES["NNIG"])
    h = build_hierarchy("NNIG2", parse_config(
        "fixed_values { mean: 0.0 var_scaling: 0.1 shape: 2.0 scale: 2.0 }"))
    assert (h.name, h.prior.hypers, h.is_conjugate()) == ("NNIG2", NIGHypers(0.0, 0.1, 2.0, 2.0),
                                                          True)
    with pytest.raises(ConfigError, match="'NNIG2' runs ConjugateUpdater"):
        build_hierarchy("NNIG2", {**NNIG_ARGS, "num_steps": 2.0})
    rng = np.random.default_rng(3)
    x = np.concatenate((rng.normal(-3.0, 1.0, 20), rng.normal(3.0, 1.0, 20)))[:, None]
    est = BayesianMixture(hier_type="NNIG2", iterations=60, burnin=20, random_state=4).fit(x)
    twin = BayesianMixture(hier_type="NNIG", iterations=60, burnin=20, random_state=4).fit(x)
    assert est.algorithm_.template.name == "NNIG2"
    assert np.array_equal(est.labels_, twin.labels_)
    algo = build_algorithm("Neal2", h, DirichletMixing(1.0))
    collector = MemoryCollector()
    algo.run(x, 30, 10, collector, np.random.default_rng(5))
    assert len(list(collector)) == 20
    with pytest.raises(ConfigError, match="accepted by NNIG, NNxIG, LapNIG, NNIG2"):
        build_hierarchy("NNW", {**NNW_ARGS, "updater": "rwmh"})


def test_metropolis_updater_from_config():
    args = dict(NNIG_ARGS)
    args["updater"] = "mala"
    args["step_size"] = 0.05
    h = build_hierarchy("NNIG", args)
    assert not h.is_conjugate()
    assert h.updater.step_size == 0.05


@pytest.mark.parametrize("updater", ["rwmh", "mala"])
def test_metropolis_cluster_with_data_moves_only_in_a_batch(updater):
    # the Metropolis target reads the member data from a sampler's labels,
    # which one cluster does not have
    h = build_hierarchy("LapNIG", {**LAP_ARGS, "updater": updater})
    like = h.likelihood.clone_empty()
    _full_cond_draw(h, like, np.random.default_rng(0))  # an empty cluster draws from the prior
    assert like.state == h.prior.sample(np.random.default_rng(0))
    fill(like, [0.5])
    with pytest.raises(CapabilityError, match="draw_batch"):
        _full_cond_draw(h, like, np.random.default_rng(0))



_CENTRED_ARGS = {
    "NNIG": {"fixed_values": {**NNIG_ARGS["fixed_values"], "mean": 1.5}},
    "LapNIG": LAP_ARGS,
    "GammaGamma": GAMMA_ARGS,
}


@pytest.mark.parametrize("family", ["NNIG", "LapNIG", "GammaGamma", "NNW-1", "NNW-2", "NNW-4"])
def test_add_datum_in_index_order_has_the_bits_of_label_stats(family):
    # a family writes its statistics once: a cluster that counts its data in
    # one at a time (each datum's own list, as a birth and Neal3's moves
    # do), in index order, holds the recount's statistics bit for bit
    if family.startswith("NNW"):
        d = int(family.split("-")[1])
        template = build_hierarchy("NNW", {"fixed_values": {
            "mean": {"size": d, "data": [0.7] * d}, "var_scaling": 0.5, "deg_free": d + 3.0,
            "scale": {"rows": d, "cols": d, "data": np.eye(d).ravel().tolist()}}})
    else:
        d, template = 1, build_hierarchy(family, _CENTRED_ARGS[family])
    like, rng = template.likelihood, np.random.default_rng(49)
    for n in (1, 2, 7, 40):
        if family == "GammaGamma":
            data = rng.gamma(2.0, size=(n, d))
        else:
            data = rng.normal(1.0, 2.0, size=(n, d))
        cluster = like.clone_empty()
        for terms in datum_stats(like, data):
            _add_datum(cluster, terms)
        (want,) = like.label_stats(like.stat_terms(data), np.zeros(n, dtype=int), 1)
        assert cluster.card == n
        assert [np.asarray(stat).tobytes() for stat in cluster.stats] == [
            np.asarray(stat).tobytes() for stat in want]
