import hashlib
import math
import warnings

import numpy as np
import pytest
from oracles import (
    datum_stats,
    dp_coclustering_probability,
    indicator_se,
    nnig_dp_coclustering_probability,
    nxig_quadrature,
)
from test_chain_hashes import HIER_ARGS, _data

from mixmcmc import algorithms
from mixmcmc._util import logsumexp
from mixmcmc.algorithms import (
    ALGORITHM_IDS,
    BlockedGibbsAlgorithm,
    Neal8Algorithm,
    build_algorithm,
)
from mixmcmc.chainio import MemoryCollector, decode_state, encode_state
from mixmcmc.exceptions import ConfigError
from mixmcmc.hierarchy import HIERARCHY_TYPES, build_hierarchy
from mixmcmc.likelihoods import moved_stats
from mixmcmc.mixings import DirichletMixing, PitYorMixing, TruncatedSBMixing

NNIG_ARGS = {
    "fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}
}
LAP_ARGS = {"fixed_values": {"mean": 0.0, "var": 25.0, "shape": 2.0, "scale": 2.0}}


def _nnig():
    return build_hierarchy("NNIG", NNIG_ARGS)


def _run(algo, data, iterations, burnin, seed):
    collector = MemoryCollector()
    algo.run(np.asarray(data, dtype=float), iterations, burnin, collector, np.random.default_rng(seed))
    return collector


def test_compatibility_validation():
    with pytest.raises(ConfigError):
        build_algorithm("Neal2", build_hierarchy("LapNIG", LAP_ARGS), DirichletMixing(1.0))
    with pytest.raises(ConfigError):
        build_algorithm("Neal3", build_hierarchy("NNxIG", {
            "fixed_values": {"mean": 0.0, "var": 1.0, "shape": 2.0, "scale": 2.0}
        }), DirichletMixing(1.0))
    with pytest.raises(ConfigError):
        build_algorithm("Neal2", _nnig(), TruncatedSBMixing(10))
    with pytest.raises(ConfigError):
        build_algorithm("BlockedGibbs", _nnig(), DirichletMixing(1.0))
    with pytest.raises(ValueError):
        build_algorithm("Neal8", _nnig(), DirichletMixing(1.0), n_aux=0)
    with pytest.raises(ConfigError):
        build_algorithm("Neal9", _nnig(), DirichletMixing(1.0))


def test_run_validation():
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0))
    with pytest.raises(ValueError):
        algo.run(np.ones((3, 1)), 10, 10, MemoryCollector(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        algo.run(np.ones((3, 2)), 10, 1, MemoryCollector(), np.random.default_rng(0))


@pytest.mark.parametrize("algo_id", ["Neal2", "Neal3", "Neal8"])
def test_single_datum_keeps_one_cluster(algo_id):
    algo = build_algorithm(algo_id, _nnig(), DirichletMixing(1.0))
    collector = _run(algo, [[0.7]], 60, 10, seed=1)
    assert len(collector) == 50
    for record in collector:
        assert record.num_clusters() == 1
        assert len(record.cluster_states) == 1


@pytest.mark.parametrize("algo_id", ["Neal2", "Neal3", "Neal8"])
def test_pitman_yor_negative_strength_runs_on_one_datum(algo_id):
    # -discount < strength < 0 is a valid Pitman-Yor prior; with the datum's
    # cluster gone the new cluster is the only category, whose mass
    # strength + discount * 0 has no log
    algo = build_algorithm(algo_id, _nnig(), PitYorMixing(-0.5, 0.6))
    collector = _run(algo, [[0.3]], 30, 10, seed=3)
    assert [record.num_clusters() for record in collector] == [1] * 20


def test_retained_iteration_numbers_and_count():
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0))
    collector = _run(algo, [[0.0], [1.0], [2.0]], 1500, 500, seed=2)
    assert len(collector) == 1000
    iterations = [record.iteration for record in collector]
    assert iterations == list(range(500, 1500))


def test_striped_initialization_cardinalities():
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0), init_num_clusters=3)
    algo._prepare_data(np.arange(5.0).reshape(-1, 1))
    algo._initialize(np.random.default_rng(3))
    assert sorted(cl.card for cl in algo.clusters) == [1, 2, 2]
    assert algo.allocations.tolist() == [0, 1, 2, 0, 1]


def test_marginal_invariants_along_the_chain():
    rng = np.random.default_rng(4)
    data = np.concatenate([rng.normal(size=15) - 3, rng.normal(size=15) + 3]).reshape(-1, 1)
    for algo_id in ("Neal2", "Neal3", "Neal8"):
        algo = build_algorithm(algo_id, _nnig(), PitYorMixing(1.0, 0.1))
        collector = _run(algo, data, 120, 20, seed=5)
        for record in collector:
            counts = np.bincount(record.allocations)
            assert counts.sum() == 30
            assert np.all(counts > 0), "empty cluster in a marginal state"
            assert record.allocations.max() == len(record.cluster_states) - 1
            for h, cs in enumerate(record.cluster_states):
                assert cs.cardinality == counts[h]
            # round-trip through the wire format stays consistent
            assert decode_state(encode_state(record)) == record


def test_determinism_same_seed_same_chain():
    data = np.array([[0.1], [0.9], [-1.2], [3.0]])
    lines = []
    for _ in range(2):
        algo = build_algorithm("Neal8", _nnig(), DirichletMixing(1.0))
        collector = _run(algo, data, 80, 20, seed=77)
        lines.append("\n".join(encode_state(r) for r in collector))
    assert lines[0] == lines[1]


def test_well_separated_pair_rarely_coclusters():
    # co-clustering is minimized near ±10 for these hyperparameters; the
    # enumeration oracle gives 0.0076 there (at extreme separations the
    # heavy-tailed marginals co-cluster the pair instead, see below)
    target = nnig_dp_coclustering_probability(-10.0, 10.0, 0.0, 0.1, 2.0, 2.0, 1.0)
    assert target < 0.01
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0))
    collector = _run(algo, [[-10.0], [10.0]], 5000, 500, seed=6)
    indicator = np.array([float(r.allocations[0] == r.allocations[1]) for r in collector])
    assert abs(indicator.mean() - target) < 3 * indicator_se(indicator)
    assert indicator.mean() < 0.02


def test_extreme_separation_follows_enumeration_oracle():
    # at ±1e6 one inflated-variance cluster dominates two tail events:
    # the closed-form marginal ratio puts P(together) at essentially 1
    def closed_log_marginal(data, mu0=0.0, lam=0.1, a=2.0, b=2.0):
        data = np.asarray(data, dtype=float)
        n = len(data)
        lam_n = lam + n
        ybar = data.mean()
        a_n = a + n / 2
        b_n = b + 0.5 * ((data**2).sum() - n * ybar**2)
        b_n += lam * n * (ybar - mu0) ** 2 / (2 * lam_n)
        return (
            -0.5 * n * np.log(2 * np.pi)
            + 0.5 * (np.log(lam) - np.log(lam_n))
            + math.lgamma(a_n)
            - math.lgamma(a)
            + a * np.log(b)
            - a_n * np.log(b_n)
        )

    lm12 = closed_log_marginal([-1e6, 1e6])
    lm1 = closed_log_marginal([-1e6])
    lm2 = closed_log_marginal([1e6])
    target = 1.0 / (1.0 + np.exp(lm1 + lm2 - lm12))
    assert target > 0.999
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0))
    collector = _run(algo, [[-1e6], [1e6]], 2000, 100, seed=6)
    together = np.mean([r.allocations[0] == r.allocations[1] for r in collector])
    assert together > 0.99


_TWO_POINT_CELLS = {
    "Neal2-None": ("Neal2", None, None), "Neal3-None": ("Neal3", None, None),
    "Neal8-1": ("Neal8", 1, None), "Neal8-3": ("Neal8", 3, None),
    # each datum is its own block of the score table, so births fall
    # between blocks and each block's uniforms follow the births before it
    "Neal2-rows1": ("Neal2", None, 1)}


@pytest.mark.parametrize(
    "algo_id,n_aux,table_rows,tiny",
    # at _TINY = inf no sum of weights passes, so every datum is drawn from its
    # log weights, the guard path
    [cell + (None,) for cell in _TWO_POINT_CELLS.values()]
    + [cell + (math.inf,) for cell in _TWO_POINT_CELLS.values()],
    ids=list(_TWO_POINT_CELLS) + [f"{name}-log" for name in _TWO_POINT_CELLS],
)
def test_two_point_coclustering_matches_enumeration(monkeypatch, algo_id, n_aux, table_rows,
                                                    tiny):
    if table_rows is not None:
        monkeypatch.setattr(algorithms, "_TABLE_ROWS", table_rows)
    if tiny is not None:
        monkeypatch.setattr(algorithms, "_TINY", tiny)
    target = nnig_dp_coclustering_probability(-1.0, 1.0, 0.0, 0.1, 2.0, 2.0, alpha=1.0)
    kwargs = {} if n_aux is None else {"n_aux": n_aux}
    algo = build_algorithm(algo_id, _nnig(), DirichletMixing(1.0), **kwargs)
    collector = _run(algo, [[-1.0], [1.0]], 6000, 500, seed=8)
    indicator = np.array([float(r.allocations[0] == r.allocations[1]) for r in collector])
    se = indicator_se(indicator)
    assert abs(indicator.mean() - target) < 3 * se


def _assert_nxig_coclustering_matches_enumeration(hier_type, args, y1, y2, n_aux):
    h = HIER_ARGS[hier_type]["fixed_values"]
    kernel = "laplace" if hier_type == "LapNIG" else "normal"
    target = dp_coclustering_probability(
        lambda data: nxig_quadrature(data, h["mean"], h["var"], h["shape"], h["scale"],
                                     kernel=kernel)["log_marginal"],
        y1, y2, alpha=1.0)
    algo = build_algorithm("Neal8", build_hierarchy(hier_type, args), DirichletMixing(1.0),
                           n_aux=n_aux)
    collector = _run(algo, [[y1], [y2]], 6000, 500, seed=8)
    indicator = np.array([float(r.allocations[0] == r.allocations[1]) for r in collector])
    assert abs(indicator.mean() - target) < 3 * indicator_se(indicator)


@pytest.mark.parametrize("hier_type", ["NNxIG", "LapNIG"])
@pytest.mark.parametrize("n_aux", [1, 3])
def test_neal8_nonconjugate_two_point_coclustering_matches_enumeration(hier_type, n_aux):
    # the auxiliary candidates drawn and scored per sweep, on the two
    # non-conjugate families; LapNIG refreshes its clusters by MALA
    args = dict(HIER_ARGS[hier_type])
    if hier_type == "LapNIG":
        args.update(updater="mala", step_size=0.5, num_steps=3)
    _assert_nxig_coclustering_matches_enumeration(hier_type, args, -1.0, 1.0, n_aux)


def test_neal8_auxiliary_blocks_keep_the_coclustering_oracle(monkeypatch):
    # one datum per block of auxiliary states: each is drawn only when the
    # sweep reaches its datum, after the other datum has moved; the data sit
    # asymmetrically about the prior mean, so that states scored at the
    # wrong datum would show
    monkeypatch.setattr(algorithms, "_AUX_BATCH_CELLS", 3)
    _assert_nxig_coclustering_matches_enumeration("NNxIG", HIER_ARGS["NNxIG"], 0.5, 3.0, 3)


@pytest.mark.parametrize("hier_type", ["NNxIG", "NNW"])
def test_neal8_births_come_from_their_own_block(monkeypatch, hier_type):
    # blocks of 4 data: 30 data take 7 full blocks and one of 2 per sweep,
    # and a born state is one of its datum's own auxiliary states
    d = 2 if hier_type == "NNW" else 1
    monkeypatch.setattr(algorithms, "_AUX_BATCH_CELLS", 3 * d * d * 4)
    algo = Neal8Algorithm(build_hierarchy(hier_type, HIER_ARGS[hier_type]),
                          DirichletMixing(5.0), n_aux=3)
    sizes, births = [], []
    prior = algo.template.prior
    real_batch, real_open, real_remove = prior.sample_batch, algo._open_cluster, algo._remove_datum
    stash = [None]

    def sample_batch(rng, size):
        sizes.append(size)
        return real_batch(rng, size)

    def remove_datum(i):
        stash[0] = real_remove(i)
        return stash[0]

    def open_cluster(i, rng, state=None):
        if state is not stash[0]:
            row = algo._aux.mean[i - algo._block_start]
            assert any(np.array_equal(state.mean, mean) for mean in row)
            births.append(i)
        real_open(i, rng, state=state)

    monkeypatch.setattr(prior, "sample_batch", sample_batch)
    algo._remove_datum, algo._open_cluster = remove_datum, open_cluster
    _run(algo, _data(hier_type), 20, 10, seed=23)
    assert sizes == ([(4, 3)] * 7 + [(2, 3)]) * 20
    assert any(i >= 4 for i in births)


def test_blocked_gibbs_agrees_with_dp_enumeration():
    # truncation at m=25 distorts the DP co-clustering by ~3^-24: negligible
    target = nnig_dp_coclustering_probability(-1.0, 1.0, 0.0, 0.1, 2.0, 2.0, alpha=1.0)
    algo = build_algorithm("BlockedGibbs", _nnig(), TruncatedSBMixing(25, 1.0))
    collector = _run(algo, [[-1.0], [1.0]], 8000, 1000, seed=9)
    indicator = np.array([float(r.allocations[0] == r.allocations[1]) for r in collector])
    se = indicator_se(indicator)
    assert abs(indicator.mean() - target) < 3 * se


def test_blocked_gibbs_single_component():
    algo = build_algorithm("BlockedGibbs", _nnig(), TruncatedSBMixing(1, 1.0))
    collector = _run(algo, [[0.0], [1.0], [5.0]], 50, 10, seed=10)
    for record in collector:
        assert np.all(record.allocations == 0)


def test_blocked_gibbs_two_component_recovery():
    rng = np.random.default_rng(11)
    data = np.concatenate([rng.normal(size=100) - 3, rng.normal(size=100) + 3]).reshape(-1, 1)
    algo = build_algorithm("BlockedGibbs", _nnig(), TruncatedSBMixing(25, 1.0))
    collector = _run(algo, data, 600, 200, seed=12)
    # posterior mean weights: at least two components carry >= 5% each
    weight_acc = np.zeros(25)
    mix = TruncatedSBMixing(25, 1.0)
    for record in collector:
        mix.set_state_params(record.mixing_params)
        weight_acc += np.exp(mix.get_weights())
    weight_mean = weight_acc / len(collector)
    assert np.sum(weight_mean >= 0.05) >= 2


def test_neal8_nonconjugate_bimodal_recovery():
    rng = np.random.default_rng(13)
    data = np.concatenate([rng.normal(size=30) - 5, rng.normal(size=30) + 5]).reshape(-1, 1)
    hier = build_hierarchy("LapNIG", dict(LAP_ARGS, step_size=0.4, num_steps=3))
    algo = build_algorithm("Neal8", hier, DirichletMixing(0.1), n_aux=3)
    collector = _run(algo, data, 500, 100, seed=14)
    ks = np.array([r.num_clusters() for r in collector])
    assert np.mean(ks == 2) >= 0.8


def test_eval_lpdf_grid_degenerate_single_cluster():
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1e-12))
    data = np.array([[0.2], [0.3], [0.4]])
    collector = _run(algo, data, 40, 39, seed=15)
    assert len(collector) == 1
    (record,) = collector
    assert record.num_clusters() == 1
    grid = np.linspace(-2, 2, 50).reshape(-1, 1)
    lpdf = algo.eval_lpdf_grid(collector, grid)
    from mixmcmc.likelihoods import UniNormLikelihood
    from mixmcmc.states import UniLSState

    state = UniLSState.from_params(record.cluster_states[0].params)
    assert np.max(np.abs(lpdf[0] - UniNormLikelihood().score_batch(state, grid)[:, 0])) < 1e-9


def test_eval_lpdf_grid_mean_density_integrates_to_one():
    rng = np.random.default_rng(16)
    data = np.concatenate([rng.normal(size=40) - 3, rng.normal(size=40) + 3]).reshape(-1, 1)
    for algo, seed in [
        (build_algorithm("Neal2", _nnig(), DirichletMixing(1.0)), 17),
        (build_algorithm("Neal3", _nnig(), PitYorMixing(1.0, 0.2)), 18),
        (build_algorithm("BlockedGibbs", _nnig(), TruncatedSBMixing(20, 1.0)), 19),
    ]:
        collector = _run(algo, data, 300, 100, seed=seed)
        grid = np.linspace(-25, 25, 1001)
        lpdf = algo.eval_lpdf_grid(collector, grid.reshape(-1, 1))
        assert lpdf.shape == (200, 1001)
        mass = np.trapezoid(np.exp(lpdf).mean(axis=0), grid)
        assert mass == pytest.approx(1.0, abs=1e-2)


def test_eval_lpdf_grid_symmetric_conditional_density():
    # two symmetric components with equal weights: density symmetric about 0
    algo = BlockedGibbsAlgorithm(_nnig(), TruncatedSBMixing(2, 1.0))
    algo._prepare_data(np.array([[-2.0], [2.0]]))
    algo._initialize(np.random.default_rng(20))
    from mixmcmc.chainio import ChainState, ClusterParams
    from mixmcmc.states import UniLSState

    record = ChainState(
        0,
        [
            ClusterParams(1, UniLSState(-2.0, 1.0).to_params()),
            ClusterParams(1, UniLSState(2.0, 1.0).to_params()),
        ],
        np.array([0, 1]),
        {"sticks": np.array([0.5]), "totalmass": 1.0},
    )
    collector = MemoryCollector()
    collector.collect(record)
    grid = np.linspace(-4.0, 4.0, 81).reshape(-1, 1)
    lpdf = algo.eval_lpdf_grid(collector, grid)[0]
    assert np.max(np.abs(lpdf - lpdf[::-1])) < 1e-12


@pytest.mark.parametrize("hier_type", ["NNIG", "NNW", "GammaGamma"])
def test_a_component_of_weight_zero_has_a_row_of_minus_inf(hier_type):
    # a record whose second stick is 0: that component's log weight is -inf and its row
    # is -inf, with no NaN and no warning; every other row has the bits of its state
    # scored alone plus its log weight
    hier = build_hierarchy(hier_type, HIER_ARGS[hier_type])
    algo = BlockedGibbsAlgorithm(hier, TruncatedSBMixing(4, 1.0))
    (record,) = _run(algo, _data(hier_type), 3, 2, seed=26)
    record.mixing_params = {"sticks": np.array([0.5, 0.0, 0.5]), "totalmass": 1.0}
    mixing = TruncatedSBMixing(4, 1.0)
    mixing.set_state_params(record.mixing_params)
    log_w = mixing.get_weights()
    assert log_w[1] == -np.inf and np.isfinite(log_w[[0, 2, 3]]).all()
    grid = np.linspace(-1e3, 1e3, 41)[:, None] * np.ones(hier.likelihood.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = next(algo._record_rows([record], grid))
        lpdf = algo.eval_lpdf_grid([record], grid)
    assert rows.shape == (4, 41) and not np.isnan(rows).any() and not np.isnan(lpdf).any()
    assert np.all(rows[1] == -np.inf)
    state_cls = type(hier.likelihood.state)
    for h in (0, 2, 3):
        state = state_cls.from_params(record.cluster_states[h].params)
        assert np.array_equal(rows[h], log_w[h] + hier.likelihood.score_batch(state, grid)[:, 0])
    assert np.array_equal(lpdf[0], logsumexp(rows))


def test_eval_lpdf_grid_nonconjugate_plugin_path():
    rng = np.random.default_rng(24)
    data = np.concatenate([rng.normal(size=20) - 5, rng.normal(size=20) + 5]).reshape(-1, 1)
    hier = build_hierarchy("LapNIG", dict(LAP_ARGS, step_size=0.4, num_steps=2))
    algo = build_algorithm("Neal8", hier, DirichletMixing(0.1), n_aux=2)
    collector = _run(algo, data, 200, 80, seed=25)
    grid = np.linspace(-30, 30, 1501)
    lpdf_a = algo.eval_lpdf_grid(collector, grid.reshape(-1, 1), rng=np.random.default_rng(1))
    lpdf_b = algo.eval_lpdf_grid(collector, grid.reshape(-1, 1), rng=np.random.default_rng(1))
    assert np.array_equal(lpdf_a, lpdf_b)  # plug-in draws follow the given rng
    assert np.all(np.isfinite(lpdf_a))
    mass = np.trapezoid(np.exp(lpdf_a).mean(axis=0), grid)
    # the new-cluster plug-in term is noisy but small (alpha / (n + alpha))
    assert mass == pytest.approx(1.0, abs=0.05)


def test_eval_lpdf_grid_empty_chain_and_dimension_errors():
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0))
    collector = _run(algo, [[0.0], [1.0]], 20, 10, seed=21)
    with pytest.raises(ValueError):
        algo.eval_lpdf_grid(MemoryCollector(), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        algo.eval_lpdf_grid(collector, np.zeros((5, 2)))


def test_neal2_and_neal3_agree_on_galaxy_density():
    # the two kernels share a stationary distribution, so their posterior
    # mean predictive densities must agree up to Monte Carlo error
    from pathlib import Path

    from mixmcmc.chainio import read_csv_matrix
    from mixmcmc.postprocess import ess

    galaxy = read_csv_matrix(Path(__file__).parent / "data" / "galaxy.csv")
    args = {
        "fixed_values": {
            "mean": float(galaxy.mean()), "var_scaling": 0.01, "shape": 2.0, "scale": 4.0
        }
    }
    grid = np.linspace(8.0, 36.0, 64).reshape(-1, 1)
    curves, ses = [], []
    for algo_id, seed in (("Neal2", 51), ("Neal3", 52)):
        algo = build_algorithm(
            algo_id, build_hierarchy("NNIG", args), PitYorMixing(0.5, 0.1)
        )
        collector = _run(algo, galaxy, 1600, 400, seed=seed)
        dens = np.exp(algo.eval_lpdf_grid(collector, grid))
        curves.append(dens.mean(axis=0))
        se = np.array(
            [dens[:, j].std() / math.sqrt(ess(dens[:, j])) for j in range(dens.shape[1])]
        )
        ses.append(se)
    diff = np.abs(curves[0] - curves[1])
    bound = 2.0 * np.sqrt(ses[0] ** 2 + ses[1] ** 2)
    # pointwise 2-SE bands overlap on nearly all of the grid; a few of 64
    # points may fall outside at the 2-sigma level by chance
    assert np.mean(diff <= bound) >= 0.9
    assert np.all(diff <= 2.0 * bound)


def test_allocation_sampling_survives_huge_masses():
    # masses up to e^700 must not overflow the normalization
    from mixmcmc._util import sample_log_categorical

    rng = np.random.default_rng(23)
    logs = [700.0, 699.5, -650.0]
    counts = np.zeros(3)
    for _ in range(2000):
        counts[sample_log_categorical(logs, rng.random())] += 1
    expected = np.exp(logs - np.max(logs))
    expected /= expected.sum()
    assert counts[2] == 0
    assert abs(counts[0] / 2000 - expected[0]) < 0.05
    with pytest.raises(ValueError):
        sample_log_categorical([-np.inf, -np.inf], rng.random())


def test_allocation_guard_keeps_the_log_space_chain(monkeypatch):
    # a tiny prior scale makes every Laplace kernel sharp: a cluster born at
    # one of two tight groups far apart outscores the references of that
    # group's later rows by more than exp can hold, so those data are drawn
    # from their log weights, the rest from the table; the chain is the one
    # drawn in log space throughout (pinned from a sweep that drew every
    # datum by sample_log_categorical)
    calls = []
    real_draw = algorithms.sample_log_categorical

    def counted_draw(logs, u):
        calls.append(len(logs))
        return real_draw(logs, u)

    monkeypatch.setattr(algorithms, "sample_log_categorical", counted_draw)
    rng = np.random.default_rng(5)
    data = np.concatenate([-50.0 + 0.01 * rng.normal(size=10), 50.0 + 0.01 * rng.normal(size=10)])
    hier = build_hierarchy("LapNIG", {
        "fixed_values": {"mean": 0.0, "var": 1e4, "shape": 2.0, "scale": 1e-3}})
    algo = build_algorithm("Neal8", hier, DirichletMixing(1.0), n_aux=2)
    collector = _run(algo, data.reshape(-1, 1), 10, 0, seed=6)
    assert 0 < len(calls) < 10 * len(data)
    digest = hashlib.sha256()
    for record in collector:
        digest.update(encode_state(record).encode("utf-8"))
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "723f725c88ecd5491e72defd09faddb78e1bd835791312849ab91c6d5a49201e")


def test_neal8_promoted_auxiliary_state_is_fresh():
    # a born state is built from the sweep's auxiliary arrays (or takes back
    # the state its datum's cluster just left) and must share no memory with
    # the auxiliary batch, nor be the offered object itself
    for hier_type, data in [("NNIG", [[-4.0], [4.0], [0.0]]), ("NNW", _data("NNW")[:6])]:
        algo = Neal8Algorithm(build_hierarchy(hier_type, HIER_ARGS[hier_type]),
                              DirichletMixing(5.0), n_aux=2)
        births = []
        real_open = algo._open_cluster

        def open_cluster(i, rng, state=None, algo=algo, births=births, real_open=real_open):
            real_open(i, rng, state=state)
            births.append((algo.clusters[-1].state, state, algo._aux))

        algo._open_cluster = open_cluster
        _run(algo, data, 100, 50, seed=22)
        assert len(births) > 10
        for born, offered, aux in births:
            assert born is not offered
            batch_arrays = [v for v in vars(aux).values() if isinstance(v, np.ndarray)]
            for slot in type(born).__slots__:
                value = getattr(born, slot)
                if isinstance(value, np.ndarray):
                    assert not any(np.shares_memory(value, arr) for arr in batch_arrays)


STORE_CELLS = [
    (algo_id, hier_type)
    for algo_id in ("Neal2", "Neal3", "Neal8", "BlockedGibbs")
    for hier_type in HIERARCHY_TYPES
    if algo_id in ("Neal8", "BlockedGibbs") or hier_type in ("NNIG", "NNW", "GammaGamma")
]


def _index_order_stats(algo, terms, labels, h):
    """Cluster h's statistics, its data's ``terms`` counted in one at a time in index order."""
    recount = algo.template.likelihood.clone_empty()
    for datum_terms, label in zip(terms, labels):
        if label == h:
            recount.stats = moved_stats(recount.stats, datum_terms, True)
            recount.card += 1
    return recount


@pytest.mark.parametrize("algo_id,hier_type", STORE_CELLS)
def test_cluster_store_matches_a_recount(algo_id, hier_type):
    # the sweep moves labels only: after every sweep each cluster's size and
    # statistics must be, bit for bit, those summed over its labels in index order
    mixing = TruncatedSBMixing(8, 1.0) if algo_id == "BlockedGibbs" else DirichletMixing(1.0)
    algo = build_algorithm(algo_id, build_hierarchy(hier_type, HIER_ARGS[hier_type]), mixing)
    step, sweeps = algo.step, []
    data = _data(hier_type)
    terms = datum_stats(algo.template.likelihood, data)

    def checked_step(rng):
        step(rng)
        labels = algo.allocations.tolist()
        if algo_id != "BlockedGibbs":
            assert sorted(set(labels)) == list(range(len(algo.clusters)))
            assert algo._sizes == [cluster.card for cluster in algo.clusters]
        for h, cluster in enumerate(algo.clusters):
            want = _index_order_stats(algo, terms, labels, h)
            assert cluster.card == want.card == labels.count(h)
            assert len(cluster.stats) == len(want.stats)
            for got, expected in zip(cluster.stats, want.stats):
                assert np.array_equal(got, expected)
        sweeps.append(len(algo.clusters))

    algo.step = checked_step
    _run(algo, data, 15, 10, seed=11)
    assert len(sweeps) == 15


@pytest.mark.parametrize("hier_type", ["NNIG", "NNW", "GammaGamma"])
def test_neal3_scorers_follow_the_store_at_every_block(hier_type):
    # Neal3 moves the statistics of the clusters datum start - 1 joined and
    # datum start left: each scorer must be the predictive of its cluster's
    # data recounted from the labels, datum start left out
    algo = build_algorithm("Neal3", build_hierarchy(hier_type, HIER_ARGS[hier_type]),
                           DirichletMixing(1.0))
    start_block, open_cluster, remove_datum = (
        algo._start_block, algo._open_cluster, algo._remove_datum)
    seen = {"blocks": 0, "births": 0, "deaths": 0}
    data = _data(hier_type)
    terms = datum_stats(algo.template.likelihood, data)

    def checked_start_block(start, rng):
        out = start_block(start, rng)
        y = algo._rows[start]
        labels = list(algo._labels)
        labels[start] = -1
        for h, cluster in enumerate(algo.clusters):
            recount = _index_order_stats(algo, terms, labels, h)
            assert algo._sizes[h] == recount.card
            for got, want in zip(cluster.stats, recount.stats):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            assert np.allclose(algo._scorers[h](y), algo.template.predictive(
                recount.card, recount.stats).lpdf(y), rtol=1e-12, atol=1e-12)
        seen["blocks"] += 1
        return out

    def counted(key, f):
        def wrapped(*args, **kwargs):
            seen[key] += 1
            return f(*args, **kwargs)
        return wrapped

    algo._start_block = checked_start_block
    algo._open_cluster = counted("births", open_cluster)
    algo._remove_datum = counted("deaths", remove_datum)
    _run(algo, data, 15, 10, seed=11)
    assert seen["blocks"] == 15 * len(data)
    assert seen["births"] > 0 and seen["deaths"] > 0


@pytest.mark.parametrize("hier_type", ["NNIG", "NNW"])
def test_neal3_moves_leave_the_datum_lists_unchanged(hier_type):
    # each datum's statistic list is shared by every birth, death and Neal3
    # move of the run: a move that wrote it in place would show here
    algo = build_algorithm("Neal3", build_hierarchy(hier_type, HIER_ARGS[hier_type]),
                           DirichletMixing(1.0))
    data = _data(hier_type)
    _run(algo, data, 15, 10, seed=11)
    want = datum_stats(algo.template.likelihood, data)
    assert len(algo._datum_stats) == len(want)
    for got, expected in zip(algo._datum_stats, want):
        assert [np.asarray(stat).tobytes() for stat in got] == [
            np.asarray(stat).tobytes() for stat in expected]


@pytest.mark.parametrize("algo_id", ALGORITHM_IDS)
def test_gamma_kernel_rejects_nonpositive_data_before_the_first_sweep(algo_id):
    mixing = TruncatedSBMixing(8, 1.0) if algo_id == "BlockedGibbs" else DirichletMixing(1.0)
    algo = build_algorithm(algo_id, build_hierarchy("GammaGamma", HIER_ARGS["GammaGamma"]),
                           mixing)
    algo.step = None  # reaching a sweep would raise TypeError, not the error expected
    for bad in (0.0, -1.0):
        data = _data("GammaGamma").copy()
        data[17, 0] = bad
        with pytest.raises(ValueError, match="Gamma likelihood requires positive data"):
            _run(algo, data, 5, 0, seed=3)


def test_statistics_far_from_the_origin_match_exact_sums():
    # centred on the prior mean and recounted every sweep, the statistics of
    # data a million from the origin keep their precision along the chain; a
    # singleton's centred sum of squares is exactly 0
    offset = 1e6
    args = {"fixed_values": {"mean": offset, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}}
    algo = build_algorithm("Neal2", build_hierarchy("NNIG", args), DirichletMixing(1.0))
    rng = np.random.default_rng(5)
    data = offset + np.concatenate([rng.normal(-3.0, 1.0, 100), rng.normal(3.0, 1.0, 100)])
    step, seen = algo.step, {"clusters": 0, "singletons": 0}

    def checked_step(rng):
        step(rng)
        labels = algo.allocations
        for h, cluster in enumerate(algo.clusters):
            n = cluster.card
            centred_sum, centred_sum_squares = cluster.stats
            ss = centred_sum_squares - centred_sum * centred_sum / n
            if n == 1:
                assert ss == 0.0
                seen["singletons"] += 1
            members = data[labels == h]
            mean = math.fsum(members) / n
            exact = math.fsum((y - mean) ** 2 for y in members)
            assert abs(ss - exact) <= 1e-9 * max(exact, 1.0)
            seen["clusters"] += 1

    algo.step = checked_step
    _run(algo, data.reshape(-1, 1), 200, 199, seed=6)
    assert seen["singletons"] > 0 and seen["clusters"] > 400


@pytest.mark.parametrize("value", [math.inf, math.nan, None, "3", 2.5, 0])
def test_count_arguments_name_themselves(value):
    with pytest.raises(ValueError, match="iterations"):
        _run(build_algorithm("Neal2", _nnig(), DirichletMixing(1.0)), [[0.0], [1.0]],
             value, 0, seed=0)
    with pytest.raises(ValueError, match="n_aux"):
        build_algorithm("Neal8", _nnig(), DirichletMixing(1.0), n_aux=value)
    with pytest.raises(ValueError, match="init_num_clusters"):
        build_algorithm("Neal2", _nnig(), DirichletMixing(1.0), init_num_clusters=value)


@pytest.mark.parametrize("burnin", [2.5, math.nan, math.inf, None, "2"])
def test_burnin_must_be_an_integer(burnin):
    algo = build_algorithm("Neal2", _nnig(), DirichletMixing(1.0))
    with pytest.raises(ValueError, match="'burnin' must be an integer"):
        _run(algo, [[0.0], [1.0]], 20, burnin, seed=0)
