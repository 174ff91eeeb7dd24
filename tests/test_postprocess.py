import math

import numpy as np
import pytest
from oracles import all_partitions

from mixmcmc import postprocess
from mixmcmc.chainio import ChainState, MemoryCollector
from mixmcmc.postprocess import (
    autocorrelation,
    binder_best_clustering,
    binder_loss,
    ess,
    log_mean_density,
    mean_log_density,
    num_clusters_chain,
    similarity_matrix,
)


def _rec(allocs, it=0):
    return ChainState(it, [], np.asarray(allocs), {})


def test_num_clusters_trivial_cases():
    chain = [_rec([0, 0, 0]), _rec([0, 1, 0]), _rec([0, 1, 2])]
    assert num_clusters_chain(chain).tolist() == [1, 2, 3]


def test_num_clusters_matches_set_cardinality_oracle():
    rng = np.random.default_rng(60)
    chain = [_rec(rng.integers(0, 5, size=8), it=t) for t in range(40)]
    out = num_clusters_chain(chain)
    expected = [len(set(r.allocations.tolist())) for r in chain]
    assert out.tolist() == expected


def test_similarity_single_record_is_binary():
    pi = similarity_matrix([_rec([0, 1, 0])])
    assert np.array_equal(pi, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_similarity_two_records_half():
    pi = similarity_matrix([_rec([0, 0]), _rec([0, 1])])
    assert pi[0, 1] == 0.5
    assert pi[1, 0] == 0.5


def test_similarity_matches_pairwise_count_oracle():
    rng = np.random.default_rng(61)
    chain = [_rec(rng.integers(0, 4, size=7), it=t) for t in range(25)]
    pi = similarity_matrix(chain)
    assert np.array_equal(pi, pi.T)
    assert np.array_equal(np.diag(pi), np.ones(7))
    allocs = np.vstack([r.allocations for r in chain])
    for i in range(7):
        for j in range(7):
            direct = np.mean(allocs[:, i] == allocs[:, j])
            assert pi[i, j] == direct


def test_similarity_blocks_match_the_per_record_loop(monkeypatch):
    # several one-hot blocks, some records using fewer labels than others
    monkeypatch.setattr(postprocess, "_ONE_HOT_BLOCK", 50)
    rng = np.random.default_rng(63)
    allocs = rng.integers(0, 5, size=(37, 9))
    allocs[::4] = 0
    chain = [_rec(row, it=t) for t, row in enumerate(allocs)]
    expected = np.zeros((9, 9))
    for row in allocs:
        expected += row[:, None] == row[None, :]
    assert np.array_equal(similarity_matrix(chain), expected / 37)


def test_binder_replays_the_chain_once(monkeypatch):
    replays = []
    real_iter = MemoryCollector.__iter__

    def counting_iter(self):
        replays.append(1)
        return real_iter(self)

    monkeypatch.setattr(MemoryCollector, "__iter__", counting_iter)
    rng = np.random.default_rng(64)
    chain = MemoryCollector()
    for t in range(30):
        chain.collect(_rec(rng.integers(0, 3, size=6), it=t))
    best = binder_best_clustering(chain)
    assert len(replays) == 1
    records = list(chain)
    pi = similarity_matrix(records)
    losses = [binder_loss(r.allocations, pi) for r in records]
    assert best.tolist() == records[int(np.argmin(losses))].allocations.tolist()


def test_binder_degenerate_chain_returns_that_partition():
    chain = [_rec([0, 1, 1, 0], it=t) for t in range(5)]
    best = binder_best_clustering(chain)
    assert best.tolist() == [0, 1, 1, 0]
    assert binder_loss(best, similarity_matrix(chain)) == 0.0


def test_binder_two_point_hand_enumeration():
    chain = [_rec([0, 0], 0), _rec([0, 0], 1), _rec([0, 1], 2)]
    pi = similarity_matrix(chain)
    assert pi[0, 1] == pytest.approx(2.0 / 3.0)
    assert binder_loss([0, 0], pi) == pytest.approx(1.0 / 3.0)
    assert binder_loss([0, 1], pi) == pytest.approx(2.0 / 3.0)
    assert binder_best_clustering(chain).tolist() == [0, 0]


def test_binder_matches_exhaustive_enumeration():
    # when every partition is visited, the estimate is the global minimizer
    rng = np.random.default_rng(62)
    for n in (3, 4, 5):
        parts = all_partitions(n)
        weights = rng.integers(1, 4, size=len(parts))
        chain = []
        t = 0
        for part, w in zip(parts, weights):
            for _ in range(int(w)):
                chain.append(_rec(part, it=t))
                t += 1
        pi = similarity_matrix(chain)
        best = binder_best_clustering(chain)
        losses = [binder_loss(p, pi) for p in parts]
        assert binder_loss(best, pi) == pytest.approx(min(losses), abs=1e-12)


def test_binder_tie_broken_by_earliest_iteration():
    # two relabelings of the same partition tie; the first visited wins
    chain = [_rec([1, 0], 0), _rec([0, 1], 1)]
    assert binder_best_clustering(chain).tolist() == [1, 0]


def test_binder_empty_chain_raises():
    with pytest.raises(ValueError):
        binder_best_clustering([])


def test_autocorrelation_lag_zero_is_one():
    rng = np.random.default_rng(63)
    for _ in range(10):
        x = rng.normal(size=200)
        rho = autocorrelation(x, 20)
        assert rho[0] == pytest.approx(1.0, abs=1e-12)


def test_autocorrelation_alternating_series():
    t = 1000
    x = np.array([1.0, -1.0] * (t // 2))
    rho = autocorrelation(x, 5)
    assert rho[1] == pytest.approx(-1.0, abs=5.0 / t)


def test_autocorrelation_matches_direct_sum():
    rng = np.random.default_rng(64)
    x = rng.normal(size=300)
    rho = autocorrelation(x, 50)
    xbar = x.mean()
    gamma0 = np.mean((x - xbar) ** 2)
    for lag in range(51):
        direct = np.sum((x[: 300 - lag] - xbar) * (x[lag:] - xbar)) / 300 / gamma0
        assert rho[lag] == pytest.approx(direct, abs=1e-10)


def test_autocorrelation_constant_series_convention():
    rho = autocorrelation(np.full(100, 3.5), 10)
    assert rho[0] == 1.0
    assert np.all(rho[1:] == 0.0)


def _ar1(rho, t, seed):
    rng = np.random.default_rng(seed)
    x = np.empty(t)
    x[0] = rng.normal()
    innov = rng.normal(size=t) * math.sqrt(1 - rho * rho)
    for i in range(1, t):
        x[i] = rho * x[i - 1] + innov[i]
    return x


def test_autocorrelation_ar1_simulation():
    x = _ar1(0.9, 100_000, 65)
    rho = autocorrelation(x, 1)
    assert 0.88 <= rho[1] <= 0.92


def test_ess_iid_near_full_length():
    rng = np.random.default_rng(66)
    x = rng.normal(size=100_000)
    assert 0.9 <= ess(x) / x.size <= 1.1


def test_ess_ar1_analytic():
    x = _ar1(0.9, 100_000, 67)
    target = x.size * (1 - 0.9) / (1 + 0.9)
    assert abs(ess(x) - target) / target < 0.3


def test_ess_constant_series_is_t():
    assert ess(np.full(500, 2.0)) == 500.0


def test_ess_bounds_on_random_inputs():
    rng = np.random.default_rng(68)
    for _ in range(30):
        t = int(rng.integers(2, 500))
        x = rng.normal(size=t) + np.linspace(0, rng.normal(), t)
        value = ess(x)
        assert 0 < value <= t


def test_log_mean_density_single_record_identity():
    row = np.array([[-1.0, -2.0, -0.5]])
    assert np.allclose(log_mean_density(row), row[0], atol=1e-15)


def test_log_mean_density_equal_rows():
    rows = np.array([[-1.0, -2.0], [-1.0, -2.0]])
    assert np.allclose(log_mean_density(rows), [-1.0, -2.0], atol=1e-15)


def test_log_mean_density_matches_direct_oracle():
    rng = np.random.default_rng(69)
    mat = rng.normal(size=(9, 13)) - 2.0
    direct = np.log(np.mean(np.exp(mat), axis=0))
    assert np.allclose(log_mean_density(mat), direct, atol=1e-12)


def test_mean_log_density_is_plain_average():
    rng = np.random.default_rng(70)
    mat = rng.normal(size=(5, 4))
    assert np.allclose(mean_log_density(mat), mat.mean(axis=0), atol=1e-15)
