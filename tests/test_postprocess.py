import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import all_partitions, binder_loss, similarity_matrix

from mixmcmc import postprocess
from mixmcmc.chainio import ChainState, MemoryCollector
from mixmcmc.postprocess import (
    autocorrelation,
    binder_best_clustering,
    ess,
    log_mean_density,
    mean_log_density,
    num_clusters_chain,
)


def _rec(allocs, it=0):
    return ChainState(it, [], np.asarray(allocs), {})


def _pi(chain):
    """The co-clustering frequencies as the estimator computes them, from the blocked counts."""
    allocs = postprocess.allocation_matrix(chain)
    return postprocess._coclustering(allocs) / allocs.shape[0]


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
    pi = _pi([_rec([0, 1, 0])])
    assert np.array_equal(pi, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_similarity_two_records_half():
    pi = _pi([_rec([0, 0]), _rec([0, 1])])
    assert pi[0, 1] == 0.5
    assert pi[1, 0] == 0.5


def test_similarity_matches_pairwise_count_oracle():
    rng = np.random.default_rng(61)
    chain = [_rec(rng.integers(0, 4, size=7), it=t) for t in range(25)]
    pi = _pi(chain)
    assert pi.tobytes() == similarity_matrix(chain).tobytes()
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
    assert np.array_equal(_pi(chain), expected / 37)


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


def _exact_losses(allocs):
    """Each record's expected Binder loss as a Fraction, pair by pair."""
    t, n = allocs.shape
    counts = [[sum(int(row[i] == row[j]) for row in allocs) for j in range(n)] for i in range(n)]
    return [sum((Fraction(t - counts[i][j], t) if row[i] == row[j] else Fraction(counts[i][j], t))
                for i in range(n) for j in range(i + 1, n))
            for row in allocs]


def _tie_chains():
    """Seeded small chains (n <= 6, T <= 12) with repeated partitions and exact
    ties between distinct ones.

    Half are drawn from a pool of a few partitions. The others are closed
    under a permutation of the data: each base partition comes with all its
    images, so the co-clustering counts are invariant and the images tie.
    """
    rng = np.random.default_rng(65)
    chains = []
    for c in range(300):
        n = int(rng.integers(2, 7))
        if c % 2:
            pool = rng.integers(0, 3, size=(int(rng.integers(1, 5)), n))
            rows = pool[rng.integers(0, pool.shape[0], size=int(rng.integers(1, 13)))]
        else:
            perm = rng.permutation(n)
            rows = []
            while len(rows) < 12:
                orbit, part = [], rng.integers(0, 3, size=n)
                while not orbit or not np.array_equal(part, orbit[0]):
                    orbit.append(part)
                    part = part[perm]
                if len(rows) + len(orbit) > 12:
                    break
                rows.extend(orbit)
            if not rows:
                continue
            rows = np.array(rows)[rng.permutation(len(rows))]
        chains.append(np.asarray(rows))
    return chains


def test_binder_choice_is_the_earliest_exact_minimum():
    distinct_ties = 0
    for allocs in _tie_chains():
        losses = _exact_losses(allocs)
        best = losses.index(min(losses))
        # a partition as the first index of each datum's cluster
        winners = {tuple(row.tolist().index(label) for label in row)
                   for row, loss in zip(allocs, losses) if loss == losses[best]}
        distinct_ties += len(winners) > 1
        chain = [_rec(row, it=t) for t, row in enumerate(allocs)]
        assert binder_best_clustering(chain).tolist() == allocs[best].tolist()
        assert postprocess._binder_argmin(allocs, postprocess._coclustering(allocs)) == best
    assert distinct_ties >= 20


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_binder_three_cycle_tie_goes_to_the_first_record(order):
    # the three rotations of [0, 0, 1] tie exactly: each loss is 4/3
    cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])[list(order)]
    assert _exact_losses(cycle) == [Fraction(4, 3)] * 3
    chain = [_rec(row, it=t) for t, row in enumerate(cycle)]
    assert binder_best_clustering(chain).tolist() == cycle[0].tolist()


@pytest.mark.parametrize("block", [1, 7, 50])
def test_binder_choice_does_not_depend_on_the_block_size(monkeypatch, block):
    chains = _tie_chains()[:60]
    rng = np.random.default_rng(66)
    chains.append(rng.integers(0, 6, size=(120, 25)))
    expected = [postprocess._binder_argmin(a, postprocess._coclustering(a)) for a in chains]
    monkeypatch.setattr(postprocess, "_ONE_HOT_BLOCK", block)
    assert [postprocess._binder_argmin(a, postprocess._coclustering(a)) for a in chains] == expected


def test_similarity_matrix_is_the_blocked_float_sum_over_t():
    # bit for bit: the block products summed in float, then divided by T
    rng = np.random.default_rng(67)
    for t, n, k in ((1, 1, 1), (37, 9, 5), (400, 60, 12), (1000, 200, 10)):
        allocs = rng.integers(0, k, size=(t, n))
        block = max(1, postprocess._ONE_HOT_BLOCK // (n * k))
        counts = np.zeros((n, n))
        for start in range(0, t, block):
            rows = allocs[start:start + block]
            one_hot = np.zeros((n, rows.shape[0] * k))
            one_hot[np.arange(n), rows + k * np.arange(rows.shape[0])[:, None]] = 1.0
            counts += one_hot @ one_hot.T
        chain = [_rec(row, it=i) for i, row in enumerate(allocs)]
        assert _pi(chain).tobytes() == (counts / t).tobytes()
        assert np.array_equal(postprocess._coclustering(allocs), counts)


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
