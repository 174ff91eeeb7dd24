import math

import numpy as np
import pytest

from mixmcmc.likelihoods import (
    GammaLikelihood,
    LaplaceLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
)
from mixmcmc.states import GammaState, MultiLSState, UniLSState, stack_states


def test_uninorm_lpdf_standard_normal_mode():
    like = UniNormLikelihood(UniLSState(0.0, 1.0))
    assert like.lpdf(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_laplace_lpdf_at_center():
    like = LaplaceLikelihood(UniLSState(0.0, 1.0))
    assert like.lpdf(0.0) == pytest.approx(math.log(0.5), abs=1e-12)


def test_gamma_lpdf_exponential_value():
    # shape 1, rate 2 is Exp(2): density 2 e^{-2y}
    like = GammaLikelihood(1.0, GammaState(1.0, 2.0))
    assert like.lpdf(0.5) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
    assert like.lpdf(0.0) == -math.inf
    assert like.lpdf(-1.0) == -math.inf


def test_uninorm_stat_arithmetic():
    like = UniNormLikelihood()
    like.add_datum(1.0)
    like.add_datum(3.0)
    assert like.stats == [4.0, 10.0]
    assert like.card == 2
    like.remove_datum(1.0)
    assert like.stats == [3.0, 9.0]
    assert like.card == 1


def test_empty_and_absent_removes_raise():
    like = UniNormLikelihood()
    with pytest.raises(ValueError, match="empty"):
        like.remove_datum(1.0)
    assert like.card == 0 and like.stats == [0.0, 0.0]
    # the Laplace kernel keeps no member data: it counts them
    lap = LaplaceLikelihood()
    lap.add_datum(1.0)
    lap.add_datum(2.0)
    assert lap.card == 2 and lap.stats == []
    lap.remove_datum(1.0)
    lap.remove_datum(2.0)
    with pytest.raises(ValueError, match="empty"):
        lap.remove_datum(1.0)
    assert lap.card == 0


def _make_likelihoods(rng):
    cov = np.array([[2.0, 0.4], [0.4, 1.0]])
    return [
        (UniNormLikelihood(UniLSState(0.5, 2.0)), lambda: rng.normal(size=1)),
        (LaplaceLikelihood(UniLSState(-1.0, 0.7)), lambda: rng.normal(size=1)),
        (GammaLikelihood(2.0, GammaState(2.0, 1.5)), lambda: rng.gamma(2.0, size=1)),
        (
            MultiNormLikelihood(MultiLSState([0.0, 1.0], cov)),
            lambda: rng.normal(size=2),
        ),
    ]


def test_add_remove_permutation_returns_stats_to_zero():
    rng = np.random.default_rng(11)
    for like, draw in _make_likelihoods(rng):
        data = {i: draw() for i in range(20)}
        order = rng.permutation(20)
        for i in order:
            like.add_datum(data[int(i)])
        for i in rng.permutation(20):
            like.remove_datum(data[int(i)])
        assert like.card == 0
        for stat in like.stats:
            assert np.all(np.abs(stat) < 1e-9)


def test_stat_updates_are_order_independent():
    rng = np.random.default_rng(77)
    data = {i: float(rng.normal()) for i in range(15)}
    stats = []
    for perm_seed in (1, 2):
        like = UniNormLikelihood()
        order = np.random.default_rng(perm_seed).permutation(15)
        for i in order:
            like.add_datum(data[int(i)])
        stats.append((*like.stats, like.card))
    assert stats[0][2] == stats[1][2]
    assert stats[0][0] == pytest.approx(stats[1][0], abs=1e-9)
    assert stats[0][1] == pytest.approx(stats[1][1], abs=1e-9)


def _unconstrained_lpdf(like_cls, members, u):
    """The k clusters' values and gradient at u (2, k); cluster h holds the data members[h].

    Each cluster's numbers go through the kernel's expression on floats.
    """
    likes, rows, labels = [], [], []
    for h, ys in enumerate(members):
        like = like_cls()
        for y in ys:
            like.add_datum(y)
            rows.append(y)
            labels.append(h)
        likes.append(like)
    rows, labels = np.array(rows, dtype=float).reshape(-1, 1), np.array(labels, dtype=int)
    means, log_scales = u.tolist()
    sums = like_cls.unconstrained_stats(likes, rows, labels)
    out = np.array([like_cls.unconstrained_lpdf(*numbers, mean, log_scale, e)
                    for numbers, mean, log_scale, e in zip(sums(means), means, log_scales,
                                                           np.exp(-u[1]).tolist())]).T
    return out[0], out[1:]


def test_cluster_lpdf_from_unconstrained_empty_cluster_is_zero():
    for like_cls in (UniNormLikelihood, LaplaceLikelihood):
        value, grad = _unconstrained_lpdf(like_cls, [[], [0.5]], np.zeros((2, 2)))
        assert value[0] == 0.0 and grad[:, 0].tolist() == [0.0, 0.0]


def test_cluster_lpdf_single_standard_normal_point():
    value, _ = _unconstrained_lpdf(UniNormLikelihood, [[0.0]], np.zeros((2, 1)))
    assert value[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_cluster_lpdf_matches_brute_force_sum():
    rng = np.random.default_rng(12)
    for _ in range(20):
        for like_cls in (UniNormLikelihood, LaplaceLikelihood):
            members = [rng.normal(size=rng.integers(1, 12)).tolist()
                       for _ in range(rng.integers(1, 6))]
            u = rng.normal(size=(2, len(members))) * 0.7
            value, _ = _unconstrained_lpdf(like_cls, members, u)
            for h, ys in enumerate(members):
                like = like_cls(UniLSState.from_unconstrained(u[:, h]))
                assert value[h] == pytest.approx(sum(like.lpdf(y) for y in ys), abs=1e-9)


def test_multinorm_has_no_unconstrained_cluster_lpdf():
    # the families without a Metropolis updater
    for like_cls in (MultiNormLikelihood, GammaLikelihood):
        assert not hasattr(like_cls, "unconstrained_lpdf")
        assert not hasattr(like_cls, "unconstrained_stats")


def test_lpdf_grid_matches_loop_exactly():
    rng = np.random.default_rng(13)
    cov = np.array([[1.5, -0.2], [-0.2, 0.8]])
    cases = [
        (UniNormLikelihood(UniLSState(0.3, 1.7)), rng.normal(size=(40, 1))),
        (LaplaceLikelihood(UniLSState(0.0, 0.5)), rng.normal(size=(40, 1))),
        (GammaLikelihood(3.0, GammaState(3.0, 2.0)), rng.gamma(2.0, size=(40, 1))),
        (MultiNormLikelihood(MultiLSState([0.0, 0.5], cov)), rng.normal(size=(40, 2))),
    ]
    for like, grid in cases:
        vec = like.lpdf_grid(grid)
        loop = np.array([like.lpdf(grid[i]) for i in range(grid.shape[0])])
        assert np.array_equal(vec, loop)


def test_lpdf_grid_single_row_and_symmetry():
    like = UniNormLikelihood(UniLSState(0.0, 1.0))
    grid = np.array([[-1.0], [1.0]])
    vals = like.lpdf_grid(grid)
    assert vals[0] == vals[1]
    assert like.lpdf_grid(np.array([[0.7]]))[0] == like.lpdf(0.7)


def test_lpdf_grid_dimension_mismatch():
    like = MultiNormLikelihood(MultiLSState([0.0, 0.0], np.eye(2)))
    with pytest.raises(ValueError):
        like.lpdf_grid(np.zeros((3, 3)))
    uni = UniNormLikelihood()
    with pytest.raises(ValueError):
        uni.lpdf(np.zeros(2))


def test_densities_integrate_to_one():
    rng = np.random.default_rng(14)
    for _ in range(5):
        mean = float(rng.normal())
        var = float(rng.gamma(2.0) + 0.2)
        uni = UniNormLikelihood(UniLSState(mean, var))
        lap = LaplaceLikelihood(UniLSState(mean, math.sqrt(var)))
        width = 30 * math.sqrt(var)
        grid = np.linspace(mean - width, mean + width, 40001)
        for like in (uni, lap):
            mass = np.trapezoid(np.exp(like.lpdf_grid(grid.reshape(-1, 1))), grid)
            assert 0.999 <= mass <= 1.001
        shape = float(rng.gamma(3.0) + 0.5)
        rate = float(rng.gamma(2.0) + 0.2)
        gam = GammaLikelihood(shape, GammaState(shape, rate))
        ygrid = np.linspace(1e-9, shape / rate + 40 * math.sqrt(shape) / rate, 60001)
        mass = np.trapezoid(np.exp(gam.lpdf_grid(ygrid.reshape(-1, 1))), ygrid)
        assert 0.999 <= mass <= 1.001


def test_gamma_rejects_nonpositive_data():
    like = GammaLikelihood(1.0)
    with pytest.raises(ValueError):
        like.add_datum(-0.5)
    # the rejected datum must not leave a phantom member behind
    assert like.card == 0
    like.add_datum(0.5)
    assert like.card == 1


def test_batch_score_matches_the_scalar_scorer_of_each_built_state():
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

    rng = np.random.default_rng(18)
    n, m = 30, 3
    positive = rng.gamma(2.0, size=(n, 1))
    positive[:2, 0] = [0.0, -1.0]  # outside the Gamma kernel's support
    cases = [
        (UniNormLikelihood(), NIGPrior(NIGHypers(0.0, 0.1, 2.0, 2.0)), rng.normal(size=(n, 1))),
        (LaplaceLikelihood(), NxIGPrior(NxIGHypers(0.0, 4.0, 2.0, 2.0)), rng.normal(size=(n, 1))),
        (GammaLikelihood(2.0), GammaPrior(GammaPriorHypers(2.0, 2.0, 2.0)), positive),
        (MultiNormLikelihood(MultiLSState(np.zeros(3), np.eye(3))),
         NWPrior(NWHypers(np.zeros(3), 0.2, 6.0, np.eye(3))), rng.normal(size=(n, 3))),
    ]
    for like, prior, rows in cases:
        batch = prior.sample_batch(rng, (n, m))
        scores = like.score_batch(batch, rows)
        assert scores.shape == (n, m)
        for i in range(n):
            for j in range(m):
                like.state = batch.state((i, j))
                assert np.allclose(scores[i, j], like.lpdf(rows[i]), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", ["NNIG", "LapNIG", "GammaGamma", "NNW-1", "NNW-2", "NNW-4",
                                    "NNW-10"])
def test_stacked_batch_scores_have_the_bits_of_each_cluster_grid(family):
    # the marginal sweep scores all its clusters in one score_batch call on
    # their stacked states: each column must be that cluster's lpdf_grid, bit for bit
    rng = np.random.default_rng(19)
    for trial in range(5):
        k, n = int(rng.integers(1, 30)), int(rng.integers(1, 300))
        if family.startswith("NNW"):
            d = int(family.split("-")[1])
            states = []
            for _ in range(k):
                a = rng.normal(size=(d, d))
                states.append(MultiLSState(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d)))
            like, rows = MultiNormLikelihood(states[0]), rng.normal(size=(n, d))
        elif family == "GammaGamma":
            states = [GammaState(2.5, r) for r in rng.gamma(2.0, size=k)]
            like, rows = GammaLikelihood(2.5), rng.gamma(2.0, size=(n, 1))
            rows[0, 0] = -1.0  # outside the support
        else:
            states = [UniLSState(m, v) for m, v in zip(rng.normal(size=k), rng.gamma(2.0, size=k))]
            like = UniNormLikelihood() if family == "NNIG" else LaplaceLikelihood()
            rows = rng.normal(size=(n, 1))
        scores = like.score_batch(stack_states(states), rows)
        assert scores.shape == (n, k)
        for h, state in enumerate(states):
            like.state = state
            assert np.array_equal(scores[:, h], like.lpdf_grid(rows))
