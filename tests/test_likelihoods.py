import math

import numpy as np
import pytest

from mixmcmc.exceptions import CapabilityError
from mixmcmc.likelihoods import (
    GammaLikelihood,
    LaplaceLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
)
from mixmcmc.states import GammaState, MultiLSState, UniLSState


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
    like.add_datum(0, 1.0)
    like.add_datum(1, 3.0)
    assert like.data_sum == 4.0
    assert like.data_sum_squares == 10.0
    assert like.card == 2
    like.remove_datum(0, 1.0)
    assert like.data_sum == 3.0
    assert like.data_sum_squares == 9.0
    assert like.card == 1


def test_empty_and_absent_removes_raise():
    like = UniNormLikelihood()
    with pytest.raises(ValueError, match="empty"):
        like.remove_datum(0, 1.0)
    assert like.card == 0 and like.stats == [0.0, 0.0]
    # the Laplace kernel keeps its data by id, so it also checks the ids and value
    lap = LaplaceLikelihood()
    lap.add_datum(0, 1.0)
    with pytest.raises(ValueError, match="already in the cluster"):
        lap.add_datum(0, 2.0)
    with pytest.raises(ValueError, match="not in the cluster"):
        lap.remove_datum(5, 1.0)
    with pytest.raises(ValueError, match="different value"):
        lap.remove_datum(0, 2.0)
    assert lap.card == 1 and lap.data == {0: 1.0}
    lap.remove_datum(0, 1.0)
    assert lap.card == 0 and lap.data == {}


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
            like.add_datum(int(i), data[int(i)])
        for i in rng.permutation(20):
            like.remove_datum(int(i), data[int(i)])
        assert like.card == 0
        if isinstance(like, UniNormLikelihood):
            assert abs(like.data_sum) < 1e-9
            assert abs(like.data_sum_squares) < 1e-9
        if isinstance(like, GammaLikelihood):
            assert abs(like.data_sum) < 1e-9
        if isinstance(like, MultiNormLikelihood):
            assert np.all(np.abs(like.data_sum) < 1e-9)
            assert np.all(np.abs(like.data_sum_outer) < 1e-9)


def test_stat_updates_are_order_independent():
    rng = np.random.default_rng(77)
    data = {i: float(rng.normal()) for i in range(15)}
    stats = []
    for perm_seed in (1, 2):
        like = UniNormLikelihood()
        order = np.random.default_rng(perm_seed).permutation(15)
        for i in order:
            like.add_datum(int(i), data[int(i)])
        stats.append((like.data_sum, like.data_sum_squares, like.card))
    assert stats[0][2] == stats[1][2]
    assert stats[0][0] == pytest.approx(stats[1][0], abs=1e-9)
    assert stats[0][1] == pytest.approx(stats[1][1], abs=1e-9)


def test_cluster_lpdf_from_unconstrained_empty_cluster_is_zero():
    like = UniNormLikelihood(UniLSState(0.0, 1.0))
    assert like.cluster_lpdf_from_unconstrained(np.zeros(2)) == 0.0


def test_cluster_lpdf_single_standard_normal_point():
    like = UniNormLikelihood(UniLSState(0.0, 1.0))
    like.add_datum(0, 0.0)
    val = like.cluster_lpdf_from_unconstrained(np.zeros(2))
    assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_cluster_lpdf_matches_brute_force_sum():
    rng = np.random.default_rng(12)
    for _ in range(20):
        for like in (UniNormLikelihood(), LaplaceLikelihood()):
            data = [float(rng.normal()) for _ in range(rng.integers(1, 12))]
            for i, y in enumerate(data):
                like.add_datum(i, y)
            u = rng.normal(size=2) * 0.7
            like.state = UniLSState.from_unconstrained(u)
            direct = sum(like.lpdf(y) for y in data)
            assert like.cluster_lpdf_from_unconstrained(u) == pytest.approx(
                direct, abs=1e-9
            )


def test_multinorm_has_no_unconstrained_cluster_lpdf():
    for like in (MultiNormLikelihood(MultiLSState([0.0], [[1.0]])), GammaLikelihood(2.0)):
        with pytest.raises(CapabilityError):
            like.cluster_lpdf_from_unconstrained(np.zeros(2))


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
        like.add_datum(0, -0.5)
    # the rejected datum must not leave a phantom member behind
    assert like.card == 0
    like.add_datum(0, 0.5)
    assert like.card == 1


def test_laplace_remove_checks_value():
    like = LaplaceLikelihood()
    like.add_datum(0, 1.0)
    with pytest.raises(ValueError):
        like.remove_datum(0, 2.0)


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
