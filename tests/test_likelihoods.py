import math

import numpy as np
import pytest
from oracles import datum_stats, fill

from mixmcmc.hierarchy import build_hierarchy
from mixmcmc.likelihoods import (
    GammaLikelihood,
    LaplaceLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
    moved_stats,
)
from mixmcmc.states import GammaState, MultiLSState, UniLSState, stack_states


def _lpdf(like, state, datum):
    """log f(datum | state), one state scoring a one-row array."""
    return float(like.score_batch(state, np.reshape(datum, (1, -1)))[0, 0])


def test_uninorm_lpdf_standard_normal_mode():
    like = UniNormLikelihood()
    assert _lpdf(like, UniLSState(0.0, 1.0), 0.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12)


def test_laplace_lpdf_at_center():
    like = LaplaceLikelihood()
    assert _lpdf(like, UniLSState(0.0, 1.0), 0.0) == pytest.approx(math.log(0.5), abs=1e-12)


def test_gamma_lpdf_exponential_value():
    # shape 1, rate 2 is Exp(2): density 2 e^{-2y}
    like, state = GammaLikelihood(1.0), GammaState(1.0, 2.0)
    assert _lpdf(like, state, 0.5) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
    assert _lpdf(like, state, 0.0) == -math.inf
    assert _lpdf(like, state, -1.0) == -math.inf


def test_uninorm_stat_arithmetic():
    like = UniNormLikelihood()
    one, three = datum_stats(like, [1.0, 3.0])
    assert (one, three) == ([1.0, 1.0], [3.0, 9.0])
    stats = moved_stats(moved_stats(like.stats, one, True), three, True)
    assert stats == [4.0, 10.0]
    assert moved_stats(stats, one, False) == [3.0, 9.0]
    assert like.stats == [0.0, 0.0]  # a move makes a new list


_LAP_ARGS = {"fixed_values": {"mean": 0.0, "var": 4.0, "shape": 2.0, "scale": 2.0}}
_NNIG_ARGS = {"fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}}


def test_empty_and_absent_removes_raise():
    h = build_hierarchy("NNIG", _NNIG_ARGS)
    (one,) = datum_stats(h.likelihood, [1.0])
    with pytest.raises(ValueError, match="empty"):
        h.remove_datum(one)
    assert h.card == 0 and h.likelihood.stats == [0.0, 0.0]
    # the Laplace kernel keeps no member data: it counts them
    lap = build_hierarchy("LapNIG", _LAP_ARGS)
    one, two = datum_stats(lap.likelihood, [1.0, 2.0])
    lap.add_datum(one)
    lap.add_datum(two)
    assert lap.card == 2 and lap.likelihood.stats == []
    lap.remove_datum(one)
    lap.remove_datum(two)
    with pytest.raises(ValueError, match="empty"):
        lap.remove_datum(one)
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
        terms = datum_stats(like, [draw() for _ in range(20)])
        stats = like.stats
        for i in rng.permutation(20):
            stats = moved_stats(stats, terms[i], True)
        for i in rng.permutation(20):
            stats = moved_stats(stats, terms[i], False)
        assert len(stats) == len(like.stats)
        for stat in stats:
            assert np.all(np.abs(stat) < 1e-9)


def test_stat_updates_are_order_independent():
    rng = np.random.default_rng(77)
    like = UniNormLikelihood()
    terms = datum_stats(like, rng.normal(size=15))
    stats = []
    for perm_seed in (1, 2):
        moved = like.stats
        for i in np.random.default_rng(perm_seed).permutation(15):
            moved = moved_stats(moved, terms[i], True)
        stats.append(moved)
    assert stats[0] == pytest.approx(stats[1], abs=1e-9)


def _unconstrained_lpdf(like_cls, members, u):
    """The k clusters' values and gradient at u (2, k); cluster h holds the data members[h].

    Each cluster's numbers go through the kernel's expression on floats.
    """
    likes, rows, labels = [], [], []
    for h, ys in enumerate(members):
        likes.append(fill(like_cls(), ys))
        rows.extend(ys)
        labels.extend([h] * len(ys))
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
                state = UniLSState.from_unconstrained(u[:, h])
                assert value[h] == pytest.approx(sum(_lpdf(like_cls(), state, y) for y in ys),
                                                 abs=1e-9)


def test_cluster_stats_without_the_gradient_keep_the_values_bits():
    # the random walk asks for no gradient: the sizes and sums its values
    # read are the same bits, and the Laplace slope sums are left at 0
    rng = np.random.default_rng(13)
    for like_cls in (UniNormLikelihood, LaplaceLikelihood):
        k, n = 5, 60
        labels = rng.integers(0, k, size=n)
        rows = rng.normal(size=(n, 1))
        likes = [fill(like_cls(), rows[labels == h]) for h in range(k)]
        means = rng.normal(size=k).tolist()
        full = list(like_cls.unconstrained_stats(likes, rows, labels)(means))
        bare = list(like_cls.unconstrained_stats(likes, rows, labels, grad=False)(means))
        if like_cls is LaplaceLikelihood:
            assert [numbers[2] for numbers in bare] == [0.0] * k
            full, bare = [numbers[:2] for numbers in full], [numbers[:2] for numbers in bare]
        assert full == bare


def test_multinorm_has_no_unconstrained_cluster_lpdf():
    # the families without a Metropolis updater
    for like_cls in (MultiNormLikelihood, GammaLikelihood):
        assert not hasattr(like_cls, "unconstrained_lpdf")
        assert not hasattr(like_cls, "unconstrained_stats")


def test_lpdf_grid_matches_loop_exactly():
    # per family, 100 states each against 100 data of its own: a state's
    # score of one datum alone has the bits of its row among the 100
    rng = np.random.default_rng(13)
    k, n = 100, 100

    def uni_states():
        return [UniLSState(m, v) for m, v in zip(rng.normal(size=k), rng.gamma(2.0, size=k) + 0.1)]

    def nw_states(d):
        states = []
        for _ in range(k):
            a = rng.normal(size=(d, d))
            states.append(MultiLSState(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d)))
        return states

    cases = [
        (UniNormLikelihood(), uni_states(), lambda: 3.0 * rng.normal(size=(n, 1))),
        (LaplaceLikelihood(), uni_states(), lambda: 3.0 * rng.normal(size=(n, 1))),
        (GammaLikelihood(3.0), [GammaState(3.0, r) for r in rng.gamma(2.0, size=k)],
         lambda: rng.gamma(2.0, size=(n, 1))),
        (MultiNormLikelihood(MultiLSState(np.zeros(2), np.eye(2))), nw_states(2),
         lambda: rng.normal(size=(n, 2))),
    ]
    for like, states, draw_grid in cases:
        for state in states:
            grid = draw_grid()
            loop = np.array([_lpdf(like, state, row) for row in grid])
            assert np.array_equal(like.score_batch(state, grid)[:, 0], loop), type(like).__name__


def test_lpdf_grid_single_row_and_symmetry():
    like, state = UniNormLikelihood(), UniLSState(0.0, 1.0)
    vals = like.score_batch(state, np.array([[-1.0], [1.0]]))
    assert vals.shape == (2, 1)
    assert vals[0, 0] == vals[1, 0]
    assert like.score_batch(state, np.array([[0.7]]))[0, 0] == _lpdf(like, state, 0.7)


def test_lpdf_grid_dimension_mismatch():
    like = MultiNormLikelihood(MultiLSState([0.0, 0.0], np.eye(2)))
    with pytest.raises(ValueError):
        like.check_dim(np.zeros((3, 3)))
    uni = UniNormLikelihood()
    with pytest.raises(ValueError):
        uni.check_dim(np.zeros((1, 2)))


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
            mass = np.trapezoid(np.exp(like.score_batch(like.state, grid.reshape(-1, 1))[:, 0]),
                                grid)
            assert 0.999 <= mass <= 1.001
        shape = float(rng.gamma(3.0) + 0.5)
        rate = float(rng.gamma(2.0) + 0.2)
        gam = GammaLikelihood(shape, GammaState(shape, rate))
        ygrid = np.linspace(1e-9, shape / rate + 40 * math.sqrt(shape) / rate, 60001)
        mass = np.trapezoid(np.exp(gam.score_batch(gam.state, ygrid.reshape(-1, 1))[:, 0]), ygrid)
        assert 0.999 <= mass <= 1.001


def test_gamma_rejects_nonpositive_data():
    # the statistics' terms are where data enter, once per run
    like = GammaLikelihood(1.0)
    for bad in (-0.5, 0.0):
        with pytest.raises(ValueError, match="positive"):
            like.stat_terms(np.array([[0.5], [bad]]))
    assert like.stat_terms(np.array([[0.5]])).tolist() == [[0.5]]


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
                assert np.allclose(scores[i, j], _lpdf(like, batch.state((i, j)), rows[i]),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", ["NNIG", "LapNIG", "GammaGamma", "NNW-1", "NNW-2", "NNW-4",
                                    "NNW-10"])
def test_stacked_batch_scores_have_the_bits_of_each_cluster_grid(family):
    # the marginal sweep scores all its clusters in one score_batch call on
    # their stacked states: each column must be that cluster's own score, bit for bit
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
            assert np.array_equal(scores[:, h], like.score_batch(state, rows)[:, 0])


@pytest.mark.parametrize("family", ["NNIG", "LapNIG", "GammaGamma", "NNW"])
def test_one_state_scores_with_the_bits_of_its_stack_column_and_batch_entry(family):
    # a state is a batch of shape (): its (n, 1) score has the bits of its
    # column of a (1, k) stack and of its row-i entry of an (n, m) batch
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

    rng = np.random.default_rng(20)
    n, m = 40, 3
    like, prior, rows = {
        "NNIG": lambda: (UniNormLikelihood(), NIGPrior(NIGHypers(0.0, 0.1, 2.0, 2.0)),
                         3.0 * rng.normal(size=(n, 1))),
        "LapNIG": lambda: (LaplaceLikelihood(), NxIGPrior(NxIGHypers(0.0, 4.0, 2.0, 2.0)),
                           3.0 * rng.normal(size=(n, 1))),
        "GammaGamma": lambda: (GammaLikelihood(2.0), GammaPrior(GammaPriorHypers(2.0, 2.0, 2.0)),
                               np.vstack([[0.0], [-1.0], rng.gamma(2.0, size=(n - 2, 1))])),
        "NNW": lambda: (MultiNormLikelihood(MultiLSState(np.zeros(3), np.eye(3))),
                        NWPrior(NWHypers(np.zeros(3), 0.2, 6.0, np.eye(3))),
                        rng.normal(size=(n, 3))),
    }[family]()
    batch = prior.sample_batch(rng, (n, m))
    by_row = like.score_batch(batch, rows)
    states = [batch.state((i, j)) for i in range(n) for j in range(m)]
    stacked = like.score_batch(stack_states(states), rows)
    for h, state in enumerate(states):
        alone = like.score_batch(state, rows)
        assert alone.shape == (n, 1)
        assert np.array_equal(alone[:, 0], stacked[:, h])
        i, j = divmod(h, m)
        assert alone[i, 0] == by_row[i, j]
