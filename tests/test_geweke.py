"""Geweke (2004) joint-distribution tests of the marginal samplers.

The joint law of a DP(1) mixture of normals with a normal-inverse-gamma
base measure on three data points is drawn two ways. Forward: a CRP(1)
partition, the parameters of each cluster from the prior, then the data.
By successive conditionals: a chain that alternates one sweep of the
sampler, which leaves the posterior of the allocations and the cluster
parameters given the data invariant, with a redraw of the data given
them. Both have the joint as their law, so the marginals of the number of
clusters k and of the parameters of datum 0's cluster must agree within
Monte Carlo error. The data change every step, so after each redraw the
sampler takes the new data and recounts the clusters' statistics from its
labels.
"""

import math

import numpy as np
import pytest
from oracles import monte_carlo_se

from mixmcmc import build_algorithm, build_hierarchy
from mixmcmc.mixings import DirichletMixing

N, MASS = 3, 1.0
MEAN0, VAR_SCALING, SHAPE, SCALE = 0.0, 0.5, 3.0, 2.0
NIG_ARGS = {"fixed_values": {"mean": MEAN0, "var_scaling": VAR_SCALING, "shape": SHAPE,
                             "scale": SCALE}}


def _statistics(k, mean, var):
    """Rows: k = 1, 2, 3 indicators, then datum 0's cluster mean and log variance."""
    k = np.asarray(k)
    return np.array([k == 1, k == 2, k == 3, mean, np.log(var)], dtype=float)


def _forward(draws, rng):
    # in a CRP(MASS) datum i opens a new cluster with probability MASS / (i + MASS),
    # whatever the earlier data did; datum 0's cluster parameters come from the
    # prior, and the data (not compared) would follow from them
    k = 1 + sum(rng.random(draws) < MASS / (i + MASS) for i in range(1, N))
    var = SCALE / rng.gamma(SHAPE, size=draws)
    mean = MEAN0 + np.sqrt(var / VAR_SCALING) * rng.standard_normal(draws)
    return _statistics(k, mean, var)


def _successive_conditional(algo_id, iterations, burnin, rng):
    algo = build_algorithm(algo_id, build_hierarchy("NNIG", NIG_ARGS), DirichletMixing(MASS))
    algo._prepare_data(rng.standard_normal((N, 1)))
    algo._initialize(rng)
    k, mean, var = [], [], []
    for t in range(burnin + iterations):
        algo.step(rng)
        labels = algo.allocations
        means = np.array([cluster.state.mean for cluster in algo.clusters])
        variances = np.array([cluster.state.var for cluster in algo.clusters])
        if t >= burnin:
            k.append(len(algo.clusters))
            mean.append(means[labels[0]])
            var.append(variances[labels[0]])
        data = means[labels] + np.sqrt(variances[labels]) * rng.standard_normal(N)
        algo._prepare_data(data.reshape(-1, 1))
        algo._recount()
    return _statistics(k, mean, var)


@pytest.mark.parametrize("algo_id, seed", [("Neal2", 101), ("Neal3", 102), ("Neal8", 103)])
def test_successive_conditional_chain_matches_forward_draws(algo_id, seed):
    rng = np.random.default_rng(seed)
    forward = _forward(200_000, rng)
    chain = _successive_conditional(algo_id, 10_000, 200, rng)
    names = ("P(k=1)", "P(k=2)", "P(k=3)", "mean", "log var")
    for name, fwd, run in zip(names, forward, chain):
        se = math.hypot(fwd.std() / math.sqrt(fwd.size), monte_carlo_se(run))
        assert abs(run.mean() - fwd.mean()) < 4.0 * se, (name, run.mean(), fwd.mean(), se)
