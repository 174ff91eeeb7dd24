"""Geweke (2004) joint-distribution tests of the marginal samplers.

The joint law of a DP(1) mixture on a few data points is drawn two ways.
Forward: a CRP(1) partition, the parameters of each cluster from the
prior, then the data. By successive conditionals: a chain that alternates
one sweep of the sampler, which leaves the posterior of the allocations
and the cluster parameters given the data invariant, with a redraw of the
data given them. Both have the joint as their law, so the marginals of the
number of clusters k and of the parameters of datum 0's cluster must agree
within Monte Carlo error. The data change every step, so after each redraw
the sampler takes the new data and recounts the clusters' statistics from
its labels.

The NNIG cells run every marginal sampler; the other cells cover each
family's posterior: NNW at d = 2, GammaGamma, and NNxIG's Gibbs scan. The
normal families other than the first NNIG cells have a prior mean away
from 0, where the statistics' centring matters. The Metropolis cells run
Neal8 on each family a Metropolis updater moves: LapNIG and NNxIG under
MALA, NNIG under the random walk.
"""

import math

import numpy as np
import pytest
from oracles import monte_carlo_se

from mixmcmc import build_algorithm, build_hierarchy
from mixmcmc.mixings import DirichletMixing
from mixmcmc.states import stack_states

N, MASS = 3, 1.0
MEAN0, VAR_SCALING, SHAPE, SCALE = 0.0, 0.5, 3.0, 2.0
HIER_ARGS = {
    "NNIG": {"fixed_values": {"mean": MEAN0, "var_scaling": VAR_SCALING, "shape": SHAPE,
                              "scale": SCALE}},
    "NNW": {"fixed_values": {"mean": {"size": 2, "data": [1.5, -0.5]}, "var_scaling": 0.5,
                             "deg_free": 5.0,
                             "scale": {"rows": 2, "cols": 2, "data": [2.0, 0.3, 0.3, 1.0]}}},
    "GammaGamma": {"fixed_values": {"shape": 2.0, "rate_alpha": 3.0, "rate_beta": 2.0}},
    "NNxIG": {"fixed_values": {"mean": 1.5, "var": 2.0, "shape": 3.0, "scale": 2.0}},
}
HIER_ARGS["LapNIG"] = HIER_ARGS["NNxIG"]
# each family's compared functions of datum 0's cluster parameters, read
# from a batch of states
PARAMETERS = {
    "NNIG": (("mean", lambda s: s.mean), ("log var", lambda s: np.log(s.var))),
    "NNW": (("mean[0]", lambda s: s.mean[..., 0]), ("log det cov", lambda s: s.log_det)),
    "GammaGamma": (("log rate", lambda s: np.log(s.rate)),),
}
PARAMETERS["NNxIG"] = PARAMETERS["LapNIG"] = PARAMETERS["NNIG"]  # LapNIG's var is its scale


def _statistics(hier_type, k, states):
    """Rows: k = 1, ..., N indicators, then the family's parameters of datum 0's cluster."""
    k = np.asarray(k)
    return np.array([k == j for j in range(1, N + 1)]
                    + [np.ravel(f(states)) for _, f in PARAMETERS[hier_type]], dtype=float)


def _forward(hier_type, draws, rng):
    # in a CRP(MASS) datum i opens a new cluster with probability MASS / (i + MASS),
    # whatever the earlier data did; datum 0's cluster parameters come from the
    # prior, and the data (not compared) would follow from them
    k = 1 + sum(rng.random(draws) < MASS / (i + MASS) for i in range(1, N))
    prior = build_hierarchy(hier_type, HIER_ARGS[hier_type]).prior
    return _statistics(hier_type, k, prior.sample_batch(rng, (draws,)))


def _kernel_draws(hier_type, states, rng):
    """One datum from each state's kernel, as data rows."""
    batch = stack_states(states)
    if hier_type == "LapNIG":
        return rng.laplace(batch.mean[0], batch.var[0])[:, None]
    if hasattr(batch, "rate"):
        return (rng.gamma(batch.shape, size=len(states)) / batch.rate[0]).reshape(-1, 1)
    if hasattr(batch, "cov"):
        z = rng.standard_normal((len(states), batch.mean.shape[-1], 1))
        return batch.mean[0] + (batch.chol[0] @ z)[..., 0]
    return (batch.mean[0] + np.sqrt(batch.var[0]) * rng.standard_normal(len(states)))[:, None]


def _successive_conditional(algo_id, hier_type, iterations, burnin, rng, updater=None):
    """``updater`` adds the Metropolis updater's keys to the hierarchy's args."""
    args = dict(HIER_ARGS[hier_type], **(updater or {}))
    algo = build_algorithm(algo_id, build_hierarchy(hier_type, args), DirichletMixing(MASS))
    # the first data come from the template's starting state
    algo._prepare_data(_kernel_draws(hier_type, [algo.template.state] * N, rng))
    algo._initialize(rng)
    k, kept = [], []
    for t in range(burnin + iterations):
        algo.step(rng)
        states = [algo.clusters[h].state for h in algo.allocations]
        if t >= burnin:
            k.append(len(algo.clusters))
            kept.append(states[0])
        algo._prepare_data(_kernel_draws(hier_type, states, rng))
        algo._recount()
    return _statistics(hier_type, k, stack_states(kept))


def _assert_agree(hier_type, forward, chain):
    names = [f"P(k={j})" for j in range(1, N + 1)] + [name for name, _ in PARAMETERS[hier_type]]
    for name, fwd, run in zip(names, forward, chain):
        se = math.hypot(fwd.std() / math.sqrt(fwd.size), monte_carlo_se(run))
        assert abs(run.mean() - fwd.mean()) < 4.0 * se, (name, run.mean(), fwd.mean(), se)


@pytest.mark.parametrize("algo_id, seed", [("Neal2", 101), ("Neal3", 102), ("Neal8", 103)])
def test_successive_conditional_chain_matches_forward_draws(algo_id, seed):
    rng = np.random.default_rng(seed)
    forward = _forward("NNIG", 200_000, rng)
    _assert_agree("NNIG", forward, _successive_conditional(algo_id, "NNIG", 10_000, 200, rng))


@pytest.mark.parametrize("cell, seed", [("Neal2/NNW", 104), ("Neal8/NNW", 105),
                                        ("Neal2/GammaGamma", 106), ("Neal8/NNxIG", 107)])
def test_each_family_matches_forward_draws(cell, seed):
    algo_id, hier_type = cell.split("/")
    rng = np.random.default_rng(seed)
    forward = _forward(hier_type, 200_000, rng)
    _assert_agree(hier_type, forward,
                  _successive_conditional(algo_id, hier_type, 10_000, 200, rng))


@pytest.mark.parametrize("cell, step_size, seed", [("Neal8/LapNIG/mala", 0.6, 108),
                                                   ("Neal8/NNIG/rwmh", 1.0, 109),
                                                   ("Neal8/NNxIG/mala", 0.6, 110)])
def test_each_metropolis_family_matches_forward_draws(cell, step_size, seed):
    # three steps a sweep at a step near each target's scale: the chain's
    # autocorrelation stays low enough for 10,000 kept sweeps
    algo_id, hier_type, kind = cell.split("/")
    updater = {"updater": kind, "step_size": step_size, "num_steps": 3}
    rng = np.random.default_rng(seed)
    forward = _forward(hier_type, 200_000, rng)
    _assert_agree(hier_type, forward,
                  _successive_conditional(algo_id, hier_type, 10_000, 200, rng, updater))
