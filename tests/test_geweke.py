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

The NNIG cells run every marginal sampler, under DP(1) and, for Neal2 and
Neal3, under a Pitman-Yor mixing, whose partitions come from the
two-parameter Chinese restaurant; the other cells cover each family's
posterior: NNW at d = 2, GammaGamma, and NNxIG's Gibbs scan. The
normal families other than the first NNIG cells have a prior mean away
from 0, where the statistics' centring matters. The Metropolis cells run
Neal8 on each family a Metropolis updater moves: LapNIG and NNxIG under
MALA, NNIG under the random walk.

The hyperprior cell runs Neal2 on NNIG under a DP whose total mass has
the Gamma hyperprior ``GAMMA_PRIOR`` (shape, rate), resampled after each
sweep (Escobar and West 1995). Forward: the mass from its Gamma prior,
then a CRP of that mass. The mass joins the compared statistics.

The blocked Gibbs cells (Ishwaran and James 2001) run NNIG, LapNIG under
the random walk, NNW and NNxIG under a truncated stick-breaking mixing of
``COMPONENTS`` components. Forward: the stick fractions from their
Beta(1, MASS) prior, then N iid labels from the weights they make. Its k
is the number of occupied components, and datum 0's component parameters
come from the prior, as an empty component's do. The empty components are
drawn from the prior too: by the Metropolis updater's prior draw, which
then renumbers the occupied ones' labels, by NNW's stacked draw at card 0,
and by NNxIG's elementwise Gibbs scan at card 0, which no marginal sampler
runs beside occupied clusters.
"""

import math

import numpy as np
import pytest
from oracles import monte_carlo_se

from mixmcmc import build_algorithm, build_hierarchy
from mixmcmc.mixings import DirichletMixing, PitYorMixing, TruncatedSBMixing
from mixmcmc.states import stack_states

N, MASS = 3, 1.0
# the Pitman-Yor cells' (strength, discount)
PY = (1.0, 0.5)
# the blocked Gibbs cell's number of components
COMPONENTS = 10
# the hyperprior cell's Gamma (shape, rate) on the DP's total mass
GAMMA_PRIOR = (2.0, 2.0)
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
    return np.array([k == j for j in range(1, N + 1)] + _parameters(hier_type, states),
                    dtype=float)


def _parameters(hier_type, states):
    """The family's compared parameters of a batch of states, a row each."""
    return [np.ravel(f(states)) for _, f in PARAMETERS[hier_type]]


def _forward(hier_type, draws, rng, strength=MASS, discount=0.0):
    # in the two-parameter Chinese restaurant datum i opens a new cluster with
    # probability (strength + discount * k) / (i + strength), k the clusters of
    # the data before it (discount 0: CRP(strength)); datum 0's cluster
    # parameters come from the prior, and the data (not compared) would follow
    # from them
    k = np.ones(draws, dtype=int)
    for i in range(1, N):
        k += rng.random(draws) < (strength + discount * k) / (i + strength)
    return _statistics(hier_type, k, _prior_draws(hier_type, draws, rng))


def _prior_draws(hier_type, draws, rng):
    # datum 0's cluster parameters; the data (not compared) would follow from them
    return build_hierarchy(hier_type, HIER_ARGS[hier_type]).prior.sample_batch(rng, (draws,))


def _forward_blocked(hier_type, draws, rng, m=COMPONENTS):
    # the truncated sticks make the weights, the last component takes what
    # the others leave, and the N labels are iid given the weights
    sticks = np.concatenate((rng.beta(1.0, MASS, size=(draws, m - 1)), np.ones((draws, 1))),
                            axis=1)
    remain = np.cumprod(np.concatenate((np.ones((draws, 1)), 1.0 - sticks[:, :-1]), axis=1),
                        axis=1)
    cum = np.cumsum(sticks * remain, axis=1)
    labels = np.minimum((cum[:, None, :] < rng.random((draws, N, 1))).sum(axis=2), m - 1)
    k = 1 + (np.diff(np.sort(labels, axis=1), axis=1) != 0).sum(axis=1)
    return _statistics(hier_type, k, _prior_draws(hier_type, draws, rng))


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


def _successive_conditional(algo_id, hier_type, iterations, burnin, rng, updater=None,
                            mixing=None, with_mass=False, with_last=False):
    """``updater`` adds the Metropolis updater's keys to the hierarchy's args;
    the mixing is DP(MASS) unless given. ``with_mass`` adds a last row, the
    mixing's total mass after each kept sweep; ``with_last`` adds the rows of
    the last cluster's parameters."""
    args = dict(HIER_ARGS[hier_type], **(updater or {}))
    algo = build_algorithm(algo_id, build_hierarchy(hier_type, args),
                           mixing or DirichletMixing(MASS))
    # the first data come from the template's starting state
    algo._prepare_data(_kernel_draws(hier_type, [algo.template.likelihood.state] * N, rng))
    algo._initialize(rng)
    k, kept, masses, last = [], [], [], []
    for t in range(burnin + iterations):
        algo.step(rng)
        states = [algo.clusters[h].state for h in algo.allocations]
        if t >= burnin:
            # the occupied clusters: the blocked sampler keeps empty components
            k.append(len(set(algo.allocations.tolist())))
            kept.append(states[0])
            if with_mass:
                masses.append(algo.mixing.totalmass)
            last.append(algo.clusters[-1].state)
        algo._prepare_data(_kernel_draws(hier_type, states, rng))
        algo._recount()
    stats = _statistics(hier_type, k, stack_states(kept))
    if with_last:
        stats = np.vstack([stats, *_parameters(hier_type, stack_states(last))])
    return np.vstack([stats, masses]) if with_mass else stats


def _assert_agree(hier_type, forward, chain, extra=()):
    """``extra`` names the rows after the family's parameters."""
    names = ([f"P(k={j})" for j in range(1, N + 1)] + [name for name, _ in PARAMETERS[hier_type]]
             + list(extra))
    for name, fwd, run in zip(names, forward, chain, strict=True):
        se = math.hypot(fwd.std() / math.sqrt(fwd.size), monte_carlo_se(run))
        assert abs(run.mean() - fwd.mean()) < 4.0 * se, (name, run.mean(), fwd.mean(), se)


@pytest.mark.parametrize("algo_id, seed", [("Neal2", 101), ("Neal3", 102), ("Neal8", 103)])
def test_successive_conditional_chain_matches_forward_draws(algo_id, seed):
    rng = np.random.default_rng(seed)
    forward = _forward("NNIG", 200_000, rng)
    _assert_agree("NNIG", forward, _successive_conditional(algo_id, "NNIG", 10_000, 200, rng))


@pytest.mark.parametrize("algo_id, seed", [("Neal2", 111), ("Neal3", 112), ("Neal8", 117)])
def test_pitman_yor_chain_matches_forward_draws(algo_id, seed):
    rng = np.random.default_rng(seed)
    forward = _forward("NNIG", 200_000, rng, *PY)
    _assert_agree("NNIG", forward, _successive_conditional(
        algo_id, "NNIG", 10_000, 200, rng, mixing=PitYorMixing(*PY)))


@pytest.mark.parametrize("cell, seed", [("Neal2/NNW", 104), ("Neal8/NNW", 105),
                                        ("Neal2/GammaGamma", 106), ("Neal8/NNxIG", 107),
                                        ("Neal3/NNW", 113), ("Neal3/GammaGamma", 114),
                                        ("Neal8/GammaGamma", 118)])
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


@pytest.mark.parametrize("cell, seed", [("NNIG", 115), ("LapNIG/rwmh", 119), ("NNW", 120),
                                        ("NNxIG", 121)])
def test_blocked_gibbs_matches_forward_draws(cell, seed):
    # LapNIG's random walk draws the empty components from the prior and renumbers
    # the occupied ones' labels; NNW's stacked draw and NNxIG's Gibbs scan run the
    # empty ones at card 0, beside the occupied ones
    # the last component, mostly empty, has the prior as its law too
    hier_type, *kind = cell.split("/")
    updater = {"updater": kind[0], "step_size": 1.0, "num_steps": 3} if kind else None
    rng = np.random.default_rng(seed)
    forward = _forward_blocked(hier_type, 200_000, rng)
    last = _parameters(hier_type,
                       _prior_draws(hier_type, 200_000, np.random.default_rng([seed, 1])))
    _assert_agree(hier_type, np.vstack([forward, *last]), _successive_conditional(
        "BlockedGibbs", hier_type, 10_000, 200, rng, updater,
        mixing=TruncatedSBMixing(COMPONENTS, MASS), with_last=True),
        extra=[f"last component's {name}" for name, _ in PARAMETERS[hier_type]])


def test_dp_with_a_gamma_hyperprior_matches_forward_draws():
    rng = np.random.default_rng(116)
    shape, rate = GAMMA_PRIOR
    mass = rng.gamma(shape, size=200_000) / rate
    forward = np.vstack([_forward("NNIG", mass.size, rng, mass), mass])
    _assert_agree("NNIG", forward, _successive_conditional(
        "Neal2", "NNIG", 10_000, 200, rng, mixing=DirichletMixing(MASS, GAMMA_PRIOR),
        with_mass=True), extra=("total mass",))
