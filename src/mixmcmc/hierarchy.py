"""One mixture component: likelihood (with its size) + prior + updater.

A :class:`Hierarchy` is a cloneable prototype. Marginal algorithms hold a
template and clone it whenever a new cluster is born; conditional
algorithms clone it once per component. Conjugate hierarchies additionally
expose the prior predictive and the posterior-predictive scorer that
marginal samplers need.
"""

import numpy as np

from .config import ConfigTree
from .exceptions import CapabilityError, ConfigError
from .likelihoods import (
    ClusterStats,
    GammaLikelihood,
    LaplaceLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
)
from .priors import (
    GammaPrior,
    GammaPriorHypers,
    NIGHypers,
    NIGPrior,
    NWHypers,
    NWPrior,
    NxIGHypers,
    NxIGPrior,
)
from .states import MultiLSState
from .updaters import (
    ConjugateUpdater,
    NNxIGUpdater,
    build_metropolis_updater,
    gamma_gamma_posterior_hypers,
    gamma_gamma_predictive,
    nnig_posterior_hypers,
    nnig_predictive,
    nnw_posterior_hypers,
    nnw_predictive,
)

HIERARCHY_TYPES = ("NNIG", "NNxIG", "LapNIG", "NNW", "GammaGamma")
# the families with an unconstrained parameterization, which a Metropolis
# updater moves
METROPOLIS_TYPES = ("NNIG", "NNxIG", "LapNIG")


class Hierarchy:
    def __init__(self, likelihood, prior, updater, name=None):
        self.likelihood = likelihood
        self.prior = prior
        self.updater = updater
        self.name = name
        self._prior_pred = None

    @property
    def state(self):
        return self.likelihood.state

    @state.setter
    def state(self, value):
        self.likelihood.state = value

    @property
    def card(self):
        return self.likelihood.card

    def is_conjugate(self):
        return self.updater.is_conjugate()

    def clone(self):
        """Empty copy sharing no mutable state: fresh stats, copied state."""
        return Hierarchy(
            self.likelihood.clone_empty(), self.prior, self.updater, self.name
        )

    def add_datum(self, datum_id, datum):
        self.likelihood.add_datum(datum_id, datum)

    def remove_datum(self, datum_id, datum):
        self.likelihood.remove_datum(datum_id, datum)

    def sample_prior(self, rng):
        self.likelihood.state = self.prior.sample(rng)

    def sample_full_cond(self, rng):
        if self.card == 0:
            self.sample_prior(rng)
        else:
            self.updater.draw(self.likelihood, self.prior, rng)

    def _require_predictive(self):
        if not self.is_conjugate():
            raise CapabilityError(
                "predictive densities require a conjugate updater"
            )

    def prior_predictive(self):
        self._require_predictive()
        if self._prior_pred is None:
            self._prior_pred = self.updater.predictive(self.prior.hypers)
        return self._prior_pred

    def conditional_pred_scorer(self, card, stats):
        """Scorer y -> log predictive density given a cluster of this size and statistics."""
        self._require_predictive()
        hypers = self.updater.compute_posterior_hypers(ClusterStats(card, stats), self.prior)
        return self.updater.predictive(hypers).lpdf


def _block_data(sub, key):
    """The ``data`` list of block ``key``; an error names the block."""
    try:
        return sub.get_list("data")
    except ConfigError as err:
        raise ConfigError(f"'{key}': {err}") from None


def _read_vector(tree, key):
    sub = tree.child(key)
    size = sub.get_int("size")
    data = _block_data(sub, key)
    if len(data) != size:
        raise ConfigError(f"'{key}' declares size {size} but has {len(data)} entries")
    return np.asarray(data, dtype=float)


def _read_matrix(tree, key):
    sub = tree.child(key)
    rows = sub.get_int("rows")
    cols = sub.get_int("cols")
    data = _block_data(sub, key)
    if len(data) != rows * cols:
        raise ConfigError(
            f"'{key}' declares {rows}x{cols} but has {len(data)} entries"
        )
    rowmajor = sub.get_bool("rowmajor", True)
    order = "C" if rowmajor else "F"
    return np.asarray(data, dtype=float).reshape((rows, cols), order=order)


def _default_updater(hier_type):
    if hier_type == "NNxIG":
        return NNxIGUpdater()
    return ConjugateUpdater(*{
        "NNIG": (nnig_posterior_hypers, nnig_predictive),
        "NNW": (nnw_posterior_hypers, nnw_predictive),
        "GammaGamma": (gamma_gamma_posterior_hypers, gamma_gamma_predictive),
    }[hier_type])


def build_hierarchy(hier_type, args):
    """Create a hierarchy prototype from its config tree.

    ``args`` carries the ``fixed_values`` block with the hyperparameters,
    plus the optional ``updater`` ('rwmh' or 'mala'), ``step_size`` and
    ``num_steps`` keys selecting a Metropolis updater, which only the
    ``METROPOLIS_TYPES`` families take.
    """
    if hier_type not in HIERARCHY_TYPES:
        raise ConfigError(
            f"unknown hierarchy type '{hier_type}'; expected one of "
            + ", ".join(HIERARCHY_TYPES)
        )
    if isinstance(args, dict):
        args = ConfigTree.from_mapping(args)
    values = args.child("fixed_values")

    if hier_type == "NNIG":
        hypers = NIGHypers(
            values.get_float("mean"),
            values.get_float("var_scaling"),
            values.get_float("shape"),
            values.get_float("scale"),
        )
        prior = NIGPrior(hypers)
        like = UniNormLikelihood()
    elif hier_type in ("NNxIG", "LapNIG"):
        hypers = NxIGHypers(
            values.get_float("mean"),
            values.get_float("var"),
            values.get_float("shape"),
            values.get_float("scale"),
        )
        prior = NxIGPrior(hypers)
        like = UniNormLikelihood() if hier_type == "NNxIG" else LaplaceLikelihood()
    elif hier_type == "NNW":
        mean = _read_vector(values, "mean")
        scale = _read_matrix(values, "scale")
        hypers = NWHypers(
            mean,
            values.get_float("var_scaling"),
            values.get_float("deg_free"),
            scale,
        )
        prior = NWPrior(hypers)
        d = mean.shape[0]
        like = MultiNormLikelihood(MultiLSState(np.zeros(d), np.eye(d)))
    else:  # GammaGamma
        hypers = GammaPriorHypers(
            values.get_float("shape"),
            values.get_float("rate_alpha"),
            values.get_float("rate_beta"),
        )
        prior = GammaPrior(hypers)
        like = GammaLikelihood(hypers.shape)

    updater_name = args.get_str("updater") if args.has("updater") else None
    if updater_name is not None and hier_type not in METROPOLIS_TYPES:
        raise ConfigError(
            f"'{hier_type}' takes no Metropolis updater; 'updater' is accepted by "
            + ", ".join(METROPOLIS_TYPES)
        )
    if updater_name is None and hier_type == "LapNIG":
        updater_name = "rwmh"
    if updater_name is None:
        updater = _default_updater(hier_type)
    else:
        step_size = args.get_float("step_size") if args.has("step_size") else None
        num_steps = args.get_int("num_steps", 1)
        updater = build_metropolis_updater(updater_name, step_size, num_steps)
    return Hierarchy(like, prior, updater, name=hier_type)
