"""The template of a mixture component: a likelihood prototype, its prior and its updater.

A cluster is a likelihood. Every sampler holds one ``clone_empty()`` of
the template's likelihood per cluster, which keeps the cluster's size,
statistics and state, and it calls the template's prior and updater on
them directly. A :class:`Hierarchy` centres the prototype's statistics on
the prior mean, where the prior has one, which is what the conjugate
posteriors read; the clones keep that reference. A marginal sampler's
birth or death counts its datum in or out through the template's
:meth:`Hierarchy.component` of the cluster. Conjugate hierarchies also
give the posterior predictive of a cluster's size and statistics that the
marginal samplers need, :meth:`Hierarchy.predictive`, each family's one
density formula (see :mod:`~mixmcmc.updaters`); the prior predictive is that
of an empty cluster, which a sampler builds once, when it is built.
"""

import numpy as np

from .config import ConfigTree
from .exceptions import CapabilityError, ConfigError
from .likelihoods import (
    GammaLikelihood,
    LaplaceLikelihood,
    MultiNormLikelihood,
    UniNormLikelihood,
    moved_stats,
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
        if hasattr(prior.hypers, "mean"):  # the statistics are sums about the prior mean
            likelihood.ref = prior.hypers.mean

    @property
    def state(self):
        return self.likelihood.state

    @property
    def card(self):
        return self.likelihood.card

    def component(self, likelihood):
        """The mixture component of the cluster ``likelihood``: it and this prior and updater."""
        return Hierarchy(likelihood, self.prior, self.updater, self.name)

    def add_datum(self, terms):
        """Count one datum in; ``terms`` is its own statistic list (``label_stats`` of it alone)."""
        like = self.likelihood
        like.stats = moved_stats(like.stats, terms, True)
        like.card += 1

    def remove_datum(self, terms):
        """Count one datum out; ``terms`` is its own statistic list."""
        like = self.likelihood
        if not like.card:
            raise ValueError("cannot remove a datum from an empty cluster")
        like.stats = moved_stats(like.stats, terms, False)
        like.card -= 1

    def is_conjugate(self):
        return self.updater.is_conjugate()

    def predictive(self, card, stats):
        """The posterior predictive of a cluster of this size and statistics, a density of one
        datum; at card 0 and the prototype's (zero) statistics, the prior predictive."""
        if not self.is_conjugate():
            raise CapabilityError("predictive densities require a conjugate updater")
        return self.updater.predictive(self.updater.posterior_hypers(card, stats,
                                                                     self.prior.hypers))


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
    ``num_steps`` keys of a Metropolis updater, which only the
    ``METROPOLIS_TYPES`` families take (LapNIG runs 'rwmh' without an
    ``updater``); where no Metropolis updater runs, the two keys raise.
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
        for key in ("step_size", "num_steps"):
            if args.has(key):
                raise ConfigError(f"'{key}' is read by a Metropolis updater only; "
                                  f"'{hier_type}' runs {type(updater).__name__}")
    else:
        step_size = args.get_float("step_size") if args.has("step_size") else None
        num_steps = args.get_int("num_steps", 1)
        updater = build_metropolis_updater(updater_name, step_size, num_steps)
    return Hierarchy(like, prior, updater, name=hier_type)
