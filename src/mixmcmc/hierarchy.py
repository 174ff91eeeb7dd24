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

Each family is declared once, as one entry of ``_FAMILIES``: how to read its
hyperparameters, its prior, likelihood and default updater, and the data-driven
defaults of the estimator. It takes a Metropolis updater exactly when its
likelihood and prior have unconstrained densities.
"""

from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from .config import _check_read, _fresh
from .exceptions import CapabilityError, ConfigError
from .likelihoods import (GammaLikelihood, LaplaceLikelihood, MultiNormLikelihood,
                          UniNormLikelihood, moved_stats)
from .priors import (GammaPrior, GammaPriorHypers, NIGHypers, NIGPrior, NWHypers, NWPrior,
                     NxIGHypers, NxIGPrior)
from .states import MultiLSState
from .updaters import (ConjugateUpdater, NNxIGUpdater, build_metropolis_updater,
                       gamma_gamma_posterior_hypers, gamma_gamma_predictive, nnig_posterior_hypers,
                       nnig_predictive, nnw_posterior_hypers, nnw_predictive)


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
    rows, cols = sub.get_int("rows"), sub.get_int("cols")
    data = _block_data(sub, key)
    if len(data) != rows * cols:
        raise ConfigError(f"'{key}' declares {rows}x{cols} but has {len(data)} entries")
    order = "C" if sub.get_bool("rowmajor", True) else "F"
    return np.asarray(data, dtype=float).reshape((rows, cols), order=order)


def _numbers(hypers_cls):
    """The reader of an all-number record: its dataclass fields, in field order."""
    return lambda values: hypers_cls(*map(values.get_float, (f.name for f in fields(hypers_cls))))


def _read_nw(values):
    mean, scale = _read_vector(values, "mean"), _read_matrix(values, "scale")
    return NWHypers(mean, values.get_float("var_scaling"), values.get_float("deg_free"), scale)


def _nxig_defaults(X):
    var = max(float(X.var()), 1e-6)
    return {"mean": float(X.mean()), "var": var * 10.0, "shape": 2.0, "scale": var}


def _nw_defaults(X):
    d, scale = X.shape[1], np.diag(np.maximum(X.var(axis=0), 1e-6))
    return {"mean": {"size": d, "data": X.mean(axis=0).tolist()}, "var_scaling": 0.01,
            "deg_free": float(d + 2),
            "scale": {"rows": d, "cols": d, "data": scale.ravel().tolist(), "rowmajor": True}}


class _Family(NamedTuple):
    """A component family, declared once."""

    read: Callable  # the ``fixed_values`` tree -> the hyperparameter record
    prior: type
    likelihood: type
    updater: object  # a factory of the default updater, or a Metropolis updater's name
    defaults: Callable  # data -> the ``fixed_values`` the estimator uses when given none
    like_args: Callable = lambda hypers: ()  # -> the likelihood prototype's arguments

    @property
    def metropolis(self):
        """Whether a Metropolis updater can move it: both densities have an unconstrained form."""
        return (hasattr(self.likelihood, "unconstrained_lpdf")
                and hasattr(self.prior, "_unconstrained_lpdf"))


# the factories call the conjugate functions through this module's names, which
# the benchmark's tracing replaces
_FAMILIES = {
    "NNIG": _Family(
        _numbers(NIGHypers), NIGPrior, UniNormLikelihood,
        lambda: ConjugateUpdater(nnig_posterior_hypers, nnig_predictive),
        lambda X: {"mean": float(X.mean()), "var_scaling": 0.1, "shape": 2.0,
                   "scale": max(float(X.var()), 1e-6)}),
    "NNxIG": _Family(_numbers(NxIGHypers), NxIGPrior, UniNormLikelihood, NNxIGUpdater,
                     _nxig_defaults),
    "LapNIG": _Family(_numbers(NxIGHypers), NxIGPrior, LaplaceLikelihood, "rwmh",
                      _nxig_defaults),
    "NNW": _Family(
        _read_nw, NWPrior, MultiNormLikelihood,
        lambda: ConjugateUpdater(nnw_posterior_hypers, nnw_predictive), _nw_defaults,
        lambda hypers: (MultiLSState(np.zeros(hypers.dim), np.eye(hypers.dim)),)),
    "GammaGamma": _Family(
        _numbers(GammaPriorHypers), GammaPrior, GammaLikelihood,
        lambda: ConjugateUpdater(gamma_gamma_posterior_hypers, gamma_gamma_predictive),
        # an exponential kernel with a weak prior on the rate
        lambda X: {"shape": 1.0, "rate_alpha": 2.0, "rate_beta": 2.0},
        lambda hypers: (hypers.shape,)),
}
HIERARCHY_TYPES = tuple(_FAMILIES)


def _family(hier_type):
    if hier_type not in _FAMILIES:
        raise ConfigError(
            f"unknown hierarchy type '{hier_type}'; expected one of " + ", ".join(_FAMILIES))
    return _FAMILIES[hier_type]


def build_hierarchy(hier_type, args):
    """Create a hierarchy prototype from its config tree.

    ``args`` carries the ``fixed_values`` block with the hyperparameters,
    plus the optional ``updater`` ('rwmh' or 'mala'), ``step_size`` and
    ``num_steps`` keys of a Metropolis updater, which only a family whose
    likelihood and prior have unconstrained densities takes (LapNIG runs
    'rwmh' without an ``updater``). A key the family does not read raises,
    the two step keys where no Metropolis updater runs among them.
    """
    family = _family(hier_type)
    args = _fresh(args)
    hypers = family.read(args.child("fixed_values"))
    prior = family.prior(hypers)
    like = family.likelihood(*family.like_args(hypers))

    updater = args.get_str("updater") if args.has("updater") else family.updater
    reasons = {}
    if isinstance(updater, str):
        if not family.metropolis:
            raise ConfigError(
                f"'{hier_type}' takes no Metropolis updater; 'updater' is accepted by "
                + ", ".join(name for name, f in _FAMILIES.items() if f.metropolis))
        step_size = args.get_float("step_size") if args.has("step_size") else None
        updater = build_metropolis_updater(updater, step_size, args.get_int("num_steps", 1))
    else:
        updater = updater()
        reasons = {key: f"'{key}' is read by a Metropolis updater only; "
                        f"'{hier_type}' runs {type(updater).__name__}"
                   for key in ("step_size", "num_steps")}
    _check_read(args, reasons)
    return Hierarchy(like, prior, updater, name=hier_type)
