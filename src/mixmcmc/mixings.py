"""Priors on mixture weights and the partition masses they induce.

Marginal mixings (Dirichlet process, Pitman-Yor) give the log masses of
joining an existing cluster or opening a new one; the truncated
stick-breaking mixing carries the log weights of a fixed number of
components. ``update_state`` resamples the part of the state that has a full
conditional (the sticks; the DP concentration under its Gamma hyperprior).
The existing-cluster mass depends on n and the cluster size only: a
marginal sweep computes it once per size.

Each mixing is one entry of ``_MIXINGS``, its config reader and the
estimator's default ``mix_params``, and a ``_Mixing`` subclass that writes
its fields, checks and formulas. The base gives the chain record's state
params (``_params``), a no-op ``update_state`` and a record's log weights.
"""

import copy
import math
from typing import Callable, NamedTuple

import numpy as np

from ._util import logsumexp
from ._validation import check_positive, check_positive_int
from .config import ConfigTree, _check_read
from .exceptions import ConfigError


class _Mixing:
    """What every mixing shares; a marginal one by default."""

    _params = ()  # the state a chain record keeps, in order

    def is_conditional(self):
        return False

    def update_state(self, cluster_sizes, n, rng):
        pass

    def log_weights(self, sizes):
        """A record's log weights: its clusters' normalised masses, then a new cluster's."""
        n = sum(sizes)
        log_masses = np.array([self.mass_existing_cluster(n, size) for size in sizes]
                              + [self.mass_new_cluster(n, len(sizes))])
        return log_masses - logsumexp(log_masses)

    def state_params(self):
        return {name: copy.copy(getattr(self, name)) for name in self._params}

    def set_state_params(self, params):
        self._check_params(params)
        for name in self._params:
            value = params[name]
            setattr(self, name, np.array(value, dtype=float).reshape(-1)
                    if isinstance(getattr(self, name), np.ndarray) else float(value))

    def _check_params(self, params):
        """Raise if a record's params do not fit this mixing."""


class DirichletMixing(_Mixing):
    """Dirichlet-process weights: mass n_h for cluster h, totalmass for a new one.

    With ``gamma_prior=(shape, rate)`` the concentration gets a Gamma
    hyperprior and is resampled by ``update_state`` via the usual
    Beta-augmentation two-component Gamma mixture.
    """

    _params = ("totalmass",)

    def __init__(self, totalmass=1.0, gamma_prior=None):
        self.totalmass = check_positive(totalmass, "totalmass")
        if gamma_prior is not None:
            a, b = gamma_prior
            gamma_prior = (check_positive(a, "shape"), check_positive(b, "rate"))
        self.gamma_prior = gamma_prior

    def mass_existing_cluster(self, n, n_h):
        return math.log(n_h)

    def mass_new_cluster(self, n, k):
        return math.log(self.totalmass)

    def update_state(self, cluster_sizes, n, rng):
        if self.gamma_prior is None:
            return
        a, b = self.gamma_prior
        k = sum(1 for c in cluster_sizes if c > 0)
        eta = rng.beta(self.totalmass + 1.0, n)
        rate_post = b - math.log(eta)
        odds = (a + k - 1.0) / (n * rate_post)
        shape_post = a + k if rng.random() < odds / (1.0 + odds) else a + k - 1.0
        self.totalmass = rng.gamma(shape_post) / rate_post


class PitYorMixing(_Mixing):
    """Pitman-Yor weights: mass n_h - discount, or strength + discount * k."""

    _params = ("strength", "discount")

    def __init__(self, strength, discount):
        self.discount = float(discount)
        self.strength = float(strength)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not self.strength > -self.discount:
            raise ValueError("strength must exceed -discount")

    def mass_existing_cluster(self, n, n_h):
        return math.log(n_h - self.discount)

    def mass_new_cluster(self, n, k):
        if not k:
            # the new cluster is the only category, so any finite mass will
            # do; a negative strength has no log
            return 0.0
        return math.log(self.strength + self.discount * k)


class TruncatedSBMixing(_Mixing):
    """Truncated stick-breaking prior on the weights of m components.

    Stick fractions start at the deterministic values giving uniform
    weights; ``update_state`` draws them from their Beta full conditionals
    given the component allocation counts.
    """

    _params = ("sticks", "totalmass")

    def __init__(self, num_components, totalmass=1.0):
        self.num_components = check_positive_int(num_components, "num_components")
        self.totalmass = check_positive(totalmass, "totalmass")
        self.sticks = 1.0 / np.arange(self.num_components, 1, -1.0)

    def is_conditional(self):
        return True

    def get_weights(self):
        """Log weights of the m components (-inf where a weight underflows)."""
        # the last component takes the whole of what the sticks leave
        remain = np.concatenate(([1.0], np.cumprod(1.0 - self.sticks)))
        with np.errstate(divide="ignore"):
            return np.log(np.append(self.sticks, 1.0) * remain)

    def log_weights(self, sizes):
        return self.get_weights()

    def update_state(self, cluster_sizes, n, rng):
        counts = np.asarray(cluster_sizes, dtype=float)
        if counts.shape[0] != self.num_components:
            raise ValueError(
                f"expected {self.num_components} component counts, got {counts.shape[0]}"
            )
        tail = np.concatenate((np.cumsum(counts[::-1])[::-1][1:], [0.0]))
        for h in range(self.num_components - 1):
            self.sticks[h] = rng.beta(1.0 + counts[h], self.totalmass + tail[h])

    def _check_params(self, params):
        if np.size(params["sticks"]) != self.num_components - 1:
            raise ValueError("stick vector length does not match num_components")


def _read_dp(args):
    """``fixed_value { totalmass: x }`` and/or a ``gamma_prior { shape: a  rate: b }``
    hyperprior block, whose mean starts the concentration unless ``fixed_value`` is given."""
    gamma_prior = totalmass = None
    if "gamma_prior" in args:
        sub = args.child("gamma_prior")
        gamma_prior = (sub.get_float("shape"), sub.get_float("rate"))
        totalmass = gamma_prior[0] / gamma_prior[1]
    if "fixed_value" in args:
        totalmass = args.child("fixed_value").get_float("totalmass")
    if totalmass is None:
        raise ConfigError("DP mixing needs 'fixed_value' or 'gamma_prior'")
    return DirichletMixing(totalmass, gamma_prior)


def _read_py(args):
    sub = args.child("fixed_values")
    return PitYorMixing(sub.get_float("strength"), sub.get_float("discount"))


class _MixingEntry(NamedTuple):
    """A mixing, declared once."""

    read: Callable  # the config tree -> the mixing
    defaults: dict  # the ``mix_params`` the estimator uses when given none


_MIXINGS = {
    "DP": _MixingEntry(_read_dp, {"fixed_value": {"totalmass": 1.0}}),
    "PY": _MixingEntry(_read_py, {"fixed_values": {"strength": 1.0, "discount": 0.1}}),
    "TruncSB": _MixingEntry(  # the defaults are the reader's
        lambda args: TruncatedSBMixing(args.get_int("num_components", 25),
                                       args.get_float("totalmass", 1.0)), {}),
}
MIXING_TYPES = tuple(_MIXINGS)


def _mixing(mix_type):
    if mix_type not in _MIXINGS:
        raise ConfigError(
            f"unknown mixing type '{mix_type}'; expected one of " + ", ".join(_MIXINGS))
    return _MIXINGS[mix_type]


def build_mixing(mix_type, args=None):
    """Create a mixing from its config tree, as its entry of ``_MIXINGS`` reads it (see the
    README's mixing files). A key the mixing does not read is an error."""
    read = _mixing(mix_type).read
    args = ConfigTree.from_mapping(args or {})
    mixing = read(args)
    _check_read(args)
    return mixing
