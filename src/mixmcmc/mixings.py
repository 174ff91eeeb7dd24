"""Priors on mixture weights and the partition masses they induce.

Marginal mixings (Dirichlet process, Pitman-Yor) expose the unnormalized
log masses assigned to joining an existing cluster or opening a new one;
the truncated stick-breaking mixing instead carries explicit weights for a
fixed number of components, given as log weights. ``update_state`` resamples whatever part of the
mixing state has a full conditional (stick fractions; the concentration
under its optional Gamma hyperprior) and is a no-op otherwise.

The existing-cluster mass may depend on n and the cluster size only: a
marginal sweep computes it once per size and reuses it across clusters.
"""

import math

import numpy as np

from ._validation import check_positive, check_positive_int
from .config import _check_read, _fresh
from .exceptions import ConfigError

MIXING_TYPES = ("DP", "PY", "TruncSB")


class DirichletMixing:
    """Dirichlet-process weights: mass n_h for cluster h, totalmass for a new one.

    With ``gamma_prior=(shape, rate)`` the concentration gets a Gamma
    hyperprior and is resampled by ``update_state`` via the usual
    Beta-augmentation two-component Gamma mixture.
    """

    def __init__(self, totalmass=1.0, gamma_prior=None):
        self.totalmass = check_positive(totalmass, "totalmass")
        if gamma_prior is not None:
            a, b = gamma_prior
            gamma_prior = (check_positive(a, "shape"), check_positive(b, "rate"))
        self.gamma_prior = gamma_prior

    def is_conditional(self):
        return False

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

    def state_params(self):
        return {"totalmass": self.totalmass}

    def set_state_params(self, params):
        self.totalmass = float(params["totalmass"])


class PitYorMixing:
    """Pitman-Yor weights: mass n_h - discount, or strength + discount * k."""

    def __init__(self, strength, discount):
        self.discount = float(discount)
        self.strength = float(strength)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not self.strength > -self.discount:
            raise ValueError("strength must exceed -discount")

    def is_conditional(self):
        return False

    def mass_existing_cluster(self, n, n_h):
        return math.log(n_h - self.discount)

    def mass_new_cluster(self, n, k):
        if not k:
            # the new cluster is the only category, so any finite mass will
            # do; a negative strength has no log
            return 0.0
        return math.log(self.strength + self.discount * k)

    def update_state(self, cluster_sizes, n, rng):
        pass

    def state_params(self):
        return {"strength": self.strength, "discount": self.discount}

    def set_state_params(self, params):
        self.strength = float(params["strength"])
        self.discount = float(params["discount"])


class TruncatedSBMixing:
    """Truncated stick-breaking prior on the weights of m components.

    Stick fractions start at the deterministic values giving uniform
    weights; ``update_state`` draws them from their Beta full conditionals
    given the component allocation counts.
    """

    def __init__(self, num_components, totalmass=1.0):
        self.num_components = check_positive_int(num_components, "num_components")
        self.totalmass = check_positive(totalmass, "totalmass")
        m = self.num_components
        self.sticks = np.array([1.0 / (m - j) for j in range(m - 1)])

    def is_conditional(self):
        return True

    def get_weights(self):
        """Log weights of the m components (-inf where a weight underflows)."""
        v = self.sticks
        remain = np.concatenate(([1.0], np.cumprod(1.0 - v)))
        weights = np.empty(self.num_components)
        weights[:-1] = v * remain[:-1]
        weights[-1] = remain[-1]
        with np.errstate(divide="ignore"):
            return np.log(weights)

    def update_state(self, cluster_sizes, n, rng):
        counts = np.asarray(cluster_sizes, dtype=float)
        if counts.shape[0] != self.num_components:
            raise ValueError(
                f"expected {self.num_components} component counts, got {counts.shape[0]}"
            )
        tail = np.concatenate((np.cumsum(counts[::-1])[::-1][1:], [0.0]))
        for h in range(self.num_components - 1):
            self.sticks[h] = rng.beta(1.0 + counts[h], self.totalmass + tail[h])

    def state_params(self):
        return {"sticks": self.sticks.copy(), "totalmass": self.totalmass}

    def set_state_params(self, params):
        sticks = np.asarray(params["sticks"], dtype=float).reshape(-1)
        if sticks.shape[0] != self.num_components - 1:
            raise ValueError("stick vector length does not match num_components")
        self.sticks = sticks
        self.totalmass = float(params["totalmass"])


def build_mixing(mix_type, args=None):
    """Create a mixing from its config tree.

    DP reads ``fixed_value { totalmass: x }`` and the optional
    ``gamma_prior { shape: a  rate: b }`` hyperprior block; PY reads
    ``fixed_values { strength: x  discount: y }``; TruncSB reads the
    top-level ``num_components`` (default 25) and ``totalmass`` (default 1).
    A key the mixing does not read is an error.
    """
    if mix_type not in MIXING_TYPES:
        raise ConfigError(
            f"unknown mixing type '{mix_type}'; expected one of " + ", ".join(MIXING_TYPES)
        )
    args = _fresh(args)
    if mix_type == "DP":
        gamma_prior = totalmass = None
        if args.has("gamma_prior"):
            sub = args.child("gamma_prior")
            gamma_prior = (sub.get_float("shape"), sub.get_float("rate"))
            totalmass = gamma_prior[0] / gamma_prior[1]
        if args.has("fixed_value"):
            totalmass = args.child("fixed_value").get_float("totalmass")
        if totalmass is None:
            raise ConfigError("DP mixing needs 'fixed_value' or 'gamma_prior'")
        mixing = DirichletMixing(totalmass, gamma_prior)
    elif mix_type == "PY":
        sub = args.child("fixed_values")
        mixing = PitYorMixing(sub.get_float("strength"), sub.get_float("discount"))
    else:
        mixing = TruncatedSBMixing(args.get_int("num_components", 25),
                                   args.get_float("totalmass", 1.0))
    _check_read(args)
    return mixing
