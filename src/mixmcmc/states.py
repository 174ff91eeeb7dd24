"""Parameter containers for mixture components.

Each state knows how to copy itself and serialize to/from a flat
``params`` map (name -> array + shape). :class:`UniLSState` also maps
between its constrained and unconstrained representations (the priors add
the log-Jacobian, ``log var``, to their unconstrained densities); the other
states raise :class:`~mixmcmc.exceptions.CapabilityError` when asked for one. A
:class:`StateBatch` holds many states of one class as arrays.
"""

import math
from itertools import repeat

import numpy as np

from ._validation import check_positive, check_spd_matrix
from .exceptions import CapabilityError


class UniLSState:
    """Univariate location-scale parameters (mean, var), var > 0.

    The unconstrained representation is (mean, log var); the log-Jacobian
    of the map back is log var.
    """

    __slots__ = ("mean", "var")

    def __init__(self, mean, var):
        self.mean = float(mean)
        self.var = check_positive(var, "var")

    def copy(self):
        return UniLSState(self.mean, self.var)

    def to_unconstrained(self):
        return np.array([self.mean, math.log(self.var)])

    @classmethod
    def from_unconstrained(cls, u):
        if len(u) != 2:
            raise ValueError(f"expected 2 coordinates, got {len(u)}")
        return cls(u[0], math.exp(u[1]))

    def to_params(self):
        return {
            "mean": np.array([self.mean]),
            "var": np.array([self.var]),
        }

    @classmethod
    def from_params(cls, params):
        return cls(params["mean"][0], params["var"][0])

    def __eq__(self, other):
        return (
            isinstance(other, UniLSState)
            and self.mean == other.mean
            and self.var == other.var
        )

    def __repr__(self):
        return f"UniLSState(mean={self.mean:.6g}, var={self.var:.6g})"


class MultiLSState:
    """Multivariate location-scale parameters (mean vector, SPD covariance).

    The Cholesky factor, its inverse and the covariance log-determinant are
    computed once at construction and cached; no unconstrained transform is
    provided. A caller that already holds the lower Cholesky factor of an
    exactly symmetric ``cov`` passes it as ``chol``, and ``cov`` is then
    taken without the checks; its inverse and ``log_det`` may come along.
    """

    __slots__ = ("mean", "cov", "chol", "chol_inv", "log_det")

    def __init__(self, mean, cov, chol=None, chol_inv=None, log_det=None):
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        if chol is None:
            cov, chol = check_spd_matrix(cov, "cov")
        if cov.shape[0] != self.mean.shape[0]:
            raise ValueError("mean and cov dimensions disagree")
        self.cov = cov
        self.chol = chol
        self.chol_inv = np.linalg.inv(chol) if chol_inv is None else chol_inv
        self.log_det = float(2.0 * np.sum(np.log(np.diag(chol))) if log_det is None else log_det)

    @property
    def dim(self):
        return self.mean.shape[0]

    def copy(self):
        out = MultiLSState.__new__(MultiLSState)
        out.mean = self.mean.copy()
        out.cov = self.cov.copy()
        out.chol = self.chol.copy()
        out.chol_inv = self.chol_inv.copy()
        out.log_det = self.log_det
        return out

    def to_unconstrained(self):
        raise CapabilityError("MultiLSState has no unconstrained representation")

    def to_params(self):
        return {"mean": self.mean.copy(), "cov": self.cov.copy()}

    @classmethod
    def from_params(cls, params):
        d = params["mean"].shape[0]
        return cls(params["mean"], params["cov"].reshape(d, d))

    def __eq__(self, other):
        return (
            isinstance(other, MultiLSState)
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.cov, other.cov)
        )

    def __repr__(self):
        return f"MultiLSState(dim={self.dim})"


class GammaState:
    """Gamma kernel parameters (shape, rate), both positive.

    The family is conjugate and fixes the shape, so no unconstrained
    transform is provided, and a batch of states shares one shape.
    """

    __slots__ = ("shape", "rate")
    shared = ("shape",)

    def __init__(self, shape, rate):
        self.shape = check_positive(shape, "shape")
        self.rate = check_positive(rate, "rate")

    def copy(self):
        return GammaState(self.shape, self.rate)

    def to_unconstrained(self):
        raise CapabilityError("GammaState has no unconstrained representation")

    def to_params(self):
        return {
            "shape": np.array([self.shape]),
            "rate": np.array([self.rate]),
        }

    @classmethod
    def from_params(cls, params):
        return cls(params["shape"][0], params["rate"][0])

    def __eq__(self, other):
        return (
            isinstance(other, GammaState)
            and self.shape == other.shape
            and self.rate == other.rate
        )

    def __repr__(self):
        return f"GammaState(shape={self.shape:.6g}, rate={self.rate:.6g})"


class StateBatch:
    """Many states of one class, held as arrays.

    Each field is an array whose leading axes are the batch shape, or a
    scalar that every state in the batch shares; a batch of one draw
    (shape ``()``) holds that state's own fields. The fields carry the
    state's attribute names, so a formula that reads ``st.mean`` and
    ``st.var`` works on a state and on a batch alike: a likelihood's
    ``score_batch`` takes one state as a batch of shape (). ``args`` names the
    fields the state's constructor takes, in order (None for a batch that
    is only scored).
    """

    def __init__(self, state_cls, args, **fields):
        self.state_cls = state_cls
        self.args = args
        self.__dict__.update(fields)

    def state(self, index):
        """The state at ``index``, built through its constructor and checks."""
        values = [getattr(self, name) for name in self.args]
        return self.state_cls(*[v[index] if isinstance(v, np.ndarray) else v for v in values])

    def states(self):
        """The states of a batch of shape (k,), in order, each as ``state`` builds it."""
        return list(map(self.state_cls, *[
            (v.tolist() if v.ndim == 1 else list(v)) if isinstance(v, np.ndarray) else repeat(v)
            for v in (getattr(self, name) for name in self.args)]))


def stack_states(states):
    """States of one class as a :class:`StateBatch` of shape (1, k), to be scored.

    Each slot becomes an array of shape (1, k) + the slot's shape; a slot
    the class lists in ``shared`` keeps the first state's value.
    """
    cls = type(states[0])
    shared = getattr(cls, "shared", ())
    fields = {name: getattr(states[0], name) if name in shared
              else np.array([getattr(st, name) for st in states])[None]
              for name in cls.__slots__}
    return StateBatch(cls, None, **fields)
