"""Parameter containers for mixture components.

A state class writes its fields (``__slots__``, in constructor order) and
its checks; :class:`_State` gives it ``copy``, equality and the flat
``params`` map (name -> array) of a chain record, over the fields in
``_params`` (all unless the class names fewer). :class:`UniLSState` also
maps to and from its unconstrained representation (the priors add the
log-Jacobian, ``log var``, to their unconstrained densities); the other
states raise :class:`~mixmcmc.exceptions.CapabilityError` when asked for
one. A :class:`StateBatch` holds many states of one class as arrays.
"""

import math
from itertools import repeat

import numpy as np

from ._validation import check_positive, check_spd_matrix
from .exceptions import CapabilityError


class _State:
    """A state's copy, equality and ``params``; ``from_params`` takes scalar fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_params" not in vars(cls):  # a record keeps every field
            cls._params = cls.__slots__

    def copy(self):
        out = object.__new__(type(self))
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(out, name, value.copy() if isinstance(value, np.ndarray) else value)
        return out

    def to_params(self):
        return {name: np.array(getattr(self, name), ndmin=1) for name in self._params}

    @classmethod
    def from_params(cls, params):
        return cls(*[params[name][0] for name in cls._params])

    def to_unconstrained(self):
        raise CapabilityError(f"{type(self).__name__} has no unconstrained representation")

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self._params)


class UniLSState(_State):
    """Univariate location-scale parameters (mean, var), var > 0.

    The unconstrained representation is (mean, log var); the log-Jacobian
    of the map back is log var.
    """

    __slots__ = ("mean", "var")

    def __init__(self, mean, var):
        self.mean = float(mean)
        self.var = check_positive(var, "var")

    def to_unconstrained(self):
        return np.array([self.mean, math.log(self.var)])

    @classmethod
    def from_unconstrained(cls, u):
        if len(u) != 2:
            raise ValueError(f"expected 2 coordinates, got {len(u)}")
        return cls(u[0], math.exp(u[1]))

    def __repr__(self):
        return f"UniLSState(mean={self.mean:.6g}, var={self.var:.6g})"


class MultiLSState(_State):
    """Multivariate location-scale parameters (mean vector, SPD covariance).

    The inverse Cholesky factor and the covariance log-determinant are
    computed once at construction and cached; a record keeps the mean and
    the covariance. A caller that already holds both for an exactly
    symmetric ``cov`` passes them as ``chol_inv`` and ``log_det``, and
    ``cov`` is then taken without the checks.
    """

    __slots__ = ("mean", "cov", "chol_inv", "log_det")
    _params = ("mean", "cov")

    def __init__(self, mean, cov, chol_inv=None, log_det=None):
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        if chol_inv is None:
            cov, chol = check_spd_matrix(cov, "cov")
            chol_inv = np.linalg.inv(chol)
            log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        if cov.shape[0] != self.mean.shape[0]:
            raise ValueError("mean and cov dimensions disagree")
        self.cov = cov
        self.chol_inv = chol_inv
        self.log_det = float(log_det)

    @property
    def dim(self):
        return self.mean.shape[0]

    @classmethod
    def from_params(cls, params):
        d = params["mean"].shape[0]
        return cls(params["mean"], params["cov"].reshape(d, d))

    def __repr__(self):
        return f"MultiLSState(dim={self.dim})"


class GammaState(_State):
    """Gamma kernel parameters (shape, rate), both positive.

    The family is conjugate and fixes the shape, so no unconstrained
    transform is provided, and a batch of states shares one shape.
    """

    __slots__ = ("shape", "rate")
    shared = ("shape",)

    def __init__(self, shape, rate):
        self.shape = check_positive(shape, "shape")
        self.rate = check_positive(rate, "rate")

    def __repr__(self):
        return f"GammaState(shape={self.shape:.6g}, rate={self.rate:.6g})"


class StateBatch:
    """Many states of one class, held as arrays.

    Each field is an array whose leading axes are the batch shape, or a
    scalar that every state in the batch shares; a batch of one draw
    (shape ``()``) holds that state's own fields. The fields carry the
    state's attribute names, so a formula that reads ``st.mean`` and
    ``st.var`` works on a state and on a batch alike: a likelihood's
    ``score_batch`` takes one state as a batch of shape (). The state's
    constructor takes its ``__slots__``, in order.
    """

    def __init__(self, state_cls, **fields):
        self.state_cls = state_cls
        self.__dict__.update(fields)

    def state(self, index):
        """The state at ``index``, built through its constructor and checks."""
        values = [getattr(self, name) for name in self.state_cls.__slots__]
        return self.state_cls(*[v[index] if isinstance(v, np.ndarray) else v for v in values])

    def states(self):
        """The states of a batch of shape (k,), in order, each as ``state`` builds it."""
        return list(map(self.state_cls, *[
            (v.tolist() if v.ndim == 1 else list(v)) if isinstance(v, np.ndarray) else repeat(v)
            for v in (getattr(self, name) for name in self.state_cls.__slots__)]))


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
    return StateBatch(cls, **fields)
