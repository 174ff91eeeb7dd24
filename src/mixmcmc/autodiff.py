"""Forward-mode dual numbers for gradients of unconstrained log densities.

Density code written against :mod:`mixmcmc.autodiff`'s generic math functions
works unchanged on plain floats and on :class:`Dual` values, so the same
implementation serves both plain evaluation and gradient computation.
"""

import math

import numpy as np


class Dual:
    """Value together with its gradient with respect to the seed variables."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = float(val)
        self.grad = np.asarray(grad, dtype=float)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.grad + other.grad)
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.grad - other.grad)
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                self.grad * other.val + other.grad * self.val,
            )
        return Dual(self.val * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(
                self.val * inv,
                (self.grad - self.val * inv * other.grad) * inv,
            )
        return Dual(self.val / other, self.grad / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * inv * inv * self.grad)

    def __pow__(self, p):
        return Dual(self.val**p, p * self.val ** (p - 1) * self.grad)

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def __abs__(self):
        s = 1.0 if self.val >= 0 else -1.0
        return Dual(abs(self.val), s * self.grad)

    def __lt__(self, other):
        return self.val < _value(other)

    def __le__(self, other):
        return self.val <= _value(other)

    def __gt__(self, other):
        return self.val > _value(other)

    def __ge__(self, other):
        return self.val >= _value(other)

    def __repr__(self):
        return f"Dual({self.val!r}, grad={self.grad!r})"


def _value(x):
    return x.val if isinstance(x, Dual) else x


def exp(x):
    if isinstance(x, Dual):
        e = math.exp(x.val)
        return Dual(e, e * x.grad)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(math.log(x.val), x.grad / x.val)
    return math.log(x)


def abs_dev_sum(ys, x):
    """Sum of |y - x| over the floats ys; one Dual when x is one.

    The slope of |y - x| in x is -1 where y >= x and +1 below, the sign
    ``Dual.__abs__`` takes at a tie, so the result equals the per-datum sum
    of ``abs(y - x)`` while building a single Dual.
    """
    xv = x.val if isinstance(x, Dual) else x
    total = 0.0
    slope = 0
    for y in ys:
        d = y - xv
        if d >= 0:
            total += d
            slope -= 1
        else:
            total -= d
            slope += 1
    if isinstance(x, Dual):
        return Dual(total, slope * x.grad)
    return total


def gradient(fn, point):
    """Evaluate ``fn`` at ``point`` (1-d array) and return (value, gradient)."""
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    seeds = np.eye(n)
    duals = [Dual(point[i], seeds[i]) for i in range(n)]
    out = fn(duals)
    if isinstance(out, Dual):
        return out.val, out.grad
    return float(out), np.zeros(n)
