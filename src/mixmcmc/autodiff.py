"""Forward-mode dual numbers for gradients of unconstrained log densities.

Density code written against :mod:`mixmcmc.autodiff`'s generic math functions
works unchanged on plain floats, on numpy arrays and on :class:`Dual` values,
so one implementation serves plain evaluation and gradient computation, for
one cluster or for a batch of clusters.

A :class:`Dual` holds a value of shape ``()`` (one cluster) or ``(k,)`` (k
clusters) and its gradient with respect to the p seed variables, of shape
``(p,)`` or ``(p, k)``. The seed axis comes first, so a value broadcasts
against its gradient without indexing. Arithmetic follows numpy: a division
by zero or an overflow gives an infinity or a NaN, which the caller may
silence with ``np.errstate`` and test with ``np.isfinite``.
"""

import numpy as np


class Dual:
    """Value together with its gradient with respect to the seed variables."""

    __slots__ = ("val", "grad")
    # numpy arrays and scalars defer to the reflected operators below,
    # instead of making an object array of duals
    __array_ufunc__ = None

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

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

    def __neg__(self):
        return Dual(-self.val, -self.grad)


def exp(x):
    if isinstance(x, Dual):
        e = np.exp(x.val)
        return Dual(e, e * x.grad)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.val), x.grad / x.val)
    return np.log(x)


def abs_dev_sum(ys, x, groups=None):
    """Sum of |y - x| over the array ys; a Dual when x is one.

    Without ``groups`` x is one value. With it, x holds k values, y_i is
    measured from x[groups[i]], and the result holds the k group sums, in
    O(len(ys)) through ``np.bincount``.
    The slope of |y - x| in x is -1 where y >= x (ties included) and +1
    below.
    """
    xv = x.val if isinstance(x, Dual) else x
    if groups is None:
        d = ys - xv
        total = np.sum
    else:
        d = ys - xv[groups]

        def total(weights):
            return np.bincount(groups, weights, len(xv))

    sign = np.where(d >= 0, -1.0, 1.0)
    dev = total(-sign * d)
    if isinstance(x, Dual):
        return Dual(dev, total(sign) * x.grad)
    return dev


def gradient(fn, point):
    """Evaluate ``fn`` at ``point``, of shape (p,) or (p, k); return (value, gradient).

    The value has shape () or (k,), the gradient that of ``point``.
    """
    point = np.asarray(point, dtype=float)
    p = point.shape[0]
    # seed i has gradient e_i, for every cluster of a batch
    seeds = np.zeros((p,) + point.shape)
    seeds[range(p), range(p)] = 1.0
    out = fn([Dual(point[i], seeds[i]) for i in range(p)])
    if isinstance(out, Dual):
        return out.val, out.grad
    return out, np.zeros(point.shape)
