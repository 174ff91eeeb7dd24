"""Small numeric helpers used across modules."""

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def _log_reduce_exp(values, axis, reduce):
    # log(reduce(exp(values))) about the slice's maximum; an all -inf slice gives log(0) = -inf
    arr = np.asarray(values, dtype=float)
    m = arr.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return m.squeeze(axis) + np.log(reduce(np.exp(arr - m), axis=axis))


def logsumexp(values, axis=0):
    """Stable log(sum(exp(values))) along ``axis``."""
    return _log_reduce_exp(values, axis, np.sum)


def log_mean_exp(arr, axis=0):
    """Stable log(mean(exp(arr))) along ``axis``."""
    return _log_reduce_exp(arr, axis, np.mean)


def sample_log_categorical(log_weights, u):
    """Draw an index from unnormalized log weights via max-subtraction, by the uniform u."""
    m = max(log_weights)
    if not math.isfinite(m):
        raise ValueError("all categorical log weights are -inf")
    weights = [math.exp(v - m) for v in log_weights]
    u = u * math.fsum(weights)
    acc = 0.0
    for idx, w in enumerate(weights):
        acc += w
        if u < acc:
            return idx
    return len(weights) - 1
