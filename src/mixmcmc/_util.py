"""Small numeric helpers used across modules."""

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(values):
    """Stable log(sum(exp(values))) for a 1-d array or sequence."""
    arr = np.asarray(values, dtype=float)
    m = np.max(arr)
    if not np.isfinite(m):
        # all -inf (or a stray +inf/nan, which propagates as-is)
        return float(m)
    return float(m + np.log(np.sum(np.exp(arr - m))))


def log_mean_exp(arr, axis=0):
    """Stable log(mean(exp(arr))) along ``axis``."""
    arr = np.asarray(arr, dtype=float)
    m = np.max(arr, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):  # an all -inf slice averages to log(0) = -inf
        return np.squeeze(m, axis=axis) + np.log(np.mean(np.exp(arr - m), axis=axis))


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
