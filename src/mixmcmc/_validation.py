"""Input validation helpers."""

import math

import numpy as np


def check_positive(value, name):
    if not np.isscalar(value) or not 0 < value < math.inf:
        raise ValueError(f"'{name}' must be a positive finite scalar, got {value!r}")
    return float(value)


def check_int(value, name):
    try:
        iv = int(value)
    except (TypeError, ValueError, OverflowError):  # None, a string, inf, nan
        iv = None
    if iv is None or iv != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    return iv


def check_positive_int(value, name):
    iv = check_int(value, name)
    if iv < 1:
        raise ValueError(f"'{name}' must be a positive integer, got {value!r}")
    return iv


def check_data_matrix(X, name="X"):
    """Validate and coerce data to a finite 2-d float array (n >= 1, d >= 1).

    1-d input is treated as a column of univariate observations.
    """
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"'{name}' must be 1-d or 2-d, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"'{name}' must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"'{name}' contains non-finite entries")
    return arr


def check_spd_matrix(mat, name="matrix", sym_tol=1e-10):
    """Validate symmetry (within ``sym_tol``) and positive definiteness.

    Returns the symmetrized matrix together with its lower Cholesky factor.
    """
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"'{name}' must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"'{name}' contains non-finite entries")
    asym = np.max(np.abs(arr - arr.T)) if arr.size else 0.0
    if asym > sym_tol:
        raise ValueError(f"'{name}' is not symmetric (max asymmetry {asym:.3e})")
    sym = 0.5 * (arr + arr.T)
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"'{name}' is not positive definite") from err
    return sym, chol
