"""Independent numeric oracles used across the test suite.

Everything here goes through generic quadrature or brute force with scipy
densities, never through the code paths under test.
"""

import numpy as np
from scipy import stats


def _nig_log_joint_grid(data, mean0, var_scaling, shape, scale, mu, logvar):
    """Log posterior kernel on a (mu, logvar) meshgrid, including the
    d(var)/d(logvar) Jacobian so the grid integrates over logvar."""
    var = np.exp(logvar)
    sd = np.sqrt(var)
    out = stats.norm.logpdf(mu, mean0, sd / np.sqrt(var_scaling))
    out = out + stats.invgamma.logpdf(var, shape, scale=scale) + logvar
    for y in np.asarray(data, dtype=float).reshape(-1):
        out = out + stats.norm.logpdf(y, mu, sd)
    return out


def _nig_grid(data, mean0, shape, scale, n_mu=901, n_lv=601):
    data = np.asarray(data, dtype=float).reshape(-1)
    anchor = np.concatenate([data, [mean0]])
    prior_sd = np.sqrt(scale / shape) * 6.0
    lo = anchor.min() - 12.0 * (anchor.std() + prior_sd + 1.0)
    hi = anchor.max() + 12.0 * (anchor.std() + prior_sd + 1.0)
    mu = np.linspace(lo, hi, n_mu)
    logvar = np.linspace(-12.0, 9.0, n_lv)
    return np.meshgrid(mu, logvar, indexing="ij"), mu, logvar


def nnig_quadrature(data, mean0, var_scaling, shape, scale):
    """Log marginal likelihood and posterior moments of (mu, var) by
    2-d trapezoid quadrature over (mu, log var)."""
    (mu_mesh, lv_mesh), mu, logvar = _nig_grid(data, mean0, shape, scale)
    logk = _nig_log_joint_grid(data, mean0, var_scaling, shape, scale, mu_mesh, lv_mesh)
    peak = logk.max()
    kernel = np.exp(logk - peak)

    def integrate(values):
        return np.trapezoid(np.trapezoid(values, logvar, axis=1), mu)

    norm = integrate(kernel)
    e_mu = integrate(kernel * mu_mesh) / norm
    e_var = integrate(kernel * np.exp(lv_mesh)) / norm
    log_marginal = peak + np.log(norm)
    return {"log_marginal": float(log_marginal), "e_mean": float(e_mu), "e_var": float(e_var)}


def gamma_rate_quadrature(data, kernel_shape, rate_alpha, rate_beta):
    """Posterior mean of the Gamma kernel rate by 1-d quadrature."""
    data = np.asarray(data, dtype=float).reshape(-1)
    rates = np.linspace(1e-8, 60.0, 400_001)
    logk = stats.gamma.logpdf(rates, rate_alpha, scale=1.0 / rate_beta)
    for y in data:
        logk = logk + stats.gamma.logpdf(y, kernel_shape, scale=1.0 / rates)
    kernel = np.exp(logk - logk.max())
    norm = np.trapezoid(kernel, rates)
    return float(np.trapezoid(kernel * rates, rates) / norm)


def nxig_quadrature(data, mean0, var0, shape, scale, kernel="normal"):
    """Log marginal likelihood and posterior moments under the independent
    normal x inverse-gamma prior, by 2-d trapezoid quadrature over (mu, log var).

    ``kernel="laplace"`` scores the data under the Laplace kernel whose
    scale is the ``var`` coordinate, as the LapNIG hierarchy does.
    """
    data = np.asarray(data, dtype=float).reshape(-1)
    anchor = np.concatenate([data, [mean0]])
    lo = anchor.min() - 12.0 * (anchor.std() + np.sqrt(var0) + 1.0)
    hi = anchor.max() + 12.0 * (anchor.std() + np.sqrt(var0) + 1.0)
    mu = np.linspace(lo, hi, 1401)
    logvar = np.linspace(-12.0, 9.0, 1001)
    mu_mesh, lv_mesh = np.meshgrid(mu, logvar, indexing="ij")
    var = np.exp(lv_mesh)
    logk = (
        stats.norm.logpdf(mu_mesh, mean0, np.sqrt(var0))
        + stats.invgamma.logpdf(var, shape, scale=scale)
        + lv_mesh
    )
    for y in data:
        if kernel == "laplace":
            logk = logk + stats.laplace.logpdf(y, mu_mesh, var)
        else:
            logk = logk + stats.norm.logpdf(y, mu_mesh, np.sqrt(var))
    peak = logk.max()
    weights = np.exp(logk - peak)

    def integrate(values):
        return np.trapezoid(np.trapezoid(values, logvar, axis=1), mu)

    norm = integrate(weights)
    return {
        "log_marginal": float(peak + np.log(norm)),
        "e_mean": float(integrate(weights * mu_mesh) / norm),
        "e_var": float(integrate(weights * var) / norm),
    }


def dp_coclustering_probability(log_marginal, y1, y2, alpha):
    """Exact posterior P(c_1 = c_2) for two data points under a DP mixture.

    Brute force over the two partitions of {1, 2}: the partition prior puts
    unnormalized weight 1 on "together" and ``alpha`` on "apart";
    ``log_marginal(data)`` gives a cluster's log marginal likelihood.
    """
    together = np.exp(log_marginal([y1, y2]))
    apart = alpha * np.exp(log_marginal([y1]) + log_marginal([y2]))
    return float(together / (together + apart))


def nnig_dp_coclustering_probability(y1, y2, mean0, var_scaling, shape, scale, alpha):
    """:func:`dp_coclustering_probability` under the NNIG hierarchy."""
    return dp_coclustering_probability(
        lambda data: nnig_quadrature(data, mean0, var_scaling, shape, scale)["log_marginal"],
        y1, y2, alpha)


def indicator_se(values):
    """Monte Carlo standard error of the mean of a 0/1 chain, via ESS."""
    from mixmcmc.postprocess import ess

    values = np.asarray(values, dtype=float)
    p = values.mean()
    return np.sqrt(max(p * (1 - p), 1e-12) / ess(values))


def monte_carlo_se(x):
    """Standard error of the mean of a correlated chain, via the package ESS."""
    from mixmcmc.postprocess import ess

    x = np.asarray(x, dtype=float)
    return x.std() / np.sqrt(ess(x))


def all_partitions(n):
    """Every set partition of range(n), as canonical label vectors."""
    if n == 0:
        return []
    out = []

    def recurse(labels, next_label, i):
        if i == n:
            out.append(tuple(labels))
            return
        for lab in range(next_label):
            labels.append(lab)
            recurse(labels, next_label, i + 1)
            labels.pop()
        labels.append(next_label)
        recurse(labels, next_label + 1, i + 1)
        labels.pop()

    recurse([], 0, 0)
    return [np.array(p, dtype=int) for p in out]


def adjusted_rand_index(a, b):
    """Adjusted Rand index between two label vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    labels_a = np.unique(a)
    labels_b = np.unique(b)
    table = np.array(
        [[(np.sum((a == la) & (b == lb))) for lb in labels_b] for la in labels_a],
        dtype=float,
    )

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
