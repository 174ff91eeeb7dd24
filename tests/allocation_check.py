"""Allocation-distribution check of two source trees of mixmcmc.

Run by hand from a checkout (pytest does not collect it):

    python tests/allocation_check.py BEFORE_ROOT AFTER_ROOT

Each root is a checkout whose ``src`` holds the package; each side runs in
its own process, both at once. ``tests/test_allocation_check.py`` runs
both sides in one process at a tiny size, through :func:`estimates`,
which takes the cells, data sets, chains and sweeps, and :func:`compare`.
A change that moves chain bits but not the kernel must leave the law of
the allocations as it was, and this compares it on the data of the
``readme-neal2`` workload: its five training sets at workload seed 1
(``two-normals-1d``, n = 200, generator seed 1000 + j), and the
``highdim`` sets of the same seeds at d = 2 for NNW.

For every cell and data set each side runs ``CHAINS`` chains of
``SWEEPS`` sweeps, ``BURNIN`` of them dropped, each from its own seed. k
counts the occupied clusters. The statistics, per data set, are
P(k = 1..K_MAX), the mean k, the mean co-clustering over all pairs and the
co-clustering of ``PAIRS`` fixed pairs. A side's estimate is the mean of
its chains' means, with the standard error of each chain's mean from its
effective sample size; each comparison is the two-sample z of the two
sides. The check passes when every |z| is below ``THRESHOLD``, and the
script exits with status 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

CHAINS, SWEEPS, BURNIN = 12, 600, 100
N, DATASETS, WORKLOAD_SEED = 200, 5, 1
K_MAX, PAIRS = 12, 100
NNIG = {"fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}}
NNW = {"fixed_values": {"mean": {"size": 2, "data": [0.0, 0.0]}, "var_scaling": 1.0,
                        "deg_free": 5.0, "scale": {"rows": 2, "cols": 2,
                                                   "data": [2.0, 0.0, 0.0, 2.0]}}}
DP = {"fixed_value": {"totalmass": 1.0}}
TRUNC_SB = {"num_components": 25, "totalmass": 1.0}
# name -> (algorithm, family, its args, mixing, its args, data dimension)
CELLS = {
    "Neal2/NNIG/DP": ("Neal2", "NNIG", NNIG, "DP", DP, 1),
    "Neal3/NNIG/DP": ("Neal3", "NNIG", NNIG, "DP", DP, 1),
    "Neal8/NNIG/DP": ("Neal8", "NNIG", NNIG, "DP", DP, 1),
    "BlockedGibbs/NNIG/TruncSB": ("BlockedGibbs", "NNIG", NNIG, "TruncSB", TRUNC_SB, 1),
    "Neal2/NNW/DP": ("Neal2", "NNW", NNW, "DP", DP, 2),
}
# two-sided normal tail 6.8e-6: over the 2,850 comparisons (5 cells, 5 data
# sets, 114 statistics) the chance that any exceeds it between equal laws is
# below 2% (Bonferroni)
THRESHOLD = 4.5


def _names():
    return ([f"P(k={j})" for j in range(1, K_MAX + 1)] + ["mean k", "mean co-clustering"]
            + [f"co({i},{j})" for i, j in _pairs()])


def _pairs():
    rng = np.random.default_rng(2022)
    return [tuple(sorted(rng.choice(N, size=2, replace=False).tolist())) for _ in range(PAIRS)]


def _statistics(allocations):
    """Rows: one sweep's statistics, for allocations of shape (sweeps, n)."""
    pairs = np.array(_pairs())
    out = []
    for labels in allocations:
        sizes = np.bincount(labels)
        k = np.count_nonzero(sizes)
        out.append([k == j for j in range(1, K_MAX + 1)] + [
            k, (np.sum(sizes * sizes) - N) / (N * (N - 1))]
            + (labels[pairs[:, 0]] == labels[pairs[:, 1]]).tolist())
    return np.array(out, dtype=float)


def estimates(side, cells=CELLS, datasets=DATASETS, chains=CHAINS, sweeps=SWEEPS,
              burnin=BURNIN):
    """One side's estimates and standard errors, per cell and data set.

    ``side`` seeds the chains. ``cells`` maps names to tuples as in
    ``CELLS``; every cell runs on the first ``datasets`` data sets.
    """
    from mixmcmc import MemoryCollector, build_algorithm, build_hierarchy, build_mixing
    from mixmcmc.datasets import generate_bench
    from mixmcmc.postprocess import ess

    out = {}
    for c, (name, (algo_id, hier_type, hier_args, mix_type, mix_args, d)) in enumerate(
            cells.items()):
        for j in range(datasets):
            kind = "two-normals-1d" if d == 1 else "highdim"
            data = generate_bench(kind, N, d, WORKLOAD_SEED * 1000 + j)
            means, variances = [], []
            for chain in range(chains):
                algo = build_algorithm(algo_id, build_hierarchy(hier_type, hier_args),
                                       build_mixing(mix_type, mix_args))
                collector = MemoryCollector()
                algo.run(data, sweeps, burnin, collector,
                         np.random.default_rng([side, c, j, chain]))
                stats = _statistics([record.allocations for record in collector])
                means.append(stats.mean(axis=0))
                variances.append([column.var() / ess(column) for column in stats.T])
            out[f"{name} #{j}"] = (np.mean(means, axis=0).tolist(),
                                   (np.sqrt(np.sum(variances, axis=0)) / chains).tolist())
            print(f"side {side}: {name} #{j} done", file=sys.stderr, flush=True)
    return out


def _run_sides(roots):
    procs = []
    for side, root in enumerate(roots):
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
        procs.append(subprocess.Popen([sys.executable, __file__, "--side", str(side)], env=env,
                                      stdout=subprocess.PIPE, text=True))
    results = [json.loads(proc.communicate()[0]) for proc in procs]
    if any(proc.returncode for proc in procs):
        raise SystemExit("a side failed")
    return results


def compare(before, after):
    """Print the comparison of two sides' estimates; True when every |z| is below THRESHOLD."""
    names, worst, count = _names(), (0.0, None), 0
    for key in before:
        (mean_b, se_b), (mean_a, se_a) = before[key], after[key]
        for name, mb, sb, ma, sa in zip(names, mean_b, se_b, mean_a, se_a):
            se = math.hypot(sb, sa)
            z = 0.0 if ma == mb else (math.inf if se == 0 else (ma - mb) / se)
            count += 1
            if abs(z) > abs(worst[0]):
                worst = (z, f"{key} {name}: before {mb:.4f}, after {ma:.4f}")
            if name == "mean k":
                print(f"{key}: mean k before {mb:.3f} after {ma:.3f} (z {z:+.2f})")
    print(f"{count} statistics; largest |z| {abs(worst[0]):.2f} ({worst[1]}); "
          f"threshold {THRESHOLD}")
    return abs(worst[0]) < THRESHOLD


def main(roots):
    return compare(*_run_sides(roots))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        json.dump(estimates(int(sys.argv[2])), sys.stdout)
    elif len(sys.argv) == 3:
        raise SystemExit(0 if main(sys.argv[1:]) else 1)
    else:
        raise SystemExit(__doc__)
