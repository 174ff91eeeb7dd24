"""The benchmark's workloads: model configs, sizes and seeded inputs.

Each workload is one ``run-mcmc`` configuration. A run at workload seed
``s`` makes ``datasets`` training sets from ``mixmcmc.datasets`` (dataset
``j`` uses generator seed ``s * 1000 + j``), one held-out draw per
training set from the same generator, the parameter files and the grid.
The program only ever sees these generated files.

BENCHMARK.json lists the gated workloads. The other two run the same way
and feed the layer studies and records, but they are not gated: at the
run length that steady medians need, four workloads do not fit the
benchmark's run budget (see perfbench/README.md).
"""

from dataclasses import dataclass, replace

# Where the held-out draw's generator seed starts, away from training seeds.
HELDOUT_SEED_OFFSET = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    hier_type: str
    hier_args: str
    mix_type: str
    mix_args: str
    kind: str  # mixmcmc.datasets kind
    n: int
    d: int
    iterations: int
    burnin: int
    datasets: int  # distinct training sets per run; timings are medians over them
    file_chain: bool
    grid: tuple  # (lo, hi, points) along the diagonal t * 1_d
    # Least share of the data whose Binder cluster's majority generating group
    # is their own (see checks.group_purity); None where the seed commit does
    # not recover the generating groups reliably.
    purity_floor: float | None
    hot_layers: tuple  # trace metrics whose summed share of the traced wall is reported
    n_heldout: int = 500

    def sizes(self):
        return {
            "n": self.n, "d": self.d, "iterations": self.iterations,
            "burnin": self.burnin, "datasets": self.datasets,
            "grid_points": self.grid[2], "n_heldout": self.n_heldout,
            "chain": "file" if self.file_chain else "memory",
        }


_NNIG = "fixed_values {\n  mean: 0.0\n  var_scaling: 0.1\n  shape: 2.0\n  scale: 2.0\n}\n"
_DP1 = "fixed_value {\n  totalmass: 1.0\n}\n"


def _nnw(d):
    # prior mean of the covariance is scale / (deg_free - d - 1) = I
    scale = ", ".join("2.0" if i == j else "0.0" for i in range(d) for j in range(d))
    zeros = ", ".join("0.0" for _ in range(d))
    return (
        "fixed_values {\n"
        f"  mean {{ size: {d} data: [{zeros}] }}\n"
        "  var_scaling: 1.0\n"
        f"  deg_free: {d + 3}.0\n"
        f"  scale {{ rows: {d} cols: {d} data: [{scale}] rowmajor: true }}\n"
        "}\n"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-neal2",
            algo="Neal2", hier_type="NNIG", hier_args=_NNIG, mix_type="DP", mix_args=_DP1,
            kind="two-normals-1d", n=200, d=1, iterations=1500, burnin=500, datasets=5,
            file_chain=True, grid=(-6.0, 6.0, 601), purity_floor=0.95,
            hot_layers=("algorithms.sweep_self_s",),
        ),
        Workload(
            name="mv-neal8-nnw",
            algo="Neal8", hier_type="NNW", hier_args=_nnw(4), mix_type="PY",
            mix_args="fixed_values {\n  strength: 1.0\n  discount: 0.1\n}\n",
            kind="highdim", n=60, d=4, iterations=70, burnin=35, datasets=6,
            file_chain=False, grid=(-5.0, 5.0, 2001), purity_floor=None,
            hot_layers=("priors.sample_s",),
        ),
        Workload(
            name="blocked-post-file",
            algo="BlockedGibbs", hier_type="NNIG", hier_args=_NNIG, mix_type="TruncSB",
            mix_args="num_components: 25\ntotalmass: 1.0\n",
            kind="two-normals-1d", n=500, d=1, iterations=1800, burnin=1500, datasets=4,
            file_chain=True, grid=(-8.0, 8.0, 1601), purity_floor=0.95,
            hot_layers=("postprocess.self_s", "chainio.self_s"),
        ),
        Workload(
            name="lap-neal8-mala",
            algo="Neal8",
            hier_type="LapNIG",
            hier_args="fixed_values {\n  mean: 0.0\n  var: 10.0\n  shape: 2.0\n  scale: 2.0\n}\n"
            'updater: "mala"\nstep_size: 0.1\nnum_steps: 3\n',
            mix_type="DP",
            mix_args=_DP1 + "gamma_prior {\n  shape: 2.0\n  rate: 2.0\n}\n",
            kind="two-normals-1d", n=150, d=1, iterations=400, burnin=200, datasets=10,
            file_chain=False, grid=(-8.0, 8.0, 401), purity_floor=0.95,
            hot_layers=("updaters.draw_s",),
        ),
    )
}


def tiny(workload):
    """A seconds-long version of a workload, for the benchmark's own tests."""
    return replace(
        workload, n=min(workload.n, 40), iterations=30, burnin=10, datasets=2,
        # short chains keep prior-wide clusters: a wider grid holds their mass
        grid=(2 * workload.grid[0], 2 * workload.grid[1], 401), n_heldout=50, purity_floor=None,
    )


def dataset_seed(seed, j):
    return seed * 1000 + j


def rng_seed(seed, j):
    """The chain's ``rng_seed`` for dataset j of a run at workload seed ``seed``."""
    return 20201124 + dataset_seed(seed, j)


def algo_params_text(w, seed, j):
    lines = [
        f'algo_id: "{w.algo}"',
        f"rng_seed: {rng_seed(seed, j)}",
        f"iterations: {w.iterations}",
        f"burnin: {w.burnin}",
        "init_num_clusters: 3",
    ]
    if w.algo == "Neal8":
        lines.append("neal8_n_aux: 3")
    return "\n".join(lines) + "\n"


def grid_text(w):
    lo, hi, points = w.grid
    rows = []
    for i in range(points):
        t = repr(lo + (hi - lo) * i / (points - 1))
        rows.append(",".join([t] * w.d))
    return "\n".join(rows) + "\n"


def labels(n):
    """Generating group of each row: both generators stack n // 2 rows of one group first."""
    half = n // 2
    return [0] * half + [1] * (n - half)
