"""Command line interface: ``run-mcmc``, ``plot`` and ``bench``."""

import argparse
import os
import sys

import numpy as np

from . import postprocess, svgplot
from .algorithms import build_algorithm
from .chainio import FileCollector, MemoryCollector, read_csv_matrix, write_csv_matrix
from .config import parse_algo_params, read_config
from .datasets import BENCH_KINDS, generate_bench
from .exceptions import ConfigError, MixError
from .hierarchy import HIERARCHY_TYPES, build_hierarchy
from .mixings import MIXING_TYPES, build_mixing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mixmcmc",
        description="MCMC posterior simulation for Bayesian mixture models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run-mcmc", help="run a chain and write its summaries")
    run.add_argument("--algo-params-file", required=True)
    run.add_argument("--hier-type", required=True, choices=HIERARCHY_TYPES)
    run.add_argument("--hier-args", required=True)
    run.add_argument("--mix-type", required=True, choices=MIXING_TYPES)
    run.add_argument("--mix-args", default="")
    run.add_argument("--coll-name", default="memory",
                     help="chain file path, or 'memory' to keep the chain in RAM")
    run.add_argument("--data-file", required=True)
    run.add_argument("--grid-file", default="")
    run.add_argument("--dens-file", default="")
    run.add_argument("--n-cl-file", default="")
    run.add_argument("--clus-file", default="")
    run.add_argument("--best-clus-file", default="")
    run.add_argument(
        "--dens-mean",
        choices=("mean", "exp-mean-log"),
        default="mean",
        help="estimator for the summary curve written next to --dens-file",
    )

    plot = sub.add_parser("plot", help="render SVG summaries of a finished run")
    plot.add_argument("--grid-file", required=True)
    plot.add_argument("--dens-file", required=True,
                      help="per-iteration log densities (or a single-row mean file)")
    plot.add_argument("--n-cl-file", required=True)
    plot.add_argument("--out-dir", required=True)

    bench = sub.add_parser("bench", help="generate a synthetic benchmark dataset")
    bench.add_argument("--kind", required=True, choices=BENCH_KINDS)
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--d", type=int, default=4)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    return parser


def _mean_sibling_path(dens_path):
    if dens_path.endswith(".csv"):
        return dens_path[: -len(".csv")] + ".mean.csv"
    return dens_path + ".mean.csv"


def _read_params(path, build, *head):
    """``build(*head, tree)`` of the parameter file ``path``, if any; a config error names it."""
    tree = read_config(path) if path else None
    try:
        return build(*head, tree)
    except ConfigError as err:
        if not path:
            raise
        raise ConfigError(f"{path}: {err}") from None


def _run_mcmc(args):
    if args.dens_file and not args.grid_file:
        raise MixError("--dens-file needs --grid-file")
    if args.grid_file and not args.dens_file:
        raise MixError("--grid-file needs --dens-file")
    params = _read_params(args.algo_params_file, parse_algo_params)
    hierarchy = _read_params(args.hier_args, build_hierarchy, args.hier_type)
    mixing = _read_params(args.mix_args, build_mixing, args.mix_type)
    algorithm = build_algorithm(
        params.algo_id,
        hierarchy,
        mixing,
        init_num_clusters=params.init_num_clusters,
        n_aux=params.neal8_n_aux,
    )
    data = read_csv_matrix(args.data_file)
    if args.coll_name == "memory":
        collector = MemoryCollector()
    else:
        collector = FileCollector(args.coll_name)
    rng = np.random.default_rng(params.rng_seed)
    algorithm.run(data, params.iterations, params.burnin, collector, rng)
    records = list(collector)  # the one replay of the chain

    if args.dens_file:
        grid = read_csv_matrix(args.grid_file)
        eval_rng = np.random.default_rng([params.rng_seed, 1])
        lpdf = algorithm.eval_lpdf_grid(records, grid, rng=eval_rng)
        write_csv_matrix(args.dens_file, lpdf)
        if args.dens_mean == "mean":
            summary = postprocess.log_mean_density(lpdf)
        else:
            summary = postprocess.mean_log_density(lpdf)
        write_csv_matrix(_mean_sibling_path(args.dens_file), summary.reshape(1, -1))
    if args.n_cl_file:
        write_csv_matrix(args.n_cl_file, postprocess.num_clusters_chain(records))
    if args.clus_file:
        write_csv_matrix(args.clus_file, postprocess.allocation_matrix(records))
    if args.best_clus_file:
        best = postprocess.binder_best_clustering(records)
        write_csv_matrix(args.best_clus_file, best.reshape(1, -1))
    return 0


def _plot(args):
    grid = read_csv_matrix(args.grid_file)
    if grid.shape[1] != 1:
        raise MixError("plotting needs a 1-d grid")
    lpdf = read_csv_matrix(args.dens_file, allow_neg_inf=True)  # -inf off the support
    if lpdf.shape[1] != grid.shape[0]:
        raise MixError(
            f"density file has {lpdf.shape[1]} columns but the grid has "
            f"{grid.shape[0]} points"
        )
    counts = read_csv_matrix(args.n_cl_file).reshape(-1)
    os.makedirs(args.out_dir, exist_ok=True)
    density = np.exp(postprocess.log_mean_density(lpdf))
    outputs = {
        "density.svg": svgplot.density_curve_svg(grid[:, 0], density),
        "cluster_count_hist.svg": svgplot.histogram_svg(counts.astype(int)),
        "cluster_count_trace.svg": svgplot.traceplot_svg(counts),
    }
    for name, doc in outputs.items():
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(doc)
    return 0


def _bench(args):
    matrix = generate_bench(args.kind, args.n, args.d, args.seed)
    write_csv_matrix(args.out, matrix)
    return 0


_COMMANDS = {"run-mcmc": _run_mcmc, "plot": _plot, "bench": _bench}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MixError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
