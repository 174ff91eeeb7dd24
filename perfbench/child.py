"""One benchmark child process: the ``run-mcmc`` pipeline on one dataset.

Usage: ``python3 perfbench/child.py JOB.json`` with ``src`` on PYTHONPATH.
The job file names the inputs, the outputs and the mode:

- ``pipeline``: the whole pipeline, timed by phase; with ``quality`` it
  also computes, after the clock stops, the cluster-count ESS, the ARI and
  the group purity of the Binder estimate and the held-out log predictive
  density;
- ``trace``: ``pipeline`` with spans around every call into mixmcmc.

The pipeline makes the same public calls in the same order as
``mixmcmc.cli._run_mcmc``; the benchmark checks that its output files are
byte-identical to the CLI's. The result is written as JSON to ``result``.
"""

import json
import os
import resource
import sys
import time


def _adjusted_rand_index(a, b):
    from collections import Counter
    from math import comb

    pairs = sum(comb(c, 2) for c in Counter(zip(a, b)).values())
    rows = sum(comb(c, 2) for c in Counter(a).values())
    cols = sum(comb(c, 2) for c in Counter(b).values())
    expected = rows * cols / comb(len(a), 2)
    top = (rows + cols) / 2
    return 1.0 if top == expected else (pairs - expected) / (top - expected)


def _pipeline(job, clock, tracer):
    """Returns (phase times, pipeline products) for one run."""
    t = {"start": clock()}
    if tracer is None:
        import mixmcmc  # noqa: F401  (the import a user pays for)
    else:
        import importlib

        tracer.span("setup.import", importlib.import_module, "mixmcmc")
        import spans

        spans.install(tracer)
    import numpy as np

    from mixmcmc import algorithms, chainio, config, hierarchy, mixings, postprocess

    f = job["files"]
    params = config.parse_algo_params(config.read_config(f["algo"]))
    hier = hierarchy.build_hierarchy(job["hier_type"], config.read_config(f["hier"]))
    mix_args = config.read_config(f["mix"]) if f["mix"] else None
    mixing = mixings.build_mixing(job["mix_type"], mix_args)
    data = chainio.read_csv_matrix(f["data"])
    algorithm = algorithms.build_algorithm(
        params.algo_id, hier, mixing,
        init_num_clusters=params.init_num_clusters, n_aux=params.neal8_n_aux,
    )
    if f["chain"] == "memory":
        collector = chainio.MemoryCollector()
    else:
        collector = chainio.FileCollector(f["chain"])
    rng = np.random.default_rng(params.rng_seed)
    t["setup"] = clock()
    products = {"algorithm": algorithm, "collector": collector, "params": params, "n": data.shape[0]}

    algorithm.run(data, params.iterations, params.burnin, collector, rng)
    t["run"] = clock()

    grid = chainio.read_csv_matrix(f["grid"])
    eval_rng = np.random.default_rng([params.rng_seed, 1])
    lpdf = algorithm.eval_lpdf_grid(collector, grid, rng=eval_rng)
    chainio.write_csv_matrix(f["dens"], lpdf)
    summary = postprocess.log_mean_density(lpdf)
    chainio.write_csv_matrix(f["dens_mean"], summary.reshape(1, -1))
    n_clusters = postprocess.num_clusters_chain(collector)
    chainio.write_csv_matrix(f["n_cl"], n_clusters)
    chainio.write_csv_matrix(f["clus"], postprocess.allocation_matrix(collector))
    best = postprocess.binder_best_clustering(collector)
    chainio.write_csv_matrix(f["best"], best.reshape(1, -1))
    t["post"] = clock()
    products.update(n_clusters=n_clusters, best=best, records=lpdf.shape[0],
                    grid_points=grid.shape[0])
    return t, products


def _quality(job, products, sampling_s):
    import numpy as np

    import checks

    from mixmcmc import chainio, postprocess

    params = products["params"]
    heldout = chainio.read_csv_matrix(job["files"]["heldout"])
    rng = np.random.default_rng([params.rng_seed, 2])
    lpdf = products["algorithm"].eval_lpdf_grid(products["collector"], heldout, rng=rng)
    k_ess = postprocess.ess(products["n_clusters"])
    return {
        "k_ess": k_ess,
        "k_ess_per_s": k_ess / sampling_s,
        "ari": _adjusted_rand_index(products["best"].tolist(), job["labels"]),
        "purity": checks.group_purity(products["best"].tolist(), job["labels"]),
        "heldout_nlpd": -float(np.mean(postprocess.log_mean_density(lpdf))),
    }


def main(job_path):
    clock = time.perf_counter
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
    t, products = _pipeline(job, clock, tracer)
    f = job["files"]
    sampling_s = t["run"] - t["setup"]
    n, iterations = products["n"], products["params"].iterations
    result = {
        "setup_s": t["setup"] - t["start"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": t["post"] - t["start"],
        "sample_s": sampling_s,
        "us_per_datum_sweep": 1e6 * sampling_s / (n * iterations),
        "post_s": t["post"] - t["run"],
        "n": n, "iterations": iterations,
        "records": products["records"], "grid_points": products["grid_points"],
        "chain_bytes": 0 if f["chain"] == "memory" else os.path.getsize(f["chain"]),
        "csv_bytes": sum(os.path.getsize(f[k]) for k in ("dens", "dens_mean", "n_cl", "clus", "best")),
    }
    if job.get("quality"):
        result.update(_quality(job, products, sampling_s))
    if tracer is not None:
        from mixmcmc import postprocess

        postprocess.ess(products["n_clusters"])  # traced: the ess_s layer metric
        result["trace"] = tracer.dump()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
