"""mixmcmc benchmark: the ``run-mcmc`` pipeline on one workload, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload readme-neal2 --seed 1 --seconds 10 --trace 0

The load is a closed loop: a single parent starts one child process at a
time (``perfbench/child.py``), each with BLAS/OpenMP threads pinned to 1,
so import cost, peak memory and cold caches are what a user sees. A run

1. writes the workload's inputs for ``--seed`` under ``.perfbench/``;
2. runs the pipeline once on each of the workload's datasets, in whole
   cycles, until ``--seconds`` have passed; the first run on each dataset
   also measures quality after its clock stops;
3. runs the real ``mixmcmc run-mcmc`` CLI on dataset 0 and requires its
   output files to be byte-identical to the benchmark's pipeline;
4. with ``--trace 1``, runs the pipeline once more with spans around every
   call into mixmcmc and reports the per-layer metrics.

Every output is checked (see ``checks.py``); a run that raises or fails a
check counts in ``failed``. Timings are medians over the run's children.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, starting
with ``#``, are the environment record and every metric with its unit,
including ``k_ess_per_s`` and ``fail_rate``, which are not gated.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_BUDGET_S = 165  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# The gated workloads and the metrics' names and units are those of BENCHMARK.json.
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
GATED = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
# printed with the gated ones: one is zero when nothing fails, the other too
# seed-dependent for any permitted bound
UNGATED = (("k_ess_per_s", "1/s"), ("fail_rate", "ratio"))


class Tally:
    """Attempted and failed child runs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, tag, problems):
        self.attempted += 1
        if problems:
            self.problems.append((tag, problems))

    @property
    def failed(self):
        return len(self.problems)


def environment(w, seed):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "workload": w.name,
        "seed": seed,
        "sizes": w.sizes(),
    }


def prepare_inputs(w, seed, rundir):
    """Write the run's config, grid, data and held-out files; returns per-dataset paths."""
    from mixmcmc.chainio import write_csv_matrix
    from mixmcmc.datasets import generate_bench

    inputs = os.path.join(rundir, "inputs")
    os.makedirs(inputs)
    shared = {"hier": "hier.txt", "mix": "mix.txt", "grid": "grid.csv"}
    texts = {"hier": w.hier_args, "mix": w.mix_args, "grid": workloads.grid_text(w)}
    shared = {k: os.path.join(inputs, v) for k, v in shared.items()}
    for key, path in shared.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[key])
    per_dataset = []
    for j in range(w.datasets):
        ds_seed = workloads.dataset_seed(seed, j)
        paths = dict(shared)
        paths["algo"] = os.path.join(inputs, f"algo{j}.txt")
        paths["data"] = os.path.join(inputs, f"data{j}.csv")
        paths["heldout"] = os.path.join(inputs, f"heldout{j}.csv")
        with open(paths["algo"], "w", encoding="utf-8") as fh:
            fh.write(workloads.algo_params_text(w, seed, j))
        write_csv_matrix(paths["data"], generate_bench(w.kind, w.n, w.d, ds_seed))
        write_csv_matrix(paths["heldout"], generate_bench(
            w.kind, w.n_heldout, w.d, ds_seed + workloads.HELDOUT_SEED_OFFSET))
        per_dataset.append(paths)
    return per_dataset


def output_files(w, inputs, outdir):
    os.makedirs(outdir)
    files = dict(inputs)
    files.update(
        chain=os.path.join(outdir, "chains.chain") if w.file_chain else "memory",
        dens=os.path.join(outdir, "dens.csv"),
        dens_mean=os.path.join(outdir, "dens.mean.csv"),
        n_cl=os.path.join(outdir, "numclust_chain.csv"),
        clus=os.path.join(outdir, "clustering_chain.csv"),
        best=os.path.join(outdir, "best_clustering.csv"),
    )
    return files


def digest_names(w):
    return checks.OUTPUTS + (("chain",) if w.file_chain else ())


class Runner:
    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({var: "1" for var in THREAD_VARS})

    def _timeout(self):
        return max(1.0, self.deadline - time.perf_counter())

    def child(self, job, job_path):
        """Run one child; returns (result, problems)."""
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), job_path]
        return self._run(cmd, job["result"])

    def cli(self, w, files):
        cmd = [
            sys.executable, "-m", "mixmcmc.cli", "run-mcmc",
            "--algo-params-file", files["algo"],
            "--hier-type", w.hier_type, "--hier-args", files["hier"],
            "--mix-type", w.mix_type, "--mix-args", files["mix"],
            "--coll-name", files["chain"],
            "--data-file", files["data"],
            "--grid-file", files["grid"],
            "--dens-file", files["dens"],
            "--n-cl-file", files["n_cl"],
            "--clus-file", files["clus"],
            "--best-clus-file", files["best"],
        ]
        return self._run(cmd, None)

    def _run(self, cmd, result_path):
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            return None, ["timed out"]
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, [f"exit code {proc.returncode}: {tail[0]}"]
        if result_path is None:
            return {}, []
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), []


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(w, seed, seconds, trace, root):
    """One benchmark run; returns the full record (metrics, samples, problems)."""
    start = time.perf_counter()
    runner = Runner(root, start + RUN_BUDGET_S)
    rundir = os.path.join(root, ".perfbench", f"{w.name}-s{seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    datasets = prepare_inputs(w, seed, rundir)
    with open(datasets[0]["grid"], encoding="utf-8") as fh:
        grid = [[float(c) for c in line.split(",")] for line in fh if line.strip()]
    labels = workloads.labels(w.n)
    records = w.iterations - w.burnin
    tally = Tally()
    counter = itertools.count()

    def job(mode, j, quality=False):
        k = next(counter)
        files = output_files(w, datasets[j], os.path.join(rundir, "out", f"{k:03d}-{mode}-d{j}"))
        return files, {
            "mode": mode, "quality": quality, "files": files, "labels": labels,
            "hier_type": w.hier_type, "mix_type": w.mix_type,
            "result": os.path.join(rundir, f"result{k:03d}.json"),
        }, os.path.join(rundir, f"job{k:03d}.json")

    reference = {}  # dataset -> output digests of its first run
    quality = {}  # dataset -> quality of its first run
    runs = []  # (dataset, result)

    def check_run(tag, j, files, problems):
        if not problems:
            problems = checks.check_outputs(files, records, w.n, grid)
            got = checks.digests(files, digest_names(w))
            if j in reference:
                problems += checks.compare_digests(reference[j], got, tag)
            else:
                reference[j] = got
        shutil.rmtree(os.path.dirname(files["dens"]), ignore_errors=True)
        tally.record(tag, problems)

    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for j in range(w.datasets):
            files, spec, path = job("pipeline", j, quality=j not in quality)
            result, problems = runner.child(spec, path)
            if result:
                runs.append((j, result))
                if "ari" in result:
                    quality[j] = {k: result[k] for k in
                                  ("ari", "purity", "heldout_nlpd", "k_ess", "k_ess_per_s")}
                    problems += checks.check_quality(result, w.purity_floor)
            check_run(f"pipeline d{j}", j, files, problems)
        now = time.perf_counter()
        cycle = now - cycle_start
        # leave room for the CLI run and the traced run (about three pipelines)
        if now - loop_start >= seconds or now + cycle * (1 + 4 / w.datasets) > runner.deadline:
            break

    files, _, _ = job("cli", 0)
    _, problems = runner.cli(w, files)
    check_run("cli run-mcmc parity d0", 0, files, problems)

    walls = [r["wall_s"] for _, r in runs]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median([r["setup_s"] for _, r in runs]),
        "us_per_datum_sweep": _median([r["us_per_datum_sweep"] for _, r in runs]),
        "post_s": _median([r["post_s"] for _, r in runs]),
        "ari": _median([q["ari"] for q in quality.values()]),
        "heldout_nlpd": _median([q["heldout_nlpd"] for q in quality.values()]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for _, r in runs]),
        "k_ess_per_s": _median([q["k_ess_per_s"] for q in quality.values()]),
    }
    layers = {}
    if trace:
        files, spec, path = job("trace", 0)
        result, problems = runner.child(spec, path)
        check_run("traced d0", 0, files, problems)
        if result:
            layers = spans.layer_metrics(result["trace"], result, w.hot_layers)
            untraced = [r["wall_s"] for j, r in runs if j == 0]
            layers["trace.overhead_s"] = result["wall_s"] - _median(untraced)
            with open(os.path.join(rundir, "trace.json"), "w", encoding="utf-8") as fh:
                json.dump(result["trace"], fh, indent=1)
    metrics["fail_rate"] = tally.failed / max(tally.attempted, 1)
    shutil.rmtree(os.path.join(rundir, "out"), ignore_errors=True)
    return {
        "workload": w.name, "seed": seed, "trace": bool(trace),
        "runs": len(runs), "datasets": w.datasets,
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "metrics": metrics, "layers": layers, "quality": quality,
        "samples": {name: [r[name] for _, r in runs]
                    for name in ("wall_s", "setup_s", "us_per_datum_sweep", "post_s")},
        "elapsed_s": time.perf_counter() - start,
    }


def report(record, env, out=sys.stdout):
    """Print the human-readable record, then the result line."""
    print("# env " + json.dumps(env, sort_keys=True), file=out)
    print(f"# {record['workload']} seed={record['seed']}: {record['runs']} pipeline runs over "
          f"{record['datasets']} datasets, "
          f"{record['attempted']} children attempted, {record['failed']} failed; "
          "values are medians", file=out)
    for tag, problems in record["problems"]:
        for problem in problems:
            print(f"# FAILED {tag}: {problem}", file=out)
    for j, q in sorted(record["quality"].items()):
        print(f"# quality d{j}: " + " ".join(f"{k}={v:.6g}" for k, v in q.items()), file=out)
    m = record["metrics"]
    for name, unit in END_TO_END + UNGATED:
        print(f"# {name:<24} {m[name]:>14.6g} {unit}", file=out)
    units = dict(PER_LAYER)
    for name, value in record["layers"].items():
        print(f"# {name:<32} {value:>14.6g} {units[name]}", file=out)
    if record["layers"]:
        chosen = PER_LAYER
        values = record["layers"]
    else:
        chosen, values = END_TO_END, m
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(line), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mixmcmc", "__init__.py")):
        print(f"error: no mixmcmc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    record = run_workload(w, args.seed, args.seconds, args.trace, root)
    if not record["runs"] or (args.trace and not record["layers"]):
        print("error: no pipeline run completed: "
              + "; ".join(p for _, ps in record["problems"] for p in ps), file=sys.stderr)
        return 1
    env = environment(w, args.seed)
    record["env"] = env
    with open(os.path.join(root, ".perfbench", f"{w.name}-s{args.seed}", "record.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
