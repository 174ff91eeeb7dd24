"""Tests of the benchmark itself, at seconds-long sizes (``--tiny``)."""

import json
import os
import subprocess
import sys

import pytest

import checks
import run
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "1", "--tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed_units(stdout):
    """metric -> unit from the '#' table lines."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("# ") and len(parts) == 4:
            units[parts[1]] = parts[3]
    return units


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_prints_every_metric_with_its_unit(name):
    proc = _bench("--workload", name, "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    units = _printed_units(proc.stdout)
    for metric, unit in run.END_TO_END + run.UNGATED:
        assert units.get(metric) == unit, metric
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(run.PER_LAYER)


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = _bench("--workload", "readme-neal2", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    proc = _bench("--workload", "readme-neal2", "--seed", "3", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny_run(monkeypatch, seed, **patches):
    for name, fn in patches.items():
        monkeypatch.setattr(run.Runner, name, fn)
    w = workloads.tiny(workloads.WORKLOADS["readme-neal2"])
    return run.run_workload(w, seed, 0, 0, ROOT)


def test_corrupted_output_counts_as_failed(monkeypatch):
    real_child = run.Runner.child

    def corrupting_child(self, job, job_path):
        result, problems = real_child(self, job, job_path)
        if job["mode"] == "pipeline":
            with open(job["files"]["clus"], "a", encoding="utf-8") as fh:
                fh.write("1,2\n")
        return result, problems

    record = _tiny_run(monkeypatch, 901, child=corrupting_child)
    # every pipeline run, and the CLI run that no longer matches the first of them
    assert record["failed"] == record["runs"] + 1
    assert record["metrics"]["fail_rate"] == record["failed"] / record["attempted"]
    assert any("clus: shape" in p for _, ps in record["problems"] for p in ps)


def test_nondeterministic_run_counts_as_failed(monkeypatch):
    real_cli = run.Runner.cli

    def reseeded_cli(self, w, files):
        # the same inputs but another chain seed: a run that does not repeat
        algo = files["algo"] + ".other"
        with open(files["algo"], encoding="utf-8") as src, open(algo, "w", encoding="utf-8") as dst:
            dst.write(src.read().replace("rng_seed: ", "rng_seed: 7"))
        return real_cli(self, w, dict(files, algo=algo))

    record = _tiny_run(monkeypatch, 902, cli=reseeded_cli)
    assert record["failed"] == 1
    assert record["metrics"]["fail_rate"] == 1 / record["attempted"]
    assert any("bytes differ" in p for _, ps in record["problems"] for p in ps)


def test_group_purity_ignores_splits_and_counts_mixing():
    labels = [0] * 4 + [1] * 4
    assert checks.group_purity([0, 0, 1, 1, 2, 2, 3, 3], labels) == 1.0
    assert checks.group_purity([0, 0, 0, 1, 1, 1, 1, 1], labels) == 7 / 8
    assert checks.group_purity([5] * 8, labels) == 0.5
    assert checks.check_quality({"purity": 1.0, "ari": 0.5}, 0.95) == []
    assert checks.check_quality({"purity": 0.9, "ari": 0.8}, 0.95)


def _births_against_the_truth():
    """Traced and true births and re-seats of a small Neal8 run, as JSON on stdout."""
    import numpy as np

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    from mixmcmc import algorithms, chainio, config, datasets, hierarchy, mixings

    hier = hierarchy.build_hierarchy("NNIG", config.parse_config(
        "fixed_values {\n  mean: 0.0\n  var_scaling: 0.1\n  shape: 2.0\n  scale: 2.0\n}\n"))
    mixing = mixings.build_mixing("DP", config.parse_config("fixed_value {\n  totalmass: 10.0\n}\n"))
    algorithm = algorithms.build_algorithm("Neal8", hier, mixing, n_aux=3)
    # the truth, by identity: a re-seat opens a cluster on the state its datum's cluster just left
    truth = {"reseats": 0, "births": 0}
    real_remove, real_open, stash = algorithm._remove_datum, algorithm._open_cluster, [None]

    def remove_datum(i):
        stash[0] = real_remove(i)
        return stash[0]

    def open_cluster(i, rng, state=None):
        truth["reseats" if state is not None and state is stash[0] else "births"] += 1
        real_open(i, rng, state=state)

    algorithm._remove_datum, algorithm._open_cluster = remove_datum, open_cluster
    data = datasets.generate_bench("two-normals-1d", 40, 1, 5)
    algorithm.run(data, 60, 30, chainio.MemoryCollector(), np.random.default_rng(1))
    print(json.dumps({"truth": truth, "traced": {k: tracer.counts[k] for k in truth}}))


def test_births_leave_out_a_datum_retaking_its_own_state():
    # in a child process: install() rewraps mixmcmc for the rest of the process
    code = "import test_perfbench; test_perfbench._births_against_the_truth()"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=170,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["truth"]["reseats"] > 0 and got["truth"]["births"] > 0
    assert got["traced"] == got["truth"]
