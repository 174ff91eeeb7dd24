"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds 30] [--out FILE]

Each (workload, seed) is one ``run.py`` invocation, made one after
another. For every metric the sweep reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. It also
reports the seed spread of the quality metrics ``ari``, ``heldout_nlpd``
and ``k_ess_per_s``, so that a change to the chain's bits can be read
against sampling noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

QUALITY = ("ari", "heldout_nlpd", "k_ess_per_s")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(run.GATED))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", help="also write the summary to this file")
    args = parser.parse_args(argv)
    root = os.getcwd()
    names = dict(run.END_TO_END + run.UNGATED)
    out = {}
    for name in args.workloads.split(","):
        per_metric, failed, attempted, env = {}, 0, 0, None
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"# {name} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}",
                      file=sys.stderr)
                failed += 1
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += last["failed"]
            attempted += last["attempted"]
            with open(os.path.join(root, ".perfbench", f"{name}-s{seed}", "record.json"),
                      encoding="utf-8") as fh:
                record = json.load(fh)
            env = record["env"]
            values = dict(record["metrics"], **record["layers"])
            for metric, value in values.items():
                per_metric.setdefault(metric, []).append(value)
            print(f"# {name} seed {seed}: " + " ".join(
                f"{k}={values[k]:.5g}" for k in names), file=sys.stderr)
        out[name] = {"attempted": attempted, "failed": failed, "env": env,
                     "metrics": {k: summary(v) for k, v in per_metric.items() if len(v) >= 2}}
        for metric in names:
            s = out[name]["metrics"].get(metric)
            if s:
                tag = " (quality: seed spread)" if metric in QUALITY else ""
                print(f"# {name:<18} {metric:<20} median {s['median']:.5g} "
                      f"spread {s['spread']:.4f}{tag}")
    text = json.dumps(out, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
