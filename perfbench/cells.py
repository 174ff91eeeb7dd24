"""Ungated cell-coverage pass: every valid algorithm x family x mixing cell once.

Usage, from the root of a checkout::

    python3 perfbench/cells.py [--out FILE]

A cell is valid when ``build_algorithm`` accepts it. Each valid cell runs
once at a small size, single-threaded, in this process; the pass records
whether it completed and its microseconds per datum per sweep. Nothing is
gated on these numbers. GammaGamma gets positive data made here: two
Gamma(2) groups with rates 4 and 0.5.
"""

import argparse
import json
import os
import sys
import time

N, D, ITERATIONS, BURNIN, SEED = 60, 2, 40, 10, 7

HIER_ARGS = {
    "NNIG": {"fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}},
    "NNxIG": {"fixed_values": {"mean": 0.0, "var": 10.0, "shape": 2.0, "scale": 2.0}},
    "LapNIG": {"fixed_values": {"mean": 0.0, "var": 10.0, "shape": 2.0, "scale": 2.0}},
    "NNW": {"fixed_values": {
        "mean": {"size": D, "data": [0.0] * D}, "var_scaling": 0.1, "deg_free": D + 3.0,
        "scale": {"rows": D, "cols": D, "rowmajor": True,
                  "data": [2.0 if i == j else 0.0 for i in range(D) for j in range(D)]}}},
    "GammaGamma": {"fixed_values": {"shape": 2.0, "rate_alpha": 2.0, "rate_beta": 2.0}},
}
MIX_ARGS = {
    "DP": {"fixed_value": {"totalmass": 1.0}},
    "PY": {"fixed_values": {"strength": 1.0, "discount": 0.1}},
    "TruncSB": {"num_components": 25, "totalmass": 1.0},
}


def cell_data(hier_type):
    import numpy as np
    from mixmcmc.datasets import generate_bench

    if hier_type == "NNW":
        return generate_bench("highdim", N, D, SEED)
    if hier_type == "GammaGamma":
        rng = np.random.default_rng(SEED)
        rates = np.repeat([4.0, 0.5], [N // 2, N - N // 2])
        return (rng.gamma(2.0, size=N) / rates).reshape(-1, 1)
    return generate_bench("two-normals-1d", N, 1, SEED)


def run_cells():
    import numpy as np
    from mixmcmc import (ALGORITHM_IDS, HIERARCHY_TYPES, MIXING_TYPES, MemoryCollector,
                         build_algorithm, build_hierarchy, build_mixing)
    from mixmcmc.exceptions import ConfigError

    cells = []
    for algo in ALGORITHM_IDS:
        for hier_type in HIERARCHY_TYPES:
            for mix_type in MIXING_TYPES:
                hier = build_hierarchy(hier_type, HIER_ARGS[hier_type])
                mixing = build_mixing(mix_type, MIX_ARGS[mix_type])
                try:
                    algorithm = build_algorithm(algo, hier, mixing)
                except ConfigError:
                    continue  # not a valid cell
                cell = {"algorithm": algo, "family": hier_type, "mixing": mix_type}
                data = cell_data(hier_type)
                start = time.perf_counter()
                try:
                    algorithm.run(data, ITERATIONS, BURNIN, MemoryCollector(),
                                  np.random.default_rng(SEED))
                except Exception as err:  # recorded, never gated
                    cell.update(completed=False, error=f"{type(err).__name__}: {err}")
                else:
                    seconds = time.perf_counter() - start
                    cell.update(completed=True,
                                us_per_datum_sweep=1e6 * seconds / (N * ITERATIONS))
                cells.append(cell)
    return cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the record to this file")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixmcmc", "__init__.py")):
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, os.path.join(root, "src"))
    cells = run_cells()
    record = {
        "sizes": {"n": N, "d_nnw": D, "iterations": ITERATIONS, "burnin": BURNIN, "seed": SEED},
        "valid_cells": len(cells),
        "completed": sum(c["completed"] for c in cells),
        "cells": cells,
    }
    for c in cells:
        value = f"{c['us_per_datum_sweep']:10.1f} us" if c["completed"] else "FAILED " + c["error"]
        print(f"# {c['algorithm']:<13}{c['family']:<11}{c['mixing']:<8}{value}")
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(json.dumps({k: record[k] for k in ("valid_cells", "completed")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
