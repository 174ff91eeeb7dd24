"""Output checks behind the benchmark's ``failed`` count.

A run of the pipeline fails when it raises or when any check here reports
a problem: an output file that does not parse with the expected shape, a
1-d mean density that does not integrate to 1 +- 0.02 over its grid, a
Binder estimate that mixes the generating groups (group purity below the
workload's floor), or output bytes that differ from another run on the
same inputs.
"""

import hashlib
import math
import os
from collections import Counter

OUTPUTS = ("dens", "dens_mean", "n_cl", "clus", "best")
DENSITY_TOLERANCE = 0.02


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [[float(cell) for cell in line.split(",")] for line in fh if line.strip()]


def _shape_problem(rows, want_rows, want_cols, integer=False, low=None, high=None):
    if len(rows) != want_rows or any(len(r) != want_cols for r in rows):
        got_cols = sorted({len(r) for r in rows})
        return f"shape {len(rows)}x{got_cols}, expected {want_rows}x{want_cols}"
    for row in rows:
        for v in row:
            if math.isnan(v):
                return "NaN entry"
            if integer and v != int(v):
                return f"non-integer entry {v!r}"
            if (low is not None and v < low) or (high is not None and v > high):
                return f"entry {v!r} outside [{low}, {high}]"
    return None


def _integral(grid, log_density):
    total = 0.0
    for i in range(1, len(grid)):
        total += 0.5 * (grid[i] - grid[i - 1]) * (
            math.exp(log_density[i]) + math.exp(log_density[i - 1]))
    return total


def check_outputs(files, records, n, grid):
    """Problems with one run's output files; ``grid`` is the list of grid rows."""
    expected = {
        "dens": (records, len(grid), {}),
        "dens_mean": (1, len(grid), {}),
        "n_cl": (records, 1, {"integer": True, "low": 1, "high": n}),
        "clus": (records, n, {"integer": True, "low": 0, "high": n - 1}),
        "best": (1, n, {"integer": True, "low": 0, "high": n - 1}),
    }
    problems = []
    rows = {}
    for name in OUTPUTS:
        want_rows, want_cols, opts = expected[name]
        try:
            rows[name] = _read_rows(files[name])
        except (OSError, ValueError) as err:
            problems.append(f"{name}: unreadable ({err})")
            continue
        problem = _shape_problem(rows[name], want_rows, want_cols, **opts)
        if problem:
            problems.append(f"{name}: {problem}")
    if "dens_mean" in rows and len(grid[0]) == 1 and not any("dens_mean" in p for p in problems):
        mass = _integral([g[0] for g in grid], rows["dens_mean"][0])
        if abs(mass - 1.0) > DENSITY_TOLERANCE:
            problems.append(f"dens_mean: integrates to {mass:.4f} over the grid")
    return problems


def group_purity(clustering, labels):
    """Share of the data whose cluster's most common generating group is their own.

    Splitting a generating group into several clusters keeps the purity at 1;
    only clusters that mix the groups lower it.
    """
    members = {}
    for cluster, label in zip(clustering, labels):
        members.setdefault(cluster, Counter())[label] += 1
    return sum(max(c.values()) for c in members.values()) / len(labels)


def check_quality(result, purity_floor):
    if purity_floor is not None and result["purity"] < purity_floor:
        return [f"group purity {result['purity']:.3f} below the floor {purity_floor} "
                f"(ari {result['ari']:.3f})"]
    return []


def digests(files, names):
    out = {}
    for name in names:
        path = files[name]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            out[name] = None
    return out


def compare_digests(reference, got, what):
    """Problems when a run's outputs differ from the reference run on the same inputs."""
    differ = sorted(k for k in reference if got.get(k) != reference[k])
    if differ:
        return [f"{what}: bytes differ from the first run on these inputs: {', '.join(differ)}"]
    return []
