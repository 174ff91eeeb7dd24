"""Chain records, collectors and CSV ingestion.

A chain record is one retained MCMC state. On disk it is a single JSON
line with fixed field names: ``iteration_num``, ``cluster_states`` (each
with ``cardinality`` and a ``params`` map of name -> row-major data plus
shape), ``cluster_allocs`` and ``mixing_state``. Python's shortest
round-trip float repr makes the encoding lossless, so replayed chains are
bit-identical to the collected ones.
"""

import json
import math
import os

import numpy as np

from .exceptions import DecodeError


class ClusterParams:
    """Snapshot of one component: cardinality plus named parameter arrays."""

    __slots__ = ("cardinality", "params")

    def __init__(self, cardinality, params):
        self.cardinality = int(cardinality)
        self.params = params

    def __eq__(self, other):
        if not isinstance(other, ClusterParams):
            return NotImplemented
        if self.cardinality != other.cardinality:
            return False
        if set(self.params) != set(other.params):
            return False
        return all(np.array_equal(self.params[k], other.params[k]) for k in self.params)

    def __repr__(self):
        return f"ClusterParams(cardinality={self.cardinality}, params={list(self.params)})"


class ChainState:
    """One retained iteration: component snapshots, allocations, mixing state."""

    __slots__ = ("iteration", "cluster_states", "allocations", "mixing_params")

    def __init__(self, iteration, cluster_states, allocations, mixing_params):
        self.iteration = int(iteration)
        self.cluster_states = list(cluster_states)
        self.allocations = np.asarray(allocations, dtype=int)
        self.mixing_params = mixing_params

    def num_clusters(self):
        return len(set(self.allocations.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ChainState):
            return NotImplemented
        if self.iteration != other.iteration:
            return False
        if not np.array_equal(self.allocations, other.allocations):
            return False
        if self.cluster_states != other.cluster_states:
            return False
        if set(self.mixing_params) != set(other.mixing_params):
            return False
        return all(np.array_equal(self.mixing_params[k], other.mixing_params[k])
                   for k in self.mixing_params)

    def __repr__(self):
        return (
            f"ChainState(iteration={self.iteration}, "
            f"k={len(self.cluster_states)}, n={self.allocations.shape[0]})"
        )


def _encode_array(arr):
    arr = np.asarray(arr, dtype=float)
    return {"data": arr.reshape(-1).tolist(), "shape": list(arr.shape)}


def _decode_array(obj):
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])


def encode_state(state):
    """Serialize a :class:`ChainState` to one line of text."""
    mixing = {}
    for key, value in state.mixing_params.items():
        if isinstance(value, np.ndarray):
            mixing[key] = _encode_array(value)
        else:
            mixing[key] = float(value)
    doc = {
        "iteration_num": state.iteration,
        "cluster_states": [
            {
                "cardinality": cs.cardinality,
                "params": {k: _encode_array(v) for k, v in cs.params.items()},
            }
            for cs in state.cluster_states
        ],
        "cluster_allocs": state.allocations.tolist(),
        "mixing_state": mixing,
    }
    return json.dumps(doc, separators=(",", ":"))


def _check_integral(values, name):
    """Raise a ValueError if a number in the list has a fractional part."""
    if type(sum(values)) is not int:  # a float among them; a sum of ints is an int
        arr = np.asarray(values, dtype=float)
        if not (np.isfinite(arr).all() and (arr == np.floor(arr)).all()):
            raise ValueError(f"non-integral {name} entry")


def decode_state(line, record_index=None):
    """Parse one serialized record; validates allocation/cardinality consistency."""
    try:
        doc = json.loads(line)
        _check_integral([cs["cardinality"] for cs in doc["cluster_states"]], "cardinality")
        clusters = [
            ClusterParams(
                cs["cardinality"],
                {k: _decode_array(v) for k, v in cs["params"].items()},
            )
            for cs in doc["cluster_states"]
        ]
        mixing = {}
        for key, value in doc["mixing_state"].items():
            mixing[key] = _decode_array(value) if isinstance(value, dict) else float(value)
        _check_integral(doc["cluster_allocs"], "cluster_allocs")
        _check_integral([doc["iteration_num"]], "iteration_num")
        state = ChainState(doc["iteration_num"], clusters, doc["cluster_allocs"], mixing)
    except (KeyError, TypeError, ValueError) as err:
        raise DecodeError(f"malformed chain record: {err}", record_index) from None
    if state.allocations.size and (
        state.allocations.min() < 0 or state.allocations.max() >= len(clusters)
    ):
        raise DecodeError("allocation out of range", record_index)
    counts = np.bincount(state.allocations, minlength=len(clusters))
    for h, cs in enumerate(clusters):
        if counts[h] != cs.cardinality:
            raise DecodeError(
                f"cluster {h} cardinality {cs.cardinality} != allocation count {counts[h]}",
                record_index,
            )
    return state


class MemoryCollector:
    """Keeps the chain in a list."""

    def __init__(self):
        self._states = []

    def start_collecting(self):
        """Begin a new chain: the records of an earlier one are dropped."""
        self._states = []

    def finish_collecting(self):
        pass

    def collect(self, state):
        self._states.append(state)

    def __iter__(self):
        return iter(list(self._states))

    def __len__(self):
        return len(self._states)


class FileCollector:
    """Streams records to a line-delimited chain file and replays them.

    ``start_collecting`` begins a new chain and truncates the file; a
    ``collect`` outside of it appends. Reading flushes pending records and
    leaves collection open. An existing file's records are counted only
    when ``len`` or an appending ``collect`` needs the count.
    """

    def __init__(self, path):
        self.path = str(path)
        self._handle = None
        self._size = None  # not counted yet

    def _count_records(self):
        if not os.path.exists(self.path):
            return 0
        count = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    count += 1
        return count

    def start_collecting(self):
        self._handle = open(self.path, "w", encoding="utf-8")
        self._size = 0

    def finish_collecting(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def collect(self, state):
        if self._handle is None:
            self._size = len(self)  # the records it appends to
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(encode_state(state))
        self._handle.write("\n")
        self._size += 1

    def _read_records(self):
        if self._handle is not None:
            self._handle.flush()
        index = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                index += 1
                yield decode_state(line, record_index=index)

    def __iter__(self):
        return self._read_records()

    def __len__(self):
        if self._size is None:
            self._size = self._count_records()
        return self._size


def read_csv_matrix(path, allow_neg_inf=False):
    """Read a rectangular headerless numeric CSV into an (n, d) float array.

    Every cell must be finite; with ``allow_neg_inf`` a cell may also be
    -inf, a log density where the density is zero.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(cells)} cells, expected {width})"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell at line {lineno}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    matrix = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(matrix)
    if allow_neg_inf:
        bad &= matrix != -np.inf
    if bad.any():
        raise ValueError(f"{path}: matrix contains non-finite entries"
                         + (" other than -inf" if allow_neg_inf else ""))
    return matrix


def write_csv_matrix(path, matrix):
    """Write a 1-d or 2-d array as headerless CSV with lossless float repr.

    Integral values below 1e15 are written as integers, non-finite ones as
    ``inf``, ``-inf`` or ``nan``.
    """
    arr = np.asarray(matrix)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    # each row goes to Python numbers on its own, so no list of the whole matrix is held
    if arr.dtype.kind in "iu" and (arr.size == 0 or -1e15 < arr.min() and arr.max() < 1e15):
        # the same text as _format_cell, without a Python call per cell
        lines = (",".join(map(str, row.tolist())) for row in arr)
    else:
        # any other dtype is written as its float cells; a row without a finite
        # integral cell is _format_cell's repr throughout
        arr = arr.astype(float, copy=False)
        lines = (",".join(map(_format_cell if _has_integral(row) else repr, row.tolist()))
                 for row in arr)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _has_integral(row):
    """Whether a float row has a cell that ``_format_cell`` writes as an integer."""
    return bool((np.isfinite(row) & (row == np.trunc(row)) & (np.abs(row) < 1e15)).any())


def _format_cell(value):
    f = float(value)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)
