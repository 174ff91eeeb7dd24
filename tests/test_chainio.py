import json
import tracemalloc

import numpy as np
import pytest

from mixmcmc.chainio import (
    ChainState,
    ClusterParams,
    FileCollector,
    MemoryCollector,
    _format_cell,
    decode_state,
    encode_state,
    read_csv_matrix,
    write_csv_matrix,
)
from mixmcmc.exceptions import DecodeError


def random_state(rng, iteration):
    """Random but internally consistent chain record."""
    k = int(rng.integers(1, 5))
    n = int(rng.integers(k, 15))
    # allocations hitting every cluster at least once
    allocs = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(allocs)
    clusters = []
    counts = np.bincount(allocs, minlength=k)
    for h in range(k):
        if rng.random() < 0.5:
            params = {
                "mean": rng.normal(size=1),
                "var": rng.gamma(2.0, size=1),
            }
        else:
            a = rng.normal(size=(2, 2))
            params = {"mean": rng.normal(size=2), "cov": a @ a.T + np.eye(2)}
        clusters.append(ClusterParams(int(counts[h]), params))
    mixing = {"totalmass": float(rng.gamma(2.0))}
    if rng.random() < 0.5:
        mixing["sticks"] = rng.random(4)
    return ChainState(iteration, clusters, allocs, mixing)


def test_encode_decode_round_trip_exact():
    rng = np.random.default_rng(50)
    for t in range(300):
        state = random_state(rng, t)
        line = encode_state(state)
        assert "\n" not in line
        assert decode_state(line) == state


def test_decode_rejects_inconsistent_cardinalities():
    state = ChainState(
        0,
        [ClusterParams(2, {"mean": np.array([0.0]), "var": np.array([1.0])})],
        np.array([0]),
        {"totalmass": 1.0},
    )
    with pytest.raises(DecodeError):
        decode_state(encode_state(state))


def test_decode_rejects_out_of_range_allocations():
    state = ChainState(
        0,
        [ClusterParams(1, {"mean": np.array([0.0]), "var": np.array([1.0])})],
        np.array([1]),
        {"totalmass": 1.0},
    )
    with pytest.raises(DecodeError):
        decode_state(encode_state(state))


def test_decode_reports_index_of_negative_allocation():
    state = ChainState(
        0,
        [ClusterParams(1, {"mean": np.array([0.0]), "var": np.array([1.0])})],
        np.array([-1]),
        {"totalmass": 1.0},
    )
    with pytest.raises(DecodeError, match="out of range") as err:
        decode_state(encode_state(state), record_index=7)
    assert err.value.record_index == 7


@pytest.mark.parametrize("field, bad", [
    ("cluster_allocs", [0.7]), ("cardinality", 1.9), ("iteration_num", 2.6)])
def test_decode_rejects_non_integral_counts(field, bad):
    # a fraction used to be truncated: [0.7] read as allocation 0, 1.9 as
    # cardinality 1, 2.6 as iteration 2
    state = ChainState(
        0,
        [ClusterParams(1, {"mean": np.array([0.0]), "var": np.array([1.0])})],
        np.array([0]),
        {"totalmass": 1.0},
    )
    doc = json.loads(encode_state(state))
    if field == "cardinality":
        doc["cluster_states"][0]["cardinality"] = bad
    else:
        doc[field] = bad
    with pytest.raises(DecodeError, match=f"non-integral {field}") as err:
        decode_state(json.dumps(doc), record_index=4)
    assert err.value.record_index == 4
    doc["cluster_allocs"], doc["cluster_states"][0]["cardinality"] = [0.0], 1.0
    doc["iteration_num"] = 0.0
    assert decode_state(json.dumps(doc)) == state  # integral floats still decode

def test_memory_collector_basics():
    col = MemoryCollector()
    rng = np.random.default_rng(51)
    states = [random_state(rng, t) for t in range(3)]
    col.start_collecting()
    for s in states:
        col.collect(s)
    col.finish_collecting()
    assert len(col) == 3
    assert list(col) == states
    assert list(col) == states  # every pass replays from the start


def test_empty_collector_signals_end_immediately():
    assert list(MemoryCollector()) == []


def test_file_collector_round_trip(tmp_path):
    path = tmp_path / "run.chain"
    col = FileCollector(path)
    rng = np.random.default_rng(52)
    states = [random_state(rng, t) for t in range(20)]
    col.start_collecting()
    for s in states:
        col.collect(s)
    col.finish_collecting()
    assert len(col) == 20
    # replay from the same collector, twice
    assert list(col) == states
    assert list(col) == states
    # reopening the file yields the same chain
    fresh = FileCollector(path)
    assert len(fresh) == 20
    assert list(fresh) == states


def test_file_collector_reading_keeps_collected_records(tmp_path):
    path = tmp_path / "live.chain"
    col = FileCollector(path)
    rng = np.random.default_rng(57)
    states = [random_state(rng, t) for t in range(4)]
    col.start_collecting()
    for s in states[:3]:
        col.collect(s)
    assert list(col) == states[:3]
    col.collect(states[3])
    col.finish_collecting()
    assert len(col) == 4
    assert list(col) == states
    assert list(FileCollector(path)) == states
    # a collect after the chain is closed appends to it
    col.collect(states[0])
    col.finish_collecting()
    assert list(FileCollector(path)) == states + states[:1]


def test_a_collect_into_an_existing_file_appends_after_its_records(tmp_path):
    path = tmp_path / "old.chain"
    states = [random_state(np.random.default_rng(60), t) for t in range(3)]
    first = FileCollector(path)
    first.start_collecting()
    for s in states[:2]:
        first.collect(s)
    first.finish_collecting()
    again = FileCollector(path)
    again.collect(states[2])
    again.finish_collecting()
    assert len(again) == 3
    assert list(again) == states


def test_file_and_memory_collectors_replay_identically(tmp_path):
    rng = np.random.default_rng(53)
    states = [random_state(rng, t) for t in range(10)]
    mem = MemoryCollector()
    fil = FileCollector(tmp_path / "c.chain")
    for col in (mem, fil):
        col.start_collecting()
        for s in states:
            col.collect(s)
        col.finish_collecting()
    assert list(mem) == list(fil)


def test_a_second_run_replaces_the_chain_in_either_collector(tmp_path):
    # each run begins a new chain: a memory collector keeps the second run's
    # records only, as a file collector does
    from mixmcmc import DirichletMixing, build_algorithm, build_hierarchy

    hier = build_hierarchy("NNIG", {"fixed_values": {
        "mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}})
    data = np.random.default_rng(58).normal(size=(12, 1))
    mem, fil = MemoryCollector(), FileCollector(tmp_path / "twice.chain")
    for col in (mem, fil):
        algo = build_algorithm("Neal2", hier, DirichletMixing(1.0))
        for seed in (1, 2):
            algo.run(data, 8, 3, col, np.random.default_rng(seed))
    assert len(mem) == len(fil) == 5
    assert list(mem) == list(fil)


def test_a_sweep_that_raises_leaves_its_records_on_disk(tmp_path):
    # the chain file is closed when a sweep raises: every record collected
    # before the error is complete on disk, as in an uninterrupted run
    from mixmcmc import DirichletMixing, build_algorithm, build_hierarchy

    hier = build_hierarchy("NNIG", {"fixed_values": {
        "mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}})
    data = np.random.default_rng(59).normal(size=(50, 1))
    whole = FileCollector(tmp_path / "whole.chain")
    build_algorithm("Neal2", hier, DirichletMixing(1.0)).run(
        data, 100, 5, whole, np.random.default_rng(3))

    algo = build_algorithm("Neal2", hier, DirichletMixing(1.0))
    step, sweeps = algo.step, []

    def failing_step(rng):
        sweeps.append(None)
        if len(sweeps) == 40:
            raise RuntimeError("injected")
        step(rng)

    algo.step = failing_step
    cut = FileCollector(tmp_path / "cut.chain")
    with pytest.raises(RuntimeError, match="injected"):
        algo.run(data, 100, 5, cut, np.random.default_rng(3))
    assert cut._handle is None
    with open(tmp_path / "cut.chain", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(tmp_path / "whole.chain", encoding="utf-8") as fh:
        assert lines == fh.read().splitlines()[:34]


def test_truncated_final_record_reports_index(tmp_path):
    path = tmp_path / "trunc.chain"
    col = FileCollector(path)
    rng = np.random.default_rng(54)
    col.start_collecting()
    col.collect(random_state(rng, 0))
    col.collect(random_state(rng, 1))
    col.finish_collecting()
    raw = path.read_text()
    lines = raw.strip("\n").split("\n")
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # cut the second record mid-way
    path.write_text("\n".join(lines) + "\n")
    replay = iter(FileCollector(path))
    assert next(replay) is not None
    with pytest.raises(DecodeError) as err:
        next(replay)
    assert err.value.record_index == 2


def test_read_csv_single_column(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0\n2.0\n")
    mat = read_csv_matrix(p)
    assert mat.shape == (2, 1)
    assert np.array_equal(mat, [[1.0], [2.0]])


def test_read_csv_two_columns(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(read_csv_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_read_csv_ragged_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        read_csv_matrix(p)


def test_read_csv_non_numeric(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_csv_matrix(p)


def test_read_csv_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv_matrix(p)


def test_read_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0\nnan\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_csv_matrix(p)


def test_read_csv_takes_minus_inf_only_where_allowed(tmp_path):
    # a log density is -inf off the kernel's support; data and grids take none
    p = tmp_path / "h.csv"
    p.write_text("-inf,1.5\n-2.0,-inf\n")
    assert np.array_equal(read_csv_matrix(p, allow_neg_inf=True),
                          [[-np.inf, 1.5], [-2.0, -np.inf]])
    with pytest.raises(ValueError, match="non-finite"):
        read_csv_matrix(p)
    for text in ("-inf,nan\n", "-inf,inf\n"):
        p.write_text(text)
        with pytest.raises(ValueError, match="other than -inf"):
            read_csv_matrix(p, allow_neg_inf=True)
    p.write_text("-inf,1.0\n-inf\n")
    with pytest.raises(ValueError, match="ragged"):
        read_csv_matrix(p, allow_neg_inf=True)
    p.write_text("-inf,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_csv_matrix(p, allow_neg_inf=True)


def test_write_csv_round_trip(tmp_path):
    rng = np.random.default_rng(56)
    mat = rng.normal(size=(7, 3))
    p = tmp_path / "g.csv"
    write_csv_matrix(p, mat)
    assert np.array_equal(read_csv_matrix(p), mat)
    write_csv_matrix(p, np.array([1, 2, 3]))
    assert np.array_equal(read_csv_matrix(p), [[1.0], [2.0], [3.0]])


def test_write_csv_non_finite_cells(tmp_path):
    p = tmp_path / "h.csv"
    write_csv_matrix(p, np.array([[-np.inf, 0.5, 2.0], [np.nan, np.inf, -3.0]]))
    assert p.read_text() == "-inf,0.5,2\nnan,inf,-3\n"


def test_write_csv_integer_arrays_match_the_cell_format(tmp_path):
    rng = np.random.default_rng(57)
    ints = rng.integers(-50, 50, size=(6, 4))
    ints[0, 0] = 10**15  # beyond the integer form: written as a float
    for arr in (ints, ints[1:], ints[:, 0], ints.astype(np.uint8)):
        write_csv_matrix(tmp_path / "i.csv", arr)
        write_csv_matrix(tmp_path / "f.csv", arr.astype(float))
        assert (tmp_path / "i.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


def test_write_csv_float_rows_match_the_cell_format(tmp_path):
    # rows with and without integral cells, around every special case of the cell format
    rng = np.random.default_rng(58)
    mat = rng.normal(size=(12, 5)) * 1e3
    mat[1, 2] = -0.0
    mat[2, 0] = 4.0
    mat[3, 4] = 1e15 - 1.0
    mat[4, 1] = 1e15
    mat[5, 3] = -1e15
    mat[6, :3] = [np.inf, -np.inf, np.nan]
    mat[7, 0] = 0.0
    mat[8, 2] = 123456789012.5
    mat[9] = [2.5e15, 1e300, -1e-300, 5e-324, 0.1]
    with np.errstate(over="ignore"):  # 1e300 becomes inf in single precision
        single = mat.astype(np.float32)
    for arr in (mat, single, mat[:, 0], mat[:0]):
        p = tmp_path / "m.csv"
        write_csv_matrix(p, arr)
        rows = arr[:, None] if arr.ndim == 1 else arr
        want = "".join(",".join(_format_cell(v) for v in row) + "\n" for row in rows)
        assert p.read_text() == want


def test_write_csv_keeps_its_bytes_and_holds_no_list_of_the_matrix(tmp_path):
    # the text the writer gave when it converted the whole matrix at once
    p = tmp_path / "k.csv"
    write_csv_matrix(p, np.array([[2.0, -np.inf, 0.25, np.nan], [-0.0, 1e15, 7.0, -3.5],
                                  [np.inf, 0.1, 1e-300, -1e15 + 1]]))
    assert p.read_bytes() == (b"2,-inf,0.25,nan\n0,1000000000000000.0,7,-3.5\n"
                              b"inf,0.1,1e-300,-999999999999999\n")
    # a bool matrix, and an int one with a cell of 1e15 or more, are written as floats
    write_csv_matrix(p, np.array([[True, False], [False, False]]))
    assert p.read_bytes() == b"1,0\n0,0\n"
    write_csv_matrix(p, np.array([[10**15, -10**15, 3], [2**62, 0, -1]]))
    assert p.read_bytes() == (b"1000000000000000.0,-1000000000000000.0,3\n"
                              b"4.611686018427388e+18,0,-1\n")
    # a density grid converts row by row: this one as a list of Python floats
    # would take about 6 MB (the README's 1000 x 601 grid about 18 MB)
    grid = np.random.default_rng(59).normal(size=(300, 601))
    grid[::7, 5] = -np.inf
    for arr in (grid, np.arange(300 * 601).reshape(300, 601)):
        tracemalloc.start()
        try:
            write_csv_matrix(tmp_path / "big.csv", arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
