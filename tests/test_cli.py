import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mixmcmc import chainio, postprocess, svgplot
from mixmcmc.chainio import read_csv_matrix
from mixmcmc.cli import main

ALGO_TEXT = """
algo_id: "Neal2"
rng_seed: 20201124
iterations: 300
burnin: 100
init_num_clusters: 3
"""

G0_TEXT = """
fixed_values {
    mean: 0.0
    var_scaling: 0.1
    shape: 2.0
    scale: 2.0
}
"""

DP_TEXT = "fixed_value { totalmass: 1.0 }\n"


def _write_run_inputs(tmp_path, algo_text=ALGO_TEXT):
    (tmp_path / "algo.txt").write_text(algo_text)
    (tmp_path / "g0.txt").write_text(G0_TEXT)
    (tmp_path / "dp.txt").write_text(DP_TEXT)
    rng = np.random.default_rng(0)
    data = np.concatenate([rng.normal(size=40) - 3, rng.normal(size=40) + 3])
    (tmp_path / "data.csv").write_text("".join(f"{float(v)!r}\n" for v in data))
    grid = np.linspace(-6, 6, 120)
    (tmp_path / "grid.csv").write_text("".join(f"{float(v)!r}\n" for v in grid))


def _full_run_args(tmp_path):
    return [
        "run-mcmc",
        "--algo-params-file", str(tmp_path / "algo.txt"),
        "--hier-type", "NNIG",
        "--hier-args", str(tmp_path / "g0.txt"),
        "--mix-type", "DP",
        "--mix-args", str(tmp_path / "dp.txt"),
        "--coll-name", str(tmp_path / "chains.chain"),
        "--data-file", str(tmp_path / "data.csv"),
        "--grid-file", str(tmp_path / "grid.csv"),
        "--dens-file", str(tmp_path / "dens.csv"),
        "--n-cl-file", str(tmp_path / "ncl.csv"),
        "--clus-file", str(tmp_path / "clus.csv"),
        "--best-clus-file", str(tmp_path / "best.csv"),
    ]


def test_full_run_produces_all_outputs(tmp_path):
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    for name in ("chains.chain", "dens.csv", "dens.mean.csv", "ncl.csv", "clus.csv", "best.csv"):
        assert (tmp_path / name).exists(), name
    dens = read_csv_matrix(tmp_path / "dens.csv")
    assert dens.shape == (200, 120)
    ncl = read_csv_matrix(tmp_path / "ncl.csv")
    assert ncl.shape == (200, 1)
    clus = read_csv_matrix(tmp_path / "clus.csv")
    assert clus.shape == (200, 80)
    best = read_csv_matrix(tmp_path / "best.csv")
    assert best.shape == (1, 80)
    mean = read_csv_matrix(tmp_path / "dens.mean.csv")
    assert mean.shape == (1, 120)
    # chain file holds the retained records
    assert sum(1 for _ in open(tmp_path / "chains.chain")) == 200


def test_skip_rule_omits_outputs(tmp_path):
    _write_run_inputs(tmp_path)
    args = [
        "run-mcmc",
        "--algo-params-file", str(tmp_path / "algo.txt"),
        "--hier-type", "NNIG",
        "--hier-args", str(tmp_path / "g0.txt"),
        "--mix-type", "DP",
        "--mix-args", str(tmp_path / "dp.txt"),
        "--coll-name", "memory",
        "--data-file", str(tmp_path / "data.csv"),
        "--n-cl-file", str(tmp_path / "ncl.csv"),
    ]
    assert main(args) == 0
    assert (tmp_path / "ncl.csv").exists()
    assert not (tmp_path / "dens.csv").exists()
    assert not (tmp_path / "clus.csv").exists()
    assert not (tmp_path / "chains.chain").exists()


def test_byte_identical_outputs_across_runs(tmp_path):
    _write_run_inputs(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        out.mkdir()
        args = [
            "run-mcmc",
            "--algo-params-file", str(tmp_path / "algo.txt"),
            "--hier-type", "NNIG",
            "--hier-args", str(tmp_path / "g0.txt"),
            "--mix-type", "DP",
            "--mix-args", str(tmp_path / "dp.txt"),
            "--coll-name", str(out / "chains.chain"),
            "--data-file", str(tmp_path / "data.csv"),
            "--grid-file", str(tmp_path / "grid.csv"),
            "--dens-file", str(out / "dens.csv"),
            "--n-cl-file", str(out / "ncl.csv"),
            "--clus-file", str(out / "clus.csv"),
            "--best-clus-file", str(out / "best.csv"),
        ]
        assert main(args) == 0
    for name in ("chains.chain", "dens.csv", "dens.mean.csv", "ncl.csv", "clus.csv", "best.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_file_chain_is_decoded_once(tmp_path, monkeypatch):
    # every output reads the one decoded list: one decode per record
    decoded = []
    decode = chainio.decode_state

    def counting_decode(line, record_index=None):
        decoded.append(record_index)
        return decode(line, record_index)

    monkeypatch.setattr(chainio, "decode_state", counting_decode)
    file_out, memory_out = tmp_path / "file", tmp_path / "memory"
    for out, chain in ((file_out, str(file_out / "chains.chain")), (memory_out, "memory")):
        out.mkdir()
        _write_run_inputs(out)
        args = _full_run_args(out)
        args[args.index("--coll-name") + 1] = chain
        assert main(args) == 0
    assert decoded == list(range(1, 201))
    for name in ("dens.csv", "dens.mean.csv", "ncl.csv", "clus.csv", "best.csv"):
        assert (file_out / name).read_bytes() == (memory_out / name).read_bytes(), name


@pytest.mark.parametrize("extra", [
    "updater: \"rwmh\"\nnum_steps: 0\n",
    "updater: \"mala\"\nnum_steps: -3\n",
    "updater: \"rwmh\"\nstep_size: \"abc\"\n",
    "updater: \"mala\"\nstep_size: true\n",
    "updater: [1.0]\n",
])
def test_bad_metropolis_arguments_exit_with_an_error_line(tmp_path, capsys, extra):
    _write_run_inputs(tmp_path, algo_text=ALGO_TEXT.replace('"Neal2"', '"Neal8"'))
    (tmp_path / "lap.txt").write_text(
        "fixed_values {\n mean: 0.0\n var: 25.0\n shape: 2.0\n scale: 2.0\n}\n" + extra
    )
    args = _full_run_args(tmp_path)
    args[args.index("NNIG")] = "LapNIG"
    args[args.index("--hier-args") + 1] = str(tmp_path / "lap.txt")
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_metropolis_updater_on_nnw_stops_before_the_chain_file(tmp_path, capsys):
    # NNW has no unconstrained parameterization: the run must stop at setup,
    # not after a sweep that has already truncated the chain file
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    chain = tmp_path / "chains.chain"
    before = chain.read_bytes()
    assert before
    (tmp_path / "algo.txt").write_text(ALGO_TEXT.replace('"Neal2"', '"Neal8"'))
    rng = np.random.default_rng(2)
    (tmp_path / "data.csv").write_text(
        "".join(f"{a!r},{b!r}\n" for a, b in rng.normal(size=(40, 2)).tolist()))
    (tmp_path / "nnw.txt").write_text(
        "fixed_values {\n mean { size: 2 data: [0.0, 0.0] }\n var_scaling: 0.1\n"
        " deg_free: 5.0\n scale { rows: 2 cols: 2 data: [1.0, 0.0, 0.0, 1.0] }\n}\n"
        'updater: "mala"\n')
    args = _full_run_args(tmp_path)
    args = args[:args.index("--grid-file")] + ["--n-cl-file", str(tmp_path / "ncl.csv")]
    args[args.index("NNIG")] = "NNW"
    args[args.index("--hier-args") + 1] = str(tmp_path / "nnw.txt")
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert chain.read_bytes() == before


@pytest.mark.parametrize("file_name, text", [
    ("g0.txt", G0_TEXT + 'updater: "rwmh"\nstep_size: 1e400\n'),
    ("dp.txt", "fixed_value { totalmass: 1e400 }\n"),
], ids=["step_size", "totalmass"])
def test_infinite_positive_value_stops_before_the_chain_file(tmp_path, capsys, file_name, text):
    # 1e400 parses to inf, which is not a positive finite scalar; the run must
    # stop at setup, before it truncates the chain file
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    chain = tmp_path / "chains.chain"
    before = chain.read_bytes()
    (tmp_path / "algo.txt").write_text(ALGO_TEXT.replace('"Neal2"', '"Neal8"'))
    (tmp_path / file_name).write_text(text)
    capsys.readouterr()
    assert main(_full_run_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert chain.read_bytes() == before


@pytest.mark.parametrize("file_name, old, new, key", [
    ("algo.txt", '"Neal2"', '"Neal9"', "algo_id"),
    ("algo.txt", "iterations: 300", "iterations: 0", "iterations"),
    ("algo.txt", "burnin: 100", "burnin: -1", "burnin"),
    ("algo.txt", "burnin: 100", "burnin: 300", "burnin"),
    ("algo.txt", "init_num_clusters: 3", "init_num_clusters: 0", "init_num_clusters"),
    # an error in building a parameter file names the file
    ("algo.txt", "rng_seed: 20201124", "rng_seed: -1", "algo.txt: rng_seed"),
    ("algo.txt", '"Neal2"', '"Neal8"\nneal8_n_aux: 0', "algo.txt: neal8_n_aux"),
    ("g0.txt", "scale: 2.0", "scale: -2.0", "g0.txt: 'scale'"),
    ("g0.txt", "}", '}\nupdater: "rwmh"\nstep_size: 0.0', "g0.txt: 'step_size'"),
    ("g0.txt", "}", '}\nupdater: "hmc"', "g0.txt: key 'updater'"),
], ids=["algo_id", "iterations", "negative_burnin", "burnin_at_iterations",
        "init_num_clusters", "negative_rng_seed", "neal8_n_aux", "scale", "step_size",
        "updater"])
def test_invalid_run_parameter_stops_before_the_chain_file(tmp_path, capsys, file_name, old,
                                                           new, key):
    # the builders and the sampler's run check these keys, before any sweep
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    chain = tmp_path / "chains.chain"
    before = chain.read_bytes()
    text = {"algo.txt": ALGO_TEXT, "g0.txt": G0_TEXT}[file_name]
    assert old in text
    (tmp_path / file_name).write_text(text.replace(old, new))
    capsys.readouterr()
    assert main(_full_run_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert chain.read_bytes() == before


def test_gamma_density_on_a_grid_reaching_zero_is_written(tmp_path):
    # the Gamma kernel has log density -inf at y <= 0; the run must still finish
    _write_run_inputs(tmp_path)
    (tmp_path / "g0.txt").write_text("fixed_values { shape: 2.0 rate_alpha: 2.0 rate_beta: 2.0 }\n")
    rng = np.random.default_rng(1)
    data = rng.gamma(2.0, size=40)
    (tmp_path / "data.csv").write_text("".join(f"{float(v)!r}\n" for v in data))
    (tmp_path / "grid.csv").write_text("-1.0\n0.0\n0.5\n2.0\n")
    args = _full_run_args(tmp_path)
    args[args.index("NNIG")] = "GammaGamma"
    assert main(args) == 0
    rows = (tmp_path / "dens.csv").read_text().splitlines()
    assert len(rows) == 200
    assert all(row.startswith("-inf,-inf,") for row in rows)
    mean = (tmp_path / "dens.mean.csv").read_text().split(",")
    assert mean[:2] == ["-inf", "-inf"] and np.isfinite(float(mean[2]))


def test_incompatible_model_exits_nonzero(tmp_path, capsys):
    _write_run_inputs(tmp_path)
    (tmp_path / "lap.txt").write_text(
        "fixed_values {\n mean: 0.0\n var: 25.0\n shape: 2.0\n scale: 2.0\n}\n"
    )
    args = [
        "run-mcmc",
        "--algo-params-file", str(tmp_path / "algo.txt"),
        "--hier-type", "LapNIG",
        "--hier-args", str(tmp_path / "lap.txt"),
        "--mix-type", "DP",
        "--mix-args", str(tmp_path / "dp.txt"),
        "--data-file", str(tmp_path / "data.csv"),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_nonzero(tmp_path, capsys):
    _write_run_inputs(tmp_path)
    args = _full_run_args(tmp_path)
    args[args.index("--data-file") + 1] = str(tmp_path / "missing.csv")
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_exits_nonzero(tmp_path, capsys):
    _write_run_inputs(tmp_path, algo_text='algo_id: "Neal9"\nrng_seed: 1\niterations: 10\nburnin: 1\ninit_num_clusters: 1\n')
    assert main(_full_run_args(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_plot_writes_three_wellformed_svgs(tmp_path):
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    out_dir = tmp_path / "plots"
    args = [
        "plot",
        "--grid-file", str(tmp_path / "grid.csv"),
        "--dens-file", str(tmp_path / "dens.csv"),
        "--n-cl-file", str(tmp_path / "ncl.csv"),
        "--out-dir", str(out_dir),
    ]
    assert main(args) == 0
    names = ["density.svg", "cluster_count_hist.svg", "cluster_count_trace.svg"]
    for name in names:
        doc = (out_dir / name).read_text()
        root = ET.fromstring(doc)  # well-formed XML
        assert root.tag.endswith("svg")
    # plotting is deterministic
    first = [(out_dir / n).read_bytes() for n in names]
    assert main(args) == 0
    assert [(out_dir / n).read_bytes() for n in names] == first


def test_plot_takes_the_minus_inf_densities_run_mcmc_writes(tmp_path, capsys):
    # a Gamma kernel has density 0 at and below 0, so a grid from -1 to 5
    # gives -inf log densities in both the per-record and the mean file
    _write_run_inputs(tmp_path)
    (tmp_path / "g0.txt").write_text(
        "fixed_values {\n  shape: 2.0\n  rate_alpha: 2.0\n  rate_beta: 2.0\n}\n")
    rng = np.random.default_rng(1)
    (tmp_path / "data.csv").write_text("".join(f"{float(v)!r}\n" for v in rng.gamma(2.0, size=30)))
    (tmp_path / "grid.csv").write_text(
        "".join(f"{float(v)!r}\n" for v in np.linspace(-1.0, 5.0, 25)))
    args = _full_run_args(tmp_path)
    args[args.index("NNIG")] = "GammaGamma"
    assert main(args) == 0
    for name in ("dens.csv", "dens.mean.csv"):
        dens = read_csv_matrix(tmp_path / name, allow_neg_inf=True)
        assert np.isneginf(dens).any() and np.isfinite(dens).any()
        out_dir = tmp_path / f"plots-{name}"
        assert main(["plot", "--grid-file", str(tmp_path / "grid.csv"),
                     "--dens-file", str(tmp_path / name),
                     "--n-cl-file", str(tmp_path / "ncl.csv"),
                     "--out-dir", str(out_dir)]) == 0, capsys.readouterr().err
        assert ET.fromstring((out_dir / "density.svg").read_text()).tag.endswith("svg")
    # a grid file still takes no -inf, and a density file no nan or +inf
    (tmp_path / "grid.csv").write_text("-inf\n" + "1.0\n" * 24)
    (tmp_path / "bad.csv").write_text(",".join(["-inf", "nan"] + ["0.0"] * 23) + "\n")
    for grid, dens in (("grid.csv", "dens.csv"), ("data.csv", "bad.csv")):
        capsys.readouterr()
        assert main(["plot", "--grid-file", str(tmp_path / grid),
                     "--dens-file", str(tmp_path / dens),
                     "--n-cl-file", str(tmp_path / "ncl.csv"),
                     "--out-dir", str(tmp_path / "plots")]) == 1
        assert "non-finite" in capsys.readouterr().err


def test_plot_errors_on_mismatched_inputs(tmp_path, capsys):
    (tmp_path / "grid.csv").write_text("0.0\n1.0\n")
    (tmp_path / "dens.csv").write_text("-1.0,-1.0,-1.0\n")
    (tmp_path / "ncl.csv").write_text("2\n")
    args = [
        "plot",
        "--grid-file", str(tmp_path / "grid.csv"),
        "--dens-file", str(tmp_path / "dens.csv"),
        "--n-cl-file", str(tmp_path / "ncl.csv"),
        "--out-dir", str(tmp_path / "plots"),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bench_two_normals(tmp_path):
    out = tmp_path / "data.csv"
    args = ["bench", "--kind", "two-normals-1d", "--n", "200", "--seed", "4", "--out", str(out)]
    assert main(args) == 0
    mat = read_csv_matrix(out)
    assert mat.shape == (200, 1)
    assert abs(mat[:100].mean() + 3.0) < 0.5
    assert abs(mat[100:].mean() - 3.0) < 0.5


def test_bench_highdim_statistics(tmp_path):
    out = tmp_path / "hd.csv"
    args = ["bench", "--kind", "highdim", "--n", "10000", "--d", "4", "--seed", "9", "--out", str(out)]
    assert main(args) == 0
    mat = read_csv_matrix(out)
    assert mat.shape == (10000, 4)
    # two equally weighted components at ±2 per coordinate: mean near 0
    assert np.all(np.abs(mat.mean(axis=0)) < 0.1)


def test_bench_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["bench", "--kind", "highdim", "--n", "50", "--d", "3",
                     "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_rejects_bad_sizes(tmp_path, capsys):
    assert main(["bench", "--kind", "highdim", "--n", "1", "--d", "2",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["bench", "--kind", "highdim", "--n", "10", "--d", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_histogram_single_bar():
    doc = svgplot.histogram_svg(np.array([3, 3, 3, 3]))
    root = ET.fromstring(doc)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # one background plus exactly one bar
    assert len(rects) == 2


def test_svg_renderers_reject_empty_series():
    with pytest.raises(ValueError):
        svgplot.histogram_svg(np.array([], dtype=int))
    with pytest.raises(ValueError):
        svgplot.traceplot_svg(np.array([]))
    with pytest.raises(ValueError):
        svgplot.density_curve_svg(np.array([0.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize("hier_type, text", [
    ("NNIG", G0_TEXT.replace("mean: 0.0", "mean: 1e999")),
    ("NNW", "fixed_values {\n mean { size: 2 data: [0.0, 1e999] }\n var_scaling: 0.1\n"
            " deg_free: 5.0\n scale { rows: 2 cols: 2 data: [1.0, 0.0, 0.0, 1.0] }\n}\n"),
], ids=["NNIG", "NNW"])
def test_infinite_mean_stops_before_the_chain_file(tmp_path, capsys, hier_type, text):
    # 1e999 parses to inf; the run must name the key at setup, not die in its
    # first sweep after emptying the chain file
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    chain = tmp_path / "chains.chain"
    before = chain.read_bytes()
    (tmp_path / "hier.txt").write_text(text)
    if hier_type == "NNW":
        rng = np.random.default_rng(2)
        (tmp_path / "data.csv").write_text(
            "".join(f"{a!r},{b!r}\n" for a, b in rng.normal(size=(40, 2)).tolist()))
    args = _full_run_args(tmp_path)
    args = args[:args.index("--grid-file")] + ["--n-cl-file", str(tmp_path / "ncl.csv")]
    args[args.index("NNIG")] = hier_type
    args[args.index("--hier-args") + 1] = str(tmp_path / "hier.txt")
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'mean'" in err
    assert chain.read_bytes() == before


def test_dens_file_without_grid_file_is_an_error(tmp_path, capsys):
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    chain = tmp_path / "chains.chain"
    before = chain.read_bytes()
    (tmp_path / "dens.csv").unlink()
    args = _full_run_args(tmp_path)
    del args[args.index("--grid-file"):args.index("--grid-file") + 2]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == "error: --dens-file needs --grid-file\n"
    assert chain.read_bytes() == before
    assert not (tmp_path / "dens.csv").exists()


def test_grid_file_without_dens_file_is_an_error(tmp_path, capsys):
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path)) == 0
    chain = tmp_path / "chains.chain"
    before = chain.read_bytes()
    args = _full_run_args(tmp_path)
    del args[args.index("--dens-file"):args.index("--dens-file") + 2]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == "error: --grid-file needs --dens-file\n"
    assert chain.read_bytes() == before


def test_exp_mean_log_summary_is_the_mean_of_the_log_densities(tmp_path):
    _write_run_inputs(tmp_path)
    assert main(_full_run_args(tmp_path) + ["--dens-mean", "exp-mean-log"]) == 0
    dens = read_csv_matrix(tmp_path / "dens.csv")
    mean = read_csv_matrix(tmp_path / "dens.mean.csv")
    assert mean.shape == (1, dens.shape[1])
    assert mean[0].tobytes() == postprocess.mean_log_density(dens).tobytes()


@pytest.mark.parametrize("file_name, text, key", [
    ("algo.txt", ALGO_TEXT + "neal8_naux: 7\n", "'neal8_naux'"),
    ("algo.txt", ALGO_TEXT + "neal8_n_aux: 7\n", "'neal8_n_aux' is read by Neal8 only"),
    ("dp.txt", DP_TEXT + "gamma_prior_typo { shape: 2.0 rate: 2.0 }\n", "'gamma_prior_typo'"),
    ("g0.txt", G0_TEXT.replace("}", "extra: 3\n}"), "'fixed_values.extra'"),
    ("g0.txt", G0_TEXT + "step_size: 0.3\n", "'step_size' is read by a Metropolis updater only"),
], ids=["algo_typo", "n_aux_without_neal8", "dp_block_typo", "fixed_values_extra", "step_size"])
def test_a_key_the_run_does_not_read_stops_it_naming_key_and_file(tmp_path, capsys, file_name,
                                                                   text, key):
    # a misspelt key used to run with its default: 3 auxiliaries, or a DP
    # without its hyperprior
    _write_run_inputs(tmp_path)
    (tmp_path / file_name).write_text(text)
    assert main(_full_run_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / file_name}: ") and key in err, err
    assert not (tmp_path / "chains.chain").exists()
