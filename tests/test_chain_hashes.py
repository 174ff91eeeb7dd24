"""Pinned SHA-256 of the encoded chain of every valid sampler cell.

Each valid (algorithm, family, mixing) cell runs a short chain on a small
synthetic set, and the hash of its encoded records must match the pinned
value. A refactor that should not change the sampler keeps every hash; a
change that moves chain bits must update the hashes here and say so.

The post-processing of the same chains is pinned too: the per-record
density grid of ``eval_lpdf_grid`` on a fixed grid with a fixed generator
(``GRID_SHA256``), and the labels ``BayesianMixture.predict`` gives the
grid points (``PREDICT_SHA256``). ``METROPOLIS_SHA256`` pins Neal8's
chains under each Metropolis updater, for every family that takes one.
``OFFSET_SHA256`` pins a few cells whose prior mean and data are both moved
by ``OFFSET``, so the statistics are centred away from zero.

The hashes depend on the floating-point results of the numpy build (libm,
BLAS/LAPACK for the NNW cells), so another build may need them recorded
again: ``python tests/test_chain_hashes.py`` prints the current tables,
marks each entry that differs from its pinned value with ``# moved``, and
exits with status 1 if any does.
"""

import functools
import hashlib

import numpy as np
import pytest

from mixmcmc import (
    ALGORITHM_IDS,
    BayesianMixture,
    HIERARCHY_TYPES,
    MIXING_TYPES,
    MemoryCollector,
    build_algorithm,
    build_hierarchy,
    build_mixing,
    encode_state,
)
from mixmcmc.datasets import generate_bench
from mixmcmc.exceptions import ConfigError

N, D, ITERATIONS, BURNIN, SEED = 30, 2, 20, 5, 7

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
METROPOLIS_ARGS = {"step_size": 0.5, "num_steps": 3}
METROPOLIS_CELLS = [f"Neal8/{hier_type}/DP/{updater}" for hier_type in ("NNIG", "NNxIG", "LapNIG")
                    for updater in ("rwmh", "mala")]
OFFSET = 3.0
OFFSET_CELLS = ["Neal2/NNIG/DP", "Neal3/NNW/DP", "Neal8/NNxIG/DP", "BlockedGibbs/NNIG/TruncSB"]

CHAIN_SHA256 = {
    "Neal2/NNIG/DP": "02e36c8fd54e2d1ca94a3d5fc262530e12549a3ed62d28d09e654d84d765197f",
    "Neal2/NNIG/PY": "1f8998aeaec3182d7447d6cda2eec1fba76a0018bd91ab93ec92e839af7a9c49",
    "Neal2/NNW/DP": "2b2bd791054f22daf9f361c3d5d53282efad53ad73cb8dd717bc939a5d6eb20c",
    "Neal2/NNW/PY": "5f9947b2f926f135889c2b9ac1bcbdabf385664faba1c06fe624d95e8a1cd123",
    "Neal2/GammaGamma/DP": "db3918551e5229d65c48715369297122daff9eb84a9493473119f5dfbf795a16",
    "Neal2/GammaGamma/PY": "fcc80bb8ed6e12adbe9db42b1c144eb2756b2ac3117203bf918d47185f58513f",
    "Neal3/NNIG/DP": "08cb73dcb8e2ff61ee780070e271cc6c9f780b08867ab3e064122c95cf5c1e70",
    "Neal3/NNIG/PY": "be96e8bf91a4a96135d6b99db26140758af1d9d0370de3dd924541daa63740eb",
    "Neal3/NNW/DP": "5537703ccc959093615abb769bfdfe244411c13ba882e83666c4f1ca3bfdde4a",
    "Neal3/NNW/PY": "0a74b502a277da314501c4b6aa0478b9409014762033f4597e829b7c71ea7b87",
    "Neal3/GammaGamma/DP": "9d596ffa13ff94c35582a70d97802f71715b4784dad3e7751012f6393745ac44",
    "Neal3/GammaGamma/PY": "b979bdf88cd086dad2a7bf9ec14c15a455d49428dda7d0197a619763db5eadbd",
    "Neal8/NNIG/DP": "a4c724113f3c35c804866ac011ced1afc4df1c0b74c7a36bb68b42304b61e3fb",
    "Neal8/NNIG/PY": "42b02ea7377da972002ab2ea48151d139196cb2431551a5c524537b3ee3afaf2",
    "Neal8/NNxIG/DP": "c8405065b6b95e5d568c46b736ccb0e6255705475c599eec102c78fb4efec97d",
    "Neal8/NNxIG/PY": "0bef09ce680fca449d89a70e8309bf8d42fcb232a25e083fb7f34a3051d97780",
    "Neal8/LapNIG/DP": "936a2b9ec4d5b934f29d8ce58cee833051a8afc8d43b4dde7455cadd34ca71bb",
    "Neal8/LapNIG/PY": "8c053fb162c1c8967a2deff67b8adbd202c7d4276315c9155278731c519239c2",
    "Neal8/NNW/DP": "6c6a4d046ac111bb971fe008744f21c982f0861b9fec641f807e9ecc6bc1bb34",
    "Neal8/NNW/PY": "196797fb98d8a926d8871ec6ed07cfc9633adb5dd2bf795a02d67bf87c2f6df7",
    "Neal8/GammaGamma/DP": "daaa96a16a2a152b9fa19ad074c48b7cc49495150207c79c509392e440c1fe71",
    "Neal8/GammaGamma/PY": "f7a5ea4468c0ba592fe08fe473d0683ba7b646bf61c8defef14cb3fef6868f6a",
    "BlockedGibbs/NNIG/TruncSB": "fb135688be57d7a3a56546b8a105bdb6305d51df7504ed4d643a925a61026596",
    "BlockedGibbs/NNxIG/TruncSB": "b24fef38a470e1705175f8c8af3bd90cab6069227a899c87c2ee6c0f1bc61a1c",
    "BlockedGibbs/LapNIG/TruncSB": "94da1838e38d1908f7055b31c8ae46201f7202b8d9c8ed437af1b2e2a5a58d0b",
    "BlockedGibbs/NNW/TruncSB": "aba91785ab2d78da09c08657e4578696374a4528867b3532d7ddb8787797bd0c",
    "BlockedGibbs/GammaGamma/TruncSB": "fc873cffc99608d908fd6e056b9bb4e54b101df760ddf2b12a1f469a4169b79f",
}
GRID_SHA256 = {
    "Neal2/NNIG/DP": "fb44a3f99ac922ddd7180ef4da5180a158abcd4c2a5033edc2f22c4bb15ed389",
    "Neal2/NNIG/PY": "7270ea46d4a3219a5f384ab423d91a3db351083c585d06d9bfaea845a0c90190",
    "Neal2/NNW/DP": "f70c81b70a9304c165a736b06e5c12cec7dab4e7475f1a50d0e60e0d34676e97",
    "Neal2/NNW/PY": "05b12df10d264d2255b6a8457be196db020221a19405a54ae4949ff9e8a03b59",
    "Neal2/GammaGamma/DP": "f1afdf1f2929f7baabb940d8bff0d28f9552ef94a2f0ff2988e64ff21be75782",
    "Neal2/GammaGamma/PY": "5979dad5d4b63192c0e5a39996a5a4c5794d0a358c266373f11f2712bcd58a6d",
    "Neal3/NNIG/DP": "e040378b7d74487923c7463cfd240c039cae91f8b7bf5e358c709981beeccb24",
    "Neal3/NNIG/PY": "542b468af1696f336182bd0a61b1ae53dd01d7868f13dcfd9a6567976cf45f88",
    "Neal3/NNW/DP": "f45d2182f751b19f3f464198a8b46430e121fe90528fee7dc315224944f61f9a",
    "Neal3/NNW/PY": "7371305e9c5bad645a17b5f86c159f030ec999ea1ed42462b9514ed3c24fdd07",
    "Neal3/GammaGamma/DP": "c04b0ae8d99ded934abe0e50a1a222dca61fef9ed0dffc878215d3b0a6c89c4e",
    "Neal3/GammaGamma/PY": "31f99572ce39b8eb2b3fcedfcfcc677a8671ec85f6a64ba2f710117b6bd3207e",
    "Neal8/NNIG/DP": "8a49ea2b5dec93433166b901f412f2db89f2433007cd0228a2f6487dd4e823dd",
    "Neal8/NNIG/PY": "ba0ca4691df8350d0d1e154ce94e2e48ad9a7e417a9ded57f18aad7943aeb705",
    "Neal8/NNxIG/DP": "3224798288ba0301abc9faa29d7a701623922b516d18e082a7205e2aaf5aa16a",
    "Neal8/NNxIG/PY": "1e93ed67338cfcc1355ffd111469e3018c32e8c949455d661c6544cdb41ebccf",
    "Neal8/LapNIG/DP": "48211ab0406de366edb2af66bdc3678dc77d55f50c3d407409e6b31f1ee80252",
    "Neal8/LapNIG/PY": "1932b86028c72a74d062c187f092ac0f953bfe2501d1e6e73121d7de06ef88a3",
    "Neal8/NNW/DP": "d6f3567f6ed85ce2d24fde18f237c06e8accf908c67984ad87c65bc39c3715ed",
    "Neal8/NNW/PY": "61468d578045187328f61d2d4db81c2965a2a421d413e16fc71c833350f816f1",
    "Neal8/GammaGamma/DP": "dc796d3e2ec93d4a9173345c7adda8b4e58fd7fd642ab811726f2aa2414c910a",
    "Neal8/GammaGamma/PY": "16d56bcfef3fe671f7a43a6537dfb910f9a5de3d6575d7ec59644cc635192373",
    "BlockedGibbs/NNIG/TruncSB": "d9f7073be1cab988a05883844bdb6b078bbf6b686d2904871ea767337d407381",
    "BlockedGibbs/NNxIG/TruncSB": "4a973a6f33737149dc2ed766a2d7ebda5d77dc2dc78c154ff2d820968d7e3f39",
    "BlockedGibbs/LapNIG/TruncSB": "28d95445d034ce094e788f99610685772dba90794d4896f562e032f46504e0e5",
    "BlockedGibbs/NNW/TruncSB": "a330f6a8183a2752f644a8718560239d19e0d7fc03b62c729e070705b07a80dd",
    "BlockedGibbs/GammaGamma/TruncSB": "29ada77f6ef696d671062a3576c74506e683e13a708b10dd329fe4956fe06f6c",
}
PREDICT_SHA256 = {
    "Neal2/NNIG/DP": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal2/NNIG/PY": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal2/NNW/DP": "a1feba8917ded1a513a5c7c637c52b5584351009916ae6a1c7ab7a9e7341506a",
    "Neal2/NNW/PY": "fec668a17e6c445ed9bfedd79f8bc0993615b22cc46fbe7e2da2cea40ceb6ea3",
    "Neal2/GammaGamma/DP": "8278d6262d4875a700b7ed9edd3c16697e55168e8e0a9bdc8e20563feff0ad53",
    "Neal2/GammaGamma/PY": "fb1108dfd04a9dbf72d524b5cf3931c95d3453499419b2afedbf79e498bb69a9",
    "Neal3/NNIG/DP": "e49e118cd938ad5116cbeb8c1cccc8fc6016147a3ca450b7356b4c852a719e0f",
    "Neal3/NNIG/PY": "e7e7fff181e5c907f937402faf531cb7b699f65242285fe2176338738567c7ae",
    "Neal3/NNW/DP": "a83f2ba929342c546f41a044f21997e112d03903d249b1524f6ef6cf60e4fe70",
    "Neal3/NNW/PY": "3277261413ed42016be249dd3b710ffb26367411d546ffa79e2f6cb1249748e3",
    "Neal3/GammaGamma/DP": "76b59d8a9bd555ed2ad18e9021af5962b3101d04c2205484e95dd57c99a945be",
    "Neal3/GammaGamma/PY": "8126d6903e766dae803a34d81451d850eceddf213ac7776e7cc95fcb79584e54",
    "Neal8/NNIG/DP": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal8/NNIG/PY": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal8/NNxIG/DP": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal8/NNxIG/PY": "e49e118cd938ad5116cbeb8c1cccc8fc6016147a3ca450b7356b4c852a719e0f",
    "Neal8/LapNIG/DP": "e7e7fff181e5c907f937402faf531cb7b699f65242285fe2176338738567c7ae",
    "Neal8/LapNIG/PY": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal8/NNW/DP": "3422751cffd8c91c8fd428ec487017403069eaa76162cd0e6a2e9670f2f2847f",
    "Neal8/NNW/PY": "245c361f5178a21e20d67f4b227d420e95044e3cd46348918fea47f864d105db",
    "Neal8/GammaGamma/DP": "0ad9287a2e910b771bc1e57410cff9316ed0148606715c0cb1aa265e968c4723",
    "Neal8/GammaGamma/PY": "67ba52b817976d5651a44f483acbd1dd39cd20aa9100965669054b04cb52f0b1",
    "BlockedGibbs/NNIG/TruncSB": "f7bccb807955f639344c2bb293637009f85814d7eae0ec770078a2843f3bfe9f",
    "BlockedGibbs/NNxIG/TruncSB": "e49e118cd938ad5116cbeb8c1cccc8fc6016147a3ca450b7356b4c852a719e0f",
    "BlockedGibbs/LapNIG/TruncSB": "054424987599a8457e456ed7ecb174a4b0df66f62fd518b6ab4a0662e962c6d5",
    "BlockedGibbs/NNW/TruncSB": "a8081fd051686287dd846ce5d7c2636b589e7d0e2a2c72c6896f87fcce6fa659",
    "BlockedGibbs/GammaGamma/TruncSB": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
}

METROPOLIS_SHA256 = {
    "Neal8/NNIG/DP/rwmh": "5b5fac57f8f216b5efdae54da2b12edb67737921637e24b65243888f29e80626",
    "Neal8/NNIG/DP/mala": "77b7a7bcdb625124ac0f0c20d1b56d74a1c9fc9aca56ed31826d103db8a0527d",
    "Neal8/NNxIG/DP/rwmh": "469a70dc68addd7a42186ca688bc5107c03288321a598a961884480334f32298",
    "Neal8/NNxIG/DP/mala": "bce698aa5709700867bac5fa61a032ab71243d3b9822644b620400ad1473cce0",
    "Neal8/LapNIG/DP/rwmh": "957cd9affaf723a943963786e25493d830537e380ac57edb29e138a754a561ef",
    "Neal8/LapNIG/DP/mala": "a84c53cfbf28784239425dd6baef2bc70585c07a324952e2556eefb1843a0161",
}

OFFSET_SHA256 = {
    "Neal2/NNIG/DP": "fe67618d4985133048ff367834f98eb839e78cd746c308ba29f86b441c955d49",
    "Neal3/NNW/DP": "3c6aa4d3fa4c5f5663b060b61348b4cb9c37d19eb45f69f8c8209f239a9dc44b",
    "Neal8/NNxIG/DP": "9237fd174d88eb3ea56ab3a4513c776b16ad82f49f7ea11a24fadf95281841c7",
    "BlockedGibbs/NNIG/TruncSB": "1711e086285bc0905ec1429b126bdaec1c1ebae79b0a185b8ebe4605095a179e",
}


def _data(hier_type):
    if hier_type == "NNW":
        return generate_bench("highdim", N, D, SEED)
    if hier_type == "GammaGamma":
        rng = np.random.default_rng(SEED)
        rates = np.repeat([4.0, 0.5], [N // 2, N - N // 2])
        return (rng.gamma(2.0, size=N) / rates).reshape(-1, 1)
    return generate_bench("two-normals-1d", N, 1, SEED)


def _valid_cells():
    cells = []
    for algo in ALGORITHM_IDS:
        for hier_type in HIERARCHY_TYPES:
            for mix_type in MIXING_TYPES:
                try:
                    build_algorithm(algo, build_hierarchy(hier_type, HIER_ARGS[hier_type]),
                                    build_mixing(mix_type, MIX_ARGS[mix_type]))
                except ConfigError:
                    continue
                cells.append(f"{algo}/{hier_type}/{mix_type}")
    return cells


def _shifted(hier_args, offset):
    """``hier_args`` with the prior mean moved by ``offset`` (a normal family's)."""
    values = dict(hier_args["fixed_values"])
    mean = values["mean"]
    values["mean"] = ({**mean, "data": [m + offset for m in mean["data"]]}
                      if isinstance(mean, dict) else mean + offset)
    return {**hier_args, "fixed_values": values}


def chain_sha256(cell, offset=0.0):
    """Hash of the cell's chain; a fourth field names a Metropolis updater.

    A non-zero ``offset`` moves the prior mean and the data by it.
    """
    algo, hier_type, mix_type, *updater = cell.split("/")
    hier_args = HIER_ARGS[hier_type]
    data = _data(hier_type)
    if offset:
        hier_args, data = _shifted(hier_args, offset), data + offset
    if updater:
        hier_args = {**hier_args, "updater": updater[0], **METROPOLIS_ARGS}
    algorithm = build_algorithm(algo, build_hierarchy(hier_type, hier_args),
                                build_mixing(mix_type, MIX_ARGS[mix_type]))
    collector = MemoryCollector()
    algorithm.run(data, ITERATIONS, BURNIN, collector, np.random.default_rng(SEED))
    digest = hashlib.sha256()
    for record in collector:
        digest.update(encode_state(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _grid(hier_type):
    if hier_type == "NNW":
        axis = np.linspace(-4.0, 4.0, 4)
        return np.array([[x, y] for x in axis for y in axis])
    if hier_type == "GammaGamma":
        return np.linspace(0.1, 3.0, 15).reshape(-1, 1)
    return np.linspace(-7.0, 7.0, 15).reshape(-1, 1)


@functools.lru_cache(maxsize=None)
def _fitted(cell):
    """The estimator fitted on the cell's chain (the same chain as chain_sha256's)."""
    algo, hier_type, mix_type = cell.split("/")
    est = BayesianMixture(hier_type, HIER_ARGS[hier_type], mix_type, MIX_ARGS[mix_type],
                          algo, ITERATIONS, BURNIN, random_state=SEED)
    return est.fit(_data(hier_type))


def grid_sha256(cell):
    est = _fitted(cell)
    lpdf = est.algorithm_.eval_lpdf_grid(est.collector_, _grid(cell.split("/")[1]),
                                         rng=np.random.default_rng([SEED, 1]))
    return hashlib.sha256(np.ascontiguousarray(lpdf, dtype=np.float64).tobytes()).hexdigest()


def predict_sha256(cell):
    labels = _fitted(cell).predict(_grid(cell.split("/")[1]))
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()


def test_every_valid_cell_is_pinned():
    assert sorted(_valid_cells()) == sorted(CHAIN_SHA256)
    assert len(CHAIN_SHA256) == 27
    assert sorted(GRID_SHA256) == sorted(PREDICT_SHA256) == sorted(CHAIN_SHA256)
    assert sorted(METROPOLIS_SHA256) == sorted(METROPOLIS_CELLS)
    assert sorted(OFFSET_SHA256) == sorted(OFFSET_CELLS)


@pytest.mark.parametrize("cell", sorted(CHAIN_SHA256))
def test_chain_bits_are_unchanged(cell):
    assert chain_sha256(cell) == CHAIN_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(METROPOLIS_SHA256))
def test_metropolis_chain_bits_are_unchanged(cell):
    assert chain_sha256(cell) == METROPOLIS_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(OFFSET_SHA256))
def test_offset_chain_bits_are_unchanged(cell):
    assert chain_sha256(cell, OFFSET) == OFFSET_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(GRID_SHA256))
def test_density_grid_bits_are_unchanged(cell):
    assert grid_sha256(cell) == GRID_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(PREDICT_SHA256))
def test_predict_labels_are_unchanged(cell):
    assert predict_sha256(cell) == PREDICT_SHA256[cell]


def test_predict_scores_no_new_cluster(monkeypatch):
    # predict picks among the record's clusters, so it draws no plug-in
    # new cluster from Neal8's prior
    cell = "Neal8/NNxIG/DP"
    est = _fitted(cell)

    def refuse(rng):
        raise AssertionError("predict drew a new cluster's state")

    monkeypatch.setattr(est.algorithm_.template.prior, "sample", refuse)
    assert predict_sha256(cell) == PREDICT_SHA256[cell]


if __name__ == "__main__":
    # each entry that differs from its pinned value ends in "# moved"
    cells, moved = _valid_cells(), False
    for table, fn, names in (("CHAIN_SHA256", chain_sha256, cells),
                             ("GRID_SHA256", grid_sha256, cells),
                             ("PREDICT_SHA256", predict_sha256, cells),
                             ("METROPOLIS_SHA256", chain_sha256, METROPOLIS_CELLS),
                             ("OFFSET_SHA256", functools.partial(chain_sha256, offset=OFFSET),
                              OFFSET_CELLS)):
        pinned = globals()[table]
        print(f"{table} = {{")
        for name in names:
            digest = fn(name)
            mark = "" if pinned.get(name) == digest else "  # moved"
            moved = moved or bool(mark)
            print(f'    "{name}": "{digest}",{mark}')
        print("}")
    raise SystemExit(1 if moved else 0)
