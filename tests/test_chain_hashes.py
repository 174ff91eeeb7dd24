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
again: ``python tests/test_chain_hashes.py`` prints the current tables.
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
    "Neal2/NNIG/DP": "44d6205c13b59c85b553e932e293a60271f915f7ed23657b2d7dadddf0d77ab1",
    "Neal2/NNIG/PY": "eb337a08f556c01b97cbb9522c636c9e55936475e6da890080135a7cac8dc61b",
    "Neal2/NNW/DP": "921a633dffff8aa7e18f09e2a86b1b61b7289a9ed265fba81690219fe94fe102",
    "Neal2/NNW/PY": "5551ea566a6dc1d5531f05243630436191ee6b96164f6441cd291d59db09565a",
    "Neal2/GammaGamma/DP": "adabc39ca1322d12dc44ad750923a4c61fe79841fc7df6068bb8f3ab23af215e",
    "Neal2/GammaGamma/PY": "360d77aa1d14d3fed4eaad7d741c0999aef7c7e823aacd10afb6b19da26bc20d",
    "Neal3/NNIG/DP": "684dc5efed3c292985e26fd60d47f30dd634362f7bb1f30ac772a1f6b3b06615",
    "Neal3/NNIG/PY": "b83a5021d49f2e2494adf15605c54c97a062acab14d1d7238b92920106522e49",
    "Neal3/NNW/DP": "1faf34c1e8b4a0459d04dd7775bd60b1a4cce441555745b35e2114343dddaa4f",
    "Neal3/NNW/PY": "1bb66a6677892428bfc7598916ce00942b56bbac9fc7378150fdd213411e075b",
    "Neal3/GammaGamma/DP": "0ef9ed8ed415276ade019a02508416123755422b7a864a9ec13eceb702e20bbd",
    "Neal3/GammaGamma/PY": "078447093fa2ec87e7949c14ee3716eaeed3ea3897c082b28dfdf1b2c854845c",
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
    "Neal2/NNIG/DP": "765394bab07887005433f0db2dfdbf69109702b04cb4d462a5990318561c035c",
    "Neal2/NNIG/PY": "f9da7aa036db9b6761859c3235b5898ee64143a884742cbff5aef63f413ca337",
    "Neal2/NNW/DP": "a0184328073b0ffd7fd66032db052fc1c794591e608fee6cad7991a64fa60780",
    "Neal2/NNW/PY": "1cab2fae13535ab9c0bae6fc7808c972b910cead8a11a677a807b16c5c6d715c",
    "Neal2/GammaGamma/DP": "2330b4df4715b8116138df3f64f08695715883a71a694bfe6829139d3dd99ced",
    "Neal2/GammaGamma/PY": "cba846d3469d88b028937a0050ec12b3fda964b9882a6dfe879f6e109ec2f38d",
    "Neal3/NNIG/DP": "abe74273b2b15208bea282abf27a498b3497b42b5ed35e5ed47a026d1cf4c200",
    "Neal3/NNIG/PY": "f952748763023ca1d7ac0632d87ffde0ab34930b0a6a959f578d758a3e89168b",
    "Neal3/NNW/DP": "c0a838d703af63baadda112e396b6a27efacb8e99d5e2082c8ec0b7cfda8a563",
    "Neal3/NNW/PY": "aeb18980a716e44bbdfab9d6bc2a807a00a4b35aa53c9fff0f68b42e0bf41e5b",
    "Neal3/GammaGamma/DP": "7c89425c28795284eb56aed2c2d3c715524d81aaded5695007916df4d08f3225",
    "Neal3/GammaGamma/PY": "dbf0b464840704885a3b46076c31bf440b3dbe70d58bda04e5db7049effbe7a1",
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
    "Neal2/NNW/DP": "f2be067d8b41772673890a47e2dc8fd9b9ad0ebe2a99e6c9409cbbc240f79e27",
    "Neal2/NNW/PY": "1ee4e91e158ccc9c92977656f544e62bf7702f4ae5def917b23831b4b70a88ac",
    "Neal2/GammaGamma/DP": "e7e7fff181e5c907f937402faf531cb7b699f65242285fe2176338738567c7ae",
    "Neal2/GammaGamma/PY": "e1c6b98eab91f0ea9fed2aa4417c854e5d96ae45822a6d1c19eecbc10c329c92",
    "Neal3/NNIG/DP": "23f329d382167edc2d17513dd3a8d7dcc2a310ef25d271e28b6242e4c4414468",
    "Neal3/NNIG/PY": "dd937b4fcede1ba4df9e6aa747b1032d9b444170744440f9c8297fd472046eb8",
    "Neal3/NNW/DP": "0b8244d88200c50763af3987c03f908841c86127ad78363fd4f9fab15919c52b",
    "Neal3/NNW/PY": "8d92e7cfac9f22a06a6cb11b3d73f9d5e95602dc4fdf4a68b3e45371a0274669",
    "Neal3/GammaGamma/DP": "e7e7fff181e5c907f937402faf531cb7b699f65242285fe2176338738567c7ae",
    "Neal3/GammaGamma/PY": "0ad9287a2e910b771bc1e57410cff9316ed0148606715c0cb1aa265e968c4723",
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
    "Neal2/NNIG/DP": "430fef471925b799ac7bddef930ec83f3fdb2f14c0db0399cabdc77bd9b148c7",
    "Neal3/NNW/DP": "6bf4ac7150ef70fe7f2ae93b0f791c79534fdacef7cd91f480cc54e46c210d3b",
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


if __name__ == "__main__":
    cells = _valid_cells()
    for table, fn, names in (("CHAIN_SHA256", chain_sha256, cells),
                             ("GRID_SHA256", grid_sha256, cells),
                             ("PREDICT_SHA256", predict_sha256, cells),
                             ("METROPOLIS_SHA256", chain_sha256, METROPOLIS_CELLS),
                             ("OFFSET_SHA256", functools.partial(chain_sha256, offset=OFFSET),
                              OFFSET_CELLS)):
        print(f"{table} = {{")
        for name in names:
            print(f'    "{name}": "{fn(name)}",')
        print("}")
