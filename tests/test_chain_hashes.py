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

CHAIN_SHA256 = {
    "Neal2/NNIG/DP": "0ff0059ee4f07c253fca1137915b73bd99a3c39c867905c9d540a655dbdadb07",
    "Neal2/NNIG/PY": "2f24199f91ea925df8adb744330b9cfebee46ae8e1278948f2dac5e599d7b779",
    "Neal2/NNW/DP": "cec081cf9c74373e576c11fe2e8e9b6d1390ff4a94d365436116490e37c96e34",
    "Neal2/NNW/PY": "70317d8b967913a3314828e1b5fb29278a746a80bf5f96841809fe61ee866668",
    "Neal2/GammaGamma/DP": "802eb2d6cc9457f1369f63cd32f85b2bec67883233b9765b819eb9ef8396aba3",
    "Neal2/GammaGamma/PY": "a330bbeba7e48a8bed6c84ecb437a5c646e918259610e65eb38c9977ce099640",
    "Neal3/NNIG/DP": "267b59850c5fdc440d09756a279c7bca7518a77a447ad71564d6b241212986a9",
    "Neal3/NNIG/PY": "4eda4cabff03a320a6d93b825fcb2763b4ea550a0e4c4513b4a3fc50a69c5062",
    "Neal3/NNW/DP": "1c720786186a0f960d4752354e0693cbc17bdb6d2b7c077b6add62c369071800",
    "Neal3/NNW/PY": "5a5e07e50104dae65f277a3129c3450c37bd90cc03c31de69e11b41bbc9c9b20",
    "Neal3/GammaGamma/DP": "3902a3b32618869b49fa93298ae026f4e4af531434294b363229228562637691",
    "Neal3/GammaGamma/PY": "238a5b97bc8efa12cc60bd63872836a0d744109cadc460e90342ab13d46ed59a",
    "Neal8/NNIG/DP": "f67030fd7ae8594697a52701c77f120b7fcfa7e025bf88868aa8ebc21b93b15e",
    "Neal8/NNIG/PY": "af9302374c2d76d660597ea9bca2e550ac03296d2b5744a2784acd99f4eeb3a1",
    "Neal8/NNxIG/DP": "4d33ebd7c20e19442d6542780077e62c2f5f28f544a7179d9af1451ec8f5391f",
    "Neal8/NNxIG/PY": "a17a43a95c136c5dd1d771d3f36cd45a1e2cceddbbf18cc8633acd37118d8bae",
    "Neal8/LapNIG/DP": "936a2b9ec4d5b934f29d8ce58cee833051a8afc8d43b4dde7455cadd34ca71bb",
    "Neal8/LapNIG/PY": "8c053fb162c1c8967a2deff67b8adbd202c7d4276315c9155278731c519239c2",
    "Neal8/NNW/DP": "119fc45dd997a038ccf35cd280d769b64e08d46a776cbf3356c56af22916674b",
    "Neal8/NNW/PY": "664fac94d45b121660d56d2dac750870584503f7f74847a6bea73cec9a9fcf45",
    "Neal8/GammaGamma/DP": "2e94316431f3172f42300f8c9f6693101396d28e0a8e957f15cce8a5368ee722",
    "Neal8/GammaGamma/PY": "29a201bc1fa952f42db7762098c2298adbbe762140002b07e8c5068cdd44480a",
    "BlockedGibbs/NNIG/TruncSB": "e63173758671bd95aa04a7070f886491722a6565dcc33b16ecaa126fc3e4e1c3",
    "BlockedGibbs/NNxIG/TruncSB": "9af07d6a5d1e8cdb7005ffb00800e26f893280e21563ab5dfe4f3340c323a818",
    "BlockedGibbs/LapNIG/TruncSB": "94da1838e38d1908f7055b31c8ae46201f7202b8d9c8ed437af1b2e2a5a58d0b",
    "BlockedGibbs/NNW/TruncSB": "fed3f8fc087b03ae3771e9f7f61f16905d5d05e9d80a0d376faaa80e4554ad11",
    "BlockedGibbs/GammaGamma/TruncSB": "bf33779065a9f61dd32667a4e48ccc9c8de37285d8e0f103873efaa6149d3057",
}
GRID_SHA256 = {
    "Neal2/NNIG/DP": "c8293f9df0c9b6fdaeb8d37b63f066e057339c80e122bf06ab7b9e6b76fab568",
    "Neal2/NNIG/PY": "0804fb1c81ecd8c744d542705f9e0209f39e1aea547f348a27cb6ddc79556af9",
    "Neal2/NNW/DP": "4e9b8887b98e8ed12d6a8e2ff9c18f8f383a920f581872fbb6f2d545e3f5ace8",
    "Neal2/NNW/PY": "fa0360a1b0ae52befffbf3cd1eb61ae5f0c5c06729a2fd5e6f2745139d729e88",
    "Neal2/GammaGamma/DP": "10d9e37b1f49addc284cad92f2a8928d59c8f642b4c4ae9aab13b840bd4f032b",
    "Neal2/GammaGamma/PY": "c76a40f59166da94dd344617dacc2158c981064ab0964ec3e2529399701401af",
    "Neal3/NNIG/DP": "56349ff851152ac36c01a9f830d4ddc722974ae04c072d32fd40effde523fd4b",
    "Neal3/NNIG/PY": "16a14d33632596ebb9291ff992d836e9ce55738d943802ff65fc766458b1a591",
    "Neal3/NNW/DP": "685506090d404c805980c20ae82bd4c31f3b6123ea4d9a837442fd8aececa01a",
    "Neal3/NNW/PY": "d6e3225b9f8e7189a6c47d5aae80b3cfa97ebb9cffd48e91e66bb9c7a02a70b0",
    "Neal3/GammaGamma/DP": "7b3247ca4eed24fd70d6a0a900b6d5f2bcee780e61653ab0e1a9a18f32375acc",
    "Neal3/GammaGamma/PY": "9a374defed08c230a19f3d6e2f2eef81c62b1d78c0b8287bd7983b89f5c48947",
    "Neal8/NNIG/DP": "f14310c72ad43d9d6a777c3c334aedfb6ba075526d5b6d8fabf29e9148479258",
    "Neal8/NNIG/PY": "7f13e8ad3e69f232e8b9e74dc8b94a67e48b8e6b3acd50f44e09e2b84cf1cc98",
    "Neal8/NNxIG/DP": "a0d06614f60ffabe8092532b8edaebae51024c42c4392b00f664befc9958019f",
    "Neal8/NNxIG/PY": "ccacb274f17a32f6b1c602d22d6cb85dfdb7c9b452f221c8d928bd2fe4293d0a",
    "Neal8/LapNIG/DP": "48211ab0406de366edb2af66bdc3678dc77d55f50c3d407409e6b31f1ee80252",
    "Neal8/LapNIG/PY": "1932b86028c72a74d062c187f092ac0f953bfe2501d1e6e73121d7de06ef88a3",
    "Neal8/NNW/DP": "42de2d7ac772bc64427bdf1c78ce45f0c6c4e2eef3ab180ac823b86c192e2bca",
    "Neal8/NNW/PY": "dc42cb9d83c49aaa5dc0839064a744a3f2e609268b769fee1d134c4d08a115ab",
    "Neal8/GammaGamma/DP": "e64a21746e6409aee93f0178563965320110bd773c383707ca0ad6efebe8b3a3",
    "Neal8/GammaGamma/PY": "255acd6858c72f27fd911a3201f96bc15732f5f989932a61a2a6b7e39a45ac43",
    "BlockedGibbs/NNIG/TruncSB": "8e5ff1cdb7290dfbdb3d4c5f932aae089f17837783637242bee119d8565809c1",
    "BlockedGibbs/NNxIG/TruncSB": "9acf3c459d352741794a741c4864cc37b7bc4b50d7525dcc700e2eff0c5164bc",
    "BlockedGibbs/LapNIG/TruncSB": "28d95445d034ce094e788f99610685772dba90794d4896f562e032f46504e0e5",
    "BlockedGibbs/NNW/TruncSB": "26389504ca0a4b1c69a01a68979233ff2c7155e66dcfaac24a1dc24a7a23bfc4",
    "BlockedGibbs/GammaGamma/TruncSB": "d65ab2240e57175ace78cd3469e836273301ba725d7ed10d90791e59482c78a9",
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
    "Neal8/NNIG/DP/mala": "c836c1cc75b66790c57b6390b746c26ec20662071c0cbdf0dceb65c152420573",
    "Neal8/NNxIG/DP/rwmh": "469a70dc68addd7a42186ca688bc5107c03288321a598a961884480334f32298",
    "Neal8/NNxIG/DP/mala": "a21ceb2a875a229254656d4e30cd6a092908b924b6453fd1d65b4685d75120ba",
    "Neal8/LapNIG/DP/rwmh": "957cd9affaf723a943963786e25493d830537e380ac57edb29e138a754a561ef",
    "Neal8/LapNIG/DP/mala": "8be6b6138be90f2ef6502c43e28f5e4b03557f8d62d75b7682a41ba94d7d6fcf",
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


def chain_sha256(cell):
    """Hash of the cell's chain; a fourth field names a Metropolis updater."""
    algo, hier_type, mix_type, *updater = cell.split("/")
    hier_args = HIER_ARGS[hier_type]
    if updater:
        hier_args = {**hier_args, "updater": updater[0], **METROPOLIS_ARGS}
    algorithm = build_algorithm(algo, build_hierarchy(hier_type, hier_args),
                                build_mixing(mix_type, MIX_ARGS[mix_type]))
    collector = MemoryCollector()
    algorithm.run(_data(hier_type), ITERATIONS, BURNIN, collector, np.random.default_rng(SEED))
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


@pytest.mark.parametrize("cell", sorted(CHAIN_SHA256))
def test_chain_bits_are_unchanged(cell):
    assert chain_sha256(cell) == CHAIN_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(METROPOLIS_SHA256))
def test_metropolis_chain_bits_are_unchanged(cell):
    assert chain_sha256(cell) == METROPOLIS_SHA256[cell]


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
                             ("METROPOLIS_SHA256", chain_sha256, METROPOLIS_CELLS)):
        print(f"{table} = {{")
        for name in names:
            print(f'    "{name}": "{fn(name)}",')
        print("}")
