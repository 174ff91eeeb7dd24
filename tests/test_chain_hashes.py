"""Pinned SHA-256 of the encoded chain of every valid sampler cell.

Each valid (algorithm, family, mixing) cell runs a short chain on a small
synthetic set, and the hash of its encoded records must match the pinned
value. A refactor that should not change the sampler keeps every hash; a
change that moves chain bits must update the hashes here and say so.

The hashes depend on the floating-point results of the numpy build (libm,
BLAS/LAPACK for the NNW cells), so another build may need them recorded
again: ``python tests/test_chain_hashes.py`` prints the current table.
"""

import hashlib

import numpy as np
import pytest

from mixmcmc import (
    ALGORITHM_IDS,
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
    "Neal8/LapNIG/DP": "8dfe6d4436baca1325fb1e983ce7cdff204707603cf78c55a08d2a894ff6a8e1",
    "Neal8/LapNIG/PY": "c0b7e4bad59571827aae8dcc2fd05915f46fc8e49e8444b464fd9df2c5b733e8",
    "Neal8/NNW/DP": "119fc45dd997a038ccf35cd280d769b64e08d46a776cbf3356c56af22916674b",
    "Neal8/NNW/PY": "664fac94d45b121660d56d2dac750870584503f7f74847a6bea73cec9a9fcf45",
    "Neal8/GammaGamma/DP": "2e94316431f3172f42300f8c9f6693101396d28e0a8e957f15cce8a5368ee722",
    "Neal8/GammaGamma/PY": "29a201bc1fa952f42db7762098c2298adbbe762140002b07e8c5068cdd44480a",
    "BlockedGibbs/NNIG/TruncSB": "e63173758671bd95aa04a7070f886491722a6565dcc33b16ecaa126fc3e4e1c3",
    "BlockedGibbs/NNxIG/TruncSB": "9af07d6a5d1e8cdb7005ffb00800e26f893280e21563ab5dfe4f3340c323a818",
    "BlockedGibbs/LapNIG/TruncSB": "f76e1e89871b0d0146fb3c075e448484b0a5cbaef7a98a5bcc28ec95a735ae20",
    "BlockedGibbs/NNW/TruncSB": "fed3f8fc087b03ae3771e9f7f61f16905d5d05e9d80a0d376faaa80e4554ad11",
    "BlockedGibbs/GammaGamma/TruncSB": "bf33779065a9f61dd32667a4e48ccc9c8de37285d8e0f103873efaa6149d3057",
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
    algo, hier_type, mix_type = cell.split("/")
    algorithm = build_algorithm(algo, build_hierarchy(hier_type, HIER_ARGS[hier_type]),
                                build_mixing(mix_type, MIX_ARGS[mix_type]))
    collector = MemoryCollector()
    algorithm.run(_data(hier_type), ITERATIONS, BURNIN, collector, np.random.default_rng(SEED))
    digest = hashlib.sha256()
    for record in collector:
        digest.update(encode_state(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_valid_cell_is_pinned():
    assert sorted(_valid_cells()) == sorted(CHAIN_SHA256)
    assert len(CHAIN_SHA256) == 27


@pytest.mark.parametrize("cell", sorted(CHAIN_SHA256))
def test_chain_bits_are_unchanged(cell):
    assert chain_sha256(cell) == CHAIN_SHA256[cell]


if __name__ == "__main__":
    print("CHAIN_SHA256 = {")
    for name in _valid_cells():
        print(f'    "{name}": "{chain_sha256(name)}",')
    print("}")
