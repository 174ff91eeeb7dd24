import numpy as np
import pytest

from mixmcmc.config import (
    ConfigTree,
    parse_algo_params,
    parse_config,
    serialize_config,
)
from mixmcmc.exceptions import ConfigError

DP_TEXT = """
fixed_value {
    totalmass: 1.0
}
"""

G0_TEXT = """
fixed_values {
    mean: 0.0
    var_scaling: 0.1
    shape: 2.0
    scale: 2.0
}
"""

ALGO_TEXT = """
algo_id: "Neal2"
rng_seed: 20201124
iterations: 1500
burnin: 500
init_num_clusters: 3
"""

BIVARIATE_TEXT = """
fixed_values {
    mean {
        size: 2
        data: [3.484, 3.487]
    }
    var_scaling: 0.01
    deg_free: 5
    scale {
        rows: 2
        cols: 2
        data: [1.0, 0.0, 0.0, 1.0]
        rowmajor: false
    }
}
"""


def test_parse_nested_scalar():
    tree = parse_config(DP_TEXT)
    assert tree.keys() == ["fixed_value"]
    assert tree.child("fixed_value").get_float("totalmass") == 1.0


def test_parse_empty_input():
    assert parse_config("").entries == []
    assert parse_config("   # only a comment\n").entries == []


def test_parse_flat_values():
    tree = parse_config(G0_TEXT).child("fixed_values")
    assert tree.get_float("mean") == 0.0
    assert tree.get_float("var_scaling") == 0.1
    assert tree.get_float("shape") == 2.0
    assert tree.get_float("scale") == 2.0


def test_parse_vector_and_matrix_blocks():
    values = parse_config(BIVARIATE_TEXT).child("fixed_values")
    mean = values.child("mean")
    assert mean.get_int("size") == 2
    assert mean.get_list("data") == [3.484, 3.487]
    scale = values.child("scale")
    assert scale.get_bool("rowmajor") is False
    assert scale.get_list("data") == [1.0, 0.0, 0.0, 1.0]


def test_parse_string_and_comments():
    tree = parse_config('algo_id: "Neal2"  # inline comment\n')
    assert tree.get_str("algo_id") == "Neal2"


def test_escaped_quotes_in_strings():
    tree = parse_config(r'label: "say \"hi\" \\ there"')
    assert tree.get_str("label") == 'say "hi" \\ there'


def test_duplicate_scalar_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("a: 1.0\na: 2.0\n")


def test_repeated_tree_keys_allowed():
    tree = parse_config("b { x: 1 }\nb { x: 2 }\n")
    assert [sub.get_float("x") for key, sub in tree.entries if key == "b"] == [1.0, 2.0]


def test_mixed_scalar_tree_duplicate_rejected():
    with pytest.raises(ConfigError):
        parse_config("a: 1.0\na { x: 2.0 }\n")


def test_unbalanced_braces_report_position():
    with pytest.raises(ConfigError) as err:
        parse_config("outer {\n  inner: 1.0\n")
    assert err.value.line is not None
    with pytest.raises(ConfigError) as err:
        parse_config("x: 1.0\n}\n")
    assert err.value.line == 2


def test_syntax_error_has_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse_config("key 1.0\n")
    assert err.value.line == 1
    assert err.value.column is not None


def _random_tree(rng, depth=0):
    tree = ConfigTree()
    n_entries = rng.integers(0, 5)
    for idx in range(n_entries):
        key = f"k{depth}_{idx}"
        kind = rng.integers(0, 5 if depth < 2 else 4)
        if kind == 0:
            tree.entries.append((key, float(np.round(rng.normal() * 100, 6))))
        elif kind == 1:
            tree.entries.append((key, f"s{rng.integers(0, 100)}"))
        elif kind == 2:
            vals = [float(np.round(v, 6)) for v in rng.normal(size=rng.integers(1, 4))]
            tree.entries.append((key, vals))
        elif kind == 3:
            tree.entries.append((key, bool(rng.integers(0, 2))))
        else:
            tree.entries.append((key, _random_tree(rng, depth + 1)))
    return tree


def test_serialize_parse_round_trip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tree = _random_tree(rng)
        text = serialize_config(tree)
        assert parse_config(text) == tree
        # serializing the reparsed tree is a fixed point
        assert serialize_config(parse_config(text)) == text


def test_algo_params_matches_reference_file():
    params = parse_algo_params(parse_config(ALGO_TEXT))
    assert params.algo_id == "Neal2"
    assert params.rng_seed == 20201124
    assert params.iterations == 1500
    assert params.burnin == 500
    assert params.init_num_clusters == 3
    assert params.neal8_n_aux == 3


def test_algo_params_burnin_boundary():
    with pytest.raises(ConfigError):
        parse_algo_params(
            parse_config(
                'algo_id: "Neal2"\nrng_seed: 1\niterations: 10\n'
                "burnin: 10\ninit_num_clusters: 1\n"
            )
        )


def test_algo_params_unknown_algorithm():
    with pytest.raises(ConfigError):
        parse_algo_params(
            parse_config(
                'algo_id: "Neal9"\nrng_seed: 1\niterations: 10\n'
                "burnin: 1\ninit_num_clusters: 1\n"
            )
        )


def test_integers_beyond_exact_floats_are_rejected():
    # 2**53 + 1 reads as the float 2**53: the value in the file would be lost
    tree = parse_config("seed: 9007199254740993\nlow: -9007199254740992\nok: 9007199254740991\n")
    for key in ("seed", "low"):
        with pytest.raises(ConfigError, match=key):
            tree.get_int(key)
    assert tree.get_int("ok") == 2 ** 53 - 1
    with pytest.raises(ConfigError, match="rng_seed"):
        parse_algo_params(parse_config(
            'algo_id: "Neal2"\nrng_seed: 9007199254740993\niterations: 10\n'
            "burnin: 1\ninit_num_clusters: 1\n"))


def test_algo_params_missing_key():
    with pytest.raises(ConfigError):
        parse_algo_params(parse_config('algo_id: "Neal2"\nrng_seed: 1\n'))
