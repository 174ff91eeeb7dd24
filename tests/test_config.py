from pathlib import Path

import numpy as np
import pytest

from mixmcmc.config import (
    ConfigTree,
    parse_algo_params,
    parse_config,
    serialize_config,
)
from mixmcmc.exceptions import ConfigError
from mixmcmc.hierarchy import build_hierarchy
from mixmcmc.mixings import build_mixing
from mixmcmc.priors import NIGHypers

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
    assert [key for key, _ in tree.entries] == ["fixed_value"]
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


# Each input with its outcome as the character-by-character parser gave it:
# the parsed tree as a mapping, or the ConfigError's (message, line, column).
PARSE_TABLE = [
    # one case per error the scanner raises
    ("a: 1e\n", ("invalid number '1e'", 1, 4)),
    ("a: +-1\n", ("invalid number '+-1'", 1, 4)),
    ("a: \u00b2\n", ("invalid number ''", 1, 4)),  # isdigit() holds, but not 0-9
    ("a: $\n", ("unexpected character '$'", 1, 4)),
    ('a: "x\ny"\n', ("unterminated string", 1, 4)),
    ('a: "abc', ("unterminated string", 1, 4)),
    ('a: "abc\\', ("unterminated string", 1, 4)),
    # one case per error the parser raises
    ("a {\n  b: 1\n", ("unbalanced braces: missing '}'", 3, 1)),
    ("a: 1\n}\n", ("unbalanced braces: extra '}'", 2, 1)),
    ("a: 1\n: 2\n", ("expected a key, got ':'", 2, 1)),
    ("a: 1\na: 2\n", ("duplicate key 'a'", 2, 1)),
    ("a { }\na: 1\n", ("duplicate key 'a'", 2, 1)),
    ("a: 1\na { }\n", ("duplicate key 'a'", 2, 1)),
    ("a 1\n", ("expected ':' or '{' after key 'a'", 1, 3)),
    ("a: }\n", ("expected a value, got '}'", 1, 4)),
    ("a:", ("expected a value, got 'eof'", 1, 3)),
    ('a: ["x"]\n', ("lists may contain only numbers", 1, 5)),
    ("a: [1,\n", ("lists may contain only numbers", 2, 1)),
    ("a: [1 2]\n", ("expected ',' or ']' in list", 1, 7)),
    # a backslash before a literal newline escapes it, and the lines still count
    ('label: "x\\\ny"\nb: 1\n', {"label": "x\ny", "b": 1.0}),
    ('label: "x\\\ny" $\n', ("unexpected character '$'", 2, 4)),
    # str.isspace() whitespace; only '\n' starts a new line
    ("a:\x1c1\xa0b:\u20282\n", {"a": 1.0, "b": 2.0}),
    ("a: 1\u2028$\n", ("unexpected character '$'", 1, 6)),
    ("a: 1\xa0\x1c$", ("unexpected character '$'", 1, 7)),
    # number edges
    ("a: 1.0abc\n", ("expected ':' or '{' after key 'abc'", 2, 1)),
    ("a: +.5e3\n", {"a": 500.0}),
    ("a: []\n", {"a": []}),
    ("a: [1,]\n", ("lists may contain only numbers", 1, 7)),
    # the first error in text order wins over a later unterminated string
    ('a 1\nb: "open\n', ("expected ':' or '{' after key 'a'", 1, 3)),
    ('a: 1 # comment "open\nb: [1, -2.5e-3] c { d: true }\n',
     {"a": 1.0, "b": [1.0, -0.0025], "c": {"d": True}}),
]


@pytest.mark.parametrize("text, expected", PARSE_TABLE)
def test_parse_table(text, expected):
    if isinstance(expected, dict):
        # serialized text tells a float from a bool, which == does not
        assert serialize_config(parse_config(text)) == serialize_config(
            ConfigTree.from_mapping(expected))
        return
    message, line, column = expected
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{message} (line {line}, column {column})", line, column)


def test_non_finite_numbers_are_rejected_with_their_key():
    # 1e999 parses to inf: the tree holds it, the typed getters refuse it
    tree = parse_config("a: 1e999\nb: -1e999\nc: [0.0, 1e999]\n")
    for key, getter in (("a", tree.get_float), ("b", tree.get_int), ("c", tree.get_list)):
        with pytest.raises(ConfigError, match=f"key '{key}' must .*finite"):
            getter(key)
    mapped = ConfigTree.from_mapping({"mean": float("nan"), "data": [1.0, float("inf")]})
    with pytest.raises(ConfigError, match="'mean'"):
        mapped.get_float("mean")
    with pytest.raises(ConfigError, match="'data'"):
        mapped.get_list("data")


def test_algo_params_reject_a_key_they_do_not_read():
    # a misspelt neal8_n_aux used to run Neal8 with the default 3 auxiliaries
    neal8 = ALGO_TEXT.replace('"Neal2"', '"Neal8"')
    with pytest.raises(ConfigError, match="unknown key 'neal8_naux'"):
        parse_algo_params(parse_config(neal8 + "neal8_naux: 7\n"))
    assert parse_algo_params(parse_config(neal8 + "neal8_n_aux: 7\n")).neal8_n_aux == 7
    # no sampler but Neal8 reads it
    with pytest.raises(ConfigError,
                       match="'neal8_n_aux' is read by Neal8 only; algo_id is 'Neal2'"):
        parse_algo_params(parse_config(ALGO_TEXT + "neal8_n_aux: 3\n"))
    with pytest.raises(ConfigError, match="unknown key 'block'"):
        parse_algo_params(parse_config(ALGO_TEXT + "block { rng_seed: 1 }\n"))


def test_a_tree_is_checked_for_its_own_reads_alone():
    # reading one copy marks nothing in the tree given, so a second reader
    # checks its own reads
    tree = parse_config(ALGO_TEXT.replace('"Neal2"', '"Neal8"') + "neal8_n_aux: 5\n")
    parse_algo_params(tree)
    tree.entries[0] = ("algo_id", "Neal2")
    with pytest.raises(ConfigError, match="neal8_n_aux"):
        parse_algo_params(tree)


def _readme_block(title):
    """The fenced block of README.md whose first line is ``title``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in readme.split("```")[1::2] if b.strip().startswith(title)]
    return block


def test_readme_parameter_files_build():
    # the examples of README's "Parameter files" parse and build as they are
    params = parse_algo_params(parse_config(_readme_block("# algo_params.txt")))
    assert (params.algo_id, params.iterations, params.burnin) == ("Neal2", 1500, 500)
    g0 = build_hierarchy("NNIG", parse_config(_readme_block("# g0_params.txt (NNIG)")))
    assert g0.prior.hypers == NIGHypers(0.0, 0.1, 2.0, 2.0)
    dp = build_mixing("DP", parse_config(_readme_block("# dp_params.txt")))
    assert (dp.totalmass, dp.gamma_prior) == (1.0, None)
