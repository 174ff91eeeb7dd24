"""Parser for the nested-brace text parameter files.

The format is a sequence of entries, where each entry is either a scalar
assignment or a nested block::

    fixed_values {
        mean: 0.0
        var_scaling: 0.1        # trailing comments are fine
        data: [3.484, 3.487]
        label: "a string"
    }

Grammar: file := entry*; entry := key ':' scalar | key '{' entry* '}';
scalar := number | quoted-string | 'true' | 'false' | '[' number (',' number)* ']'.

One compiled pattern, ``_TOKEN``, is the token table. After any run of
whitespace (``str.isspace``) and ``#`` line comments it matches one of
four alternatives: punctuation ``:{}[],``; a quoted string, in which a
backslash escapes the next character (``\\n`` and ``\\t`` are a newline and
a tab, anything else stands for itself); an identifier of ASCII letters,
digits and ``_``; or a number, a run of ``0-9+-.eE`` that starts with a
digit, sign or point and that ``float`` must accept. ``_tokens`` walks the text with it and yields
``(kind, value, line, column)`` one token at a time, so the first error in
text order is the one reported. All numbers are 64-bit floats; the typed
getters reject non-finite ones, and integer-valued fields are validated by
their consumers.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError

_TOKEN = re.compile(r"""
    (?:\s|\#[^\n]*)*
    (?:(?P<punct>[:{}\[\],])
      |(?P<string>"(?:[^"\\\n]|\\[\s\S])*")
      |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      |(?P<number>[0-9+.-][0-9+.eE-]*))?""", re.VERBOSE)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}
_EXACT_INT_LIMIT = 2 ** 53


@dataclass
class ConfigTree:
    """Ordered list of (key, value) entries.

    Values are floats, strings, lists of floats, or nested ``ConfigTree``
    instances. Scalar keys are unique per level; nested-tree keys may repeat.
    Every getter marks the entry it reads, for :func:`_check_read`.
    """

    entries: list = field(default_factory=list)
    _read: set = field(default_factory=set, compare=False, repr=False)

    def has(self, key):
        return any(k == key for k, _ in self.entries)

    def get(self, key, default=None):
        for i, (k, v) in enumerate(self.entries):
            if k == key:
                self._read.add(i)
                return v
        return default

    def _typed(self, key, default, kind, expected):
        """The value at ``key`` (or ``default``), which must be a ``kind``.

        ``expected`` completes "key '...' must be "; ``{}`` in it stands for
        the type found.
        """
        v = self.get(key, default)
        if not isinstance(v, kind):
            raise ConfigError(f"key '{key}' must be " + expected.format(type(v).__name__)
                              if self.has(key) else f"missing required key '{key}'")
        return v

    def get_float(self, key, default=None):
        v = self._typed(key, default, float, "a number, got {}")
        if not math.isfinite(v):
            raise ConfigError(f"key '{key}' must be a finite number, got {v!r}")
        return v

    def get_int(self, key, default=None):
        v = self.get_float(key, None if default is None else float(default))
        if abs(v) >= _EXACT_INT_LIMIT:
            # a float this large may not be the integer written in the file
            raise ConfigError(f"key '{key}' must be an integer of magnitude below 2**53, got {v!r}")
        if v != int(v):
            raise ConfigError(f"key '{key}' must be integer-valued, got {v}")
        return int(v)

    def get_str(self, key, default=None):
        return self._typed(key, default, str, "a string, got {}")

    def get_bool(self, key, default=None):
        return self._typed(key, default, bool, "true or false")

    def get_list(self, key):
        v = self._typed(key, None, list, "a numeric list")
        if not all(type(x) is float and math.isfinite(x) for x in v):
            raise ConfigError(f"key '{key}' must hold finite numbers, got {v!r}")
        return list(v)

    def child(self, key):
        return self._typed(key, None, ConfigTree, "a nested block")

    @classmethod
    def from_mapping(cls, mapping):
        """Build a tree from a plain dict (nested dicts become subtrees)."""
        return cls([(k, cls.from_mapping(v) if isinstance(v, dict) else _plain(v))
                    for k, v in mapping.items()])


def _plain(value):
    """A mapping's value as the parser gives it: a number as a float and a list as a list,
    numpy values as Python ones; anything else as it is, for the typed getter to reject."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return list(map(_plain, value))
    return float(value) if type(value) in (int, float) else value


def _fresh(args):
    """A tree with no entry read yet: a copy of the tree ``args``, or that of a
    plain dict, or an empty one for ``None``."""
    if isinstance(args, ConfigTree):
        return ConfigTree([(k, _fresh(v) if isinstance(v, ConfigTree) else v)
                           for k, v in args.entries])
    return ConfigTree.from_mapping(args or {})


def _check_read(tree, reasons=None, prefix=""):
    """Reject the first entry, at any depth, that no getter read. ``reasons`` maps a
    top-level key to the error that names why it goes unread."""
    for i, (key, value) in enumerate(tree.entries):
        if i not in tree._read:
            repeated = any(tree.entries[j][0] == key for j in tree._read)
            raise ConfigError((reasons or {}).get(key)
                              or f"{'repeated' if repeated else 'unknown'} key '{prefix}{key}'")
        if isinstance(value, ConfigTree):
            _check_read(value, prefix=f"{prefix}{key}.")


def _tokens(text):
    """Yield ``(kind, value, line, column)`` per token, ending with ``'eof'``."""
    line, line_start, last, pos = 1, 0, 0, 0
    while True:
        m = _TOKEN.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        start = m.start(kind) if kind else pos
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, start) + 1
        last, col = start, start - line_start + 1
        raw = m[kind] if kind else text[start:start + 1]
        if kind == "punct":
            yield raw, raw, line, col
        elif kind == "string":
            yield kind, _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), raw[1:-1]), line, col
        elif kind == "ident":
            yield kind, raw, line, col
        elif kind == "number":
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(f"invalid number '{raw}'", line, col) from None
            yield kind, value, line, col
        elif not raw:
            yield "eof", None, line, col
            return
        elif raw == '"':
            raise ConfigError("unterminated string", line, col)
        elif raw.isdigit():  # a digit outside 0-9, such as '\u00b2'
            raise ConfigError("invalid number ''", line, col)
        else:
            raise ConfigError(f"unexpected character {raw!r}", line, col)


def _entries(tokens, top_level):
    tree, seen = ConfigTree(), {}
    for kind, key, line, col in tokens:
        if kind in ("eof", "}"):
            if (kind == "eof") == top_level:
                return tree
            raise ConfigError("unbalanced braces: "
                              + ("missing '}'" if kind == "eof" else "extra '}'"), line, col)
        if kind != "ident":
            raise ConfigError(f"expected a key, got '{kind}'", line, col)
        sep, _, line2, col2 = next(tokens)
        if sep not in (":", "{"):
            raise ConfigError(f"expected ':' or '{{' after key '{key}'", line2, col2)
        if key in seen and ":" in (sep, seen[key]):  # only nested blocks repeat
            raise ConfigError(f"duplicate key '{key}'", line, col)
        seen[key] = sep
        tree.entries.append((key, _value(tokens) if sep == ":" else _entries(tokens, False)))


def _value(tokens):
    kind, value, line, col = next(tokens)
    if kind in ("number", "string"):
        return value
    if kind == "ident" and value in ("true", "false"):
        return value == "true"
    if kind != "[":
        raise ConfigError(f"expected a value, got '{kind}'", line, col)
    items = []
    for kind, value, line, col in tokens:
        if kind == "]" and not items:
            return items
        if kind != "number":
            raise ConfigError("lists may contain only numbers", line, col)
        items.append(value)
        kind, _, line, col = next(tokens)
        if kind == "]":
            return items
        if kind != ",":
            raise ConfigError("expected ',' or ']' in list", line, col)


def parse_config(text):
    """Parse a parameter file into a :class:`ConfigTree`."""
    return _entries(_tokens(text), top_level=True)


def read_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None


def _serialize_value(value, indent, lines, key):
    pad = "    " * indent
    if isinstance(value, ConfigTree):
        lines.append(f"{pad}{key} {{")
        for k, v in value.entries:
            _serialize_value(v, indent + 1, lines, k)
        lines.append(f"{pad}}}")
    elif isinstance(value, bool):
        lines.append(f"{pad}{key}: {'true' if value else 'false'}")
    elif isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'{pad}{key}: "{escaped}"')
    elif isinstance(value, list):
        body = ", ".join(repr(v) for v in value)
        lines.append(f"{pad}{key}: [{body}]")
    else:
        lines.append(f"{pad}{key}: {value!r}")


def serialize_config(tree):
    """Render a tree back to text; the result parses to an equal tree."""
    lines = []
    for k, v in tree.entries:
        _serialize_value(v, 0, lines, k)
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class AlgoParams:
    """Typed run parameters read from the algorithm config file."""

    algo_id: str
    rng_seed: int
    iterations: int
    burnin: int
    init_num_clusters: int
    neal8_n_aux: int = 3


def parse_algo_params(tree):
    """Type the algorithm parameter tree.

    Every key goes through its typed getter, and a key it does not read is an
    error: ``neal8_n_aux`` is read for Neal8 alone. Only ``rng_seed >= 0`` and
    ``neal8_n_aux >= 1`` are checked here: the seed goes straight to numpy.
    The rest are checked where the engine takes them, before any sweep:
    ``algo_id`` and ``init_num_clusters`` by ``build_algorithm``,
    ``iterations`` and ``burnin`` by the sampler's ``run``.
    """
    tree = _fresh(tree)
    algo_id = tree.get_str("algo_id")
    rng_seed = tree.get_int("rng_seed")
    if rng_seed < 0:
        raise ConfigError("rng_seed must be non-negative")
    iterations = tree.get_int("iterations")
    burnin = tree.get_int("burnin")
    init_num_clusters = tree.get_int("init_num_clusters")
    n_aux = tree.get_int("neal8_n_aux", 3) if algo_id == "Neal8" else 3
    if n_aux < 1:
        raise ConfigError("neal8_n_aux must be positive")
    _check_read(tree, {"neal8_n_aux": f"'neal8_n_aux' is read by Neal8 only; "
                                      f"algo_id is '{algo_id}'"})
    return AlgoParams(algo_id, rng_seed, iterations, burnin, init_num_clusters, n_aux)
