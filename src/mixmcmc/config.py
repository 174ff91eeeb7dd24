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
scalar := number | quoted-string | '[' number (',' number)* ']'.
``#`` starts a line comment; whitespace is insignificant outside quotes.
All numbers are parsed as 64-bit floats; integer-valued fields are
validated by their consumers.
"""

from dataclasses import dataclass, field

from .algorithms import ALGORITHM_IDS
from .exceptions import ConfigError

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | set("0123456789")
_NUMBER_CHARS = set("0123456789+-.eE")
_EXACT_INT_LIMIT = 2 ** 53


@dataclass
class ConfigTree:
    """Ordered list of (key, value) entries.

    Values are floats, strings, lists of floats, or nested ``ConfigTree``
    instances. Scalar keys are unique per level; nested-tree keys may repeat.
    """

    entries: list = field(default_factory=list)

    def keys(self):
        return [k for k, _ in self.entries]

    def has(self, key):
        return any(k == key for k, _ in self.entries)

    def get(self, key, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def require(self, key):
        for k, v in self.entries:
            if k == key:
                return v
        raise ConfigError(f"missing required key '{key}'")

    def get_float(self, key, default=None):
        v = self.get(key, default)
        if v is None:
            raise ConfigError(f"missing required key '{key}'")
        if not isinstance(v, float):
            raise ConfigError(f"key '{key}' must be a number, got {type(v).__name__}")
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
        v = self.get(key, default)
        if v is None:
            raise ConfigError(f"missing required key '{key}'")
        if not isinstance(v, str):
            raise ConfigError(f"key '{key}' must be a string, got {type(v).__name__}")
        return v

    def get_bool(self, key, default=None):
        v = self.get(key, default)
        if v is None:
            raise ConfigError(f"missing required key '{key}'")
        if not isinstance(v, bool):
            raise ConfigError(f"key '{key}' must be true or false")
        return v

    def get_list(self, key):
        v = self.require(key)
        if not isinstance(v, list):
            raise ConfigError(f"key '{key}' must be a numeric list")
        return list(v)

    def child(self, key):
        v = self.require(key)
        if not isinstance(v, ConfigTree):
            raise ConfigError(f"key '{key}' must be a nested block")
        return v

    @classmethod
    def from_mapping(cls, mapping):
        """Build a tree from a plain dict (nested dicts become subtrees)."""
        tree = cls()
        for k, v in mapping.items():
            if isinstance(v, dict):
                tree.entries.append((k, cls.from_mapping(v)))
            elif isinstance(v, (str, bool)):
                tree.entries.append((k, v))
            elif isinstance(v, (list, tuple)):
                tree.entries.append((k, [float(x) for x in v]))
            else:
                tree.entries.append((k, float(v)))
        return tree


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n=1):
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _skip_ws(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif ch.isspace():
                self._advance()
            else:
                return

    def next(self):
        """Return (kind, value, line, col); kind 'eof' at end of input."""
        self._skip_ws()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return ("eof", None, line, col)
        ch = self.text[self.pos]
        if ch in ":{}[],":
            self._advance()
            return (ch, ch, line, col)
        if ch == '"':
            return self._string(line, col)
        if ch in _IDENT_START:
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
                self._advance()
            return ("ident", self.text[start:self.pos], line, col)
        if ch.isdigit() or ch in "+-.":
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] in _NUMBER_CHARS:
                self._advance()
            raw = self.text[start:self.pos]
            try:
                return ("number", float(raw), line, col)
            except ValueError:
                raise ConfigError(f"invalid number '{raw}'", line, col) from None
        raise ConfigError(f"unexpected character {ch!r}", line, col)

    def _string(self, line, col):
        self._advance()  # opening quote
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                self._advance()
                if self.pos >= len(self.text):
                    break
                esc = self.text[self.pos]
                out.append({"n": "\n", "t": "\t"}.get(esc, esc))
                self._advance()
            elif ch == '"':
                self._advance()
                return ("string", "".join(out), line, col)
            elif ch == "\n":
                raise ConfigError("unterminated string", line, col)
            else:
                out.append(ch)
                self._advance()
        raise ConfigError("unterminated string", line, col)


class _Parser:
    def __init__(self, text):
        self._tok = _Tokenizer(text)
        self._peeked = None

    def _next(self):
        if self._peeked is not None:
            tok, self._peeked = self._peeked, None
            return tok
        return self._tok.next()

    def _peek(self):
        if self._peeked is None:
            self._peeked = self._tok.next()
        return self._peeked

    def parse(self):
        tree = self._entries(top_level=True)
        kind, _, line, col = self._next()
        if kind != "eof":
            raise ConfigError(f"unexpected '{kind}'", line, col)
        return tree

    def _entries(self, top_level):
        tree = ConfigTree()
        scalar_keys = set()
        tree_keys = set()
        while True:
            kind, value, line, col = self._peek()
            if kind == "eof":
                if not top_level:
                    raise ConfigError("unbalanced braces: missing '}'", line, col)
                return tree
            if kind == "}":
                if top_level:
                    raise ConfigError("unbalanced braces: extra '}'", line, col)
                self._next()
                return tree
            if kind != "ident":
                raise ConfigError(f"expected a key, got '{kind}'", line, col)
            self._next()
            key = value
            kind2, _, line2, col2 = self._next()
            if kind2 == ":":
                if key in scalar_keys or key in tree_keys:
                    raise ConfigError(f"duplicate key '{key}'", line, col)
                scalar_keys.add(key)
                tree.entries.append((key, self._scalar()))
            elif kind2 == "{":
                if key in scalar_keys:
                    raise ConfigError(f"duplicate key '{key}'", line, col)
                tree_keys.add(key)
                tree.entries.append((key, self._entries(top_level=False)))
            else:
                raise ConfigError(
                    f"expected ':' or '{{' after key '{key}'", line2, col2
                )

    def _scalar(self):
        kind, value, line, col = self._next()
        if kind in ("number", "string"):
            return value
        if kind == "ident" and value in ("true", "false"):
            return value == "true"
        if kind == "[":
            return self._number_list(line, col)
        raise ConfigError(f"expected a value, got '{kind}'", line, col)

    def _number_list(self, line, col):
        items = []
        kind, value, l2, c2 = self._next()
        if kind == "]":
            return items
        while True:
            if kind != "number":
                raise ConfigError("lists may contain only numbers", l2, c2)
            items.append(value)
            kind, value, l2, c2 = self._next()
            if kind == "]":
                return items
            if kind != ",":
                raise ConfigError("expected ',' or ']' in list", l2, c2)
            kind, value, l2, c2 = self._next()


def parse_config(text):
    """Parse a parameter file into a :class:`ConfigTree`."""
    return _Parser(text).parse()


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
    """Validate and type the algorithm parameter tree."""
    algo_id = tree.get_str("algo_id")
    if algo_id not in ALGORITHM_IDS:
        raise ConfigError(
            f"unknown algo_id '{algo_id}'; expected one of {', '.join(ALGORITHM_IDS)}"
        )
    rng_seed = tree.get_int("rng_seed")
    if rng_seed < 0:
        raise ConfigError("rng_seed must be non-negative")
    iterations = tree.get_int("iterations")
    burnin = tree.get_int("burnin")
    init_num_clusters = tree.get_int("init_num_clusters")
    if iterations < 1:
        raise ConfigError("iterations must be positive")
    if burnin < 0:
        raise ConfigError("burnin must be non-negative")
    if burnin >= iterations:
        raise ConfigError(f"burnin ({burnin}) must be < iterations ({iterations})")
    if init_num_clusters < 1:
        raise ConfigError("init_num_clusters must be positive")
    n_aux = tree.get_int("neal8_n_aux", 3)
    if n_aux < 1:
        raise ConfigError("neal8_n_aux must be positive")
    return AlgoParams(algo_id, rng_seed, iterations, burnin, init_num_clusters, n_aux)
