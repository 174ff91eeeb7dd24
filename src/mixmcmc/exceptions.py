"""Exception types shared across the package."""


class MixError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MixError, ValueError):
    """Malformed or invalid configuration input.

    It is also a ``ValueError``, so a bad name or value given to the
    estimator raises what scikit-learn callers expect. Parse errors carry
    the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class CapabilityError(MixError):
    """An operation was requested from a component that does not support it.

    Raised e.g. when asking a non-conjugate hierarchy for a predictive
    density, or a multivariate state for an unconstrained parameterization.
    """


class DecodeError(MixError):
    """A serialized chain record could not be decoded.

    ``record_index`` is the 1-based position of the bad record in the file.
    """

    def __init__(self, message, record_index=None):
        if record_index is not None:
            message = f"{message} (record {record_index})"
        super().__init__(message)
        self.record_index = record_index
