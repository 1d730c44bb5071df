"""Exception types shared across the package."""


class SparsimError(Exception):
    """Base class for all recoverable sparsim errors."""


class SimilarityEvalError(SparsimError):
    """A similarity evaluation failed or produced a non-finite value."""


class UnsupportedGradModeError(SparsimError):
    """The requested gradient mode is not available for this similarity."""


class SingularSystemError(SparsimError):
    """The coefficient system stayed numerically singular after jitter."""


class NonFiniteUpdateError(SparsimError):
    """A prototype update produced non-finite values."""


class ConvergenceError(SparsimError):
    """An iterative solver exhausted its sweep budget before reaching optimality."""


class DataFormatError(SparsimError):
    """A file could not be parsed into the expected structure."""


class BlackboxError(SimilarityEvalError):
    """A black-box scorer subprocess failed or broke the line protocol."""
