"""Exception types shared across the library.

Everything derives from ``CliffSynthError`` (itself a ``ValueError``) so
callers can catch broadly or per-condition. The CLI maps these onto stable
exit codes.
"""


class CliffSynthError(ValueError):
    """Base class for all library errors."""


class ParseError(CliffSynthError):
    """A text input (matrix file, gate program, Pauli word) is malformed."""


class DimensionMismatchError(CliffSynthError):
    """Operands disagree on qudit count or Hilbert-space dimension."""


class MalformedMatrixError(CliffSynthError):
    """A matrix, gate or word argument has the wrong shape, or entries
    that are out of range or not integers."""


class NonSymplecticError(CliffSynthError):
    """A matrix required to be symplectic is not."""


class DegenerateWordError(CliffSynthError):
    """The identity Pauli word (or an all-zero exponent pair) was passed to
    a reduction that has no target for it."""


class ScaleLimitError(CliffSynthError):
    """An input dimension or a dense-matrix computation exceeds a size cap."""


class SynthesisCheckError(CliffSynthError):
    """The synthesizer's own invariant check failed. This is a fault in the
    library, not in its input; the message names the qudit and the line."""
