"""Exception types shared across the library, and its size caps.

Everything derives from ``CliffSynthError`` (itself a ``ValueError``) so
callers can catch broadly or per-condition. The CLI maps these onto stable
exit codes.

Every limit on what the library will build or check is one entry of
``SCALE_CAPS``, and ``check_scale`` is the one place that refuses a need
above its cap. This module imports nothing, so a cap is checked before
numpy or any dense array is loaded.
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
    """A need exceeds its cap in ``SCALE_CAPS``; raised by ``check_scale`` alone."""


class SynthesisCheckError(CliffSynthError):
    """The synthesizer's own invariant check failed. This is a fault in the
    library, not in its input; the message names the qudit and the line."""


# cap name -> (cap, what the cap bounds)
SCALE_CAPS: dict[str, tuple[int, str]] = {
    "dimension d": (
        1_000_000,
        "the qudit dimension d, and with it the modulus D of all exact arithmetic",
    ),
    "dense oracle side": (
        256,
        "the side d^n of a whole program in the dense oracle: check_program, sequence_unitary",
    ),
    "dense operator side": (
        1024,
        "the side d^n of one dense gate or word unitary, and d^2 in the symmetric embedding check",
    ),
    "embed-check d": (
        36,
        "the ambient dimension n*r_x*r_z of embed-check's exhaustive witness search",
    ),
}


def check_scale(name: str, need: int) -> None:
    """Raise ``ScaleLimitError`` if ``need`` exceeds the cap ``name``; a need
    equal to the cap passes."""
    cap, bounds = SCALE_CAPS[name]
    if need > cap:
        raise ScaleLimitError(f"{name} {need} exceeds the cap {cap} ({bounds})")
