"""Exact arithmetic over the rings Z_d and Z_D.

A qudit of Hilbert-space dimension ``d`` carries two moduli: Pauli exponents
live in Z_d, while classical gate matrices and phases live in Z_D where
D = d for odd d and D = 2d for even d. ``Dimension`` bundles the pair.

All values are kept as canonical representatives in ``[0, modulus)``;
negative intermediates are reduced immediately so equality tests are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import CliffSynthError, check_scale


@dataclass(frozen=True)
class Dimension:
    """The pair (d, D): Hilbert-space dimension and phase/matrix modulus."""

    d: int
    D: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 2:
            raise CliffSynthError(f"dimension d must be an integer >= 2, got {self.d}")
        check_scale("dimension d", self.d)
        expected = self.d if self.d % 2 == 1 else 2 * self.d
        if self.D != expected:
            raise CliffSynthError(
                f"phase modulus must be {expected} for d={self.d}, got {self.D}"
            )

    @classmethod
    def of(cls, d: int) -> "Dimension":
        """Build the dimension pair for Hilbert-space dimension ``d``."""
        try:
            d = operator.index(d)
        except TypeError:
            raise CliffSynthError(f"dimension d must be an integer >= 2, got {d!r}") from None
        return cls(d, d if d % 2 == 1 else 2 * d)


def gcd0(a: int, b: int) -> int:
    """Greatest common divisor extended to zero arguments.

    Returns the ordinary gcd for positive inputs, ``m`` for ``(0, m)`` and
    ``(m, 0)``, and 0 for ``(0, 0)``.
    """
    if a < 0 or b < 0:
        raise CliffSynthError(f"gcd0 expects nonnegative inputs, got ({a}, {b})")
    return math.gcd(a, b)


def mod_inverse(a: int, m: int) -> int | None:
    """Inverse of ``a`` modulo ``m`` in ``[0, m)``, or None if not a unit."""
    if m < 2:
        raise CliffSynthError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        return None
