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

from .errors import CliffSynthError, check_scale

_set = object.__setattr__


class _Frozen:
    """Base of the library's value classes, with a frozen dataclass's behaviour.

    ``Dimension``, ``PauliWord``, ``SymplecticMatrix``, ``GateSequence``,
    ``Embedding`` and ``DenseOperator`` derive from it, so no module
    imports ``dataclasses``. A subclass names its fields in
    ``__match_args__`` and sets each one once, in ``__init__``, through
    ``_set``. The repr names every field, ``==`` and ``hash`` read the
    one tuple of field values, and a value of another class compares as
    ``NotImplemented``. Assignment and deletion raise ``AttributeError``.
    Instances keep their ``__dict__``, so pickle and copy restore the
    fields without going through ``__setattr__``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__match_args__)

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Dimension(_Frozen):
    """The pair (d, D): Hilbert-space dimension and phase/matrix modulus."""

    __match_args__ = ("d", "D")
    d: int
    D: int

    def __init__(self, d: int, D: int) -> None:
        if not isinstance(d, int) or d < 2:
            raise CliffSynthError(f"dimension d must be an integer >= 2, got {d}")
        check_scale("dimension d", d)
        expected = d if d % 2 == 1 else 2 * d
        if D != expected:
            raise CliffSynthError(f"phase modulus must be {expected} for d={d}, got {D}")
        _set(self, "d", d)
        _set(self, "D", D)

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
