"""Phase-free classical representation of n-qudit Pauli operators.

A word X^a Z^b (tensor factors X^{a_i} Z^{b_i}) is represented by its
exponent vector (a_1..a_n, b_1..b_n) over Z_d: all X exponents first, then
all Z exponents. Global phases are deliberately absent here; exact phases
only exist at the dense-unitary level.

The group product of two words becomes componentwise exponent addition
mod d, and commutation is captured by the symplectic inner product.
"""

from __future__ import annotations

import re
from operator import index
from typing import Sequence

from .errors import DimensionMismatchError, MalformedMatrixError, ParseError
from .modring import Dimension, _Frozen, _set

_WORD_RE = re.compile(
    r"^\s*d=(\d+)\s+n=(\d+)\s+a=([0-9,\s]*?)\s+b=([0-9,\s]*?)\s*$"
)


class PauliWord(_Frozen):
    """Exponent-vector form of an n-qudit Pauli operator, modulo phase."""

    __match_args__ = ("dim", "xexp", "zexp")
    dim: Dimension
    xexp: tuple[int, ...]
    zexp: tuple[int, ...]

    def __init__(self, dim: Dimension, xexp: Sequence[int], zexp: Sequence[int]) -> None:
        if len(xexp) != len(zexp) or len(xexp) < 1:
            raise DimensionMismatchError(
                f"exponent vectors must share a positive length, got "
                f"{len(xexp)} and {len(zexp)}"
            )
        _set(self, "dim", dim)
        d = dim.d
        try:
            _set(self, "xexp", tuple(index(v) % d for v in xexp))
            _set(self, "zexp", tuple(index(v) % d for v in zexp))
        except TypeError:
            _set(self, "xexp", xexp)  # the message shows the exponents as given
            _set(self, "zexp", zexp)
            raise MalformedMatrixError(f"exponents must be integers: {self}") from None

    @property
    def n(self) -> int:
        return len(self.xexp)

    @property
    def is_identity(self) -> bool:
        return not any(self.xexp) and not any(self.zexp)

    @classmethod
    def from_vector(cls, vec: Sequence[int], dim: Dimension) -> "PauliWord":
        """The word with exponent vector ``vec``, a sequence or 1-D array of integers."""
        try:
            vec = tuple(vec)
        except TypeError:  # a scalar
            vec = ()
        if len(vec) % 2 != 0 or not vec:
            raise DimensionMismatchError(
                f"exponent vector must have even positive length, got {len(vec)} entries"
            )
        n = len(vec) // 2
        return cls(dim, vec[:n], vec[n:])

    @classmethod
    def x_generator(cls, i: int, n: int, dim: Dimension) -> "PauliWord":
        """The word with a single X on qudit ``i``."""
        return cls._generator(i, n, dim, 0)

    @classmethod
    def z_generator(cls, i: int, n: int, dim: Dimension) -> "PauliWord":
        """The word with a single Z on qudit ``i``."""
        return cls._generator(i, n, dim, 1)

    @classmethod
    def _generator(cls, i: int, n: int, dim: Dimension, block: int) -> "PauliWord":
        """The unit word on qudit ``i`` of the X (``block`` 0) or Z (1) block."""
        n = _qudit_count(n)
        try:
            ok = 0 <= index(i) < n
        except TypeError:
            ok = False
        if not ok:
            raise DimensionMismatchError(f"qudit index must lie in [0, {n}), got {i!r}")
        vec = [0] * (2 * n)
        vec[block * n + index(i)] = 1
        return cls.from_vector(vec, dim)

    @classmethod
    def identity(cls, n: int, dim: Dimension) -> "PauliWord":
        n = _qudit_count(n)
        return cls(dim, (0,) * n, (0,) * n)

    def __add__(self, other: "PauliWord") -> "PauliWord":
        """Group product in the phase-free quotient: exponents add mod d."""
        _check_compatible(self, other)
        d = self.dim.d
        return PauliWord(
            self.dim,
            tuple((a + c) % d for a, c in zip(self.xexp, other.xexp)),
            tuple((b + e) % d for b, e in zip(self.zexp, other.zexp)),
        )

    def scale(self, r: int) -> "PauliWord":
        """The r-th power of the word: exponents scale mod d."""
        d = self.dim.d
        return PauliWord(
            self.dim,
            tuple((r * a) % d for a in self.xexp),
            tuple((r * b) % d for b in self.zexp),
        )


def _qudit_count(n: object) -> int:
    """``n`` as an int; `MalformedMatrixError` if it is not an integer."""
    try:
        return index(n)
    except TypeError:
        raise MalformedMatrixError(f"qudit count must be an integer, got {n!r}") from None


def _check_compatible(u: PauliWord, v: PauliWord) -> None:
    if u.dim != v.dim:
        raise DimensionMismatchError(f"words have different dimensions: {u.dim} vs {v.dim}")
    if u.n != v.n:
        raise DimensionMismatchError(f"words have different qudit counts: {u.n} vs {v.n}")


def sip(u: PauliWord, v: PauliWord) -> int:
    """Symplectic inner product: sum of a_i b'_i - a'_i b_i, mod d.

    This is the exponent c such that the unitaries of u and v satisfy
    U_u U_v = omega^c U_v U_u.
    """
    _check_compatible(u, v)
    d = u.dim.d
    total = sum(a * bp - ap * b for a, b, ap, bp in zip(u.xexp, u.zexp, v.xexp, v.zexp))
    return total % d


def commutes(u: PauliWord, v: PauliWord) -> bool:
    """True iff any unitary representatives of u and v commute exactly."""
    return sip(u, v) == 0


def format_word(w: PauliWord) -> str:
    """Render a word in the CLI text form ``d=<d> n=<n> a=... b=...``."""
    return (
        f"d={w.dim.d} n={w.n} "
        f"a={','.join(str(a) for a in w.xexp)} "
        f"b={','.join(str(b) for b in w.zexp)}"
    )


def parse_word(text: str) -> PauliWord:
    """Parse the CLI text form, e.g. ``d=6 n=2 a=1,0 b=0,3``; d is checked
    first, as in `parse_matrix_text`."""
    m = _WORD_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse Pauli word: {text!r}")
    d, n = int(m.group(1)), int(m.group(2))
    if d < 2:
        raise ParseError(f"Pauli word dimension must be d >= 2, got d={d}")
    dim = Dimension.of(d)
    try:
        xs = [int(tok) for tok in m.group(3).split(",")]
        zs = [int(tok) for tok in m.group(4).split(",")]
    except ValueError as exc:
        raise ParseError(f"bad exponent list in Pauli word: {text!r}") from exc
    if len(xs) != n or len(zs) != n:
        raise ParseError(
            f"Pauli word declares n={n} but has {len(xs)} X and {len(zs)} Z exponents"
        )
    bad = [e for e in xs + zs if not 0 <= e < d]
    if bad:
        raise ParseError(f"Pauli word exponents out of range [0, {d}): {bad}")
    return PauliWord(dim, tuple(xs), tuple(zs))
