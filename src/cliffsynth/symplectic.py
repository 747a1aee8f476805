"""Symplectic 2n x 2n matrices over Z_D and the three generator gates.

A Clifford operation on n qudits is represented by a matrix N over Z_D
acting on exponent vectors, with N^T S N = S for the standard block form
S = [[0, I], [-I, 0]]. N fixes the operation only up to a Pauli word and
a global phase. The three generator gates are

* ``Fourier(i)``   -- single-qudit discrete Fourier gate, 2x2 block [[0,-1],[1,0]]
* ``Phase(i, e)``  -- e-th power of the phase-shift gate, block [[1,0],[e,1]]
* ``Sum(c, t, e)`` -- e-th power of the two-qudit sum gate (control c, target t)

A gate is an immutable tuple of its fields, so ``Sum(1, 2, 3)`` equals
``(1, 2, 3)``; gates of different kinds differ in length and never compare
equal. The public constructors check the qudit indices. A gate in normal
form has int fields, its power in [0, D) and its qudits below n. Every
public entry that takes gates (``GateSequence``, ``merge_gates``,
``gate_matrix``, ``invert_gate``, ``unitary.gate_unitary``) checks them
with ``_normal_gates``. The library builds its gates in normal form with
the trusted constructor ``_gate``, and the merge kernel ``_merge_onto``
trusts its gates: what ``decompose``, ``transport``'s seams and
``GateSequence.inverse`` hand it is not checked again. Kernels unpack or
index gates, not read fields by name.

``GateSequence.inverse`` is the group inverse, gate by gate (F^-1 = F^3,
phase and sum powers negated), merged into a reduced word. It is exact
as a unitary up to phase at every d, not only as a Z_D matrix, which at
odd d fixes a program only up to a Pauli word.

Gate sequences are stored in application order: the first gate listed is
the first one applied to a state, so the matrix of a sequence is the
reversed product of its gate matrices.

Matrix entries live mod D; Pauli exponent vectors live mod d. Applying a
matrix to a word reduces the product mod d. Both are Python ints, exact at
any size; numpy is imported only for the dense references (``gate_matrix``,
``SymplecticMatrix.mat``).
"""

from __future__ import annotations

import sys
from operator import index, itemgetter, mul, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

from .errors import (
    DimensionMismatchError,
    MalformedMatrixError,
    NonSymplecticError,
    ParseError,
)
from .modring import Dimension, _Frozen, _set
from .pauli import PauliWord, _qudit_count

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# gates


def _check_qudit(q: int) -> None:
    """Raise `MalformedMatrixError` unless the qudit index ``q`` compares
    as a number that is not negative: a str or None does not."""
    try:
        negative = q < 0
    except TypeError:
        raise MalformedMatrixError(f"qudit index {q!r} is not an integer") from None
    if negative:
        raise MalformedMatrixError(f"negative qudit index {q}")


class _GateTuple(tuple):
    """A gate: an immutable tuple of its fields, in ``__match_args__``
    order, each also read by name. Pickling and copying rebuild it from
    its fields through the public constructor."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __getnewargs__(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self))
        return f"{type(self).__name__}({fields})"


class Fourier(_GateTuple):
    """Discrete Fourier gate on one qudit."""

    __slots__ = ()
    __match_args__ = ("qudit",)

    def __new__(cls, qudit: int) -> "Fourier":
        _check_qudit(qudit)
        return tuple.__new__(cls, (qudit,))

    qudit = property(itemgetter(0))


class Phase(_GateTuple):
    """Power of the phase-shift gate on one qudit."""

    __slots__ = ()
    __match_args__ = ("qudit", "power")

    def __new__(cls, qudit: int, power: int) -> "Phase":
        _check_qudit(qudit)
        return tuple.__new__(cls, (qudit, power))

    qudit = property(itemgetter(0))
    power = property(itemgetter(1))


class Sum(_GateTuple):
    """Power of the two-qudit sum gate (qudit generalization of CNOT)."""

    __slots__ = ()
    __match_args__ = ("control", "target", "power")

    def __new__(cls, control: int, target: int, power: int) -> "Sum":
        _check_qudit(control)
        _check_qudit(target)
        if control == target:
            raise MalformedMatrixError("sum gate needs distinct control and target")
        return tuple.__new__(cls, (control, target, power))

    control = property(itemgetter(0))
    target = property(itemgetter(1))
    power = property(itemgetter(2))


# The trusted constructor, ``_gate(Sum, (c, t, e))``: no checks, for
# fields the library already knows are ints in range.
_gate = tuple.__new__

Gate = Union[Fourier, Phase, Sum]


def _normal_gates(gates: Iterable[Gate], D: int, n: int | None = None) -> tuple[Gate, ...]:
    """``gates`` in normal form, qudits below ``n`` if given: the one check
    of gates. Gates in form are kept, and so is the tuple when all are;
    numpy fields and powers outside [0, D) are normalized, and anything
    else raises `MalformedMatrixError`. One pass tests each gate inline;
    only a gate out of form sends the tuple down the per-gate path."""
    gates = tuple(gates)
    top = sys.maxsize if n is None else _qudit_count(n)
    for g in gates:
        kind = type(g)
        if kind is Fourier:
            (q,) = g
            if type(q) is int and q < top:
                continue
        elif kind is Sum:
            c, t, e = g
            if type(c) is type(t) is type(e) is int and c < top and t < top and 0 <= e < D:
                continue
        elif kind is Phase:
            q, e = g
            if type(q) is type(e) is int and q < top and 0 <= e < D:
                continue
        break
    else:
        return gates
    out = []
    for g in gates:
        kind = type(g)
        if kind not in (Fourier, Phase, Sum):
            raise MalformedMatrixError(f"{g!r} is not a gate")
        try:
            ints = [index(v) for v in g]
        except TypeError:
            raise MalformedMatrixError(f"gate {g} has a field that is not an integer") from None
        if kind is not Fourier:
            ints[-1] %= D
        if ints != list(g) or any(type(v) is not int for v in g):
            g = kind(*ints)
        if max(ints[: 2 if kind is Sum else 1]) >= top:
            raise MalformedMatrixError(f"gate {g} out of range for n={n}")
        out.append(g)
    return tuple(out)


def gate_matrix(g: Gate, n: int, dim: Dimension) -> np.ndarray:
    """The 2n x 2n classical matrix of a generator gate, entries in [0, D).

    A dense int64 reference, built without `_PackedRows.act`.
    """
    import numpy as np

    (g,) = _normal_gates((g,), dim.D, n)
    D = dim.D
    m = np.eye(2 * n, dtype=np.int64)
    if isinstance(g, Fourier):
        i = g.qudit
        m[i, i] = 0
        m[n + i, n + i] = 0
        m[i, n + i] = D - 1
        m[n + i, i] = 1
    elif isinstance(g, Phase):
        m[n + g.qudit, g.qudit] = g.power
    else:
        e = g.power
        m[g.target, g.control] = e
        m[n + g.control, n + g.target] = -e % D
    return m


class _PackedRows:
    """Rows of ``size`` entries over Z_D, each packed into one int.

    Entry c of a row is field c, ``width`` = 8 * ``nbytes`` bits, least
    significant first, so a row operation is a few operations on whole
    ints, not a loop over the entries: `act` applies a list of gates, and
    `combine` forms a linear combination of up to ``terms`` rows. A field
    that starts in [0, D) stays at most ``top`` = (D-1) + terms * (D-1)^2
    before it is reduced, and at most ``top * recip`` < 2^width when
    multiplied by ``recip``, so no field carries into the next. For
    x <= top, ``x * recip >> shift`` is x // D exactly (division by a
    scaled reciprocal, Granlund and Montgomery, PLDI 1994), and masked to
    each field by ``quot_mask`` it gives every quotient at once.

    An entry in [0, D) fills only the low ``lanes`` = ceil(bitlen(D-1)/8)
    bytes of its field, so `pack` and `unpack` move one byte lane of every
    entry at a time, ``buf[k::nbytes]``, not one int per entry.
    """

    def __init__(self, size: int, D: int, terms: int = 1) -> None:
        bits = (D - 1 + terms * (D - 1) ** 2).bit_length()
        self.size, self.D = size, D
        self.shift = bits + D.bit_length()
        self.recip = -(-(1 << self.shift) // D)
        self.nbytes = (bits + self.shift + 8) // 8
        self.width = 8 * self.nbytes
        self.field = (1 << self.width) - 1
        self.lanes = -(-(D - 1).bit_length() // 8)
        self.ones = int.from_bytes((b"\x01" + bytes(self.nbytes - 1)) * size, "little")
        self.quot_mask = ((1 << (self.width - self.shift)) - 1) * self.ones
        self.all_D = D * self.ones

    def pack(self, row: Sequence[int]) -> int:
        """The packed row of ``size`` entries in [0, 256^lanes). The top
        lane is not masked, so a negative or wider entry makes the
        `bytes` call raise `ValueError`, as does a row of another length."""
        nb, top = self.nbytes, self.lanes - 1
        buf = bytearray(nb * self.size)
        for k in range(top):
            buf[k::nb] = bytes([v & 255 for v in row])
            row = [v >> 8 for v in row]
        buf[top::nb] = bytes(row)
        return int.from_bytes(buf, "little")

    def unpack(self, x: int) -> tuple[int, ...]:
        """The entries of a packed row whose fields are reduced, in [0, D)."""
        nb = self.nbytes
        data = x.to_bytes(nb * self.size, "little")
        out = tuple(data[0::nb])
        for k in range(1, self.lanes):
            out = tuple(map(or_, out, [v << 8 * k for v in data[k::nb]]))
        return out

    def unit(self, c: int) -> int:
        """The packed unit row e_c."""
        return 1 << (self.width * c)

    def entry(self, x: int, c: int) -> int:
        return (x >> (self.width * c)) & self.field

    def combine(self, coeffs: Iterable[int], rows: Iterable[int]) -> int:
        """The packed row sum of c * row mod D, for at most ``terms`` pairs
        with every c in [0, D)."""
        x = sum(map(mul, coeffs, rows))
        return x - self.D * ((x * self.recip >> self.shift) & self.quot_mask)

    def act(self, work: list[int], gates: Iterable[Gate], n: int) -> None:
        """In place, ``work := gate_matrix(g) @ work mod D`` for each g of
        ``gates`` in turn: the one exact gate kernel, one loop with the
        reduction inline. Each generator touches at most two rows, so a
        gate costs O(n), the row update of a stabilizer tableau (Aaronson
        and Gottesman, arXiv:quant-ph/0406196). Powers may lie outside [0, D).
        """
        D, recip, shift, mask, all_D = self.D, self.recip, self.shift, self.quot_mask, self.all_D
        for g in gates:
            kind = type(g)
            if kind is Fourier:
                (i,) = g
                x, work[n + i] = all_D - work[n + i], work[i]
                work[i] = x - D * ((x * recip >> shift) & mask)
            elif kind is Phase:
                q, e = g
                x = work[n + q] + e % D * work[q]
                work[n + q] = x - D * ((x * recip >> shift) & mask)
            else:
                c, t, e = g
                x, y = work[t] + e % D * work[c], work[n + c] + -e % D * work[n + t]
                work[t] = x - D * ((x * recip >> shift) & mask)
                work[n + c] = y - D * ((y * recip >> shift) & mask)


def invert_gate(g: Gate, dim: Dimension) -> list[Gate]:
    """Gates whose sequence matrix is the inverse of ``g``'s matrix.

    The Fourier gate has order 4, so its inverse is three Fourier gates;
    phase and sum powers invert by negating the exponent mod D. The
    checked one-gate form of the step `GateSequence.inverse` takes per gate.
    """
    (g,) = _normal_gates((g,), dim.D)
    if type(g) is Fourier:
        return [g, g, g]
    *qudits, e = g
    return [_gate(type(g), (*qudits, -e % dim.D))]


def merge_gates(gates: Iterable[Gate], dim: Dimension) -> list[Gate]:
    """Collapse adjacent redundant gates without changing the matrix.

    Runs of Fourier gates on one qudit reduce mod 4, adjacent phase powers
    on one qudit and sum powers on one (control, target) pair add mod D,
    and gates that reduce to the identity are dropped.

    The output is the reduced word of the input in the free product of
    the cyclic groups <F_i | F_i^4>, <P_i> mod D and <C_{c,t}> mod D, one
    per qudit or qudit pair: the list is a stack, and each gate either
    joins the top letter of its own group or is pushed, and a letter
    that reduces to the identity is popped, which exposes the letter
    below it to the next gate. Reduced words in a free product are unique,
    so the result depends only on the element the input represents:
    ``merge(a + b) == merge(merge(a) + merge(b))``. So a program built
    from pieces that are already reduced words need only be merged where
    two pieces meet (`_merge_onto` with ``reduced``). Those relations all
    hold among the gate matrices, so merging keeps ``sequence_matrix``.
    """
    return _merge_onto([], _normal_gates(gates, dim.D), dim.D, reduced=False)


def _merge_onto(out: list[Gate], gates: Iterable[Gate], D: int, reduced: bool) -> list[Gate]:
    """Push ``gates`` onto the reduced word ``out`` by `merge_gates`' rules,
    in place, and return ``out``: ``merge_gates(out + gates)``.

    The kernel trusts its input: every gate is in normal form
    (`_normal_gates`), as the library's own gates are by construction.
    With ``reduced``, ``gates`` is itself a reduced word, so only the
    seam is merged: letters pop and combine while the next gate falls in
    the group of the top letter, and once one gate is pushed as a new
    letter the rest is appended as it is, since no two adjacent gates of
    a reduced word combine.
    """
    rest = iter(gates)
    prev = out[-1] if out else None
    top = type(prev)  # the kind of the top letter
    for g in rest:
        kind = type(g)
        if kind is Fourier:
            # gates of different kinds differ in length, so never compare equal
            if prev == g:
                # count the trailing run, wrap at 4
                run = 0
                while out and out[-1] == g:
                    out.pop()
                    run += 1
                out.extend([g] * ((run + 1) % 4))
                prev = out[-1] if out else None
                top = type(prev)
                continue
        elif top is kind and prev[0] == g[0] and (kind is Phase or prev[1] == g[1]):
            # phase powers on one qudit, or sum powers on one pair, add
            out.pop()
            p = (prev[-1] + g[-1]) % D
            if p:
                out.append(_gate(kind, (*g[:-1], p)))
            prev = out[-1] if out else None
            top = type(prev)
            continue
        elif not g[-1]:
            continue
        out.append(g)
        prev, top = g, kind
        if reduced:
            out.extend(rest)
            break
    return out


# The text form of a gate is its letter, then its fields: ``F q``, ``P q e``, ``C c t e``.
_LETTERS = {Fourier: "F", Phase: "P", Sum: "C"}
_KINDS = {letter: kind for kind, letter in _LETTERS.items()}


def format_gate(g: Gate) -> str:
    letter = _LETTERS.get(type(g))
    if letter is None:
        raise MalformedMatrixError(f"{g!r} is not a gate")
    return " ".join([letter, *map(str, g)])


def parse_gate_line(line: str) -> Gate:
    letter, *fields = line.split() or [""]
    kind = _KINDS.get(letter)
    try:
        if kind is not None and len(fields) == len(kind.__match_args__):
            return kind(*map(int, fields))
    except (ValueError, MalformedMatrixError) as exc:
        raise ParseError(f"bad gate line: {line!r}") from exc
    raise ParseError(f"bad gate line: {line!r}")


# ---------------------------------------------------------------------------
# matrices


Rows = tuple[tuple[int, ...], ...]


def _as_rows(mat: object, dim: Dimension) -> Rows:
    """The rows of a square integer matrix of even side, reduced into [0, D).

    ``mat`` is an ndarray or a sequence of integer sequences.
    """
    if hasattr(mat, "tolist"):
        mat = mat.tolist()
    D = dim.D
    try:
        rows = tuple(tuple(index(v) % D for v in row) for row in mat)
    except TypeError:
        raise MalformedMatrixError("expected a square matrix of integers") from None
    side = len(rows)
    if any(len(row) != side for row in rows):
        lengths = sorted({len(row) for row in rows})
        raise MalformedMatrixError(
            f"expected a square matrix, got {side} rows of lengths {lengths}"
        )
    if side % 2 != 0 or side == 0:
        raise MalformedMatrixError(f"expected an even side length, got {side}")
    return rows


def _positive_count(n: object) -> int:
    """The qudit count ``n`` as an int, `DimensionMismatchError` below 1."""
    n = _qudit_count(n)
    if n < 1:
        raise DimensionMismatchError(f"qudit count must be >= 1, got {n}")
    return n


def _symplectic_defect(rows: Rows, D: int) -> str | None:
    """None if N^T S N = S mod D, else the first entry (r, c) that differs:
    the product of the images of generators r and c.

    Row k of S N is row n + k of N for k < n, and minus row k - n below,
    so row r of N^T S N is the combination of the rows of S N with the
    entries of column r of N, formed on packed rows.
    """
    n = len(rows) // 2
    packed = _PackedRows(2 * n, D, terms=2 * n)
    s_n = [packed.pack(row) for row in rows[n:]]
    s_n += [packed.pack([-v % D for v in row]) for row in rows[:n]]
    for r, col in enumerate(zip(*rows)):
        s_row = packed.unit(n + r) if r < n else (D - 1) * packed.unit(r - n)
        got = packed.combine(col, s_n)
        if got != s_row:
            pairs = zip(packed.unpack(got), packed.unpack(s_row))
            c, v, w = next((c, v, w) for c, (v, w) in enumerate(pairs) if v != w)
            gen_r, gen_c = (f"{'XZ'[k >= n]}_{k % n}" for k in (r, c))
            return (
                f"the images of {gen_r} and {gen_c} (columns {r} and {c}) "
                f"have symplectic product {v}, not {w}"
            )
    return None


def is_symplectic(mat: object, dim: Dimension) -> bool:
    """True iff N^T S N = S mod D."""
    return _symplectic_defect(_as_rows(mat, dim), dim.D) is None


class SymplecticMatrix(_Frozen):
    """A validated symplectic matrix over Z_D, stored as rows of Python ints.

    The constructor takes an ndarray or nested integer sequences, reduces
    them into [0, D) and checks them. Matrices the library derives from
    symplectic ones (`compose`, `inverse`, `sequence_matrix`) are
    symplectic by construction and skip the check (``_derived``).
    """

    __match_args__ = ("dim", "rows")
    dim: Dimension
    rows: Rows

    def __init__(self, dim: Dimension, rows: object) -> None:
        rows = _as_rows(rows, dim)
        defect = _symplectic_defect(rows, dim.D)
        if defect is not None:
            raise NonSymplecticError(f"matrix is not symplectic mod {dim.D}: {defect}")
        _set(self, "dim", dim)
        _set(self, "rows", rows)

    @classmethod
    def _derived(cls, dim: Dimension, rows: Rows) -> "SymplecticMatrix":
        m = object.__new__(cls)
        _set(m, "dim", dim)
        _set(m, "rows", rows)
        return m

    @property
    def n(self) -> int:
        return len(self.rows) // 2

    @property
    def mat(self) -> np.ndarray:
        """The entries as a read-only int64 ndarray, built on each use."""
        import numpy as np

        mat = np.array(self.rows, dtype=np.int64)
        mat.flags.writeable = False
        return mat

    @classmethod
    def identity(cls, n: int, dim: Dimension) -> "SymplecticMatrix":
        side = range(2 * _positive_count(n))
        return cls._derived(dim, tuple(tuple(int(r == c) for c in side) for r in side))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return compose(self, other)


def compose(a: SymplecticMatrix, b: SymplecticMatrix) -> SymplecticMatrix:
    """Matrix product a.b mod D (b acts first on vectors)."""
    if a.dim != b.dim or a.n != b.n:
        raise DimensionMismatchError("cannot compose matrices of different shape/dim")
    packed = _PackedRows(2 * a.n, a.dim.D, terms=2 * a.n)
    b_rows = [packed.pack(row) for row in b.rows]
    return SymplecticMatrix._derived(
        a.dim, tuple(packed.unpack(packed.combine(row, b_rows)) for row in a.rows)
    )


def inverse(m: SymplecticMatrix) -> SymplecticMatrix:
    """Inverse by the closed form -S M^T S, valid for any symplectic M.

    Row r of the inverse is S applied to column n + r of M, and row n + r
    is -S applied to column r: the blocks [[A, B], [C, E]] of M become
    [[E^T, -B^T], [-C^T, A^T]], so no entry grows.
    """
    n, D = m.n, m.dim.D
    cols = list(zip(*m.rows))
    top = [cols[n + r][n:] + tuple(-v % D for v in cols[n + r][:n]) for r in range(n)]
    bottom = [tuple(-v % D for v in cols[r][n:]) + cols[r][:n] for r in range(n)]
    return SymplecticMatrix._derived(m.dim, tuple(top + bottom))


def _image(m: SymplecticMatrix, vec: Sequence[int]) -> list[int]:
    """``m`` times the exponent vector ``vec``, unreduced."""
    return [sum(map(mul, row, vec)) for row in m.rows]


def apply_to_word(m: SymplecticMatrix, w: PauliWord) -> PauliWord:
    """Phase-free conjugation action: multiply the exponent vector, mod d."""
    if m.dim != w.dim:
        raise DimensionMismatchError(f"matrix dim {m.dim} != word dim {w.dim}")
    if m.n != w.n:
        raise DimensionMismatchError(f"matrix n={m.n} != word n={w.n}")
    image = _image(m, w.xexp + w.zexp)
    return PauliWord(w.dim, tuple(image[: w.n]), tuple(image[w.n :]))


# ---------------------------------------------------------------------------
# sequences


class GateSequence(_Frozen):
    """An ordered gate program; the first gate listed is applied first."""

    __match_args__ = ("gates", "n", "dim")
    gates: tuple[Gate, ...]
    n: int
    dim: Dimension

    def __init__(self, gates: Iterable[Gate], n: int, dim: Dimension) -> None:
        n = _positive_count(n)
        _set(self, "gates", _normal_gates(gates, dim.D, n))
        _set(self, "n", n)
        _set(self, "dim", dim)

    @classmethod
    def _derived(cls, gates: tuple[Gate, ...], n: int, dim: Dimension) -> "GateSequence":
        """A program the library emits already checked: ``n`` an int >= 1
        and every gate in normal form and in range. It skips the walk over
        the gates in ``__init__``."""
        seq = object.__new__(cls)
        _set(seq, "gates", gates)
        _set(seq, "n", n)
        _set(seq, "dim", dim)
        return seq

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __add__(self, other: "GateSequence") -> "GateSequence":
        if self.n != other.n or self.dim != other.dim:
            raise DimensionMismatchError("cannot concatenate sequences of different shape")
        return GateSequence(self.gates + other.gates, self.n, self.dim)

    def inverse(self) -> "GateSequence":
        """The group inverse: the gates in reverse order, each one inverted
        (F^-1 = F^3, since F has order 4, and phase and sum powers negated
        mod D), merged into a reduced word. Each gate's inverse is exact as a
        unitary, so ``self + self.inverse()`` is the identity up to a global
        phase at every d, not only as a Z_D matrix. The reduced word of an
        inverse is the inverse of the reduced word, so the inverse of the
        inverse is the merged program.
        """
        D = self.dim.D
        inv: list[Gate] = []
        for g in reversed(self.gates):
            kind = type(g)
            if kind is Fourier:
                inv += (g, g, g)
            elif kind is Phase:
                q, e = g
                inv.append(_gate(Phase, (q, -e % D)))
            else:
                c, t, e = g
                inv.append(_gate(Sum, (c, t, -e % D)))
        gates = tuple(_merge_onto([], inv, D, reduced=False))
        return GateSequence._derived(gates, self.n, self.dim)

    def to_text(self) -> str:
        return "\n".join(format_gate(g) for g in self.gates)

    @classmethod
    def from_text(cls, text: str, n: int, dim: Dimension) -> "GateSequence":
        gates = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            gates.append(parse_gate_line(line))
        return cls(tuple(gates), n, dim)


def sequence_matrix(seq: GateSequence) -> SymplecticMatrix:
    """Product of the gate matrices, first-applied gate rightmost.

    The kernel `_PackedRows.act` applies the whole program to packed unit rows.
    """
    n = seq.n
    packed = _PackedRows(2 * n, seq.dim.D)
    acc = [packed.unit(i) for i in range(2 * n)]
    packed.act(acc, seq.gates, n)
    return SymplecticMatrix._derived(seq.dim, tuple(map(packed.unpack, acc)))


# ---------------------------------------------------------------------------
# matrix text format


def format_matrix_text(m: SymplecticMatrix) -> str:
    """Text form: header ``d <d> n <n>``, then 2n rows of 2n entries."""
    rows = [" ".join(map(str, row)) for row in m.rows]
    return "\n".join([f"d {m.dim.d} n {m.n}"] + rows)


def parse_matrix_text(text: str) -> tuple[list[list[int]], Dimension]:
    """Parse the matrix text format; returns the rows of entries and the dimension.

    Symplecticity is *not* enforced here so callers can distinguish parse
    failures from contract failures.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty matrix text")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "d" or header[2] != "n":
        raise ParseError(f"bad matrix header: {lines[0]!r}")
    try:
        d, n = int(header[1]), int(header[3])
    except ValueError as exc:
        raise ParseError(f"bad matrix header: {lines[0]!r}") from exc
    if d < 2 or n < 1:
        raise ParseError(f"bad matrix header values d={d} n={n}")
    dim = Dimension.of(d)
    if len(lines) - 1 != 2 * n:
        raise ParseError(f"expected {2 * n} matrix rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ParseError(f"bad matrix row: {ln!r}") from exc
        if len(row) != 2 * n:
            raise ParseError(f"expected {2 * n} entries per row, got {len(row)}")
        if any(not 0 <= v < dim.D for v in row):
            raise ParseError(f"matrix entries must lie in [0, {dim.D}): {ln!r}")
        rows.append(row)
    return rows, dim
