"""Symplectic 2n x 2n matrices over Z_D and the three generator gates.

A Clifford operation on n qudits is represented (up to global phase) by a
matrix N over Z_D acting on exponent vectors, with N^T S N = S for the
standard block form S = [[0, I], [-I, 0]]. The three generator gates are

* ``Fourier(i)``   -- single-qudit discrete Fourier gate, 2x2 block [[0,-1],[1,0]]
* ``Phase(i, e)``  -- e-th power of the phase-shift gate, block [[1,0],[e,1]]
* ``Sum(c, t, e)`` -- e-th power of the two-qudit sum gate (control c, target t)

Gate sequences are stored in application order: the first gate listed is
the first one applied to a state, so the matrix of a sequence is the
reversed product of its gate matrices.

Matrix entries live mod D; Pauli exponent vectors live mod d. Applying a
matrix to a word reduces the product mod d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedMatrixError,
    NonSymplecticError,
    ParseError,
)
from .modring import Dimension
from .pauli import PauliWord


# ---------------------------------------------------------------------------
# gates


@dataclass(frozen=True)
class Fourier:
    """Discrete Fourier gate on one qudit."""

    qudit: int

    def __post_init__(self) -> None:
        if self.qudit < 0:
            raise MalformedMatrixError(f"negative qudit index {self.qudit}")


@dataclass(frozen=True)
class Phase:
    """Power of the phase-shift gate on one qudit."""

    qudit: int
    power: int

    def __post_init__(self) -> None:
        if self.qudit < 0:
            raise MalformedMatrixError(f"negative qudit index {self.qudit}")


@dataclass(frozen=True)
class Sum:
    """Power of the two-qudit sum gate (qudit generalization of CNOT)."""

    control: int
    target: int
    power: int

    def __post_init__(self) -> None:
        if self.control < 0 or self.target < 0:
            raise MalformedMatrixError("negative qudit index on sum gate")
        if self.control == self.target:
            raise MalformedMatrixError("sum gate needs distinct control and target")


Gate = Union[Fourier, Phase, Sum]


def _gate_max_index(g: Gate) -> int:
    if type(g) is Sum:
        return max(g.control, g.target)
    return g.qudit


def _normalize_gate(g: Gate, D: int) -> Gate:
    """Reduce gate exponents into [0, D); a gate already in range is returned as is."""
    if type(g) is Fourier or 0 <= g.power < D:
        return g
    if type(g) is Phase:
        return Phase(g.qudit, g.power % D)
    return Sum(g.control, g.target, g.power % D)


def gate_matrix(g: Gate, n: int, dim: Dimension) -> np.ndarray:
    """The 2n x 2n classical matrix of a generator gate, entries in [0, D)."""
    if _gate_max_index(g) >= n:
        raise MalformedMatrixError(f"gate {g} out of range for n={n}")
    D = dim.D
    m = np.eye(2 * n, dtype=np.int64)
    if isinstance(g, Fourier):
        i = g.qudit
        m[i, i] = 0
        m[n + i, n + i] = 0
        m[i, n + i] = D - 1
        m[n + i, i] = 1
    elif isinstance(g, Phase):
        m[n + g.qudit, g.qudit] = g.power % D
    else:
        e = g.power % D
        m[g.target, g.control] = e
        m[n + g.control, n + g.target] = (-e) % D
    return m


def act_left(work: np.ndarray, g: Gate, n: int, D: int) -> None:
    """In place, ``work := gate_matrix(g) @ work mod D`` as row operations.

    Each generator touches at most two rows, so one gate costs O(n), the
    row update of a stabilizer tableau (Aaronson and Gottesman,
    arXiv:quant-ph/0406196). ``work`` holds entries in [0, D) and the gate
    exponent lies in [0, D), as in a ``GateSequence``, so no product wraps.
    """
    if isinstance(g, Fourier):
        i = g.qudit
        work[[i, n + i]] = work[[n + i, i]]
        work[i] = -work[i] % D
    elif isinstance(g, Phase):
        q = g.qudit
        work[n + q] = (work[n + q] + g.power * work[q]) % D
    else:
        c, t, e = g.control, g.target, g.power
        work[t] = (work[t] + e * work[c]) % D
        work[n + c] = (work[n + c] - e * work[n + t]) % D


def invert_gate(g: Gate, dim: Dimension) -> list[Gate]:
    """Gates whose sequence matrix is the inverse of ``g``'s matrix.

    The Fourier gate has order 4, so its inverse is three Fourier gates;
    phase and sum powers invert by negating the exponent mod D.
    """
    if isinstance(g, Fourier):
        return [g, g, g]
    if isinstance(g, Phase):
        return [Phase(g.qudit, (-g.power) % dim.D)]
    return [Sum(g.control, g.target, (-g.power) % dim.D)]


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
    ``merge(a + b) == merge(merge(a) + merge(b))``, and a program built
    from raw pieces can be merged once at the end. Those relations all
    hold among the gate matrices, so merging keeps ``sequence_matrix``.
    """
    D = dim.D
    out: list[Gate] = []
    for g in gates:
        g = _normalize_gate(g, D)
        prev = out[-1] if out else None
        kind = type(g)
        if kind is Fourier:
            if type(prev) is Fourier and prev.qudit == g.qudit:
                # count the trailing run, wrap at 4
                run = 0
                while out and type(out[-1]) is Fourier and out[-1].qudit == g.qudit:
                    out.pop()
                    run += 1
                out.extend([g] * ((run + 1) % 4))
            else:
                out.append(g)
        elif kind is Phase:
            if type(prev) is Phase and prev.qudit == g.qudit:
                out.pop()
                p = (prev.power + g.power) % D
                if p:
                    out.append(Phase(g.qudit, p))
            elif g.power:
                out.append(g)
        elif type(prev) is Sum and prev.control == g.control and prev.target == g.target:
            out.pop()
            p = (prev.power + g.power) % D
            if p:
                out.append(Sum(g.control, g.target, p))
        elif g.power:
            out.append(g)
    return out


def format_gate(g: Gate) -> str:
    if isinstance(g, Fourier):
        return f"F {g.qudit}"
    if isinstance(g, Phase):
        return f"P {g.qudit} {g.power}"
    return f"C {g.control} {g.target} {g.power}"


def parse_gate_line(line: str) -> Gate:
    parts = line.split()
    try:
        if parts[0] == "F" and len(parts) == 2:
            return Fourier(int(parts[1]))
        if parts[0] == "P" and len(parts) == 3:
            return Phase(int(parts[1]), int(parts[2]))
        if parts[0] == "C" and len(parts) == 4:
            return Sum(int(parts[1]), int(parts[2]), int(parts[3]))
    except (ValueError, MalformedMatrixError) as exc:
        raise ParseError(f"bad gate line: {line!r}") from exc
    raise ParseError(f"bad gate line: {line!r}")


# ---------------------------------------------------------------------------
# matrices


def symplectic_form(n: int, D: int) -> np.ndarray:
    """The block matrix [[0, I], [-I, 0]] over Z_D."""
    s = np.zeros((2 * n, 2 * n), dtype=np.int64)
    s[:n, n:] = np.eye(n, dtype=np.int64)
    s[n:, :n] = (D - 1) * np.eye(n, dtype=np.int64)
    return s


def _s_times(mat: np.ndarray, D: int) -> np.ndarray:
    """S @ mat mod D: a signed swap of the two row blocks, no products."""
    n = mat.shape[0] // 2
    return np.concatenate([mat[n:], -mat[:n] % D])


def _as_matrix(mat: np.ndarray, dim: Dimension) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MalformedMatrixError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2 != 0 or mat.shape[0] == 0:
        raise MalformedMatrixError(
            f"expected an even side length, got {mat.shape[0]}"
        )
    return mat % dim.D


def is_symplectic(mat: np.ndarray, dim: Dimension) -> bool:
    """True iff N^T S N = S mod D.

    S N is formed by slicing, so the one product left sums 2n terms below
    D^2 each and stays exact in int64 up to ``MAX_DIMENSION``.
    """
    mat = _as_matrix(mat, dim)
    s = symplectic_form(mat.shape[0] // 2, dim.D)
    return bool(np.array_equal(mat.T @ _s_times(mat, dim.D) % dim.D, s))


@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated symplectic matrix over Z_D."""

    dim: Dimension
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_matrix(self.mat, self.dim)
        if not is_symplectic(mat, self.dim):
            raise NonSymplecticError(
                f"matrix is not symplectic mod {self.dim.D}:\n{mat}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def n(self) -> int:
        return self.mat.shape[0] // 2

    @classmethod
    def identity(cls, n: int, dim: Dimension) -> "SymplecticMatrix":
        return cls(dim, np.eye(2 * n, dtype=np.int64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.mat, other.mat)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return compose(self, other)


def compose(a: SymplecticMatrix, b: SymplecticMatrix) -> SymplecticMatrix:
    """Matrix product a.b mod D (b acts first on vectors)."""
    if a.dim != b.dim or a.n != b.n:
        raise DimensionMismatchError("cannot compose matrices of different shape/dim")
    return SymplecticMatrix(a.dim, (a.mat @ b.mat) % a.dim.D)


def inverse(m: SymplecticMatrix) -> SymplecticMatrix:
    """Inverse via the closed form -S M^T S = S (S M)^T, valid for any
    symplectic M; both products by S are block swaps, so no entry grows."""
    D = m.dim.D
    return SymplecticMatrix(m.dim, _s_times(_s_times(m.mat, D).T, D))


def apply_to_word(m: SymplecticMatrix, w: PauliWord) -> PauliWord:
    """Phase-free conjugation action: multiply the exponent vector, mod d."""
    if m.dim != w.dim:
        raise DimensionMismatchError(f"matrix dim {m.dim} != word dim {w.dim}")
    if m.n != w.n:
        raise DimensionMismatchError(f"matrix n={m.n} != word n={w.n}")
    return PauliWord.from_vector((m.mat @ w.vector()) % w.dim.d, w.dim)


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class GateSequence:
    """An ordered gate program; the first gate listed is applied first."""

    gates: tuple[Gate, ...]
    n: int
    dim: Dimension

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatchError(f"qudit count must be >= 1, got {self.n}")
        normalized = []
        for g in self.gates:
            if _gate_max_index(g) >= self.n:
                raise MalformedMatrixError(f"gate {g} out of range for n={self.n}")
            normalized.append(_normalize_gate(g, self.dim.D))
        object.__setattr__(self, "gates", tuple(normalized))

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __add__(self, other: "GateSequence") -> "GateSequence":
        if self.n != other.n or self.dim != other.dim:
            raise DimensionMismatchError("cannot concatenate sequences of different shape")
        return GateSequence(self.gates + other.gates, self.n, self.dim)

    def matrix(self) -> SymplecticMatrix:
        return sequence_matrix(self)

    def inverse(self) -> "GateSequence":
        """The reversed program with each gate inverted (merged afterwards)."""
        inv: list[Gate] = []
        for g in reversed(self.gates):
            inv.extend(invert_gate(g, self.dim))
        return GateSequence(tuple(merge_gates(inv, self.dim)), self.n, self.dim)

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

    Each gate is applied to the accumulator as row operations (`act_left`).
    """
    acc = np.eye(2 * seq.n, dtype=np.int64)
    for g in seq.gates:
        act_left(acc, g, seq.n, seq.dim.D)
    return SymplecticMatrix(seq.dim, acc)


# ---------------------------------------------------------------------------
# matrix text format


def format_matrix_text(m: SymplecticMatrix) -> str:
    """Text form: header ``d <d> n <n>``, then 2n rows of 2n entries."""
    rows = [" ".join(str(int(v)) for v in row) for row in m.mat]
    return "\n".join([f"d {m.dim.d} n {m.n}"] + rows)


def parse_matrix_text(text: str) -> tuple[np.ndarray, Dimension]:
    """Parse the matrix text format; returns the raw entries and dimension.

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
    return np.array(rows, dtype=np.int64), dim
