"""Unitary oracle for the classical representation.

Checks a gate program's conjugation of Pauli words up to global phase on
two probe vectors, and builds the full unitaries of the shift/clock
Pauli operators, the three generator gates and gate programs as dense
references. Everything here is desk-scale floating point; the classical
modules stay exact.

Phase conventions: omega = exp(2*pi*i/d) and omega_hat = exp(2*pi*i/D),
so omega_hat is the canonical square root of omega when d is even.
The phase-shift gate is diag(omega^(j*(j-1)/2)) for odd d and
diag(omega_hat^(j*j)) for even d; with these choices the conjugation
relations X -> XZ (odd) and X -> omega_hat * XZ (even) hold exactly.
The sum gate is the plain permutation |i, j> -> |i, i+j mod d> in every
dimension, which conjugates all four two-qudit Pauli generators to their
images with no stray phase.

No gate is built as a side x side matrix and multiplied in: ``_apply_gate``
acts on one tensor axis of the row index, a d x d product for Fourier, a
row scaling for phase, a row gather for sum. A Pauli word is an index map
times a phase vector (``_word_maps``).

Deciding a conjugation. The program's unitary U maps a word W to a
multiple of W' exactly when ``Q = U^dagger W'^dagger U W`` is a multiple
of the identity. Every gate is Clifford, so Q is a word X^a Z^b times a
phase. On the basis vector e_0, X^a Z^b e_0 is e_a, orthogonal to e_0
unless a = 0. Every X^a fixes the uniform vector u, so
``<u, X^a Z^b u> = <u, Z^b u>``, which is 0 unless b = 0. So
``|<U W phi, W' U phi>| = |<phi, Q phi>|`` is 1 on both probes phi when
Q is scalar, and 0 on at least one when it is not. ``_maps_words``
pushes the columns ``[phi, W_1 phi, ..., W_k phi]`` for both probes
through the program as one block, in O(gates * side * k) with no
side x side array. The argument rests on each gate kernel being the
Clifford unitary it names, which the tests check against kron references.

Since those two exact values are the only outcomes, ``_maps_words``
decides each overlap at 1/2 and takes no tolerance: floating-point error
in a long program stays many orders of magnitude below 1/2. The dense
comparisons (``equal_up_to_phase``, ``DenseOperator.is_unitary``) keep a
tolerance, since they accept arbitrary unitaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, MalformedMatrixError, check_scale
from .modring import Dimension
from .pauli import PauliWord
from .symplectic import (
    Fourier,
    Gate,
    GateSequence,
    Phase,
    SymplecticMatrix,
    _gate_max_index,
)

# A probe overlap of Clifford conjugations is exactly 0 or 1 (module
# docstring); 1/2 leaves the widest margin on both sides.
_OVERLAP_CUT = 0.5


@dataclass(frozen=True)
class DenseOperator:
    """A d^n x d^n complex matrix tagged with its qudit layout."""

    dim: Dimension
    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        side = self.dim.d**self.n
        if m.shape != (side, side):
            raise DimensionMismatchError(
                f"operator for d={self.dim.d}, n={self.n} must be {side}x{side}, "
                f"got {m.shape}"
            )
        # freeze a view, so the caller's own array stays writeable and nothing is copied
        m = m.view()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "DenseOperator":
        return DenseOperator(self.dim, self.n, self.matrix.conj().T)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim or self.n != other.n:
            raise DimensionMismatchError("cannot compose operators of different layout")
        return DenseOperator(self.dim, self.n, self.matrix @ other.matrix)

    def is_unitary(self, tol: float = 1e-9) -> bool:
        eye = np.eye(self.side)
        return bool(np.max(np.abs(self.matrix @ self.matrix.conj().T - eye)) <= tol)


def omega(dim: Dimension) -> complex:
    """Primitive d-th root of unity."""
    return np.exp(2j * np.pi / dim.d)


def omega_hat(dim: Dimension) -> complex:
    """Primitive D-th root of unity (square root of omega for even d)."""
    return np.exp(2j * np.pi / dim.D)


def pauli_unitaries(dim: Dimension) -> tuple[DenseOperator, DenseOperator]:
    """The single-qudit shift X and clock Z unitaries."""
    return word_unitary(PauliWord(dim, (1,), (0,))), word_unitary(PauliWord(dim, (0,), (1,)))


@functools.lru_cache(maxsize=8)
def _fourier_1q(dim: Dimension) -> np.ndarray:
    """The d x d Fourier table, built once per dimension and read-only.

    The exponents j*k are reduced mod d first: omega's rounding error grows
    with the exponent, to 1.9e-12 per entry at d = 256 for exponents up to
    (d-1)^2, against 7.6e-15 for exponents below d.
    """
    k = np.arange(dim.d)
    # column j holds omega^(j*k) / sqrt(d)
    table = omega(dim) ** (np.outer(k, k) % dim.d) / np.sqrt(dim.d)
    table.flags.writeable = False
    return table


def _phase_1q(dim: Dimension, power: int) -> np.ndarray:
    d = dim.d
    j = np.arange(d)
    if d % 2 == 1:
        phases = omega(dim) ** ((j * (j - 1) // 2) % d)
    else:
        phases = omega_hat(dim) ** ((j * j) % dim.D)
    return phases**power


def _digits(dim: Dimension, n: int) -> np.ndarray:
    """Row q holds qudit q's digit of every basis index (qudit 0 most significant)."""
    return np.indices((dim.d,) * n).reshape(n, -1)


def _apply_gate(u: np.ndarray, g: Gate, dim: Dimension, digits: np.ndarray) -> np.ndarray:
    """``gate_unitary(g) @ u``, acting on one tensor axis of u's row index."""
    d = dim.d
    if isinstance(g, Fourier):
        rows = u.reshape(d**g.qudit, d, -1)
        return (_fourier_1q(dim) @ rows).reshape(u.shape)
    if isinstance(g, Phase):
        return u * _phase_1q(dim, g.power)[digits[g.qudit]][:, None]
    c, t = g.control, g.target
    # |x> goes to |x + power * x_c e_t>, so output row x is input row x - power * x_c e_t.
    place = d ** (digits.shape[0] - 1 - t)
    source = np.arange(u.shape[0]) + ((digits[t] - g.power * digits[c]) % d - digits[t]) * place
    return u[source]


def _word_maps(w: PauliWord, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index map and phase vector of a word: ``W |x> = phase[x] |shift[x]>``."""
    d = w.dim.d
    shift = np.ravel_multi_index((digits + np.array(w.xexp)[:, None]) % d, (d,) * w.n)
    return shift, omega(w.dim) ** ((np.array(w.zexp) @ digits) % d)


def gate_unitary(g: Gate, n: int, dim: Dimension) -> DenseOperator:
    """Tensor-embedded unitary of a generator gate (qudit 0 leftmost)."""
    if _gate_max_index(g) >= n:
        raise MalformedMatrixError(f"gate {g} out of range for n={n}")
    check_scale("dense operator side", dim.d**n)
    eye = np.eye(dim.d**n, dtype=np.complex128)
    return DenseOperator(dim, n, _apply_gate(eye, g, dim, _digits(dim, n)))


def word_unitary(w: PauliWord) -> DenseOperator:
    """Tensor product of X^a Z^b factors (X powers left of Z powers)."""
    side = w.dim.d**w.n
    check_scale("dense operator side", side)
    shift, phase = _word_maps(w, _digits(w.dim, w.n))
    m = np.zeros((side, side), dtype=np.complex128)
    m[shift, np.arange(side)] = phase
    return DenseOperator(w.dim, w.n, m)


def sequence_unitary(seq: GateSequence) -> DenseOperator:
    """Unitary of a gate program (first gate applied first)."""
    check_scale("dense oracle side", seq.dim.d**seq.n)
    digits = _digits(seq.dim, seq.n)
    acc = np.eye(seq.dim.d**seq.n, dtype=np.complex128)
    for g in seq.gates:
        acc = _apply_gate(acc, g, seq.dim, digits)
    return DenseOperator(seq.dim, seq.n, acc)


def equal_up_to_phase(a: DenseOperator, b: DenseOperator, tol: float = 1e-9) -> bool:
    """True iff a = lambda*b for a unit scalar, assuming both are unitary.

    Uses |trace(a_dagger b)| >= side*(1-tol), which for unitaries holds
    exactly when they are proportional. The trace is the entrywise inner
    product ``vdot(a, b)``, so no matrix product is formed.
    """
    if a.side != b.side:
        raise DimensionMismatchError(f"operator sizes differ: {a.side} vs {b.side}")
    overlap = abs(np.vdot(a.matrix, b.matrix))
    return bool(overlap >= a.side * (1.0 - tol))


def _maps_words(seq: GateSequence, pairs: Sequence[tuple[PauliWord, PauliWord]]) -> bool:
    """True iff the program's unitary U has ``U W U^dagger = lambda W'`` for
    every pair (W, W'), each with its own unit scalar lambda.

    Decided on the probes e_0 and uniform/sqrt(side), as the module
    docstring argues. The caller checks the side against its cap.
    """
    side = seq.dim.d**seq.n
    digits = _digits(seq.dim, seq.n)
    probes = np.zeros((side, 2), dtype=np.complex128)
    probes[0, 0] = 1.0
    probes[:, 1] = side**-0.5
    block = np.zeros((side, len(pairs) + 1, 2), dtype=np.complex128)
    block[:, 0] = probes
    for i, (w, _) in enumerate(pairs, 1):
        shift, phase = _word_maps(w, digits)
        block[shift, i] = phase[:, None] * probes
    out = block.reshape(side, -1)
    for g in seq.gates:
        out = _apply_gate(out, g, seq.dim, digits)
    out = out.reshape(block.shape)
    for i, (_, w) in enumerate(pairs, 1):
        # <U W phi, W' U phi>: W' sends entry x of U phi to entry shift[x], times phase[x]
        shift, phase = _word_maps(w, digits)
        overlaps = np.einsum("xp,x,xp->p", out[shift, i].conj(), phase, out[:, 0])
        if np.any(np.abs(overlaps) <= _OVERLAP_CUT):
            return False
    return True


def check_program(seq: GateSequence, m: SymplecticMatrix) -> bool:
    """Verify a gate program realizes a classical matrix, up to phases.

    For each generator word g (single X_i, single Z_i), the program's
    conjugation of g must match, up to a global phase, the word whose
    exponent vector is g's column of the matrix.
    """
    if seq.n != m.n or seq.dim != m.dim:
        raise DimensionMismatchError("program and matrix disagree on layout")
    n, dim = m.n, m.dim
    check_scale("dense oracle side", dim.d**n)
    # generator i (X_i, then Z_i) maps to the word of column i of m
    gens = [PauliWord.x_generator(i, n, dim) for i in range(n)]
    gens += [PauliWord.z_generator(i, n, dim) for i in range(n)]
    pairs = [(g, PauliWord(dim, col[:n], col[n:])) for g, col in zip(gens, zip(*m.rows))]
    return _maps_words(seq, pairs)
