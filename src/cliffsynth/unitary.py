"""Unitary oracle for the classical representation.

Checks a gate program's conjugation of Pauli words up to global phase on
two probe vectors, and builds dense reference unitaries of Pauli words,
generator gates and gate programs. Everything here is desk-scale
floating point; the classical modules stay exact.

Phase conventions: omega = exp(2*pi*i/d) and omega_hat = exp(2*pi*i/D),
the canonical square root of omega when d is even. The phase-shift gate
is diag(omega^(j*(j-1)/2)) for odd d and diag(omega_hat^(j*j)) for even
d, so X -> XZ (odd) and X -> omega_hat * XZ (even) hold exactly. The sum
gate is the plain permutation |i, j> -> |i, i+j mod d>, which conjugates
all four two-qudit Pauli generators with no stray phase.

One kernel, ``_push``, applies a gate program to a block of columns; the
dense references run it on the identity. Phase and sum gates are
monomial, so each run of them between two Fourier gates composes in
integers alone, into a source-row map and a phase exponent mod D, and
touches the block once. A Fourier gate is a d x d product on one tensor
axis. A word X^a Z^b is a row shift and a phase (``_shifts``, ``_clocks``).

Deciding a conjugation. U maps a word W to a multiple of W' exactly when
``Q = U^dagger W'^dagger U W`` is scalar. Every gate is Clifford, so Q is
a word X^a Z^b times a phase: ``<e_0, Q e_0>`` is 0 unless a = 0, and as
every X^a fixes the uniform vector u, ``<u, Q u>`` is 0 unless b = 0. So
``|<U W phi, W' U phi>| = |<phi, Q phi>|`` is 1 on both probes phi when
Q is scalar and 0 on at least one when not; each overlap is decided at
1/2, with no tolerance. As W e_0 = e_a and W u = omega^(-a.b) Z^b u,
``_maps_exponents`` pushes one column per distinct X part and one per
distinct Z part of the source words. The argument rests on each gate
kernel being the Clifford unitary it names, which the tests check
against kron references. The dense comparisons (``equal_up_to_phase``,
``DenseOperator.is_unitary``) keep a tolerance for arbitrary unitaries.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, check_scale
from .modring import Dimension, _Frozen, _set
from .pauli import PauliWord
from .symplectic import Gate, GateSequence, Phase, Sum, SymplecticMatrix, _normal_gates

# A probe overlap is exactly 0 or 1 (module docstring); 1/2 is the widest margin.
_OVERLAP_CUT = 0.5


class DenseOperator(_Frozen):
    """A d^n x d^n complex matrix tagged with its qudit layout."""

    __match_args__ = ("dim", "n", "matrix")
    dim: Dimension
    n: int
    matrix: np.ndarray

    def __init__(self, dim: Dimension, n: int, matrix: np.ndarray) -> None:
        m = np.asarray(matrix, dtype=np.complex128)
        side = dim.d**n
        if m.shape != (side, side):
            raise DimensionMismatchError(
                f"operator for d={dim.d}, n={n} must be {side}x{side}, got {m.shape}"
            )
        # freeze a view, so the caller's own array stays writeable and nothing is copied
        m = m.view()
        m.flags.writeable = False
        _set(self, "dim", dim)
        _set(self, "n", n)
        _set(self, "matrix", m)

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
        return bool(np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(self.side))) <= tol)


def omega(dim: Dimension) -> complex:
    """Primitive d-th root of unity."""
    return np.exp(2j * np.pi / dim.d)


def pauli_unitaries(dim: Dimension) -> tuple[DenseOperator, DenseOperator]:
    """The single-qudit shift X and clock Z unitaries."""
    return word_unitary(PauliWord(dim, (1,), (0,))), word_unitary(PauliWord(dim, (0,), (1,)))


class _Layout(NamedTuple):
    """Read-only tables of one (dim, n); every row is indexed by basis state."""

    digits: np.ndarray  # (n, side): qudit q's digit, qudit 0 most significant
    place: np.ndarray  # (n,): qudit q's place value d^(n-1-q)
    theta: np.ndarray  # (n, side): the phase gate's exponent of omega_hat on qudit q
    roots: np.ndarray  # (D,): omega_hat^k, each computed from its own reduced k
    fourier: np.ndarray  # (d, d): column j holds omega^(j*k) / sqrt(d)
    sums: dict  # (control, target, power mod d) -> a sum gate's source rows, filled on use


@functools.lru_cache(maxsize=8)
def _layout(dim: Dimension, n: int) -> _Layout:
    d, D = dim.d, dim.D
    digits = np.indices((d,) * n).reshape(n, -1)
    j = np.arange(d)
    # omega^(j(j-1)/2) with D = d for odd d; omega_hat^(j*j) for even d
    table = (j * (j - 1) // 2) % d if d % 2 else (j * j) % D
    place = d ** np.arange(n - 1, -1, -1)
    roots = np.exp(2j * np.pi * np.arange(D) / D)
    arrays = digits, place, table[digits], roots, roots[np.outer(j, j) % d * (D // d)] / d**0.5
    for arr in arrays:
        arr.flags.writeable = False
    return _Layout(*arrays, {})


def _shifts(lay: _Layout, d: int, xs: np.ndarray) -> np.ndarray:
    """Row k: the index of basis state x + xs[k] (digit-wise mod d), for every x."""
    # digit q wraps, losing d * place[q], where it is at least d - xs[k, q]
    wraps = lay.digits >= (d - xs)[:, :, None]
    return np.arange(lay.digits.shape[1]) + (xs @ lay.place)[:, None] - d * (lay.place @ wraps)


def _clocks(lay: _Layout, dim: Dimension, zs: np.ndarray) -> np.ndarray:
    """Row k: the exponent of omega_hat in Z^zs[k]'s phase on every basis state."""
    return (zs @ lay.digits) % dim.d * (dim.D // dim.d)


def _push(gates: Sequence[Gate], dim: Dimension, n: int, block: np.ndarray) -> np.ndarray:
    """``U @ block`` for the unitary U of a gate program (first gate applied first)."""
    d, D = dim.d, dim.D
    lay = _layout(dim, n)
    # the pending run of monomial gates: output row x is omega_hat^ph[x] times
    # input row src[x]; None stands for the identity map and the zero exponent
    src = ph = None
    for g in (*gates, None):
        kind = type(g)
        if kind is Phase:
            q, e = g
            step = e % D * lay.theta[q]
            ph = step if ph is None else ph + step
            continue
        if kind is Sum:
            c, t, e = g
            key = (c, t, e % d)
            s = lay.sums.get(key)
            if s is None:
                # |x> goes to |x + e * x_c e_t>, so output row x is input row x - e * x_c e_t
                tdig, place = lay.digits[t], lay.place[t]
                s = ((tdig - key[2] * lay.digits[c]) % d - tdig) * place + np.arange(tdig.size)
                s.flags.writeable = False
                lay.sums[key] = s
            src = s if src is None else src[s]
            ph = None if ph is None else ph[s]
            continue
        if src is not None:
            block = block[src]
        if ph is not None:
            block = lay.roots[ph % D][:, None] * block
        src = ph = None
        if g is not None:
            block = (lay.fourier @ block.reshape(d ** g[0], d, -1)).reshape(block.shape)
    return block


def gate_unitary(g: Gate, n: int, dim: Dimension) -> DenseOperator:
    """Tensor-embedded unitary of a generator gate (qudit 0 leftmost)."""
    gates = _normal_gates((g,), dim.D, n)
    check_scale("dense operator side", dim.d**n)
    return DenseOperator(dim, n, _push(gates, dim, n, np.eye(dim.d**n, dtype=np.complex128)))


def word_unitary(w: PauliWord) -> DenseOperator:
    """Tensor product of X^a Z^b factors (X powers left of Z powers)."""
    side = w.dim.d**w.n
    check_scale("dense operator side", side)
    lay = _layout(w.dim, w.n)
    # X^a Z^b |x> = omega^(b.x) |x + a>
    shift = _shifts(lay, w.dim.d, np.array([w.xexp]))[0]
    m = np.zeros((side, side), dtype=np.complex128)
    m[shift, np.arange(side)] = lay.roots[_clocks(lay, w.dim, np.array([w.zexp]))[0]]
    return DenseOperator(w.dim, w.n, m)


def sequence_unitary(seq: GateSequence) -> DenseOperator:
    """Unitary of a gate program (first gate applied first)."""
    check_scale("dense oracle side", seq.dim.d**seq.n)
    eye = np.eye(seq.dim.d**seq.n, dtype=np.complex128)
    return DenseOperator(seq.dim, seq.n, _push(seq.gates, seq.dim, seq.n, eye))


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


def _maps_exponents(seq: GateSequence, sources: np.ndarray, targets: np.ndarray) -> bool:
    """``_maps_words`` on exponent arrays: row k of ``sources`` and of ``targets``
    is the vector (a | b) of the pair's W and of its W', reduced mod d."""
    dim, n, lay = seq.dim, seq.n, _layout(seq.dim, seq.n)
    d, side = dim.d, lay.digits.shape[1]
    # columns e_a per distinct X part a, then Z^b u per distinct Z part b, by basis index
    a_at, b_at = {0: 0}, {0: 0}
    keys = zip((sources[:, :n] @ lay.place).tolist(), (sources[:, n:] @ lay.place).tolist())
    cols = [(a_at.setdefault(a, len(a_at)), b_at.setdefault(b, len(b_at))) for a, b in keys]
    na = len(a_at)
    block = np.zeros((side, na + len(b_at)), dtype=np.complex128)
    block[list(a_at), np.arange(na)] = 1.0
    block[:, na:] = lay.roots[_clocks(lay, dim, lay.digits[:, list(b_at)].T)].T * side**-0.5
    out = _push(seq.gates, dim, n, block)
    # <U W phi, W' U phi>: W' sends entry x of U phi to entry shift[x], times its clock phase
    cols = np.array(cols, dtype=np.int64).reshape(-1, 2) + [0, na]
    moved = out[_shifts(lay, d, targets[:, :n])[:, None, :], cols[:, :, None]]
    phases = lay.roots[_clocks(lay, dim, targets[:, n:])]
    overlaps = np.einsum("kpx,kx,xp->kp", moved.conj(), phases, out[:, [0, na]])
    return bool(np.all(np.abs(overlaps) > _OVERLAP_CUT))


def _maps_words(seq: GateSequence, pairs: Sequence[tuple[PauliWord, PauliWord]]) -> bool:
    """True iff the program's unitary U has ``U W U^dagger = lambda W'`` for
    every pair (W, W'), each with its own unit scalar lambda, decided on the
    probes of the module docstring. The caller checks the side against its cap.
    """
    if any(w.n != seq.n or w.dim != seq.dim for pair in pairs for w in pair):
        raise DimensionMismatchError("program and word disagree on layout")
    exps = np.array([[w.xexp + w.zexp for w in pair] for pair in pairs], dtype=np.int64)
    return _maps_exponents(seq, *exps.reshape(-1, 2, 2 * seq.n).transpose(1, 0, 2))


def check_program(seq: GateSequence, m: SymplecticMatrix) -> bool:
    """Verify a gate program realizes a classical matrix, up to phases.

    For each generator word g (single X_i, single Z_i), the program's
    conjugation of g must match, up to a global phase, the word whose
    exponent vector is g's column of the matrix.
    """
    if seq.n != m.n or seq.dim != m.dim:
        raise DimensionMismatchError("program and matrix disagree on layout")
    check_scale("dense oracle side", m.dim.d**m.n)
    # generator i (X_i, then Z_i) is row i of the identity; its image is column i of m
    return _maps_exponents(seq, np.eye(2 * m.n, dtype=np.int64), np.array(m.rows).T % m.dim.d)
