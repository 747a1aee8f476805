"""Logical systems embedded in larger qudits and their Clifford feasibility.

An n-dimensional logical system sits inside a qudit of dimension
d = n * r_x * r_z with logical operators X_L = X^r_x and Z_L = Z^r_z.
Words X^a Z^b with a a multiple of n*r_x and b a multiple of n*r_z act
as identity on the embedded system, so a qudit Clifford implements a
logical gate whenever its action on the logical generators matches the
target *modulo that lattice of identity-acting words*. One table
(``_targets``) holds each logical gate's generators and their images,
and every check here reads it; one rule (``_acts_as``) compares two
words modulo the lattice.

Feasibility of a single-qudit logical gate is decided exhaustively: each
entry of a 2x2 witness over Z_D gets the set of values that pass the
rule, and the combinations are filtered by the determinant condition
mod D.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Literal, Sequence

from .errors import CliffSynthError, DimensionMismatchError, check_scale
from .modring import Dimension, _Frozen, _set
from .pauli import PauliWord
from .symplectic import Fourier, GateSequence, Phase, Sum, SymplecticMatrix, _image, sequence_matrix

if TYPE_CHECKING:
    import numpy as np

LogicalGate = Literal["qft", "phase"]


class Embedding(_Frozen):
    """Parameters (n, r_x, r_z) of a logical system inside a qudit."""

    __match_args__ = ("n", "r_x", "r_z")
    n: int
    r_x: int
    r_z: int

    def __init__(self, n: int, r_x: int, r_z: int) -> None:
        _set(self, "n", n)
        _set(self, "r_x", r_x)
        _set(self, "r_z", r_z)
        try:
            for value in (n, r_x, r_z):
                index(value)
        except TypeError:
            raise CliffSynthError(f"embedding parameters must be integers: {self}") from None
        if self.n < 2:
            raise CliffSynthError(f"logical dimension must be >= 2, got {self.n}")
        if self.r_x < 1 or self.r_z < 1:
            raise CliffSynthError("spacing parameters must be positive")

    @property
    def d(self) -> int:
        return self.n * self.r_x * self.r_z

    @property
    def dim(self) -> Dimension:
        return Dimension.of(self.d)

    @property
    def symmetric(self) -> bool:
        return self.r_x == self.r_z


def logical_basis_state(e: Embedding, j: int) -> np.ndarray:
    """The j-th encoded computational basis state, a unit vector in C^d."""
    import numpy as np

    if not 0 <= j < e.n:
        raise CliffSynthError(f"logical index must lie in [0, {e.n}), got {j}")
    d = e.d
    state = np.zeros(d, dtype=np.complex128)
    for i in range(e.r_z):
        state[(j + i * e.n) * e.r_x % d] = 1.0
    return state / np.sqrt(e.r_z)


def _targets(e: Embedding, gate: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each logical generator of ``gate`` with its image, as exponent
    vectors (X exponents, then Z exponents) mod d."""
    d, rx, rz = e.d, e.r_x, e.r_z
    if gate == "qft":
        return [((rx, 0), (0, rz)), ((0, rz), (-rx % d, 0))]
    if gate == "phase":
        return [((rx, 0), (rx, rz)), ((0, rz), (0, rz))]
    if gate == "sum":
        return [
            ((rx, 0, 0, 0), (rx, rx, 0, 0)),
            ((0, rx, 0, 0), (0, rx, 0, 0)),
            ((0, 0, rz, 0), (0, 0, rz, 0)),
            ((0, 0, 0, rz), (0, 0, -rz % d, rz)),
        ]
    raise CliffSynthError(f"unknown logical gate {gate!r}")


def _check_single(gate: str) -> None:
    if gate not in ("qft", "phase"):
        raise CliffSynthError(f"unknown single-qudit logical gate {gate!r}")


def _acts_as(image: Sequence[int], target: Sequence[int], e: Embedding) -> bool:
    """True iff the word ``image`` acts on the embedded system as ``target``.

    They may differ by an identity-acting word, so X exponents must agree
    mod n*r_x and Z exponents mod n*r_z. Both moduli divide d, so the
    exponents may be given mod d or mod D.
    """
    half = len(target) // 2
    return all(
        (v - t) % (e.n * (e.r_x if i < half else e.r_z)) == 0
        for i, (v, t) in enumerate(zip(image, target))
    )


def logical_feasible_single(e: Embedding, gate: LogicalGate) -> SymplecticMatrix | None:
    """Search for a 2x2 symplectic witness realizing a logical gate.

    Witness column j maps generator j, whose one nonzero exponent is g,
    to g times the column. The lattice rule of ``_acts_as`` tests each
    exponent on its own, so each entry's candidates are the v in [0, D)
    with g*v equal to its exponent of the target mod n*r_x (X row) or
    mod n*r_z (Z row). The combinations are then scanned for determinant
    1 mod D. Exhaustive, so None is a proof of absence.
    """
    _check_single(gate)
    dim = e.dim
    D = dim.D
    (_, (ax, cz)), (_, (bx, ez)) = _targets(e, gate)
    gen_x, gen_z = e.n * e.r_x, e.n * e.r_z

    def entries(g: int, target: int, gen: int) -> list[int]:
        return [v for v in range(D) if (g * v - target) % gen == 0]

    a_set, c_set = entries(e.r_x, ax, gen_x), entries(e.r_x, cz, gen_z)
    b_set, e_set = entries(e.r_z, bx, gen_x), entries(e.r_z, ez, gen_z)
    if not (a_set and b_set and c_set and e_set):
        return None
    bc_first: dict[int, tuple[int, int]] = {}
    for b in b_set:
        for c in c_set:
            bc_first.setdefault(b * c % D, (b, c))
    for a in a_set:
        for ee in e_set:
            need = (a * ee - 1) % D
            hit = bc_first.get(need)
            if hit is not None:
                b, c = hit
                return SymplecticMatrix(dim, ((a, b), (c, ee)))
    return None


def verify_single_witness(e: Embedding, gate: LogicalGate, m: SymplecticMatrix) -> bool:
    """Independently re-check a witness by direct substitution."""
    _check_single(gate)
    if m.n != 1 or m.dim != e.dim:
        raise DimensionMismatchError(
            f"witness must be 2x2 over d={e.d}, got {2 * m.n}x{2 * m.n} over d={m.dim.d}"
        )
    return all(_acts_as(_image(m, gen), target, e) for gen, target in _targets(e, gate))


def logical_feasible_sum(e: Embedding) -> SymplecticMatrix:
    """The qudit sum gate as a logical sum witness.

    This always succeeds (the sum matrix scales the logical generators
    exactly); failure would violate a structural invariant and raises.
    """
    c = sequence_matrix(GateSequence((Sum(0, 1, 1),), 2, e.dim))
    for gen, target in _targets(e, "sum"):
        if not _acts_as(_image(c, gen), target, e):
            raise CliffSynthError(
                f"sum gate failed the logical map for generator {gen} in {e}"
            )
    return c


def is_symplectic_embedding(e: Embedding) -> bool:
    """True iff both single-qudit logical gates have symplectic witnesses."""
    return (
        logical_feasible_single(e, "qft") is not None
        and logical_feasible_single(e, "phase") is not None
    )


def check_symmetric_logical_action(e: Embedding) -> bool:
    """Check that the qudit gates implement the logical gates.

    For a symmetric embedding (r_x = r_z = r) the qudit Fourier, phase
    and sum gates must transport each logical generator word to its
    logical-gate image, up to a global phase. Each gate's relations are
    decided together by the probe-vector test of ``unitary``, on its
    one-gate program.
    """
    if not e.symmetric:
        raise CliffSynthError("symmetric check requires r_x = r_z")
    check_scale("dense operator side", e.d**2)
    from .unitary import _maps_words

    dim = e.dim
    programs = {
        "sum": GateSequence((Sum(0, 1, 1),), 2, dim),
        "qft": GateSequence((Fourier(0),), 1, dim),
        "phase": GateSequence((Phase(0, 1),), 1, dim),
    }
    return all(
        _maps_words(
            seq,
            [
                (PauliWord.from_vector(gen, dim), PauliWord.from_vector(target, dim))
                for gen, target in _targets(e, gate)
            ],
        )
        for gate, seq in programs.items()
    )
