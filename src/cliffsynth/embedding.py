"""Logical systems embedded in larger qudits and their Clifford feasibility.

An n-dimensional logical system sits inside a qudit of dimension
d = n * r_x * r_z with logical operators X_L = X^r_x and Z_L = Z^r_z.
Words X^a Z^b with a a multiple of n*r_x and b a multiple of n*r_z act
as identity on the embedded system, so a qudit Clifford implements a
logical gate whenever its action on the logical generators matches the
target *modulo that lattice of identity-acting words*.

Feasibility of a single-qudit logical gate is decided exhaustively:
solve each entry congruence over Z_d for every lattice offset, lift the
solutions to Z_D (two lifts per entry when d is even), and filter the
combinations by the determinant condition mod D. The lift-and-filter
policy is isolated in ``_entry_candidates`` / ``logical_feasible_single``
so it can be swapped out independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import CliffSynthError
from .modring import Dimension, gcd0, mod_inverse
from .pauli import PauliWord
from .symplectic import Fourier, Phase, Sum, SymplecticMatrix, gate_matrix
from .unitary import _conjugates, gate_unitary

LogicalGate = Literal["qft", "phase"]

# Cap on the ambient dimension d = n * r_x * r_z that the CLI's embed-check takes.
MAX_EMBED_CHECK_D = 36


@dataclass(frozen=True)
class Embedding:
    """Parameters (n, r_x, r_z) of a logical system inside a qudit."""

    n: int
    r_x: int
    r_z: int

    def __post_init__(self) -> None:
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

    @property
    def shift_protection(self) -> tuple[float, float]:
        """Metadata: the embedding tolerates shifts X^a Z^b with |a| below
        r_x/2 and |b| below r_z/2. No decoder is provided."""
        return (self.r_x / 2, self.r_z / 2)


def logical_basis_state(e: Embedding, j: int) -> np.ndarray:
    """The j-th encoded computational basis state, a unit vector in C^d."""
    if not 0 <= j < e.n:
        raise CliffSynthError(f"logical index must lie in [0, {e.n}), got {j}")
    d = e.d
    state = np.zeros(d, dtype=np.complex128)
    for i in range(e.r_z):
        state[(j + i * e.n) * e.r_x % d] = 1.0
    return state / np.sqrt(e.r_z)


def _offsets(base: int, gen: int, d: int) -> list[int]:
    """All residues base + alpha*gen mod d; gen divides d."""
    return [(base + t * gen) % d for t in range(d // gen)]


def _entry_candidates(coeff: int, base: int, gen: int, dim: Dimension) -> list[int]:
    """All x in [0, D) with coeff*x = base + alpha*gen (mod d) for some alpha."""
    d = dim.d
    sols: set[int] = set()
    g = gcd0(coeff % d, d)
    step = d // g
    inv = mod_inverse(coeff // g, step) if step > 1 else None
    for rhs in _offsets(base % d, gen, d):
        if rhs % g:
            continue
        x0 = 0 if inv is None else (rhs // g) * inv % step
        for t in range(g):
            sols.add((x0 + t * step) % d)
    if dim.even:
        sols |= {x + d for x in list(sols)}
    return sorted(sols)


def _single_gate_targets(e: Embedding, gate: LogicalGate) -> tuple[tuple[int, int], tuple[int, int]]:
    """Images (mod d) of the logical generators (r_x, 0) and (0, r_z)."""
    d = e.d
    if gate == "qft":
        return (0, e.r_z), ((-e.r_x) % d, 0)
    if gate == "phase":
        return (e.r_x, e.r_z), (0, e.r_z)
    raise CliffSynthError(f"unknown logical gate {gate!r}")


def logical_feasible_single(e: Embedding, gate: LogicalGate) -> SymplecticMatrix | None:
    """Search for a 2x2 symplectic witness realizing a logical gate.

    Enumerates, per matrix entry, every solution of the entry congruence
    over all lattice offsets, lifts to Z_D, and scans the combinations
    for determinant 1 mod D. Exhaustive, so None is a proof of absence.
    """
    dim = e.dim
    D = dim.D
    t1, t2 = _single_gate_targets(e, gate)
    gen_x, gen_z = e.n * e.r_x, e.n * e.r_z
    a_set = _entry_candidates(e.r_x, t1[0], gen_x, dim)
    c_set = _entry_candidates(e.r_x, t1[1], gen_z, dim)
    b_set = _entry_candidates(e.r_z, t2[0], gen_x, dim)
    e_set = _entry_candidates(e.r_z, t2[1], gen_z, dim)
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
                return SymplecticMatrix(dim, np.array([[a, b], [c, ee]], dtype=np.int64))
    return None


def _lattice_match(img: np.ndarray, target: np.ndarray, e: Embedding) -> bool:
    """Componentwise equality mod d up to identity-acting lattice offsets."""
    d = e.d
    gen_x, gen_z = e.n * e.r_x, e.n * e.r_z
    n_half = img.size // 2
    delta = (img - target) % d
    return all(int(v) % gen_x == 0 for v in delta[:n_half]) and all(
        int(v) % gen_z == 0 for v in delta[n_half:]
    )


def verify_single_witness(e: Embedding, gate: LogicalGate, m: SymplecticMatrix) -> bool:
    """Independently re-check a witness by direct substitution."""
    d = e.d
    t1, t2 = _single_gate_targets(e, gate)
    img1 = m.mat @ np.array([e.r_x, 0], dtype=np.int64) % d
    img2 = m.mat @ np.array([0, e.r_z], dtype=np.int64) % d
    return _lattice_match(img1, np.array(t1), e) and _lattice_match(img2, np.array(t2), e)


def logical_feasible_sum(e: Embedding) -> SymplecticMatrix:
    """The qudit sum gate as a logical sum witness.

    This always succeeds (the sum matrix scales the logical generators
    exactly); failure would violate a structural invariant and raises.
    """
    dim = e.dim
    rx, rz = e.r_x, e.r_z
    c = SymplecticMatrix(dim, gate_matrix(Sum(0, 1, 1), 2, dim))
    pairs = [
        ((rx, 0, 0, 0), (rx, rx, 0, 0)),
        ((0, rx, 0, 0), (0, rx, 0, 0)),
        ((0, 0, rz, 0), (0, 0, rz, 0)),
        ((0, 0, 0, rz), (0, 0, (-rz) % e.d, rz)),
    ]
    for gen, target in pairs:
        img = c.mat @ np.array(gen, dtype=np.int64) % e.d
        if not _lattice_match(img, np.array(target, dtype=np.int64) % e.d, e):
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


def check_symmetric_logical_action(e: Embedding, tol: float = 1e-9) -> bool:
    """Dense check that the qudit gates implement the logical gates.

    For a symmetric embedding (r_x = r_z = r) the qudit Fourier, phase
    and sum gates must transport each logical generator word to its
    logical-gate image, up to a global phase. Each relation is verified
    on the exact unitaries.
    """
    if not e.symmetric:
        raise CliffSynthError("symmetric check requires r_x = r_z")
    dim = e.dim
    d, r = e.d, e.r_x
    summ = gate_unitary(Sum(0, 1, 1), 2, dim)  # side d^2: built first, so its size cap fires first
    xr = PauliWord(dim, (r,), (0,))
    zr = PauliWord(dim, (0,), (r,))
    fourier = gate_unitary(Fourier(0), 1, dim)
    phase = gate_unitary(Phase(0, 1), 1, dim)
    checks = [
        (fourier, xr, zr),
        (fourier, zr, xr.scale(-1)),
        (phase, xr, xr + zr),
        (phase, zr, zr),
        (summ, PauliWord(dim, (r, 0), (0, 0)), PauliWord(dim, (r, r), (0, 0))),
        (summ, PauliWord(dim, (0, r), (0, 0)), PauliWord(dim, (0, r), (0, 0))),
        (summ, PauliWord(dim, (0, 0), (r, 0)), PauliWord(dim, (0, 0), (r, 0))),
        (summ, PauliWord(dim, (0, 0), (0, r)), PauliWord(dim, (0, 0), ((-r) % d, r))),
    ]
    return all(_conjugates(u, source, target, tol) for u, source, target in checks)
