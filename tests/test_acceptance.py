"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criterion 7 checks the asymmetric (n=2, r_x=3, r_z=4) embedding of a
qubit inside a dimension-24 qudit. QFT has no symplectic witness there,
but the logical phase-shift does: the fourth power of the phase gate,
[[1,0],[4,1]]. It sends the logical X generator X^3 to
X^3 Z^12 = (X^3 Z^4) * Z^8, where Z^8 acts as identity on the embedded
system, and fixes Z^4 exactly. The witness is verified two ways: by
substitution (``verify_single_witness``), and densely, by projecting the
unitary of its synthesized program onto the code space, which it must
preserve, and checking that the restricted operator conjugates X_L to
X_L Z_L and fixes Z_L up to global phase.
"""

import itertools
import time

import numpy as np
import pytest

from cliffsynth import (
    Dimension,
    GateSequence,
    PauliWord,
    SymplecticMatrix,
    apply_to_word,
    check_program,
    check_symmetric_logical_action,
    decompose,
    decompose_single,
    equal_up_to_phase,
    gate_matrix,
    gcd0,
    is_symplectic,
    logical_basis_state,
    logical_feasible_single,
    logical_feasible_sum,
    omega,
    pauli_unitaries,
    sequence_matrix,
    sequence_unitary,
    sip,
    swap_sequence,
    transport,
    verify_single_witness,
    word_unitary,
)
from cliffsynth.embedding import Embedding
from cliffsynth.symplectic import Fourier, Phase, Sum
from cliffsynth.unitary import DenseOperator

from conftest import random_gate_sequence

DIM6 = Dimension.of(6)
GOLDEN_MATRIX = np.array([[10, 9], [3, 4]])
SWAP_MATRIX = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

BASE_SEED = 20240601


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def ceil_log2(v: int) -> int:
    return (v - 1).bit_length()


def golden_program() -> GateSequence:
    return GateSequence(
        (
            Phase(0, 5), Fourier(0), Phase(0, 1), Fourier(0), Phase(0, 5),
            Fourier(0), Fourier(0), Fourier(0), Phase(0, 10), Fourier(0),
        ),
        1,
        DIM6,
    )


def test_criterion_1_worked_single_qudit_golden():
    def body():
        m = sequence_matrix(golden_program())
        assert np.array_equal(m.mat, GOLDEN_MATRIX)
        target = SymplecticMatrix(DIM6, GOLDEN_MATRIX)
        assert sequence_matrix(decompose_single(target)) == target

    body()  # warm-up
    elapsed = min(
        (lambda t0: (body(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    verdict(1, "worked single-qudit golden", elapsed < 1e-3, f"best {elapsed*1e3:.3f} ms")


def test_criterion_2_exhaustive_2x2_sweep():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 9):
        dim = Dimension.of(d)
        D = dim.D
        budget = 8 * ceil_log2(D) + 16
        for p, q, r, s in itertools.product(range(D), repeat=4):
            if (p * s - q * r) % D != 1:
                continue
            mat = np.array([[p, q], [r, s]])
            if not is_symplectic(mat, dim):
                ok = False
                break
            m = SymplecticMatrix(dim, mat)
            seq = decompose_single(m)
            if sequence_matrix(seq) != m or len(seq) > budget:
                ok = False
                break
    elapsed = time.perf_counter() - t0
    verdict(2, "exhaustive 2x2 sweep", ok and elapsed < 30, f"{elapsed:.1f} s")


@pytest.fixture(scope="module")
def synthesized_programs():
    """Criterion-3 corpus: 100 seeded random targets per (n, d) pair."""
    corpus = {}
    for n in (2, 3):
        for d in range(2, 7):
            dim = Dimension.of(d)
            entries = []
            for trial in range(100):
                seed = BASE_SEED + 10_000 * n + 100 * d + trial
                m = sequence_matrix(random_gate_sequence(n, dim, 25, seed))
                entries.append((m, decompose(m)))
            corpus[(n, d)] = entries
    return corpus


def test_criterion_3_multi_qudit_round_trip(synthesized_programs):
    t0 = time.perf_counter()
    ok = all(
        sequence_matrix(seq) == m
        for entries in synthesized_programs.values()
        for m, seq in entries
    )
    elapsed = time.perf_counter() - t0
    verdict(3, "multi-qudit round trip", ok and elapsed < 120, f"{elapsed:.1f} s")


def test_criterion_4_unitary_correspondence(synthesized_programs):
    t0 = time.perf_counter()
    ok = True
    for d in (2, 3, 4, 5):
        dim = Dimension.of(d)
        singles = [Fourier(0)] + [Phase(0, e) for e in range(1, dim.D)]
        for g in singles:
            seq = GateSequence((g,), 1, dim)
            if not check_program(seq, SymplecticMatrix(dim, gate_matrix(g, 1, dim))):
                ok = False
        twos = [Sum(0, 1, e) for e in range(1, dim.D)] + [Sum(1, 0, 1)]
        for g in twos:
            seq = GateSequence((g,), 2, dim)
            if not check_program(seq, SymplecticMatrix(dim, gate_matrix(g, 2, dim))):
                ok = False
    for (n, d), entries in synthesized_programs.items():
        if d**n > 36:
            continue
        for m, seq in entries:
            if not check_program(seq, m):
                ok = False
    elapsed = time.perf_counter() - t0
    verdict(4, "unitary correspondence", ok and elapsed < 120, f"{elapsed:.1f} s")


def test_criterion_5_swap():
    ok = True
    for d in range(2, 10):
        dim = Dimension.of(d)
        if not np.array_equal(sequence_matrix(swap_sequence(0, 1, 2, dim)).mat, SWAP_MATRIX):
            ok = False
    for d in (2, 3):
        dim = Dimension.of(d)
        u = sequence_unitary(swap_sequence(0, 1, 2, dim))
        perm = np.zeros((d * d, d * d), dtype=np.complex128)
        for i, j in itertools.product(range(d), repeat=2):
            perm[j * d + i, i * d + j] = 1.0
        if not equal_up_to_phase(u, DenseOperator(dim, 2, perm), 1e-9):
            ok = False
    # the reversed-control identity is a qubit-only fact: equality mod 2
    # at d=2, inequality mod D at d=3
    for d, expect in ((2, True), (3, False)):
        dim = Dimension.of(d)
        rr = sequence_matrix(GateSequence((Fourier(0), Fourier(1)), 2, dim)).mat
        sandwich = rr @ gate_matrix(Sum(0, 1, 1), 2, dim) @ rr % dim.D
        reversed_sum = gate_matrix(Sum(1, 0, 1), 2, dim)
        modulus = 2 if d == 2 else dim.D
        if np.array_equal(sandwich % modulus, reversed_sum % modulus) != expect:
            ok = False
    verdict(5, "swap program", ok)


def test_criterion_6_transport_condition_equivalence():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 9):
        dim = Dimension.of(d)
        words = [
            PauliWord(dim, (a,), (b,))
            for a, b in itertools.product(range(d), repeat=2)
            if (a, b) != (0, 0)
        ]
        for p in words:
            gp = gcd0(p.xexp[0], p.zexp[0])
            for q in words:
                gq = gcd0(q.xexp[0], q.zexp[0])
                condition = any(
                    gcd0(k, d) == 1 and (k * gp) % d == gq % d for k in range(1, d)
                )
                seq = transport(p, q)
                if (seq is not None) != condition:
                    ok = False
                if seq is not None and apply_to_word(sequence_matrix(seq), p) != q:
                    ok = False
    elapsed = time.perf_counter() - t0
    verdict(6, "transport condition equivalence", ok and elapsed < 60, f"{elapsed:.1f} s")


def dense_logical_phase_failures(e: Embedding, witness: SymplecticMatrix) -> list[str]:
    """Dense check that a witness acts as the logical phase-shift.

    The witness's program unitary must map the code space into itself,
    and its restriction L must satisfy L X_L L^dag ~ X_L Z_L and
    L Z_L L^dag ~ Z_L up to global phase, where X_L and Z_L are the
    restrictions of X^r_x and Z^r_z.
    """
    failures = []
    u = sequence_unitary(decompose(witness)).matrix
    basis = np.column_stack([logical_basis_state(e, j) for j in range(e.n)])

    def restrict(a: np.ndarray) -> DenseOperator:
        return DenseOperator(Dimension.of(e.n), 1, basis.conj().T @ a @ basis)

    logical = restrict(u)
    leak = np.linalg.norm(u @ basis - basis @ logical.matrix)
    if leak >= 1e-9:
        failures.append(f"witness unitary leaks out of the code space ({leak:.1e})")
    x_l = restrict(word_unitary(PauliWord(e.dim, (e.r_x,), (0,))).matrix)
    z_l = restrict(word_unitary(PauliWord(e.dim, (0,), (e.r_z,))).matrix)
    if not equal_up_to_phase(logical @ x_l @ logical.dagger(), x_l @ z_l, 1e-9):
        failures.append("witness does not conjugate X_L to X_L Z_L densely")
    if not equal_up_to_phase(logical @ z_l @ logical.dagger(), z_l, 1e-9):
        failures.append("witness does not fix Z_L densely")
    return failures


def test_criterion_7_logical_embeddings():
    t0 = time.perf_counter()
    failures = []
    emb24 = Embedding(2, 3, 4)
    if logical_feasible_single(emb24, "qft") is not None:
        failures.append("expected QFT infeasible at (2,3,4)")
    phase_witness = logical_feasible_single(emb24, "phase")
    if phase_witness is None:
        failures.append("expected a PhaseShift witness at (2,3,4)")
    elif not verify_single_witness(emb24, "phase", phase_witness):
        failures.append(
            f"PhaseShift witness {phase_witness.mat.tolist()} failed substitution"
        )
    else:
        failures.extend(dense_logical_phase_failures(emb24, phase_witness))
    try:
        logical_feasible_sum(emb24)
    except Exception:
        failures.append("expected SUM feasible at (2,3,4)")
    for n, r in ((2, 2), (3, 2)):
        if not check_symmetric_logical_action(Embedding(n, r, r)):
            failures.append(f"symmetric embedding ({n},{r},{r}) failed the dense check")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f} s over budget")
    verdict(7, "logical embeddings", not failures, "; ".join(failures))


def test_criterion_8_property_suites():
    ok = True
    # inner product: skew-symmetry, bilinearity, non-degeneracy
    for d in (2, 3, 4):
        dim = Dimension.of(d)
        words = [PauliWord(dim, (a,), (b,)) for a, b in itertools.product(range(d), repeat=2)]
        gens = [PauliWord.x_generator(0, 1, dim), PauliWord.z_generator(0, 1, dim)]
        for u in words:
            for v in words:
                if sip(u, v) != (-sip(v, u)) % d:
                    ok = False
                for w in words:
                    if sip(u + w, v) != (sip(u, v) + sip(w, v)) % d:
                        ok = False
            if not u.is_identity and not any(sip(u, g) != 0 for g in gens):
                ok = False
    # inner product preserved by every generator matrix
    for d in range(2, 7):
        dim = Dimension.of(d)
        gates1 = [Fourier(0)] + [Phase(0, e) for e in range(dim.D)]
        for g in gates1:
            m = SymplecticMatrix(dim, gate_matrix(g, 1, dim))
            for a, b, ap, bp in itertools.product(range(d), repeat=4):
                u, v = PauliWord(dim, (a,), (b,)), PauliWord(dim, (ap,), (bp,))
                if sip(apply_to_word(m, u), apply_to_word(m, v)) != sip(u, v):
                    ok = False
        gates2 = [Sum(0, 1, e) for e in range(dim.D)] + [Sum(1, 0, 1), Fourier(1)]
        for seed, g in enumerate(gates2):
            m = SymplecticMatrix(dim, gate_matrix(g, 2, dim))
            rng = np.random.default_rng(BASE_SEED + seed)
            for _ in range(10):
                u = PauliWord.from_vector(rng.integers(0, d, size=4), dim)
                v = PauliWord.from_vector(rng.integers(0, d, size=4), dim)
                if sip(apply_to_word(m, u), apply_to_word(m, v)) != sip(u, v):
                    ok = False
    # shift/clock orders and the power scalar law
    for d in range(2, 7):
        dim = Dimension.of(d)
        x, z = pauli_unitaries(dim)
        eye = np.eye(d)
        if not (
            np.allclose(np.linalg.matrix_power(x.matrix, d), eye)
            and np.allclose(np.linalg.matrix_power(z.matrix, d), eye)
        ):
            ok = False
        xz = x.matrix @ z.matrix
        for r in range(2 * d + 1):
            scalar = omega(dim) ** (r * (r - 1) // 2)
            rhs = scalar * (
                np.linalg.matrix_power(x.matrix, r) @ np.linalg.matrix_power(z.matrix, r)
            )
            if not np.allclose(np.linalg.matrix_power(xz, r), rhs, atol=1e-9):
                ok = False
    verdict(8, "property suites", ok)
