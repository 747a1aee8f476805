import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliffsynth
from cliffsynth import (
    DenseOperator,
    Dimension,
    DimensionMismatchError,
    GateSequence,
    MalformedMatrixError,
    PauliWord,
    ScaleLimitError,
    SymplecticMatrix,
    check_program,
    equal_up_to_phase,
    gate_matrix,
    gate_unitary,
    omega,
    pauli_unitaries,
    sequence_matrix,
    sequence_unitary,
    sip,
    word_unitary,
)
from cliffsynth.symplectic import Fourier, Phase, Sum
from cliffsynth.errors import SCALE_CAPS
from cliffsynth.unitary import _maps_words, omega_hat

from conftest import cap_message, gate_lists, random_gate_sequence

ORACLE_CAP, _ = SCALE_CAPS["dense oracle side"]
OPERATOR_CAP, _ = SCALE_CAPS["dense operator side"]


def close(a, b, tol=1e-9):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def relative_phase(a, b):
    """The scalar lambda with a ~ lambda*b (meaningful when proportional)."""
    return complex(np.vdot(b.matrix, a.matrix) / a.side)


class TestPauliUnitaries:
    def test_qubit_matrices(self):
        x, z = pauli_unitaries(Dimension.of(2))
        assert close(x.matrix, [[0, 1], [1, 0]])
        assert close(z.matrix, [[1, 0], [0, -1]])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_order_d(self, d):
        x, z = pauli_unitaries(Dimension.of(d))
        eye = np.eye(d)
        assert close(np.linalg.matrix_power(x.matrix, d), eye)
        assert close(np.linalg.matrix_power(z.matrix, d), eye)
        for r in range(1, d):
            assert not close(np.linalg.matrix_power(x.matrix, r), eye)
            assert not close(np.linalg.matrix_power(z.matrix, r), eye)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_xz_power_scalar_law(self, d):
        dim = Dimension.of(d)
        x, z = pauli_unitaries(dim)
        xz = x.matrix @ z.matrix
        for r in range(2 * d + 1):
            lhs = np.linalg.matrix_power(xz, r)
            scalar = omega(dim) ** (r * (r - 1) // 2)
            rhs = scalar * (
                np.linalg.matrix_power(x.matrix, r) @ np.linalg.matrix_power(z.matrix, r)
            )
            assert close(lhs, rhs)

    @pytest.mark.parametrize("d", [3, 5])
    def test_xz_order_odd(self, d):
        x, z = pauli_unitaries(Dimension.of(d))
        xz = x.matrix @ z.matrix
        assert close(np.linalg.matrix_power(xz, d), np.eye(d))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_xz_order_even(self, d):
        dim = Dimension.of(d)
        x, z = pauli_unitaries(dim)
        xz = x.matrix @ z.matrix
        at_d = np.linalg.matrix_power(xz, d)
        # after d steps only a root-of-unity scalar remains; 2d closes it
        lam = relative_phase(
            DenseOperator(dim, 1, at_d), DenseOperator(dim, 1, np.eye(d))
        )
        assert abs(abs(lam) - 1) < 1e-9 and abs(lam - 1) > 1e-6
        assert close(np.linalg.matrix_power(xz, 2 * d), np.eye(d))


class TestGateUnitary:
    def test_qubit_fourier_is_hadamard(self):
        u = gate_unitary(Fourier(0), 1, Dimension.of(2))
        assert close(u.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_phase_diagonal_d3(self):
        dim = Dimension.of(3)
        u = gate_unitary(Phase(0, 1), 1, dim)
        assert close(u.matrix, np.diag([1, 1, omega(dim)]))

    def test_phase_diagonal_d2(self):
        u = gate_unitary(Phase(0, 1), 1, Dimension.of(2))
        assert close(u.matrix, np.diag([1, 1j]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_generator_unitary(self, d):
        dim = Dimension.of(d)
        gates = [Fourier(0)] + [Phase(0, e) for e in range(dim.D)]
        for g in gates:
            assert gate_unitary(g, 1, dim).is_unitary(1e-9)
        two = [Sum(0, 1, e) for e in range(dim.D)] + [Sum(1, 0, 2), Fourier(1)]
        for g in two:
            assert gate_unitary(g, 2, dim).is_unitary(1e-9)

    @pytest.mark.parametrize("g", [Fourier(2), Phase(2, 1), Sum(0, 2, 1), Sum(2, 1, 1)])
    def test_out_of_range_gate_raises_like_symplectic_path(self, g):
        dim = Dimension.of(3)
        for build in (
            lambda: gate_unitary(g, 2, dim),
            lambda: gate_matrix(g, 2, dim),
            lambda: GateSequence((g,), 2, dim),
        ):
            with pytest.raises(MalformedMatrixError, match="out of range for n=2"):
                build()

    def test_sum_permutation_action(self):
        d = 3
        u = gate_unitary(Sum(0, 1, 1), 2, Dimension.of(d)).matrix
        for i, j in itertools.product(range(d), repeat=2):
            src = i * d + j
            dst = i * d + (i + j) % d
            assert close(u[:, src], np.eye(d * d)[:, dst])


class TestWordUnitary:
    def test_identity_word(self):
        w = PauliWord.identity(2, Dimension.of(3))
        assert close(word_unitary(w).matrix, np.eye(9))

    def test_two_qubit_tensor(self):
        dim = Dimension.of(2)
        x, z = pauli_unitaries(dim)
        w = PauliWord(dim, (1, 0), (0, 1))
        assert close(word_unitary(w).matrix, np.kron(x.matrix, z.matrix))

    def test_powers_multiply(self):
        dim = Dimension.of(5)
        x, z = pauli_unitaries(dim)
        w = PauliWord(dim, (2,), (3,))
        expected = np.linalg.matrix_power(x.matrix, 2) @ np.linalg.matrix_power(
            z.matrix, 3
        )
        assert close(word_unitary(w).matrix, expected)


class TestEqualUpToPhase:
    def test_reflexive_and_scalar(self):
        u = gate_unitary(Fourier(0), 1, Dimension.of(3))
        assert equal_up_to_phase(u, u)
        scaled = DenseOperator(u.dim, 1, 1j * u.matrix)
        assert equal_up_to_phase(u, scaled)
        assert equal_up_to_phase(scaled, u)

    def test_distinct_paulis(self):
        x, z = pauli_unitaries(Dimension.of(3))
        assert not equal_up_to_phase(x, z)

    def test_transitive_on_sample(self):
        dim = Dimension.of(4)
        u = gate_unitary(Phase(0, 3), 1, dim)
        a = DenseOperator(dim, 1, np.exp(0.7j) * u.matrix)
        b = DenseOperator(dim, 1, np.exp(-1.2j) * u.matrix)
        assert equal_up_to_phase(u, a) and equal_up_to_phase(a, b)
        assert equal_up_to_phase(u, b)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 2), (6, 2)])
    def test_vdot_matches_trace_product(self, d, n):
        # the reference: the trace of the full product a^dagger b
        dim = Dimension.of(d)
        rng = np.random.default_rng(100 * d + n)
        for seed in range(6):
            a = sequence_unitary(random_gate_sequence(n, dim, 6 * n, seed))
            b = sequence_unitary(random_gate_sequence(n, dim, 6 * n, seed + 50))
            c = DenseOperator(dim, n, np.exp(1j * rng.uniform(0, 7)) * a.matrix)
            for x, y in ((a, b), (a, c), (c, a), (b, b)):
                trace = np.trace(x.matrix.conj().T @ y.matrix)
                assert abs(relative_phase(y, x) - trace / x.side) < 1e-12
                assert equal_up_to_phase(x, y) == (abs(trace) >= x.side * (1 - 1e-9))
            assert equal_up_to_phase(a, c) and abs(abs(relative_phase(c, a)) - 1) < 1e-12


class TestCheckProgram:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fourier_gate(self, d):
        dim = Dimension.of(d)
        seq = GateSequence((Fourier(0),), 1, dim)
        m = SymplecticMatrix(dim, gate_matrix(Fourier(0), 1, dim))
        assert check_program(seq, m)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_phase_gate_even_dimension(self, d):
        # conjugating X produces the half-step scalar times XZ, absorbed
        # as a global phase by the oracle
        dim = Dimension.of(d)
        seq = GateSequence((Phase(0, 1),), 1, dim)
        m = SymplecticMatrix(dim, gate_matrix(Phase(0, 1), 1, dim))
        assert check_program(seq, m)
        p = gate_unitary(Phase(0, 1), 1, dim)
        x, _ = pauli_unitaries(dim)
        conj = p @ x @ p.dagger()
        lam = relative_phase(conj, word_unitary(PauliWord(dim, (1,), (1,))))
        assert abs(lam - omega_hat(dim)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_sum_gate(self, d):
        dim = Dimension.of(d)
        seq = GateSequence((Sum(0, 1, 1),), 2, dim)
        m = SymplecticMatrix(dim, gate_matrix(Sum(0, 1, 1), 2, dim))
        assert check_program(seq, m)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_all_generators_correspond(self, d):
        dim = Dimension.of(d)
        singles = [Fourier(0)] + [Phase(0, e) for e in range(1, dim.D)]
        for g in singles:
            seq = GateSequence((g,), 1, dim)
            assert check_program(seq, SymplecticMatrix(dim, gate_matrix(g, 1, dim)))
        twos = [Sum(0, 1, e) for e in range(1, dim.D)] + [Sum(1, 0, 1)]
        for g in twos:
            seq = GateSequence((g,), 2, dim)
            assert check_program(seq, SymplecticMatrix(dim, gate_matrix(g, 2, dim)))

    def test_wrong_matrix_detected(self):
        dim = Dimension.of(3)
        seq = GateSequence((Fourier(0),), 1, dim)
        wrong = SymplecticMatrix(dim, gate_matrix(Phase(0, 1), 1, dim))
        assert not check_program(seq, wrong)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_z_only_discrepancy_needs_the_uniform_probe(self, d):
        # P 0 sends X to XZ up to phase, so U^dagger X^dagger U X is a Z
        # power, which fixes e_0
        dim = Dimension.of(d)
        seq = GateSequence((Phase(0, 1),), 1, dim)
        assert not check_program(seq, SymplecticMatrix.identity(1, dim))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_x_only_discrepancy_needs_e0(self, d):
        # F P F^3 fixes X and sends Z to X^-1 Z up to phase, so every
        # U^dagger W^dagger U W is an X power, which fixes the uniform vector.
        # (F F alone would not do: it sends Z to Z^-1, which the uniform
        # probe catches.)
        dim = Dimension.of(d)
        seq = GateSequence((Fourier(0),) * 3 + (Phase(0, 1), Fourier(0)), 1, dim)
        assert not check_program(seq, SymplecticMatrix.identity(1, dim))

    def test_matrix_fixes_a_program_only_up_to_a_pauli_word(self):
        # at d = 3, F F P F F P P recomposes to the identity matrix, yet its
        # unitary is Z up to phase; each generator pair passes up to its own
        # phase, so the oracle accepts it against the identity
        dim = Dimension.of(3)
        f, p = Fourier(0), Phase(0, 1)
        seq = GateSequence((f, f, p, f, f, p, p), 1, dim)
        identity = SymplecticMatrix.identity(1, dim)
        assert sequence_matrix(seq) == identity
        u = sequence_unitary(seq)
        _, z = pauli_unitaries(dim)
        assert equal_up_to_phase(u, z)
        assert not equal_up_to_phase(u, DenseOperator(dim, 1, np.eye(3)))
        assert check_program(seq, identity)

    def test_scale_cap(self):
        dim = Dimension.of(17)
        seq = GateSequence((Fourier(0), Fourier(1)), 2, dim)
        m = SymplecticMatrix.identity(2, dim)
        with pytest.raises(ScaleLimitError):
            check_program(seq + seq.inverse(), m)


class TestSequenceUnitary:
    def test_matches_composition(self):
        dim = Dimension.of(3)
        seq = GateSequence((Fourier(0), Phase(0, 2), Fourier(0)), 1, dim)
        u = sequence_unitary(seq).matrix
        f = gate_unitary(Fourier(0), 1, dim).matrix
        p = gate_unitary(Phase(0, 2), 1, dim).matrix
        assert close(u, f @ p @ f)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_commutation_scalar_direction(self, d):
        # U_u U_v = omega^(sip(v,u)) U_v U_u for X-left-of-Z word unitaries
        dim = Dimension.of(d)
        w = omega(dim)
        for a, b, ap, bp in itertools.product(range(d), repeat=4):
            u = PauliWord(dim, (a,), (b,))
            v = PauliWord(dim, (ap,), (bp,))
            uu, vv = word_unitary(u).matrix, word_unitary(v).matrix
            assert close(uu @ vv, w ** sip(v, u) * (vv @ uu))

    @pytest.mark.parametrize("d, n", [(d, n) for d in range(2, 7) for n in (1, 2)])
    def test_program_then_inverse_is_the_identity(self, d, n):
        # at odd d the Z_D matrix fixes a program only up to a Pauli, so an
        # inverse that is right as a matrix alone leaves one behind
        dim = Dimension.of(d)
        eye = DenseOperator(dim, n, np.eye(d**n))
        for seed in range(200):
            seq = random_gate_sequence(n, dim, 6 * n + 6, seed)
            assert equal_up_to_phase(sequence_unitary(seq + seq.inverse()), eye), seed


# Independent references for the axis-local kernel: kron chains and a loop
# over basis states, written from the gate definitions alone.


def kron_embed(op, i, n, d):
    acc = np.eye(1, dtype=np.complex128)
    for q in range(n):
        acc = np.kron(acc, op if q == i else np.eye(d, dtype=np.complex128))
    return acc


def sum_permutation(control, target, power, n, d):
    side = d**n
    m = np.zeros((side, side), dtype=np.complex128)
    for digits in itertools.product(range(d), repeat=n):
        src = 0
        for v in digits:
            src = src * d + v
        out = list(digits)
        out[target] = (out[target] + power * out[control]) % d
        dst = 0
        for v in out:
            dst = dst * d + v
        m[dst, src] = 1.0
    return m


def reference_gate(g, n, dim):
    d = dim.d
    j = np.arange(d)
    if isinstance(g, Fourier):
        return kron_embed(np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d), g.qudit, n, d)
    if isinstance(g, Phase):
        if d % 2:
            diag = np.exp(2j * np.pi * (j * (j - 1) // 2) / d)
        else:
            diag = np.exp(2j * np.pi * j * j / dim.D)
        return kron_embed(np.diag(diag**g.power), g.qudit, n, d)
    return sum_permutation(g.control, g.target, g.power, n, d)


def reference_word(w):
    d = w.dim.d
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    acc = np.eye(1, dtype=np.complex128)
    for a, b in zip(w.xexp, w.zexp):
        acc = np.kron(acc, np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
    return acc


KERNEL_SHAPES = [(2, 3), (3, 2), (4, 2), (6, 2)]


class TestAxisLocalKernel:
    @pytest.mark.parametrize("d, n", KERNEL_SHAPES)
    def test_every_gate_matches_reference(self, d, n):
        dim = Dimension.of(d)
        gates = [Fourier(q) for q in range(n)]
        gates += [Phase(q, e) for q in range(n) for e in range(dim.D)]
        gates += [
            Sum(c, t, e)
            for c, t in itertools.permutations(range(n), 2)
            for e in range(dim.D)
        ]
        for g in gates:
            assert close(gate_unitary(g, n, dim).matrix, reference_gate(g, n, dim), 1e-12), g

    @pytest.mark.parametrize("d, n", KERNEL_SHAPES)
    def test_every_word_matches_reference(self, d, n):
        dim = Dimension.of(d)
        for xs in itertools.product(range(d), repeat=n):
            for zs in [(0,) * n, (1,) * n, tuple(range(n)), xs[::-1]]:
                w = PauliWord(dim, xs, zs)
                assert close(word_unitary(w).matrix, reference_word(w), 1e-12), w

    @pytest.mark.parametrize("d, n", KERNEL_SHAPES)
    def test_sequence_matches_reference_product(self, d, n):
        dim = Dimension.of(d)
        seq = random_gate_sequence(n, dim, 20, seed=d * n)
        acc = np.eye(d**n)
        for g in seq:
            acc = reference_gate(g, n, dim) @ acc
        assert close(sequence_unitary(seq).matrix, acc, 1e-12)

    @pytest.mark.parametrize("d, n", KERNEL_SHAPES)
    def test_conjugation_test_matches_dense_products(self, d, n):
        # u W u^dagger ~ W' on two probe columns, against the dense triple
        # product; comparing with U W' phi in place of W' U phi fails this
        dim = Dimension.of(d)
        rng = random.Random(d + 10 * n)
        seq = random_gate_sequence(n, dim, 12, seed=n * d + 1)
        u, m = sequence_unitary(seq), sequence_matrix(seq)
        pairs, verdicts = [], []
        for _ in range(12):
            w = PauliWord(dim, *(tuple(rng.randrange(d) for _ in range(n)) for _ in "xz"))
            image = cliffsynth.apply_to_word(m, w)
            other = PauliWord(dim, *(tuple(rng.randrange(d) for _ in range(n)) for _ in "xz"))
            for target in (image, other):
                dense = u @ word_unitary(w) @ u.dagger()
                expected = equal_up_to_phase(dense, word_unitary(target))
                assert _maps_words(seq, [(w, target)]) == expected
                pairs.append((w, target))
                verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)
        # one block of many pairs passes only when every pair does
        accepted = [pair for pair, ok in zip(pairs, verdicts) if ok]
        assert _maps_words(seq, accepted)
        assert not _maps_words(seq, pairs)

    @pytest.mark.parametrize("d, n", KERNEL_SHAPES)
    def test_fourier_free_runs_match_reference_product(self, d, n):
        # Runs without a Fourier gate hold every phase and sum gate, and as
        # many again drawn at random, so that no run's product cancels, in
        # shuffled order; the last run ends the program. Composing a run's
        # source map as s[src] for src[s], or adding a phase to the
        # exponents before permuting them, fails this.
        dim = Dimension.of(d)
        rng = random.Random(31 * d + n)
        monomial = [Phase(q, e) for q in range(n) for e in range(dim.D)]
        monomial += [
            Sum(c, t, e) for c, t in itertools.permutations(range(n), 2) for e in range(dim.D)
        ]
        runs = []
        for _ in range(3):
            run = monomial + rng.choices(monomial, k=len(monomial))
            rng.shuffle(run)
            runs.append(tuple(run))
        gates = runs[0] + (Fourier(0),) + runs[1] + (Fourier(n - 1),) + runs[2]
        for program in [(), runs[0], gates]:
            acc = np.eye(d**n)
            for g in program:
                acc = reference_gate(g, n, dim) @ acc
            seq = GateSequence(program, n, dim)
            assert close(sequence_unitary(seq).matrix, acc, 1e-12), len(program)

    @pytest.mark.parametrize("d, n", KERNEL_SHAPES)
    def test_shared_probe_columns_match_dense_products(self, d, n):
        # Sources that share an X part, share a Z part, repeat, or are the
        # identity share block columns; every pair keeps its own verdict.
        dim = Dimension.of(d)
        rng = random.Random(17 * d + n)

        def part():
            return tuple(rng.randrange(d) for _ in range(n))

        seq = random_gate_sequence(n, dim, 12, seed=7 * d + n)
        u, m = sequence_unitary(seq), sequence_matrix(seq)
        x, z = part(), part()
        sources = [PauliWord(dim, x, z), PauliWord(dim, x, part()), PauliWord(dim, part(), z)]
        sources += [PauliWord(dim, x, z), PauliWord.identity(n, dim)]
        passing, failing = [], []
        for w in sources:
            dense = u @ word_unitary(w) @ u.dagger()
            for target in (cliffsynth.apply_to_word(m, w), PauliWord(dim, part(), part())):
                expected = equal_up_to_phase(dense, word_unitary(target))
                assert _maps_words(seq, [(w, target)]) == expected
                (passing if expected else failing).append((w, target))
        assert passing and failing
        assert _maps_words(seq, passing)
        for pair in failing:
            assert not _maps_words(seq, passing[:3] + [pair] + passing[3:])


class TestMapsWordsLayout:
    PROGRAM = GateSequence((Fourier(0), Sum(0, 1, 1), Phase(1, 2)), 2, Dimension.of(3))

    @pytest.mark.parametrize(
        "word",
        [
            PauliWord(Dimension.of(3), (1, 0, 2), (0, 1, 1)),
            PauliWord(Dimension.of(3), (1,), (2,)),
            PauliWord(Dimension.of(5), (1, 0), (0, 1)),
        ],
        ids=["n=3", "n=1", "d=5"],
    )
    def test_word_of_another_layout_raises_before_the_kernel(self, word, monkeypatch):
        def boom(*args):
            raise AssertionError("the kernel ran on a word of another layout")

        monkeypatch.setattr(cliffsynth.unitary, "_maps_exponents", boom)
        fits = PauliWord.identity(2, Dimension.of(3))
        for pair in [(word, fits), (fits, word)]:
            with pytest.raises(DimensionMismatchError):
                _maps_words(self.PROGRAM, [(fits, fits), pair])


def _alter_one_exponent(seq, rng):
    gates = list(seq.gates)
    spots = [i for i, g in enumerate(gates) if not isinstance(g, Fourier)]
    i = rng.choice(spots)
    g = gates[i]
    if isinstance(g, Phase):
        gates[i] = Phase(g.qudit, g.power + 1)
    else:
        gates[i] = Sum(g.control, g.target, g.power + 1)
    return GateSequence(tuple(gates), seq.n, seq.dim)


ORACLE_SHAPES = [(2, 6), (2, 8), (3, 4), (3, 5), (4, 4), (6, 3), (16, 2)]


def _oracle_cases():
    """Seeded programs at sides 64 to 256, every second one altered."""
    rng = random.Random(2024)
    cases = []
    for k, (d, n) in enumerate(ORACLE_SHAPES * 2):
        dim = Dimension.of(d)
        seq = random_gate_sequence(n, dim, 12 * n, seed=500 + k)
        m = sequence_matrix(seq)
        if k % 2:
            seq = _alter_one_exponent(seq, rng)
        cases.append((seq, m))
    return cases


def _recomposes_mod_d(seq, m):
    d = seq.dim.d
    return bool(np.array_equal(sequence_matrix(seq).mat % d, m.mat % d))


class TestCheckProgramAgainstRecomposition:
    def test_agrees_with_sequence_matrix_mod_d(self):
        verdicts = []
        for seq, m in _oracle_cases():
            expected = _recomposes_mod_d(seq, m)
            assert check_program(seq, m) == expected, (seq.dim.d, seq.n)
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)

    def test_independent_of_symplectic_path(self, monkeypatch):
        cases = [(seq, m, _recomposes_mod_d(seq, m)) for seq, m in _oracle_cases()[:6]]

        def boom(*args, **kwargs):
            raise AssertionError("the dense oracle used the symplectic path")

        for module in (cliffsynth.symplectic, cliffsynth.unitary):
            for name in ("gate_matrix", "sequence_matrix"):
                monkeypatch.setattr(module, name, boom, raising=False)
        for seq, m, expected in cases:
            assert check_program(seq, m) == expected


class TestLongProgramsAtD256:
    # Phase and sum gates act through exact integer exponents mod D, so
    # float error comes from the Fourier products alone: on true pairs
    # 1 - |overlap| reaches 4.3e-15 at 600 gates and 1.7e-14 at 3000,
    # far from the cut at 1/2.
    CASES = [(600, 0), (3000, 0)]

    @pytest.mark.parametrize("length, seed", CASES)
    def test_accepts(self, length, seed):
        seq = random_gate_sequence(1, Dimension.of(256), length, seed)
        assert check_program(seq, sequence_matrix(seq))

    @pytest.mark.parametrize("length, seed", CASES)
    def test_rejects_one_altered_exponent(self, length, seed):
        seq = random_gate_sequence(1, Dimension.of(256), length, seed)
        m = sequence_matrix(seq)
        altered = _alter_one_exponent(seq, random.Random(seed))
        assert not _recomposes_mod_d(altered, m)
        assert not check_program(altered, m)


@st.composite
def oracle_programs(draw):
    """A program at side <= ORACLE_CAP with its matrix, and sometimes
    the program with one exponent altered. d = 97 and 256 fit at n = 1
    only; programs run to a few hundred gates."""
    d = draw(st.sampled_from((2, 3, 4, 6, 12, 97, 256)))
    max_n = max(n for n in range(1, 9) if d**n <= ORACLE_CAP)
    size = draw(st.integers(0, 300))
    gates, n, dim = draw(gate_lists(dims=(d,), max_n=max_n, min_size=size, max_size=size))
    seq = GateSequence(tuple(gates), n, dim)
    m = sequence_matrix(seq)
    if draw(st.booleans()) and any(not isinstance(g, Fourier) for g in gates):
        seq = _alter_one_exponent(seq, draw(st.randoms(use_true_random=False)))
    return seq, m


class TestCheckProgramProperty:
    @settings(deadline=None, max_examples=60)
    @given(oracle_programs())
    def test_agrees_with_recomposition_mod_d(self, case):
        seq, m = case
        assert check_program(seq, m) == _recomposes_mod_d(seq, m)


class TestDenseOperator:
    def test_freezes_a_view_not_the_callers_array(self):
        a = np.eye(4, dtype=np.complex128)
        op = DenseOperator(Dimension.of(2), 2, a)
        assert a.flags.writeable and not op.matrix.flags.writeable
        assert op.matrix is not a and np.shares_memory(op.matrix, a)


class TestScaleCaps:
    def test_gate_unitary_capped_before_allocation(self):
        with pytest.raises(ScaleLimitError) as err:
            gate_unitary(Fourier(0), 3, Dimension.of(11))
        assert str(err.value) == cap_message("dense operator side", 1331)

    def test_word_unitary_capped_before_allocation(self):
        with pytest.raises(ScaleLimitError) as err:
            word_unitary(PauliWord.identity(4, Dimension.of(97)))
        assert str(err.value) == cap_message("dense operator side", 88529281)

    def test_pauli_unitaries_capped_before_allocation(self):
        with pytest.raises(ScaleLimitError) as err:
            pauli_unitaries(Dimension.of(1_000_000))
        assert str(err.value) == cap_message("dense operator side", 1000000)

    def test_single_operator_cap_is_inclusive(self):
        w = PauliWord(Dimension.of(32), (1, 0), (0, 1))
        assert word_unitary(w).side == OPERATOR_CAP

    def test_sequence_unitary_message(self):
        seq = GateSequence((Fourier(0),), 2, Dimension.of(17))
        with pytest.raises(ScaleLimitError) as err:
            sequence_unitary(seq)
        assert str(err.value) == cap_message("dense oracle side", 289)
