import hashlib
import itertools

import numpy as np
import pytest

from cliffsynth import (
    CliffSynthError,
    Dimension,
    DimensionMismatchError,
    Embedding,
    PauliWord,
    ScaleLimitError,
    SymplecticMatrix,
    check_symmetric_logical_action,
    gate_matrix,
    is_symplectic_embedding,
    logical_basis_state,
    logical_feasible_single,
    logical_feasible_sum,
    verify_single_witness,
    word_unitary,
)
from cliffsynth.cli import main
from cliffsynth.errors import SCALE_CAPS
from cliffsynth.symplectic import Sum

from conftest import cap_message

QUBIT_IN_24 = Embedding(2, 3, 4)

# sha256 over the `embed-check` output of every embedding it accepts
EMBED_CHECK_DIGEST = "c90ecba199f7de29b8dfb4467e62f5ab329e1e0bb34eec728d82591fdbd20721"


def all_embeddings(max_d=24):
    out = []
    for n in range(2, max_d + 1):
        for rx in range(1, max_d + 1):
            for rz in range(1, max_d + 1):
                if n * rx * rz <= max_d:
                    out.append(Embedding(n, rx, rz))
    return out


def oracle_targets(e, gate):
    """Images of X_L = X^r_x and Z_L = Z^r_z as (X, Z) exponents: the
    Fourier gate sends X_L to Z_L and Z_L to X_L^-1, the phase gate X_L
    to X_L Z_L and fixes Z_L."""
    if gate == "qft":
        return (0, e.r_z), (-e.r_x, 0)
    return (e.r_x, e.r_z), (0, e.r_z)


def same_logical_word(image, target, e):
    """X^(n r_x) and Z^(n r_z) fix every encoded basis state, so words that
    differ by their powers act alike on the embedded system."""
    return (image[0] - target[0]) % (e.n * e.r_x) == 0 and (image[1] - target[1]) % (
        e.n * e.r_z
    ) == 0


def brute_force_feasible(e, gate):
    """Independent oracle: scan every 2x2 matrix with det 1 mod D."""
    D = e.dim.D
    t1, t2 = oracle_targets(e, gate)
    for a, b, c, ee in itertools.product(range(D), repeat=4):
        if (a * ee - b * c) % D != 1:
            continue
        # the witness maps X_L = (r_x, 0) to r_x (a, c) and Z_L = (0, r_z) to r_z (b, ee)
        if same_logical_word((a * e.r_x, c * e.r_x), t1, e) and same_logical_word(
            (b * e.r_z, ee * e.r_z), t2, e
        ):
            return True
    return False


class TestEmbeddingType:
    def test_ambient_dimension(self):
        assert QUBIT_IN_24.d == 24
        assert QUBIT_IN_24.dim == Dimension.of(24)

    def test_validation(self):
        with pytest.raises(CliffSynthError):
            Embedding(1, 2, 2)
        with pytest.raises(CliffSynthError):
            Embedding(2, 0, 1)

    @pytest.mark.parametrize("params", [(2.5, 1, 1), (2, 1.5, 1), (2, 1, 2.0), (2, "1", 1)])
    def test_rejects_non_integers(self, params):
        with pytest.raises(CliffSynthError, match="must be integers"):
            Embedding(*params)


class TestLogicalBasis:
    def test_trivial_embedding_is_computational(self):
        e = Embedding(2, 1, 1)
        assert np.allclose(logical_basis_state(e, 0), [1, 0])
        assert np.allclose(logical_basis_state(e, 1), [0, 1])

    def test_worked_d24_state(self):
        s = logical_basis_state(QUBIT_IN_24, 0)
        expected = np.zeros(24)
        expected[[0, 6, 12, 18]] = 0.5
        assert np.allclose(s, expected)

    @pytest.mark.parametrize("e", [QUBIT_IN_24, Embedding(2, 2, 2), Embedding(3, 2, 2)])
    def test_orthonormal(self, e):
        states = [logical_basis_state(e, j) for j in range(e.n)]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                assert abs(np.vdot(si, sj) - (1.0 if i == j else 0.0)) < 1e-12

    def test_range_checked(self):
        with pytest.raises(CliffSynthError):
            logical_basis_state(QUBIT_IN_24, 2)

    @pytest.mark.parametrize(
        "e", [QUBIT_IN_24, Embedding(2, 2, 2), Embedding(3, 2, 2), Embedding(2, 1, 3)]
    )
    def test_stabilizers_fix_basis_states(self, e):
        dim = e.dim
        xs = word_unitary(PauliWord(dim, (e.n * e.r_x % e.d,), (0,))).matrix
        zs = word_unitary(PauliWord(dim, (0,), (e.n * e.r_z % e.d,))).matrix
        for j in range(e.n):
            s = logical_basis_state(e, j)
            assert np.max(np.abs(xs @ s - s)) < 1e-9
            assert np.max(np.abs(zs @ s - s)) < 1e-9


class TestFeasibility:
    def test_d24_qft_absent(self):
        assert logical_feasible_single(QUBIT_IN_24, "qft") is None

    def test_d24_phase_witness(self):
        # the coset search finds the fourth phase-shift power as a witness:
        # it sends the X generator to X^3 Z^12, and Z^12 differs from the
        # Z^4 target by the identity-acting Z^8
        w = logical_feasible_single(QUBIT_IN_24, "phase")
        assert w is not None
        assert verify_single_witness(QUBIT_IN_24, "phase", w)
        assert np.array_equal(w.mat, [[1, 0], [4, 1]])

    def test_d24_brute_force_agreement(self):
        assert brute_force_feasible(QUBIT_IN_24, "qft") is False
        assert brute_force_feasible(QUBIT_IN_24, "phase") is True

    def test_d24_not_symplectic(self):
        assert not is_symplectic_embedding(QUBIT_IN_24)

    def test_single_gate_names_checked(self):
        w = logical_feasible_single(QUBIT_IN_24, "phase")
        for gate in ("sum", "cnot"):
            with pytest.raises(CliffSynthError, match="single-qudit logical gate"):
                logical_feasible_single(QUBIT_IN_24, gate)
            with pytest.raises(CliffSynthError, match="single-qudit logical gate"):
                verify_single_witness(QUBIT_IN_24, gate, w)

    def test_witness_layout_checked(self):
        with pytest.raises(DimensionMismatchError):
            verify_single_witness(QUBIT_IN_24, "phase", logical_feasible_sum(QUBIT_IN_24))
        # the d = 24 phase witness's entries, but over d = 12
        w = SymplecticMatrix(Dimension.of(12), np.array([[1, 0], [4, 1]]))
        with pytest.raises(DimensionMismatchError, match="over d=12"):
            verify_single_witness(QUBIT_IN_24, "phase", w)

    def test_sum_always_feasible(self):
        for e in [QUBIT_IN_24, Embedding(2, 2, 2), Embedding(2, 1, 1), Embedding(3, 1, 2)]:
            w = logical_feasible_sum(e)
            assert np.array_equal(w.mat, gate_matrix(Sum(0, 1, 1), 2, e.dim))

    @pytest.mark.parametrize("e", [Embedding(2, 2, 2), Embedding(3, 2, 2), Embedding(2, 1, 1)])
    def test_symmetric_feasible_with_standard_witnesses(self, e):
        q = logical_feasible_single(e, "qft")
        p = logical_feasible_single(e, "phase")
        assert q is not None and p is not None
        assert verify_single_witness(e, "qft", q)
        assert verify_single_witness(e, "phase", p)

    def test_symmetric_implies_symplectic_up_to_36(self):
        for n in range(2, 37):
            for r in range(1, 7):
                if n * r * r > 36:
                    continue
                assert is_symplectic_embedding(Embedding(n, r, r))

    def test_asymmetric_example_decided(self):
        # 2b = 1 or 3 (mod 4) has no solution, so the transform is blocked
        e = Embedding(2, 1, 2)
        assert logical_feasible_single(e, "qft") is None
        assert not is_symplectic_embedding(e)

    def test_all_witnesses_verify(self):
        for e in all_embeddings(20):
            for gate in ("qft", "phase"):
                w = logical_feasible_single(e, gate)
                if w is not None:
                    assert verify_single_witness(e, gate, w), (e, gate)

    # every embedding with D <= 16 as well: a wrong modulus for one entry
    # shows only at some asymmetric ones, such as (2, 1, 3)
    @pytest.mark.parametrize(
        "e",
        [Embedding(2, 1, 2), Embedding(3, 2, 3), QUBIT_IN_24]
        + [e for e in all_embeddings(16) if e.dim.D <= 16],
    )
    def test_search_agrees_with_brute_force(self, e):
        if e.dim.D > 48:
            pytest.skip("brute force too large")
        for gate in ("qft", "phase"):
            assert (logical_feasible_single(e, gate) is not None) == brute_force_feasible(
                e, gate
            )


class TestSymmetricLogicalAction:
    def test_trivial_embedding(self):
        assert check_symmetric_logical_action(Embedding(2, 1, 1))

    def test_qubit_in_d8(self):
        assert check_symmetric_logical_action(Embedding(2, 2, 2))

    def test_qutrit_in_d12(self):
        assert check_symmetric_logical_action(Embedding(3, 2, 2))

    def test_odd_symmetric(self):
        assert check_symmetric_logical_action(Embedding(3, 3, 3))

    def test_requires_symmetry(self):
        with pytest.raises(CliffSynthError):
            check_symmetric_logical_action(QUBIT_IN_24)

    def test_scale_cap(self):
        with pytest.raises(ScaleLimitError) as err:
            check_symmetric_logical_action(Embedding(2, 5, 5))
        assert str(err.value) == cap_message("dense operator side", 2500)


class TestEmbedCheckGolden:
    def test_every_accepted_embedding_unchanged(self, capsys):
        # the symplectic verdict, the QFT and phase witnesses (or their
        # absence) and the SUM witness, for every d up to embed-check's cap
        h = hashlib.sha256()
        embeddings = all_embeddings(SCALE_CAPS["embed-check d"][0])
        for e in embeddings:
            assert main(["embed-check", str(e.n), str(e.r_x), str(e.r_z)]) == 0
            h.update(f"{e.n} {e.r_x} {e.r_z}\n{capsys.readouterr().out}".encode())
        assert len(embeddings) == 223
        assert h.hexdigest() == EMBED_CHECK_DIGEST
