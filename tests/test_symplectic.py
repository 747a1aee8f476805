import copy
import itertools
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsynth import (
    Dimension,
    DimensionMismatchError,
    GateSequence,
    MalformedMatrixError,
    NonSymplecticError,
    ParseError,
    PauliWord,
    SymplecticMatrix,
    apply_to_word,
    compose,
    format_matrix_text,
    gate_matrix,
    inverse,
    is_symplectic,
    merge_gates,
    parse_matrix_text,
    sequence_matrix,
    sip,
    swap_sequence,
)
from cliffsynth.errors import SCALE_CAPS
from cliffsynth.symplectic import (
    Fourier,
    Phase,
    Sum,
    _merge_onto,
    _normal_gates,
    _PackedRows,
    _symplectic_defect,
    format_gate,
    invert_gate,
    parse_gate_line,
)
from cliffsynth.unitary import gate_unitary

from conftest import gate_lists, random_gate_sequence, random_word_exponents, word_vector

DIM6 = Dimension.of(6)  # D = 12
MAX_D, _ = SCALE_CAPS["dimension d"]
GOLDEN_MATRIX = np.array([[10, 9], [3, 4]])


def golden_program():
    """R P^10 R^3 P^5 R P R P^5 over Z_12, listed in application order."""
    return GateSequence(
        (
            Phase(0, 5), Fourier(0), Phase(0, 1), Fourier(0), Phase(0, 5),
            Fourier(0), Fourier(0), Fourier(0), Phase(0, 10), Fourier(0),
        ),
        1,
        DIM6,
    )


def all_generator_gates(n, dim):
    gates = []
    for i in range(n):
        gates.append(Fourier(i))
        gates.extend(Phase(i, e) for e in range(dim.D))
    for c in range(n):
        for t in range(n):
            if c != t:
                gates.extend(Sum(c, t, e) for e in range(dim.D))
    return gates


class TestIsSymplectic:
    @pytest.mark.parametrize("d, n", [(2, 1), (3, 2), (5, 3)])
    def test_identity(self, d, n):
        dim = Dimension.of(d)
        assert is_symplectic(np.eye(2 * n, dtype=np.int64), dim)

    @pytest.mark.parametrize("n", [0, -2])
    def test_identity_needs_a_qudit(self, n):
        # a 0 x 0 matrix would skip validation, and decompose would emit n = 0
        with pytest.raises(DimensionMismatchError, match="qudit count must be >= 1"):
            SymplecticMatrix.identity(n, DIM6)

    def test_worked_matrix(self):
        assert is_symplectic(GOLDEN_MATRIX, DIM6)

    def test_singular_matrix(self):
        assert not is_symplectic(np.array([[1, 1], [1, 1]]), DIM6)

    def test_odd_side_rejected(self):
        with pytest.raises(MalformedMatrixError):
            is_symplectic(np.eye(3, dtype=np.int64), DIM6)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_single_qudit_det_criterion(self, d):
        dim = Dimension.of(d)
        D = dim.D
        for p, q, r, s in itertools.product(range(D), repeat=4):
            mat = np.array([[p, q], [r, s]])
            assert is_symplectic(mat, dim) == ((p * s - q * r) % D == 1)


class TestInverse:
    def test_identity(self):
        m = SymplecticMatrix.identity(2, DIM6)
        assert inverse(m) == m

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_phase_gate_inverse(self, d):
        dim = Dimension.of(d)
        p = SymplecticMatrix(dim, np.array([[1, 0], [1, 1]]))
        assert np.array_equal(inverse(p).mat, np.array([[1, 0], [dim.D - 1, 1]]))

    def test_worked_matrix_product(self):
        m = SymplecticMatrix(DIM6, GOLDEN_MATRIX)
        assert compose(m, inverse(m)) == SymplecticMatrix.identity(1, DIM6)
        assert compose(inverse(m), m) == SymplecticMatrix.identity(1, DIM6)

    @pytest.mark.parametrize("seed", range(5))
    def test_largest_dimension(self, seed):
        # D = 2e6: a product through unreduced S entries would wrap int64
        dim = Dimension.of(1_000_000)
        m = sequence_matrix(random_gate_sequence(4, dim, 80, seed))
        assert compose(inverse(m), m) == SymplecticMatrix.identity(4, dim)

    def test_non_symplectic_rejected_at_construction(self):
        with pytest.raises(NonSymplecticError):
            SymplecticMatrix(DIM6, np.array([[1, 1], [1, 1]]))

    def test_error_names_the_broken_generator_pair(self):
        # 5 times the Z_1 column: X_1 and Z_1 now have product 5, not 1
        rows = np.eye(6, dtype=np.int64)
        rows[4, 4] = 5
        with pytest.raises(NonSymplecticError) as err:
            SymplecticMatrix(DIM6, rows)
        assert str(err.value) == (
            "matrix is not symplectic mod 12: the images of X_1 and Z_1 "
            "(columns 1 and 4) have symplectic product 5, not 1"
        )

    @pytest.mark.parametrize("n", [3, 64])
    def test_error_is_short_at_any_size(self, n):
        # column Z_{n-1} += 7 * column X_0 leaves every product but the one
        # of Z_0 and Z_{n-1}, which becomes -7; the message stays one line
        m = sequence_matrix(random_gate_sequence(n, DIM6, 20 * n, n)).mat.copy()
        m[:, 2 * n - 1] += 7 * m[:, 0]
        with pytest.raises(NonSymplecticError) as err:
            SymplecticMatrix(DIM6, m)
        assert str(err.value) == (
            f"matrix is not symplectic mod 12: the images of Z_0 and Z_{n - 1} "
            f"(columns {n} and {2 * n - 1}) have symplectic product 5, not 0"
        )


class TestGateMatrix:
    def test_sum_gate_two_qudits(self):
        dim = Dimension.of(3)
        expected = np.array(
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
        )
        assert np.array_equal(gate_matrix(Sum(0, 1, 1), 2, dim), expected)

    def test_zero_phase_power_is_identity(self):
        assert np.array_equal(gate_matrix(Phase(1, 0), 3, DIM6), np.eye(6))

    def test_fourier_squared_is_identity_mod_2(self):
        dim = Dimension.of(2)
        seq = GateSequence((Fourier(0), Fourier(0)), 1, dim)
        assert np.array_equal(sequence_matrix(seq).mat % 2, np.eye(2))
        assert np.array_equal(sequence_matrix(seq).mat, 3 * np.eye(2))  # -I mod 4

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedMatrixError):
            gate_matrix(Fourier(2), 2, DIM6)

    @pytest.mark.parametrize("d", range(2, 13))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_gate_is_symplectic(self, d, n):
        dim = Dimension.of(d)
        for g in all_generator_gates(n, dim):
            assert is_symplectic(gate_matrix(g, n, dim), dim)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_sum_transpose_identity(self, d):
        dim = Dimension.of(d)
        for e in range(dim.D):
            a = gate_matrix(Sum(0, 1, e), 2, dim)
            b = gate_matrix(Sum(1, 0, e), 2, dim)
            assert np.array_equal(a.T, b)

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    @pytest.mark.parametrize("n, i", [(1, 0), (2, 1)])
    def test_phase_transpose_identity(self, d, n, i):
        dim = Dimension.of(d)
        seq = GateSequence(
            (Fourier(i),) * 3 + (Phase(i, dim.D - 1), Fourier(i)), n, dim
        )
        p = gate_matrix(Phase(i, 1), n, dim)
        assert np.array_equal(sequence_matrix(seq).mat, p.T)


def _dense_product(gates, n, dim, w):
    """``w`` under the gates in application order, by dense `gate_matrix` products."""
    for g in gates:
        w = gate_matrix(g, n, dim) @ w % dim.D
    return w.tolist()


class TestGateAction:
    """The packed-row kernel against the dense reference `gate_matrix`."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_matches_dense_product(self, d, n):
        dim = Dimension.of(d)
        D = dim.D
        rng = np.random.default_rng(100 * d + n)
        powers = [0, 1, D - 1, D, -1, 3 * D + 2]
        gates = [Fourier(i) for i in range(n)]
        gates += [Phase(i, e) for i in range(n) for e in powers]
        gates += [
            Sum(c, t, e) for c in range(n) for t in range(n) if c != t for e in powers
        ]
        packed = _PackedRows(2 * n, D)
        for g in gates:
            w = rng.integers(0, D, size=(2 * n, 2 * n), dtype=np.int64)
            work = [packed.pack(row) for row in w.tolist()]
            packed.act(work, [g], n)
            expected = (gate_matrix(g, n, dim) @ w % D).tolist()
            assert [list(packed.unpack(x)) for x in work] == expected, g
            assert [[packed.entry(x, c) for c in range(2 * n)] for x in work] == expected

    @pytest.mark.parametrize("d", [2, 3, 12, 97, MAX_D])
    def test_packed_rows_match_list_rows(self, d):
        # against row operations on plain int tuples, written out per gate
        # kind, with powers outside [0, D) left unreduced until the end
        dim = Dimension.of(d)
        n, D = 3, dim.D
        rng = np.random.default_rng(d)
        powers = [0, 1, D - 1, D, -1, 3 * D + 2]
        gates = [Fourier(i) for i in range(n)] + [Phase(i, e) for i in range(n) for e in powers]
        gates += [Sum(c, t, e) for c, t in [(0, 1), (2, 0), (1, 2)] for e in powers]
        packed = _PackedRows(2 * n, D)
        for g in gates:
            rows = [tuple(int(v) for v in rng.integers(0, D, size=2 * n)) for _ in range(2 * n)]
            work = [packed.pack(row) for row in rows]
            packed.act(work, [g], n)
            assert [packed.unpack(x) for x in work] == _act_on_list_rows(rows, g, n, D), g

    @pytest.mark.parametrize("d", [2, 3, 12, 97, MAX_D])
    def test_gate_list_matches_dense_product(self, d):
        # one call on a whole program, with powers outside [0, D) among its
        # gates, after one on the empty list, which changes nothing
        dim = Dimension.of(d)
        n, D = 3, dim.D
        gates = list(random_gate_sequence(n, dim, 60, d))
        gates[10:10] = [Phase(1, -1), Sum(2, 0, 3 * D + 2), Phase(0, D), Sum(0, 1, -D - 1)]
        w = np.random.default_rng(d).integers(0, D, size=(2 * n, 2 * n), dtype=np.int64)
        packed = _PackedRows(2 * n, D)
        work = [packed.pack(row) for row in w.tolist()]
        packed.act(work, [], n)
        assert [list(packed.unpack(x)) for x in work] == w.tolist()
        packed.act(work, gates, n)
        assert [list(packed.unpack(x)) for x in work] == _dense_product(gates, n, dim, w)

    @given(gate_lists(dims=(2, 3, 12, 97, MAX_D), max_n=4), st.data())
    def test_any_gate_list_matches_dense_product(self, case, data):
        gates, n, dim = case
        seed = data.draw(st.integers(0, 2**32 - 1))
        w = np.random.default_rng(seed).integers(0, dim.D, size=(2 * n, 2 * n), dtype=np.int64)
        packed = _PackedRows(2 * n, dim.D)
        work = [packed.pack(row) for row in w.tolist()]
        packed.act(work, gates, n)
        assert [list(packed.unpack(x)) for x in work] == _dense_product(gates, n, dim, w)


# d with D = 255, 256, 257, 65536, 65537 and the cap's 2 * MAX_D: one byte
# lane up to D = 256, two up to 65536, three above
LANE_DIMS = [255, 128, 257, 32768, 65537, MAX_D]
LANES = {255: 1, 256: 1, 257: 2, 65536: 2, 65537: 3, 2 * MAX_D: 3}


class TestPackedLanes:
    """`pack` and `unpack` at the byte-lane boundaries of D, on the
    ``terms = 2n`` rows of `_symplectic_defect` at n = 64."""

    @pytest.mark.parametrize("d", LANE_DIMS)
    def test_round_trip(self, d):
        D = Dimension.of(d).D
        packed = _PackedRows(128, D, terms=128)
        assert packed.lanes == LANES[D]
        rng = np.random.default_rng(d)
        row = [0, 1, D - 1, *(int(v) for v in rng.integers(0, D, size=125))]
        x = packed.pack(row)
        assert x == sum(v << packed.width * c for c, v in enumerate(row))
        assert packed.unpack(x) == tuple(row)

    @pytest.mark.parametrize("d", LANE_DIMS)
    def test_bad_entries_raise(self, d):
        D = Dimension.of(d).D
        packed = _PackedRows(128, D, terms=128)
        for v in (-1, -D, 256 ** packed.lanes):
            for c in (0, 127):
                row = [0] * 128
                row[c] = v
                with pytest.raises(ValueError):
                    packed.pack(row)
        with pytest.raises(ValueError):
            packed.pack([0] * 127)

    @pytest.mark.parametrize("d", LANE_DIMS)
    def test_symplectic_defect(self, d):
        # the first entry of N^T S N that differs, against int64 numpy
        # (entries below 2^21, sums of 128 products below 2^49)
        dim = Dimension.of(d)
        n, D = 64, dim.D
        m = sequence_matrix(random_gate_sequence(n, dim, 4 * n, d))
        assert _symplectic_defect(m.rows, D) is None
        rows = [list(row) for row in m.rows]
        rows[5][70] = (rows[5][70] + D // 2) % D
        N = np.array(rows, dtype=np.int64)
        S = np.block([[np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)],
                      [-np.eye(n, dtype=np.int64), np.zeros((n, n), np.int64)]])
        diff = np.argwhere((N.T @ S @ N - S) % D)
        r, c = (int(v) for v in diff[0])
        gen_r, gen_c = (f"{'XZ'[k >= n]}_{k % n}" for k in (r, c))
        assert _symplectic_defect(rows, D) == (
            f"the images of {gen_r} and {gen_c} (columns {r} and {c}) have symplectic "
            f"product {(N.T @ S @ N)[r, c] % D}, not {S[r, c] % D}"
        )


def _act_on_list_rows(rows, g, n, D):
    """The rows of (gate matrix of g) @ rows mod D, by row operations."""
    out = [list(row) for row in rows]

    def add(dst, src, k):
        out[dst] = [a + k * b for a, b in zip(out[dst], out[src])]

    if isinstance(g, Fourier):
        i = g.qudit
        out[i], out[n + i] = [-v for v in out[n + i]], out[i]
    elif isinstance(g, Phase):
        add(n + g.qudit, g.qudit, g.power)
    else:
        add(g.target, g.control, g.power)
        add(n + g.control, n + g.target, -g.power)
    return [tuple(v % D for v in row) for row in out]


class TestRowStorage:
    def test_ndarray_and_nested_lists_agree(self):
        m = sequence_matrix(random_gate_sequence(3, DIM6, 30, 4))
        as_lists = [list(row) for row in m.rows]
        for source in (m.mat, as_lists, np.array(as_lists) + 12, tuple(m.rows)):
            other = SymplecticMatrix(DIM6, source)
            assert other == m and other.rows == m.rows
            assert all(type(v) is int for row in other.rows for v in row)
        assert hash(SymplecticMatrix(DIM6, as_lists)) == hash(m)

    def test_mat_is_read_only_int64_copy_of_rows(self):
        m = sequence_matrix(random_gate_sequence(2, DIM6, 20, 1))
        assert m.mat.dtype == np.int64 and m.mat.tolist() == [list(row) for row in m.rows]
        with pytest.raises(ValueError):
            m.mat[0, 0] = 1

    @pytest.mark.parametrize("bad", [[[1, 0], [0]], [1, 0], [[1, "x"], [0, 1]], []])
    def test_malformed_input(self, bad):
        with pytest.raises(MalformedMatrixError):
            SymplecticMatrix(DIM6, bad)

    @pytest.mark.parametrize(
        "bad",
        [[[1.9, 0.2], [0, 1.0]], [["1", "0"], ["0", "1"]], np.eye(2), [[1, 0], [0, 1.0]]],
    )
    def test_non_integer_entries_rejected(self, bad):
        # each truncates to the identity, so only the type check rejects it
        with pytest.raises(MalformedMatrixError, match="matrix of integers"):
            SymplecticMatrix(Dimension.of(5), bad)
        with pytest.raises(MalformedMatrixError):
            is_symplectic(bad, Dimension.of(5))

    def test_numpy_integers_accepted(self):
        m = SymplecticMatrix(DIM6, [[np.int64(10), np.int32(9)], [np.uint8(3), 4]])
        assert m == SymplecticMatrix(DIM6, GOLDEN_MATRIX)
        assert all(type(v) is int for row in m.rows for v in row)

    @pytest.mark.parametrize("d", [2, 97, MAX_D])
    def test_products_match_int_reference(self, d):
        # entries up to 2 * 10^6: products far beyond what fits a packed
        # field unreduced, checked against numpy's exact int64 product
        dim = Dimension.of(d)
        a = sequence_matrix(random_gate_sequence(4, dim, 60, d))
        b = sequence_matrix(random_gate_sequence(4, dim, 60, d + 1))
        assert compose(a, b).mat.tolist() == (a.mat @ b.mat % dim.D).tolist()
        assert compose(inverse(a), a) == SymplecticMatrix.identity(4, dim)
        assert is_symplectic(a.mat, dim) and not is_symplectic(a.mat * 2, dim)
        w = PauliWord(dim, *random_word_exponents(4, d, d))
        assert list(apply_to_word(a, w).xexp + apply_to_word(a, w).zexp) == (
            a.mat @ word_vector(w) % d
        ).tolist()


class TestCompose:
    def test_identity_neutral(self):
        m = SymplecticMatrix(DIM6, GOLDEN_MATRIX)
        eye = SymplecticMatrix.identity(1, DIM6)
        assert compose(eye, m) == m

    def test_fourier_times_phase(self):
        r = SymplecticMatrix(DIM6, gate_matrix(Fourier(0), 1, DIM6))
        p = SymplecticMatrix(DIM6, gate_matrix(Phase(0, 1), 1, DIM6))
        assert np.array_equal(compose(r, p).mat, np.array([[11, 11], [1, 0]]))
        assert r @ p == compose(r, p)


class TestLayoutMismatch:
    EYE1, EYE2 = SymplecticMatrix.identity(1, DIM6), SymplecticMatrix.identity(2, DIM6)
    EYE1_D5 = SymplecticMatrix.identity(1, Dimension.of(5))
    X = PauliWord.x_generator(0, 1, DIM6)
    EMPTY1 = GateSequence((), 1, DIM6)

    @pytest.mark.parametrize(
        "op, args, message",
        [
            (compose, (EYE1, EYE2), "cannot compose matrices"),
            (compose, (EYE1, EYE1_D5), "cannot compose matrices"),
            (apply_to_word, (EYE1_D5, X), "matrix dim .* != word dim"),
            (apply_to_word, (EYE2, X), "matrix n=2 != word n=1"),
            (operator.add, (EMPTY1, GateSequence((), 2, DIM6)), "cannot concatenate"),
            (operator.add, (EMPTY1, GateSequence((), 1, Dimension.of(5))), "cannot concatenate"),
        ],
        ids=["compose-n", "compose-d", "apply-d", "apply-n", "add-n", "add-d"],
    )
    def test_raises(self, op, args, message):
        with pytest.raises(DimensionMismatchError, match=message):
            op(*args)


class TestSequenceMatrix:
    def test_empty_is_identity(self):
        seq = GateSequence((), 2, DIM6)
        assert sequence_matrix(seq) == SymplecticMatrix.identity(2, DIM6)

    def test_worked_program(self):
        assert np.array_equal(sequence_matrix(golden_program()).mat, GOLDEN_MATRIX)

    def test_single_sum_gate(self):
        dim = Dimension.of(3)
        seq = GateSequence((Sum(0, 1, 1),), 2, dim)
        assert np.array_equal(sequence_matrix(seq).mat, gate_matrix(Sum(0, 1, 1), 2, dim))

    @pytest.mark.parametrize("seed", range(8))
    def test_inverse_sequence(self, seed):
        dim = Dimension.of(6)
        seq = random_gate_sequence(2, dim, 12, seed)
        prod = compose(sequence_matrix(seq.inverse()), sequence_matrix(seq))
        assert prod == SymplecticMatrix.identity(2, dim)

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_preserves_matrix(self, seed):
        dim = Dimension.of(4)
        seq = random_gate_sequence(2, dim, 20, seed)
        merged = GateSequence(tuple(merge_gates(list(seq.gates), dim)), 2, dim)
        assert sequence_matrix(merged) == sequence_matrix(seq)


class TestApplyToWord:
    def test_fourier_maps_x_to_z(self):
        for d in (2, 3, 4, 5):
            dim = Dimension.of(d)
            r = SymplecticMatrix(dim, gate_matrix(Fourier(0), 1, dim))
            x = PauliWord.x_generator(0, 1, dim)
            z = PauliWord.z_generator(0, 1, dim)
            assert apply_to_word(r, x) == z
            assert apply_to_word(r, z) == x.scale(-1)

    def test_identity_fixes_words(self):
        w = PauliWord(DIM6, (1, 5), (0, 3))
        assert apply_to_word(SymplecticMatrix.identity(2, DIM6), w) == w

    def test_sum_on_second_z(self):
        dim = Dimension.of(3)
        c = SymplecticMatrix(dim, gate_matrix(Sum(0, 1, 1), 2, dim))
        w = PauliWord(dim, (0, 0), (0, 1))
        assert apply_to_word(c, w) == PauliWord(dim, (0, 0), (2, 1))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sip_preserved_by_all_gates_single_qudit(self, d):
        dim = Dimension.of(d)
        for g in all_generator_gates(1, dim):
            m = SymplecticMatrix(dim, gate_matrix(g, 1, dim))
            for a, b, ap, bp in itertools.product(range(d), repeat=4):
                u = PauliWord(dim, (a,), (b,))
                v = PauliWord(dim, (ap,), (bp,))
                assert sip(apply_to_word(m, u), apply_to_word(m, v)) == sip(u, v)

    def test_sip_preserved_random_two_qudits(self):
        dim = Dimension.of(6)
        for seed in range(25):
            m = sequence_matrix(random_gate_sequence(2, dim, 15, seed))
            u = PauliWord(dim, *random_word_exponents(2, 6, seed))
            v = PauliWord(dim, *random_word_exponents(2, 6, 777 + seed))
            assert sip(apply_to_word(m, u), apply_to_word(m, v)) == sip(u, v)


class TestTextFormats:
    def test_matrix_round_trip(self):
        m = SymplecticMatrix(DIM6, GOLDEN_MATRIX)
        text = format_matrix_text(m)
        assert text.splitlines()[0] == "d 6 n 1"
        mat, dim = parse_matrix_text(text)
        assert dim == DIM6 and np.array_equal(mat, GOLDEN_MATRIX)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "d 6 n 1\n1 0",  # missing row
            "d 6 n 1\n1 0 0\n0 1 0",  # wrong width
            "d 6 n 1\n1 0\n0 99",  # out of range
            "x 6 n 1\n1 0\n0 1",  # bad header
            "d 6 n 1\n1 a\n0 1",  # non-integer
        ],
    )
    def test_matrix_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_matrix_text(text)

    def test_program_round_trip(self):
        seq = golden_program()
        again = GateSequence.from_text(seq.to_text() + "\n# gates: 10\n", 1, DIM6)
        assert again == seq

    def test_gate_line_rejects(self):
        with pytest.raises(ParseError):
            GateSequence.from_text("F x", 1, DIM6)
        with pytest.raises(ParseError):
            GateSequence.from_text("C 0 0 1", 2, DIM6)

    @pytest.mark.parametrize("line", ["", "   ", "\t"])
    def test_blank_gate_line_rejected(self, line):
        with pytest.raises(ParseError, match="bad gate line"):
            parse_gate_line(line)


# ---------------------------------------------------------------------------
# merge_gates as a normal form


def split(gates, data):
    cut = data.draw(st.integers(0, len(gates)))
    return gates[:cut], gates[cut:]


def group_of(g):
    return (type(g), g.control, g.target) if type(g) is Sum else (type(g), g.qudit)


def inverted(gates, dim):
    return [h for g in reversed(gates) for h in invert_gate(g, dim)]


class TestMergeNormalForm:
    @given(gate_lists())
    def test_idempotent(self, case):
        gates, _, dim = case
        once = merge_gates(gates, dim)
        assert merge_gates(once, dim) == once

    @given(gate_lists(), st.data())
    def test_merge_of_concatenation(self, case, data):
        gates, _, dim = case
        a, b = split(gates, data)
        assert merge_gates(a + b, dim) == merge_gates(
            merge_gates(a, dim) + merge_gates(b, dim), dim
        )

    @given(gate_lists())
    def test_keeps_sequence_matrix(self, case):
        gates, n, dim = case
        merged = GateSequence(tuple(merge_gates(gates, dim)), n, dim)
        assert sequence_matrix(merged) == sequence_matrix(GateSequence(tuple(gates), n, dim))

    @given(gate_lists())
    def test_word_times_inverse_is_empty(self, case):
        gates, _, dim = case
        assert merge_gates(gates + inverted(gates, dim), dim) == []
        assert merge_gates(inverted(gates, dim) + gates, dim) == []

    @given(gate_lists(), st.data())
    def test_join_of_reduced_words_is_the_merge(self, case, data):
        gates, _, dim = case
        a, b = split(gates, data)
        word = merge_gates(a, dim)
        assert _merge_onto(word, merge_gates(b, dim), dim.D, reduced=True) is word
        assert word == merge_gates(a + b, dim)

    @given(gate_lists(), st.data())
    def test_join_cancels_across_the_seam(self, case, data):
        # b ends with the inverse of a, so the seam cascades through the
        # whole of a; a dropped pop or combine leaves a letter behind
        gates, _, dim = case
        a, rest = split(gates, data)
        b = inverted(a, dim) + rest
        joined = _merge_onto(merge_gates(a, dim), merge_gates(b, dim), dim.D, reduced=True)
        assert joined == merge_gates(rest, dim)

    @given(gate_lists())
    def test_output_is_reduced(self, case):
        gates, _, dim = case
        out = merge_gates(gates, dim)
        assert all(type(g) is Fourier or 0 < g.power < dim.D for g in out)
        for prev, g in zip(out, out[1:]):
            assert type(g) is Fourier or group_of(prev) != group_of(g)
        for run in zip(out, out[1:], out[2:], out[3:]):  # F^4 = I
            assert len({group_of(g) for g in run}) > 1


class TestSequenceInverse:
    @settings(deadline=None)
    @given(gate_lists(dims=(2, 3, 12, 97), max_n=64, max_size=200))
    def test_composes_to_identity(self, case):
        gates, n, dim = case
        seq = GateSequence(tuple(gates), n, dim)
        prod = compose(sequence_matrix(seq.inverse()), sequence_matrix(seq))
        assert prod == SymplecticMatrix.identity(n, dim)

    @settings(deadline=None)
    @given(gate_lists(dims=(2, 3, 12, 97), max_n=64, max_size=200))
    def test_twice_is_the_merged_program(self, case):
        gates, n, dim = case
        seq = GateSequence(tuple(gates), n, dim)
        assert seq.inverse().inverse().gates == tuple(merge_gates(seq.gates, dim))

    @settings(deadline=None)
    @given(gate_lists(dims=(2, 3, 5, 12, 97), max_n=64, max_size=200))
    def test_is_the_merged_gate_by_gate_inverse(self, case):
        # F^-1 = F^3 and negated powers, reversed and merged: the group
        # inverse, exact as a unitary, not only as a Z_D matrix
        gates, n, dim = case
        seq = GateSequence(tuple(gates), n, dim)
        assert seq.inverse().gates == tuple(merge_gates(inverted(seq.gates, dim), dim))


class TestDerivedSequence:
    @settings(deadline=None)
    @given(gate_lists(dims=(2, 3, 12, 97), max_n=16, max_size=80))
    def test_inverse_is_a_checked_sequence(self, case):
        gates, n, dim = case
        inv = GateSequence(tuple(gates), n, dim).inverse()
        assert type(inv.gates) is tuple and type(inv.n) is int
        assert inv == GateSequence(inv.gates, n, dim)


class TestGateConstructor:
    @pytest.mark.parametrize(
        "build", [lambda: Fourier(-1), lambda: Phase(-1, 1), lambda: Sum(-1, 0, 1),
                  lambda: Sum(0, -2, 1)],
        ids=["Fourier", "Phase", "Sum control", "Sum target"],
    )
    def test_negative_qudit_index_rejected(self, build):
        with pytest.raises(MalformedMatrixError, match="negative qudit index"):
            build()

    def test_sum_needs_distinct_qudits(self):
        with pytest.raises(MalformedMatrixError, match="distinct control and target"):
            Sum(2, 2, 1)

    @pytest.mark.parametrize(
        "build",
        [lambda: Fourier("1"), lambda: Phase(None, 1), lambda: Sum(0, "1", 1),
         lambda: Sum(None, 1, 1)],
        ids=["Fourier str", "Phase None", "Sum str target", "Sum None control"],
    )
    def test_str_or_none_qudit_rejected(self, build):
        with pytest.raises(MalformedMatrixError, match="is not an integer"):
            build()

    @pytest.mark.parametrize("g", [(0, 1, 2), (0,), "F 0", 5, None])
    def test_non_gates_rejected(self, g):
        entries = [
            lambda: GateSequence((Fourier(0), g), 2, DIM6),
            lambda: merge_gates([Fourier(0), g], DIM6),
            lambda: gate_matrix(g, 2, DIM6),
            lambda: invert_gate(g, DIM6),
            lambda: format_gate(g),
            lambda: gate_unitary(g, 2, DIM6),
        ]
        for entry in entries:
            with pytest.raises(MalformedMatrixError, match="is not a gate"):
                entry()


class TestGateValues:
    GATES = [Fourier(3), Phase(0, 5), Sum(1, 2, 3)]

    @pytest.mark.parametrize("g", GATES)
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, g, protocol):
        back = pickle.loads(pickle.dumps(g, protocol))
        assert back == g and type(back) is type(g)

    @pytest.mark.parametrize("g", GATES)
    def test_copies_are_equal(self, g):
        for twin in (copy.copy(g), copy.deepcopy(g)):
            assert twin == g and type(twin) is type(g)

    def test_repr(self):
        assert [repr(g) for g in self.GATES] == [
            "Fourier(qudit=3)", "Phase(qudit=0, power=5)", "Sum(control=1, target=2, power=3)"
        ]

    def test_fields(self):
        f, p, c = self.GATES
        assert f.qudit == 3
        assert (p.qudit, p.power) == (0, 5)
        assert (c.control, c.target, c.power) == (1, 2, 3)

    @pytest.mark.parametrize("g", GATES)
    def test_immutable(self, g):
        for name in g.__match_args__:
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
        with pytest.raises(AttributeError):
            g.extra = 0

    def test_equal_gates_hash_alike(self):
        assert hash(Sum(1, 2, 3)) == hash(Sum(1, 2, 3))
        assert hash(Phase(np.int64(0), 5)) == hash(Phase(0, 5))
        assert len({Fourier(0), Fourier(0), Phase(0, 0), Phase(0, 0)}) == 2

    def test_distinct_types_never_equal(self):
        assert Fourier(0) != Phase(0, 0)
        assert Phase(0, 1) != Sum(0, 1, 0)

    def test_a_gate_is_a_tuple_of_its_fields(self):
        assert Fourier(1) == (1,) and isinstance(Sum(1, 2, 3), tuple)
        with pytest.raises(TypeError):
            vars(Phase(0, 1))

    def test_class_patterns_read_fields(self):
        match Sum(4, 5, 6):
            case Phase(q, e):
                pytest.fail(f"a sum gate matched Phase({q}, {e})")
            case Sum(c, t, e):
                assert (c, t, e) == (4, 5, 6)


class TestNormalization:
    def test_in_range_gate_is_returned_as_is(self):
        gates = (Fourier(0), Phase(0, 0), Phase(1, 11), Sum(0, 1, 5))
        assert _normal_gates(gates, DIM6.D) is gates
        assert _normal_gates(gates, DIM6.D, 2) is gates
        for g in gates:
            assert _normal_gates([g], DIM6.D)[0] is g

    def test_out_of_range_powers_reduce(self):
        seq = GateSequence((Phase(0, -1), Sum(0, 1, DIM6.D + 3)), 2, DIM6)
        assert seq.gates == (Phase(0, DIM6.D - 1), Sum(0, 1, 3))

    def test_in_range_gates_are_kept(self):
        gates = (Fourier(1), Phase(0, 4), Sum(1, 0, 2))
        seq = GateSequence(gates, 2, DIM6)
        assert all(a is b for a, b in zip(seq.gates, gates))

    @pytest.mark.parametrize("g", [Fourier(2), Phase(2, 1), Sum(0, 2, 1), Sum(2, 1, 1)])
    def test_qudit_out_of_range_raises(self, g):
        with pytest.raises(MalformedMatrixError, match="out of range for n=2"):
            GateSequence((Phase(0, 1), g), 2, DIM6)

    @pytest.mark.parametrize(
        "g",
        [Phase(0, 2.5), Phase(0.0, 1), Fourier(0.5), Sum(0, 1, 1.0), Sum(0, 1.0, 1), Phase(0, "1")],
    )
    def test_non_integer_fields_rejected(self, g):
        with pytest.raises(MalformedMatrixError, match="not an integer"):
            GateSequence((Fourier(1), g), 2, DIM6)
        with pytest.raises(MalformedMatrixError, match="not an integer"):
            merge_gates([g, g], DIM6)

    @pytest.mark.parametrize("n", [2.5, 2.0, "2"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: GateSequence((Fourier(0),), n, DIM6),
            lambda n: swap_sequence(0, 1, n, DIM6),
            lambda n: PauliWord.x_generator(0, n, DIM6),
            lambda n: PauliWord.z_generator(0, n, DIM6),
            lambda n: PauliWord.identity(n, DIM6),
            lambda n: SymplecticMatrix.identity(n, DIM6),
            lambda n: gate_matrix(Fourier(0), n, DIM6),
            lambda n: gate_unitary(Phase(0, 1), n, DIM6),
        ],
        ids=["GateSequence", "swap_sequence", "x_generator", "z_generator", "word_identity",
             "matrix_identity", "gate_matrix", "gate_unitary"],
    )
    def test_non_integer_qudit_count_rejected(self, build, n):
        with pytest.raises(MalformedMatrixError, match="qudit count must be an integer"):
            build(n)

    def test_numpy_integer_fields_become_ints(self):
        gates = (Phase(np.int64(0), np.int64(-1)), Fourier(np.int32(1)), Sum(1, np.int64(0), 2))
        seq = GateSequence(gates, 2, DIM6)
        assert seq.gates == (Phase(0, DIM6.D - 1), Fourier(1), Sum(1, 0, 2))
        names = {Fourier: ["qudit"], Phase: ["qudit", "power"], Sum: ["control", "target", "power"]}
        assert all(type(getattr(g, k)) is int for g in seq.gates for k in names[type(g)])
        assert merge_gates(gates, DIM6) == list(seq.gates)
        assert type(GateSequence(gates, np.int64(2), DIM6).n) is int

    def test_negative_powers_round_trip(self):
        seq = GateSequence.from_text("P 0 -1\nF 1\nC 1 0 -13\nP 1 -24", 2, DIM6)
        assert seq.to_text() == "P 0 11\nF 1\nC 1 0 11\nP 1 0"
        assert GateSequence.from_text(seq.to_text(), 2, DIM6) == seq
