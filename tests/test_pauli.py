import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffsynth import (
    Dimension,
    DimensionMismatchError,
    MalformedMatrixError,
    ParseError,
    PauliWord,
    commutes,
    format_word,
    omega,
    parse_word,
    sip,
    word_unitary,
)

from conftest import random_word_exponents, word_vector


def word(d, xs, zs):
    return PauliWord(Dimension.of(d), tuple(xs), tuple(zs))


def sip_matrix_form(u, v):
    """The symplectic inner product through the block form matrix
    [[0, I], [-I, 0]], a path independent of `sip`."""
    n, d = u.n, u.dim.d
    form = np.zeros((2 * n, 2 * n), dtype=np.int64)
    form[:n, n:] = np.eye(n, dtype=np.int64)
    form[n:, :n] = (d - 1) * np.eye(n, dtype=np.int64)
    return int(word_vector(u) @ form @ word_vector(v)) % d


def dense_commutation_exponent(u, v):
    """Oracle: exponent c with U_u U_v = omega^c U_v U_u, via dense algebra."""
    d = u.dim.d
    uu, vv = word_unitary(u).matrix, word_unitary(v).matrix
    lhs = uu @ vv
    rhs = vv @ uu
    for c in range(d):
        if np.max(np.abs(lhs - omega(u.dim) ** c * rhs)) < 1e-9:
            return c
    raise AssertionError("products are not related by a root-of-unity scalar")


class TestSip:
    def test_x_against_z(self):
        assert sip(word(3, [1], [0]), word(3, [0], [1])) == 1

    def test_self_is_zero(self):
        w = word(5, [2], [3])
        assert sip(w, w) == 0

    def test_wraparound_example(self):
        u, v = word(5, [2], [1]), word(5, [1], [3])
        assert sip(u, v) == (2 * 3 - 1 * 1) % 5 == 0
        # dense cross-check: commuting products
        assert dense_commutation_exponent(u, v) == 0

    def test_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            sip(word(3, [1], [0]), word(5, [1], [0]))
        with pytest.raises(DimensionMismatchError):
            sip(word(3, [1], [0]), word(3, [1, 0], [0, 0]))


class TestCommutes:
    def test_qubit_x_z(self):
        assert not commutes(word(2, [1], [0]), word(2, [0], [1]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_disjoint_supports(self, d):
        assert commutes(word(d, [1, 0], [0, 0]), word(d, [0, 0], [0, 1]))

    def test_even_dimension_pairs(self):
        assert not commutes(word(4, [2], [0]), word(4, [0], [1]))
        assert commutes(word(4, [2], [0]), word(4, [0], [2]))
        # dense cross-checks
        assert dense_commutation_exponent(word(4, [2], [0]), word(4, [0], [1])) != 0
        assert dense_commutation_exponent(word(4, [2], [0]), word(4, [0], [2])) == 0


class TestMatrixForm:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_exhaustively_single_qudit(self, d):
        dim = Dimension.of(d)
        for a, b, ap, bp in itertools.product(range(d), repeat=4):
            u, v = PauliWord(dim, (a,), (b,)), PauliWord(dim, (ap,), (bp,))
            assert sip(u, v) == sip_matrix_form(u, v)

    def test_agrees_randomly_two_qudits_d6(self):
        dim = Dimension.of(6)
        for seed in range(60):
            u = PauliWord(dim, *random_word_exponents(2, 6, seed))
            v = PauliWord(dim, *random_word_exponents(2, 6, 1000 + seed))
            assert sip(u, v) == sip_matrix_form(u, v)

    def test_x_against_z_d3(self):
        assert sip_matrix_form(word(3, [1], [0]), word(3, [0], [1])) == 1


class TestAlgebraicProperties:
    @given(st.integers(2, 9), st.integers(1, 3), st.data())
    def test_bilinearity_and_skew(self, d, n, data):
        dim = Dimension.of(d)
        exps = data.draw(
            st.lists(st.integers(0, d - 1), min_size=6 * n, max_size=6 * n)
        )
        u = PauliWord(dim, tuple(exps[:n]), tuple(exps[n : 2 * n]))
        w = PauliWord(dim, tuple(exps[2 * n : 3 * n]), tuple(exps[3 * n : 4 * n]))
        v = PauliWord(dim, tuple(exps[4 * n : 5 * n]), tuple(exps[5 * n :]))
        assert sip(u + w, v) == (sip(u, v) + sip(w, v)) % d
        assert sip(u, v) == (-sip(v, u)) % d

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_nondegeneracy(self, d, n):
        dim = Dimension.of(d)
        gens = [PauliWord.x_generator(i, n, dim) for i in range(n)] + [
            PauliWord.z_generator(i, n, dim) for i in range(n)
        ]
        for vec in itertools.product(range(d), repeat=2 * n):
            u = PauliWord.from_vector(list(vec), dim)
            if u.is_identity:
                continue
            assert any(sip(u, g) != 0 for g in gens)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_consistency_exhaustive(self, d):
        # products in the two orders differ by the inner-product phase;
        # with X powers left of Z powers the exponent is sip(v, u)
        dim = Dimension.of(d)
        for a, b, ap, bp in itertools.product(range(d), repeat=4):
            u, v = PauliWord(dim, (a,), (b,)), PauliWord(dim, (ap,), (bp,))
            assert dense_commutation_exponent(u, v) == sip(v, u)

    def test_unitary_consistency_two_qudits(self):
        dim = Dimension.of(3)
        for seed in range(10):
            u = PauliWord(dim, *random_word_exponents(2, 3, seed))
            v = PauliWord(dim, *random_word_exponents(2, 3, 500 + seed))
            assert dense_commutation_exponent(u, v) == sip(v, u)


class TestWordBasics:
    def test_addition_is_mod_d(self):
        a = word(4, [3, 1], [2, 0])
        b = word(4, [2, 3], [3, 1])
        assert (a + b).xexp == (1, 0)
        assert (a + b).zexp == (1, 1)

    def test_vector_round_trip(self):
        w = word(6, [1, 0], [0, 3])
        assert PauliWord.from_vector(word_vector(w), w.dim) == w

    @pytest.mark.parametrize("xs, zs", [((1.5,), (0.7,)), ((1,), ("0",)), ((1, 0), (0, 2.0))])
    def test_non_integer_exponents_rejected(self, xs, zs):
        with pytest.raises(MalformedMatrixError, match="must be integers"):
            PauliWord(Dimension.of(5), xs, zs)
        with pytest.raises(MalformedMatrixError, match="must be integers"):
            PauliWord.from_vector(list(xs + zs), Dimension.of(5))

    def test_from_vector_takes_integer_sequences(self):
        w = word(6, [1, 0], [0, 3])
        for vec in ([1, 0, 0, 3], (1, 0, 0, 3), np.array([7, 6, 0, 9]), [np.int32(1), 0, 0, 3]):
            got = PauliWord.from_vector(vec, w.dim)
            assert got == w and all(type(a) is int for a in got.xexp + got.zexp)
        for bad in ([1, 0, 0], [], 3, np.array(3)):
            with pytest.raises(DimensionMismatchError):
                PauliWord.from_vector(bad, w.dim)

    def test_text_round_trip(self):
        w = word(6, [1, 0], [0, 3])
        assert format_word(w) == "d=6 n=2 a=1,0 b=0,3"
        assert parse_word(format_word(w)) == w

    @pytest.mark.parametrize(
        "build, xs, zs",
        [(PauliWord.x_generator, [0, 1, 0], [0, 0, 0]),
         (PauliWord.z_generator, [0, 0, 0], [0, 1, 0])],
        ids=["x", "z"],
    )
    def test_generators(self, build, xs, zs):
        dim = Dimension.of(6)
        assert build(np.int64(1), 3, dim) == word(6, xs, zs)
        # -1 once gave the last qudit, 3 a bare IndexError, 0.5 a bare TypeError
        for i in (-1, 3, 1.0, 0.5, "0", None):
            with pytest.raises(DimensionMismatchError, match=r"qudit index must lie in \[0, 3\)"):
                build(i, 3, dim)

    @pytest.mark.parametrize(
        "text",
        ["", "d=6 n=2 a=1 b=0,3", "d=6 n=2 a=1,9 b=0,3", "nonsense", "d=x n=1 a=1 b=0"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_word(text)
