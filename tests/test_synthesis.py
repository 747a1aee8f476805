import hashlib
import itertools
import math
import random
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliffsynth.synthesis
from cliffsynth import (
    DegenerateWordError,
    Dimension,
    GateSequence,
    NonSymplecticError,
    PauliWord,
    SymplecticMatrix,
    SynthesisCheckError,
    apply_to_word,
    decompose,
    decompose_single,
    gate_matrix,
    gcd0,
    generalized_peg,
    parse_word,
    sequence_matrix,
    swap_sequence,
    transport,
)
from cliffsynth.symplectic import (
    Fourier,
    Phase,
    Sum,
    _PackedRows,
    inverse,
    merge_gates,
)
from cliffsynth.unitary import _maps_words

from cliffsynth.synthesis import (
    MAX_TABLE_D,
    _act2,
    _closed_form,
    _eliminate,
    _hub_gates,
    _is_unit,
    _map_gates,
    _peg_gates,
    _require_unit,
    _shortest_table,
    _shorten_runs,
    _table_letters,
    _word,
    _x_hub_gates,
)

from conftest import child_env, gate_lists, random_gate_sequence, random_word_exponents

DIM5 = Dimension.of(5)
DIM6 = Dimension.of(6)
DIM12 = Dimension.of(12)
GOLDEN_MATRIX = np.array([[10, 9], [3, 4]])

SWAP_MATRIX = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def apply_seq_to_vector(seq, vec):
    d = seq.dim.d
    return sequence_matrix(seq).mat @ np.asarray(vec, dtype=np.int64) % d


def ceil_log2(v):
    return (v - 1).bit_length()


def sl2(D):
    """Every element (p, q, r, s) of SL(2, Z_D)."""
    entries = itertools.product(range(D), repeat=4)
    return [(p, q, r, s) for p, q, r, s in entries if (p * s - q * r) % D == 1]


class TestPegReduce:
    """`generalized_peg` of the one-qudit word X^a Z^b: a program to Z^g."""

    def test_already_reduced(self):
        dim = Dimension.of(7)
        seq, g = generalized_peg(PauliWord(dim, (0,), (5,)))
        assert len(seq) == 0 and g == 5

    def test_worked_pair(self):
        seq, g = generalized_peg(PauliWord(DIM12, (9,), (4,)))
        assert g == 1
        assert np.array_equal(apply_seq_to_vector(seq, [9, 4]), [0, 1])

    def test_common_factor(self):
        seq, g = generalized_peg(PauliWord(DIM6, (2,), (4,)))
        assert g == 2
        assert np.array_equal(apply_seq_to_vector(seq, [2, 4]), [0, 2])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateWordError):
            generalized_peg(PauliWord(DIM6, (0,), (0,)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_exhaustive_small(self, d):
        dim = Dimension.of(d)
        for a, b in itertools.product(range(d), repeat=2):
            if (a, b) == (0, 0):
                continue
            seq, g = generalized_peg(PauliWord(dim, (a,), (b,)))
            assert g == gcd0(a, b)
            assert np.array_equal(apply_seq_to_vector(seq, [a, b]), [0, g])


def euclid_chain(a, b, D):
    """The word normal form's Euclid chain on qudit 0, gate by gate:
    F^3 P^k F for each step with a >= b, P^-k for each with a < b, and a
    closing F when the loop stops at (a, 0)."""
    f = Fourier(0)
    gates = []
    while a and b:
        if a >= b:
            k = a // b
            gates += [f, f, f, Phase(0, k), f]
            a -= k * b
        else:
            k = b // a
            gates.append(Phase(0, -k % D))
            b -= k * a
    if b == 0:
        gates.append(f)
    return gates


def matrix2(gates, D):
    """The 2x2 matrix (p, q, r, s) of single-qudit gates, first applied first."""
    acc = (1, 0, 0, 1)
    for g in gates:
        acc = _act2(g, *acc, D)
    return acc


def check_peg_word(a, b, dim):
    """The word normal form of the one-qudit word (a, b), which has no hub,
    so its qudit takes `_map_gates`, and the inverse word `transport` uses:
    each maps its vector, is reduced, and is never longer than the raw
    chain (the inverse chain starts with F^3 for a closing F)."""
    D = dim.D
    chain = euclid_chain(a, b, D)
    word, g = _peg_gates([a], [b], D, 1)
    assert g == gcd0(a, b)
    p, q, r, s = matrix2(word, D)
    assert ((p * a + q * b) % D, (r * a + s * b) % D) == (0, g)
    assert merge_gates(word, dim) == word
    assert len(word) <= len(chain)

    inv, g_inv = _peg_gates([a], [b], D, 1, inverse=True)
    assert g_inv == g
    p, q, r, s = matrix2(inv, D)
    assert (q * g % D, s * g % D) == (a, b)
    assert merge_gates(inv, dim) == inv
    assert len(inv) <= len(chain) + 2


class TestPegVector:
    """The word normal form of one qudit's exponent vector (`check_peg_word`)."""

    @pytest.mark.parametrize(
        "d", [d for d in range(2, MAX_TABLE_D) if Dimension.of(d).D <= MAX_TABLE_D]
    )
    def test_exhaustive_at_table_sizes(self, d):
        dim = Dimension.of(d)
        for a, b in itertools.product(range(dim.D), repeat=2):
            if (a, b) != (0, 0):
                check_peg_word(a, b, dim)

    @settings(deadline=None)
    @given(st.sampled_from((97, 1024, 10**6)), st.data())
    def test_above_the_table(self, d, data):
        dim = Dimension.of(d)
        a, b = data.draw(
            st.tuples(st.integers(0, dim.D - 1), st.integers(0, dim.D - 1)).filter(any)
        )
        check_peg_word(a, b, dim)


class TestDecomposeSingle:
    def test_exhaustive_programs_frozen_d6(self):
        # all 1152 matrices mod 12, each a shortest program from the table
        h = hashlib.sha256()
        lengths = []
        for a, b, c, e in sl2(12):
            seq = decompose_single(SymplecticMatrix(DIM6, np.array([[a, b], [c, e]])))
            h.update(f"{a} {b} {c} {e}\n{seq.to_text()}\n".encode())
            lengths.append(len(seq))
        assert (len(lengths), sum(lengths), max(lengths)) == (1152, 5324, 7)
        assert h.hexdigest() == "4c8d5c60536d65ffeee32e7da488567c8fae35b8e3b96e82b190f3a9906cb4c1"

    def test_worked_matrix(self):
        m = SymplecticMatrix(DIM6, GOLDEN_MATRIX)
        seq = decompose_single(m)
        assert sequence_matrix(seq) == m

    def test_identity_is_empty(self):
        assert len(decompose_single(SymplecticMatrix.identity(1, DIM6))) == 0

    def test_closed_form_pattern(self):
        # D = 29 is above the table: the 10-gate elimination run, which
        # rescales its Z column, gives way to the closed form P^2 F P^1 F
        # P^3, the entries m = 2 and n = 3 read off the unit top-right q = 1
        dim = Dimension.of(29)
        m = SymplecticMatrix(dim, np.array([[2, 1], [1, 1]]))
        seq = decompose_single(m)
        assert seq.gates == (
            Phase(0, 3), Fourier(0), Phase(0, 1), Fourier(0), Phase(0, 2)
        )
        assert len(merge_gates(_eliminate(m), dim)) == 10

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_framing_is_small_when_some_entry_invertible(self, d):
        dim = Dimension.of(d)
        D = dim.D
        for p, q, r, s in itertools.product(range(D), repeat=4):
            if (p * s - q * r) % D != 1:
                continue
            if all(gcd0(v, D) != 1 for v in (p, q, r, s)):
                continue
            m = SymplecticMatrix(dim, np.array([[p, q], [r, s]]))
            seq = decompose_single(m)
            assert sequence_matrix(seq) == m
            # a shortest program: at most 7 gates for D <= 16
            assert len(seq) <= 7

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_exhaustive_round_trip_with_budget(self, d):
        dim = Dimension.of(d)
        D = dim.D
        budget = 8 * ceil_log2(D) + 16
        for p, q, r, s in itertools.product(range(D), repeat=4):
            if (p * s - q * r) % D != 1:
                continue
            m = SymplecticMatrix(dim, np.array([[p, q], [r, s]]))
            seq = decompose_single(m)
            assert sequence_matrix(seq) == m
            assert len(seq) <= budget

    def test_exhaustive_d14_above_the_table(self):
        # SL(2, Z_28), 16128 elements: D = 28 > MAX_TABLE_D, so every program
        # is the shorter of the elimination run and the closed form, whose
        # no-unit-entry branch 96 of the elements reach. The totals are
        # pinned: the framings for a unit r or p keep the closed form short
        dim = Dimension.of(14)
        assert dim.D > MAX_TABLE_D
        total = closed_total = no_unit = 0
        for p, q, r, s in sl2(dim.D):
            m = SymplecticMatrix(dim, np.array([[p, q], [r, s]]))
            seq = decompose_single(m)
            assert sequence_matrix(seq) == m
            assert len(seq) <= 7
            total += len(seq)
            closed = _word(_closed_form(p, q, r, s, dim.D), 0)
            assert merge_gates(closed, dim) == closed  # already reduced
            acc = (1, 0, 0, 1)
            for g in closed:
                acc = _act2(g, *acc, dim.D)
            assert acc == (p, q, r, s)
            assert len(closed) <= 7
            closed_total += len(closed)
            no_unit += all(gcd0(v, dim.D) != 1 for v in (p, q, r, s))
        assert (no_unit, total, closed_total) == (96, 81829, 89602)

    def test_closed_form_rejects_non_symplectic(self):
        # every entry even mod 28: no s + t*q is a unit
        with pytest.raises(NonSymplecticError, match="not symplectic mod 28"):
            _closed_form(2, 2, 2, 2, 28)

    def test_rejects_non_2x2(self):
        with pytest.raises(Exception):
            decompose_single(SymplecticMatrix.identity(2, DIM6))


class TestShortestTable:
    @staticmethod
    def brute_force_lengths(D, max_len=7):
        """Shortest length of every F / P^e word up to ``max_len``, by matrix."""
        best = {}

        def walk(m, length):
            if best.get(m, max_len + 1) <= length:
                return
            best[m] = length
            if length == max_len:
                return
            p, q, r, s = m
            walk((-r % D, -s % D, p, q), length + 1)
            for e in range(1, D):
                walk((p, q, (r + e * p) % D, (s + e * q) % D), length + 1)

        walk((1, 0, 0, 1), 0)
        return best

    @staticmethod
    def full_search_table(D):
        """The breadth-first table with the P^e loop run from every matrix."""
        table = bytearray(D**4)
        frontier = [D**3 + 1]
        table[frontier[0]] = D + 1
        while frontier:
            found = []
            for i in frontier:
                p, q, r, s = i // D**3, i // D**2 % D, i // D % D, i % D
                j = ((-r % D * D + -s % D) * D + p) * D + q  # F M
                if not table[j]:
                    table[j] = 1
                    found.append(j)
                row = i - i % (D * D)
                for e in range(1, D):  # P^e M
                    r, s = (r + p) % D, (s + q) % D
                    j = row + r * D + s
                    if not table[j]:
                        table[j] = 1 + e
                        found.append(j)
            frontier = found
        return table

    @pytest.mark.parametrize("D", range(2, MAX_TABLE_D + 1))
    def test_table_equals_the_full_search(self, D):
        # only F-reached matrices run the P^e loop; the bytes must not move
        assert _shortest_table(D) == self.full_search_table(D)

    @pytest.mark.parametrize("D", [3, 4, 5, 12, 24])
    def test_every_element_recomposes(self, D):
        assert D <= MAX_TABLE_D
        for p, q, r, s in sl2(D):
            acc = (1, 0, 0, 1)
            for g in _word(_table_letters(p, q, r, s, D), 0):
                assert type(g) is Fourier or 0 < g.power < D
                acc = _act2(g, *acc, D)
            assert acc == (p, q, r, s)

    @pytest.mark.parametrize("D", [3, 4, 5])
    def test_words_are_shortest(self, D):
        best = self.brute_force_lengths(D)
        elements = sl2(D)
        assert sorted(best) == elements
        for m in elements:
            assert len(_table_letters(*m, D)) == best[m]


class TestShortenRuns:
    @given(gate_lists())
    def test_keeps_sequence_matrix(self, case):
        gates, n, dim = case
        out = GateSequence(tuple(_shorten_runs(gates, dim)), n, dim)
        assert sequence_matrix(out) == sequence_matrix(GateSequence(tuple(gates), n, dim))

    @given(gate_lists())
    def test_never_lengthens_merged_program(self, case):
        gates, _, dim = case
        merged = merge_gates(gates, dim)
        out = _shorten_runs(merged, dim)
        assert len(merge_gates(out, dim)) <= len(out) <= len(merged)

    @given(gate_lists())
    def test_fixed_point(self, case):
        gates, _, dim = case
        out = _shorten_runs(gates, dim)
        assert _shorten_runs(out, dim) == out

    def test_run_moves_to_its_sum(self):
        # F F on qudit 0 is [[-1, 0], [0, -1]], two gates at best: kept, but
        # moved past the phase gate on qudit 1 up to the sum gate; the closing
        # run P P on qudit 0 becomes one gate
        gates = [Fourier(0), Phase(1, 2), Fourier(0), Sum(1, 0, 1), Phase(0, 1), Phase(0, 1)]
        assert _shorten_runs(gates, DIM5) == [
            Phase(1, 2), Fourier(0), Fourier(0), Sum(1, 0, 1), Phase(0, 2)
        ]

    def test_identity_run_is_dropped(self):
        # (F P)^3 = I: the run goes, and the two sum gates meet, which is
        # why decompose merges after the pass
        run = [Phase(0, 1), Fourier(0)] * 3
        for dim in (DIM5, Dimension.of(97)):
            out = _shorten_runs([Sum(0, 1, 1)] + run + [Sum(0, 1, 1)], dim)
            assert out == [Sum(0, 1, 1), Sum(0, 1, 1)]
            assert merge_gates(out, dim) == [Sum(0, 1, 2)]


class TestScaleSequence:
    """`_eliminate`'s rescale of Z^k to Z, for a unit k mod D: the
    one-qudit map `_map_gates(0, k, 0, 1, 1, D, j)`."""

    def test_unit_scale_is_identity_matrix(self):
        gates = _map_gates(0, 1, 0, 1, 1, DIM5.D, 0)
        assert gates == []
        seq = GateSequence(tuple(gates), 1, DIM5)
        assert sequence_matrix(seq) == SymplecticMatrix.identity(1, DIM5)

    def test_d5_k2(self):
        gates = _map_gates(0, 2, 0, 1, 1, DIM5.D, 0)
        assert gates == [Fourier(0), Phase(0, 3), Fourier(0), Phase(0, 2), Fourier(0)]
        seq = GateSequence(tuple(gates), 1, DIM5)
        assert np.array_equal(apply_seq_to_vector(seq, [0, 2]), [0, 1])

    def test_d6_k5(self):
        # mod D = 12, not d
        gates = _map_gates(0, 5, 0, 1, 1, DIM6.D, 0)
        assert gates == [Fourier(0), Phase(0, 5), Fourier(0), Phase(0, 5), Fourier(0)]
        assert act_on_exponents(gates, [0], [5], 12) == ([0], [1])

    def test_non_unit_rejected(self, monkeypatch):
        # a Z column that ends on Z^2 mod 12, which no rescale takes to Z
        monkeypatch.setattr(
            cliffsynth.synthesis, "inverse", lambda m: SimpleNamespace(rows=[[1, 0], [0, 2]])
        )
        with pytest.raises(NonSymplecticError, match="column gcd 2 is not a unit mod 12"):
            _eliminate(SymplecticMatrix.identity(1, DIM6))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_all_units(self, d):
        dim = Dimension.of(d)
        D = dim.D
        for k in range(1, D):
            if gcd0(k, D) != 1:
                continue
            gates = _map_gates(0, k, 0, 1, 1, D, 0)
            assert act_on_exponents(gates, [0], [k], D) == ([0], [1]), k
            assert merge_gates(gates, dim) == gates and len(gates) <= 5


class TestSumPeg:
    """`generalized_peg` of Z^a (x) Z^b: sum gates alone, to I (x) Z^gcd0(a, b)."""

    def test_already_in_slot(self):
        seq = generalized_peg(PauliWord(DIM6, (0, 0), (0, 3)))[0]
        assert len(seq) == 0

    def test_worked_pair(self):
        seq = generalized_peg(PauliWord(DIM12, (0, 0), (4, 6)))[0]
        assert all(isinstance(g, Sum) for g in seq)
        assert np.array_equal(apply_seq_to_vector(seq, [0, 0, 4, 6]), [0, 0, 0, 2])

    def test_fix_up_moves_slot(self):
        seq = generalized_peg(PauliWord(DIM5, (0, 0), (1, 0)))[0]
        assert np.array_equal(apply_seq_to_vector(seq, [0, 0, 1, 0]), [0, 0, 0, 1])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateWordError):
            generalized_peg(PauliWord(DIM5, (0, 0), (0, 0)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_exhaustive_small(self, d):
        dim = Dimension.of(d)
        for a, b in itertools.product(range(d), repeat=2):
            if (a, b) == (0, 0):
                continue
            seq = generalized_peg(PauliWord(dim, (0, 0), (a, b)))[0]
            assert all(isinstance(g, Sum) for g in seq)
            assert np.array_equal(apply_seq_to_vector(seq, [0, 0, a, b]), [0, 0, 0, gcd0(a, b)])


class TestGeneralizedPeg:
    def test_tail_z_is_fixed_point(self):
        dim = Dimension.of(7)
        w = PauliWord(dim, (0, 0), (0, 4))
        seq, k = generalized_peg(w)
        assert len(seq) == 0 and k == 4

    def test_worked_two_qudit(self):
        w = PauliWord(DIM12, (3, 6), (4, 9))
        seq, k = generalized_peg(w)
        assert k == 1
        assert apply_to_word(sequence_matrix(seq), w) == PauliWord(
            DIM12, (0, 0), (0, 1)
        )

    def test_common_factor_two_qudit(self):
        w = PauliWord(DIM6, (2, 0), (0, 4))
        seq, k = generalized_peg(w)
        assert k == 2
        assert apply_to_word(sequence_matrix(seq), w) == PauliWord(DIM6, (0, 0), (0, 2))

    def test_identity_rejected(self):
        with pytest.raises(DegenerateWordError):
            generalized_peg(PauliWord.identity(2, DIM6))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_exhaustive_two_qudits(self, d):
        dim = Dimension.of(d)
        for vec in itertools.product(range(d), repeat=4):
            if not any(vec):
                continue
            w = PauliWord.from_vector(list(vec), dim)
            seq, k = generalized_peg(w)
            assert k == gcd0(gcd0(vec[0], vec[1]), gcd0(vec[2], vec[3]))
            out = apply_to_word(sequence_matrix(seq), w)
            assert out.xexp == (0,) * 2
            assert out.zexp == (0, k)


class TestTransport:
    def test_same_word_is_empty(self):
        w = PauliWord(DIM6, (1, 0), (0, 3))
        seq = transport(w, w)
        assert seq is not None and len(seq) == 0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_x_to_z_always_possible(self, d):
        dim = Dimension.of(d)
        x = PauliWord.x_generator(0, 1, dim)
        z = PauliWord.z_generator(0, 1, dim)
        seq = transport(x, z)
        assert seq is not None
        assert apply_to_word(sequence_matrix(seq), x) == z

    def test_gcd_obstruction_d4(self):
        dim = Dimension.of(4)
        assert transport(PauliWord(dim, (0,), (2,)), PauliWord(dim, (0,), (1,))) is None

    def test_obstruction_confirmed_by_group_sweep(self):
        # enumerate every single-qudit symplectic matrix mod 8 and confirm
        # none maps the vector (0,2) to (0,1) mod 4
        dim = Dimension.of(4)
        D = dim.D
        src = PauliWord(dim, (0,), (2,))
        dst = PauliWord(dim, (0,), (1,))
        for p, q, r, s in itertools.product(range(D), repeat=4):
            if (p * s - q * r) % D != 1:
                continue
            m = SymplecticMatrix(dim, np.array([[p, q], [r, s]]))
            assert apply_to_word(m, src) != dst

    def test_identity_word_rejected(self):
        with pytest.raises(DegenerateWordError):
            transport(PauliWord.identity(1, DIM6), PauliWord.x_generator(0, 1, DIM6))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_multi_qudit_case(self, d):
        dim = Dimension.of(d)
        p = PauliWord(dim, (1, 0), (0, 1))
        q = PauliWord(dim, (0, 1), (1, 1))
        seq = transport(p, q)
        assert seq is not None
        assert apply_to_word(sequence_matrix(seq), p) == q


@st.composite
def word_pairs(draw):
    """Two nonidentity words on n <= 64 qudits, d in {2, 3, 12, 97}; the
    exponents of each are multiples of a divisor of d, so composite d
    gives pairs whose gcds differ."""
    dim = Dimension.of(draw(st.sampled_from((2, 3, 12, 97))))
    d, n = dim.d, draw(st.integers(1, 64))
    exponents = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)

    def word():
        f = draw(st.sampled_from([c for c in range(1, d) if d % c == 0]))
        xs = [f * a % d for a in draw(exponents)]
        zs = [f * b % d for b in draw(exponents)]
        if not any(xs) and not any(zs):
            zs[-1] = f
        return PauliWord(dim, tuple(xs), tuple(zs))

    return word(), word()


class TestTransportProperty:
    @settings(deadline=None)
    @given(word_pairs())
    def test_feasible_exactly_when_gcds_agree_with_d(self, pair):
        p, q = pair
        d = p.dim.d
        gp, gq = math.gcd(*p.xexp, *p.zexp), math.gcd(*q.xexp, *q.zexp)
        prog = transport(p, q)
        assert (prog is None) == (math.gcd(gp, d) != math.gcd(gq, d))
        if prog is not None:
            assert apply_to_word(sequence_matrix(prog), p) == q


class TestTransportUnit:
    """The hub transport's seam, where neither word has a hub: the
    one-qudit map from Z^gp to Z^gq mod d."""

    @pytest.mark.parametrize("d", range(2, 61))
    def test_matches_linear_scan(self, d):
        dim = Dimension.of(d)
        for gp, gq in itertools.product(range(1, d), repeat=2):
            c = math.gcd(gp, d)
            if gp == gq or math.gcd(gq, d) != c:
                continue
            gates = _map_gates(0, gp, 0, gq, c, d, 0)
            assert act_on_exponents(gates, [0], [gp], d) == ([0], [gq]), (gp, gq)
            assert merge_gates(gates, dim) == gates and len(gates) <= 5
            assert all(0 < g.power < d for g in gates if type(g) is Phase)

    def test_large_d(self):
        dim = Dimension.of(10**6)
        p = PauliWord(dim, (2, 0), (4, 6))  # gcd 2
        assert transport(p, PauliWord(dim, (0, 3), (9, 0))) is None  # gcd 3
        q = PauliWord(dim, (0, 14), (6, 0))  # gcd 2
        seq = transport(p, q)
        assert seq is not None
        assert apply_to_word(sequence_matrix(seq), p) == q


def act_on_exponents(gates, xs, zs, modulus):
    """The image of X^xs Z^zs under ``gates``, exponents mod ``modulus``:
    each gate's row operation written out, apart from the library."""
    a, b = list(xs), list(zs)
    for g in gates:
        if type(g) is Fourier:
            a[g.qudit], b[g.qudit] = -b[g.qudit] % modulus, a[g.qudit]
        elif type(g) is Phase:
            b[g.qudit] = (b[g.qudit] + g.power * a[g.qudit]) % modulus
        else:
            a[g.target] = (a[g.target] + g.power * a[g.control]) % modulus
            b[g.control] = (b[g.control] - g.power * b[g.target]) % modulus
    return a, b


def single_qudit_gates(seq, qudit):
    return [g for g in seq if type(g) is not Sum and g.qudit == qudit]


class TestVectorTargetWords:
    """Word programs with and without a unit hub, each checked by
    `act_on_exponents`; transport covers the inverse words."""

    def check(self, d, xs, zs):
        """The peg of the word and transports to and from X^k on qudit 0,
        k the gcd of the exponents."""
        dim = Dimension.of(d)
        n = len(xs)
        w = PauliWord(dim, tuple(xs), tuple(zs))
        seq, k = generalized_peg(w)
        assert k == math.gcd(*xs, *zs)
        assert act_on_exponents(seq, xs, zs, d) == ([0] * n, [0] * (n - 1) + [k])
        x0 = PauliWord(dim, (k,) + (0,) * (n - 1), (0,) * n)
        for p, q in ((w, x0), (x0, w)):
            out = transport(p, q)
            assert act_on_exponents(out, p.xexp, p.zexp, d) == (list(q.xexp), list(q.zexp))
        return seq

    def test_one_qudit_takes_the_vector_map(self):
        for a, b in ((3, 5), (1, 0), (0, 4), (96, 2)):
            seq = self.check(97, [a], [b])
            g = math.gcd(a, b)
            assert list(seq) == (_map_gates(a, b, 0, g, 1, 97, 0) if a else [])

    def test_unit_only_on_the_last_qudit_takes_the_vector_map(self):
        # no hub, since the unit is on the last qudit: (5, 1) mod 24 maps to (0, 1)
        seq = self.check(12, [2, 0, 5], [4, 6, 1])
        assert single_qudit_gates(seq, 2) == _map_gates(5, 1, 0, 1, 1, 24, 2)

    @pytest.mark.parametrize("d", [2, 3, 6, 12, 97, 1024])
    def test_unit_branches_emit_the_vector_map(self, d):
        # qudit 0 is X, so it is the hub, and qudit 1, with a unit entry,
        # takes its inline word to (0, v), v the value it folds: a for a
        # unit a (-a under inverse), else -b. That is `_map_gates`' word
        D = Dimension.of(d).D
        pairs = itertools.product(range(1, D), range(D))
        if D > MAX_TABLE_D:
            rng = random.Random(d)
            pairs = [(rng.randrange(1, D), rng.randrange(D)) for _ in range(800)]
        for a, b in pairs:
            unit_a = math.gcd(a, D) == 1
            if not unit_a and math.gcd(b, D) != 1:
                continue
            v = a if unit_a else D - b
            gates, _ = _peg_gates([1, a], [0, b], D, 1)
            assert single_qudit_gates(gates, 1) == _map_gates(a, b, 0, v, 1, D, 1)
            v = D - a if unit_a else D - b
            inv, _ = _peg_gates([1, a], [0, b], D, 1, inverse=True)
            assert single_qudit_gates(inv, 1) == _map_gates(0, v, a, b, 1, D, 1)

    def test_no_unit_at_composite_d(self):
        # gcd 2: no hub, so the fold ends on the gcd itself
        self.check(12, [2, 4, 0], [6, 8, 10])

    def test_unit_after_non_unit_qudits(self):
        # qudits 0 and 1 share the factor 2 with D = 24; qudit 2 is the hub
        seq = self.check(12, [2, 4, 5, 3, 7], [6, 2, 1, 0, 9])
        assert len(single_qudit_gates(seq, 2)) <= 2
        assert len(single_qudit_gates(seq, 4)) <= 2
        # one sum clears each later qudit, one moves the value to the last
        sums = [(g.control, g.target) for g in seq if type(g) is Sum]
        later = [pair for pair in sums if max(pair) > 2]
        assert later == [(3, 2), (4, 2), (2, 4)]

    def test_hub_leaves_a_unit_gcd(self):
        # the gcd is a unit other than 1, so the last hub sum divides by it
        for d, xs, zs in ((97, [3, 0, 6], [9, 12, 0]), (12, [5, 0, 10], [0, 10, 5])):
            seq = self.check(d, xs, zs)
            assert sum(type(g) is Sum for g in seq) <= len(xs) + 1

    def test_qudit_with_zero_x_gets_no_gate(self):
        seq = self.check(97, [0, 5, 0], [7, 3, 11])
        assert single_qudit_gates(seq, 0) == [] and single_qudit_gates(seq, 2) == []

    def test_only_z_is_a_unit(self):
        seq = self.check(12, [2, 1, 0], [5, 3, 7])
        assert [type(g) for g in single_qudit_gates(seq, 0)] == [Fourier, Phase, Fourier]

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 97])
    def test_unit_target_mod_D(self, d):
        # the elimination's column: entries mod D, the hub leaves exactly 1
        D = Dimension.of(d).D
        for seed in range(20):
            xs, zs = random_word_exponents(6, D, seed)
            xs = (1,) + xs[1:]
            gates, t = _peg_gates(xs, zs, D, 1)
            assert t == 1
            assert act_on_exponents(gates, xs, zs, D) == ([0] * 6, [0] * 5 + [1])
            inv, _ = _peg_gates(xs, zs, D, 1, inverse=True)
            assert act_on_exponents(inv, [0] * 6, [0] * 5 + [1], D) == (list(xs), list(zs))

    @pytest.mark.parametrize("d, bound", [(2, 1.35), (6, 4.6), (97, 3.05), (1024, 6.1)])
    def test_transport_gates_per_qudit_at_n256(self, d, bound):
        # measured 1.27, 4.51, 2.98 and 6.00 at most; the hub transport of
        # the whole words takes 3.10, 6.87, 5.95 and 8.26
        dim, n = Dimension.of(d), 256
        for seed in range(3):
            p = PauliWord(dim, *random_word_exponents(n, d, 2 * seed))
            q = PauliWord(dim, *random_word_exponents(n, d, 2 * seed + 1))
            out = transport(p, q)
            assert act_on_exponents(out, p.xexp, p.zexp, d) == (list(q.xexp), list(q.zexp))
            assert len(out) <= bound * n

    @pytest.mark.parametrize("d", [2, 12, 97])
    @pytest.mark.parametrize("n", [2, 5, 64, 256])
    def test_peg_with_a_non_last_unit_uses_at_most_n_plus_1_sums(self, d, n):
        for seed in range(3):
            xs, zs = random_word_exponents(n, d, seed)
            xs = xs[:n - 2] + (1,) + xs[n - 1:]  # a unit on qudit n - 2
            seq, k = generalized_peg(PauliWord(Dimension.of(d), xs, zs))
            assert act_on_exponents(seq, xs, zs, d) == ([0] * n, [0] * (n - 1) + [k])
            assert sum(type(g) is Sum for g in seq) <= n + 1


def prime_factors(D):
    return [f for f in range(2, D + 1) if D % f == 0 and all(f % p for p in range(2, f))]


@st.composite
def peg_words(draw):
    """(xs, zs, d, target): a nonzero word in [0, D) and a unit target. The
    shapes: any entries; every entry a multiple of one prime factor of D
    (a composite gcd, no hub); and that, but with a unit on the last qudit
    (no hub, the fold ends on the last qudit's unit)."""
    d = draw(st.sampled_from((2, 4, 6, 12, 97, 1024)))
    n = draw(st.sampled_from((1, 2, 3, 16)))
    D = Dimension.of(d).D
    shape = draw(st.sampled_from(("any", "shared factor", "unit on the last qudit only")))
    f = 1 if shape == "any" else draw(st.sampled_from(prime_factors(D)))
    entries = draw(st.lists(st.integers(0, D - 1), min_size=2 * n, max_size=2 * n))
    xs, zs = [v * f % D for v in entries[:n]], [v * f % D for v in entries[n:]]
    unit = st.integers(1, D - 1).filter(lambda v: math.gcd(v, D) == 1)
    if shape == "unit on the last qudit only":
        (xs if draw(st.booleans()) else zs)[-1] = draw(unit)
    if not any(xs + zs):
        xs[-1] = 1
    return xs, zs, d, draw(unit)


def transport_reference(p, q):
    """The hub transport's program as its raw pieces concatenated and
    merged once, and the raw length: p's peg gates, the one-qudit map
    from Z^vp to Z^vq mod d when the two halves end on different values,
    q's inverse peg gates."""
    d, D = p.dim.d, p.dim.D
    gates, vp = _peg_gates(p.xexp, p.zexp, D, math.gcd(*q.xexp, *q.zexp))
    inv, vq = _peg_gates(q.xexp, q.zexp, D, vp, inverse=True)
    seam = _map_gates(0, vp, 0, vq, math.gcd(vp, d), d, p.n - 1) if vp != vq else []
    raw = gates + seam + inv
    return merge_gates(raw, p.dim), len(raw)


class TestReducedPieces:
    """Every piece of a word program is emitted as a reduced word, so
    programs are assembled with no merge pass over their gates."""

    @settings(deadline=None, max_examples=300)
    @given(peg_words())
    def test_peg_gates_are_reduced(self, word):
        xs, zs, d, target = word
        dim = Dimension.of(d)
        D, n = dim.D, len(xs)
        gates, t = _peg_gates(xs, zs, D, target)
        assert merge_gates(gates, dim) == gates
        assert act_on_exponents(gates, xs, zs, D) == ([0] * n, [0] * (n - 1) + [t])
        inv, t_inv = _peg_gates(xs, zs, D, target, inverse=True)
        assert t_inv == t
        assert merge_gates(inv, dim) == inv
        assert act_on_exponents(inv, [0] * n, [0] * (n - 1) + [t], D) == (xs, zs)

    @settings(deadline=None, max_examples=100)
    @given(peg_words(), st.integers(0, 2**16))
    def test_library_sequences_are_checked_sequences(self, word, seed):
        # transport, generalized_peg, decompose and inverse skip the
        # gate-by-gate check; each must equal the checked sequence
        xs, zs, d, _ = word
        dim, n = Dimension.of(d), len(xs)
        p = PauliWord(dim, tuple(v % d for v in xs), tuple(v % d for v in zs))
        q = PauliWord(dim, *random_word_exponents(n, d, seed))
        seqs = []
        if n <= 3:
            seqs.append(decompose(sequence_matrix(random_gate_sequence(n, dim, 8 * n, seed))))
        if not p.is_identity:
            seqs.append(generalized_peg(p)[0])
            if not q.is_identity and transport(p, q) is not None:
                seqs.append(transport(p, q))
        for seq in seqs + [seq.inverse() for seq in seqs]:
            assert type(seq.gates) is tuple and type(seq.n) is int
            assert seq == GateSequence(seq.gates, seq.n, seq.dim)


class TestSeamCascades:
    """The hub transport (`_hub_gates`), which `transport` runs on the
    qudits a one-qudit map cannot serve and on whole words when no anchor
    fits, merges only where its pieces meet; the result is the merged
    concatenation, however far the cancellation runs."""

    def check(self, p, q):
        out = _hub_gates(p, q, range(p.n))
        merged, raw = transport_reference(p, q)
        assert out == merged
        assert act_on_exponents(out, p.xexp, p.zexp, p.dim.d) == (list(q.xexp), list(q.zexp))
        return raw - len(merged)

    @pytest.mark.parametrize("d", [2, 6, 12, 97])
    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_words_that_differ_on_one_qudit(self, d, n):
        # Z-only words take no single-qudit gates, and a qudit's value is
        # its z on both halves; so every hub sum past the changed qudit i
        # meets its own inverse across the seam, and the cascade runs
        # until it reaches i. Random words with one entry changed cover
        # the halves whose values differ in sign.
        dim = Dimension.of(d)
        cancelled = []
        for seed in range(12):
            xs, zs = random_word_exponents(n, d, seed)
            i = seed % n
            for p in (PauliWord(dim, (0,) * n, zs), PauliWord(dim, xs, zs)):
                x = p.xexp[:i] + ((p.xexp[i] + 1) % d,) + p.xexp[i + 1 :]
                q = PauliWord(dim, x, p.zexp)
                if not (p.is_identity or q.is_identity or transport(p, q) is None):
                    cancelled.append(self.check(p, q))
        assert max(cancelled) >= {2: 3, 3: 5, 5: 7, 16: 20}[n]

    @pytest.mark.parametrize("d", [5, 6, 9, 12])
    def test_every_one_qudit_pair(self, d):
        # one qudit has no hub: a pair whose gcds differ by a unit other
        # than 1 takes the one-qudit map from one gcd to the other
        # between its halves
        dim = Dimension.of(d)
        words = [PauliWord(dim, (a,), (b,)) for a in range(d) for b in range(d) if a or b]
        scaled = far = 0
        for p in words:
            for q in words:
                if p == q or transport(p, q) is None:
                    continue
                cancelled = self.check(p, q)
                gp, gq = math.gcd(*p.xexp, *p.zexp), math.gcd(*q.xexp, *q.zexp)
                scaled += gp % d != gq % d
                far += cancelled >= 3
        assert scaled and far


def vector_distances(v, d):
    """The length of a shortest F / P^e word from v to each vector mod d,
    by breadth-first search over Z_d^2: F (x, z) -> (-z, x) and P^e
    (x, z) -> (x, z + e x)."""
    dist = {v: 0}
    frontier = [v]
    while frontier:
        found = []
        for x, z in frontier:
            for w in [(-z % d, x)] + [(x, (z + e * x) % d) for e in range(1, d)]:
                if w not in dist:
                    dist[w] = dist[(x, z)] + 1
                    found.append(w)
        frontier = found
    return dist


# (pairs, gates) by which the one-qudit maps exceed a shortest word, at the
# d <= 16 where they do; no map is more than two gates longer
LONGER_MAPS = {10: (8, 8), 12: (64, 80), 14: (24, 24), 15: (720, 864)}


def content_vector(rng, d, c):
    """A random exponent vector of content gcd(x, z, d) = c."""
    while True:
        v = (c * rng.randrange(d // c) % d, c * rng.randrange(d // c) % d)
        if math.gcd(*v, d) == c:
            return v


class TestVectorMaps:
    """`_map_gates`: the one-qudit map of a matched qudit."""

    def check(self, v, w, d):
        c = math.gcd(*v, d)
        gates = _map_gates(*v, *w, c, d, 0)
        assert act_on_exponents(gates, [v[0]], [v[1]], d) == ([w[0]], [w[1]])
        assert merge_gates(gates, Dimension.of(d)) == gates
        assert all(type(g) is Fourier or 0 < g.power < d for g in gates)
        return gates

    @pytest.mark.parametrize("d", range(2, 17))
    def test_every_content_matched_pair(self, d):
        vectors = [(x, z) for x in range(d) for z in range(d) if x or z]
        longer = extra = 0
        for v in vectors:
            dist = vector_distances(v, d)
            for w in vectors:
                if w != v and math.gcd(*w, d) == math.gcd(*v, d):
                    excess = len(self.check(v, w, d)) - dist[w]
                    assert 0 <= excess <= 2
                    longer += excess > 0
                    extra += excess
        pairs, gates = LONGER_MAPS.get(d, (0, 0))
        assert longer <= pairs and extra <= gates

    @pytest.mark.parametrize("d", [25, 97, 210, 1024])
    def test_sampled_pairs(self, d):
        rng = random.Random(d)
        contents = [c for c in range(1, d) if d % c == 0]
        lengths = []
        for _ in range(3000):
            c = rng.choice(contents)
            v, w = content_vector(rng, d, c), content_vector(rng, d, c)
            if v != w:
                lengths.append(len(self.check(v, w, d)))
        assert max(lengths) <= 7

    def test_prime_d_unit_pairs_take_the_core(self):
        # both X exponents units: P^s F P^t with s x = -x' - z, t x' = z' - x
        gates = _map_gates(5, 11, 30, 2, 1, 97, 3)
        s, t = (-30 - 11) * pow(5, -1, 97) % 97, (2 - 5) * pow(30, -1, 97) % 97
        assert gates == [Phase(3, s), Fourier(3), Phase(3, t)]

    def test_no_entry_shares_the_content(self):
        # (2, 5) at d = 10: neither entry is a unit, so P^u comes first
        for w in ((5, 2), (3, 4), (1, 0)):
            self.check((2, 5), w, 10)
            self.check(w, (2, 5), 10)


@st.composite
def mixed_word_pairs(draw):
    """Two words on n <= 12 qudits, d in {2, 4, 6, 12, 97, 1024}. Each
    qudit of each word is a multiple of its own divisor of d (or zero),
    so contents mix; q's qudit is p's, or p's under P^e F (same content),
    or drawn apart. Both words may share one factor throughout."""
    dim = Dimension.of(draw(st.sampled_from((2, 4, 6, 12, 97, 1024))))
    d = dim.d
    n = draw(st.integers(1, 12))
    factors = [c for c in range(1, d + 1) if d % c == 0]
    shared = draw(st.sampled_from(factors[:-1]))
    entry = st.integers(0, d - 1)

    def vector():
        f = draw(st.sampled_from(factors))
        return f * draw(entry) * shared % d, f * draw(entry) * shared % d

    ps, qs = [], []
    for _ in range(n):
        x, z = vector()
        kind = draw(st.sampled_from(("same", "mapped", "apart")))
        e = draw(entry)
        ps.append((x, z))
        qs.append((x, z) if kind == "same" else (-(z + e * x) % d, x) if kind == "mapped" else vector())
    for vs in (ps, qs):
        if not any(x or z for x, z in vs):
            vs[-1] = (0, shared)
    p = PauliWord(dim, tuple(x for x, _ in ps), tuple(z for _, z in ps))
    q = PauliWord(dim, tuple(x for x, _ in qs), tuple(z for _, z in qs))
    return p, q


def needs_agreeing_anchor(p, q):
    """True iff `transport` cannot serve the hub qudits R, where p and q
    differ and no one-qudit map fits, by themselves or with a qudit where
    p and q differ as anchor."""
    d = p.dim.d

    def content(w, i):
        return math.gcd(w.xexp[i], w.zexp[i], d)

    differ = [i for i in range(p.n) if (p.xexp[i], p.zexp[i]) != (q.xexp[i], q.zexp[i])]
    matched = [i for i in differ if content(p, i) == content(q, i) != d]
    rest = [i for i in differ if i not in matched]
    if not rest:
        return False
    cp = math.gcd(d, *(content(p, i) for i in rest))
    cq = math.gcd(d, *(content(q, i) for i in rest))
    if cp == cq != d:
        return False
    return not any(math.gcd(cp, content(p, i)) == math.gcd(cq, content(p, i)) for i in matched)


class TestLocalTransport:
    """`transport` local first: one-qudit maps on matched qudits, the hub
    transport on the rest."""

    @settings(deadline=None, max_examples=300)
    @given(mixed_word_pairs())
    def test_maps_p_to_q(self, pair):
        p, q = pair
        d = p.dim.d
        out = transport(p, q)
        gp, gq = math.gcd(*p.xexp, *p.zexp), math.gcd(*q.xexp, *q.zexp)
        assert (out is None) == (math.gcd(gp, d) != math.gcd(gq, d))
        if out is None:
            return
        assert apply_to_word(sequence_matrix(out), p) == q
        assert merge_gates(out.gates, p.dim) == list(out.gates)
        touched = {i for g in out for i in (g[:2] if type(g) is Sum else g[:1])}
        agree = {i for i in range(p.n) if (p.xexp[i], p.zexp[i]) == (q.xexp[i], q.zexp[i])}
        if not needs_agreeing_anchor(p, q):
            assert not touched & agree
        if d**p.n <= 256:
            assert _maps_words(out, [(p, q)])

    def test_anchor(self):
        # X (x) I -> X (x) X: qudit 1 needs content, so qudit 0 anchors it
        dim = Dimension.of(97)
        p, q = PauliWord(dim, (1, 0), (0, 0)), PauliWord(dim, (1, 1), (0, 0))
        out = transport(p, q)
        assert apply_to_word(sequence_matrix(out), p) == q
        assert {g[0] for g in out} == {0, 1}

    def test_no_anchor_falls_back_to_the_hub_transport(self):
        # d = 6: the matched qudits have contents 2 and 3, and qudit 2 needs
        # content 1 from nothing; no one of them can anchor it
        dim = Dimension.of(6)
        p = PauliWord(dim, (2, 3, 0), (0, 0, 0))
        q = PauliWord(dim, (4, 0, 1), (0, 3, 0))
        out = transport(p, q)
        assert list(out.gates) == _hub_gates(p, q, range(3))
        assert apply_to_word(sequence_matrix(out), p) == q

    def test_no_matched_qudit_keeps_the_hub_transport(self):
        # the contents differ on both qudits: the whole words take the hub
        p, q = parse_word("d=6 n=2 a=1,0 b=0,3"), parse_word("d=6 n=2 a=0,2 b=3,1")
        out = transport(p, q)
        assert list(out.gates) == _hub_gates(p, q, range(2)) and len(out) == 7


class TestDecompose:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_is_empty(self, n):
        assert len(decompose(SymplecticMatrix.identity(n, DIM6))) == 0

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_sum_gate_recomposes(self, d):
        dim = Dimension.of(d)
        m = SymplecticMatrix(dim, gate_matrix(Sum(0, 1, 1), 2, dim))
        assert sequence_matrix(decompose(m)) == m

    def test_swap_matrix_recomposes(self):
        dim = Dimension.of(3)
        m = SymplecticMatrix(dim, SWAP_MATRIX)
        assert sequence_matrix(decompose(m)) == m

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_round_trips(self, n, d):
        dim = Dimension.of(d)
        budget = n * n * (8 * ceil_log2(dim.D) + 64)
        for trial in range(20):
            m = sequence_matrix(random_gate_sequence(n, dim, 25, 91 * n + 7 * d + trial))
            seq = decompose(m)
            assert sequence_matrix(seq) == m
            assert len(seq) <= budget

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_exhaustive_single_qudit_elimination(self, d):
        # the j = 0 step alone reduces every 2x2 symplectic matrix
        dim = Dimension.of(d)
        D = dim.D
        for p, q, r, s in itertools.product(range(D), repeat=4):
            if (p * s - q * r) % D != 1:
                continue
            m = SymplecticMatrix(dim, np.array([[p, q], [r, s]]))
            assert sequence_matrix(GateSequence(tuple(_eliminate(m)), 1, dim)) == m
            assert sequence_matrix(decompose(m)) == m

    @settings(deadline=None)
    @given(gate_lists(dims=(2, 3, 12, 97, 10**6), max_n=12, max_size=200))
    def test_round_trip_property(self, case):
        gates, n, dim = case
        m = sequence_matrix(GateSequence(tuple(gates), n, dim))
        assert sequence_matrix(decompose(m)) == m


class TestDecomposeLargeSizes:
    @pytest.mark.parametrize("d", [2, 97])
    def test_round_trip_n32(self, d):
        m = sequence_matrix(random_gate_sequence(32, Dimension.of(d), 1280, 1))
        seq = decompose(m)
        assert sequence_matrix(seq) == m
        assert len(seq) <= len(merge_gates(_eliminate(m), m.dim))
        assert len(seq) <= {2: 2053, 97: 2310}[d]

    @settings(deadline=None, max_examples=5)
    @given(
        st.sampled_from((2, 12, 97)),
        st.integers(13, 64),
        st.integers(1, 20),
        st.integers(0, 2**32),
    )
    def test_round_trip_property(self, d, n, per_qudit, seed):
        m = sequence_matrix(random_gate_sequence(n, Dimension.of(d), per_qudit * n, seed))
        assert sequence_matrix(decompose(m)) == m

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_largest_dimension(self, seed):
        m = sequence_matrix(random_gate_sequence(4, Dimension.of(1_000_000), 80, seed))
        assert sequence_matrix(decompose(m)) == m


def column_form(xs, zs, D):
    """The case the Z_j column step takes on exponents ``xs``, ``zs`` mod D
    (j the last qudit), stated apart from the code: {"count"}, {"shape"}
    or {"unit"} where it falls back to the word normal form, else the
    qudit shapes ("P" for P^s, "F P" for F P^s, "X" for no gate) with the
    hub: "hub j" (v_j = 1), "hub" (h != j) or "scale" (j the only unit)."""
    pairs = list(zip(xs, zs))
    zf = sum(a == 0 != b for a, b in pairs)
    xf = sum(a != 0 == b for a, b in pairs)
    mixed = sum(a != 0 != b for a, b in pairs)
    if zf + 1 >= mixed + xf:
        return {"count"}
    labels, vs = set(), []
    for a, b in pairs:
        if b % math.gcd(a, D) == 0:
            labels.add("P" if b else "X")
            vs.append(a)
        elif a % math.gcd(b, D) == 0:
            labels.add("F P")
            vs.append(-b % D)
        else:
            return {"shape"}
    units = [i for i, v in enumerate(vs) if math.gcd(v, D) == 1]
    if not units:
        return {"unit"}
    j = len(vs) - 1
    return labels | {"hub j" if vs[j] == 1 else "scale" if units == [j] else "hub"}


def column_after(xs, zs, D, gates):
    """Column n + j of packed rows, the identity with that column set to
    ``xs``, ``zs`` (n = j + 1), after ``gates``."""
    n = len(xs)
    rows = [[int(r == c) for c in range(2 * n)] for r in range(2 * n)]
    for r, v in enumerate([*xs, *zs]):
        rows[r][2 * n - 1] = v
    packed = _PackedRows(2 * n, D)
    work = [packed.pack(row) for row in rows]
    packed.act(work, gates, n)
    return [packed.entry(row, 2 * n - 1) for row in work]


def checked_x_hub(seen):
    """A patch of `_x_hub_gates` that checks each call against `column_form`
    and, on packed rows, that its gates leave k e_(n+j) with k a unit, 1
    unless j holds the only unit; the cases met go into ``seen``."""
    step = cliffsynth.synthesis._x_hub_gates

    def check(xs, zs, D):
        form, gates = column_form(xs, zs, D), step(xs, zs, D)
        seen.update(form)
        assert (gates is None) == bool(form & {"count", "shape", "unit"})
        if gates is not None:
            *rest, k = column_after(xs, zs, D, gates)
            assert rest == [0] * len(rest) and math.gcd(k, D) == 1
            assert (k != 1) == ("scale" in form)
        return gates

    return mock.patch.object(cliffsynth.synthesis, "_x_hub_gates", check)


def with_column(xs, zs, dim, seed):
    """A seeded symplectic matrix S with column n + j equal to ``xs``,
    ``zs`` (n = j + 1): random gates that fix Z_j, then the inverse word
    normal form of the column, which maps Z_j to it."""
    n, j, D = len(xs), len(xs) - 1, dim.D
    rng = random.Random(seed)
    fixing = []  # gates that fix Z_j: P_j, Sum(j, i) and any gate below j
    for _ in range(10 * n):
        i, e = rng.randrange(n), rng.randrange(1, D)
        if i < j and rng.random() < 0.5:
            fixing.append(Sum(j, i, e))
        elif i < j - 1:
            fixing.append(rng.choice([Fourier(i), Phase(i, e), Sum(i, j - 1, e)]))
        else:
            fixing.append(Phase(i, e))
    gates, t = _peg_gates(xs, zs, D, 1, inverse=True)
    assert t == 1
    s = sequence_matrix(GateSequence(tuple(fixing + gates), n, dim))
    assert [row[2 * n - 1] for row in s.rows] == [*xs, *zs]
    return s


# (d, xs, zs, the column step's gates or None, a case of `column_form`);
# D = 12, 8, 24 and 2048 for d = 6, 4, 12 and 1024
PURE_X_CASES = [
    # (1, 5) takes P^7 to v = 1, (2, 1) F P^2 to v = -1, (1, 0) no gate; j = 3 is
    # empty, so hub 0 moves X onto j with Sum(0, 3, 1) and leaves it by Sum(3, 0, -1)
    (6, (1, 2, 1, 0), (5, 1, 0, 0),
     [Phase(0, 7), Fourier(1), Phase(1, 2), Sum(0, 1, 1), Sum(0, 2, 11), Sum(0, 3, 1),
      Sum(3, 0, 11), Fourier(3)], {"P", "F P", "X", "hub"}),
    # (2, 3) mod 12 fits neither shape
    (6, (2, 1, 1), (3, 0, 0), None, {"shape"}),
    # v = (1, 3, 1): the hub is j, with v_j = 1
    (4, (1, 3, 1), (0, 0, 0), [Sum(2, 0, 7), Sum(2, 1, 5), Fourier(2)], {"hub j"}),
    # v = (3, 1, 5): the hub is qudit 0, 3^-1 = 3 mod 8
    (4, (3, 1, 5), (0, 0, 0), [Sum(0, 1, 5), Sum(0, 2, 4), Sum(2, 0, 5), Fourier(2)], {"hub"}),
    # v = (2, 3, 5) mod 24: j holds the only unit, 5^-1 = 5; the step ends on Z^5
    (12, (2, 3, 5), (0, 0, 0), [Sum(2, 0, 14), Sum(2, 1, 9), Fourier(2)], {"scale"}),
    # zf = 1, xf = 3: 2 < 3 takes the form; (0, 1) takes F alone, to v = -1
    (1024, (0, 1, 1, 1), (1, 0, 0, 0),
     [Fourier(0), Sum(3, 0, 1), Sum(3, 1, 2047), Sum(3, 2, 2047), Fourier(3)], {"hub j"}),
    # zf = 1, xf = 2 and zf = 2, mixed = xf = 1: the count rule falls back
    (1024, (0, 1, 1), (1, 0, 0), None, {"count"}),
    (6, (0, 0, 1, 1), (1, 1, 0, 1), None, {"count"}),
    # v = (2, 3, 4) mod 12 holds no unit
    (6, (2, 3, 4), (0, 0, 0), None, {"unit"}),
]


class TestPureXHub:
    @pytest.mark.parametrize("d, xs, zs, step, case", PURE_X_CASES)
    def test_column_cases(self, d, xs, zs, step, case):
        D = Dimension.of(d).D
        assert case <= column_form(xs, zs, D)
        assert _x_hub_gates(xs, zs, D) == step

    @pytest.mark.parametrize("d, xs, zs, step, case", [c for c in PURE_X_CASES if c[3]])
    def test_step_alone_leaves_the_unit_column(self, d, xs, zs, step, case):
        # the scale case ends on Z^(v_j), and the one-qudit map takes it to Z_j
        D = Dimension.of(d).D
        gates = _x_hub_gates(xs, zs, D)
        k = xs[-1] if case == {"scale"} else 1
        unit = [0] * (2 * len(xs) - 1) + [1]
        assert column_after(xs, zs, D, gates) == [k * u for u in unit]
        rescale = _map_gates(0, k, 0, 1, 1, D, len(xs) - 1)
        assert column_after(xs, zs, D, gates + rescale) == unit

    @pytest.mark.parametrize("d, xs, zs, step, case", PURE_X_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_elimination_takes_the_step(self, d, xs, zs, step, case, seed):
        dim = Dimension.of(d)
        m = inverse(with_column(xs, zs, dim, seed))  # `_eliminate` reduces inverse(m)
        gates = _eliminate(m)
        first = _peg_gates(xs, zs, dim.D, 1)[0] if step is None else step
        assert gates[: len(first)] == first
        assert sequence_matrix(GateSequence(tuple(gates), len(xs), dim)) == m
        assert sequence_matrix(decompose(m)) == m

    @pytest.mark.parametrize(
        "gates, step",
        [
            # X_1 column (2, 4) on qudit 0 mod 12: P^4, then one sum
            ([Sum(1, 0, 2), Phase(0, 2)], [Phase(0, 4), Sum(1, 0, 10)]),
            # (2, 3): gcd(2, 12) does not divide 3, so Sum, F, Sum as before
            ([Sum(1, 0, 1), Phase(0, 10), Fourier(0), Phase(0, 1)],
             [Sum(1, 0, 10), Fourier(0), Sum(1, 0, 3)]),
        ],
    )
    def test_x_column_phase_first(self, gates, step):
        # column 3 is e_3, so the Z_1 step emits nothing and the X_1 step comes first
        s = sequence_matrix(GateSequence(tuple(gates), 2, DIM6))
        assert [row[3] for row in s.rows] == [0, 0, 0, 1]
        m = inverse(s)
        eliminated = _eliminate(m)
        assert eliminated[: len(step)] == step
        assert sequence_matrix(GateSequence(tuple(eliminated), 2, DIM6)) == m
        assert sequence_matrix(decompose(m)) == m

    def test_seeded_columns_reach_every_case(self):
        seen = set()
        with checked_x_hub(seen):
            for d in (4, 6, 12, 1024):
                for n in range(2, 9):
                    for seed in range(3):
                        m = sequence_matrix(random_gate_sequence(n, Dimension.of(d), 20 * n, seed))
                        assert sequence_matrix(decompose(m)) == m
        assert seen == {"count", "shape", "unit", "P", "F P", "X", "hub j", "hub", "scale"}

    @settings(deadline=None, max_examples=50)
    @given(gate_lists(dims=(4, 6, 12, 1024), max_n=8, max_size=120))
    def test_every_column_step_property(self, case):
        gates, n, dim = case
        m = sequence_matrix(GateSequence(tuple(gates), n, dim))
        with checked_x_hub(set()):
            assert sequence_matrix(decompose(m)) == m


def sp4_z3_depths():
    """The length of a shortest F, P^e and C^e program for every element
    of Sp(4, Z_3), by breadth-first search from the identity.

    A matrix is one int: row r in bits 16r to 16r + 15, its entry c in the
    4-bit field 4c of the row. ``red`` reduces each field of a row mod 3,
    so a row operation is one add and one lookup; a tuple-of-tuples search
    is ten times slower."""
    red = [sum((v >> 4 * c & 15) % 3 << 4 * c for c in range(4)) for v in range(1 << 16)]
    identity = sum(1 << 20 * r for r in range(4))
    depth = {identity: 0}
    frontier, level = [identity], 0
    while frontier:
        level += 1
        found = []
        for key in frontier:
            r = [key >> s & 0xFFFF for s in (0, 16, 32, 48)]
            images = []
            for i in (0, 1):  # F_i and P_i^e on rows X_i = r[i], Z_i = r[2 + i]
                x, z = r[i], r[2 + i]
                images.append(key + (red[0x3333 - z] - x << 16 * i) + (x - z << 16 * (2 + i)))
                images += [key + (red[z + e * x] - z << 16 * (2 + i)) for e in (1, 2)]
            for c, t in ((0, 1), (1, 0)):  # C_(c,t)^e: X_t += e X_c, Z_c -= e Z_t
                for e in (1, 2):
                    x, z = red[r[t] + e * r[c]], red[r[2 + c] + (3 - e) * r[2 + t]]
                    images.append(key + (x - r[t] << 16 * t) + (z - r[2 + c] << 16 * (2 + c)))
            for k in images:
                if k not in depth:
                    depth[k] = level
                    found.append(k)
        frontier = found
    return depth


class TestOptimalYardstick:
    def test_two_qudit_programs_against_shortest(self):
        # decompose at n = 2, d = 3 against shortest programs: 1.25x over
        # this sample, 1.39x without the pure-X hub and phase-first clearing
        depth = sp4_z3_depths()
        assert len(depth) == 51_840 and max(depth.values()) == 9
        dim = Dimension.of(3)
        shortest = total = 0
        for key in random.Random(1).sample(list(depth), 2000):
            rows = [[key >> 16 * r + 4 * c & 15 for c in range(4)] for r in range(4)]
            length = len(decompose(SymplecticMatrix(dim, rows)))
            assert length >= depth[key]
            shortest += depth[key]
            total += length
        assert total <= 1.30 * shortest


# A child interpreter under -O (asserts stripped) drops the last gate of
# every merge by the kernel and reports which error, if any, decompose raised.
CORRUPTED_DECOMPOSE = """
import cliffsynth.synthesis as syn
from cliffsynth import CliffSynthError, Dimension, GateSequence, sequence_matrix
merge = syn._merge_onto
syn._merge_onto = lambda *a, **k: merge(*a, **k)[:-1]
seq = GateSequence.from_text({text!r}, 3, Dimension.of(5))
try:
    syn.decompose(sequence_matrix(seq))
except CliffSynthError as exc:
    print(type(exc).__name__)
"""


# The same, with every run the shortening pass emits one gate short. The
# pass is patched at `_shorter_run`, which only it calls: the table words
# also serve the word normal form of the elimination.
CORRUPTED_RUNS = """
import cliffsynth.synthesis as syn
from cliffsynth import CliffSynthError, Dimension, GateSequence, sequence_matrix
shorter_run = syn._shorter_run
syn._shorter_run = lambda *args: shorter_run(*args)[:-1]
seq = GateSequence.from_text({text!r}, 3, Dimension.of(5))
try:
    syn.decompose(sequence_matrix(seq))
except CliffSynthError as exc:
    print(type(exc).__name__)
"""


@st.composite
def near_unit_rows(draw):
    """(D, n, j, rows): the 2n x 2n identity over Z_D with up to six
    entries overwritten, and a qudit j."""
    D = Dimension.of(draw(st.sampled_from((2, 3, 12, 97, 10**6)))).D
    n = draw(st.integers(1, 4))
    rows = [[int(r == c) for c in range(2 * n)] for r in range(2 * n)]
    for _ in range(draw(st.integers(0, 6))):
        r, c = draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))
        rows[r][c] = draw(st.integers(0, D - 1))
    return D, n, draw(st.integers(0, n - 1)), rows


def _passes(*checks):
    """True iff none of the `_require_unit` calls (args tuples) raises."""
    try:
        for args in checks:
            _require_unit(*args)
    except SynthesisCheckError:
        return False
    return True


class TestDecomposeChecks:
    def _matrix(self):
        return sequence_matrix(random_gate_sequence(3, DIM5, 30, 4))

    @given(near_unit_rows())
    def test_packed_checks_agree_with_entry_checks(self, case):
        D, n, j, rows = case
        z = n + j
        packed = _PackedRows(2 * n, D)
        work = [packed.pack(row) for row in rows]
        cols = list(zip(*rows))
        end = ((cols[j], j, j, "column"), (rows[z], z, j, "row"), (rows[j], j, j, "row"))
        assert _is_unit(packed, work, j, (z, j)) == _passes(*end)
        assert _is_unit(packed, work, z) == _passes((cols[z], z, j, "column"))

    def test_column_check_catches_stray_entry_in_another_row(self, monkeypatch):
        # the kernel drops the last gate of each list: the sum that clears
        # x_0 from column 1 is recorded but never applied
        class DropLast(_PackedRows):
            def act(self, work, gates, n):
                super().act(work, list(gates)[:-1], n)

        bad = np.eye(4, dtype=np.int64)
        bad[0, 1] = 2
        monkeypatch.setattr(cliffsynth.synthesis, "_PackedRows", DropLast)
        monkeypatch.setattr(
            cliffsynth.synthesis, "inverse", lambda m: SimpleNamespace(rows=bad.tolist())
        )
        with pytest.raises(SynthesisCheckError, match=r"^qudit 1: column 1 .*: \[2, 1, 0, 0\]$"):
            decompose(SymplecticMatrix.identity(2, DIM5))

    def test_final_check_names_first_differing_entry(self, monkeypatch):
        m = self._matrix()
        short = GateSequence(decompose(m).gates[:-1], 3, DIM5)
        got, want = sequence_matrix(short).rows, m.rows
        r, c = next((r, c) for r in range(6) for c in range(6) if got[r][c] != want[r][c])
        merge = cliffsynth.synthesis._merge_onto
        monkeypatch.setattr(
            cliffsynth.synthesis, "_merge_onto", lambda *a, **k: merge(*a, **k)[:-1]
        )
        expected = (
            f"the {len(short)}-gate program does not recompose the input (n=3, d=5): "
            f"entry ({r}, {c}) is {got[r][c]}, not {want[r][c]}"
        )
        with pytest.raises(SynthesisCheckError) as info:
            decompose(m)
        assert str(info.value) == expected

    def test_final_check_catches_dropped_gate(self, monkeypatch):
        merge = cliffsynth.synthesis._merge_onto
        monkeypatch.setattr(
            cliffsynth.synthesis, "_merge_onto", lambda *a, **k: merge(*a, **k)[:-1]
        )
        with pytest.raises(SynthesisCheckError, match="does not recompose"):
            decompose(self._matrix())

    def test_final_check_survives_optimize_flag(self):
        text = random_gate_sequence(3, DIM5, 30, 4).to_text()
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPTED_DECOMPOSE.format(text=text)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "SynthesisCheckError"

    def test_final_check_covers_shortening_pass(self, monkeypatch):
        shorter_run = cliffsynth.synthesis._shorter_run
        monkeypatch.setattr(
            cliffsynth.synthesis, "_shorter_run", lambda *args: shorter_run(*args)[:-1]
        )
        with pytest.raises(SynthesisCheckError, match="does not recompose"):
            decompose(self._matrix())

    def test_final_check_covers_shortening_pass_under_optimize_flag(self):
        text = random_gate_sequence(3, DIM5, 30, 4).to_text()
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPTED_RUNS.format(text=text)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "SynthesisCheckError"

    def test_row_check_names_qudit_and_row(self, monkeypatch):
        # columns 5 and 2 of this "inverse" are already unit vectors, row 5
        # is not; no symplectic matrix looks like this
        bad = np.eye(6, dtype=np.int64)
        bad[5, 0] = 1
        monkeypatch.setattr(
            cliffsynth.synthesis, "inverse", lambda m: SimpleNamespace(rows=bad.tolist())
        )
        with pytest.raises(SynthesisCheckError, match=r"^qudit 2: row 5 "):
            decompose(self._matrix())

    def test_non_unit_column_gcd_rejected(self, monkeypatch):
        bad = np.eye(4, dtype=np.int64)
        bad[3, 3] = 2
        monkeypatch.setattr(
            cliffsynth.synthesis, "inverse", lambda m: SimpleNamespace(rows=bad.tolist())
        )
        with pytest.raises(NonSymplecticError, match="column gcd 2 is not a unit mod 12"):
            decompose(SymplecticMatrix.identity(2, DIM6))

    def test_column_check_names_qudit_and_column(self, monkeypatch):
        # diag(1, 3^-1, 1, 3) needs the rescaling step on qudit 1, the
        # only one-qudit map of its elimination
        monkeypatch.setattr(cliffsynth.synthesis, "_map_gates", lambda *args: [])
        m = SymplecticMatrix(DIM5, np.diag([1, 2, 1, 3]))
        with pytest.raises(SynthesisCheckError, match=r"^qudit 1: column 3 "):
            decompose(m)


class TestSwapSequence:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_matrix_matches(self, d):
        dim = Dimension.of(d)
        seq = swap_sequence(0, 1, 2, dim)
        assert len(seq) == 9
        assert np.array_equal(sequence_matrix(seq).mat, SWAP_MATRIX)

    def test_twice_is_identity(self):
        dim = Dimension.of(5)
        seq = swap_sequence(0, 1, 2, dim)
        assert sequence_matrix(seq + seq) == SymplecticMatrix.identity(2, dim)

    def test_embedded_pair_in_three_qudits(self):
        dim = Dimension.of(3)
        seq = swap_sequence(0, 2, 3, dim)
        m = sequence_matrix(seq).mat
        w = PauliWord(dim, (1, 2, 0), (0, 1, 2))
        out = apply_to_word(SymplecticMatrix(dim, m), w)
        assert out == PauliWord(dim, (0, 2, 1), (2, 1, 0))

    def test_qubit_only_identity(self):
        # R C R sandwich equals the reversed sum gate mod 2, and only mod 2
        for d, expect in ((2, True), (3, False)):
            dim = Dimension.of(d)
            rr = GateSequence((Fourier(0), Fourier(1)), 2, dim)
            sandwich = (
                sequence_matrix(rr).mat
                @ gate_matrix(Sum(0, 1, 1), 2, dim)
                @ sequence_matrix(rr).mat
                % dim.D
            )
            reversed_sum = gate_matrix(Sum(1, 0, 1), 2, dim)
            modulus = 2 if d == 2 else dim.D
            assert np.array_equal(sandwich % modulus, reversed_sum % modulus) == expect

    def test_bad_indices_rejected(self):
        with pytest.raises(Exception):
            swap_sequence(0, 0, 2, DIM6)
        with pytest.raises(Exception):
            swap_sequence(0, 2, 2, DIM6)


class TestNecessityWeakForms:
    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_fourier_alone_is_proper(self, d):
        dim = Dimension.of(d)
        r = gate_matrix(Fourier(0), 1, dim)
        p = gate_matrix(Phase(0, 1), 1, dim)
        powers = []
        acc = np.eye(2, dtype=np.int64)
        for _ in range(4):
            acc = acc @ r % dim.D
            powers.append(acc.copy())
        assert not any(np.array_equal(m, p) for m in powers)

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_phase_alone_is_proper(self, d):
        dim = Dimension.of(d)
        r = gate_matrix(Fourier(0), 1, dim)
        phase_powers = [gate_matrix(Phase(0, e), 1, dim) for e in range(dim.D)]
        assert not any(np.array_equal(m, r) for m in phase_powers)
