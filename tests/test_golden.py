"""Golden corpora: the exact program text of `decompose` and of the word programs.

Over 504 seeded matrices (d in {2, 3, 4, 5, 6, 12, 97}, n from 1 to 12,
sparse and dense, three seeds each) the sha256 of the merged elimination
program's text, `merge_gates(_eliminate(m), dim)`, is frozen. Any change
to the elimination that alters a single gate of any program changes the
digest. A second
digest, `FINAL_DIGEST`, covers the final programs of `decompose` on the
same cases, after the pass that shortens single-qudit runs. Inputs are
recomposed with the dense reference `gate_matrix`, so they do not depend
on the code under test.

Two more digests cover `generalized_peg`, `transport` and
`GateSequence.inverse` on seeded words (d in {2, 6, 12, 97, 1024}, n in
{1, 2, 5, 16, 64}), with feasible and infeasible pairs and composite gcds:
one over the pegs and one over the transports, so that a change to one
of them leaves the other's digest as it is. Two more cover the symplectic
matrix of each of those programs. A transport's matrix is any Clifford
that maps p to q, and a peg's any Clifford that maps w to Z^k on the
last qudit, so a new transport or peg moves its matrix digest. The total
lengths of the pegs, of the feasible transports and of the golden
`decompose` programs are pinned too.

The library builds its gates with the trusted constructor, which skips
the checks; the last tests rebuild every gate and program of both
corpora through the public constructors, and show that what the library
hands the unchecked merge kernel is already in normal form.
"""

import hashlib
import random
from math import gcd

import numpy as np

from cliffsynth import (
    Dimension,
    GateSequence,
    PauliWord,
    SymplecticMatrix,
    decompose,
    gate_matrix,
    generalized_peg,
    transport,
)

from cliffsynth.symplectic import (
    Fourier,
    Phase,
    Sum,
    _normal_gates,
    format_matrix_text,
    merge_gates,
    sequence_matrix,
)
from cliffsynth.synthesis import _eliminate, _map_gates, _shorten_runs

from conftest import random_gate_sequence

DIMS = (2, 3, 4, 5, 6, 12, 97)
KINDS = {"sparse": 2, "dense": 20}  # gates per qudit
SEEDS = range(3)

GOLDEN_DIGEST = "92d57c3724797c07b77d2b198ca0b1b831e6554322f4b503033b87adc0ddb37b"
FINAL_DIGEST = "0454c23d2ba47559f8259fb31ffbd581825e86fc4e27e1524f4e43dae634a4f4"


def golden_cases():
    for d in DIMS:
        for n in range(1, 13):
            for kind, per_qudit in KINDS.items():
                for s in SEEDS:
                    yield d, n, kind, per_qudit * n, 1000 * d + 10 * n + s


def reference_matrix(seq):
    acc = np.eye(2 * seq.n, dtype=np.int64)
    for g in seq.gates:
        acc = gate_matrix(g, seq.n, seq.dim) @ acc % seq.dim.D
    return SymplecticMatrix(seq.dim, acc)


def golden_digests():
    """(count, elimination digest, final digest) over the golden cases."""
    eliminated, final = hashlib.sha256(), hashlib.sha256()
    count = 0
    for d, n, kind, length, seed in golden_cases():
        m = reference_matrix(random_gate_sequence(n, Dimension.of(d), length, seed))
        text = GateSequence(tuple(merge_gates(_eliminate(m), m.dim)), n, m.dim).to_text()
        eliminated.update(f"{d} {n} {kind} {seed}\n{text}\n".encode())
        final.update(f"{d} {n} {kind} {seed}\n{decompose(m).to_text()}\n".encode())
        count += 1
    return count, eliminated.hexdigest(), final.hexdigest()


def test_golden_programs_unchanged():
    count, eliminated, final = golden_digests()
    assert count == 504
    assert eliminated == GOLDEN_DIGEST
    assert final == FINAL_DIGEST


# ---------------------------------------------------------------------------
# word programs: generalized_peg, transport and GateSequence.inverse

WORD_DIMS = (2, 6, 12, 97, 1024)
WORD_NS = (1, 2, 5, 16, 64)
WORD_SEEDS = range(4)

# pegs and their inverses; transports and their inverses
PEG_DIGEST = "acbc0c72e7b02e4e861de4ec4e41141bd19ec7547c38028bec2edcc73ac2565f"
TRANSPORT_DIGEST = "77a06f210ff80a6186648b9c932e641cc5aa2e999e78ac89867c246baf64d0a3"
PEG_MATRIX_DIGEST = "ba2786c794ec5a67bbebdbb86404731e5aeb9f85ee2de9a1cfd389276e979a47"
TRANSPORT_MATRIX_DIGEST = "3a1e7a1bfd0c4a63e969678fad87bca00e418859e57b9287da80e240e9aae0f0"
# total gates of the 300 pegs (each word once per target) and of the 276
# feasible transports
PEG_GATES = 14940
TRANSPORT_GATES = 6441
# total gates of the 504 golden `decompose` programs
DECOMPOSE_GATES = 31333


def divisors_below(d):
    return [c for c in range(1, d) if d % c == 0]


def random_word(rng, n, dim, factor):
    """A nonidentity word whose exponents are all multiples of ``factor``."""
    d = dim.d
    xs = [factor * rng.randrange(d) % d for _ in range(n)]
    zs = [factor * rng.randrange(d) % d for _ in range(n)]
    if not any(xs) and not any(zs):
        zs[-1] = factor
    return PauliWord(dim, tuple(xs), tuple(zs))


def word_cases():
    """(d, n, seed, p, q): random pairs, half of them sharing a factor,
    plus p mapped to itself and to a unit multiple of itself."""
    for d in WORD_DIMS:
        dim = Dimension.of(d)
        factors = divisors_below(d)
        for n in WORD_NS:
            for s in WORD_SEEDS:
                rng = random.Random(f"golden-words/{d}/{n}/{s}")
                f = rng.choice(factors)
                p = random_word(rng, n, dim, f)
                q = random_word(rng, n, dim, f if s % 2 == 0 else rng.choice(factors))
                unit = next(u for u in range(rng.randrange(2, d + 1), 2 * d) if gcd(u, d) == 1)
                for target in (q, p, p.scale(unit)):
                    yield d, n, s, p, target


def word_digest():
    """(feasible, infeasible, peg digest, transport digest): the text of
    each program and its inverse, pegs and transports hashed apart."""
    pegs, transports = hashlib.sha256(), hashlib.sha256()
    feasible = infeasible = 0
    for d, n, s, p, q in word_cases():
        seq, k = generalized_peg(p)
        pegs.update(f"peg {d} {n} {s}\n{seq.to_text()}\n# k {k}\n{seq.inverse().to_text()}\n".encode())
        out = transport(p, q)
        if out is None:
            infeasible += 1
            transports.update(b"transport None\n")
        else:
            feasible += 1
            text = f"transport\n{out.to_text()}\n# inverse\n{out.inverse().to_text()}\n"
            transports.update(text.encode())
    return feasible, infeasible, pegs.hexdigest(), transports.hexdigest()


def test_golden_word_programs_unchanged():
    feasible, infeasible, pegs, transports = word_digest()
    assert (feasible, infeasible) == (276, 24)
    assert pegs == PEG_DIGEST
    assert transports == TRANSPORT_DIGEST


def test_golden_transport_total():
    # the hub transport of the whole words alone takes 16,529 gates here;
    # a change may shorten the transports, never lengthen them in total
    total = sum(len(out) for *_, p, q in word_cases() if (out := transport(p, q)) is not None)
    assert total <= TRANSPORT_GATES


def test_golden_peg_total():
    # 16,623 gates with a Euclid word on each qudit without a unit hub,
    # and 15,153 with the map to (0, gcd) on each hub qudit that has no
    # unit entry; a change may shorten the pegs, never lengthen them in total
    total = sum(len(generalized_peg(p)[0]) for *_, p, q in word_cases())
    assert total <= PEG_GATES


def test_golden_decompose_total():
    # 44,211 gates without the pure-X hub and phase-first clearing, and
    # 35,717 in index order without the lifted shape; a change may
    # shorten the programs, never lengthen them in total
    total = 0
    for d, n, kind, length, seed in golden_cases():
        m = reference_matrix(random_gate_sequence(n, Dimension.of(d), length, seed))
        total += len(decompose(m))
    assert total <= DECOMPOSE_GATES


def word_matrix_digests():
    """(peg digest, transport digest) over the matrix text of every word
    program and its inverse."""
    pegs, transports = hashlib.sha256(), hashlib.sha256()

    def add(h, label, seq):
        h.update(f"{label}\n{format_matrix_text(sequence_matrix(seq))}\n".encode())

    pegged = set()
    for d, n, s, p, q in word_cases():
        if (d, n, s) not in pegged:  # each p comes with three targets
            pegged.add((d, n, s))
            seq, _ = generalized_peg(p)
            add(pegs, f"peg {d} {n} {s}", seq)
            add(pegs, "peg inverse", seq.inverse())
        out = transport(p, q)
        if out is not None:
            add(transports, "transport", out)
            add(transports, "transport inverse", out.inverse())
    return pegs.hexdigest(), transports.hexdigest()


def test_golden_word_matrices_unchanged():
    assert word_matrix_digests() == (PEG_MATRIX_DIGEST, TRANSPORT_MATRIX_DIGEST)


# ---------------------------------------------------------------------------
# trusted construction


def library_programs():
    """(elimination gates, programs) of both corpora: `decompose`'s, and each
    word program with its inverse; every program is a `_derived` one."""
    for d, n, kind, length, seed in golden_cases():
        m = reference_matrix(random_gate_sequence(n, Dimension.of(d), length, seed))
        yield _eliminate(m), [decompose(m)]
    for d, n, s, p, q in word_cases():
        seqs = [generalized_peg(p)[0], transport(p, q)]
        seqs = [seq for seq in seqs if seq is not None]
        yield [], seqs + [seq.inverse() for seq in seqs]


def test_trusted_gates_match_checked_ones():
    programs = gates = 0
    for eliminated, seqs in library_programs():
        for g in [*eliminated, *(g for seq in seqs for g in seq.gates)]:
            assert type(g) in (Fourier, Phase, Sum)
            assert type(g)(*(getattr(g, k) for k in g.__match_args__)) == g
            gates += 1
        for seq in seqs:
            checked = GateSequence(seq.gates, seq.n, seq.dim)
            assert checked == seq
            assert merge_gates(seq.gates, seq.dim) == list(seq.gates)
            assert seq.inverse() == checked.inverse()
            programs += 1
    # the floor only shows that the corpora are not trivial: 119,995 gates
    assert programs == 504 + 2 * (300 + 276) and gates > 100_000


def test_kernel_inputs_are_in_normal_form():
    # `_merge_onto` checks nothing: decompose hands it the shortened
    # elimination program, with its rescales of Z^k to Z mod D, and
    # transport the one-qudit map of Z^gp to Z^gq mod d at a seam
    for d, n, kind, length, seed in golden_cases():
        dim = Dimension.of(d)
        m = reference_matrix(random_gate_sequence(n, dim, length, seed))
        gates = tuple(_shorten_runs(_eliminate(m), dim))
        assert _normal_gates(gates, dim.D, n) is gates
    for d in DIMS + (1024,):
        D = Dimension.of(d).D
        for k in range(1, D):
            if gcd(k, D) == 1:
                gates = tuple(_map_gates(0, k, 0, 1, 1, D, 2))
                assert _normal_gates(gates, D, 3) is gates
    for d in DIMS:
        D = Dimension.of(d).D
        for gp in range(1, d):
            for gq in range(1, d):
                if gq != gp and gcd(gq, d) == gcd(gp, d):
                    gates = tuple(_map_gates(0, gp, 0, gq, gcd(gp, d), d, 2))
                    assert _normal_gates(gates, D, 3) is gates
