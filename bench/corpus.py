"""Seeded inputs for the four workloads, built without ``cliffsynth``.

Every corpus is a pure function of the seed: the same seed gives the same
cases in the same order. The shapes (d, n, kind) are fixed; the seed
draws the gates, words and embeddings inside each shape. Matrices come
from seeded gate programs recomposed by ``checkers.recompose``, so the
inputs never depend on the library layer being measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from checkers import Gate, modulus, recompose, word_gcd

# d covers even and odd, prime and composite. A "dense" matrix is a seeded
# product of 20n gates. A "sparse" one is a product of 2n gates whose kinds
# and qudits are fixed per shape and whose exponents the seed draws: with
# so few gates, seeded positions alone move decompose time up to 3x
# between seeds. Cost grows about as n^5, so the shapes fall into three
# bands: n = 8, nine dense matrices at (d, n) = (5, 12), and n >= 16. The
# median operation is then always one of the nine, whose times lie within
# a few per cent of each other; with mixed shapes in the middle, the
# median jumps between shapes from one seed to the next. Sparse matrices
# at n = 20 and 24 use d = 97, whose time varies least between seeds.
SYNTH_SHAPES = (
    [(d, 8, kind) for d in (2, 5, 12, 97) for kind in ("sparse", "dense")]
    + [(5, 12, "dense")] * 9
    + [(d, 16, "dense") for d in (2, 5, 12, 97)]
    + [(97, 20, "sparse"), (12, 20, "dense"), (97, 24, "sparse")]
)
SYNTH_LENGTH = {"sparse": 2, "dense": 20}

# Per (n, d) the transports and pegs of ``words_gcds``. Words over a prime
# d always have gcd 1; over a composite d the exponent gcds are fixed by
# position in the list of proper divisors, since a large gcd makes a much
# shorter program and a seeded choice would make the mix differ between
# seeds. WORDS_BAND adds pegs of one shape whose times sit in the middle of
# the others, so the median operation is one of them rather than a
# seed-dependent choice between shapes several per cent apart.
WORDS_N = (64, 256, 1024)
WORDS_D = (2, 6, 97, 1024)
WORDS_BAND = (256, 97, 12)

# Dense-oracle shapes, sides 64 to 256. Each shape holds three programs of
# ORACLE_LENGTH * n gates, one of them with one exponent altered.
ORACLE_SHAPES = [(2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4), (6, 3), (16, 2)]
ORACLE_LENGTH = 12
ORACLE_PER_SHAPE = 3

# Command-line mix: matrices for synth (and verify), words for transport
# and peg, embeddings with d = n r_x r_z <= 36.
# Transports and pegs are (d, n, gcds); gcd 2 against 3 or 4 is infeasible.
CLI_SYNTH = [(2, 12, "symplectic"), (5, 12, "symplectic"), (12, 10, "symplectic"),
             (97, 10, "symplectic"), (2, 5, "unitary"), (3, 4, "unitary")]
CLI_TRANSPORT = [(5, 48, (1, 1)), (6, 32, (2, 2)), (12, 32, (1, 1)), (6, 32, (2, 3)),
                 (12, 32, (2, 4))]
CLI_PEG = [(7, 64, 1), (1024, 32, 4)]
CLI_EMBED = 4
EMBED_MAX_D = 36


def random_program(rng: random.Random, n: int, d: int, length: int) -> list[Gate]:
    """A uniform mix of Fourier, phase and (for n > 1) sum gates."""
    D = modulus(d)
    gates: list[Gate] = []
    for _ in range(length):
        kind = rng.randrange(3 if n > 1 else 2)
        if kind == 0:
            gates.append(("F", rng.randrange(n)))
        elif kind == 1:
            gates.append(("P", rng.randrange(n), rng.randrange(1, D)))
        else:
            c = rng.randrange(n)
            t = rng.randrange(n - 1)
            gates.append(("C", c, t + (t >= c), rng.randrange(1, D)))
    return gates


def word_with_gcd(rng: random.Random, n: int, d: int, g: int) -> tuple[list[int], list[int]]:
    """A word whose exponents have gcd exactly g with d (g a proper divisor)."""
    xs = [g * rng.randrange(d // g) for _ in range(n)]
    zs = [g * rng.randrange(d // g) for _ in range(n)]
    unit = next(u for u in range(rng.randrange(1, d // g), 2 * d) if math.gcd(u, d // g) == 1)
    (xs if rng.randrange(2) else zs)[rng.randrange(n)] = g * unit % d
    if word_gcd(xs, zs, d) != g:
        raise AssertionError(f"generated word has gcd {word_gcd(xs, zs, d)}, wanted {g}")
    return xs, zs


def proper_divisors(d: int) -> list[int]:
    return [g for g in range(1, d) if d % g == 0]


@dataclass
class SynthCase:
    d: int
    n: int
    kind: str
    matrix: list[list[int]]


def synth_corpus(seed: int) -> list[SynthCase]:
    rng = random.Random(f"synth/{seed}")
    cases = []
    for d, n, kind in SYNTH_SHAPES:
        length = SYNTH_LENGTH[kind] * n
        if kind == "dense":
            gates = random_program(rng, n, d, length)
        else:
            shape = random_program(random.Random(f"synth-shape/{d}/{n}"), n, d, length)
            D = modulus(d)
            gates = [g if g[0] == "F" else g[:-1] + (rng.randrange(1, D),) for g in shape]
        cases.append(SynthCase(d, n, kind, recompose(gates, n, modulus(d))))
    return cases


@dataclass
class WordsCase:
    d: int
    n: int
    op: str  # "transport" or "peg"
    p: tuple[list[int], list[int]]
    q: tuple[list[int], list[int]] | None = None
    feasible: bool | None = None


def words_gcds(d: int, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The (source, target) gcds of the transports and the gcds of the pegs.

    At the largest n only one feasible transport (and, for composite d,
    one infeasible one) and one peg are kept: operations on 1024 qudits
    build lists of up to 40 000 gates and vary most with load on the host.
    """
    div = proper_divisors(d)
    composite = len(div) > 1
    if n == max(WORDS_N):
        return [(1, 1)] + ([(div[1], div[-1])] if composite else []), [1]
    if not composite:
        return [(1, 1)] * 3, [1, 1]
    mid = div[len(div) // 2]
    return [(1, 1), (mid, mid), (div[1], div[-1])], [1, div[1]]


def words_corpus(seed: int) -> list[WordsCase]:
    rng = random.Random(f"words/{seed}")
    cases = []
    for n in WORDS_N:
        for d in WORDS_D:
            pairs, pegs = words_gcds(d, n)
            for g, h in pairs:
                p, q = word_with_gcd(rng, n, d, g), word_with_gcd(rng, n, d, h)
                cases.append(WordsCase(d, n, "transport", p, q, g == h))
            for g in pegs:
                cases.append(WordsCase(d, n, "peg", word_with_gcd(rng, n, d, g)))
    n, d, count = WORDS_BAND
    cases += [WordsCase(d, n, "peg", word_with_gcd(rng, n, d, 1)) for _ in range(count)]
    return cases


@dataclass
class OracleCase:
    d: int
    n: int
    gates: list[Gate]
    matrix: list[list[int]]  # the matrix of the unaltered program
    altered: bool


def alter_one_exponent(rng: random.Random, gates: list[Gate], d: int) -> list[Gate]:
    """Shift one phase or sum exponent by a step that is nonzero mod d.

    A step that is a multiple of d would keep the action on words, and so
    the program's unitary up to phase, unchanged for even d.
    """
    D = modulus(d)
    slots = [i for i, g in enumerate(gates) if g[0] != "F"]
    i = rng.choice(slots)
    g = gates[i]
    out = list(gates)
    out[i] = g[:-1] + ((g[-1] + rng.randrange(1, d)) % D,)
    return out


def oracle_corpus(seed: int) -> list[OracleCase]:
    rng = random.Random(f"oracle/{seed}")
    cases = []
    for d, n in ORACLE_SHAPES:
        for k in range(ORACLE_PER_SHAPE):
            gates = random_program(rng, n, d, ORACLE_LENGTH * n)
            matrix = recompose(gates, n, modulus(d))
            altered = k == ORACLE_PER_SHAPE - 1
            if altered:
                gates = alter_one_exponent(rng, gates, d)
            cases.append(OracleCase(d, n, gates, matrix, altered))
    return cases


@dataclass
class CliCase:
    """One ``python -m cliffsynth`` call; ``files`` are written before it runs.

    ``stdin_from`` names an earlier case whose standard output is fed to
    this one, as in ``cliffsynth synth m.txt | cliffsynth verify m.txt``.
    """

    name: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    stdin_from: str | None = None
    expect: dict = field(default_factory=dict)


def matrix_text(d: int, n: int, rows: list[list[int]]) -> str:
    return "\n".join([f"d {d} n {n}"] + [" ".join(map(str, r)) for r in rows]) + "\n"


def word_text(d: int, word: tuple[list[int], list[int]]) -> str:
    xs, zs = word
    return f"d={d} n={len(xs)} a={','.join(map(str, xs))} b={','.join(map(str, zs))}"


def embeddings(max_d: int) -> list[tuple[int, int, int]]:
    return [
        (n, rx, rz)
        for n in range(2, max_d + 1)
        for rx in range(1, max_d + 1)
        for rz in range(1, max_d + 1)
        if n * rx * rz <= max_d
    ]


def cli_corpus(seed: int) -> list[CliCase]:
    rng = random.Random(f"cli/{seed}")
    cases = []
    for i, (d, n, mode) in enumerate(CLI_SYNTH):
        rows = recompose(random_program(rng, n, d, 20 * n), n, modulus(d))
        mfile = f"m{i}.txt"
        files = {mfile: matrix_text(d, n, rows)}
        expect = {"matrix": rows, "d": d, "n": n}
        cases.append(CliCase(f"synth{i}", ["synth", mfile, "--verify", mode], files, None, expect))
        cases.append(CliCase(f"verify{i}", ["verify", mfile, "--mode", mode], {}, f"synth{i}", expect))
    for i, (d, n, (g, h)) in enumerate(CLI_TRANSPORT):
        p, q = word_with_gcd(rng, n, d, g), word_with_gcd(rng, n, d, h)
        expect = {"d": d, "p": p, "q": q, "feasible": g == h}
        argv = ["transport", word_text(d, p), word_text(d, q), "--verify", "symplectic"]
        cases.append(CliCase(f"transport{i}", argv, {}, None, expect))
    for i, (d, n, g) in enumerate(CLI_PEG):
        w = word_with_gcd(rng, n, d, g)
        cases.append(CliCase(f"peg{i}", ["peg", word_text(d, w)], {}, None, {"d": d, "w": w}))
    for i, (n, rx, rz) in enumerate(rng.sample(embeddings(EMBED_MAX_D), CLI_EMBED)):
        argv = ["embed-check", str(n), str(rx), str(rz)]
        cases.append(CliCase(f"embed{i}", argv, {}, None, {"emb": (n, rx, rz)}))
    return cases
