"""Golden corpus: the exact program text `decompose` emits.

Over 504 seeded matrices (d in {2, 3, 4, 5, 6, 12, 97}, n from 1 to 12,
sparse and dense, three seeds each) the sha256 of every program's text is
frozen. Any change to the synthesizer that alters a single gate of any
program changes the digest. Inputs are recomposed with the dense
reference `gate_matrix`, so they do not depend on the code under test.
"""

import hashlib

import numpy as np

from cliffsynth import Dimension, SymplecticMatrix, decompose, gate_matrix

from conftest import random_gate_sequence

DIMS = (2, 3, 4, 5, 6, 12, 97)
KINDS = {"sparse": 2, "dense": 20}  # gates per qudit
SEEDS = range(3)

GOLDEN_DIGEST = "606748d756127d29ff540889ba7184b89927d7a9c12a62140ffd3198c560e268"


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


def golden_digest():
    h = hashlib.sha256()
    count = 0
    for d, n, kind, length, seed in golden_cases():
        m = reference_matrix(random_gate_sequence(n, Dimension.of(d), length, seed))
        h.update(f"{d} {n} {kind} {seed}\n{decompose(m).to_text()}\n".encode())
        count += 1
    return count, h.hexdigest()


def test_golden_programs_unchanged():
    count, digest = golden_digest()
    assert count == 504
    assert digest == GOLDEN_DIGEST
