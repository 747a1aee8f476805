"""Synthesizing a random three-qutrit Clifford and verifying it twice.

A random product of generator gates is collapsed to its matrix, thrown
away, and re-synthesized from the matrix alone. The output program is
checked symplectically (exact matrix equality) and against the unitary
oracle (conjugation of every generator word, up to phase, decided on two
probe vectors of length 27).
"""

import random

from cliffsynth import (
    Dimension,
    GateSequence,
    check_program,
    decompose,
    sequence_matrix,
)
from cliffsynth.symplectic import Fourier, Phase, Sum

rng = random.Random(7)
n, d = 3, 3
dim = Dimension.of(d)

gates = []
for _ in range(30):
    kind = rng.randrange(3)
    if kind == 0:
        gates.append(Fourier(rng.randrange(n)))
    elif kind == 1:
        gates.append(Phase(rng.randrange(n), rng.randrange(1, dim.D)))
    else:
        c = rng.randrange(n)
        t = (c + rng.randrange(1, n)) % n
        gates.append(Sum(c, t, rng.randrange(1, dim.D)))
hidden = GateSequence(tuple(gates), n, dim)
target = sequence_matrix(hidden)
print(f"target: a random {2*n}x{2*n} symplectic matrix over Z_{dim.D}")
print(target.mat)

program = decompose(target)
print(f"\nsynthesized {len(program)} gates (hidden circuit had {len(hidden)})")
print("symplectic check:", sequence_matrix(program) == target)
print("unitary oracle check (6 words, 2 probes of length 27):", check_program(program, target))
