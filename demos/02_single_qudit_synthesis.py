"""Decomposing a single-qudit Clifford into Fourier and phase gates.

A 2x2 matrix over Z_D with determinant 1 represents a qudit Clifford up
to phase. `decompose_single` is `decompose` on one qudit: for D <= 24 it
reads a shortest program from a breadth-first table of SL(2, Z_D), as in
the first example, where no entry is a unit mod 12. Above that it takes
the shorter of the elimination program and one closed form of at most 7
gates: five gates when the top-right entry is a unit, a few framing
Fourier gates when another entry is, and otherwise a phase power that
makes the top-right entry a unit first.
"""

import numpy as np

from cliffsynth import (
    Dimension,
    SymplecticMatrix,
    decompose_single,
    format_gate,
    sequence_matrix,
)

dim = Dimension.of(6)           # matrices live mod D = 12
m = SymplecticMatrix(dim, np.array([[10, 9], [3, 4]]))
print("target over Z_12 (no entry is a unit, det = 13 = 1 mod 12):")
print(m.mat)

seq = decompose_single(m)
print("\nsynthesized program (first line applied first):")
for g in seq:
    print(" ", format_gate(g))
print("gate count:", len(seq))

recomposed = sequence_matrix(seq)
print("\nrecomposed matrix equals the target:", recomposed == m)

# above the table: a unit top-right entry admits the five-gate closed form
m2 = SymplecticMatrix(Dimension.of(29), np.array([[2, 1], [1, 1]]))
print("\nclosed form over Z_29:", [format_gate(g) for g in decompose_single(m2)])

# no unit entry mod 28: s + t*q = 2 + 7 is a unit for t = 1, so the
# program for F^3 P^1 M is followed by F and P^-1 = P^27
m3 = SymplecticMatrix(Dimension.of(14), np.array([[4, 7], [21, 2]]))
seq3 = decompose_single(m3)
print("no unit entry over Z_28:", [format_gate(g) for g in seq3])
print("recomposed matrix equals the target:", sequence_matrix(seq3) == m3)
