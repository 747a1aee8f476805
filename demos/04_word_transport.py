"""Mapping one Pauli word onto another by a Clifford program.

A Clifford taking word p to word q exists exactly when the gcd of p's
exponents equals a unit multiple of the gcd of q's exponents mod d. The
construction is local first. A qudit where both words are nonzero with
the same content gcd(a, b, d) takes a map of a few Fourier and phase
gates on that qudit alone. The other qudits take sum gates: both words,
restricted to them, are reduced to a Z power at a hub, and the second
reduction is played backwards.
"""

from cliffsynth import (
    Dimension,
    PauliWord,
    apply_to_word,
    format_gate,
    format_word,
    generalized_peg,
    sequence_matrix,
    transport,
)

dim = Dimension.of(12)
p = PauliWord(dim, (3, 6), (4, 9))
print("p =", format_word(p))

seq, k = generalized_peg(p)
print(f"normal form: gcd of all exponents = {k}, program of {len(seq)} gates")
print("normalized word:", format_word(apply_to_word(sequence_matrix(seq), p)))

q = PauliWord(dim, (0, 5), (2, 0))
prog = transport(p, q)
print("\ntransport p ->", format_word(q))
print("feasible:", prog is not None)
if prog is not None:
    print("maps correctly:", apply_to_word(sequence_matrix(prog), p) == q)
    print("first gates:", ", ".join(format_gate(g) for g in list(prog)[:6]), "...")

# the same contents on every qudit (1 on qudit 0, 3 on qudit 1): two
# one-qudit maps and no sum gate
r = PauliWord(dim, (5, 3), (2, 6))
prog = transport(p, r)
print("\ntransport p ->", format_word(r))
print("maps correctly:", apply_to_word(sequence_matrix(prog), p) == r)
print("program:", ", ".join(format_gate(g) for g in prog))

# an obstructed pair: Z^2 cannot reach Z in dimension 4 because 2 is not
# a unit multiple of 1 mod 4
dim4 = Dimension.of(4)
blocked = transport(PauliWord(dim4, (0,), (2,)), PauliWord(dim4, (0,), (1,)))
print("\nZ^2 -> Z in dimension 4 feasible:", blocked is not None)
