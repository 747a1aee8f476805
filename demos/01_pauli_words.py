"""Pauli words over a qudit and their commutation structure.

An n-qudit Pauli operator X^a Z^b is stored as its exponent vector over
Z_d, with phases quotiented out. The symplectic inner product of two
words is the exponent of the root-of-unity scalar their unitaries pick
up when swapped, so two words commute exactly when it vanishes.
"""

import numpy as np

from cliffsynth import (
    Dimension,
    PauliWord,
    commutes,
    format_word,
    omega,
    sip,
    word_unitary,
)

dim = Dimension.of(5)

u = PauliWord(dim, (2,), (1,))   # X^2 Z
v = PauliWord(dim, (1,), (3,))   # X Z^3
print("u =", format_word(u))
print("v =", format_word(v))
print("sip(u, v) =", sip(u, v))
print("commute?", commutes(u, v))

# the same statement at the dense-unitary level: multiply in both orders
# and read off the scalar relating the products
uu = word_unitary(u).matrix
vv = word_unitary(v).matrix
scalar = (uu @ vv)[np.nonzero(vv @ uu)][0] / (vv @ uu)[np.nonzero(vv @ uu)][0]
print("dense scalar between the two orders:", np.round(scalar, 9))
print("omega^sip(v,u) =", np.round(omega(dim) ** sip(v, u), 9))

# a non-commuting pair on two qudits of dimension 6
dim6 = Dimension.of(6)
p = PauliWord(dim6, (1, 0), (0, 3))
q = PauliWord(dim6, (0, 2), (1, 0))
print()
print("p =", format_word(p))
print("q =", format_word(q))
print("sip(p, q) =", sip(p, q), "-> commute?", commutes(p, q))
