"""Reference checkers for the benchmark, sharing no code with ``cliffsynth``.

Everything here is exact Python-integer arithmetic written from the
definitions, so a fault in the library cannot hide behind the same fault
in its checker.

Gates are plain tuples in application order:

* ``("F", i)``       Fourier gate on qudit i, 2x2 block [[0, -1], [1, 0]]
* ``("P", i, e)``    e-th phase-shift power, block [[1, 0], [e, 1]]
* ``("C", c, t, e)`` e-th sum-gate power, |x_c, x_t> -> |x_c, x_t + e x_c>;
  it sends X_c to X_c X_t^e and Z_t to Z_c^-e Z_t

An exponent vector is (a_1..a_n, b_1..b_n) for the word X^a Z^b; a gate
acts on it as a column vector, so a program's matrix is the product of
its gate matrices with the first-applied gate rightmost. Matrix entries
live mod D (D = d for odd d, 2d for even d), word exponents mod d.
"""

from __future__ import annotations

import math

Gate = tuple


def modulus(d: int) -> int:
    """The matrix modulus D for Hilbert-space dimension d."""
    return d if d % 2 else 2 * d


# ---------------------------------------------------------------------------
# programs


def recompose(gates: list[Gate], n: int, D: int) -> list[list[int]]:
    """The 2n x 2n matrix of a program, one row operation per gate, mod D."""
    rows = [[int(r == c) for c in range(2 * n)] for r in range(2 * n)]
    for g in gates:
        if g[0] == "F":
            i = g[1]
            rows[i], rows[n + i] = [(-v) % D for v in rows[n + i]], rows[i]
        elif g[0] == "P":
            _, i, e = g
            rows[n + i] = [(z + e * x) % D for z, x in zip(rows[n + i], rows[i])]
        else:
            _, c, t, e = g
            rows[t] = [(u + e * v) % D for u, v in zip(rows[t], rows[c])]
            rows[n + c] = [(u - e * v) % D for u, v in zip(rows[n + c], rows[n + t])]
    return rows


def act_on_word(gates: list[Gate], xs: list[int], zs: list[int], d: int) -> tuple[list[int], list[int]]:
    """The image of the word X^xs Z^zs under a program, exponents mod d."""
    a, b = list(xs), list(zs)
    for g in gates:
        if g[0] == "F":
            i = g[1]
            a[i], b[i] = (-b[i]) % d, a[i]
        elif g[0] == "P":
            _, i, e = g
            b[i] = (b[i] + e * a[i]) % d
        else:
            _, c, t, e = g
            a[t] = (a[t] + e * a[c]) % d
            b[c] = (b[c] - e * b[t]) % d
    return a, b


def parse_program(text: str) -> tuple[list[Gate], dict[str, int]]:
    """Gate lines and ``# key: value`` comment lines of a printed program."""
    gates: list[Gate] = []
    notes: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "#" and len(parts) == 3:
            notes[parts[1].rstrip(":")] = int(parts[2])
        elif parts[0] == "F" and len(parts) == 2:
            gates.append(("F", int(parts[1])))
        elif parts[0] == "P" and len(parts) == 3:
            gates.append(("P", int(parts[1]), int(parts[2])))
        elif parts[0] == "C" and len(parts) == 4:
            gates.append(("C", int(parts[1]), int(parts[2]), int(parts[3])))
        else:
            raise ValueError(f"not a gate line: {line!r}")
    return gates, notes


# ---------------------------------------------------------------------------
# words


def word_gcd(xs: list[int], zs: list[int], d: int) -> int:
    """gcd of every exponent of a word together with d."""
    return math.gcd(d, *xs, *zs)


def transport_feasible(p: tuple[list[int], list[int]], q: tuple[list[int], list[int]], d: int) -> bool:
    """A Clifford maps p to q exactly when their exponent gcds with d agree."""
    return word_gcd(*p, d) == word_gcd(*q, d)


def peg_normal_ok(gates: list[Gate], xs: list[int], zs: list[int], k: int, d: int) -> bool:
    """The program sends the word to Z^k on the last qudit, gcd(k, d) = the word's gcd."""
    a, b = act_on_word(gates, xs, zs, d)
    n = len(xs)
    return (
        not any(a)
        and not any(b[: n - 1])
        and b[n - 1] == k % d
        and math.gcd(k, d) == word_gcd(xs, zs, d)
    )


# ---------------------------------------------------------------------------
# matrices


def is_symplectic(mat: list[list[int]], D: int) -> bool:
    """M^T S M = S mod D with S = [[0, I], [-I, 0]]."""
    side = len(mat)
    n = side // 2
    # S M: the top half is M's bottom half, the bottom half is -M's top half
    sm = [mat[n + r] for r in range(n)] + [[-v for v in mat[r]] for r in range(n)]
    for i in range(side):
        for j in range(side):
            want = 1 if j == i + n else (-1 if i == j + n else 0)
            got = sum(mat[r][i] * sm[r][j] for r in range(side))
            if (got - want) % D:
                return False
    return True


# ---------------------------------------------------------------------------
# logical embeddings: d = n r_x r_z, X_L = X^r_x, Z_L = Z^r_z; words whose
# X exponent is a multiple of n r_x and Z exponent a multiple of n r_z act
# as identity on the logical system


def _single_targets(gate: str, n: int, rx: int, rz: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Images of (X_L, Z_L): QFT sends X_L -> Z_L, Z_L -> X_L^-1; the
    phase gate sends X_L -> X_L Z_L, Z_L -> Z_L."""
    d = n * rx * rz
    if gate == "qft":
        return (0, rz), ((-rx) % d, 0)
    return (rx, rz), (0, rz)


def _lattice_ok(img: list[int], target: list[int], n: int, rx: int, rz: int) -> bool:
    half = len(img) // 2
    d = n * rx * rz
    return all((u - v) % d % (n * rx) == 0 for u, v in zip(img[:half], target[:half])) and all(
        (u - v) % d % (n * rz) == 0 for u, v in zip(img[half:], target[half:])
    )


def single_witness_ok(gate: str, n: int, rx: int, rz: int, entries: list[int]) -> bool:
    """Substitution check of a 2x2 witness [[a, b], [c, e]]: symplectic
    mod D, and the logical generators land on their images up to the
    identity-acting lattice."""
    d = n * rx * rz
    a, b, c, e = entries
    tx, tz = _single_targets(gate, n, rx, rz)
    return (
        (a * e - b * c - 1) % modulus(d) == 0
        and _lattice_ok([a * rx, c * rx], list(tx), n, rx, rz)
        and _lattice_ok([b * rz, e * rz], list(tz), n, rx, rz)
    )


def single_feasible_scan(gate: str, n: int, rx: int, rz: int) -> bool:
    """Exhaustive scan of all 2x2 matrices mod D for a witness.

    Each column is constrained on its own, so the scan filters the four
    entries separately and then looks for a determinant of one.
    """
    d = n * rx * rz
    D = modulus(d)
    tx, tz = _single_targets(gate, n, rx, rz)
    col_a = [v for v in range(D) if (v * rx - tx[0]) % (n * rx) == 0]
    col_c = [v for v in range(D) if (v * rx - tx[1]) % (n * rz) == 0]
    col_b = [v for v in range(D) if (v * rz - tz[0]) % (n * rx) == 0]
    col_e = [v for v in range(D) if (v * rz - tz[1]) % (n * rz) == 0]
    bc = {(b * c) % D for b in col_b for c in col_c}
    return any((a * e - 1) % D in bc for a in col_a for e in col_e)


def sum_witness_ok(n: int, rx: int, rz: int, entries: list[int]) -> bool:
    """A 4x4 witness is symplectic and maps X_L(x)I -> X_L(x)X_L,
    I(x)X_L -> I(x)X_L, Z_L(x)I -> Z_L(x)I, I(x)Z_L -> Z_L^-1(x)Z_L."""
    d = n * rx * rz
    mat = [entries[4 * r : 4 * r + 4] for r in range(4)]
    if not is_symplectic(mat, modulus(d)):
        return False
    pairs = [
        ((rx, 0, 0, 0), (rx, rx, 0, 0)),
        ((0, rx, 0, 0), (0, rx, 0, 0)),
        ((0, 0, rz, 0), (0, 0, rz, 0)),
        ((0, 0, 0, rz), (0, 0, (-rz) % d, rz)),
    ]
    for src, target in pairs:
        img = [sum(mat[r][k] * src[k] for k in range(4)) % d for r in range(4)]
        if not _lattice_ok(img, list(target), n, rx, rz):
            return False
    return True
