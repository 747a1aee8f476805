"""Decomposition of symplectic matrices into Fourier / phase / sum programs.

On one qudit, F and P^e take an exponent vector (a, b) to (a', b')
exactly when both have the same content gcd(a, b, modulus). One map
builds every such program (`_map_gates`): the core P^s F P^t, or the
first of a few framed shapes that fits, each power the solution of one
linear congruence. On a pair of qudits, Euclid's algorithm run with sum
gates reduces a Z (x) Z exponent pair to its gcd (`_sum_peg_vector`).
A 2x2 matrix, not a vector, gets the shortest-known program: a shortest
one from a breadth-first table of SL(2, Z_D) for D <= MAX_TABLE_D = 24,
else one closed form of at most 7 gates (`_closed_form`).

The word normal form (`_peg_gates`) takes any word to a power of Z on
its last qudit. A word program only has to map one exponent vector, not
realize a 2x2 matrix, so each qudit (a, b) with a != 0 goes to a pure Z
power by a one-qudit map, and a qudit with a = 0 takes no gate. Once a
unit hub exists, the first qudit before the last at which the running
fold value is a unit mod D, a qudit with a unit entry takes P^(-b/a) F
for a unit a and F P^(a/b) F for a unit b; every other qudit takes the
map to (0, gcd(a, b)). One sum gate from the hub then clears each later
qudit, and one more leaves a chosen unit t on the last qudit: the gcd
for `generalized_peg`, 1 for elimination, and for `transport` the value
the other word's program ends on, so the two halves meet unless
neither word has a hub; then the one-qudit map takes the one gcd to the
other. Without a hub (one qudit, no unit, or a unit on the last qudit
only) every qudit takes the map to (0, gcd(a, b)) and the sum loop
folds the values onto the last qudit.

Word-to-word transport is local first. A qudit where the two words agree
takes no gate, and one where both are nonzero with one content
gcd(a, b, d) takes the one-qudit map on that qudit alone. Only the
remaining qudits, where one word is the identity or the contents
differ, take sum gates: the hub transport (`_hub_gates`), the normal
form of one restricted word and the inverse normal form of the other,
placed on those qudits by `_peg_gates`' index map.

Every piece of a word program is emitted as a reduced word, the form
`merge_gates` returns: each qudit's word, the sum fold (its fix-up joins
the loop's last step), the hub sums and each one-qudit map. So
`generalized_peg` returns its gates as they are, the hub transport
merges only where its pieces meet (`_merge_onto`), and `transport`
concatenates pieces on disjoint qudits, which never merge. Gates are
built with the trusted constructor `_gate` (Fourier gates shared,
`_fourier`), and the library's own programs skip `GateSequence`'s check
(`GateSequence._derived`).

The full n-qudit decomposition works in two stages. Elimination
(`_eliminate`) reduces the inverse of the input to the identity with
row operations only, last qudit first: each Z_j column goes to Z_j,
then gates that fix Z_j clear the X_j column. The Z_j column step has
two forms. The pure-X hub (`_x_hub_gates`) turns each nonzero qudit
into a pure X power with P^s or F P^s, clears the rest from one qudit
holding a unit X power with one sum each, and ends on Z_j with two sums
and F_j. It needs a unit among those powers, every qudit to fit one of
the two shapes, and a count rule under which it is the shorter form:
zf + 1 < mixed + xf, for the qudits whose column entry is pure Z, both
X and Z, and pure X. Every other column takes the word normal form,
taken mod D. In the X_j column a qudit with both exponents nonzero is
cleared phase first where its X exponent's gcd with D divides its Z
exponent: P^k zeroes the Z exponent, and one sum from j the X
exponent. Each step hands its gates to the one batched kernel
`_PackedRows.act` as a list and checks packed rows whole. Then one scan
(`_shorten_runs`) replaces each qudit's run of Fourier and phase gates
between sum gates by the shortest-known program for its 2x2 matrix when
that is shorter. The program is merged once (`_merge_onto`), then
recomposed by the kernel and compared with the input's packed rows.
`decompose_single` is `decompose` on one qudit. The golden tests pin
the text of both stages and the matrix of every word program.

All quotients are taken from canonical representatives, so every routine
is deterministic.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .errors import (
    DegenerateWordError,
    DimensionMismatchError,
    NonSymplecticError,
    SynthesisCheckError,
)
from .modring import Dimension, gcd0
from .pauli import PauliWord, _qudit_count
from .symplectic import (
    Fourier,
    Gate,
    GateSequence,
    Phase,
    Sum,
    SymplecticMatrix,
    _gate,
    _merge_onto,
    _PackedRows,
    inverse,
)


# ---------------------------------------------------------------------------
# gate words and the sum-gate Euclid loop


@functools.cache
def _fourier(qudit: int) -> Fourier:
    """The one shared ``Fourier(qudit)``, built once per index per process:
    word programs hold one on nearly every qudit."""
    return Fourier(qudit)


def _word(letters: list[int], qudit: int) -> list[Gate]:
    """The gates of a single-qudit word on ``qudit``: letter 0 is F and a
    letter e in [1, D) is P^e."""
    f = _fourier(qudit)
    return [_gate(Phase, (qudit, e)) if e else f for e in letters]


def _sum_peg_vector(a: int, b: int, D: int, i: int, j: int) -> list[tuple[int, int, int]]:
    """The sum gates on qudits i, j, as (control, target, power) triples,
    that map their z-exponents (a, b) to (0, gcd0(a, b)), a reduced word.

    The steps alternate between the pairs (i, j) and (j, i). When the
    loop stops at (g, 0), Sum(j, i, -1) then Sum(i, j, 1) move g to qudit
    j: (g, 0) -> (g, g) -> (0, g). The first of the two joins the loop's
    last step, if any: Sum(j, i, k) with k = b / a >= 2, as a < b and a
    divides b. So it becomes Sum(j, i, k - 1), no power is 0, and no two
    neighbours combine.
    """
    if a == 0 and b == 0:
        raise DegenerateWordError("cannot reduce the zero exponent pair")
    sums: list[tuple[int, int, int]] = []
    while a != 0 and b != 0:
        if a >= b:
            q = a // b
            sums.append((i, j, q))  # z-block [[1,-q],[0,1]]
            a -= q * b
        else:
            q = b // a
            sums.append((j, i, q))  # z-block [[1,0],[-q,1]]
            b -= q * a
    if b == 0:
        k = sums.pop()[2] if sums else 0
        sums += [(j, i, (k - 1) % D), (i, j, 1)]
    return sums


# ---------------------------------------------------------------------------
# single-qudit word reduction and transport building blocks


def _peg_gates(
    xs: Sequence[int],
    zs: Sequence[int],
    D: int,
    target: int,
    inverse: bool = False,
    qudits: Sequence[int] | None = None,
) -> tuple[list[Gate], int]:
    """A reduced word (its own `merge_gates`) mapping the word with
    exponents ``xs``, ``zs`` (in [0, D), not all zero) to a power of Z on
    its last qudit, and that power.

    The hub is the first qudit h before the last at which the fold's
    running value u is a unit mod D, that is gcd(D, the exponents of
    qudits 0 to h) = 1. Each qudit (a, b) with a != 0 maps one vector to
    a pure Z power, and a qudit with a = 0 takes no gate. With a hub, a
    unit a takes P^(-b/a) F to (0, a) and a unit b F P^(a/b) F to
    (0, -b); every other qudit takes `_map_gates`' word to (0, v),
    v = gcd(a, b). The unit words are the ones `_map_gates` gives for
    the same ends, written inline for speed: through `_map_gates` a
    pure-Z end misses its fast core and pays `_shape_letters`' set-up,
    which cut the `words` benchmark's ops per second by 37% (about
    1,650 to 1,040 on a 2-core host). The sum fold
    runs up to h, then Sum(j, h, z_j/u) clears each later qudit j, and
    Sum(h, last, u/t) moves the value ``target`` = t, a unit mod D, to
    the last qudit (the last clearing sum also adds t there). The power
    is then t. With no hub the fold runs to the end: the power is the
    gcd of all the exponents.

    With ``inverse``, the gates of the inverse program: the sums
    inverted gate by gate, then each qudit's inverse word, which maps
    its pure Z power back. A unit a then gets F P^(b/a) from (0, -a), a
    unit b F P^(-a/b) F, and any other qudit `_map_gates`' word from
    (0, v).

    Each qudit's word is reduced and no two of them share a qudit; the
    sums are reduced folds (`_sum_peg_vector`) on successive pairs, then
    hub sums on distinct pairs; no power is 0. So the whole is reduced.

    The word's qudit i is the program's qudit ``qudits[i]`` (distinct
    indices, in any order), by default i itself.
    """
    n = len(xs)
    hub = None
    g = D
    for i in range(n - 1):
        g = math.gcd(g, xs[i], zs[i])
        if g == 1:
            hub = i
            break
    chunks: list[list[Gate]] = []
    zvals: list[int] = []
    for i, a, b in zip(qudits or range(n), xs, zs):
        if a == 0:  # (0, b) is its own target
            zvals.append(b)
            continue
        if hub is not None and math.gcd(a, D) == 1:
            f, e = _fourier(i), b * pow(a, -1, D) % D
            if inverse:
                chunks.append([f, _gate(Phase, (i, e))] if e else [f])
                zvals.append(D - a)
            else:
                chunks.append([_gate(Phase, (i, D - e)), f] if e else [f])
                zvals.append(a)
        elif hub is not None and math.gcd(b, D) == 1:
            f, e = _fourier(i), a * pow(b, -1, D) % D
            chunks.append([f, _gate(Phase, (i, D - e if inverse else e)), f])
            zvals.append(D - b)
        else:
            v = math.gcd(a, b)
            ends = (0, v, a, b) if inverse else (a, b, 0, v)
            chunks.append(_map_gates(*ends, math.gcd(v, D), D, i))
            zvals.append(v)
    sums: list[tuple[int, int, int]] = []  # (control, target, power)
    cur = zvals[0]
    for i in range(n - 1 if hub is None else hub):
        nxt = zvals[i + 1]
        if (cur, nxt) != (0, 0):
            sums.extend(_sum_peg_vector(cur, nxt, D, i, i + 1))
        cur = gcd0(cur, nxt)
    if hub is not None:
        uinv = pow(cur, -1, D)
        for j in range(hub + 1, n - 1):
            if zvals[j]:
                sums.append((j, hub, zvals[j] * uinv % D))
        e = (zvals[-1] - target) * uinv % D
        if e:
            sums.append((n - 1, hub, e))
        sums.append((hub, n - 1, cur * pow(target, -1, D) % D))
        cur = target
    if qudits is not None:
        sums = [(qudits[c], qudits[t], e) for c, t, e in sums]
    if not inverse:
        gates = [g for chunk in chunks for g in chunk]
        gates += [_gate(Sum, s) for s in sums]
        return gates, cur
    gates = [_gate(Sum, (c, t, D - e)) for c, t, e in reversed(sums)]
    for chunk in reversed(chunks):
        gates.extend(chunk)
    return gates, cur


def generalized_peg(w: PauliWord) -> tuple[GateSequence, int]:
    """Program mapping a word to I x ... x I x Z^k, k = gcd of all exponents.

    Each qudit is first mapped to a pure Z power by a one-qudit word
    (`_peg_gates`, `_map_gates`). With a unit hub, one sum per
    qudit from the hub plus one more leave Z^k on the last qudit.
    Otherwise the sum-gate loop folds the Z exponents left to right onto
    the last qudit.
    """
    if w.is_identity:
        raise DegenerateWordError("the identity word has no reduction target")
    gates, k = _peg_gates(w.xexp, w.zexp, w.dim.D, math.gcd(*w.xexp, *w.zexp))
    return GateSequence._derived(tuple(gates), w.n, w.dim), k


def _solve(a: int, r: int, c: int, d: int) -> int:
    """The smallest s in [0, d) with s * a = r mod d, where gcd(a, d) = c
    divides r: the solutions form one class mod d/c."""
    step = d // c
    return r % d // c * pow(a // c, -1, step) % step


# The one-qudit shapes of `_shape_letters`, shortest first, as (length, i,
# j, phases): F^i P^s F^j for one phase gate, F^i P^s F P^t F^j for two,
# and F^i for none, in application order. F^2 = -I is central, so F^2 P
# is P F^2, P F^2 P is F^2 P^(s+t) and P F^3 P is F^2 P F P: i <= 1 and
# one middle F cover every word with at most two phase gates.
_SHAPES = sorted(
    [(k, k, 0, 0) for k in (1, 2, 3)]
    + [(i + j + 1, i, j, 1) for i in (0, 1) for j in range(4)]
    + [(i + j + 3, i, j, 2) for i in (0, 1) for j in range(4)],
    key=lambda shape: shape[0],
)


def _shape_letters(x: int, z: int, x2: int, z2: int, d: int) -> list[int] | None:
    """The letters (see `_word`) of the first of `_SHAPES` that maps (x, z)
    to (x2, z2) mod d, or None.

    A shape's phase gates act on F^i (x, z) and end on F^-j (x2, z2), so
    each power solves one linear congruence, solvable iff the gcd of its
    coefficient with d divides the right side. F keeps the pair of gcds
    of a vector's entries with d, swapped at odd powers. A zero power
    would make a shorter shape, which comes first and fits too, so a fit
    never has one, and its word is reduced.
    """
    if (x, z) == (x2, z2):
        return []
    src = ((x, z), (-z % d, x), (-x % d, -z % d), (z, -x % d))  # F^i v
    dst = ((x2, z2), (z2, -x2 % d), (-x2 % d, -z2 % d), (-z2 % d, x2))  # F^-j v'
    gs, g2s = (math.gcd(x, d), math.gcd(z, d)), (math.gcd(x2, d), math.gcd(z2, d))
    for _, i, j, phases in _SHAPES:
        a, b = src[i]
        a2, b2 = dst[j]
        if phases == 2:  # P^s F P^t: (a, b) -> (-b - s a, a + t (-b - s a))
            g, g2 = gs[i & 1], g2s[j & 1]
            if (a2 + b) % g == 0 == (b2 - a) % g2:
                s, t = _solve(a, -a2 - b, g, d), _solve(a2, b2 - a, g2, d)
                if s and t:
                    return [0] * i + [s, 0, t] + [0] * j
        elif phases == 1:  # P^s: (a, b) -> (a, b + s a)
            if a == a2 and (b2 - b) % gs[i & 1] == 0:
                s = _solve(a, b2 - b, gs[i & 1], d)
                if s:
                    return [0] * i + [s] + [0] * j
        elif (a, b) == (a2, b2):
            return [0] * i
    return None


def _map_gates(x: int, z: int, x2: int, z2: int, c: int, d: int, qudit: int) -> list[Gate]:
    """A reduced program on ``qudit`` alone taking its exponent vector
    (x, z) to (x2, z2) mod d: two distinct vectors of one content
    c = gcd(x, z, d) < d. Every power lies in [1, d). The modulus is
    the word's d for `transport`'s matched qudits and its hub seam
    (`_hub_gates`), and D in the word normal form (`_peg_gates`) and in
    `_eliminate`'s rescale of Z^k to Z.

    When both X exponents have gcd c with d, the core P^s F P^t does it,
    with s x = -x2 - z and t x2 = z2 - x mod d and zero powers dropped;
    only P^s (for x = x2) and F F (for (x2, z2) = -(x, z)) can be
    shorter. Otherwise the first of `_SHAPES` that fits. At composite d a
    vector may have no entry of gcd c with d, as (2, 5) at d = 10. Then P^u
    comes first, with the smallest u for which z + u x has gcd c (as in
    `_closed_form`), and P^-w last for the target's w, so that a shape
    fits between them.
    """
    if math.gcd(x, d) == c == math.gcd(x2, d):
        if x == x2:
            return [_gate(Phase, (qudit, _solve(x, z2 - z, c, d)))]
        f = _fourier(qudit)
        s, t = _solve(x, -x2 - z, c, d), _solve(x2, z2 - x, c, d)
        if not s:
            return [f, _gate(Phase, (qudit, t))] if t else [f]
        if not t:
            return [_gate(Phase, (qudit, s)), f]
        if x2 == -x % d and z2 == -z % d:
            return [f, f]
        return [_gate(Phase, (qudit, s)), f, _gate(Phase, (qudit, t))]
    letters = _shape_letters(x, z, x2, z2, d)
    if letters is not None:
        return _word(letters, qudit)

    def lift(x: int, z: int) -> int:
        if c in (math.gcd(x, d), math.gcd(z, d)):
            return 0
        return next(u for u in range(1, d) if math.gcd(z + u * x, d) == c)

    u, w = lift(x, z), lift(x2, z2)
    core = _shape_letters(x, (z + u * x) % d, x2, (z2 + w * x2) % d, d)
    if core is None:
        raise SynthesisCheckError(f"no one-qudit map ({x}, {z}) -> ({x2}, {z2}) mod {d}")
    # the core is reduced, so only P^u and P^-w can merge, each with a
    # phase gate at its end of the core; a zero sum drops both
    out: list[int] = []
    for e in ([u] if u else []) + core + ([d - w] if w else []):
        if e and out and out[-1]:
            e = (out.pop() + e) % d
            if not e:
                continue
        out.append(e)
    return _word(out, qudit)


def _hub_gates(p: PauliWord, q: PauliWord, qudits: Sequence[int]) -> list[Gate]:
    """The hub transport between p and q restricted to ``qudits``, on
    those qudits. Neither restriction may be the identity, and a Clifford
    on ``qudits`` must map one to the other.

    The program is p's peg gates, then the gates of q's inverse peg
    program. A word with a unit hub ends its fold on the value the other
    word's program takes, q's gcd for p and p's value for q, so the two
    meet on the last qudit. Only when neither word has a hub does the
    one-qudit map take Z^vp to Z^vq between them, mod d as on
    `transport`'s matched qudits: the gcds share their content with d,
    not always with D (2 and 4 at d = 6). Each piece is a reduced word,
    so they are merged only where they meet (`_merge_onto`).
    """
    d, D = p.dim.d, p.dim.D
    pxs, pzs, qxs, qzs = ([w[i] for i in qudits] for w in (p.xexp, p.zexp, q.xexp, q.zexp))
    gates, vp = _peg_gates(pxs, pzs, D, math.gcd(*qxs, *qzs), qudits=qudits)
    inv, vq = _peg_gates(qxs, qzs, D, vp, inverse=True, qudits=qudits)
    if vp != vq:  # neither word has a hub: vp, vq are the gcds
        seam = _map_gates(0, vp, 0, vq, math.gcd(vp, d), d, qudits[-1])
        _merge_onto(gates, seam, D, reduced=True)
    return _merge_onto(gates, inv, D, reduced=True)


def transport(p: PauliWord, q: PauliWord) -> GateSequence | None:
    """A program whose conjugation action maps word p to word q, if any.

    Feasible exactly when gcd(q's exponents) = k * gcd(p's exponents)
    mod d for some unit k mod d; returns None otherwise. Local first: a
    qudit where p and q agree takes no gate. A qudit where both are
    nonzero with one content gcd(a, b, d) is matched, and takes a
    one-qudit map (`_map_gates`), at most three gates when both X
    exponents share that gcd with d. The other qudits R, where one word
    is the identity or the contents differ, take the hub transport of
    the two words restricted to R (`_hub_gates`). If those sub-words are
    infeasible or one is the identity, one matched qudit joins R as an
    anchor, the first whose content makes them feasible, trying qudits
    where p and q agree last. With no such anchor R is every qudit, and
    the program is the hub transport of the whole words. The pieces sit
    on disjoint qudits, so their concatenation is a reduced word.
    """
    if p.dim != q.dim or p.n != q.n:
        raise DimensionMismatchError("transport endpoints disagree on layout")
    if p.is_identity or q.is_identity:
        raise DegenerateWordError("transport endpoints must be nonidentity words")
    n, dim = p.n, p.dim
    d = dim.d
    if math.gcd(d, *p.xexp, *p.zexp) != math.gcd(d, *q.xexp, *q.zexp):
        return None
    gates: list[Gate] = []
    rest: list[int] = []
    gcd = math.gcd  # a local: the loop below runs once per qudit
    for i, (x, z, x2, z2) in enumerate(zip(p.xexp, p.zexp, q.xexp, q.zexp)):
        if x == x2 and z == z2:
            continue
        c = gcd(x, z, d)
        if c == gcd(x2, z2, d) != d:
            gates += _map_gates(x, z, x2, z2, c, d, i)
        else:
            rest.append(i)
    if rest:
        cp = math.gcd(d, *(p.xexp[i] for i in rest), *(p.zexp[i] for i in rest))
        cq = math.gcd(d, *(q.xexp[i] for i in rest), *(q.zexp[i] for i in rest))
        if cp != cq:  # infeasible on R, or one word is the identity there (content d)
            skip = set(rest)
            order = sorted(range(n), key=lambda i: (p.xexp[i], p.zexp[i]) == (q.xexp[i], q.zexp[i]))
            anchor = next(
                (
                    i
                    for i in order
                    if i not in skip
                    and (c := math.gcd(p.xexp[i], p.zexp[i], d)) != d
                    and math.gcd(cp, c) == math.gcd(cq, c)
                ),
                None,
            )
            if anchor is None:
                gates, rest = [], list(range(n))
            else:
                gates = [g for g in gates if g[0] != anchor]
                rest = sorted(rest + [anchor])
        gates += _hub_gates(p, q, rest)
    return GateSequence._derived(tuple(gates), n, dim)


# ---------------------------------------------------------------------------
# single-qudit runs


def _act2(g: Gate, p: int, q: int, r: int, s: int, D: int) -> tuple[int, int, int, int]:
    """The entries of ``g``'s 2x2 block times [[p, q], [r, s]], mod D."""
    if type(g) is Fourier:
        return -r % D, -s % D, p, q
    _, e = g
    return p, q, (r + e * p) % D, (s + e * q) % D


def _closed_form(p: int, q: int, r: int, s: int, D: int) -> list[int]:
    """The letters (see `_word`) of a program for the 2x2 symplectic
    matrix M = [[p, q], [r, s]] (entries in [0, D)), at most 7 of them.

    The core, for a unit top-right entry q, is the matrix P^m F P^q F P^n
    with m, n read off the entries. F M F and M F^3 move r and p into that
    corner. Otherwise gcd(q, s, D) = 1, as det M = 1, so s + t*q is a unit
    for some t in [0, D); with the smallest such t, F^3 P^t M has the unit
    s + t*q in the corner, and M = P^(-t) F (F^3 P^t M). Each framing
    needs only F, not F^3, since F^2 = -I is central.

    No phase power is 0 and at most two Fourier gates meet, so the word is
    reduced: `merge_gates` leaves it as it is.
    """
    if (p, q, r, s) == (1, 0, 0, 1):
        return []

    def unit(v: int) -> bool:
        return gcd0(v, D) == 1

    def core(p: int, q: int, s: int) -> list[int]:
        qinv = pow(q, -1, D)
        m, n = qinv * (s + 1) % D, qinv * (p + 1) % D
        word = [n] if n else []
        word += [0, q, 0]
        return word + [m] if m else word

    if unit(q):
        return core(p, q, s)
    if unit(r):
        return [0] + core(-s % D, r, -p % D) + [0]
    if unit(p):
        return [0] + core(-q % D, p, r)
    t = next((t for t in range(D) if unit((s + t * q) % D)), None)
    if t is None:
        raise NonSymplecticError(f"[[{p}, {q}], [{r}, {s}]] is not symplectic mod {D}")
    word = core((r + t * p) % D, (s + t * q) % D, -q % D) + [0]
    return word + [D - t] if t else word


# Largest D whose shortest programs come from a breadth-first table of
# SL(2, Z_D), D^4 bytes (0.33 MB at D = 24). Above it, `_closed_form`.
MAX_TABLE_D = 24


@functools.cache
def _shortest_table(D: int) -> bytearray:
    """Breadth-first search over SL(2, Z_D) from the identity.

    The generators are F, then P^1 ... P^(D-1), in that order, so the
    table is deterministic. Entry ((p*D + q)*D + r)*D + s holds the last
    letter of a shortest program for [[p, q], [r, s]]: 1 for F, 1 + e for
    P^e, D + 1 for the identity and 0 for a matrix outside the group.

    Only the identity and the matrices first reached by F run the P^e
    loop. A matrix first reached as P^e M' was found by the P^e loop of
    M', which left every matrix of the coset {P^f M'} in the table. Its
    own loop would reach only that coset again and write nothing, so
    skipping it leaves every byte as it was.
    """
    table = bytearray(D**4)
    frontier = [D**3 + 1]  # indices, not tuples: a level holds thousands
    table[frontier[0]] = D + 1
    while frontier:
        found = []
        for i in frontier:
            p, q, r, s = i // D**3, i // D**2 % D, i // D % D, i % D
            j = ((-r % D * D + -s % D) * D + p) * D + q  # F M
            if not table[j]:
                table[j] = 1
                found.append(j)
            if 1 < table[i] <= D:
                continue
            row = i - i % (D * D)
            for e in range(1, D):  # P^e M
                r, s = (r + p) % D, (s + q) % D
                j = row + r * D + s
                if not table[j]:
                    table[j] = 1 + e
                    found.append(j)
        frontier = found
    return table


def _table_letters(p: int, q: int, r: int, s: int, D: int) -> list[int]:
    """The letters (see `_word`) of a shortest Fourier/phase program for
    [[p, q], [r, s]], D <= MAX_TABLE_D."""
    table = _shortest_table(D)
    word: list[int] = []
    while (p, q, r, s) != (1, 0, 0, 1):
        letter = table[((p * D + q) * D + r) * D + s]
        if letter == 1:  # M = F M'
            word.append(0)
            p, q, r, s = r, s, -p % D, -q % D
        else:  # M = P^e M'
            e = letter - 1
            word.append(e)
            r, s = (r - e * p) % D, (s - e * q) % D
    word.reverse()
    return word


def _shortest_letters(p: int, q: int, r: int, s: int, D: int) -> list[int]:
    """The letters of the shortest-known reduced program for [[p, q], [r, s]]:
    a shortest one from the table for D <= MAX_TABLE_D, else the closed
    form. Callers compare lengths first and build gates (`_word`) only
    for a word they emit."""
    if D <= MAX_TABLE_D:
        return _table_letters(p, q, r, s, D)
    return _closed_form(p, q, r, s, D)


def _shorter_run(run: list[Gate], D: int, qudit: int) -> list[Gate]:
    """The shortest-known program for the product of ``run`` if it is
    shorter than ``run``, else ``run`` itself."""
    p, q, r, s = 1, 0, 0, 1
    for g in run:
        p, q, r, s = _act2(g, p, q, r, s, D)
    short = _shortest_letters(p, q, r, s, D)
    return _word(short, qudit) if len(short) < len(run) else run


def _shorten_runs(gates: list[Gate], dim: Dimension) -> list[Gate]:
    """Re-synthesize each qudit's runs of Fourier and phase gates.

    A run is the single-qudit gates on one qudit between two sum gates
    that touch it. They commute with every gate between them on other
    qudits, so one scan gathers each run and emits it, or a shorter
    program for its 2x2 matrix, just before the sum gate that ends it,
    or at the end of the program. A one-gate run stays as it is: only P^0
    is shorter, which `_eliminate` never emits and the merge drops. The
    output is a fixed point of the pass and never longer than the input.
    """
    runs: dict[int, list[Gate]] = {}
    out: list[Gate] = []

    def flush(qudit: int) -> None:
        run = runs.pop(qudit, None)
        if run:
            out.extend(run if len(run) == 1 else _shorter_run(run, dim.D, qudit))

    for g in gates:
        if type(g) is Sum:
            c, t, _ = g
            flush(c)
            flush(t)
            out.append(g)
        else:
            runs.setdefault(g[0], []).append(g)
    for qudit in sorted(runs):
        flush(qudit)
    return out


# ---------------------------------------------------------------------------
# full decomposition


def _require_unit(vec: Sequence[int], idx: int, qudit: int, line: str) -> None:
    """Raise unless ``vec`` (row or column ``idx``) is the unit vector e_idx."""
    if vec[idx] != 1 or vec.count(0) != len(vec) - 1:
        raise SynthesisCheckError(
            f"qudit {qudit}: {line} {idx} is not the unit vector e_{idx}: {list(vec)}"
        )


def _is_unit(packed: _PackedRows, work: list[int], c: int, rows: Sequence[int] = ()) -> bool:
    """True iff column c of the packed rows ``work`` is e_c and each row r
    of ``rows`` is e_r: the `_require_unit` checks on packed ints. Column
    c is e_c iff field c is 1 in row c and 0 in the OR of the others."""
    at, field = packed.width * c, packed.field
    others = functools.reduce(int.__or__, work[:c] + work[c + 1 :])
    ok = (work[c] >> at) & field == 1 and not (others >> at) & field
    return ok and all(work[r] == packed.unit(r) for r in rows)


def _x_hub_gates(xs: Sequence[int], zs: Sequence[int], D: int) -> list[Gate] | None:
    """The pure-X hub form of a Z_j column step, j the last qudit: gates
    taking the word with exponents ``xs``, ``zs`` (in [0, D)) to a power
    of Z on qudit j, or None where the form does not apply.

    Each nonzero qudit (a, b) becomes a pure X power v: by P^s with
    s a = -b (no gate for b = 0, v = a) when gcd(a, D) divides b, else by
    F P^s with s b = a (v = -b) when gcd(b, D) divides a. A hub h with a
    unit v_h clears every other qudit i with Sum(h, i, -v_i/v_h), then
    Sum(h, j, (1 - v_j)/v_h) (none if 0) and Sum(j, h, -v_h) leave X on j
    alone, and F_j turns it into Z. The hub is j itself when v_j = 1 or
    when j holds the only unit; that ends on Z^(v_j), which the caller
    rescales with the one-qudit map (`_map_gates`). None when a qudit
    fits neither shape, no v is a unit, or the form would not save gates
    on the word normal form (`_peg_gates`): it takes F on each pure Z
    qudit and one gate fewer than that form on each other nonzero qudit,
    and one sum more, so it needs zf + 1 < mixed + xf (qudits with
    a = 0 != b, both nonzero, a != 0 = b).
    """
    zf = xf = mixed = 0
    for a, b in zip(xs, zs):
        if a:
            if b:
                mixed += 1
            else:
                xf += 1
        elif b:
            zf += 1
    if zf + 1 >= mixed + xf:
        return None
    gates: list[Gate] = []
    vs: list[int] = []
    for i, (a, b) in enumerate(zip(xs, zs)):
        g = math.gcd(a, D)
        if b % g == 0:  # a == b == 0 lands here too, with v = 0
            if b:
                gates.append(_gate(Phase, (i, _solve(a, -b, g, D))))
            vs.append(a)
            continue
        g = math.gcd(b, D)
        if a % g:
            return None
        gates.append(_fourier(i))
        if a:
            gates.append(_gate(Phase, (i, _solve(b, a, g, D))))
        vs.append(D - b)
    j = len(vs) - 1
    units = [i for i, v in enumerate(vs) if math.gcd(v, D) == 1]
    if not units:
        return None
    h = j if vs[j] == 1 or units == [j] else units[0]
    vinv = pow(vs[h], -1, D)
    sums = [(h, i, -v * vinv % D) for i, v in enumerate(vs[:j]) if v and i != h]
    if h != j:
        e = (1 - vs[j]) * vinv % D
        sums += [(h, j, e)] if e else []
        sums.append((j, h, D - vs[h]))
    gates += [_gate(Sum, s) for s in sums]
    gates.append(_fourier(j))
    return gates


def _eliminate(m: SymplecticMatrix) -> list[Gate]:
    """The unmerged elimination program of `decompose`, before `_shorten_runs`.

    Row operations (`_PackedRows.act`, a list per step) only, on one
    packed copy of ``m``'s inverse: the gates that reduce it to the
    identity are, in the order applied, a program for ``m``. A loop over
    the qudits j, last to first: the Z_j column, a word on qudits 0 to j,
    goes to Z_j with the pure-X hub (`_x_hub_gates`) where that form
    applies and saves gates, else with the word normal form (`_peg_gates`,
    target 1 mod D); either is rescaled by the one-qudit map
    (`_map_gates`, mod D) when it ends on a power of Z_j other than 1.
    The X_j column then has x_j = 1 (symplecticity), and gates that fix
    Z_j clear the rest of it: P^k (z_i + k x_i = 0) and a sum gate from
    j for a qudit with both x_i and z_i nonzero where gcd(x_i, D)
    divides z_i; else a sum gate from j for each x_i, a Fourier gate and
    a sum gate for each z_i; and a phase power on j for z_j.
    The gates for qudit i touch rows i, n + i and n + j alone, so every
    x_i and z_i is read before they go to the kernel, and z_j after.
    Qudit j is then the identity and no later step touches it; j = 0 is
    the same step on a one-qudit word.

    Each elimination is checked on packed rows (`_is_unit`); a failure
    raises `SynthesisCheckError` from `_require_unit`, and a column gcd
    that is not a unit raises `NonSymplecticError`.
    """
    n, dim = m.n, m.dim
    D = dim.D
    packed = _PackedRows(2 * n, D)
    work = [packed.pack(row) for row in inverse(m).rows]
    width, field = packed.width, packed.field
    gates: list[Gate] = []

    def push(step: list[Gate]) -> None:
        packed.act(work, step, n)
        gates.extend(step)

    for j in range(n - 1, -1, -1):
        z = n + j
        at = width * z
        xs = [(row >> at) & field for row in work[: j + 1]]
        zs = [(row >> at) & field for row in work[n : z + 1]]
        column = _x_hub_gates(xs, zs, D)
        push(_peg_gates(xs, zs, D, 1)[0] if column is None else column)
        k = (work[z] >> at) & field
        if math.gcd(k, D) != 1:
            raise NonSymplecticError(f"column gcd {k} is not a unit mod {D}")
        if k != 1:
            push(_map_gates(0, k, 0, 1, 1, D, j))
        if not _is_unit(packed, work, z):
            _require_unit([packed.entry(row, z) for row in work], z, j, "column")

        # clear column j with gates that fix Z_j; each reads x_j = 1
        at = width * j
        step: list[Gate] = []
        for i in range(j):
            x, e = (work[i] >> at) & field, (work[n + i] >> at) & field
            if x and e and e % (g := math.gcd(x, D)) == 0:  # P^k: (x, e) -> (x, 0)
                step += [_gate(Phase, (i, _solve(x, -e, g, D))), _gate(Sum, (j, i, D - x))]
                continue
            if x:
                step.append(_gate(Sum, (j, i, D - x)))
            if e:
                step += [_fourier(i), _gate(Sum, (j, i, e))]
        push(step)
        e = (work[z] >> at) & field
        if e:
            push([_gate(Phase, (j, D - e))])
        if not _is_unit(packed, work, j, (z, j)):
            _require_unit([packed.entry(row, j) for row in work], j, j, "column")
            _require_unit(packed.unpack(work[z]), z, j, "row")
            _require_unit(packed.unpack(work[j]), j, j, "row")
    return gates


def decompose(m: SymplecticMatrix) -> GateSequence:
    """Fourier/phase/sum program for any symplectic matrix, any n.

    The gates of `_eliminate`, which reduces ``m``'s inverse with row
    operations and the word normal form, with their single-qudit runs
    shortened by `_shorten_runs`, merged once, then recomposed on packed
    rows and compared with ``m``'s; a failure raises `SynthesisCheckError`
    naming the first entry that differs.
    """
    n, dim = m.n, m.dim
    gates = _merge_onto([], _shorten_runs(_eliminate(m), dim), dim.D, reduced=False)
    packed = _PackedRows(2 * n, dim.D)
    acc = [packed.unit(r) for r in range(2 * n)]
    packed.act(acc, gates, n)
    for r, (x, row) in enumerate(zip(acc, m.rows)):
        if x != packed.pack(row):
            got = packed.unpack(x)
            c = next(c for c, v in enumerate(row) if got[c] != v)
            raise SynthesisCheckError(
                f"the {len(gates)}-gate program does not recompose the input (n={n}, "
                f"d={dim.d}): entry ({r}, {c}) is {got[c]}, not {row[c]}"
            )
    return GateSequence._derived(tuple(gates), n, dim)


def decompose_single(m: SymplecticMatrix) -> GateSequence:
    """`decompose` of a 2x2 symplectic matrix: a Fourier/phase program, a
    shortest one for D <= MAX_TABLE_D and at most 7 gates above."""
    if m.n != 1:
        raise DimensionMismatchError(f"decompose_single needs a 2x2 matrix, got n={m.n}")
    return decompose(m)


def swap_sequence(i: int, j: int, n: int, dim: Dimension) -> GateSequence:
    """The fixed nine-gate program exchanging qudits i and j.

    Three sum gates interleaved with transversal Fourier pairs, then two
    closing Fourier gates on the target qudit.
    """
    n = _qudit_count(n)
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise DimensionMismatchError(f"swap needs distinct indices below {n}, got ({i}, {j})")
    gates = (Sum(i, j, 1), Fourier(i), Fourier(j)) * 2 + (Sum(i, j, 1), Fourier(j), Fourier(j))
    return GateSequence(gates, n, dim)
