import os
import random
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import cliffsynth
from cliffsynth import Dimension, GateSequence, PauliWord
from cliffsynth.errors import SCALE_CAPS
from cliffsynth.symplectic import Fourier, Phase, Sum


def random_gate_sequence(n: int, dim: Dimension, length: int, seed: int) -> GateSequence:
    """Seeded random product of generator gates (valid indices/exponents)."""
    rng = random.Random(seed)
    gates = []
    for _ in range(length):
        kind = rng.randrange(3 if n > 1 else 2)
        if kind == 0:
            gates.append(Fourier(rng.randrange(n)))
        elif kind == 1:
            gates.append(Phase(rng.randrange(n), rng.randrange(dim.D)))
        else:
            c = rng.randrange(n)
            t = rng.randrange(n - 1)
            if t >= c:
                t += 1
            gates.append(Sum(c, t, rng.randrange(dim.D)))
    return GateSequence(tuple(gates), n, dim)


@st.composite
def gate_lists(draw, dims=(2, 3, 12, 97), max_n=8, max_size=40, min_size=0):
    """(gates, n, dim): ``min_size`` to ``max_size`` gates on n <= ``max_n``
    qudits, d drawn from ``dims``, powers in [-2D, 2D]."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, max_n))
    dim = Dimension.of(d)
    qudit = st.integers(0, n - 1)
    power = st.integers(-2 * dim.D, 2 * dim.D)
    kinds = [st.builds(Fourier, qudit), st.builds(Phase, qudit, power)]
    if n > 1:
        pair = st.tuples(qudit, qudit).filter(lambda ct: ct[0] != ct[1])
        kinds.append(st.builds(lambda ct, e: Sum(ct[0], ct[1], e), pair, power))
    return draw(st.lists(st.one_of(kinds), min_size=min_size, max_size=max_size)), n, dim


def random_word_exponents(n: int, d: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rng = random.Random(seed)
    return (
        tuple(rng.randrange(d) for _ in range(n)),
        tuple(rng.randrange(d) for _ in range(n)),
    )


def word_vector(w: PauliWord) -> np.ndarray:
    """Exponent vector (a_1..a_n, b_1..b_n) of a word as an int64 array."""
    return np.array(w.xexp + w.zexp, dtype=np.int64)


def cap_message(name: str, need: int) -> str:
    """The exact `ScaleLimitError` message for a need above the cap ``name``."""
    cap, bounds = SCALE_CAPS[name]
    return f"{name} {need} exceeds the cap {cap} ({bounds})"


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child interpreter that imports this checkout.

    Puts the directory holding the imported ``cliffsynth`` package first
    on PYTHONPATH.
    """
    env = dict(os.environ)
    root = str(Path(cliffsynth.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    env.update(extra)
    return env
