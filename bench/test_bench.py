"""Tests of the benchmark's own code: the reference checkers reject
corrupted outputs, the corpora are seeded, and BENCHMARK.json names the
metrics the runner prints.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cliffsynth  # noqa: E402

import checkers as ref  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, to_library, to_tuples  # noqa: E402


def seq_of(gates, n, d):
    return cliffsynth.GateSequence(tuple(to_library(g) for g in gates), n, cliffsynth.Dimension.of(d))


def corruptions(gates, d):
    """Every one-gate drop, and one exponent change per phase or sum gate."""
    D = ref.modulus(d)
    for i in range(len(gates)):
        yield gates[:i] + gates[i + 1:]
    for i, g in enumerate(gates):
        if g[0] != "F":
            yield gates[:i] + [g[:-1] + ((g[-1] + 1 + i % (d - 1)) % D,)] + gates[i + 1:]


# ---------------------------------------------------------------------------
# the checkers' arithmetic, against explicit matrices and the library


def block_matrix(g, n, D):
    m = np.eye(2 * n, dtype=object)
    if g[0] == "F":
        i = g[1]
        m[i, i], m[i, n + i], m[n + i, i], m[n + i, n + i] = 0, -1, 1, 0
    elif g[0] == "P":
        m[n + g[1], g[1]] = g[2]
    else:
        _, c, t, e = g
        m[t, c] = e
        m[n + c, n + t] = -e
    return m


@pytest.mark.parametrize("d,n", [(2, 3), (5, 2), (6, 4), (97, 3)])
def test_recompose_is_the_product_of_gate_matrices(d, n):
    rng = random.Random(d * 100 + n)
    D = ref.modulus(d)
    gates = corpus.random_program(rng, n, d, 40)
    acc = np.eye(2 * n, dtype=object)
    for g in gates:
        acc = block_matrix(g, n, D).dot(acc) % D
    assert ref.recompose(gates, n, D) == acc.tolist()
    assert ref.is_symplectic(acc.tolist(), D)
    lib = cliffsynth.sequence_matrix(seq_of(gates, n, d)).mat.tolist()
    assert lib == acc.tolist()


@pytest.mark.parametrize("d,n", [(2, 3), (6, 4), (97, 3)])
def test_act_on_word_matches_the_matrix(d, n):
    rng = random.Random(d + n)
    gates = corpus.random_program(rng, n, d, 30)
    xs, zs = [rng.randrange(d) for _ in range(n)], [rng.randrange(d) for _ in range(n)]
    rows = ref.recompose(gates, n, ref.modulus(d))
    vec = [sum(r * v for r, v in zip(row, xs + zs)) % d for row in rows]
    assert ref.act_on_word(gates, xs, zs, d) == (vec[:n], vec[n:])


def test_is_symplectic_rejects_a_changed_entry():
    rows = ref.recompose(corpus.random_program(random.Random(1), 3, 5, 30), 3, 5)
    rows[1][4] = (rows[1][4] + 1) % 5
    assert not ref.is_symplectic(rows, 5)


def test_transport_rule_agrees_with_the_library():
    rng = random.Random(7)
    for d in (6, 12, 1024):
        for _ in range(10):
            divisors = corpus.proper_divisors(d)
            p = corpus.word_with_gcd(rng, 5, d, rng.choice(divisors))
            q = corpus.word_with_gcd(rng, 5, d, rng.choice(divisors))
            dim = cliffsynth.Dimension.of(d)
            lib = cliffsynth.transport(cliffsynth.PauliWord(dim, *map(tuple, p)),
                                       cliffsynth.PauliWord(dim, *map(tuple, q)))
            assert (lib is not None) == ref.transport_feasible(p, q, d)


@pytest.mark.parametrize("gate", ["qft", "phase"])
def test_exhaustive_scan_agrees_with_the_library(gate):
    for n, rx, rz in corpus.embeddings(corpus.EMBED_MAX_D):
        lib = cliffsynth.logical_feasible_single(cliffsynth.Embedding(n, rx, rz), gate)
        assert (lib is not None) == ref.single_feasible_scan(gate, n, rx, rz)
        if lib is not None:
            assert ref.single_witness_ok(gate, n, rx, rz, lib.mat.ravel().tolist())


# ---------------------------------------------------------------------------
# each workload's check rejects corrupted outputs


def test_synth_check_rejects_every_corruption():
    wl = workloads.Synth()
    case = next(c for c in wl.build(3) if c[0].n == 8)
    seq = wl.run(case)
    wl.check(case, seq)
    gates = to_tuples(seq)
    n, d = case[0].n, case[0].d
    for bad in corruptions(gates, d):
        with pytest.raises(CheckFailed):
            wl.check(case, seq_of(bad, n, d))


@pytest.mark.parametrize("op", ["transport", "peg"])
def test_words_check_agrees_with_the_library_on_corruptions(op):
    wl = workloads.Words()
    rng = random.Random(op)
    dim = cliffsynth.Dimension.of(6)
    p, q = corpus.word_with_gcd(rng, 4, 6, 2), corpus.word_with_gcd(rng, 4, 6, 2)
    c = corpus.WordsCase(6, 4, op, p, q, True)
    case = (c, cliffsynth.PauliWord(dim, *map(tuple, p)), cliffsynth.PauliWord(dim, *map(tuple, q)))
    out = wl.run(case)
    wl.check(case, out)
    p = case[1]
    seq, k = (out, None) if op == "transport" else out
    target = case[2] if op == "transport" else cliffsynth.PauliWord(
        p.dim, (0,) * c.n, (0,) * (c.n - 1) + (k,))
    caught = 0
    for bad in corruptions(to_tuples(seq), c.d):
        bad_seq = seq_of(bad, c.n, c.d)
        wrong = cliffsynth.apply_to_word(cliffsynth.sequence_matrix(bad_seq), p) != target
        bad_out = bad_seq if op == "transport" else (bad_seq, k)
        if wrong:
            caught += 1
            with pytest.raises(CheckFailed):
                wl.check(case, bad_out)
        else:
            wl.check(case, bad_out)
    assert caught > len(seq) // 2


def test_words_check_rejects_wrong_verdicts():
    wl = workloads.Words()
    cases = wl.build(2)
    feasible = next(c for c in cases if c[0].op == "transport" and c[0].feasible)
    infeasible = next(c for c in cases if c[0].op == "transport" and c[0].feasible is False)
    with pytest.raises(CheckFailed):
        wl.check(feasible, None)
    with pytest.raises(CheckFailed):
        wl.check(infeasible, wl.run(feasible))


def test_words_peg_check_rejects_a_wrong_gcd():
    wl = workloads.Words()
    case = next(c for c in wl.build(4) if c[0].op == "peg" and c[0].d == 1024)
    seq, k = wl.run(case)
    with pytest.raises(CheckFailed):
        wl.check(case, (seq, (k * 2) % 1024))


def test_oracle_reference_and_check():
    wl = workloads.Oracle()
    cases = [c for c in wl.build(1) if c[0].n * c[0].d <= 16]
    assert {c[3] for c in cases} == {True, False}
    for case in cases:
        verdict = wl.run(case)
        wl.check(case, verdict)
        with pytest.raises(CheckFailed):
            wl.check(case, not verdict)


def test_oracle_reference_rejects_corrupted_programs():
    """A corruption that changes the action on words mod d is a reject."""
    c = corpus.oracle_corpus(6)[0]
    m = cliffsynth.SymplecticMatrix(cliffsynth.Dimension.of(c.d), np.array(c.matrix))
    for bad in list(corruptions(c.gates, c.d))[:12]:
        got = ref.recompose(bad, c.n, ref.modulus(c.d))
        accept = all(u % c.d == v % c.d for ru, rv in zip(got, c.matrix) for u, v in zip(ru, rv))
        assert cliffsynth.check_program(seq_of(bad, c.n, c.d), m) == accept


@pytest.fixture
def cli_workload(tmp_path):
    wl = workloads.Cli(tmp_path, BENCH.parent / "src")
    yield wl
    wl.close()


def harmful_drop(gates, d, word, target):
    """The program with its first gate dropped whose loss the library says
    changes the image of ``word`` (exponent lists) away from ``target``."""
    n = len(word[0])
    dim = cliffsynth.Dimension.of(d)
    src = cliffsynth.PauliWord(dim, *map(tuple, word))
    for i in range(len(gates)):
        bad = gates[:i] + gates[i + 1:]
        img = cliffsynth.apply_to_word(cliffsynth.sequence_matrix(seq_of(bad, n, d)), src)
        if (list(img.xexp), list(img.zexp)) != (list(target[0]), list(target[1])):
            return bad
    raise AssertionError("no harmful drop")


def test_cli_checks_reject_corrupted_output(cli_workload):
    wl = cli_workload
    cases = {c[0].name: c for c in wl.build(1)}
    for name in ("synth0", "verify0", "transport1", "transport3", "peg0", "embed0"):
        case = cases[name]
        rc, out, err, rss = wl.run(case)
        wl.check(case, (rc, out, err, rss))
        e = case[0].expect
        if name in ("synth0", "transport1", "peg0"):
            gates, notes = ref.parse_program(out)
        if name == "synth0":
            bad = gates[1:]
        elif name == "transport1":
            bad = harmful_drop(gates, e["d"], e["p"], e["q"])
        elif name == "peg0":
            n = len(e["w"][0])
            bad = harmful_drop(gates, e["d"], e["w"], ([0] * n, [0] * (n - 1) + [notes["gcd"]]))
        if name in ("synth0", "transport1", "peg0"):
            text = "".join(" ".join(map(str, g)) + "\n" for g in bad) + f"# gates: {len(bad)}\n"
            text += f"# gcd: {notes['gcd']}\n" if "gcd" in notes else ""
            with pytest.raises(CheckFailed):
                wl.check(case, (rc, text, err, rss))
        elif name == "verify0":
            with pytest.raises(CheckFailed):
                wl.check(case, (4, "mismatch\n", err, rss))
        elif name == "transport3":
            with pytest.raises(CheckFailed):
                wl.check(case, (0, "# gates: 0\n", err, rss))
        with pytest.raises(CheckFailed):
            wl.check(case, (rc + 1, out, err, rss))
        with pytest.raises(CheckFailed):
            wl.check(case, (rc, out.replace("\n", " garbled\n", 1), err, rss))


def test_embed_check_rejects_corrupted_reports():
    good = "symplectic: no\nQFT: infeasible\nPhaseShift: feasible [1 0 4 1]\n" \
           "SUM: feasible [1 0 0 0 1 1 0 0 0 0 1 47 0 0 0 1]\n"
    workloads.check_embed(good, 2, 3, 4)
    bad = [
        good.replace("[1 0 4 1]", "[1 0 5 1]"),  # one exponent changed
        good.replace("PhaseShift: feasible [1 0 4 1]", "PhaseShift: infeasible"),
        good.replace("QFT: infeasible", "QFT: feasible [0 1 47 0]"),
        good.replace("symplectic: no", "symplectic: yes"),
        good.replace("1 47 0 0 0 1]", "1 46 0 0 0 1]"),
        good.replace("0 0 1 47", "0 1 47"),  # one SUM entry dropped
    ]
    for text in bad:
        with pytest.raises(CheckFailed):
            workloads.check_embed(text, 2, 3, 4)


# ---------------------------------------------------------------------------
# corpora and the benchmark description


@pytest.mark.parametrize("make", [corpus.synth_corpus, corpus.words_corpus,
                                  corpus.oracle_corpus, corpus.cli_corpus])
def test_corpus_is_a_function_of_the_seed(make):
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in run.PER_LAYER
    }


def test_runner_refuses_a_directory_without_sources(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "synth", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
