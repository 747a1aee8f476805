"""The four workloads: what one operation is, and how its output is checked.

Each workload builds library objects from a seeded corpus (``build``),
runs one operation (``run``), checks the output with the reference
checkers (``check``, which raises ``CheckFailed`` or returns the gate
count of the program the operation produced or checked), and, in a traced
run, makes extra calls into the layers it exercises (``extras``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import cliffsynth
from cliffsynth import cli as cs_cli
from cliffsynth.symplectic import Fourier, Phase, Sum

import checkers as ref
import corpus


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def to_tuples(seq: cliffsynth.GateSequence) -> list[ref.Gate]:
    """A library program as the checkers' plain gate tuples."""
    out: list[ref.Gate] = []
    for g in seq.gates:
        if isinstance(g, Fourier):
            out.append(("F", g.qudit))
        elif isinstance(g, Phase):
            out.append(("P", g.qudit, g.power))
        elif isinstance(g, Sum):
            out.append(("C", g.control, g.target, g.power))
        else:
            raise CheckFailed(f"unknown gate {g!r}")
    return out


def to_library(g: ref.Gate):
    if g[0] == "F":
        return Fourier(g[1])
    if g[0] == "P":
        return Phase(g[1], g[2])
    return Sum(g[1], g[2], g[3])


def _program_of(seq: cliffsynth.GateSequence, n: int, d: int) -> list[ref.Gate]:
    expect(seq.n == n and seq.dim.d == d, f"program layout n={seq.n} d={seq.dim.d}, wanted n={n} d={d}")
    return to_tuples(seq)


# ---------------------------------------------------------------------------


class Workload:
    """What the four workloads share; see the module docstring."""

    name = ""

    def close(self) -> None:
        """Stop whatever the workload started."""


class Synth(Workload):
    """``decompose(m)`` on seeded symplectic matrices, sparse and dense."""

    name = "synth"

    def build(self, seed: int, tracer=None) -> list:
        cases = []
        for c in corpus.synth_corpus(seed):
            dim = cliffsynth.Dimension.of(c.d)
            arr = np.array(c.matrix, dtype=np.int64)
            with _span(tracer, "symplectic.validate"):
                m = cliffsynth.SymplecticMatrix(dim, arr)
            cases.append((c, m))
        return cases

    def op_span(self, case) -> str:
        return "synthesis.decompose"

    def run(self, case):
        return cliffsynth.decompose(case[1])

    def check(self, case, seq) -> int:
        c = case[0]
        gates = _program_of(seq, c.n, c.d)
        expect(ref.recompose(gates, c.n, ref.modulus(c.d)) == c.matrix,
               f"d={c.d} n={c.n} {c.kind}: program does not recompose to its input")
        return len(gates)

    def extras(self, case, seq, tracer, op_s: float) -> None:
        with tracer.span("symplectic.sequence_matrix"):
            cliffsynth.sequence_matrix(seq)
        with tracer.span("symplectic.merge_gates"):
            cliffsynth.merge_gates(seq.gates, seq.dim)


class Words(Workload):
    """``transport(p, q)`` and ``generalized_peg(w)`` on long words."""

    name = "words"

    def build(self, seed: int, tracer=None) -> list:
        def word(d, xs_zs):
            dim = cliffsynth.Dimension.of(d)
            xs, zs = tuple(xs_zs[0]), tuple(xs_zs[1])
            with _span(tracer, "pauli.word_build"):
                return cliffsynth.PauliWord(dim, xs, zs)

        cases = []
        for c in corpus.words_corpus(seed):
            if c.op == "transport":
                expect(ref.transport_feasible(c.p, c.q, c.d) == c.feasible, "corpus feasibility")
                cases.append((c, word(c.d, c.p), word(c.d, c.q)))
            else:
                cases.append((c, word(c.d, c.p), None))
        return cases

    def op_span(self, case) -> str:
        return "synthesis.transport" if case[0].op == "transport" else "synthesis.generalized_peg"

    def run(self, case):
        c, p, q = case
        if c.op == "transport":
            return cliffsynth.transport(p, q)
        return cliffsynth.generalized_peg(p)

    def check(self, case, out) -> int | None:
        c = case[0]
        xs, zs = c.p
        if c.op == "transport":
            feasible = ref.transport_feasible(c.p, c.q, c.d)
            expect((out is not None) == feasible,
                   f"d={c.d} n={c.n}: transport verdict {out is not None}, gcd rule says {feasible}")
            if out is None:
                return None
            gates = _program_of(out, c.n, c.d)
            expect(ref.act_on_word(gates, xs, zs, c.d) == (list(c.q[0]), list(c.q[1])),
                   f"d={c.d} n={c.n}: transport program does not map source to target")
            return len(gates)
        seq, k = out
        gates = _program_of(seq, c.n, c.d)
        expect(ref.peg_normal_ok(gates, xs, zs, k, c.d),
               f"d={c.d} n={c.n}: peg program does not reach Z^k with the word's gcd")
        return len(gates)

    def extras(self, case, out, tracer, op_s: float) -> None:
        c = case[0]
        seq = out if c.op == "transport" else out[0]
        if seq is None:
            return
        with tracer.span("symplectic.merge_gates"):
            cliffsynth.merge_gates(seq.gates, seq.dim)
        if c.op == "peg":
            with tracer.span("symplectic.inverse"):
                inv = seq.inverse()
            xs, zs = [0] * c.n, [0] * (c.n - 1) + [out[1]]
            expect(ref.act_on_word(to_tuples(inv), xs, zs, c.d) == (list(c.p[0]), list(c.p[1])),
                   f"d={c.d} n={c.n}: inverse peg program does not restore the word")


class Oracle(Workload):
    """``check_program(seq, m)`` on seeded programs, a share of them altered."""

    name = "oracle"

    def build(self, seed: int, tracer=None) -> list:
        cases = []
        for c in corpus.oracle_corpus(seed):
            dim = cliffsynth.Dimension.of(c.d)
            seq = cliffsynth.GateSequence(tuple(to_library(g) for g in c.gates), c.n, dim)
            m = cliffsynth.SymplecticMatrix(dim, np.array(c.matrix, dtype=np.int64))
            # The dense oracle compares actions on words, which live mod d.
            got = ref.recompose(c.gates, c.n, ref.modulus(c.d))
            accept = all(u % c.d == v % c.d for ru, rv in zip(got, c.matrix) for u, v in zip(ru, rv))
            expect(accept != c.altered, f"d={c.d} n={c.n}: alteration left the action unchanged")
            cases.append((c, seq, m, accept))
        return cases

    def op_span(self, case) -> str:
        return "unitary.check_accept" if case[3] else "unitary.check_reject"

    def run(self, case):
        return cliffsynth.check_program(case[1], case[2])

    def check(self, case, verdict) -> int:
        c, seq, _, accept = case
        expect(verdict is accept,
               f"d={c.d} n={c.n}: oracle verdict {verdict}, reference says {accept}")
        return len(seq)

    def extras(self, case, verdict, tracer, op_s: float) -> None:
        c, seq, _, _ = case
        with tracer.span("unitary.sequence_unitary") as s:
            cliffsynth.sequence_unitary(seq)
        tracer.record("unitary.conjugation", op_s - (s.end - s.start))
        seen = set()
        for g in seq.gates:
            if type(g) not in seen:
                seen.add(type(g))
                with tracer.span("unitary.gate_unitary"):
                    cliffsynth.gate_unitary(g, c.n, seq.dim)
        for word in (cliffsynth.PauliWord.x_generator(0, c.n, seq.dim),
                     cliffsynth.PauliWord.z_generator(0, c.n, seq.dim)):
            with tracer.span("unitary.word_unitary"):
                cliffsynth.word_unitary(word)


class Cli(Workload):
    """One ``python -m cliffsynth`` process per operation."""

    name = "cli"

    def __init__(self, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        self.outputs: dict[str, str] = {}
        env = dict(os.environ, PYTHONPATH=str(src))
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=30)
        self.spawner.stdout.close()

    def build(self, seed: int, tracer=None) -> list:
        cases = corpus.cli_corpus(seed)
        files = {}
        for c in cases:
            for fname, text in c.files.items():
                path = self.workdir / fname
                # Rewriting a file frees its blocks, which is slow on a file
                # system mounted with discard; repeated set-ups skip it.
                if not path.exists() or path.read_text() != text:
                    path.write_text(text)
                files[fname] = str(path)
        return [(c, [files.get(a, a) for a in c.argv]) for c in cases]

    def op_span(self, case) -> str:
        return "cli.process"

    def _spawn(self, argv: list[str], stdin_text: str | None = None):
        """Run one child to its end: exit code, stdout, stderr, peak memory in MB."""
        req = {"argv": argv, "cwd": str(self.workdir), "stdin": stdin_text}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        return reply["rc"], reply["stdout"], reply["stderr"], reply["rss_mb"]

    def run(self, case):
        c, argv = case
        stdin_text = self.outputs.get(c.stdin_from) if c.stdin_from else None
        rc, out, err, rss_mb = self._spawn([sys.executable, "-m", "cliffsynth", *argv], stdin_text)
        self.outputs[c.name] = out
        return rc, out, err, rss_mb

    def check(self, case, result) -> int | None:
        try:
            return self._check(case, result)
        except (ValueError, IndexError, KeyError) as exc:
            raise CheckFailed(f"{case[0].name}: unreadable output: {exc!r}") from exc

    def _check(self, case, result) -> int | None:
        c, argv = case
        rc, out, err, _ = result
        e = c.expect
        where = f"{c.name} ({c.argv[0]})"
        if argv[0] == "synth":
            expect(rc == 0, f"{where}: exit {rc}: {err.strip()}")
            gates, notes = ref.parse_program(out)
            expect(notes.get("gates") == len(gates), f"{where}: '# gates' line disagrees with the program")
            expect(ref.recompose(gates, e["n"], ref.modulus(e["d"])) == e["matrix"],
                   f"{where}: program does not recompose to the matrix")
            return len(gates)
        if argv[0] == "verify":
            expect(rc == 0 and out.strip() == "ok", f"{where}: exit {rc}, output {out.strip()!r}")
            return len(ref.parse_program(self.outputs[c.stdin_from])[0])
        if argv[0] == "transport":
            p, q, d = e["p"], e["q"], e["d"]
            feasible = ref.transport_feasible(p, q, d)
            expect(feasible == e["feasible"], f"{where}: corpus feasibility")
            if not feasible:
                expect(rc == 1 and out.strip() == "infeasible", f"{where}: exit {rc}, output {out.strip()!r}")
                return None
            expect(rc == 0, f"{where}: exit {rc}: {err.strip()}")
            gates, notes = ref.parse_program(out)
            expect(notes.get("gates") == len(gates), f"{where}: '# gates' line disagrees with the program")
            expect(ref.act_on_word(gates, p[0], p[1], d) == (list(q[0]), list(q[1])),
                   f"{where}: program does not map source to target")
            return len(gates)
        if argv[0] == "peg":
            expect(rc == 0, f"{where}: exit {rc}: {err.strip()}")
            gates, notes = ref.parse_program(out)
            w, d = e["w"], e["d"]
            expect(notes.get("gates") == len(gates) and "gcd" in notes, f"{where}: comment lines")
            expect(ref.peg_normal_ok(gates, w[0], w[1], notes["gcd"], d),
                   f"{where}: program does not reach Z^k with the word's gcd")
            return len(gates)
        expect(rc == 0, f"{where}: exit {rc}: {err.strip()}")
        check_embed(out, *e["emb"])
        return None

    def extras(self, case, result, tracer, op_s: float) -> None:
        c, argv = case
        tracer.record("cli.child_rss_mb", result[3])
        with tracer.span("cli.interpreter"):
            self._spawn([sys.executable, "-c", "pass"])
        with tracer.span("cli.import"):
            rc = self._spawn([sys.executable, "-c", "import cliffsynth"])[0]
        expect(rc == 0, "fresh import of cliffsynth failed")
        stdin_text = self.outputs.get(c.stdin_from, "") if c.stdin_from else ""
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tracer.span("cli.main"):
                    rc = cs_cli.main(argv)
        finally:
            sys.stdin = saved_stdin
        expect(rc == result[0] and out.getvalue() == result[1],
               f"{c.name}: in-process main disagrees with the child process")
        if argv[0] in ("synth", "verify"):
            text = Path(argv[1]).read_text()
            with tracer.span("symplectic.parse_matrix"):
                cliffsynth.parse_matrix_text(text)
        if argv[0] == "embed-check":
            emb = cliffsynth.Embedding(*c.expect["emb"])
            for gate in ("qft", "phase"):
                with tracer.span("embedding.feasible_single"):
                    cliffsynth.logical_feasible_single(emb, gate)


def check_embed(out: str, n: int, rx: int, rz: int) -> None:
    """``embed-check`` output against the substitution and exhaustive checks."""
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    expect(set(lines) == {"symplectic", "QFT", "PhaseShift", "SUM"}, f"embed-check lines {sorted(lines)}")
    verdicts = {}
    for gate, key in (("qft", "QFT"), ("phase", "PhaseShift")):
        if lines[key] == "infeasible":
            expect(not ref.single_feasible_scan(gate, n, rx, rz),
                   f"embed-check {n} {rx} {rz}: {key} infeasible, but a witness exists")
        else:
            entries = _witness(lines[key])
            expect(len(entries) == 4 and ref.single_witness_ok(gate, n, rx, rz, entries),
                   f"embed-check {n} {rx} {rz}: bad {key} witness {lines[key]}")
        verdicts[gate] = lines[key] != "infeasible"
    expect(lines["symplectic"] == ("yes" if all(verdicts.values()) else "no"),
           f"embed-check {n} {rx} {rz}: symplectic line {lines['symplectic']!r}")
    entries = _witness(lines["SUM"])
    expect(len(entries) == 16 and ref.sum_witness_ok(n, rx, rz, entries),
           f"embed-check {n} {rx} {rz}: bad SUM witness {lines['SUM']}")


def _witness(text: str) -> list[int]:
    expect(text.startswith("feasible [") and text.endswith("]"), f"witness text {text!r}")
    return [int(v) for v in text[len("feasible ["):-1].split()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
