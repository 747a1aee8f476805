import io
import re
import subprocess
import sys

import numpy as np
import pytest

import cliffsynth
from cliffsynth import Dimension, GateSequence, sequence_matrix
from cliffsynth.cli import main
from cliffsynth.symplectic import Phase, format_matrix_text

from conftest import cap_message, child_env, random_gate_sequence

GOLDEN_TEXT = "d 6 n 1\n10 9\n3 4\n"
SWAP_D3_TEXT = "d 3 n 2\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n"
# side 17^2 = 289 is over the dense oracle's cap of 256
IDENTITY_D17_N2_TEXT = "d 17 n 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
WORD_D17_N2 = "d=17 n=2 a=1,0 b=0,3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_worked_matrix(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(GOLDEN_TEXT)
        code, out, _ = run(capsys, "synth", str(f), "--verify", "symplectic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("# gates: ")
        seq = GateSequence.from_text(out, 1, Dimension.of(6))
        assert np.array_equal(sequence_matrix(seq).mat, [[10, 9], [3, 4]])

    def test_identity_matrix(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("d 5 n 1\n1 0\n0 1\n")
        code, out, _ = run(capsys, "synth", str(f))
        assert code == 0
        assert out.strip() == "# gates: 0"

    def test_swap_with_unitary_verification(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(SWAP_D3_TEXT)
        code, out, _ = run(capsys, "synth", str(f), "--verify", "unitary")
        assert code == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("garbage\n")
        code, _, err = run(capsys, "synth", str(f))
        assert code == 2 and "parse error" in err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "synth", str(f))
        assert code == 2 and out == ""
        assert err.startswith("parse error: cannot read ") and "utf-8" in err

    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "synth", "-")
        assert code == 2 and out == ""
        assert err.startswith("parse error: cannot read -")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "synth", "/nonexistent/m.txt")
        assert code == 2

    def test_non_symplectic_exit_3(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("d 6 n 1\n1 1\n1 1\n")
        code, _, err = run(capsys, "synth", str(f))
        assert code == 3 and "invalid input" in err

    def test_non_symplectic_names_path_and_defect(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("d 6 n 1\n1 1\n1 1\n")
        code, _, err = run(capsys, "synth", str(f))
        assert code == 3
        assert err == (
            f"invalid input: {f}: matrix is not symplectic mod 12: the images of X_0 and"
            " Z_0 (columns 0 and 1) have symplectic product 0, not 1\n"
        )

    def test_synthesis_check_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        # decompose's own final check is what --verify symplectic relies on
        merge = cliffsynth.synthesis._merge_onto
        monkeypatch.setattr(
            cliffsynth.synthesis, "_merge_onto", lambda *a, **k: merge(*a, **k)[:-1]
        )
        f = tmp_path / "m.txt"
        f.write_text(GOLDEN_TEXT)
        code, out, err = run(capsys, "synth", str(f), "--verify", "symplectic")
        assert code == 4 and out == ""
        assert err.startswith("verification failed: ") and "Traceback" not in err


class TestOracleCapBeforeOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "{matrix}"],
            ["transport", WORD_D17_N2, WORD_D17_N2],
            ["peg", WORD_D17_N2],
        ],
    )
    def test_verify_unitary_over_cap_prints_nothing(self, tmp_path, capsys, argv):
        f = tmp_path / "m.txt"
        f.write_text(IDENTITY_D17_N2_TEXT)
        argv = [a.format(matrix=f) for a in argv]
        code, out, err = run(capsys, *argv, "--verify", "unitary")
        assert code == 5 and out == ""
        assert err == f"scale limit: {cap_message('dense oracle side', 289)}\n"


class TestDimensionCap:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["peg", "d=2000001 n=1 a=1 b=0"], None),
            (["synth", "{matrix}"], "d 1000001 n 1\n1 0\n0 1\n"),
            # a = d is out of range too, but the cap on d is reported first
            (["peg", "d=1000001 n=1 a=1000001 b=0"], None),
        ],
    )
    def test_dimension_over_cap_exit_5(self, tmp_path, capsys, argv, text):
        f = tmp_path / "m.txt"
        if text is not None:
            f.write_text(text)
        code, out, err = run(capsys, *[a.format(matrix=f) for a in argv])
        need = int(re.match(r"d[= ](\d+)", text or argv[1]).group(1))
        assert code == 5 and out == ""
        assert err == f"scale limit: {cap_message('dimension d', need)}\n"


class TestTransport:
    def test_feasible_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "transport",
            "d=5 n=1 a=1 b=0",
            "d=5 n=1 a=0 b=1",
            "--verify",
            "unitary",
        )
        assert code == 0
        assert "# gates:" in out

    def test_infeasible_pair_exit_1(self, capsys):
        code, out, _ = run(capsys, "transport", "d=4 n=1 a=0 b=2", "d=4 n=1 a=0 b=1")
        assert code == 1
        assert out.strip() == "infeasible"

    def test_same_word_empty_program(self, capsys):
        code, out, _ = run(capsys, "transport", "d=6 n=2 a=1,0 b=0,3", "d=6 n=2 a=1,0 b=0,3")
        assert code == 0
        assert out.strip() == "# gates: 0"

    def test_bad_word_exit_2(self, capsys):
        code, _, err = run(capsys, "transport", "not-a-word", "d=4 n=1 a=0 b=1")
        assert code == 2

    def test_identity_word_exit_3(self, capsys):
        code, _, err = run(capsys, "transport", "d=4 n=1 a=0 b=0", "d=4 n=1 a=0 b=1")
        assert code == 3

    @pytest.mark.parametrize("target", ["d=5 n=2 a=1,0 b=0,0", "d=7 n=1 a=1 b=0"])
    def test_layout_mismatch_exit_3(self, capsys, target):
        code, out, err = run(capsys, "transport", "d=5 n=1 a=1 b=0", target)
        assert code == 3 and out == ""
        assert err.startswith("invalid input: ")


class TestPeg:
    def test_normal_form(self, capsys):
        code, out, _ = run(capsys, "peg", "d=12 n=2 a=3,6 b=4,9", "--verify", "symplectic")
        assert code == 0
        assert "# gcd: 1" in out

    def test_identity_word_exit_3(self, capsys):
        code, _, _ = run(capsys, "peg", "d=6 n=1 a=0 b=0")
        assert code == 3

    def test_dimension_below_two_exit_2(self, capsys):
        # the dimension is refused before the exponents are range-checked
        code, out, err = run(capsys, "peg", "d=1 n=1 a=1 b=0")
        assert code == 2 and out == ""
        assert err == "parse error: Pauli word dimension must be d >= 2, got d=1\n"


class TestVerify:
    def test_round_trip_via_files(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text(GOLDEN_TEXT)
        code, out, _ = run(capsys, "synth", str(m))
        assert code == 0
        prog = tmp_path / "prog.txt"
        prog.write_text(out)
        code, out2, _ = run(capsys, "verify", str(m), str(prog))
        assert code == 0 and out2.strip() == "ok"
        code, out3, _ = run(capsys, "verify", str(m), str(prog), "--mode", "unitary")
        assert code == 0 and out3.strip() == "ok"

    def test_round_trip_via_stdin(self, tmp_path, capsys, monkeypatch):
        m = tmp_path / "m.txt"
        m.write_text(SWAP_D3_TEXT)
        code, out, _ = run(capsys, "synth", str(m))
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "verify", str(m))
        assert code == 0 and out2.strip() == "ok"

    @pytest.mark.parametrize("argv", [["-"], ["-", "-"]])
    def test_matrix_and_program_both_stdin_exit_2(self, capsys, monkeypatch, argv):
        # the program would come from the stdin the matrix drained, and an
        # empty program would pass for the identity
        monkeypatch.setattr(sys, "stdin", io.StringIO("d 5 n 1\n1 0\n0 1\n"))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and "stdin" in err

    def test_matrix_from_stdin(self, tmp_path, capsys, monkeypatch):
        prog = tmp_path / "prog.txt"
        prog.write_text("F 0\nF 0\nF 0\nF 0\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("d 5 n 1\n1 0\n0 1\n"))
        code, out, _ = run(capsys, "verify", "-", str(prog))
        assert code == 0 and out.strip() == "ok"

    def test_non_utf8_program_exit_2(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text(GOLDEN_TEXT)
        prog = tmp_path / "prog.txt"
        prog.write_bytes(b"F 0\n\xff\xfe\n")
        code, out, err = run(capsys, "verify", str(m), str(prog))
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: cannot read {prog}")

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "0"])
    @pytest.mark.parametrize("command", ["verify", "synth", "embed-check"])
    def test_cs_tol_changes_nothing(self, tmp_path, capsys, monkeypatch, value, command):
        # CS_TOL names no setting, so any value of it must leave every command alone
        m = tmp_path / "m.txt"
        m.write_text(GOLDEN_TEXT)
        prog = tmp_path / "prog.txt"
        prog.write_text("F 0\nP 0 4\nF 0\nP 0 10\nF 0\nP 0 4\n")  # synth's program
        argv, first_line = {
            "verify": (["verify", str(m), str(prog), "--mode", "unitary"], "ok"),
            "synth": (["synth", str(m), "--verify", "unitary"], "F 0"),
            "embed-check": (["embed-check", "2", "2", "2"], "symplectic: yes"),
        }[command]
        monkeypatch.delenv("CS_TOL", raising=False)
        plain = run(capsys, *argv)
        monkeypatch.setenv("CS_TOL", value)
        assert run(capsys, *argv) == plain
        code, out, err = plain
        assert code == 0 and out.splitlines()[0] == first_line and err == ""

    def test_gate_out_of_range_exit_3(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text(GOLDEN_TEXT)
        prog = tmp_path / "prog.txt"
        prog.write_text("F 5\n")
        code, out, err = run(capsys, "verify", str(m), str(prog))
        assert code == 3 and out == ""
        assert err.startswith("invalid input: ") and "out of range for n=1" in err

    def test_mismatch_exit_4(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text(GOLDEN_TEXT)
        prog = tmp_path / "prog.txt"
        prog.write_text("F 0\n")
        code, out, _ = run(capsys, "verify", str(m), str(prog))
        assert code == 4 and out.strip() == "mismatch"
        code, out, _ = run(capsys, "verify", str(m), str(prog), "--mode", "unitary")
        assert code == 4 and out.strip() == "mismatch"

    def test_long_d256_program_unitary_ok(self, tmp_path, capsys):
        # 600 gates at d = 256: float error stays far below the oracle's cut
        seq = random_gate_sequence(1, Dimension.of(256), 600, 0)
        m = tmp_path / "m.txt"
        m.write_text(format_matrix_text(sequence_matrix(seq)))
        prog = tmp_path / "prog.txt"
        prog.write_text(seq.to_text())
        for mode in ("symplectic", "unitary"):
            code, out, _ = run(capsys, "verify", str(m), str(prog), "--mode", mode)
            assert code == 0 and out == "ok\n"


class TestUnitaryWordMapRejection:
    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "d=6 n=2 a=1,0 b=0,3", "d=6 n=2 a=0,0 b=1,0"],
            ["peg", "d=6 n=2 a=1,0 b=0,3"],
        ],
    )
    def test_wrong_program_exit_4(self, capsys, monkeypatch, argv):
        wrong = GateSequence((Phase(0, 1),), 2, Dimension.of(6))
        monkeypatch.setattr(cliffsynth.synthesis, "transport", lambda p, q: wrong)
        monkeypatch.setattr(cliffsynth.synthesis, "generalized_peg", lambda w: (wrong, 1))
        code, out, err = run(capsys, *argv, "--verify", "unitary")
        assert code == 4 and out.startswith("P 0 1\n# gates: 1\n")
        assert err == "verification failed: unitary oracle mismatch\n"


class TestEmbedCheck:
    def test_asymmetric_d24(self, capsys):
        code, out, _ = run(capsys, "embed-check", "2", "3", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "symplectic: no"
        assert lines[1] == "QFT: infeasible"
        assert lines[2] == "PhaseShift: feasible [1 0 4 1]"
        assert lines[3].startswith("SUM: feasible [")

    def test_symmetric_d8(self, capsys):
        code, out, _ = run(capsys, "embed-check", "2", "2", "2")
        assert code == 0
        assert out.strip().splitlines()[0] == "symplectic: yes"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "embed-check", "2", "1", "1")
        assert code == 0
        assert out.strip().splitlines()[0] == "symplectic: yes"

    def test_scale_cap_exit_5(self, capsys):
        code, out, err = run(capsys, "embed-check", "2", "3", "7")
        assert code == 5 and out == ""
        assert err == f"scale limit: {cap_message('embed-check d', 42)}\n"

    def test_bad_parameters_exit_2(self, capsys):
        code, _, _ = run(capsys, "embed-check", "1", "1", "1")
        assert code == 2


class TestSubprocess:
    @pytest.mark.parametrize("argv", [["synth", "-"], ["verify", "m.txt", "-"]])
    def test_non_utf8_stdin_under_c_locale_exit_2(self, tmp_path, argv):
        # a C locale gives stdin the surrogateescape handler; the bytes
        # must still be refused as input that is not UTF-8
        (tmp_path / "m.txt").write_text(GOLDEN_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "cliffsynth", *argv],
            input=b"\xff",
            capture_output=True,
            cwd=tmp_path,
            env=child_env(LC_ALL="C"),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"cannot read -" in proc.stderr

    def test_module_invocation(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text(GOLDEN_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "cliffsynth", "synth", str(m), "--verify", "unitary"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "# gates:" in proc.stdout

    def test_cs_tol_changes_nothing_in_child(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text(SWAP_D3_TEXT)
        argv = [sys.executable, "-m", "cliffsynth", "synth", str(m), "--verify", "unitary"]
        plain = subprocess.run(argv, capture_output=True, text=True, env=child_env())
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(CS_TOL="1e-12"))
        assert proc.returncode == plain.returncode == 0
        assert proc.stdout == plain.stdout


class TestNumpyOnlyForTheOracle:
    """Child processes load numpy only for the dense oracle.

    ``-X importtime`` lists every module a child imports on stderr, so a
    missing ``numpy`` line shows that nothing imported it.
    """

    def _child(self, tmp_path, *args, stdin=None):
        (tmp_path / "m.txt").write_text(SWAP_D3_TEXT)
        (tmp_path / "good.txt").write_text("C 0 1 1\nF 0\nF 1\nC 0 1 1\nF 0\nF 1\nC 0 1 1\nF 1\nF 1\n")
        (tmp_path / "bad.txt").write_text("C 0 1 1\n")
        return subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )

    @staticmethod
    def _loads_numpy(stderr: str) -> bool:
        return any(line.split("|")[-1].strip() == "numpy" for line in stderr.splitlines())

    @pytest.mark.parametrize(
        "args",
        [
            ["-c", "import cliffsynth"],
            ["-c", "import cliffsynth.cli"],
            ["-m", "cliffsynth", "synth", "m.txt", "--verify", "symplectic"],
            ["-m", "cliffsynth", "verify", "m.txt", "good.txt", "--mode", "symplectic"],
            ["-m", "cliffsynth", "transport", "d=6 n=2 a=1,0 b=0,3", "d=6 n=2 a=0,2 b=3,1"],
            ["-m", "cliffsynth", "peg", "d=7 n=2 a=1,2 b=3,4"],
            ["-m", "cliffsynth", "embed-check", "2", "3", "4"],
        ],
    )
    def test_exact_paths_never_load_numpy(self, tmp_path, args):
        proc = self._child(tmp_path, *args)
        assert proc.returncode == 0, proc.stderr
        assert not self._loads_numpy(proc.stderr)

    @pytest.mark.parametrize(
        "args, code, out",
        [
            (["synth", "m.txt", "--verify", "unitary"], 0, None),
            (["verify", "m.txt", "good.txt", "--mode", "unitary"], 0, "ok\n"),
            (["verify", "m.txt", "bad.txt", "--mode", "unitary"], 4, "mismatch\n"),
            (["peg", "d=7 n=2 a=1,2 b=3,4", "--verify", "unitary"], 0, None),
            (["transport", "d=6 n=2 a=1,0 b=0,3", "d=6 n=2 a=0,2 b=3,1", "--verify", "unitary"], 0, None),
        ],
    )
    def test_unitary_paths_load_numpy_and_decide(self, tmp_path, args, code, out):
        proc = self._child(tmp_path, "-m", "cliffsynth", *args)
        assert proc.returncode == code, proc.stderr
        assert out is None or proc.stdout == out
        assert self._loads_numpy(proc.stderr)

    @pytest.mark.parametrize(
        "args",
        [
            ["synth", "d17.txt"],
            ["transport", WORD_D17_N2, WORD_D17_N2],
            ["peg", WORD_D17_N2],
        ],
    )
    def test_over_cap_unitary_exits_5_without_numpy(self, tmp_path, args):
        (tmp_path / "d17.txt").write_text(IDENTITY_D17_N2_TEXT)
        proc = self._child(tmp_path, "-m", "cliffsynth", *args, "--verify", "unitary")
        assert proc.returncode == 5 and proc.stdout == ""
        assert f"scale limit: {cap_message('dense oracle side', 289)}\n" in proc.stderr
        assert not self._loads_numpy(proc.stderr)

    def test_over_cap_verify_unitary_exits_5_without_numpy(self, tmp_path):
        (tmp_path / "d17.txt").write_text(IDENTITY_D17_N2_TEXT)
        (tmp_path / "prog.txt").write_text("F 0\nF 0\nF 0\nF 0\n")
        proc = self._child(
            tmp_path, "-m", "cliffsynth", "verify", "d17.txt", "prog.txt", "--mode", "unitary"
        )
        assert proc.returncode == 5 and proc.stdout == ""
        assert f"scale limit: {cap_message('dense oracle side', 289)}\n" in proc.stderr
        assert not self._loads_numpy(proc.stderr)


class TestModuleLoads:
    """A cold child loads the modules its subcommand runs and no others.

    The child runs ``cli.main`` as ``python -m cliffsynth`` does, then
    writes the names in ``sys.modules`` to stderr.
    """

    CHILD = (
        "import sys\n"
        "from cliffsynth.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    # modules a call must not load; no call loads dataclasses
    NO_SYNTHESIS = {"cliffsynth.synthesis", "dataclasses"}
    NO_EMBEDDING_OR_UNITARY = {"cliffsynth.embedding", "cliffsynth.unitary", "dataclasses"}

    def test_bare_import_loads_no_submodule(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, cliffsynth; print(*sys.modules)"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        modules = proc.stdout.split()
        assert "cliffsynth" in modules
        assert [m for m in modules if m.startswith("cliffsynth.")] == []
        assert "dataclasses" not in modules

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["verify", "m.txt", "good.txt", "--mode", "symplectic"], NO_SYNTHESIS),
            (["embed-check", "2", "3", "4"], NO_SYNTHESIS),
            (["synth", "m.txt", "--verify", "symplectic"], NO_EMBEDDING_OR_UNITARY),
            (["transport", "d=6 n=2 a=1,0 b=0,3", "d=6 n=2 a=0,2 b=3,1"], NO_EMBEDDING_OR_UNITARY),
            (["peg", "d=7 n=2 a=1,2 b=3,4"], NO_EMBEDDING_OR_UNITARY),
        ],
    )
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, argv, absent):
        (tmp_path / "m.txt").write_text(SWAP_D3_TEXT)
        (tmp_path / "good.txt").write_text("C 0 1 1\nF 0\nF 1\nC 0 1 1\nF 0\nF 1\nC 0 1 1\nF 1\nF 1\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stderr.split())
        assert "cliffsynth.symplectic" in modules
        assert modules & absent == set()
