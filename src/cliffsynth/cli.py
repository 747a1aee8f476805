"""Command-line front-end.

Subcommands: synth, transport, peg, verify, embed-check. All output is
line-oriented plain text; programs print one gate per line (first applied
first) followed by a ``# gates: <count>`` comment line.

Exit codes (the table in ``main``): 0 success, 1 infeasible transport,
2 parse/usage error (ParseError: also an input that is not UTF-8, or
``verify`` with both inputs on stdin; any other library error), 3 invalid
input (NonSymplecticError, DegenerateWordError, DimensionMismatchError,
MalformedMatrixError), 4 verification failure (also SynthesisCheckError),
5 scale cap exceeded (ScaleLimitError: a need above one of the caps in
``errors.SCALE_CAPS``, such as the dense oracle's side, embed-check's
ambient dimension or d itself). ``--verify unitary`` and ``verify --mode
unitary`` check the oracle's cap before any output and before numpy is
loaded. The oracle has no
tolerance to set: it decides each overlap at 1/2 (see ``unitary``).

Each subcommand imports only the modules it runs. Every call loads
``errors``, ``modring``, ``pauli`` and ``symplectic``; ``synth``,
``transport`` and ``peg`` add ``synthesis``, and ``embed-check`` adds
``embedding``. Only ``--verify unitary`` and ``verify --mode unitary``
import ``unitary``, and with it numpy; every other call runs on exact
Python integers alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    CliffSynthError,
    DegenerateWordError,
    DimensionMismatchError,
    MalformedMatrixError,
    NonSymplecticError,
    ParseError,
    ScaleLimitError,
    SynthesisCheckError,
    check_scale,
)
from .pauli import PauliWord, parse_word
from .symplectic import (
    GateSequence,
    SymplecticMatrix,
    apply_to_word,
    format_gate,
    parse_matrix_text,
    sequence_matrix,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_VERIFY = 4
EXIT_SCALE = 5


def _read_text(path: str) -> str:
    """The text of ``path``, or of stdin for ``-``, decoded strictly as UTF-8.

    Stdin is read as bytes where it has a buffer, so the locale's error
    handler (``surrogateescape`` under a C locale) never applies; a text
    stream without one, such as ``io.StringIO``, is read as it is.
    """
    try:
        if path != "-":
            return Path(path).read_text(encoding="utf-8")
        buffer = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_matrix(path: str) -> SymplecticMatrix:
    mat, dim = parse_matrix_text(_read_text(path))
    try:
        return SymplecticMatrix(dim, mat)
    except NonSymplecticError as exc:
        raise NonSymplecticError(f"{path}: {exc}") from None


def _print_program(seq: GateSequence) -> None:
    for g in seq:
        print(format_gate(g))
    print(f"# gates: {len(seq)}")


def _check_oracle_scale(args: argparse.Namespace, layout: SymplecticMatrix | PauliWord) -> None:
    if args.verify == "unitary":
        check_scale("dense oracle side", layout.dim.d**layout.n)


def _verify_word_map(
    args: argparse.Namespace, seq: GateSequence, source: PauliWord, target: PauliWord, what: str
) -> int:
    if args.verify == "symplectic" and apply_to_word(sequence_matrix(seq), source) != target:
        print(f"verification failed: program does not {what}", file=sys.stderr)
        return EXIT_VERIFY
    if args.verify == "unitary":
        from .unitary import _maps_words

        if not _maps_words(seq, [(source, target)]):
            print("verification failed: unitary oracle mismatch", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    # --verify symplectic adds nothing to decompose's own final recomposition.
    from .synthesis import decompose

    m = _load_matrix(args.matrix)
    _check_oracle_scale(args, m)
    seq = decompose(m)
    _print_program(seq)
    if args.verify == "unitary":
        from .unitary import check_program

        if not check_program(seq, m):
            print("verification failed: unitary oracle mismatch", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_transport(args: argparse.Namespace) -> int:
    from .synthesis import transport

    p, q = parse_word(args.source), parse_word(args.target)
    _check_oracle_scale(args, p)
    seq = transport(p, q)
    if seq is None:
        print("infeasible")
        return EXIT_INFEASIBLE
    _print_program(seq)
    return _verify_word_map(args, seq, p, q, "map source to target")


def _cmd_peg(args: argparse.Namespace) -> int:
    from .synthesis import generalized_peg

    w = parse_word(args.word)
    _check_oracle_scale(args, w)
    seq, k = generalized_peg(w)
    _print_program(seq)
    print(f"# gcd: {k}")
    normal = PauliWord(w.dim, (0,) * w.n, (0,) * (w.n - 1) + (k,))
    return _verify_word_map(args, seq, w, normal, "normalize the word")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.matrix == args.program == "-":
        raise ParseError("the matrix and the program cannot both be read from stdin")
    m = _load_matrix(args.matrix)
    seq = GateSequence.from_text(_read_text(args.program), m.n, m.dim)
    if args.mode == "symplectic":
        ok = sequence_matrix(seq) == m
    else:
        check_scale("dense oracle side", m.dim.d**m.n)
        from .unitary import check_program

        ok = check_program(seq, m)
    if not ok:
        print("mismatch")
        return EXIT_VERIFY
    print("ok")
    return EXIT_OK


def _format_witness(m: SymplecticMatrix) -> str:
    return "[" + " ".join(str(v) for row in m.rows for v in row) + "]"


def _cmd_embed_check(args: argparse.Namespace) -> int:
    from .embedding import Embedding, logical_feasible_single, logical_feasible_sum

    emb = Embedding(args.n, args.r_x, args.r_z)
    check_scale("embed-check d", emb.d)
    qft = logical_feasible_single(emb, "qft")
    phase = logical_feasible_single(emb, "phase")
    summ = logical_feasible_sum(emb)
    print(f"symplectic: {'yes' if qft is not None and phase is not None else 'no'}")
    print(f"QFT: {'feasible ' + _format_witness(qft) if qft is not None else 'infeasible'}")
    print(
        "PhaseShift: "
        + (("feasible " + _format_witness(phase)) if phase is not None else "infeasible")
    )
    print(f"SUM: feasible {_format_witness(summ)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsynth",
        description=(
            "Exact synthesis of qudit Clifford operations over the "
            "Fourier / phase-shift / sum gate set."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify_kwargs = dict(
        choices=["none", "symplectic", "unitary"],
        default="none",
        help="check the printed program before exiting",
    )

    p_synth = sub.add_parser("synth", help="decompose a symplectic matrix file")
    p_synth.add_argument("matrix", help="matrix file (or - for stdin)")
    p_synth.add_argument("--verify", **verify_kwargs)
    p_synth.set_defaults(func=_cmd_synth)

    p_tr = sub.add_parser("transport", help="map one Pauli word to another")
    p_tr.add_argument("source", help="word like 'd=6 n=2 a=1,0 b=0,3'")
    p_tr.add_argument("target", help="word in the same format")
    p_tr.add_argument("--verify", **verify_kwargs)
    p_tr.set_defaults(func=_cmd_transport)

    p_peg = sub.add_parser("peg", help="reduce a Pauli word to its normal form")
    p_peg.add_argument("word", help="word like 'd=6 n=2 a=1,0 b=0,3'")
    p_peg.add_argument("--verify", **verify_kwargs)
    p_peg.set_defaults(func=_cmd_peg)

    p_ver = sub.add_parser("verify", help="check a gate program against a matrix")
    p_ver.add_argument("matrix", help="matrix file (or - for stdin, with a program file)")
    p_ver.add_argument("program", nargs="?", default="-", help="program file (default stdin)")
    p_ver.add_argument(
        "--mode", choices=["symplectic", "unitary"], default="symplectic"
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_emb = sub.add_parser("embed-check", help="analyze a logical embedding")
    p_emb.add_argument("n", type=int, help="logical dimension")
    p_emb.add_argument("r_x", type=int, help="X spacing")
    p_emb.add_argument("r_z", type=int, help="Z spacing")
    p_emb.set_defaults(func=_cmd_embed_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliffSynthError as exc:
        # Error class -> (stderr prefix, exit code); the first match wins.
        for cls, prefix, code in (
            (ParseError, "parse error", EXIT_PARSE),
            ((NonSymplecticError, DegenerateWordError, DimensionMismatchError,
              MalformedMatrixError), "invalid input", EXIT_INVALID),
            (SynthesisCheckError, "verification failed", EXIT_VERIFY),
            (ScaleLimitError, "scale limit", EXIT_SCALE),
            (CliffSynthError, "error", EXIT_PARSE),
        ):
            if isinstance(exc, cls):
                break
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
