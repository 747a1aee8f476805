"""Exact synthesis of qudit Clifford operations.

Clifford operations on n qudits of dimension d are represented by
2n x 2n symplectic matrices over Z_D (D = d for odd d, 2d for even d).
The matrix records where the operation sends each Pauli word, up to that
word's own phase, so it fixes the operation only up to a Pauli word and
a global phase. This package decomposes any such matrix into an explicit
program over three gate families (Fourier, phase-shift, sum), transports
Pauli words into one another, verifies programs both symplectically and
against a dense-unitary oracle, and decides whether logical Clifford
gates survive an embedding of a small system into a larger qudit.

Importing the package loads none of its modules: each exported name
loads its module on first use (PEP 562), and so does each module's own
name, so ``cliffsynth.synthesis`` works after a bare ``import
cliffsynth``. The classical modules work on Python integers alone; the
dense oracle (``unitary``) needs numpy, which loads only with it. Each
subcommand of the command line loads what it runs: every one loads
``errors``, ``modring``, ``pauli`` and ``symplectic``, ``synth``,
``transport`` and ``peg`` add ``synthesis``, ``embed-check`` adds
``embedding``, and only the unitary checks add ``unitary`` (see ``cli``).
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it: `__all__`, `__dir__`
# and `__getattr__` all read this one table.
_EXPORTS = {
    **dict.fromkeys(
        (
            "Embedding",
            "check_symmetric_logical_action",
            "is_symplectic_embedding",
            "logical_basis_state",
            "logical_feasible_single",
            "logical_feasible_sum",
            "verify_single_witness",
        ),
        "embedding",
    ),
    **dict.fromkeys(
        (
            "CliffSynthError",
            "DegenerateWordError",
            "DimensionMismatchError",
            "MalformedMatrixError",
            "NonSymplecticError",
            "ParseError",
            "ScaleLimitError",
            "SynthesisCheckError",
        ),
        "errors",
    ),
    **dict.fromkeys(("Dimension", "gcd0", "mod_inverse"), "modring"),
    **dict.fromkeys(("PauliWord", "commutes", "format_word", "parse_word", "sip"), "pauli"),
    **dict.fromkeys(
        (
            "Fourier",
            "Gate",
            "GateSequence",
            "Phase",
            "Sum",
            "SymplecticMatrix",
            "apply_to_word",
            "compose",
            "format_gate",
            "format_matrix_text",
            "gate_matrix",
            "inverse",
            "is_symplectic",
            "merge_gates",
            "parse_gate_line",
            "parse_matrix_text",
            "sequence_matrix",
        ),
        "symplectic",
    ),
    **dict.fromkeys(
        (
            "decompose",
            "decompose_single",
            "generalized_peg",
            "peg_reduce",
            "scale_sequence",
            "sum_peg",
            "swap_sequence",
            "transport",
        ),
        "synthesis",
    ),
    **dict.fromkeys(
        (
            "DenseOperator",
            "check_program",
            "equal_up_to_phase",
            "gate_unitary",
            "omega",
            "pauli_unitaries",
            "sequence_unitary",
            "word_unitary",
        ),
        "unitary",
    ),
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Load an exported name, or a module of the table, on first use (PEP 562)."""
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _MODULES)
