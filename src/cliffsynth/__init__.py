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

The classical modules work on Python integers alone. The dense oracle
(``unitary``) needs numpy, so its names are loaded on first use.
"""

from .embedding import (
    Embedding,
    check_symmetric_logical_action,
    is_symplectic_embedding,
    logical_basis_state,
    logical_feasible_single,
    logical_feasible_sum,
    verify_single_witness,
)
from .errors import (
    CliffSynthError,
    DegenerateWordError,
    DimensionMismatchError,
    MalformedMatrixError,
    NonSymplecticError,
    ParseError,
    ScaleLimitError,
    SynthesisCheckError,
)
from .modring import Dimension, gcd0, mod_inverse
from .pauli import PauliWord, commutes, format_word, parse_word, sip
from .symplectic import (
    Fourier,
    Gate,
    GateSequence,
    Phase,
    Sum,
    SymplecticMatrix,
    apply_to_word,
    compose,
    format_gate,
    format_matrix_text,
    gate_matrix,
    inverse,
    is_symplectic,
    merge_gates,
    parse_gate_line,
    parse_matrix_text,
    sequence_matrix,
)
from .synthesis import (
    decompose,
    decompose_single,
    generalized_peg,
    peg_reduce,
    scale_sequence,
    sum_peg,
    swap_sequence,
    transport,
)

_UNITARY_NAMES = frozenset(
    {
        "DenseOperator",
        "check_program",
        "equal_up_to_phase",
        "gate_unitary",
        "omega",
        "pauli_unitaries",
        "sequence_unitary",
        "word_unitary",
    }
)


def __getattr__(name: str):
    """Load ``unitary``, and numpy with it, on the first use of its names (PEP 562)."""
    if name in _UNITARY_NAMES:
        from . import unitary

        value = globals()[name] = getattr(unitary, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _UNITARY_NAMES)

__version__ = "0.1.0"

__all__ = [
    "CliffSynthError",
    "DegenerateWordError",
    "DenseOperator",
    "Dimension",
    "DimensionMismatchError",
    "Embedding",
    "Fourier",
    "Gate",
    "GateSequence",
    "MalformedMatrixError",
    "NonSymplecticError",
    "ParseError",
    "PauliWord",
    "Phase",
    "ScaleLimitError",
    "Sum",
    "SymplecticMatrix",
    "SynthesisCheckError",
    "apply_to_word",
    "check_program",
    "check_symmetric_logical_action",
    "commutes",
    "compose",
    "decompose",
    "decompose_single",
    "equal_up_to_phase",
    "format_gate",
    "format_matrix_text",
    "format_word",
    "gate_matrix",
    "gate_unitary",
    "gcd0",
    "generalized_peg",
    "inverse",
    "is_symplectic",
    "is_symplectic_embedding",
    "logical_basis_state",
    "logical_feasible_single",
    "logical_feasible_sum",
    "merge_gates",
    "mod_inverse",
    "omega",
    "parse_gate_line",
    "parse_matrix_text",
    "parse_word",
    "pauli_unitaries",
    "peg_reduce",
    "scale_sequence",
    "sequence_matrix",
    "sequence_unitary",
    "sip",
    "sum_peg",
    "swap_sequence",
    "transport",
    "verify_single_witness",
    "word_unitary",
]
