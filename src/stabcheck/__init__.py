"""Stabilizer codes over the binary symplectic representation.

Build codes from Pauli strings or check matrices, compute syndromes,
decide degeneracy exactly or via column criteria, bound and search the
minimum distance, and Monte Carlo a Pauli channel against a
minimum-weight decoder.  The `stabcheck` command exposes the same
operations on code files.
"""

from .channel import (
    DecoderTable,
    PauliChannel,
    SimResult,
    build_table,
    sample_error,
    wilson_interval,
)
from .channel import run as simulate
from .codefile import (
    BINARY_MATRIX,
    PAULI_STRINGS,
    CodeFile,
    CodeFileError,
    parse_code_file,
    read_code_file,
)
from .codes import (
    five_qubit,
    random_code,
    random_css_code,
    shor,
    steane,
    three_qubit_bit_flip,
)
from .degeneracy import (
    DEFAULT_BUDGET,
    ClassificationReport,
    CollisionWitness,
    CriterionOutcome,
    ErrorEnumerator,
    Verdict,
    classify,
    css_nondegeneracy,
    enumerate_errors,
    error_count,
    necessary_check,
    standard_form_shortcut,
    sufficient_nondegenerate,
)
from .distance import (
    ColumnBounds,
    DistanceResult,
    column_bounds,
    max_independence_order,
    min_distance,
)
from .stabilizer import (
    CheckMatrix,
    CodeValidationError,
    CssSplit,
    DependentGeneratorsError,
    MixedLengthsError,
    NonCommutingGeneratorsError,
    StabilizerCode,
    StandardForm,
    Syndrome,
    SyndromeMatrices,
    bsm_psm,
    css_split,
    is_css,
    standard_form,
    syndrome,
    syndrome_direct,
    validate,
)
from .symplectic import (
    BitVector,
    Gf2Matrix,
    PauliOperator,
    PauliParseError,
    commutes,
    pauli_from_string,
    pauli_product,
    pauli_to_string,
    symplectic_weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symplectic layer
    "BitVector",
    "PauliOperator",
    "PauliParseError",
    "Gf2Matrix",
    "pauli_from_string",
    "pauli_to_string",
    "pauli_product",
    "commutes",
    "symplectic_weight",
    # codes and validation
    "CheckMatrix",
    "StabilizerCode",
    "CodeValidationError",
    "MixedLengthsError",
    "NonCommutingGeneratorsError",
    "DependentGeneratorsError",
    "validate",
    "Syndrome",
    "SyndromeMatrices",
    "syndrome",
    "syndrome_direct",
    "bsm_psm",
    "StandardForm",
    "standard_form",
    "CssSplit",
    "css_split",
    "is_css",
    # degeneracy
    "Verdict",
    "CriterionOutcome",
    "ClassificationReport",
    "CollisionWitness",
    "ErrorEnumerator",
    "enumerate_errors",
    "error_count",
    "classify",
    "sufficient_nondegenerate",
    "necessary_check",
    "css_nondegeneracy",
    "standard_form_shortcut",
    "DEFAULT_BUDGET",
    # distance
    "DistanceResult",
    "ColumnBounds",
    "min_distance",
    "column_bounds",
    "max_independence_order",
    # channel simulation
    "PauliChannel",
    "DecoderTable",
    "SimResult",
    "build_table",
    "sample_error",
    "simulate",
    "wilson_interval",
    # file formats
    "CodeFile",
    "CodeFileError",
    "read_code_file",
    "parse_code_file",
    "PAULI_STRINGS",
    "BINARY_MATRIX",
    # named codes
    "steane",
    "shor",
    "five_qubit",
    "three_qubit_bit_flip",
    "random_code",
    "random_css_code",
]
