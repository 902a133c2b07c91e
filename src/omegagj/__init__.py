"""Exact staged Gauss-Jordan elimination of row-finite infinite matrices.

Rows are reduced one at a time with rightmost pivots; the package tracks
the passage matrix, reordered quasi-Hermite prefixes, stabilization
certificates, and fully symbolic solutions of the associated linear
systems over the rationals or a prime field.
"""

from .canon import (
    FormReport,
    dense_reduce,
    is_lref,
    is_lrrf,
    is_qhf,
    verify_row_equivalence,
)
from .engine import (
    CertificateViolation,
    EliminationState,
    IndexOutOfRange,
    PivotCollision,
    PivotFloor,
    certified_stable,
    prefix_stability,
    run_to,
    step,
)
from .matrices import (
    BUILTINS,
    DuplicateOffset,
    MonomialOrdering,
    RowFiniteMatrix,
    make_explicit,
    make_stencil,
)
from .reorder import (
    DuplicateLength,
    ReorderState,
    extended_run,
    qhf_prefix_stability,
    reorder_prefix,
)
from .rows import Row, dense_width
from .scalars import (
    RATIONAL,
    DivisionByZero,
    Field,
    FieldMismatch,
    LinForm,
    PrimeField,
    RationalField,
)
from .solver import (
    SolveResult,
    SymbolicSequence,
    consistency_constraints,
    general_solution,
    homogeneous_solution,
    particular_solution,
    transform_rhs,
    verify_solution,
)

__all__ = [
    "BUILTINS",
    "CertificateViolation",
    "DivisionByZero",
    "DuplicateLength",
    "DuplicateOffset",
    "EliminationState",
    "Field",
    "FieldMismatch",
    "FormReport",
    "IndexOutOfRange",
    "LinForm",
    "MonomialOrdering",
    "PivotCollision",
    "PivotFloor",
    "PrimeField",
    "RATIONAL",
    "RationalField",
    "ReorderState",
    "Row",
    "RowFiniteMatrix",
    "SolveResult",
    "SymbolicSequence",
    "certified_stable",
    "consistency_constraints",
    "dense_reduce",
    "dense_width",
    "extended_run",
    "general_solution",
    "homogeneous_solution",
    "is_lref",
    "is_lrrf",
    "is_qhf",
    "make_explicit",
    "make_stencil",
    "particular_solution",
    "prefix_stability",
    "qhf_prefix_stability",
    "reorder_prefix",
    "run_to",
    "step",
    "transform_rhs",
    "verify_row_equivalence",
    "verify_solution",
]

__version__ = "0.1.0"
