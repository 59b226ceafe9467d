"""Constant-weight cover-free binary codes.

Rows of a code instance are unordered families of ell distinct s-subsets of
{1, ..., n}; columns are the k-subsets; an entry is 1 exactly when some family
member is contained in the column. The package answers entry, row, and column
queries by exact colex ranking without materializing anything, materializes
desk-scale instances into bit matrices, and verifies the cover-free property
exhaustively.
"""

from .combinatorics import KSubset, binomial, colex_rank, colex_subsets, colex_unrank
from .code_core import (
    BitMatrix,
    BudgetError,
    CodeDimensions,
    CodeParams,
    MATERIALIZE_BIT_BUDGET,
    ParameterError,
    ParameterWarning,
    RowLabel,
    asymptotic_estimates,
    best_k,
    column_from_rank,
    column_rank,
    dimensions,
    entry,
    materialize,
    row_label_from_rank,
    row_rank_from_label,
)
from .verification import (
    CoverFreeQuery,
    Verdict,
    WitnessSearchError,
    verify_cover_free,
    witness_row,
)
from .matrix_io import MatrixFormatError, read_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BudgetError",
    "CodeDimensions",
    "CodeParams",
    "CoverFreeQuery",
    "KSubset",
    "MATERIALIZE_BIT_BUDGET",
    "MatrixFormatError",
    "ParameterError",
    "ParameterWarning",
    "RowLabel",
    "Verdict",
    "WitnessSearchError",
    "asymptotic_estimates",
    "best_k",
    "binomial",
    "colex_rank",
    "colex_subsets",
    "colex_unrank",
    "column_from_rank",
    "column_rank",
    "dimensions",
    "entry",
    "materialize",
    "read_matrix",
    "row_label_from_rank",
    "row_rank_from_label",
    "verify_cover_free",
    "witness_row",
    "write_matrix",
]
