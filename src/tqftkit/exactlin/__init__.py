"""Exact rational scalars and sparse linear algebra.

Everything lives in ``matrix``: a ``Matrix`` keeps only its nonzero
integer numerators, row by row as sorted (column, numerator) pairs, over
one positive common denominator in lowest terms, and its kernels
(product, Kronecker product, rank, inverse) work on those integers
directly, at a cost that follows the nonzeros.
"""

from .matrix import (
    BACKEND,
    Matrix,
    Scalar,
    ShapeError,
    inverse,
    kron,
    matmul,
    matrix_from_json,
    matrix_to_json,
    rank,
    scalar_from_str,
    scalar_to_str,
    swap_matrix,
)

__all__ = [
    "BACKEND",
    "Matrix",
    "Scalar",
    "ShapeError",
    "inverse",
    "kron",
    "matmul",
    "matrix_from_json",
    "matrix_to_json",
    "rank",
    "scalar_from_str",
    "scalar_to_str",
    "swap_matrix",
]
