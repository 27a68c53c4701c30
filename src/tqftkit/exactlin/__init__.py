"""Exact rational scalars and dense linear algebra.

Everything lives in ``matrix``: a ``Matrix`` is one row-major tuple of
integer numerators over one positive common denominator, kept in lowest
terms, and its kernels (product, Kronecker product, rank, inverse) work
on those integers directly.
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
