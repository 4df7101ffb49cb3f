"""Finite-design reproducing-kernel Hilbert space computations.

On a finite design the RKHS of a strictly positive-definite kernel is R^n
with inner product ``<v, w> = v' R(n)^{-1} w``.  Everything here is BLAS
``dtrsm`` or LAPACK ``dsygst`` on the cached Cholesky factor; no inverse is formed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsygst

from ._blas import blas_scope
from .errors import ContractError
from .kernels import GramMatrix, _array, _integer, _require_symmetric

__all__ = [
    "rkhs_inner",
    "rkhs_norm",
    "reproducing_check",
    "tensor_norm_finite",
]


def rkhs_inner(g: GramMatrix, v, w) -> float:
    """Inner product ``v' R(n)^{-1} w`` via two triangular solves."""
    a = g.half_solve(_array(v, "v", (g.n,)))
    b = g.half_solve(_array(w, "w", (g.n,)))
    return float(a @ b)


def rkhs_norm(g: GramMatrix, v) -> float:
    """RKHS norm ``sqrt(v' R(n)^{-1} v)`` of the function with values ``v`` on the design."""
    a = g.half_solve(_array(v, "v", (g.n,)))
    return float(np.sqrt(a @ a))


def reproducing_check(g: GramMatrix, v, i: int) -> float:
    """Residual ``|<v, R(., t_i)> - v[i]|`` of the reproducing identity for values ``v`` on the design.

    The i-th representer restricted to the design is the i-th column of the
    Gram matrix, so the residual is pure solver error; well-conditioned
    matrices keep it below 1e-9 * (1 + |v[i]|).
    """
    v, i = _array(v, "v", (g.n,)), _integer(i, "i", 0)
    if i >= g.n:
        raise ContractError(f"i must be < {g.n}, not {i}")
    return abs(rkhs_inner(g, v, g.entries[:, i]) - float(v[i]))


def tensor_norm_finite(g1: GramMatrix, diff: np.ndarray) -> float:
    """Squared tensor-RKHS norm of a kernel difference restricted to a design.

    For a symmetric matrix D holding the restriction of a kernel difference,
    the squared norm in the tensor product of the finite-design RKHS with
    itself is ``trace(R^{-1} D R^{-1} D)``, the squared Frobenius norm of the
    symmetric ``W = L^{-1} D L^{-T}``.  LAPACK ``dsygst`` forms W's lower triangle
    from D's upper one, the triangle a Gram matrix is factored from, in n^3 flops.
    Restriction norms are non-decreasing under design nesting, so nested
    evaluations bracket the full-domain norm from below.

    A float64 ``(n, n)`` ndarray ``diff`` is copied once and never written,
    so it may be read-only and of any layout; any other input is read as an
    array of JSON numbers.
    """
    shape = (g1.n, g1.n)
    in_place = type(diff) is np.ndarray and diff.dtype == float and diff.shape == shape
    d = diff if in_place else _array(diff, "diff", shape)
    _require_symmetric(d, "difference matrix")
    # triu(D)' is Fortran-order with zeros above the diagonal, which dsygst leaves
    with blas_scope():
        w = dsygst(np.triu(d).T, g1.chol, itype=1, lower=1, overwrite_a=1)[0]
    return float(2.0 * np.einsum("ij,ij->", w, w) - np.einsum("ii,ii->", w, w))
