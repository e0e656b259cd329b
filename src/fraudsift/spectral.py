"""Truncated SVD, the top k pairs (U, s) of left singular vectors and values,
by ARPACK's Lanczos (scipy's eigsh) on the smaller side's Gram operator.

Let B be the smaller side (A or Aᵀ). A column of B with one entry adds only a
diagonal term to B·Bᵀ, so a row of B whose columns all hold one entry (an
"isolated" row, an empty row included) is an exact eigenpair (e_i, d_i) of
B·Bᵀ, d_i being its squared norm. Lanczos runs only on the "core" rows, the
rows that share a column with another row.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .graph import DataError

SVD_SEED = 42  # seeds ARPACK's starting vector, so spectral seeds are reproducible


class ConvergenceError(RuntimeError):
    """ARPACK hit its iteration cap; ``best`` carries the pairs (U, s) that did converge."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def _canonical_signs(U: np.ndarray) -> np.ndarray:
    # fix the SVD sign ambiguity: largest-magnitude left entry made positive,
    # the first such row on a tie, as np.abs(U).argmax(axis=0) picks it but
    # without an n_rows x k copy
    cols = np.arange(U.shape[1])
    top, bottom = U.argmax(axis=0), U.argmin(axis=0)
    high, low = U[top, cols], -U[bottom, cols]
    row = np.where(high > low, top, np.where(low > high, bottom, np.minimum(top, bottom)))
    U *= np.where(U[row, cols] < 0, -1.0, 1.0)
    return U


def _split(B):
    """B·Bᵀ as a core block and a diagonal: (core rows, isolated rows, C, Cᵀ, d).

    C is B restricted to the core rows and the columns with two or more
    entries, and d holds each row's squared entries in single-entry columns,
    so that (B·Bᵀ)[core, core] = C·Cᵀ + diag(d[core]) and every other row i
    is the exact eigenpair (e_i, d_i).
    """
    n = B.shape[0]
    rows = np.repeat(np.arange(n), np.diff(B.indptr))
    col_nnz = np.bincount(B.indices, minlength=B.shape[1])
    shared = col_nnz[B.indices] > 1
    d = np.bincount(rows[~shared], weights=B.data[~shared] ** 2, minlength=n)
    per_row = np.bincount(rows[shared], minlength=n)
    core = np.flatnonzero(per_row)
    isolated = np.flatnonzero(per_row == 0)
    col_pos = np.cumsum(col_nnz > 1) - 1
    indptr = np.concatenate(([0], np.cumsum(per_row[core])))
    C = sp.csr_matrix((B.data[shared], col_pos[B.indices[shared]], indptr),
                      shape=(core.size, int(col_pos[-1]) + 1))
    return core, isolated, C, C.T.tocsr(), d


def _pairs(lam_core, X_core, core, isolated, d, A, wide: bool, k: int):
    # merge the core pairs and the isolated pairs (e_i, d_i) by a stable
    # descending sort and keep k; s = √λ. When B = Aᵀ the eigenvectors are
    # right vectors and U = A·x / s, zero where s = 0. An eigenvalue within
    # rounding of the largest (≤ λ_max · max(shape) · eps) is a zero singular
    # value: A·x / s would be noise, not a unit vector.
    lam = np.concatenate([lam_core, d[isolated]])
    order = np.argsort(-lam, kind="stable")[:k]
    lam = lam[order]
    cutoff = max(lam.max(initial=0.0), 0.0) * max(A.shape) * np.finfo(np.float64).eps
    s = np.sqrt(np.where(lam > cutoff, lam, 0.0))
    X = np.zeros((d.size, order.size))
    from_core = order < lam_core.size
    X[np.ix_(core, from_core)] = X_core[:, order[from_core]]
    X[isolated[order[~from_core] - lam_core.size], np.flatnonzero(~from_core)] = 1.0
    if not wide:
        X = A @ X
        X *= np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    return _canonical_signs(X), s


def truncated_svd(matrix, k: int, tol: float = 0.0, max_iter: int | None = None):
    """Top-k left singular vectors and values (U, s), largest first, by
    implicitly restarted Lanczos.

    ``tol`` is the singular values' relative accuracy (0: machine precision;
    ARPACK runs at ``tol**2``) and ``max_iter`` ARPACK's restart cap (None:
    its default). Lanczos runs on the core rows' operator x → C(Cᵀx) +
    d_core∘x (see the module docstring) from the core entries of a starting
    vector drawn from ``SVD_SEED``, or a dense ``eigh`` of that
    Gram matrix replaces it when the core has at most k rows, as it always
    has when k is the smaller dimension; the core pairs then merge with the k
    largest isolated ones. Raises ConvergenceError carrying the converged
    pairs when ARPACK hits the cap.
    """
    A = sp.csr_matrix(matrix, dtype=np.float64)
    n_small = min(A.shape)
    if not 1 <= k <= n_small:
        raise DataError(f"rank k={k} must lie in [1, {n_small}] for a {A.shape} matrix")
    if not (np.isfinite(tol) and tol >= 0):
        raise DataError(f"tolerance must be finite and non-negative, got {tol}")
    if max_iter is not None and not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise DataError(f"max_iter must be None or an integer of at least 1, got {max_iter!r}")

    # B = A or Aᵀ, whichever has fewer rows
    wide = A.shape[0] < A.shape[1]
    B = A if wide else A.T.tocsr()
    v0 = np.random.default_rng(SVD_SEED).standard_normal(n_small)
    core, isolated, C, Ct, d = _split(B)
    isolated = isolated[np.argsort(-d[isolated], kind="stable")[:k]]
    d_core = d[core]
    if core.size <= k:
        lam, X = np.linalg.eigh((C @ Ct).toarray() + np.diag(d_core))
        return _pairs(lam, X, core, isolated, d, A, wide, k)
    gram = LinearOperator((core.size, core.size), dtype=np.float64,
                          matvec=lambda x: C @ (Ct @ x) + d_core * x)
    try:
        lam, X = eigsh(gram, k=k, tol=tol ** 2, maxiter=max_iter, v0=v0[core])
    except ArpackNoConvergence as exc:
        # an isolated pair is known to outrank the core pairs that did not
        # converge only when it reaches the smallest one that did
        lam, X = exc.eigenvalues, exc.eigenvectors
        isolated = isolated[d[isolated] >= lam.min(initial=np.inf)]
        best = _pairs(lam, X, core, isolated, d, A, wide, k)
        raise ConvergenceError(f"ARPACK converged {best[1].size} of {k} singular triplets "
                               f"(tol={tol:g}, max_iter={max_iter})", best=best) from None
    return _pairs(lam, X, core, isolated, d, A, wide, k)
