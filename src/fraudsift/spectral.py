"""Truncated SVD of sparse non-negative matrices via ARPACK (scipy's svds)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, svds

from .graph import DataError


class ConvergenceError(RuntimeError):
    """ARPACK hit its iteration cap; carries the singular triplets that did converge."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def _canonical_signs(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fix the SVD sign ambiguity: largest-magnitude left entry made positive
    for i in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, i])))
        if U[j, i] < 0:
            U[:, i] = -U[:, i]
            V[:, i] = -V[:, i]
    return U, V


def _triplets_from_gram_basis(A, Q: np.ndarray):
    """(U, s, V), largest first, of A restricted to the orthonormalized basis Q
    of eigenvectors of its Gram matrix on the smaller side."""
    Q = np.linalg.qr(Q)[0]
    if A.shape[0] >= A.shape[1]:
        Ub, s, Vbt = np.linalg.svd(A @ Q, full_matrices=False)
        return Ub, s, Q @ Vbt.T
    Vb, s, Ubt = np.linalg.svd(A.T @ Q, full_matrices=False)
    return Q @ Ubt.T, s, Vb


def truncated_svd(matrix, k: int, tol: float = 0.0, max_iter: int | None = None,
                  seed: int = 42, oversample: int | None = None):
    """Top-k singular triplets (U, s, V), largest first, by implicitly restarted Lanczos.

    ``tol`` is ARPACK's relative accuracy (0: machine precision), ``max_iter``
    its restart cap (None: ARPACK's default) and ``oversample`` the number of
    Lanczos vectors beyond k (None: ARPACK's default). Deterministic for a
    fixed seed, which draws the starting vector. When k equals the smaller
    dimension ARPACK cannot run and a dense SVD is used. Raises
    ConvergenceError carrying the converged triplets when ARPACK hits the cap.
    """
    A = matrix.tocsr() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    n_small = min(A.shape)
    if k < 1:
        raise DataError("rank k must be at least 1")
    if k > n_small:
        raise DataError(f"rank k={k} exceeds matrix dimensions {A.shape}")
    if tol < 0:
        raise DataError("tolerance must be non-negative")
    if k == n_small:
        dense = A.toarray() if sp.issparse(A) else A
        U, s, Vt = np.linalg.svd(dense, full_matrices=False)
        U, V = _canonical_signs(U[:, :k], Vt[:k].T.copy())
        return U, s[:k], V

    ncv = None  # ARPACK needs k < ncv < n_small
    if oversample is not None and k + 1 < n_small:
        ncv = min(n_small - 1, k + max(oversample, 1))
    v0 = np.random.default_rng(seed).standard_normal(n_small)
    try:
        U, s, Vt = svds(A, k=k, ncv=ncv, tol=tol, maxiter=max_iter, v0=v0)
    except ArpackNoConvergence as exc:
        U, s, V = _triplets_from_gram_basis(A, exc.eigenvectors)
        U, V = _canonical_signs(U, V)
        raise ConvergenceError(
            f"ARPACK converged {s.size} of {k} singular triplets "
            f"(tol={tol:g}, max_iter={max_iter})", best=(U, s, V)) from None
    # svds returns ascending singular values
    U, s, V = U[:, ::-1].copy(), s[::-1].copy(), Vt[::-1].T.copy()
    U, V = _canonical_signs(U, V)
    return U, s, V
