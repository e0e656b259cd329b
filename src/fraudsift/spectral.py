"""Truncated SVD by ARPACK's Lanczos (scipy's eigsh) on the smaller side's Gram operator."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .graph import DataError

SVD_SEED = 42  # seeds ARPACK's starting vector, so spectral seeds are reproducible


class ConvergenceError(RuntimeError):
    """ARPACK hit its iteration cap; carries the singular triplets that did converge."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def _canonical_signs(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fix the SVD sign ambiguity: largest-magnitude left entry made positive
    flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
    U[:, flip] *= -1
    V[:, flip] *= -1
    return U, V


def _triplets(eigenvalues: np.ndarray, X: np.ndarray, Bt, wide: bool):
    # s = √λ, largest first; the other side is Bᵀx / s in place, zero where s = 0.
    # An eigenvalue within rounding of the largest (≤ λ_max · max(shape) · eps)
    # is a zero singular value: Bᵀx / s would be noise, not a unit vector.
    order = np.argsort(-eigenvalues, kind="stable")
    lam = eigenvalues[order]
    cutoff = max(lam.max(initial=0.0), 0.0) * max(Bt.shape) * np.finfo(np.float64).eps
    s = np.sqrt(np.where(lam > cutoff, lam, 0.0))
    X = X[:, order]
    Y = Bt @ X
    Y *= np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    U, V = _canonical_signs(*((X, Y) if wide else (Y, X)))
    return U, s, V


def truncated_svd(matrix, k: int, tol: float = 0.0, max_iter: int | None = None,
                  seed: int = SVD_SEED):
    """Top-k singular triplets (U, s, V), largest first, by implicitly restarted Lanczos.

    ``tol`` is the singular values' relative accuracy (0: machine precision;
    ARPACK runs at ``tol**2``), ``max_iter`` ARPACK's restart cap (None: its
    default), and ``seed`` draws the starting vector. k equal to the smaller
    dimension takes a dense SVD. Raises ConvergenceError carrying the
    converged triplets when ARPACK hits the cap.
    """
    A = matrix.tocsr() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    n_small = min(A.shape)
    if not 1 <= k <= n_small:
        raise DataError(f"rank k={k} must lie in [1, {n_small}] for a {A.shape} matrix")
    if not (np.isfinite(tol) and tol >= 0):
        raise DataError(f"tolerance must be finite and non-negative, got {tol}")
    if max_iter is not None and not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise DataError(f"max_iter must be None or an integer of at least 1, got {max_iter!r}")
    if k == n_small:
        U, s, Vt = np.linalg.svd(A.toarray() if sp.issparse(A) else A, full_matrices=False)
        U, V = _canonical_signs(U[:, :k], Vt[:k].T.copy())
        return U, s[:k], V

    # x -> B(Bᵀx), B = A or Aᵀ; Bᵀ as CSR sums each row in a CSC rmatvec's order
    wide = A.shape[0] < A.shape[1]
    At = A.T.tocsr() if sp.issparse(A) else A.T
    B, Bt = (A, At) if wide else (At, A)
    gram = LinearOperator((n_small, n_small), matvec=lambda x: B @ (Bt @ x), dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n_small)
    try:
        eigenvalues, X = eigsh(gram, k=k, tol=tol ** 2, maxiter=max_iter, v0=v0)
    except ArpackNoConvergence as exc:
        best = _triplets(exc.eigenvalues, exc.eigenvectors, Bt, wide)
        raise ConvergenceError(f"ARPACK converged {best[1].size} of {k} singular triplets "
                               f"(tol={tol:g}, max_iter={max_iter})", best=best) from None
    return _triplets(eigenvalues, X, Bt, wide)
