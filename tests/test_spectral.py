from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import svd as dense_svd

from fraudsift import ConvergenceError, DataError, svd_seeds, truncated_svd
from oracles import triplet_matrix


def random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    nnz = int(rows * cols * density)
    r = rng.integers(0, rows, nnz)
    c = rng.integers(0, cols, nnz)
    v = rng.uniform(0.5, 3.0, nnz)
    return triplet_matrix(r, c, v, (rows, cols))


def test_rank_one_matrix_recovers_outer_product():
    x = np.array([3.0, 0.0, 4.0])
    y = np.array([1.0, 2.0, 2.0, 0.0])
    m = np.outer(x, y)
    U, s, V = truncated_svd(m, 1, tol=1e-10, max_iter=200)
    assert s[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-9)
    u = U[:, 0]
    assert np.allclose(np.abs(u), np.abs(x) / np.linalg.norm(x), atol=1e-8)


def test_diagonal_matrix_gives_diagonal_spectrum():
    d = np.array([9.0, 5.0, 2.0, 1.0])
    m = sp.diags(d).tocsr()
    _, s, _ = truncated_svd(m, 3, tol=1e-10, max_iter=300)
    assert np.allclose(s, d[:3], rtol=1e-9)


def test_random_sparse_topk_matches_dense_oracle():
    for seed in range(3):
        m = random_sparse(200, 150, 0.03, seed)
        U, s, V = truncated_svd(m, 5, tol=1e-9, max_iter=600)
        s_ref = dense_svd(m.toarray(), compute_uv=False)[:5]
        assert np.allclose(s, s_ref, rtol=1e-6)


def test_factors_are_orthonormal_and_reconstruct():
    m = random_sparse(120, 90, 0.05, 7)
    U, s, V = truncated_svd(m, 4, tol=1e-9, max_iter=600)
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-6)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-6)
    # each pair satisfies M v = s u
    r = m @ V - U * s
    assert np.linalg.norm(r, axis=0).max() <= 1e-6 * s[0]


def test_permutation_equivariance():
    m = random_sparse(60, 40, 0.08, 11)
    dense = m.toarray()
    rng = np.random.default_rng(0)
    perm = rng.permutation(60)
    U1, s1, _ = truncated_svd(dense, 3, tol=1e-10, max_iter=500)
    U2, s2, _ = truncated_svd(dense[perm], 3, tol=1e-10, max_iter=500)
    assert np.allclose(s1, s2, rtol=1e-8)
    assert np.allclose(np.abs(U1[perm]), np.abs(U2), atol=1e-6)


def test_scale_equivariance():
    m = random_sparse(50, 30, 0.1, 13)
    U1, s1, V1 = truncated_svd(m, 2, tol=1e-10, max_iter=500)
    U2, s2, V2 = truncated_svd(m * 2.5, 2, tol=1e-10, max_iter=500)
    assert np.allclose(s2, 2.5 * s1, rtol=1e-8)
    assert np.allclose(np.abs(U1), np.abs(U2), atol=1e-6)


def test_deterministic_for_fixed_seed():
    m = random_sparse(80, 60, 0.05, 17)
    a = truncated_svd(m, 3, seed=42)
    b = truncated_svd(m, 3, seed=42)
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def test_full_rank_request_uses_dense_svd():
    # k == min(shape) is out of ARPACK's reach; the dense path answers it
    m = random_sparse(30, 6, 0.4, 5)
    U, s, V = truncated_svd(m, 6)
    assert U.shape == (30, 6) and V.shape == (6, 6)
    assert np.allclose(s, dense_svd(m.toarray(), compute_uv=False), rtol=1e-12)
    assert np.allclose((U * s) @ V.T, m.toarray(), atol=1e-12)
    assert np.all(np.abs(U).max(axis=0) == U.max(axis=0))  # canonical signs


def positive_dense(rows, cols, seed):
    # a dominant Perron singular value converges before the rest
    return np.random.default_rng(seed).random((rows, cols))


def test_nonconvergence_carries_best_so_far():
    m = positive_dense(40, 30, 0)
    with pytest.raises(ConvergenceError) as err:
        truncated_svd(m, 3, tol=1e-12, max_iter=1)
    U, s, V = err.value.best
    j = s.size
    assert 1 <= j < 3
    assert U.shape == (40, j) and V.shape == (30, j)
    assert np.all(np.diff(s) <= 0)
    # what did converge is a set of true singular triplets
    assert np.linalg.norm(m @ V - U * s, axis=0).max() <= 1e-8 * s[0]
    assert np.allclose(s, dense_svd(m, compute_uv=False)[:j], rtol=1e-10)


def test_svd_seeds_falls_back_to_converged_vectors(caplog):
    m = positive_dense(40, 30, 0)
    with caplog.at_level(logging.WARNING, logger="fraudsift.detector"):
        seeds, meta = svd_seeds(m, 3, tol=1e-12, max_iter=1)
    assert "using best-effort singular vectors" in caplog.text
    assert 1 <= meta["n_vectors"] < 3
    assert seeds
    with pytest.raises(ConvergenceError):
        svd_seeds(m, 3, tol=1e-12, max_iter=1, strict=True)


def test_rank_validation():
    m = random_sparse(10, 5, 0.3, 23)
    with pytest.raises(DataError):
        truncated_svd(m, 6)
    with pytest.raises(DataError):
        truncated_svd(m, 0)
