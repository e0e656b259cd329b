from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import svd as dense_svd

from fraudsift import ConvergenceError, DataError, spectral, svd_seeds, truncated_svd
from oracles import right_vectors, triplet_matrix


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
    U, s = truncated_svd(m, 1, tol=1e-10, max_iter=200)
    assert s[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-9)
    u = U[:, 0]
    assert np.allclose(np.abs(u), np.abs(x) / np.linalg.norm(x), atol=1e-8)


def test_diagonal_matrix_gives_diagonal_spectrum():
    d = np.array([9.0, 5.0, 2.0, 1.0])
    m = sp.diags(d).tocsr()
    _, s = truncated_svd(m, 3, tol=1e-10, max_iter=300)
    assert np.allclose(s, d[:3], rtol=1e-9)


def both_orientations(m):
    # tall as built, then wide: the users-by-attributes shape matricize produces
    return m, m.T.tocsr()


def test_random_sparse_topk_matches_dense_oracle():
    for seed in range(3):
        for m in both_orientations(random_sparse(200, 150, 0.03, seed)):
            U, s = truncated_svd(m, 5, tol=1e-9, max_iter=600)
            s_ref = dense_svd(m.toarray(), compute_uv=False)[:5]
            assert np.allclose(s, s_ref, rtol=1e-6)


def test_factors_are_orthonormal_and_reconstruct():
    for m in both_orientations(random_sparse(120, 90, 0.05, 7)):
        U, s = truncated_svd(m, 4, tol=1e-9, max_iter=600)
        V = right_vectors(m, U, s)
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
    U1, s1 = truncated_svd(dense, 3, tol=1e-10, max_iter=500)
    U2, s2 = truncated_svd(dense[perm], 3, tol=1e-10, max_iter=500)
    assert np.allclose(s1, s2, rtol=1e-8)
    assert np.allclose(np.abs(U1[perm]), np.abs(U2), atol=1e-6)


def test_scale_equivariance():
    m = random_sparse(50, 30, 0.1, 13)
    U1, s1 = truncated_svd(m, 2, tol=1e-10, max_iter=500)
    U2, s2 = truncated_svd(m * 2.5, 2, tol=1e-10, max_iter=500)
    assert np.allclose(s2, 2.5 * s1, rtol=1e-8)
    assert np.allclose(np.abs(U1), np.abs(U2), atol=1e-6)


def test_deterministic_for_fixed_seed():
    m = random_sparse(80, 60, 0.05, 17)
    a = truncated_svd(m, 3, seed=42)
    b = truncated_svd(m, 3, seed=42)
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def test_full_rank_request_uses_dense_svd():
    # k == min(shape) is out of ARPACK's reach; the core then has at most k
    # rows, so the dense eigh path answers it
    m = random_sparse(30, 6, 0.4, 5)
    U, s = truncated_svd(m, 6)
    V = right_vectors(m, U, s)
    assert U.shape == (30, 6) and V.shape == (6, 6)
    assert np.allclose(s, dense_svd(m.toarray(), compute_uv=False), rtol=1e-12)
    assert np.allclose((U * s) @ V.T, m.toarray(), atol=1e-12)
    assert np.all(np.abs(U).max(axis=0) == U.max(axis=0))  # canonical signs


def positive_dense(rows, cols, seed):
    # a dominant Perron singular value converges before the rest
    return np.random.default_rng(seed).random((rows, cols))


def test_nonconvergence_carries_best_so_far():
    for shape in [(40, 30), (30, 40)]:
        m = positive_dense(*shape, 0)
        with pytest.raises(ConvergenceError) as err:
            truncated_svd(m, 3, tol=1e-12, max_iter=1)
        U, s = err.value.best
        V = right_vectors(m, U, s)
        j = s.size
        assert 1 <= j < 3
        assert U.shape == (shape[0], j) and V.shape == (shape[1], j)
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


def test_rank_validation():
    m = random_sparse(10, 5, 0.3, 23)
    with pytest.raises(DataError):
        truncated_svd(m, 6)
    with pytest.raises(DataError):
        truncated_svd(m, 0)


@pytest.mark.parametrize("name, value", [
    ("tol", float("nan")), ("tol", float("inf")), ("tol", -1.0),
    ("max_iter", 0), ("max_iter", -5), ("max_iter", 2.5),
])
def test_solver_settings_validation(name, value):
    m = random_sparse(30, 20, 0.2, 29)
    with pytest.raises(DataError):
        truncated_svd(m, 2, **{name: value})


def test_rank_deficient_request_stays_finite():
    # rank 2, k = 4: two requested singular values are zero
    rng = np.random.default_rng(31)
    left = sp.random(80, 2, density=0.5, random_state=rng, format="csr")
    right = sp.random(2, 60, density=0.5, random_state=rng, format="csr")
    for m in both_orientations((left @ right).tocsr()):
        U, s = truncated_svd(m, 4)
        V = right_vectors(m, U, s)
        assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
        assert np.isfinite(U).all() and np.isfinite(V).all()
        assert np.allclose(s[:2], dense_svd(m.toarray(), compute_uv=False)[:2], rtol=1e-9)
        # the side derived by one product (the larger one) holds unit vectors,
        # or zero vectors for singular values that are zero
        derived = U if m.shape[0] > m.shape[1] else V
        norms = np.linalg.norm(derived, axis=0)
        for norm, value in zip(norms, s):
            assert abs(norm - 1.0) <= 1e-9 or (norm == 0.0 and value == 0.0), (norms, s)


# -- the core/diagonal split: rows that share no column are exact eigenpairs --


def with_private_columns(core, private):
    """``core`` stacked over len(private) rows, row i holding only
    private[i] in a column of its own; a zero makes an empty row."""
    m = sp.bmat([[core, None], [None, sp.diags(private)]], format="csr")
    m.eliminate_zeros()
    return m


def assert_matches_dense(m, k, U, s, V):
    dense = m.toarray()
    U_ref, s_ref, _ = dense_svd(dense)
    assert np.allclose(s, s_ref[:k], rtol=1e-9, atol=1e-12)
    assert np.allclose(U.T @ U, np.eye(k), atol=1e-9)
    assert np.linalg.norm(dense @ V - U * s, axis=0).max() <= 1e-9 * s[0]
    # distinct singular values fix each left vector up to sign
    assert np.allclose(np.abs(U), np.abs(U_ref[:, :k]), atol=1e-8)


def test_isolated_row_outranking_the_core_is_an_exact_pair():
    core = random_sparse(60, 50, 0.1, 37)
    m = with_private_columns(core, [50.0, 0.0, 1e-3, 2.5])
    for m in both_orientations(m):
        U, s = truncated_svd(m, 4)
        V = right_vectors(m, U, s)
        assert_matches_dense(m, 4, U, s, V)
        # entry (60, 50), transposed on the wide side, is the top singular triplet
        assert s[0] == 50.0
        rows, cols = (U, V) if m.shape[0] > m.shape[1] else (V, U)
        assert rows[:, 0].tolist() == np.eye(64)[60].tolist()
        assert cols[:, 0].tolist() == np.eye(54)[50].tolist()


@pytest.mark.parametrize("k", [3, 5])
def test_core_of_at_most_k_rows_takes_the_dense_eigh(k, monkeypatch):
    # rows 0-2 share columns; every other row has private columns only, and
    # row 7 has two of them
    core = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.5, 0.0, 3.0], [0.0, 1.5, 1.0]]))
    m = with_private_columns(core, [4.0, 0.25, 2.2, 0.0, 1.1, 0.6, 3.3, 0.1])
    m = sp.hstack([m, sp.csr_matrix(([0.7], ([7], [0])), shape=(11, 1))]).tocsr()
    monkeypatch.setattr(spectral, "eigsh", None)
    for m in both_orientations(m):
        U, s = truncated_svd(m, k)
        assert_matches_dense(m, k, U, s, right_vectors(m, U, s))


def test_empty_rows_give_zero_singular_values():
    core = random_sparse(20, 15, 0.2, 41)
    m = with_private_columns(core, [0.0] * 30)
    n_nonzero = int(np.sum(dense_svd(m.toarray(), compute_uv=False) > 1e-9))
    for m in both_orientations(m):
        U, s = truncated_svd(m, n_nonzero + 3)
        V = right_vectors(m, U, s)
        assert np.allclose(s[:n_nonzero], dense_svd(m.toarray(), compute_uv=False)[:n_nonzero],
                           rtol=1e-9)
        assert s[n_nonzero:].tolist() == [0.0] * 3
        # the zero pairs are unit vectors of empty rows on the smaller side;
        # when U is the larger side it comes from one product with them and
        # is zero there. V is rebuilt from (U, s): only its nonzero pairs
        # are singular vectors.
        small = U if m.shape[0] < m.shape[1] else V[:, :n_nonzero]
        assert np.allclose(small.T @ small, np.eye(small.shape[1]), atol=1e-9)
        if m.shape[0] < m.shape[1]:
            assert np.all(np.abs(U[:, n_nonzero:]).max(axis=0) == 1.0)
        else:
            assert not U[:, n_nonzero:].any()


def test_nonconvergence_merges_isolated_rows_it_can_rank():
    # a positive core whose Perron value converges first, under one private
    # entry above it and others below every core value that could converge
    core = sp.csr_matrix(positive_dense(40, 30, 0))
    top = 2 * dense_svd(core.toarray(), compute_uv=False)[0]
    m = with_private_columns(core, [1e-3, top, 2e-3, 0.0])
    for m in both_orientations(m):
        with pytest.raises(ConvergenceError) as err:
            truncated_svd(m, 4, tol=1e-12, max_iter=1)
        U, s = err.value.best
        V = right_vectors(m, U, s)
        j = s.size
        assert 2 <= j < 4 and s[0] == top
        assert np.all(np.diff(s) <= 0)
        dense = m.toarray()
        assert np.linalg.norm(dense @ V - U * s, axis=0).max() <= 1e-8 * s[0]
        assert np.allclose(s, dense_svd(dense, compute_uv=False)[:j], rtol=1e-10)
