import numpy as np
import pytest

from anchorgae.numerics import (
    as_matrix,
    make_rng,
    pairwise_sq_dist,
    spawn_rngs,
    sym_eig_topc,
)
from oracles import (
    matmul,
    matmul_loops,
    pairwise_loops,
    pairwise_sq_dist_expression,
    peak_bytes,
)


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_hand_case():
    out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, np.array([[3.0], [7.0]]))


def test_matmul_matches_triple_loop_oracle():
    rng = make_rng(11)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    assert np.max(np.abs(matmul(a, b) - matmul_loops(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_associativity():
    rng = make_rng(12)
    for _ in range(10):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 6))
        c = rng.normal(size=(6, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left - right)) < 1e-10


def test_pairwise_three_four_five():
    out = pairwise_sq_dist(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 25.0


def test_pairwise_matches_per_pair_oracle():
    rng = make_rng(14)
    a = rng.normal(size=(10, 4))
    b = rng.normal(size=(6, 4))
    assert np.max(np.abs(pairwise_sq_dist(a, b) - pairwise_loops(a, b))) < 1e-10


@pytest.mark.parametrize("n,m,d", [(3000, 256, 16), (3000, 200, 64),
                                   (2000, 200, 784), (1, 1, 1), (7, 3, 2),
                                   (0, 5, 3), (5, 0, 3)])
def test_pairwise_same_bits_as_one_expression(n, m, d):
    rng = make_rng(19)
    a = rng.normal(size=(n, d)) * 3.0
    b = rng.normal(size=(m, d))
    d_ab = pairwise_sq_dist(a, b)
    assert d_ab.shape == (n, m)
    assert np.array_equal(d_ab, pairwise_sq_dist_expression(a, b))
    assert np.array_equal(pairwise_sq_dist(b, b),
                          pairwise_sq_dist_expression(b, b))


@pytest.mark.parametrize("n,m,same", [(6000, 300, False), (2000, 2000, True)])
def test_pairwise_peaks_near_its_result(n, m, same):
    # The distances are formed in the product's buffer; only the norms and
    # one block of their sums come on top of the n x m result.
    rng = make_rng(20)
    a = rng.normal(size=(n, 8))
    b = a if same else rng.normal(size=(m, 8))
    assert peak_bytes(lambda: pairwise_sq_dist(a, b)) < 1.2 * n * m * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_matrix_rejects_each_non_finite_value(bad):
    x = make_rng(21).normal(size=(40, 5))
    x[17, 3] = bad
    with pytest.raises(ValueError, match="^x contains non-finite entries$"):
        as_matrix(x, "x")


def test_as_matrix_accepts_extreme_finite_values():
    x = np.array([[np.finfo(float).max, -np.finfo(float).max],
                  [np.finfo(float).tiny, -0.0]])
    assert as_matrix(x) is x


def test_as_matrix_checks_without_a_sample_sized_array():
    # Finiteness is read off the min and the max, not an n x d bool.
    n, d = 3000, 64
    x = make_rng(22).normal(size=(n, d))
    assert peak_bytes(lambda: as_matrix(x)) < 0.5 * n * d


def test_pairwise_symmetry():
    rng = make_rng(15)
    a = rng.normal(size=(8, 3))
    b = rng.normal(size=(5, 3))
    assert np.max(np.abs(pairwise_sq_dist(a, b) - pairwise_sq_dist(b, a).T)) < 1e-12


def test_pairwise_nonnegative():
    rng = make_rng(16)
    a = rng.normal(size=(40, 6)) * 1e4  # cancellation-prone scale
    assert pairwise_sq_dist(a, a.copy()).min() >= 0.0


def test_pairwise_dim_mismatch():
    with pytest.raises(ValueError, match="feature dims"):
        pairwise_sq_dist(np.zeros((2, 3)), np.zeros((2, 4)))


def test_sym_eig_diagonal_case():
    vals, vecs = sym_eig_topc(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(vals, [3.0, 2.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, :2])


def test_sym_eig_identity():
    vals, vecs = sym_eig_topc(np.eye(4), 1)
    assert np.allclose(vals, [1.0])
    resid = np.eye(4) @ vecs[:, 0] - vals[0] * vecs[:, 0]
    assert np.linalg.norm(resid) < 1e-8


def test_sym_eig_residual_oracle_random():
    rng = make_rng(17)
    s = rng.normal(size=(8, 8))
    s = s + s.T
    vals, vecs = sym_eig_topc(s, 8)
    assert np.all(np.diff(vals) <= 1e-12)  # descending
    for j in range(8):
        assert np.linalg.norm(s @ vecs[:, j] - vals[j] * vecs[:, j]) < 1e-8


def test_sym_eig_orthonormal_vectors():
    rng = make_rng(18)
    s = rng.normal(size=(10, 10))
    s = s + s.T
    _, vecs = sym_eig_topc(s, 6)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(6))) < 1e-8


def test_sym_eig_rejects_nonsymmetric():
    s = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig_topc(s, 1)


def test_sym_eig_rejects_c_too_large():
    with pytest.raises(ValueError, match="1 <= c"):
        sym_eig_topc(np.eye(3), 4)


def test_rng_same_seed_same_stream():
    a = make_rng(123).random(10_000)
    b = make_rng(123).random(10_000)
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    assert not np.array_equal(make_rng(1).random(16), make_rng(2).random(16))


def test_spawn_rngs_deterministic_and_independent():
    first = [r.random(5) for r in spawn_rngs(42, 3)]
    second = [r.random(5) for r in spawn_rngs(42, 3)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])
