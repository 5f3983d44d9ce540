import numpy as np
import pytest

from anchorgae import clustering
from anchorgae.anchor_graph import (
    AnchorGraph,
    ConnectivitySolveConfig,
    fit_anchor_graph,
    init_anchors,
)
from anchorgae.clustering import (
    ClusterAssignment,
    _kmeans_pp_seed,
    _lloyd,
    kmeans,
    spectral_via_svd,
)
from anchorgae.data_io import make_blobs
from anchorgae.metrics import acc
from anchorgae.numerics import make_rng
from oracles import dense_adjacencies


def principal_angles(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


# ---------------------------------------------------------------- k-means

def test_kmeans_c_equals_n():
    z = make_rng(70).normal(size=(6, 2))
    out = kmeans(z, 6, make_rng(1))
    assert sorted(out.labels.tolist()) == list(range(6))
    d = np.zeros(6)
    for j in range(6):
        d[j] = ((z[out.labels == j] - z[out.labels == j].mean(0)) ** 2).sum()
    assert d.sum() == 0.0


def test_kmeans_two_points_two_clusters():
    out = kmeans(np.array([[0.0, 0.0], [5.0, 5.0]]), 2, make_rng(2))
    assert set(out.labels.tolist()) == {0, 1}


def test_kmeans_recovers_separated_blobs():
    ds = make_blobs(400, 8, 4, 100.0, make_rng(3))
    out = kmeans(ds.x, 4, make_rng(4))
    assert acc(out.labels, ds.labels) >= 0.99


def test_kmeans_deterministic():
    z = make_rng(5).normal(size=(50, 3))
    a = kmeans(z, 3, make_rng(9)).labels
    b = kmeans(z, 3, make_rng(9)).labels
    assert np.array_equal(a, b)


def test_kmeans_wcss_non_increasing_over_lloyd_iterations(monkeypatch):
    rng = make_rng(6)
    z = rng.normal(size=(80, 4))
    centers = _kmeans_pp_seed(z, 5, make_rng(7))
    values = []
    for i in range(1, 8):
        monkeypatch.setattr(clustering, "LLOYD_MAX_ITERS", i)
        values.append(_lloyd(z, centers.copy())[1])
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_kmeans_validates_c():
    with pytest.raises(ValueError, match="1 <= c <= n"):
        kmeans(np.zeros((3, 2)), 4, make_rng(0))


def test_cluster_assignment_validation():
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([0, 3]), 2)
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([], dtype=int), 2)


# --------------------------------------------------------------- spectral

def test_spectral_separates_disjoint_groups():
    # 6 samples, 2 anchors, block structure: brute-force eig of the
    # densified adjacency must agree on the split
    idx = np.array([[0], [0], [0], [1], [1], [1]])
    w = np.ones((6, 1))
    g = AnchorGraph(idx, w, 2)
    v, u, assignment = spectral_via_svd(g, 2)
    labels = assignment.labels
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]

    _, a, _ = dense_adjacencies(g.indices, g.weights, g.m)
    vals, vecs = np.linalg.eigh(a)
    dense_space = vecs[:, -2:]
    angles = principal_angles(v, dense_space)
    assert np.max(angles) < 1e-6


def test_spectral_top_singular_value_at_most_one():
    rng = make_rng(71)
    for trial in range(5):
        x = rng.normal(size=(40, 3))
        g = fit_anchor_graph(x, init_anchors(x, 6, rng),
                             ConnectivitySolveConfig(k=2))
        b_hat = g.csr().toarray() / np.sqrt(g.delta)[None, :]
        sigma = np.linalg.svd(b_hat, compute_uv=False)
        assert sigma[0] <= 1.0 + 1e-8


def test_spectral_subspace_matches_dense_eig_on_blobs():
    rng = make_rng(72)
    ds = make_blobs(90, 6, 3, 12.0, rng)
    g = fit_anchor_graph(ds.x, init_anchors(ds.x, 9, rng),
                         ConnectivitySolveConfig(k=2))
    v, _, assignment = spectral_via_svd(g, 3)
    _, a, _ = dense_adjacencies(g.indices, g.weights, g.m)
    _, vecs = np.linalg.eigh(a)
    angles = principal_angles(v, vecs[:, -3:])
    assert np.max(angles) < 1e-6
    assert acc(assignment.labels, ds.labels) == 1.0


def test_spectral_vtv_diagonal():
    rng = make_rng(73)
    x = rng.normal(size=(60, 4))
    x[:30] += 6.0
    g = fit_anchor_graph(x, init_anchors(x, 8, rng),
                         ConnectivitySolveConfig(k=3))
    v, u, _ = spectral_via_svd(g, 3)
    vtv = v.T @ v
    off = vtv - np.diag(np.diag(vtv))
    assert np.max(np.abs(off)) < 1e-6
    # scaling convention: U carries the sqrt(2)/2 factor
    utu = u.T @ u
    assert np.allclose(np.diag(utu), 0.5, atol=1e-8)


def test_spectral_rank_deficient_pads_and_warns():
    # every row identical => rank-1 bipartite graph
    idx = np.tile(np.array([[0, 1, 2]]), (8, 1))
    w = np.tile(np.array([[0.5, 0.25, 0.25]]), (8, 1))
    g = AnchorGraph(idx, w, 3)
    with pytest.warns(RuntimeWarning, match="rank"):
        v, _, assignment = spectral_via_svd(g, 3)
    assert v.shape == (8, 3)
    assert np.allclose(v[:, 1:], 0.0)
    assert assignment.labels.shape == (8,)


def test_spectral_validates_inputs():
    g = AnchorGraph(np.array([[0], [1]]), np.ones((2, 1)), 2)
    with pytest.raises(ValueError, match="1 <= c <= m"):
        spectral_via_svd(g, 3)


def test_spectral_deterministic():
    rng = make_rng(74)
    x = rng.normal(size=(50, 3))
    x[:25] += 8.0
    g = fit_anchor_graph(x, init_anchors(x, 6, rng),
                         ConnectivitySolveConfig(k=2))
    a = spectral_via_svd(g, 2, seed=5)[2].labels
    b = spectral_via_svd(g, 2, seed=5)[2].labels
    assert np.array_equal(a, b)
