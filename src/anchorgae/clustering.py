"""Label extraction: restarted Lloyd k-means and bipartite spectral
clustering through the small-side SVD.

The spectral route never decomposes anything of sample size: the c leading
right singular vectors of the degree-scaled graph come from the m x m Gram
matrix, and the left ones follow by one sparse product.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .anchor_graph import AnchorGraph
from .numerics import make_rng, pairwise_sq_dist, sym_eig_topc

# k-means++ seeded Lloyd runs per k-means call; the best one is kept.
KMEANS_RESTARTS = 10

# Iteration cap of one Lloyd run, and the center move that ends it early.
LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-9


@dataclass
class ClusterAssignment:
    """Cluster ids in [0, c) for each of the n samples."""

    labels: np.ndarray
    c: int

    def __post_init__(self):
        if self.labels.size == 0:
            raise ValueError("assignment needs at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.c:
            raise ValueError(f"labels outside [0, {self.c})")


def _kmeans_pp_seed(z: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """Classic distance-squared-proportional seeding."""
    n = z.shape[0]
    centers = np.empty((c, z.shape[1]))
    centers[0] = z[rng.integers(n)]
    closest = pairwise_sq_dist(z, centers[:1])[:, 0]
    for j in range(1, c):
        total = closest.sum()
        if total <= 0:  # all points coincide with chosen centers
            pick = rng.integers(n)
        else:
            pick = rng.choice(n, p=closest / total)
        centers[j] = z[pick]
        np.minimum(closest, pairwise_sq_dist(z, centers[j:j + 1])[:, 0], out=closest)
    return centers


def _lloyd(z: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd iterations; empty clusters are re-seeded at the farthest point.
    Returns (labels, within-cluster sum of squares)."""
    c = centers.shape[0]
    for _ in range(LLOYD_MAX_ITERS):
        d = pairwise_sq_dist(z, centers)
        labels = d.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(c):
            mask = labels == j
            if mask.any():
                new_centers[j] = z[mask].mean(axis=0)
            else:
                new_centers[j] = z[d.min(axis=1).argmax()]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < LLOYD_TOL:
            break
    d = pairwise_sq_dist(z, centers)
    labels = d.argmin(axis=1)
    wcss = float(d[np.arange(z.shape[0]), labels].sum())
    return labels, wcss


def kmeans(z: np.ndarray, c: int, rng: np.random.Generator
           ) -> ClusterAssignment:
    """Best of KMEANS_RESTARTS k-means runs with k-means++ seeding; ties
    between restarts go to the earliest one, so the result is deterministic
    given the rng."""
    z = np.asarray(z, dtype=np.float64)
    if not (1 <= c <= z.shape[0]):
        raise ValueError(f"need 1 <= c <= n={z.shape[0]}, got c={c}")
    best_labels, best_wcss = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_seed(z, c, rng)
        labels, wcss = _lloyd(z, centers)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return ClusterAssignment(best_labels, c)


def spectral_via_svd(g: AnchorGraph, c: int, seed: int = 0):
    """Bipartite spectral clustering via the SVD of B diag(delta)^(-1/2).

    The right singular vectors are eigenvectors of the m x m Gram matrix;
    the left ones are recovered as B_hat U / sigma. Labels come from k-means
    on the l2-row-normalized left vectors (the scaling factor sqrt(2)/2 kept
    on the returned matrices cancels there). Returns (v (n x c), u (m x c),
    assignment).
    """
    if not (1 <= c <= g.m):
        raise ValueError(f"need 1 <= c <= m={g.m}, got c={c}")
    b_hat = g.csr().multiply(1.0 / np.sqrt(g.delta)[None, :]).tocsr()
    gram = (b_hat.T @ b_hat).toarray()
    eigvals, u = sym_eig_topc(gram, c)
    sigma = np.sqrt(np.maximum(eigvals, 0.0))

    rank_tol = max(sigma[0], 1.0) * 1e-12
    keep = sigma > rank_tol
    if not np.all(keep):
        warnings.warn(
            f"graph rank {int(keep.sum())} < requested c={c}; padding with "
            "zero vectors", RuntimeWarning)
    v = np.zeros((g.n, c))
    v[:, keep] = (b_hat @ u[:, keep]) / sigma[keep][None, :]

    half_sqrt2 = np.sqrt(2.0) / 2.0
    v_scaled = half_sqrt2 * v
    u_scaled = half_sqrt2 * u

    norms = np.linalg.norm(v, axis=1)
    ok = norms > 0
    if not ok.any():
        return v_scaled, u_scaled, ClusterAssignment(np.zeros(g.n, dtype=np.int64), c)
    unit = np.zeros_like(v)
    unit[ok] = v[ok] / norms[ok, None]
    assignment = kmeans(unit[ok], c, make_rng(seed))
    labels = np.empty(g.n, dtype=np.int64)
    labels[ok] = assignment.labels
    if not np.all(ok):
        # Rank-deficient leftovers: nearest centroid in the unnormalized space.
        centers = np.zeros((c, v.shape[1]))
        for j in range(c):
            mask = assignment.labels == j
            if mask.any():
                centers[j] = unit[ok][mask].mean(axis=0)
        labels[~ok] = pairwise_sq_dist(v[~ok], centers).argmin(axis=1)
    return v_scaled, u_scaled, ClusterAssignment(labels, c)
