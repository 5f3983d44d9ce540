"""Dense numerical substrate: seeded RNG, input coercion, squared distances,
and the small symmetric eigensolver used on anchor-sized problems.

Everything here is float64. Eigendecomposition is only ever invoked on
m x m anchor matrices, never on n x n sample matrices.
"""

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox); same seed gives the same stream
    on every platform and run."""
    return np.random.Generator(np.random.Philox(int(seed)))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child generators, deterministically derived from seed."""
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, non-empty float64 2-D array, copying only if
    needed."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if 0 in a.shape:
        raise ValueError(f"{name} needs at least one row and one column, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (n x d) and b (m x d).

    Uses the norm expansion with a single BLAS product; catastrophic-
    cancellation negatives are clamped to 0. When a and b are the same
    array object the diagonal is exactly 0 by construction. The product is
    doubled in place, which is exact, so only two n x m arrays are allocated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"pairwise_sq_dist needs matching feature dims, got {a.shape} and {b.shape}"
        )
    cross = a @ b.T
    if a is b:
        sq_a = sq_b = np.diagonal(cross).copy()
    else:
        sq_a = np.einsum("ij,ij->i", a, a)
        sq_b = np.einsum("ij,ij->i", b, b)
    cross *= 2.0
    d = sq_a[:, None] + sq_b[None, :]
    d -= cross
    np.maximum(d, 0.0, out=d)
    return d


def sym_eig_topc(s: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """c largest eigenpairs of a symmetric matrix, eigenvalues descending.

    Returns (values (c,), vectors (m, c)) with orthonormal columns. Sign of
    each eigenvector is fixed so its largest-magnitude entry is positive,
    which keeps downstream runs reproducible.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    m = s.shape[0]
    if not (1 <= c <= m):
        raise ValueError(f"need 1 <= c <= {m}, got c={c}")
    asym = np.max(np.abs(s - s.T)) if m else 0.0
    if asym > 1e-8:
        raise ValueError(f"matrix is not symmetric (max |S - S^T| = {asym:.3e})")
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    vals = vals[::-1][:c]
    vecs = vecs[:, ::-1][:, :c]
    flip = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(c)])
    flip[flip == 0] = 1.0
    return vals.copy(), vecs * flip
