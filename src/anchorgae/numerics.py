"""Dense numerical substrate: seeded RNG, input coercion, squared distances,
the row blocks that sample-by-anchor passes run over, and the small
symmetric eigensolver used on anchor-sized problems.

Everything here is float64. Eigendecomposition is only ever invoked on
m x m anchor matrices, never on n x n sample matrices.
"""

import numpy as np

# Entries per row block (a row is never split): 2**16 float64 is 512 KiB
# per block array. The distances, both decoder passes, the graph fit's
# row solve and the encoder's ReLU and mask run over these blocks; the
# factored decoder pass takes at least m rows per block and the distances'
# BLAS product at least 2m. On two cores
# (fastest of 9, one sweep), the dense decoder pass (n=3000-20000,
# m=200-500, e=64) is fastest at 2**16, up to 1.3x slower at 2**15 and
# 2**17-2**18 and up to 2.5x slower at 2**12; the factored pass times
# alike from 2**12 to 2**17 and read 2x slower at 2**18 at n=3000, m=200;
# the graph fit's row solve (n=3000, m=256, k=3-17, its candidate path
# with a warm bound) times within 10% from 2**16 to 2**20, is 1.2-1.6x
# slower at 2**14 and 2-3x slower at 2**12; the ReLU and mask
# (n=10000-70000, width 128, fastest of 15) are fastest at 2**16 and
# 1.04-1.4x slower at 2**14 and 2**18-2**20. A whole distance call
# (n=2000-3000, d=16-784, m=200-256, fastest of 15) times within 5% at
# 2**15 and is up to 1.16x slower at 2**17.
BLOCK_ENTRIES = 2 ** 16


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
    needed. Finiteness is read off the array's min and max, so the check
    allocates nothing of the array's size."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if 0 in a.shape:
        raise ValueError(f"{name} needs at least one row and one column, "
                         f"got shape {a.shape}")
    # NaN propagates through min and max, and +/-inf shows in one of them.
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_blocks(n: int, m: int, min_rows: int = 1):
    """Consecutive row slices covering range(n), each of at most
    max(min_rows, BLOCK_ENTRIES // m) rows."""
    step = max(min_rows, BLOCK_ENTRIES // m)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray,
                     sq_a: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (n x d) and b (m x d).

    Uses the norm expansion with the BLAS product a (-2 b)^T, whose -2 is
    exact; catastrophic-cancellation negatives are clamped to 0. The
    product is formed one block of row_blocks(n, m, min_rows=2 * m) at a
    time, straight into its slice of the result: BLAS packs the rows of a
    it multiplies, so a whole product packs all of a (about n min(d, 384)
    8 bytes up to a cap near 64 MiB; 49 MiB at n=16000, d=784) and a block
    packs one block. Blocks of m rows, not 2m, ran 1.1-1.4x slower at
    m=256 (d=16-64) and m=1000 (d=64). The norm sums sq_a + sq_b are then
    added over row_blocks(n, m) from one reused block, formed as the
    product [sq_a, 1] [1; sq_b]: each term has a unit factor and the
    two-term sum is rounded once, so every entry is fl(sq_a_i + sq_b_j)
    bit for bit, inf and NaN included, and costs less than a broadcast
    add. One n x m array plus one block is allocated.

    sq_a, the squared row norms of a, may be passed in by a caller that
    measures the same a against many b; it must be those norms exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"pairwise_sq_dist needs matching feature dims, got {a.shape} and {b.shape}"
        )
    n, m = a.shape[0], b.shape[0]
    d = np.empty((n, m))
    if d.size == 0:  # no first block at n = 0; row_blocks divides by m
        return d
    if sq_a is None:
        sq_a = np.einsum("ij,ij->i", a, a)
    sq_a1 = np.ones((n, 2))
    sq_a1[:, 0] = sq_a
    sq_b1 = np.ones((2, m))
    np.einsum("ij,ij->i", b, b, out=sq_b1[1])
    b_t = (-2.0 * b).T
    sums = np.empty((next(row_blocks(n, m)).stop, m))
    for product_rows in row_blocks(n, m, min_rows=2 * m):
        product = d[product_rows]
        np.matmul(a[product_rows], b_t, out=product)
        norms = sq_a1[product_rows]
        for rows in row_blocks(product.shape[0], m):
            block = product[rows]
            block_sums = sums[:block.shape[0]]
            # An inf norm meets BLAS's zero padding in lanes it discards;
            # a sum of two non-negative terms is never itself invalid.
            with np.errstate(invalid="ignore"):
                np.matmul(norms[rows], sq_b1, out=block_sums)
            block += block_sums
            np.maximum(block, 0.0, out=block)
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
