"""Sample-to-anchor bipartite graph estimation.

Each sample i carries a k-sparse connectivity distribution over the m
anchors, obtained in closed form from its squared distances to the anchors:
the k nearest anchors receive weight proportional to how far inside the
(k+1)-th distance they sit, so the row is automatically normalized and the
sparsity level k is the only hyper-parameter. Anchors are then pulled to the
weighted mean of their assigned samples, and the two steps alternate until
the regularized transport objective settles or FIT_MAX_ITERS iterations
have run.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .numerics import as_matrix, pairwise_sq_dist, row_blocks

# Column sums below this are treated as a dead anchor.
DEAD_ANCHOR_TOL = 1e-12

# Iteration cap of one graph fit and the relative objective change that
# ends it early (see fit_anchor_graph for the stop rule).
FIT_MAX_ITERS = 15
FIT_TOL = 1e-6


class DistanceOverflow(ValueError):
    """A fit's squared distances overflow float64."""


class DeadAnchors(ValueError):
    """A graph has anchors of zero degree; dead holds their ids."""

    def __init__(self, dead: np.ndarray):
        super().__init__(f"anchors {dead.tolist()} have zero degree")
        self.dead = dead


@dataclass
class AnchorGraph:
    """k-sparse row-stochastic bipartite graph B (n x m) in fixed-width CSR form.

    indices[i] holds the k anchor ids of row i (ascending distance order)
    and weights[i] the matching probabilities (sum 1). delta, the vector of
    anchor degrees (column sums of B), is derived at construction, which
    raises DeadAnchors, a ValueError carrying their ids, if any degree is at
    or below DEAD_ANCHOR_TOL: every operator on the graph divides by delta.
    The sparse form of B and the anchor adjacency are built on first use and
    cached, so B must not change after.
    """

    indices: np.ndarray
    weights: np.ndarray
    m: int
    delta: np.ndarray = field(init=False)
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)
    _csc_t: sp.csc_matrix | None = field(default=None, repr=False,
                                         compare=False)
    _anchor_adj: np.ndarray | None = field(default=None, repr=False,
                                           compare=False)

    def __post_init__(self):
        self.delta = np.bincount(self.indices.ravel(),
                                 weights=self.weights.ravel(), minlength=self.m)
        dead = np.flatnonzero(self.delta <= DEAD_ANCHOR_TOL)
        if dead.size:
            raise DeadAnchors(dead)

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def csr(self) -> sp.csr_matrix:
        """Sparse view of B, cached; used for all products against B, and
        through its CSC transpose view (bt_dot) for all products against
        B^T."""
        if self._csr is None:
            n, k = self.indices.shape
            indptr = np.arange(0, (n + 1) * k, k, dtype=np.int64)
            self._csr = sp.csr_matrix(
                (self.weights.ravel(), self.indices.ravel().astype(np.int64), indptr),
                shape=(n, self.m),
            )
        return self._csr

    def anchor_adjacency(self) -> np.ndarray:
        """Dense m x m anchor-side adjacency diag(1/delta) B^T B, cached.

        Formed once per graph from the sparse product in O(n k^2 + m^2)
        time; holds O(m^2) memory.
        """
        if self._anchor_adj is None:
            b = self.csr()
            btb = (b.T @ b).toarray()
            self._anchor_adj = btb / self.delta[:, None]
        return self._anchor_adj

    def b_dot(self, y: np.ndarray) -> np.ndarray:
        """B @ y for y of shape (m, d); O(n k d)."""
        return self.csr() @ y

    def bt_dot(self, x: np.ndarray) -> np.ndarray:
        """B^T @ x for x of shape (n, d); O(n k d). The CSC view csr().T
        shares B's arrays and is cached, so it is built once per graph."""
        if self._csc_t is None:
            self._csc_t = self.csr().T
        return self._csc_t @ x

    def pool(self, h: np.ndarray) -> np.ndarray:
        """diag(1/delta) B^T @ h for h of shape (n, d): row j is the
        B-weighted mean of the rows of h over anchor j's samples; O(n k d)."""
        return self.bt_dot(h) / self.delta[:, None]


@dataclass
class ConnectivitySolveConfig:
    """Settings for the alternating fit: the per-row sparsity k, the graph's
    one hyper-parameter. The iteration cap and tolerance are the module
    constants FIT_MAX_ITERS and FIT_TOL."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"sparsity k must be >= 1, got {self.k}")


def init_anchors(x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct data rows, sampled without replacement."""
    x = as_matrix(x, "x")
    n = x.shape[0]
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n={n}, got m={m}")
    picks = rng.choice(n, size=m, replace=False)
    return x[picks].copy()


def _solve_rows(dists: np.ndarray, k: int, uniform: bool = False,
                near: np.ndarray | None = None):
    """Closed-form k-sparse rows for a whole distance matrix (n x m).

    Returns (nearest (n,k+1), weights (n,k), gamma (n,), d_sup (n,k)).
    nearest holds each row's k+1 nearest anchors in order: its first k
    columns are the support, its last the boundary anchor; d_sup holds each
    support entry's distance. Only the k+1 nearest anchors of a row enter
    its solution. Tie rule: they are the first k+1 anchors of the row
    ordered by distance and then by anchor index, so a tie goes to the
    lowest index.

    No row is fully sorted. Over row blocks (numerics.row_blocks), each row
    takes a bound t at or above its (k+1)-th smallest distance, and its
    candidates are the anchors at distance <= t. Every anchor before the
    (k+1)-th in the tie-rule order lies at or below that distance, so the
    candidates hold the k+1 nearest. They are scattered, in ascending id
    order, into a block-sized array padded with +inf, and a stable sort of
    each padded row applies the tie rule. Without near, t is the (k+1)-th
    smallest distance itself (np.partition). near, the k+1 nearest of an
    earlier solve, gives t as the largest distance from the row to those
    anchors: any k+1 distinct anchors bound the (k+1)-th smallest distance
    from above, so the result is the same, wherever the anchors have moved
    since. A bound far above the (k+1)-th distance only widens the padded
    rows, up to m columns. dists must hold no NaN.

    A zero denominator (the k+1 nearest all at equal distance) falls back
    to the uniform 1/k row, which is the limit of the formula under a
    vanishing perturbation. gamma is half the denominator, the implied
    per-row regularizer weight.
    """
    n, m = dists.shape
    if not (1 <= k < m):
        raise ValueError(f"need 1 <= k < m={m}, got k={k}")
    nearest = np.empty((n, k + 1), dtype=np.intp)
    d_near = np.empty((n, k + 1))
    for rows in row_blocks(n, m):
        block = dists[rows]
        nb = block.shape[0]
        if near is None:
            bound = np.partition(block, k, axis=1)[:, k:k + 1]
        else:
            bound = block.ravel()[near[rows] + np.arange(0, nb * m, m)[:, None]
                                  ].max(axis=1, keepdims=True)
        # Flat ids, row-major: each row's candidates come out ascending.
        flat = np.flatnonzero(block <= bound)
        row, col = np.divmod(flat, m)
        counts = np.bincount(row, minlength=nb)
        starts = np.cumsum(counts) - counts
        width = int(counts.max())
        place = row * width + np.arange(flat.size) - starts[row]
        padded = np.full((nb, width), np.inf)
        padded.ravel()[place] = block.ravel()[flat]
        pick = np.argsort(padded, axis=1, kind="stable")[:, :k + 1]
        nearest[rows] = col[starts[:, None] + pick]
        d_near[rows] = padded.ravel()[np.arange(0, nb * width, width)[:, None]
                                      + pick]
    d_sup = d_near[:, :k]
    num = d_near[:, k:] - d_sup
    den = num.sum(axis=1, keepdims=True)
    degenerate = den <= 0.0
    if uniform:
        weights = np.full((n, k), 1.0 / k)
    else:
        safe_den = np.where(degenerate, 1.0, den)
        weights = np.where(degenerate, 1.0 / k, num / safe_den)
    return nearest, weights, 0.5 * den[:, 0], d_sup


def update_anchors(x_mapped: np.ndarray, g: AnchorGraph) -> np.ndarray:
    """Each anchor moves to the B-weighted mean of the samples: row j of the
    result is sum_i b_ij x_i / delta_j."""
    return g.pool(x_mapped)


def _objective(d_sup, weights, gamma, m: int) -> float:
    """Regularized transport objective for the rows just solved.

    sum_i [ sum_l w_il d_il + gamma_i * sum_j (p_ij - 1/m)^2 ], where the
    second sum runs over all m anchors (the m - k off-support entries each
    contribute 1/m^2).
    """
    k = weights.shape[1]
    fit = float(np.sum(weights * d_sup))
    dev = np.sum((weights - 1.0 / m) ** 2, axis=1) + (m - k) / m ** 2
    return fit + float(np.dot(gamma, dev))


def _reseed_dead_anchors(x, anchors, dists, dead: np.ndarray) -> None:
    """Move each dead anchor onto the sample farthest from its nearest
    anchor; keeps m fixed and every degree positive. In place."""
    nearest = dists.min(axis=1)
    order = np.argsort(nearest, kind="stable")[::-1]
    picks = order[: dead.size]
    anchors[dead] = x[picks]
    new_d = pairwise_sq_dist(x, anchors[dead])
    dists[:, dead] = new_d


def fit_anchor_graph(x_mapped: np.ndarray, anchors0: np.ndarray,
                     cfg: ConnectivitySolveConfig, uniform_rows: bool = False,
                     history: list | None = None) -> AnchorGraph:
    """Alternate row solves and anchor updates until the objective settles.

    anchors0 is the starting anchor set in the same space as x_mapped (warm
    start). The tracked objective is the regularized transport value each
    row solve actually minimized, evaluated at the distances it saw. Both
    half-steps are individually optimal (row solve given distances, anchor
    means given rows), so the per-step descent inequalities hold exactly;
    the cross-iteration sequence settles but may drift slightly because the
    implied per-row regularizer weight follows the moving distances. With
    uniform_rows the rows are flat 1/k over the k nearest anchors (the
    unweighted-graph ablation) and the tracked objective is the plain
    assignment cost, which is monotone end to end.

    Stop rule: the loop ends after the iteration whose objective differs
    from the previous iteration's by less than FIT_TOL = 1e-6 relative to
    the previous value, or after FIT_MAX_ITERS = 15 iterations, whichever
    comes first (both constants are read at call time). The alternating
    scheme carries no convergence guarantee for the moving per-row
    regularizer weight, so the rule is a recorded choice. The relative
    change falls below 1e-3 within 5-16 iterations and then wanders
    between 1e-5 and 1e-3 while supports keep changing, so the cap, not
    the tolerance, ends most fits: all of the perfbench workloads' fits
    and 110 of 150 in the acceptance blob suite. Of caps 10, 12, 14, 15,
    16, 20 and 30, a 1e-3 tolerance and a refit-only cap of 10, only caps
    14-16 passed that suite (c08, c09, c11); 15 sits mid-band, and no
    perfbench workload's median accuracy over ten seeds is lower at 15
    than at 30.

    Each row solve after a fit's first takes the previous solve's k+1
    nearest anchors as near (see _solve_rows), re-seeded solves included:
    the largest distance to those k+1 distinct anchors bounds the (k+1)-th
    smallest from above however the anchors have moved, so the rows and
    their tie rule are those of a solve without it. Since each iteration
    moves the anchors little, the bound leaves few candidates per row.
    A graph with a dead anchor is never returned: its construction raises
    DeadAnchors, the dead anchors are re-seeded and the rows solved again.

    Returns the last iteration's graph; anchors in any space follow from
    it by pooling (g.pool).

    If history is a list, one dict per iteration is appended with keys
    anchors_in, indices, weights, objective.
    """
    x = as_matrix(x_mapped, "x_mapped")
    anchors = as_matrix(anchors0, "anchors0").copy()
    if anchors.shape[1] != x.shape[1]:
        raise ValueError(
            f"anchor dim {anchors.shape[1]} != sample dim {x.shape[1]}")
    m = anchors.shape[0]

    # Later anchors are sample means or samples, so inputs that pass this
    # check do not overflow later; checked once, not per iteration, and
    # reported by the error below rather than by numpy's warnings. The
    # error states the fact only: the remedy depends on what x is. After
    # the distances' clamp every entry is >= 0, NaN or +inf, so the max
    # alone shows a non-finite one, with no n x m bool.
    with np.errstate(over="ignore", invalid="ignore"):
        dists = pairwise_sq_dist(x, anchors)
    if not np.isfinite(dists.max()):
        scale = max(np.max(np.abs(x)), np.max(np.abs(anchors)))
        raise DistanceOverflow(
            f"squared distances overflow float64: the largest |feature| is "
            f"{scale:.3g}")
    prev_obj = None
    near = None
    for _ in range(FIT_MAX_ITERS):
        # Dead anchors would make delta singular; re-seed and re-solve.
        for attempt in range(m + 1):
            near, weights, gamma, d_sup = _solve_rows(
                dists, cfg.k, uniform=uniform_rows, near=near)
            support = near[:, :cfg.k]
            try:
                g = AnchorGraph(support, weights, m)
                break
            except DeadAnchors as err:
                if attempt == m:
                    distinct = np.unique(x, axis=0).shape[0]
                    raise ValueError(
                        f"could not re-seed anchors to positive degree: the "
                        f"{x.shape[0]} points fitted have {distinct} distinct "
                        f"rows for m={m} anchors; use fewer anchors") from err
                _reseed_dead_anchors(x, anchors, dists, err.dead)

        if uniform_rows:
            obj = float(np.sum(weights * d_sup))
        else:
            obj = _objective(d_sup, weights, gamma, m)
        if history is not None:
            history.append({
                "anchors_in": anchors,
                "indices": support.copy(),
                "weights": weights.copy(),
                "objective": obj,
            })

        anchors = update_anchors(x, g)
        # Freed first; the distance call forms its result in the product's
        # buffer, so a fit holds one n x m array at a time.
        del dists
        dists = pairwise_sq_dist(x, anchors)

        if prev_obj is not None:
            denom = max(abs(prev_obj), 1e-30)
            if abs(prev_obj - obj) / denom < FIT_TOL:
                break
        prev_obj = obj

    return g

