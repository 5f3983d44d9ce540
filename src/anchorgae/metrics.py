"""Clustering quality measures: accuracy under the optimal label matching
and normalized mutual information (geometric-mean normalizer).

The matching is an exact assignment on the c x c count table, solved here
in numpy by the Hungarian method, so computing ACC imports no scipy module.
"""

import numpy as np


def _contingency(pred, truth) -> np.ndarray:
    """Joint count table after mapping both label sets to dense ids."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise ValueError(
            f"label vectors differ in length: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """cols with sum(cost[i, cols[i]]) minimal over all permutations, for a
    square integer cost matrix: Kuhn's Hungarian method with row and column
    potentials, one shortest augmenting path per row, O(c^3) in all.
    Integer costs keep every potential exact."""
    c = cost.shape[0]
    never = np.iinfo(np.int64).max
    # Column 0 is a virtual start; match[j] is the 1-based row matched to
    # column j (0 for none), u and v are the row and column potentials.
    u = np.zeros(c + 1, dtype=np.int64)
    v = np.zeros(c + 1, dtype=np.int64)
    match = np.zeros(c + 1, dtype=np.int64)
    for i in range(1, c + 1):
        match[0] = i
        col = 0
        slack = np.full(c + 1, never, dtype=np.int64)
        prev = np.zeros(c + 1, dtype=np.int64)
        used = np.zeros(c + 1, dtype=bool)
        while match[col]:
            used[col] = True
            row = match[col]
            reduced = cost[row - 1] - u[row] - v[1:]
            free = ~used[1:]
            closer = free & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            prev[1:][closer] = col
            nxt = int(np.argmin(np.where(free, slack[1:], never))) + 1
            step = slack[nxt]
            u[match[used]] += step
            v[used] -= step
            slack[1:][free] -= step
            col = nxt
        while col:
            back = prev[col]
            match[col] = match[back]
            col = back
    cols = np.empty(c, dtype=np.int64)
    cols[match[1:] - 1] = np.arange(c)
    return cols


def acc(pred, truth) -> float:
    """Fraction of samples matched under the best predicted-to-true label
    bijection: a maximum-count assignment on the contingency table, padded
    with zero rows or columns to square."""
    table = _contingency(pred, truth)
    size = max(table.shape)
    counts = np.zeros((size, size), dtype=np.int64)
    counts[: table.shape[0], : table.shape[1]] = table
    cols = _min_cost_assignment(counts.max() - counts)
    return float(counts[np.arange(size), cols].sum()) / float(table.sum())


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by sqrt(H(pred) H(truth)).

    Either entropy being zero gives 0 by convention, except two identical
    single-cluster partitions, which score 1.
    """
    table = _contingency(pred, truth)
    h_pred = _entropy(table.sum(axis=1))
    h_truth = _entropy(table.sum(axis=0))
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if table.shape == (1, 1) else 0.0
    n = table.sum()
    pij = table / n
    outer = np.outer(table.sum(axis=1), table.sum(axis=0)) / (n * n)
    mask = table > 0
    info = float((pij[mask] * np.log(pij[mask] / outer[mask])).sum())
    return info / np.sqrt(h_pred * h_truth)
