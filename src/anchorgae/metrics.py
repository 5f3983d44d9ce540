"""Clustering quality measures: accuracy under the optimal label matching
and normalized mutual information (geometric-mean normalizer)."""

import numpy as np
from scipy.optimize import linear_sum_assignment


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


def acc(pred, truth) -> float:
    """Fraction of samples matched under the best predicted-to-true label
    bijection (Hungarian assignment on the padded contingency table)."""
    table = _contingency(pred, truth)
    size = max(table.shape)
    cost = np.zeros((size, size), dtype=np.int64)
    cost[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(cost.max() - cost)
    return float(cost[rows, cols].sum()) / float(table.sum())


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
