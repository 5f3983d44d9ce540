"""Decoder, reconstruction loss, analytic gradients, and the inner
full-batch training loop.

The decoder turns embedding distances into a soft sample-over-anchor
distribution (softmax of negative squared distances) and the loss is the
cross-entropy between the graph's connectivity rows and that reconstruction.
Gradients are hand-derived: the softmax/cross-entropy pair collapses to
(reconstruction - target) on the distance logits, and both siamese branches
accumulate into the shared weights.

No n x m array is ever held. The decoder runs over blocks of rows
(row_blocks; the block size is the module constant BLOCK_ENTRIES, in
entries): each block's softmax is turned into its residual in place and
added to the embedding gradients, and only its entries on the graph
support (n x k) are kept, for the loss.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .anchor_graph import AnchorGraph
from .convolution import (
    EncoderParams,
    ForwardCache,
    apply_anchor_adjacency,
    apply_anchor_adjacency_t,
    apply_sample_adjacency,
    conv_forward_anchors,
    conv_forward_samples,
)
from .numerics import pairwise_sq_dist

Q_FLOOR = 1e-300

# Decoder entries per row block (a row is never split): 2**16 float64 is
# 512 KiB per block array. At n=3000-20000, m=200-256, d=64 on two cores,
# 2**15 to 2**18 time alike and 2**12 is up to 1.6x slower.
BLOCK_ENTRIES = 2 ** 16

# Adam moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class TrainConfig:
    """Inner-loop settings. learning_rate=0 is allowed (no-op steps)."""

    inner_epochs: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adam"

    def __post_init__(self):
        if self.inner_epochs < 1:
            raise ValueError(f"inner_epochs must be >= 1, got {self.inner_epochs}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got "
                             f"{self.learning_rate}")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"optimizer must be 'gd' or 'adam', got {self.optimizer!r}")


def row_blocks(n: int, m: int):
    """Consecutive row slices covering range(n), each of at most
    max(1, BLOCK_ENTRIES // m) rows: the blocks the decoder runs over."""
    step = max(1, BLOCK_ENTRIES // m)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def decode(z: np.ndarray, z_t: np.ndarray) -> np.ndarray:
    """Reconstructed connectivity: row-softmax of negative squared distances
    between sample and anchor embeddings. Each row is shifted by its
    smallest distance (max-subtraction on the logits) and exponentiated in
    the distance array itself."""
    if z.shape[1] != z_t.shape[1]:
        raise ValueError(
            f"embedding dims differ: samples {z.shape[1]}, anchors {z_t.shape[1]}")
    q = pairwise_sq_dist(z, z_t)
    q -= q.min(axis=1, keepdims=True)
    np.negative(q, out=q)
    np.exp(q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    return q


def decode_on_support(g: AnchorGraph, z: np.ndarray, z_t: np.ndarray
                      ) -> np.ndarray:
    """The reconstruction on g's support (n x k), q[i, g.indices[i, t]],
    decoded over row blocks."""
    q_sup = np.empty_like(g.weights)
    for rows in row_blocks(g.n, g.m):
        q_sup[rows] = np.take_along_axis(decode(z[rows], z_t),
                                         g.indices[rows], axis=1)
    return q_sup


def loss(p: AnchorGraph, q_sup: np.ndarray) -> float:
    """Cross-entropy sum_i sum_j p_ij log(1/q_ij) from the reconstruction on
    the graph support (q_sup[i, t] = q[i, p.indices[i, t]]); only the k
    stored entries of each row contribute. q_sup is floored at 1e-300
    before the log."""
    if q_sup.shape != p.weights.shape:
        raise ValueError(
            f"q_sup has shape {q_sup.shape}, expected {p.weights.shape}")
    if np.any((q_sup <= 0.0) & (p.weights > 0.0)):
        warnings.warn("reconstruction underflowed to 0 on the graph support; "
                      "clamping before the log", RuntimeWarning)
    q_sup = np.maximum(q_sup, Q_FLOOR)
    return float(-np.sum(p.weights * np.log(q_sup)))


def _branch_grads(g: AnchorGraph, cache: ForwardCache, params: EncoderParams,
                  grad_out: np.ndarray, apply_adj_t) -> list[np.ndarray]:
    """Backprop one branch; returns per-layer weight gradients."""
    n_layers = len(params.layers)
    if len(cache.aggregated) != n_layers or len(cache.pre_activation) != n_layers:
        raise ValueError("cache does not match params (stale forward?)")
    grads = [None] * n_layers
    grad = grad_out
    for l in range(n_layers - 1, -1, -1):
        if cache.pre_activation[l].shape != grad.shape:
            raise ValueError("cache does not match gradient shapes (stale forward?)")
        if params.activations[l] == "relu":
            grad = grad * (cache.pre_activation[l] > 0.0)
        grads[l] = cache.aggregated[l].T @ grad
        if l > 0:
            grad = apply_adj_t(g, grad @ params.layers[l].T)
    return grads


def _decoder_grads(g: AnchorGraph, z: np.ndarray, z_t: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the loss w.r.t. both embeddings, and the reconstruction
    on the graph support: (grad_z, grad_zt, q_sup), one pass over row
    blocks.

    d loss / d distance = p - q; distances differentiate into the
    embeddings as +/- 2 (z_i - zt_j). Row sums of q - p vanish, column sums
    do not. Each block's q becomes q - p in place.
    """
    grad_z = np.empty_like(z)
    diff_t_z = np.zeros_like(z_t)
    col_sums = np.zeros(g.m)
    q_sup = np.empty_like(g.weights)
    for rows in row_blocks(g.n, g.m):
        diff = decode(z[rows], z_t)
        sup = np.arange(diff.shape[0])[:, None], g.indices[rows]
        q_sup[rows] = diff[sup]
        diff[sup] = q_sup[rows] - g.weights[rows]
        np.matmul(diff, z_t, out=grad_z[rows])
        diff_t_z += diff.T @ z[rows]
        col_sums += diff.sum(axis=0)
    grad_z *= 2.0
    grad_zt = 2.0 * diff_t_z - 2.0 * col_sums[:, None] * z_t
    return grad_z, grad_zt, q_sup


def backward(g: AnchorGraph, sample_cache: ForwardCache,
             anchor_cache: ForwardCache, params: EncoderParams,
             ) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradient of the reconstruction loss w.r.t. every shared weight matrix,
    and the reconstruction on the graph support that loss() takes.

    The target distribution is g's connectivity rows. Both branches
    contribute; the sample-side adjacency is symmetric while the anchor-side
    one needs its explicit transpose.
    """
    grad_z, grad_zt, q_sup = _decoder_grads(g, sample_cache.out,
                                            anchor_cache.out)
    grads_s = _branch_grads(g, sample_cache, params, grad_z,
                            lambda gg, h: apply_sample_adjacency(gg, h))
    grads_a = _branch_grads(g, anchor_cache, params, grad_zt,
                            apply_anchor_adjacency_t)
    return [gs + ga for gs, ga in zip(grads_s, grads_a)], q_sup


def train(g: AnchorGraph, x: np.ndarray, c: np.ndarray, params: EncoderParams,
          cfg: TrainConfig,
          aggregated: tuple[np.ndarray, np.ndarray] | None = None,
          ) -> tuple[EncoderParams, np.ndarray]:
    """Run cfg.inner_epochs full-batch steps on the siamese encoder.

    Updates params in place and returns (params, per-epoch loss trace).
    Aborts with TrainingDiverged naming the epoch if the loss leaves the
    finite range. aggregated is the first-layer pair
    (apply_sample_adjacency(g, x), apply_anchor_adjacency(g, c)); g, x and c
    do not change between epochs, so it is computed once, here if the
    caller does not pass it.
    """
    if aggregated is None:
        aggregated = (apply_sample_adjacency(g, x), apply_anchor_adjacency(g, c))
    ax, ac = aggregated
    trace = np.empty(cfg.inner_epochs)
    adam_m = [np.zeros_like(w) for w in params.layers]
    adam_v = [np.zeros_like(w) for w in params.layers]
    for epoch in range(cfg.inner_epochs):
        _, cache_s = conv_forward_samples(g, x, params, aggregated_x=ax)
        _, cache_a = conv_forward_anchors(g, c, params, aggregated_c=ac)
        grads, q_sup = backward(g, cache_s, cache_a, params)
        value = loss(g, q_sup)
        if not np.isfinite(value):
            raise TrainingDiverged(f"loss became non-finite at epoch {epoch}")
        trace[epoch] = value

        if cfg.optimizer == "gd":
            for w, grad in zip(params.layers, grads):
                w -= cfg.learning_rate * grad
        else:
            t = epoch + 1
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for w, grad, m1, v1 in zip(params.layers, grads, adam_m, adam_v):
                m1 *= ADAM_BETA1
                m1 += (1.0 - ADAM_BETA1) * grad
                v1 *= ADAM_BETA2
                v1 += (1.0 - ADAM_BETA2) * grad * grad
                w -= cfg.learning_rate * (m1 / bc1) / (np.sqrt(v1 / bc2) + ADAM_EPS)
    return params, trace
