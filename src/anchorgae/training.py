"""Decoder, reconstruction loss, analytic gradients, and the inner
full-batch training loop.

The decoder turns embedding distances into a soft sample-over-anchor
distribution (softmax of negative squared distances) and the loss is the
cross-entropy between the graph's connectivity rows and that reconstruction.
Gradients are hand-derived: the softmax/cross-entropy pair collapses to
(reconstruction - target) on the distance logits, and both siamese branches
accumulate into the shared weights.

No n x m array is ever held. The decoder runs over blocks of rows
(numerics.row_blocks; the block size is the constant
numerics.BLOCK_ENTRIES, in entries): each block's softmax is turned into
its residual in place and added to the embedding gradients, and only its
entries on the graph support (n x k) are kept, for the loss.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .anchor_graph import AnchorGraph
from .convolution import (
    EncoderParams,
    ForwardCache,
    apply_anchor_adjacency_t,
    conv_forward_anchors,
    conv_forward_samples,
    pool_t,
)
from .numerics import pairwise_sq_dist, row_blocks

Q_FLOOR = 1e-300

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


def decode(z: np.ndarray, z_t: np.ndarray) -> np.ndarray:
    """Reconstructed connectivity: row-softmax of negative squared distances
    between sample and anchor embeddings. Each row is shifted by its
    smallest distance (max-subtraction on the logits) and exponentiated in
    the distance array itself."""
    if z.shape[1] != z_t.shape[1]:
        raise ValueError(
            f"embedding dims differ: samples {z.shape[1]}, anchors {z_t.shape[1]}")
    q = pairwise_sq_dist(z, z_t)
    np.subtract(q.min(axis=1, keepdims=True), q, out=q)
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


def _branch_grads(cache: ForwardCache, params: EncoderParams,
                  grad_out: np.ndarray, spread_t, gather_t) -> list[np.ndarray]:
    """Backprop one branch whose layers compute s_l = spread(gather(h_l) @ W_l)
    (convolution._forward); spread_t and gather_t apply the transposes of
    spread and gather. Returns per-layer weight gradients."""
    n_layers = len(params.layers)
    if len(cache.inputs) != n_layers or len(cache.pre_activation) != n_layers:
        raise ValueError("cache does not match params (stale forward?)")
    grads = [None] * n_layers
    grad = grad_out
    for l in range(n_layers - 1, -1, -1):
        if cache.pre_activation[l].shape != grad.shape:
            raise ValueError("cache does not match gradient shapes (stale forward?)")
        if params.activations[l] == "relu":
            # In place: the last layer is linear, so grad is an array made
            # here, never the caller's grad_out.
            np.multiply(grad, cache.pre_activation[l] > 0.0, out=grad)
        grad = spread_t(grad)
        grads[l] = cache.inputs[l].T @ grad
        if l > 0:
            grad = gather_t(grad @ params.layers[l].T)
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
    contribute. On the sample side layer l computes B (P_l W_l), with
    P_l = diag(1/delta) B^T h_l cached by the forward pass, so its gradient
    g_l goes through B^T once: u = B^T g_l gives the weight gradient
    P_l^T u and, through B diag(1/delta) (u W_l^T), the gradient of the
    layer below; every dense product has m rows. The anchor side needs the
    explicit transpose of its adjacency.
    """
    grad_z, grad_zt, q_sup = _decoder_grads(g, sample_cache.out,
                                            anchor_cache.out)
    grads_s = _branch_grads(sample_cache, params, grad_z, g.bt_dot,
                            partial(pool_t, g))
    grads_a = _branch_grads(anchor_cache, params, grad_zt, lambda h: h,
                            partial(apply_anchor_adjacency_t, g))
    return [gs + ga for gs, ga in zip(grads_s, grads_a)], q_sup


def train(g: AnchorGraph, p0: np.ndarray, a0: np.ndarray,
          params: EncoderParams, cfg: TrainConfig
          ) -> tuple[EncoderParams, np.ndarray]:
    """Run cfg.inner_epochs full-batch steps on the siamese encoder.

    Updates params in place and returns (params, per-epoch loss trace).
    Aborts with TrainingDiverged naming the epoch if the loss leaves the
    finite range. p0 = g.pool(x) and a0 = apply_anchor_adjacency(g, c) are
    the first-layer inputs of the two branches, both m x d; they do not
    change between epochs.
    """
    trace = np.empty(cfg.inner_epochs)
    adam_m = [np.zeros_like(w) for w in params.layers]
    adam_v = [np.zeros_like(w) for w in params.layers]
    for epoch in range(cfg.inner_epochs):
        _, cache_s = conv_forward_samples(g, p0, params)
        _, cache_a = conv_forward_anchors(g, a0, params)
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
