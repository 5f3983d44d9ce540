"""Decoder, reconstruction loss, analytic gradients, and the inner
full-batch training loop.

The decoder turns embedding distances into a soft sample-over-anchor
distribution (softmax of negative squared distances) and the loss is the
cross-entropy between the graph's connectivity rows and that reconstruction.
Gradients are hand-derived: the softmax/cross-entropy pair collapses to
(reconstruction - target) on the distance logits, and both siamese branches
accumulate into the shared weights.
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


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class TrainConfig:
    """Inner-loop settings. learning_rate=0 is allowed (no-op steps)."""

    inner_epochs: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = None

    def __post_init__(self):
        if self.inner_epochs < 1:
            raise ValueError(f"inner_epochs must be >= 1, got {self.inner_epochs}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"optimizer must be 'gd' or 'adam', got {self.optimizer!r}")


def decode(z: np.ndarray, z_t: np.ndarray) -> np.ndarray:
    """Reconstructed connectivity: row-softmax of negative squared distances
    between sample and anchor embeddings, computed with max-subtraction."""
    if z.shape[1] != z_t.shape[1]:
        raise ValueError(
            f"embedding dims differ: samples {z.shape[1]}, anchors {z_t.shape[1]}")
    logits = -pairwise_sq_dist(z, z_t)
    logits -= logits.max(axis=1, keepdims=True)
    q = np.exp(logits)
    q /= q.sum(axis=1, keepdims=True)
    return q


def loss(p: AnchorGraph, q: np.ndarray) -> float:
    """Cross-entropy sum_i sum_j p_ij log(1/q_ij); only the k stored entries
    of each row contribute. q is floored at 1e-300 before the log."""
    if q.shape != (p.n, p.m):
        raise ValueError(f"q has shape {q.shape}, expected {(p.n, p.m)}")
    q_sup = np.take_along_axis(q, p.indices, axis=1)
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


def backward(g: AnchorGraph, sample_cache: ForwardCache,
             anchor_cache: ForwardCache, params: EncoderParams,
             q: np.ndarray) -> list[np.ndarray]:
    """Gradient of the reconstruction loss w.r.t. every shared weight matrix.

    The target distribution is g's connectivity rows. Both branches
    contribute; the sample-side adjacency is symmetric while the anchor-side
    one needs its explicit transpose.
    """
    z, z_t = sample_cache.out, anchor_cache.out
    resid = -q.copy()
    rows = np.arange(g.n)[:, None]
    resid[rows, g.indices] += g.weights  # p - q, dense

    # d loss / d distance = (p - q); distances differentiate into the
    # embeddings as +/- 2 (z_i - zt_j). Row sums of resid vanish, column
    # sums do not.
    grad_z = -2.0 * (resid @ z_t)
    grad_zt = -2.0 * (resid.T @ z) + 2.0 * resid.sum(axis=0)[:, None] * z_t

    grads_s = _branch_grads(g, sample_cache, params, grad_z,
                            lambda gg, h: apply_sample_adjacency(gg, h))
    grads_a = _branch_grads(g, anchor_cache, params, grad_zt,
                            apply_anchor_adjacency_t)
    return [gs + ga for gs, ga in zip(grads_s, grads_a)]


def _clip_grads(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    total = np.sqrt(sum(float(np.sum(grad * grad)) for grad in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        return [grad * scale for grad in grads]
    return grads


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
        z, cache_s = conv_forward_samples(g, x, params, aggregated_x=ax)
        z_t, cache_a = conv_forward_anchors(g, c, params, aggregated_c=ac)
        q = decode(z, z_t)
        value = loss(g, q)
        if not np.isfinite(value):
            raise TrainingDiverged(f"loss became non-finite at epoch {epoch}")
        trace[epoch] = value

        grads = backward(g, cache_s, cache_a, params, q)
        if cfg.grad_clip is not None:
            grads = _clip_grads(grads, cfg.grad_clip)

        if cfg.optimizer == "gd":
            for w, grad in zip(params.layers, grads):
                w -= cfg.learning_rate * grad
        else:
            t = epoch + 1
            bc1 = 1.0 - cfg.beta1 ** t
            bc2 = 1.0 - cfg.beta2 ** t
            for w, grad, m1, v1 in zip(params.layers, grads, adam_m, adam_v):
                m1 *= cfg.beta1
                m1 += (1.0 - cfg.beta1) * grad
                v1 *= cfg.beta2
                v1 += (1.0 - cfg.beta2) * grad * grad
                w -= cfg.learning_rate * (m1 / bc1) / (np.sqrt(v1 / bc2) + cfg.eps)
    return params, trace
