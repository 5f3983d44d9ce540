"""Decoder, reconstruction loss, analytic gradients, and the inner
full-batch training loop.

The decoder turns embedding distances into a soft sample-over-anchor
distribution (softmax of negative squared distances) and the loss is the
cross-entropy between the graph's connectivity rows and that reconstruction.
Gradients are hand-derived: the softmax/cross-entropy pair collapses to
(reconstruction - target) on the distance logits, and both siamese branches
accumulate into the shared weights.

No n x m array is ever held. The decoder has two passes over blocks of
rows, both returning the gradient w.r.t. y, the sample branch's top m-row
product (z = B y), and keeping only the reconstruction's entries on the
graph support (n x k), for the loss.

- The dense pass decodes each block from the distances (decode, over
  numerics.row_blocks of numerics.BLOCK_ENTRIES entries), turns its
  softmax into its residual in place and adds it to the embedding
  gradients through three n x m x e products.
- The factored pass uses z = B y and B's unit row sums: the logits are
  B C up to a per-row constant, with C = 2 y t^T - 1 |t|^2^T (m x m), and
  the residual taken through B^T is the m x m matrix B^T q - B^T B. Each
  row then costs two sparse products of k m in place of three dense ones
  of e m, and the gradients come from m x m products.

The sparse products slow down as k and m grow, so the factored pass runs
only when k sqrt(m) <= FACTORED_K_ROOT_M_PER_WIDTH * e, for embedding
width e.

Of the n-row arrays, an epoch holds the activation of each hidden layer of
the sample branch (ForwardCache) and, in backprop, the gradient through one
of them. The factored pass never forms the n x e embedding z; the dense
pass forms it once per epoch. An epoch's caches are freed before the next
epoch's forward pass.
"""

import warnings
from functools import partial

import numpy as np
import scipy.sparse as sp

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

# The decoder runs its factored pass when
# k sqrt(m) <= FACTORED_K_ROOT_M_PER_WIDTH * e (sparsity k, m anchors,
# embedding width e), its dense pass otherwise. Decoder timings at
# n = 10000, m = 100-1000, k = 2-40 on two cores put the crossover near
# k sqrt(m) = 3-4 e at e = 64 and 128; at e = 16 the factored pass stays
# ahead somewhat past the bound. The crossover k m grows with m, so a
# bound on k m fits no single constant.
FACTORED_K_ROOT_M_PER_WIDTH = 3.5

# Adam moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


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
                  grad_top: np.ndarray, spread_t, gather_t) -> list[np.ndarray]:
    """Backprop one branch whose layers compute s_l = spread(gather(h_l) @ W_l)
    (convolution._forward); spread_t and gather_t apply the transposes of
    spread and gather. grad_top is the gradient w.r.t. the top layer's m-row
    product gather(h_L) @ W_L, so spread_t runs only below the top layer.
    Returns per-layer weight gradients."""
    n_layers = len(params.layers)
    grads = [None] * n_layers
    grad = grad_top
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1:
            if cache.activations[l].shape != grad.shape:
                raise ValueError(
                    "cache does not match gradient shapes (stale forward?)")
            # ReLU, in place: grad is an array made here by gather_t, never
            # the caller's grad_top; relu(s) > 0 exactly where s > 0.
            np.multiply(grad, cache.activations[l] > 0.0, out=grad)
            grad = spread_t(grad)
        grads[l] = cache.inputs[l].T @ grad
        if l > 0:
            grad = gather_t(grad @ params.layers[l].T)
    return grads


def _factored(g: AnchorGraph, width: int) -> bool:
    """The rule between the decoder's two passes: factored when
    k sqrt(m) <= FACTORED_K_ROOT_M_PER_WIDTH * width, for embedding width
    `width`."""
    return g.k * np.sqrt(g.m) <= FACTORED_K_ROOT_M_PER_WIDTH * width


def _factored_blocks(g: AnchorGraph
                     ) -> list[tuple[slice, sp.csr_matrix, sp.csc_matrix]]:
    """g's rows as (rows, CSR of B[rows], its CSC transpose view) blocks for
    the factored pass, each of at least m rows, so that adding a block's
    m x m product to the residual costs no more than one sweep over the
    block. A block holds max(BLOCK_ENTRIES, m^2) entries. The transpose
    shares the block's arrays; keeping it saves building it every epoch."""
    k = g.k
    blocks = []
    for rows in row_blocks(g.n, g.m, min_rows=g.m):
        n_rows = rows.stop - rows.start
        indptr = np.arange(0, (n_rows + 1) * k, k, dtype=np.int64)
        b = sp.csr_matrix(
            (g.weights[rows].ravel(), g.indices[rows].ravel(), indptr),
            shape=(n_rows, g.m))
        blocks.append((rows, b, b.T))
    return blocks


def _decode_logits(logits: np.ndarray) -> np.ndarray:
    """Row softmax of logits, in place; each row is shifted by its max."""
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=logits)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _dense_decoder_grads(g: AnchorGraph, z: np.ndarray, z_t: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense pass of _decoder_grads, over row blocks of the n x m
    distances.

    d loss / d distance = p - q; distances differentiate into the
    embeddings as +/- 2 (z_i - zt_j). Row sums of q - p vanish, column sums
    do not. Each block's q becomes q - p in place. The gradient w.r.t. z is
    taken to y through B^T at the end.
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
    return g.bt_dot(grad_z), grad_zt, q_sup


def _factored_decoder_grads(g: AnchorGraph, y: np.ndarray, z_t: np.ndarray,
                            blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factored pass of _decoder_grads, through m x m matrices.

    Since z = B y and B's rows sum to 1, the logits -|z_i - t_j|^2 equal
    (B C)_ij up to a per-row constant, with C = 2 y t^T - 1 |t|^2^T; the
    target is B itself, so the residual taken through B^T is
    E = B^T (q - B) = sum over blocks of B_blk^T q_blk, minus the Gram
    B^T B = diag(delta) times the anchor adjacency. Then B^T dloss/dz = 2 E t, and dloss/dt = 2 E^T y -
    2 diag(1^T E) t. blocks is _factored_blocks(g).
    """
    c = y @ z_t.T
    c *= 2.0
    c -= np.einsum("ij,ij->i", z_t, z_t)
    # B^T B from the cached anchor adjacency diag(1/delta) B^T B, in C order
    # as each block's product is: the adjacency is Fortran-ordered, and
    # adding a C-ordered block into a Fortran array strides across rows
    # (up to 2x slower passes at m = 256 and 512).
    resid = np.multiply(g.anchor_adjacency(), -g.delta[:, None], order="C")
    q_sup = np.empty_like(g.weights)
    for rows, b, bt in blocks:
        q = _decode_logits(b @ c)
        q_sup[rows] = np.take_along_axis(q, g.indices[rows], axis=1)
        resid += bt @ q
    grad_y = 2.0 * (resid @ z_t)
    grad_zt = 2.0 * (resid.T @ y) - 2.0 * resid.sum(axis=0)[:, None] * z_t
    return grad_y, grad_zt, q_sup


def _decoder_grads(g: AnchorGraph, sample_cache: ForwardCache,
                   z_t: np.ndarray, blocks=None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the loss w.r.t. y = sample_cache.top, the sample
    branch's top m-row product (z = B y), and w.r.t. z_t, and the
    reconstruction on the graph support: (grad_y, grad_zt, q_sup).
    _factored picks the pass. The factored one reads only y, so z is never
    formed, and uses blocks (_factored_blocks(g)), formed here if None; the
    dense one forms z = B y.
    """
    if not _factored(g, z_t.shape[1]):
        return _dense_decoder_grads(g, g.b_dot(sample_cache.top), z_t)
    if blocks is None:
        blocks = _factored_blocks(g)
    return _factored_decoder_grads(g, sample_cache.top, z_t, blocks)


def backward(g: AnchorGraph, sample_cache: ForwardCache,
             anchor_cache: ForwardCache, params: EncoderParams, blocks=None,
             ) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradient of the reconstruction loss w.r.t. every shared weight matrix,
    and the reconstruction on the graph support that loss() takes.

    The target distribution is g's connectivity rows. Both branches
    contribute. On the sample side layer l computes B (P_l W_l), with
    P_l = diag(1/delta) B^T h_l cached by the forward pass. The decoder
    hands back the gradient w.r.t. the top product y = P_L W_L, which the
    cache holds; below it each layer's gradient g_l goes through B^T once:
    u = B^T g_l gives the weight gradient P_l^T u and, through
    B diag(1/delta) (u W_l^T), the gradient of the layer below; every dense
    product has m rows. The anchor side needs the explicit transpose of its
    adjacency. blocks is passed on to _decoder_grads.
    """
    n_layers = len(params.layers)
    for cache in (sample_cache, anchor_cache):
        if (len(cache.inputs) != n_layers
                or len(cache.activations) != n_layers - 1):
            raise ValueError("cache does not match params (stale forward?)")
    grad_y, grad_zt, q_sup = _decoder_grads(g, sample_cache,
                                            anchor_cache.top, blocks)
    grads_s = _branch_grads(sample_cache, params, grad_y, g.bt_dot,
                            partial(pool_t, g))
    grads_a = _branch_grads(anchor_cache, params, grad_zt, lambda h: h,
                            partial(apply_anchor_adjacency_t, g))
    return [gs + ga for gs, ga in zip(grads_s, grads_a)], q_sup


def train(g: AnchorGraph, p0: np.ndarray, a0: np.ndarray,
          params: EncoderParams, epochs: int, learning_rate: float,
          optimizer: str) -> np.ndarray:
    """Run `epochs` full-batch steps on the siamese encoder with optimizer
    'gd' or 'adam' at learning_rate (0 makes every step a no-op). The
    caller checks the three settings (pipeline.AnchorGaeConfig holds them).

    Updates params in place and returns the per-epoch loss trace.
    Aborts with TrainingDiverged naming the epoch if the loss leaves the
    finite range. p0 = g.pool(x) and a0 = apply_anchor_adjacency(g, c) are
    the first-layer inputs of the two branches, both m x d; they do not
    change between epochs.
    """
    trace = np.empty(epochs)
    blocks = (_factored_blocks(g)
              if _factored(g, params.layers[-1].shape[1]) else None)
    adam_m = [np.zeros_like(w) for w in params.layers]
    adam_v = [np.zeros_like(w) for w in params.layers]
    for epoch in range(epochs):
        # The caches are backward's arguments only, so they are freed when
        # it returns, before the next epoch's forward pass.
        grads, q_sup = backward(g, conv_forward_samples(g, p0, params),
                                conv_forward_anchors(g, a0, params), params,
                                blocks)
        value = loss(g, q_sup)
        if not np.isfinite(value):
            raise TrainingDiverged(f"loss became non-finite at epoch {epoch}")
        trace[epoch] = value

        if optimizer == "gd":
            for w, grad in zip(params.layers, grads):
                w -= learning_rate * grad
        else:
            t = epoch + 1
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for w, grad, m1, v1 in zip(params.layers, grads, adam_m, adam_v):
                m1 *= ADAM_BETA1
                m1 += (1.0 - ADAM_BETA1) * grad
                v1 *= ADAM_BETA2
                v1 += (1.0 - ADAM_BETA2) * grad * grad
                w -= learning_rate * (m1 / bc1) / (np.sqrt(v1 / bc2) + ADAM_EPS)
    return trace
