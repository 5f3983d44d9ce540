"""Graph-convolution forward passes for both branches of the siamese encoder.

The sample-side adjacency factors as B diag(1/delta) B^T and is never
materialized. A sample-side layer s = A h W runs as B ((diag(1/delta) B^T h)
W): it pools h onto the anchors (AnchorGraph.pool, m x d_l), multiplies the
pooled rows by W, and spreads the m x d_{l+1} result back over the samples
with B. The dense product thus has m rows, not n, and the per-layer cost is
linear in the number of samples for fixed anchor count and widths. The
anchor-side adjacency diag(1/delta) B^T B is a dense m x m matrix, O(m^2)
memory, formed in O(n k^2 + m^2) once per graph and cached on the
AnchorGraph; applying it is one m x m product.

Both forward passes take their first layer's m-row input rather than the
raw features: g.pool(x) on the sample side, apply_anchor_adjacency(g, c) on
the anchor side. Both stay fixed while the graph does, so the caller forms
them once per graph.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .anchor_graph import AnchorGraph
from .numerics import row_blocks


@dataclass
class EncoderParams:
    """Shared encoder weights, one matrix per layer. Every layer but the
    last is followed by a ReLU; the last is linear."""

    layers: list[np.ndarray]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("encoder needs at least one layer")
        for w_in, w_out in zip(self.layers, self.layers[1:]):
            if w_in.shape[1] != w_out.shape[0]:
                raise ValueError(
                    f"layer dims do not chain: {w_in.shape} then {w_out.shape}")


@dataclass
class ForwardCache:
    """One forward pass: the per-layer intermediates backprop reads and the
    top layer's m-row product.

    inputs[l] is the m-row input that multiplies W_l (g.pool(h_l) on the
    sample side, the anchor-side adjacency times h_l on the anchor side);
    masks[l] is the ReLU mask s_l > 0 of each hidden layer l, a bool array
    and the only n-row array a sample-side layer keeps (its activation
    h_{l+1} = relu(s_l) is freed once pooled into inputs[l+1]); top is the
    last layer's product y = inputs[-1] @ W_L. The embedding is y spread by
    the branch's graph: z = g.b_dot(top) on the sample side, z_t = top on
    the anchor side. Readers that need z spread y themselves, so a pass
    that reads only y never forms the n-row z.
    """

    inputs: list[np.ndarray]
    masks: list[np.ndarray]
    top: np.ndarray


def init_params(layer_dims: list[int], rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights for the given dimension chain."""
    if len(layer_dims) < 2:
        raise ValueError("layer_dims needs an input dim and one output dim")
    layers = []
    for d_in, d_out in zip(layer_dims, layer_dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        layers.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
    return EncoderParams(layers)


def apply_anchor_adjacency(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """(diag(1/delta) B^T B) @ h through the graph's cached m x m matrix."""
    return g.anchor_adjacency() @ h


def apply_sample_adjacency(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """(B diag(1/delta) B^T) @ h (n x d) without forming the n x n matrix.
    The forward and backward passes no longer form this n-row aggregate;
    the function is kept because perfbench's tracer looks it up by name."""
    return g.b_dot(g.pool(h))


def pool_t(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """Transpose of AnchorGraph.pool applied to h of shape (m, d):
    B diag(1/delta) @ h (backprop path)."""
    return g.b_dot(h / g.delta[:, None])


def apply_anchor_adjacency_t(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """Transpose of the anchor-side adjacency applied to h (backprop path),
    through the same cached m x m matrix."""
    return g.anchor_adjacency().T @ h


def _forward(g: AnchorGraph, params: EncoderParams, first: np.ndarray,
             gather, spread) -> ForwardCache:
    """Hidden layer l computes h_{l+1} = relu(spread(gather(h_l) @ W_l)),
    the ReLU in place on the spread product over numerics.row_blocks, and
    caches its mask h_{l+1} > 0 and its pooled gather(h_{l+1}); h_{l+1}
    itself is freed before the next layer's spread. The last layer's product
    gather(h_L) @ W_L is cached unspread, as ForwardCache.top.
    first is gather(h_0), m x d_in, formed by the caller and used (and
    cached) as is, uncopied."""
    expected = (g.m, params.layers[0].shape[0])
    if first.shape != expected:
        raise ValueError(f"first-layer input has shape {first.shape}, "
                         f"expected {expected}")
    inputs, masks = [first], []
    for w in params.layers[:-1]:
        h = spread(inputs[-1] @ w)
        mask = np.empty(h.shape, dtype=bool)
        # Per row block, the mask reads the ReLU's output while the block
        # is in cache, so h is swept from memory once. A second whole-array
        # sweep cost 2.5 ms per pass at n = 40000, width 128 (0.5 ms at
        # 20000; two cores), which bends the forward pass's linear scaling.
        for rows in row_blocks(*h.shape):
            block = h[rows]
            np.maximum(block, 0.0, out=block)
            np.greater(block, 0.0, out=mask[rows])
        masks.append(mask)
        inputs.append(gather(h))
        del h
    return ForwardCache(inputs, masks, inputs[-1] @ params.layers[-1])


def conv_forward_samples(g: AnchorGraph, p0: np.ndarray,
                         params: EncoderParams) -> ForwardCache:
    """Embed the n samples from p0 = g.pool(x); the embedding is
    z = g.b_dot(cache.top)."""
    return _forward(g, params, p0, g.pool, g.b_dot)


def conv_forward_anchors(g: AnchorGraph, a0: np.ndarray,
                         params: EncoderParams) -> ForwardCache:
    """Embed the m anchors from a0 = apply_anchor_adjacency(g, c) through the
    shared weights with the anchor-side graph; the embedding is
    z_t = cache.top."""
    return _forward(g, params, a0, partial(apply_anchor_adjacency, g),
                    lambda s: s)
