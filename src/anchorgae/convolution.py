"""Graph-convolution forward passes for both branches of the siamese encoder.

The sample-side adjacency factors as B diag(1/delta) B^T and is never
materialized. A sample-side layer s = A h W runs as B ((diag(1/delta) B^T h)
W): it pools h onto the anchors (AnchorGraph.pool, m x d_l), multiplies the
pooled rows by W, and spreads the m x d_{l+1} result back over the samples
with B. The dense product thus has m rows, not n, and the per-layer cost is
linear in the number of samples for fixed anchor count and widths. The
anchor-side adjacency diag(1/delta) B^T B is a dense m x m matrix, O(m^2)
memory, formed in O(n k^2 + m^2) once per graph and cached on the
AnchorGraph; applying it is one m x m product. Within one round the graph
and the first-layer inputs are fixed, so a caller may compute the
first-layer pooled and aggregated inputs once and pass them to every
forward pass of that round; the pooled samples g.pool(x) are exactly the
anchor inputs that the graph fit and the pullback compute.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .anchor_graph import AnchorGraph


@dataclass
class EncoderParams:
    """Shared encoder weights: one matrix per layer plus activation tags
    ('relu' for hidden layers, 'linear' for the last)."""

    layers: list[np.ndarray]
    activations: list[str]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("encoder needs at least one layer")
        if len(self.layers) != len(self.activations):
            raise ValueError("one activation tag per layer is required")
        for w_in, w_out in zip(self.layers, self.layers[1:]):
            if w_in.shape[1] != w_out.shape[0]:
                raise ValueError(
                    f"layer dims do not chain: {w_in.shape} then {w_out.shape}")
        for tag in self.activations:
            if tag not in ("relu", "linear"):
                raise ValueError(f"unknown activation {tag!r}")
        if self.activations[-1] != "linear":
            raise ValueError("last layer must be linear")


@dataclass
class ForwardCache:
    """Per-layer intermediates kept for backprop: the m-row inputs that
    multiply each weight matrix (the pooled g.pool(h_l) on the sample side,
    the aggregated anchor-side adjacency times h_l on the anchor side) and
    the pre-activations."""

    inputs: list[np.ndarray]
    pre_activation: list[np.ndarray]
    out: np.ndarray


def init_params(layer_dims: list[int], rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights for the given dimension chain; hidden layers
    relu, final layer linear."""
    if len(layer_dims) < 2:
        raise ValueError("layer_dims needs an input dim and one output dim")
    layers = []
    for d_in, d_out in zip(layer_dims, layer_dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        layers.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
    acts = ["relu"] * (len(layers) - 1) + ["linear"]
    return EncoderParams(layers, acts)


def _activate(s: np.ndarray, tag: str) -> np.ndarray:
    return np.maximum(s, 0.0) if tag == "relu" else s


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


def _forward(params: EncoderParams, first: np.ndarray, gather, spread,
             keep_cache: bool) -> tuple[np.ndarray, ForwardCache | None]:
    """Layer l computes s_l = spread(gather(h_l) @ W_l); first is
    gather(h_0), computed by the caller."""
    inputs, pre = [], []
    m_l = first
    for l, (w, tag) in enumerate(zip(params.layers, params.activations)):
        if l:
            m_l = gather(h)
        s_l = spread(m_l @ w)
        h = _activate(s_l, tag)
        if keep_cache:
            inputs.append(m_l)
            pre.append(s_l)
    cache = ForwardCache(inputs, pre, h) if keep_cache else None
    return h, cache


def _first_input(h: np.ndarray, params: EncoderParams, rows: int,
                 given: np.ndarray | None, compute) -> np.ndarray:
    """The first layer's m-row input: given, after a shape check, or
    compute(h)."""
    if h.shape[1] != params.layers[0].shape[0]:
        raise ValueError(
            f"input dim {h.shape[1]} != first layer dim {params.layers[0].shape[0]}")
    if given is None:
        return compute(h)
    if given.shape != (rows, h.shape[1]):
        raise ValueError(f"first-layer input has shape {given.shape}, "
                         f"expected {(rows, h.shape[1])}")
    return given


def conv_forward_samples(g: AnchorGraph, x: np.ndarray, params: EncoderParams,
                         keep_cache: bool = True,
                         pooled_x: np.ndarray | None = None):
    """Embed the n samples. Returns (z, cache); cache is None in inference
    mode (keep_cache=False). pooled_x, if given, must be g.pool(x) (m x d);
    it is used (and cached) as is, uncopied."""
    if g.n != x.shape[0]:
        raise ValueError(f"graph has {g.n} rows but x has {x.shape[0]}")
    first = _first_input(x, params, g.m, pooled_x, g.pool)
    return _forward(params, first, g.pool, g.b_dot, keep_cache)


def conv_forward_anchors(g: AnchorGraph, c: np.ndarray, params: EncoderParams,
                         keep_cache: bool = True,
                         aggregated_c: np.ndarray | None = None):
    """Embed the m anchors through the shared weights with the anchor-side
    graph. Returns (z_t, cache). aggregated_c, if given, must be
    apply_anchor_adjacency(g, c); it is used (and cached) as is, uncopied."""
    if g.m != c.shape[0]:
        raise ValueError(f"graph has {g.m} anchors but c has {c.shape[0]}")
    aggregate = partial(apply_anchor_adjacency, g)
    first = _first_input(c, params, g.m, aggregated_c, aggregate)
    return _forward(params, first, aggregate, lambda s: s, keep_cache)
