"""Graph-convolution forward passes for both branches of the siamese encoder.

The sample-side adjacency factors as B diag(1/delta) B^T and is never
materialized: a layer multiplies by B^T and B in sequence, keeping the
per-layer cost linear in the number of samples for fixed anchor count and
widths. The anchor-side adjacency diag(1/delta) B^T B is a dense m x m
matrix, O(m^2) memory, formed in O(n k^2 + m^2) once per graph and cached on
the AnchorGraph; applying it is one m x m product. Within one round the
graph and the first-layer inputs are fixed, so a caller may aggregate the
inputs once and pass the result to every forward pass of that round.
"""

from dataclasses import dataclass

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

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].shape[0]] + [w.shape[1] for w in self.layers]

    def copy(self) -> "EncoderParams":
        return EncoderParams([w.copy() for w in self.layers],
                             list(self.activations))


@dataclass
class ForwardCache:
    """Per-layer intermediates kept for backprop: the aggregated inputs that
    multiply each weight matrix and the pre-activations."""

    aggregated: list[np.ndarray]
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


def apply_sample_adjacency(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """(B diag(1/delta) B^T) @ h without forming the n x n matrix."""
    return g.b_dot(g.bt_dot(h) / g.delta[:, None])


def apply_anchor_adjacency(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """(diag(1/delta) B^T B) @ h through the graph's cached m x m matrix."""
    return g.anchor_adjacency() @ h


def apply_anchor_adjacency_t(g: AnchorGraph, h: np.ndarray) -> np.ndarray:
    """Transpose of the anchor-side adjacency applied to h (backprop path),
    through the same cached m x m matrix; the sample-side adjacency is
    symmetric so it is its own transpose."""
    return g.anchor_adjacency().T @ h


def _forward(g: AnchorGraph, x: np.ndarray, params: EncoderParams,
             apply_adj, keep_cache: bool,
             aggregated_x: np.ndarray | None
             ) -> tuple[np.ndarray, ForwardCache | None]:
    if x.shape[1] != params.layers[0].shape[0]:
        raise ValueError(
            f"input dim {x.shape[1]} != first layer dim {params.layers[0].shape[0]}")
    if aggregated_x is None:
        aggregated_x = apply_adj(g, x)
    elif aggregated_x.shape != x.shape:
        raise ValueError(f"aggregated input has shape {aggregated_x.shape}, "
                         f"expected {x.shape}")
    aggregated, pre = [], []
    m_l = aggregated_x
    for l, (w, tag) in enumerate(zip(params.layers, params.activations)):
        if l:
            m_l = apply_adj(g, h)
        s_l = m_l @ w
        h = _activate(s_l, tag)
        if keep_cache:
            aggregated.append(m_l)
            pre.append(s_l)
    cache = ForwardCache(aggregated, pre, h) if keep_cache else None
    return h, cache


def conv_forward_samples(g: AnchorGraph, x: np.ndarray, params: EncoderParams,
                         keep_cache: bool = True,
                         aggregated_x: np.ndarray | None = None):
    """Embed the n samples. Returns (z, cache); cache is None in inference
    mode (keep_cache=False). aggregated_x, if given, must be
    apply_sample_adjacency(g, x); it is used (and cached) as is, uncopied."""
    if g.n != x.shape[0]:
        raise ValueError(f"graph has {g.n} rows but x has {x.shape[0]}")
    return _forward(g, x, params, apply_sample_adjacency, keep_cache,
                    aggregated_x)


def conv_forward_anchors(g: AnchorGraph, c: np.ndarray, params: EncoderParams,
                         keep_cache: bool = True,
                         aggregated_c: np.ndarray | None = None):
    """Embed the m anchors through the shared weights with the anchor-side
    graph. Returns (z_t, cache). aggregated_c, if given, must be
    apply_anchor_adjacency(g, c); it is used (and cached) as is, uncopied."""
    if g.m != c.shape[0]:
        raise ValueError(f"graph has {g.m} anchors but c has {c.shape[0]}")
    return _forward(g, c, params, apply_anchor_adjacency, keep_cache,
                    aggregated_c)
