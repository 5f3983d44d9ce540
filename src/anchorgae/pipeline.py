"""Self-supervised outer loop: train the encoder, re-estimate the graph from
the embeddings, pull anchors back to input space, and grow the per-row
sparsity so the refitted graph cannot fragment into uniform micro-clusters.

A well-reconstructed graph refit at fixed sparsity collapses: rows converge
to flat 1/k distributions and the bipartite graph breaks into many tiny
components. The collapse diagnostics recorded each outer iteration (support
uniformity gap, component count, reconstruction gap) make that failure mode
observable, and the ablation modes reproduce it on demand.

The per-round snapshot needs the reconstruction only on the graph support:
training.decode_on_support decodes the embeddings over the dense decoder
pass's row blocks (sized by the constant numerics.BLOCK_ENTRIES) and keeps
those n x k entries, so no n x m array is held here either.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .anchor_graph import (
    FIT_MAX_ITERS,
    AnchorGraph,
    ConnectivitySolveConfig,
    DistanceOverflow,
    fit_anchor_graph,
    init_anchors,
)
from .convolution import (
    apply_anchor_adjacency,
    conv_forward_anchors,
    conv_forward_samples,
    init_params,
)
from .numerics import as_matrix, spawn_rngs
from .training import TrainConfig, TrainingDiverged, decode_on_support, train

MODES = ("full", "fixed_b", "fixed_k", "knn")


class PipelineStageError(RuntimeError):
    """A stage of the outer loop failed; the message names the stage."""


def sparsity_increment(k0: int, m: int, n: int, n_s: int,
                       outer_epochs: int) -> int:
    """delta_k, the growth of the row sparsity k per outer iteration.

    k_m = min(floor(m * n_s / n), m - 1) is the anchor-count-scaled estimate
    of the smallest cluster size; delta_k spreads the climb from k0 to k_m
    over the outer epochs and is 0 when k_m <= k0. So k never passes
    max(k0, k_m) <= m - 1, and every row solve keeps k < m.
    """
    if outer_epochs == 0:
        return 0
    k_m = min(m * n_s // n, m - 1)
    return max((k_m - k0) // outer_epochs, 0)


@dataclass
class CollapseEntry:
    """One outer iteration's worth of collapse diagnostics."""

    iteration: int
    k: int
    uniformity_gap: float
    component_count: int
    reconstruction_gap: float


def measure_collapse(g: AnchorGraph, q_sup: np.ndarray,
                     iteration: int) -> CollapseEntry:
    """Diagnostics of one round's (graph, reconstruction) pair; q_sup holds
    the reconstruction on the graph support (q_sup[i, t] = q[i, g.indices[i, t]]).

    uniformity_gap: how far the support weights sit from the flat 1/k row.
    component_count: connected components of the bipartite graph (samples
    and anchors as nodes, positive-weight entries as edges), counted by
    _component_count.
    reconstruction_gap: max |q - b| over the stored support.
    """
    if q_sup.shape != g.weights.shape:
        raise ValueError(
            f"q_sup has shape {q_sup.shape}, expected {g.weights.shape}")
    gap = float(np.max(np.abs(g.weights - 1.0 / g.k)))
    recon = float(np.max(np.abs(q_sup - g.weights)))

    return CollapseEntry(iteration=iteration, k=g.k, uniformity_gap=gap,
                         component_count=_component_count(g),
                         reconstruction_gap=recon)


def _component_count(g: AnchorGraph) -> int:
    """Connected components of g's bipartite graph, positive weights as
    edges. Every anchor has positive degree, so each component but a sample
    with no positive weight (a component of its own) is a set of anchors
    linked through shared samples. Union-find over the anchors: each root
    hooks onto the smallest root across its links, then every label jumps
    to its root, until every link joins equal roots."""
    # Each row links its live anchors to its first live anchor (a row with
    # none links nothing).
    live = g.weights > 0
    first = g.indices[np.arange(g.n), live.argmax(axis=1)]
    a = np.broadcast_to(first[:, None], live.shape)[live]
    b = g.indices[live]
    root = np.arange(g.m)
    while True:
        ra, rb = root[a], root[b]
        low = np.minimum(ra, rb)
        hooked = root.copy()
        np.minimum.at(hooked, ra, low)
        np.minimum.at(hooked, rb, low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            break
        root = hooked
    isolated = g.n - int(np.count_nonzero(live.any(axis=1)))
    return int(np.count_nonzero(root == np.arange(g.m))) + isolated


def pullback_anchors(x: np.ndarray, g: AnchorGraph) -> np.ndarray:
    """Estimate anchors in the original feature space as the degree-
    normalized B-weighted mean of the raw samples, so each anchor stays in
    the convex hull of the data."""
    return g.pool(np.asarray(x, dtype=np.float64))


@dataclass
class AnchorGaeConfig:
    """Everything one end-to-end run needs."""

    clusters: int
    anchors: int = 100
    hidden_dims: tuple[int, ...] = (128, 64)
    k0: int = 3
    outer_epochs: int = 5
    inner_epochs: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    mode: str = "full"
    n_s: int | None = None
    seed: int = 0
    fit_max_iters: int = FIT_MAX_ITERS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 2 <= self.clusters <= self.anchors:
            raise ValueError(f"clusters must be between 2 and anchors="
                             f"{self.anchors}, got {self.clusters}")
        if self.k0 < 1:
            raise ValueError(f"k0 must be >= 1, got {self.k0}")
        if self.anchors <= self.k0:
            raise ValueError(
                f"anchors={self.anchors} must exceed k0={self.k0}")
        if self.outer_epochs < 0:
            raise ValueError(f"outer_epochs must be >= 0, got {self.outer_epochs}")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ValueError(f"hidden_dims must be one or more layer widths "
                             f">= 1, got {list(self.hidden_dims)}")
        if self.n_s is not None and self.n_s < 1:
            raise ValueError(f"n_s must be >= 1, got {self.n_s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunResult:
    z: np.ndarray
    graph: AnchorGraph
    diagnostics: list[CollapseEntry]
    loss_traces: list[np.ndarray]
    iteration_graphs: list[AnchorGraph] = field(default_factory=list)


@contextmanager
def _stage(name: str, config: AnchorGaeConfig, z: np.ndarray | None = None):
    """Re-raise training's divergence, and the ValueError of a refit on the
    trained embedding z, as a PipelineStageError naming the stage; a refit's
    message says whether training collapsed z (checked on this error path
    only) and names --lr. Other ValueErrors pass through."""
    try:
        yield
    except TrainingDiverged as exc:
        raise PipelineStageError(f"{name}: {exc}") from exc
    except ValueError as exc:
        if z is None:
            raise
        distinct = len(np.unique(z, axis=0))
        cause = (f"training collapsed the embedding to {distinct} distinct "
                 f"rows for m={config.anchors} anchors"
                 if np.isfinite(z).all() and distinct < config.anchors
                 else f"the trained embedding cannot be refit ({exc})")
        raise PipelineStageError(f"{name}: {cause}; lower the learning rate "
                                 f"(--lr {config.learning_rate:g})") from exc


def run_anchorgae(x: np.ndarray, config: AnchorGaeConfig,
                  record_graphs: bool = False) -> RunResult:
    """Full pipeline: the initial graph on raw features, then rounds t = 0..T
    (T = outer_epochs). Round t trains the encoder if t < max(T, 1), embeds,
    and records its graph's collapse diagnostics as iteration t; each round
    but the last then refits the graph at sparsity k and grows k by delta_k.

    Mode 'fixed_b' skips the refit (graph frozen), 'fixed_k' skips the
    sparsity growth, 'knn' swaps the weighted rows for flat 1/k rows over
    the k nearest anchors.

    Each graph gets one pair of first-layer inputs, shared by its training
    epochs and embeddings: p0 = pullback_anchors(x, g) = g.pool(x), the
    graph's anchors in input space, and a0 = apply_anchor_adjacency(g, p0).
    A failed training or refit raises PipelineStageError naming the round;
    the initial fit's ValueError (a bad input) passes through, and an
    input whose distances overflow is told to rescale.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    train_cfg = TrainConfig(inner_epochs=config.inner_epochs,
                            learning_rate=config.learning_rate,
                            optimizer=config.optimizer)
    rng_anchor, rng_params = spawn_rngs(config.seed, 2)
    uniform_rows = config.mode == "knn"
    refit = config.mode != "fixed_b"

    n_s = config.n_s if config.n_s is not None else max(n // config.clusters, 1)
    delta_k = 0 if config.mode == "fixed_k" else sparsity_increment(
        config.k0, config.anchors, n, n_s, config.outer_epochs)
    k = config.k0

    try:
        g = fit_anchor_graph(
            x, init_anchors(x, config.anchors, rng_anchor),
            ConnectivitySolveConfig(k, config.fit_max_iters),
            uniform_rows=uniform_rows)
    except DistanceOverflow as exc:
        raise ValueError(
            f"{exc}; rescale the input (e.g. min-max scaling)") from exc
    params = init_params([x.shape[1], *config.hidden_dims], rng_params)

    diagnostics, loss_traces, iteration_graphs = [], [], []
    for t in range(config.outer_epochs + 1):
        if t == 0 or refit:
            p0 = pullback_anchors(x, g)
            a0 = apply_anchor_adjacency(g, p0)
        if t < max(config.outer_epochs, 1):
            with _stage(f"outer iteration {t}, training", config):
                loss_traces.append(train(g, p0, a0, params, train_cfg))
        z = conv_forward_samples(g, p0, params).out
        z_t = conv_forward_anchors(g, a0, params).out
        diagnostics.append(
            measure_collapse(g, decode_on_support(g, z, z_t), t))
        if record_graphs:
            iteration_graphs.append(g)
        if t == config.outer_epochs:
            break
        if refit:
            with _stage(f"outer iteration {t}, graph refit", config, z):
                g = fit_anchor_graph(
                    z, z_t, ConnectivitySolveConfig(k, config.fit_max_iters),
                    uniform_rows=uniform_rows)
        k += delta_k

    return RunResult(z=z, graph=g, diagnostics=diagnostics,
                     loss_traces=loss_traces,
                     iteration_graphs=iteration_graphs)
