"""Self-supervised outer loop: train the encoder, re-estimate the graph from
the embeddings, pull anchors back to input space, and grow the per-row
sparsity so the refitted graph cannot fragment into uniform micro-clusters.

A well-reconstructed graph refit at fixed sparsity collapses: rows converge
to flat 1/k distributions and the bipartite graph breaks into many tiny
components. The collapse diagnostics recorded each outer iteration (support
uniformity gap, component count, reconstruction gap) make that failure mode
observable, and the ablation modes reproduce it on demand.

The per-round snapshot needs the reconstruction only on the graph support:
training.decode_on_support decodes the embeddings over the training
decoder's row blocks (sized by the constant numerics.BLOCK_ENTRIES)
and keeps those n x k entries, so no n x m array is held here either.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .anchor_graph import (
    FIT_MAX_ITERS,
    AnchorGraph,
    ConnectivitySolveConfig,
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


@dataclass
class SparsitySchedule:
    """Sparsity growth plan: start at k0, add delta_k per outer iteration,
    never exceed k_cap (= m - 1).

    k_m is the anchor-count-scaled estimate of the smallest cluster size,
    floor(m * n_s / n); delta_k spreads the climb from k0 to k_m over the
    outer epochs.
    """

    k0: int = 3
    k_m: int = 3
    delta_k: int = 0
    outer_epochs: int = 5
    n_s: int = 0
    k_cap: int = 3

    @classmethod
    def plan(cls, k0: int, m: int, n: int, n_s: int, outer_epochs: int
             ) -> "SparsitySchedule":
        if k0 < 1:
            raise ValueError(f"k0 must be >= 1, got {k0}")
        if n_s < 1:
            raise ValueError(f"n_s must be >= 1, got {n_s}")
        k_cap = m - 1
        k_m = min(max(int(m * n_s // n), k0), k_cap)
        delta_k = (k_m - k0) // outer_epochs if outer_epochs > 0 else 0
        return cls(k0=k0, k_m=k_m, delta_k=max(delta_k, 0),
                   outer_epochs=outer_epochs, n_s=n_s, k_cap=k_cap)


def step_sparsity(schedule: SparsitySchedule, current_k: int) -> int:
    """Next sparsity level: one increment, capped so Eq-solvable (k < m)."""
    if current_k < schedule.k0:
        raise ValueError(f"current_k={current_k} below k0={schedule.k0}")
    return min(current_k + schedule.delta_k, schedule.k_cap)


@dataclass
class CollapseEntry:
    """One outer iteration's worth of collapse diagnostics."""

    iteration: int
    k: int
    uniformity_gap: float
    component_count: int
    reconstruction_gap: float


def measure_collapse(g: AnchorGraph, q_sup: np.ndarray) -> CollapseEntry:
    """Diagnostics for one (graph, reconstruction) pair; q_sup holds the
    reconstruction on the graph support (q_sup[i, t] = q[i, g.indices[i, t]]).

    uniformity_gap: how far the support weights sit from the flat 1/k row.
    component_count: connected components of the bipartite graph (samples
    and anchors as nodes, positive-weight entries as edges).
    reconstruction_gap: max |q - b| over the stored support.
    """
    if q_sup.shape != g.weights.shape:
        raise ValueError(
            f"q_sup has shape {q_sup.shape}, expected {g.weights.shape}")
    gap = float(np.max(np.abs(g.weights - 1.0 / g.k)))
    recon = float(np.max(np.abs(q_sup - g.weights)))

    live = g.weights > 0
    rows = np.repeat(np.arange(g.n), g.k)[live.ravel()]
    cols = g.indices.ravel()[live.ravel()] + g.n
    total = g.n + g.m
    ones = np.ones(rows.size)
    adj = sp.coo_matrix((ones, (rows, cols)), shape=(total, total))
    count, _ = connected_components(adj, directed=False)
    return CollapseEntry(iteration=0, k=g.k, uniformity_gap=gap,
                         component_count=int(count), reconstruction_gap=recon)


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
        if self.anchors <= self.k0:
            raise ValueError(
                f"anchors={self.anchors} must exceed k0={self.k0}")
        if self.outer_epochs < 0:
            raise ValueError(f"outer_epochs must be >= 0, got {self.outer_epochs}")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ValueError(f"hidden_dims must be one or more layer widths "
                             f">= 1, got {list(self.hidden_dims)}")


@dataclass
class RunResult:
    z: np.ndarray
    graph: AnchorGraph
    diagnostics: list[CollapseEntry]
    loss_traces: list[np.ndarray]
    schedule: SparsitySchedule
    k_final: int
    iteration_graphs: list[AnchorGraph] = field(default_factory=list)


def _stage(name: str, fn):
    try:
        return fn()
    except TrainingDiverged as exc:
        raise PipelineStageError(f"{name}: {exc}") from exc


def run_anchorgae(x: np.ndarray, config: AnchorGaeConfig,
                  record_graphs: bool = False) -> RunResult:
    """Full pipeline: initial graph on raw features, then outer_epochs rounds
    of (train encoder -> refit graph on embeddings -> pull anchors back ->
    grow sparsity), with collapse diagnostics after every round.

    Mode 'fixed_b' skips the refit (graph frozen), 'fixed_k' skips the
    sparsity growth, 'knn' swaps the weighted rows for flat 1/k rows over
    the k nearest anchors. outer_epochs=0 degenerates to the initial graph
    plus a single training round.

    Each graph gets one pair of first-layer inputs, shared by its training
    epochs and embeddings: p0 = g.pool(x) is the anchor input that the
    fit's last anchor update or the pullback already computed, bit for bit,
    and a0 = apply_anchor_adjacency(g, p0) is the one product formed here.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    train_cfg = TrainConfig(inner_epochs=config.inner_epochs,
                            learning_rate=config.learning_rate,
                            optimizer=config.optimizer)
    rng_anchor, rng_params = spawn_rngs(config.seed, 2)
    uniform_rows = config.mode == "knn"

    n_s = config.n_s if config.n_s is not None else max(n // config.clusters, 1)
    schedule = SparsitySchedule.plan(config.k0, config.anchors, n, n_s,
                                     config.outer_epochs)
    k = config.k0

    anchors0 = init_anchors(x, config.anchors, rng_anchor)
    g = _stage("initial graph fit", lambda: fit_anchor_graph(
        x, anchors0, ConnectivitySolveConfig(k, config.fit_max_iters),
        uniform_rows=uniform_rows))
    p0 = g.anchors

    params = init_params([x.shape[1], *config.hidden_dims], rng_params)

    diagnostics: list[CollapseEntry] = []
    loss_traces: list[np.ndarray] = []
    iteration_graphs: list[AnchorGraph] = []

    def embed():
        z, _ = conv_forward_samples(g, p0, params, keep_cache=False)
        z_t, _ = conv_forward_anchors(g, a0, params, keep_cache=False)
        return z, z_t

    def snapshot(iteration: int, graph: AnchorGraph, z, z_t) -> None:
        entry = measure_collapse(graph, decode_on_support(graph, z, z_t))
        entry.iteration = iteration
        diagnostics.append(entry)
        if record_graphs:
            iteration_graphs.append(graph)

    a0 = apply_anchor_adjacency(g, p0)
    for t in range(config.outer_epochs):
        _, trace = _stage(f"outer iteration {t}, training",
                          lambda: train(g, p0, a0, params, train_cfg))
        loss_traces.append(trace)
        z, z_t = embed()
        snapshot(t, g, z, z_t)

        if config.mode != "fixed_b":
            g = _stage(f"outer iteration {t}, graph refit",
                       lambda: fit_anchor_graph(
                           z, z_t,
                           ConnectivitySolveConfig(k, config.fit_max_iters),
                           uniform_rows=uniform_rows))
            p0 = pullback_anchors(x, g)
            a0 = apply_anchor_adjacency(g, p0)
        if config.mode != "fixed_k":
            k = step_sparsity(schedule, k)

    if config.outer_epochs == 0:
        _, trace = _stage("training",
                          lambda: train(g, p0, a0, params, train_cfg))
        loss_traces.append(trace)

    z, z_t = embed()
    snapshot(config.outer_epochs, g, z, z_t)

    return RunResult(z=z, graph=g, diagnostics=diagnostics,
                     loss_traces=loss_traces, schedule=schedule, k_final=k,
                     iteration_graphs=iteration_graphs)
