import numpy as np
import pytest

from anchorgae import pipeline
from anchorgae.anchor_graph import (
    FIT_MAX_ITERS,
    AnchorGraph,
    ConnectivitySolveConfig,
    fit_anchor_graph,
    init_anchors,
)
from anchorgae.clustering import kmeans
from anchorgae.data_io import make_blobs, minmax_scale
from anchorgae.metrics import acc
from anchorgae.numerics import make_rng, spawn_rngs
from anchorgae.pipeline import (
    AnchorGaeConfig,
    measure_collapse,
    pullback_anchors,
    run_anchorgae,
    sparsity_increment,
)
from oracles import csgraph_component_count, on_support, union_find_components


def quick_config(**overrides):
    base = dict(clusters=4, anchors=40, hidden_dims=(32, 16), k0=3,
                outer_epochs=2, inner_epochs=60, seed=0)
    base.update(overrides)
    return AnchorGaeConfig(**base)


def scaled_blobs(n=600, d=8, c=4, sep=12.0, seed=0):
    ds = make_blobs(n, d, c, sep, make_rng(seed))
    return minmax_scale(ds.x), ds.labels


# ------------------------------------------------------------- schedule

def test_schedule_hand_example():
    # k_m = floor(500 * 1000 / 10000) = 50, spread over 5 rounds.
    assert sparsity_increment(k0=3, m=500, n=10_000, n_s=1000,
                              outer_epochs=5) == 9


def test_schedule_zero_increment():
    # k_m = 3 = k0: nothing to climb.
    assert sparsity_increment(k0=3, m=20, n=1000, n_s=160,
                              outer_epochs=5) == 0
    assert sparsity_increment(k0=3, m=500, n=10_000, n_s=1000,
                              outer_epochs=0) == 0


def test_schedule_caps_below_anchor_count():
    # floor(10 * 95 / 100) = 9 = m - 1; floor(10 * 500 / 100) = 50 is capped.
    for n_s in (95, 500):
        delta_k = sparsity_increment(k0=3, m=10, n=100, n_s=n_s,
                                     outer_epochs=2)
        assert delta_k == 3 and 3 + 2 * delta_k <= 9


def test_schedule_k_m_never_below_k0():
    # k_m = floor(30 * 10 / 10000) = 0 < k0: k stays at k0.
    assert sparsity_increment(k0=5, m=30, n=10_000, n_s=10,
                              outer_epochs=4) == 0


# ------------------------------------------------------------- pullback

def test_pullback_identity_graph_returns_data():
    n = 5
    g = AnchorGraph(np.arange(n)[:, None], np.ones((n, 1)), n)
    x = make_rng(100).normal(size=(n, 3))
    assert np.allclose(pullback_anchors(x, g), x)


def test_pullback_uniform_pair_is_midpoint():
    g = AnchorGraph(np.array([[0], [0]]), np.array([[0.5], [0.5]]), 1)
    x = np.array([[0.0, 0.0], [4.0, 2.0]])
    assert np.allclose(pullback_anchors(x, g), [[2.0, 1.0]])


def test_pullback_matches_loop_oracle():
    rng = make_rng(101)
    n, m, k, d = 14, 5, 2, 3
    idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
    w = rng.random((n, k))
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, m)
    x = rng.normal(size=(n, d))
    expected = np.zeros((m, d))
    for j in range(m):
        col = np.zeros(n)
        for i in range(n):
            for t in range(k):
                if idx[i, t] == j:
                    col[i] = w[i, t]
        expected[j] = (col / col.sum()) @ x
    assert np.max(np.abs(pullback_anchors(x, g) - expected)) < 1e-12


def test_pullback_stays_in_convex_hull():
    rng = make_rng(102)
    idx = np.stack([rng.choice(6, size=3, replace=False) for _ in range(30)])
    idx[:6, 0] = np.arange(6)
    fixed = []
    for row in idx:
        vals = list(dict.fromkeys(row.tolist()))
        while len(vals) < 3:
            vals.append((vals[-1] + 1) % 6)
        fixed.append(vals)
    idx = np.asarray(fixed)
    w = rng.random((30, 3)) + 0.01
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, 6)
    x = rng.normal(size=(30, 4)) * 3
    pulled = pullback_anchors(x, g)
    assert np.array_equal(pulled, g.pool(x))
    for col in range(4):
        assert pulled[:, col].min() >= x[:, col].min() - 1e-12
        assert pulled[:, col].max() <= x[:, col].max() + 1e-12


# ---------------------------------------------------------- diagnostics

def test_measure_collapse_uniform_rows_zero_gap():
    idx = np.stack([np.arange(3)] * 5)
    w = np.full((5, 3), 1.0 / 3.0)
    g = AnchorGraph(idx, w, 3)
    entry = measure_collapse(g, on_support(g, np.full((5, 3), 1.0 / 3.0)), 4)
    assert entry.uniformity_gap == 0.0
    assert entry.iteration == 4


def test_measure_collapse_block_diagonal_components():
    # three disjoint sample/anchor blocks
    idx = np.array([[0], [0], [1], [1], [2], [2]])
    w = np.ones((6, 1))
    g = AnchorGraph(idx, w, 3)
    q = g.csr().toarray()
    entry = measure_collapse(g, on_support(g, q), 0)
    edges = [(i, int(idx[i, 0])) for i in range(6)]
    assert entry.component_count == union_find_components(6, 3, edges) == 3


def test_measure_collapse_reconstruction_gap_zero_when_exact():
    idx = np.array([[0, 1], [1, 2]])
    w = np.array([[0.6, 0.4], [0.3, 0.7]])
    g = AnchorGraph(idx, w, 3)
    entry = measure_collapse(g, on_support(g, g.csr().toarray()), 0)
    assert entry.reconstruction_gap == 0.0
    assert entry.k == 2


def test_measure_collapse_random_components_vs_oracle():
    rng = make_rng(103)
    n, m, k = 40, 8, 2
    idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
    w = rng.random((n, k)) + 0.05
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, m)
    entry = measure_collapse(g, on_support(g, rng.random((n, m))), 0)
    edges = [(i, int(j)) for i in range(n) for j in idx[i]]
    assert entry.component_count == union_find_components(n, m, edges)


def graph_with_live_fraction(rng, n, m, k, live):
    """Random k-sparse graph whose support entries keep a positive weight
    with probability live (the rest weigh 0, so some rows are all zero),
    plus one row per anchor left without degree, live only on that anchor."""
    idx = np.argsort(rng.random((n, m)), axis=1)[:, :k]
    w = rng.random((n, k)) * (rng.random((n, k)) < live)
    degree = np.bincount(idx.ravel(), weights=w.ravel(), minlength=m)
    dead = np.flatnonzero(degree == 0)
    extra_idx = np.argsort(rng.random((dead.size, m)), axis=1)[:, :k]
    extra_w = np.zeros((dead.size, k))
    for row, j in enumerate(dead):
        extra_idx[row][extra_idx[row] == j] = extra_idx[row, 0]
        extra_idx[row, 0] = j
        extra_w[row, 0] = rng.random() + 0.1
    return AnchorGraph(np.concatenate([idx, extra_idx]),
                       np.concatenate([w, extra_w]), m)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_component_count_matches_csgraph_and_union_find(k):
    # From one component (dense live links) to about one per anchor or
    # sample (sparse ones), with zero-weight support entries and all-zero
    # rows throughout.
    rng = make_rng(104 + k)
    for trial in range(60):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(k + 1, 40))
        live = (0.05, 0.3, 0.7, 1.0)[trial % 4]
        g = graph_with_live_fraction(rng, n, m, k, live)
        count = measure_collapse(g, g.weights, 0).component_count
        pos = g.weights > 0
        edges = [(i, int(j)) for i in range(g.n) for j in g.indices[i][pos[i]]]
        assert count == csgraph_component_count(g) \
            == union_find_components(g.n, m, edges)


def test_component_count_counts_each_dead_row_once():
    # 2 anchors each linked through its own live rows, 3 all-zero rows.
    idx = np.array([[0, 1]] * 5)
    w = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    g = AnchorGraph(idx, w, 2)
    assert measure_collapse(g, w, 0).component_count == 2 + 3 \
        == csgraph_component_count(g)


# ------------------------------------------------------------- pipeline

def test_run_full_mode_recovers_blobs():
    x, labels = scaled_blobs()
    result = run_anchorgae(x, quick_config())
    out = kmeans(result.z, 4, make_rng(1))
    assert acc(out.labels, labels) >= 0.95
    assert len(result.loss_traces) == 2
    assert len(result.diagnostics) == 3  # one per round plus the final graph


def test_run_zero_outer_epochs_single_round_no_refit():
    x, _ = scaled_blobs(n=200)
    config = quick_config(outer_epochs=0, anchors=20, inner_epochs=30)
    result = run_anchorgae(x, config)
    assert len(result.loss_traces) == 1
    assert len(result.diagnostics) == 1
    # no refit: the final graph is the initial fit on the raw features
    rng_anchor, _ = spawn_rngs(config.seed, 2)
    initial = fit_anchor_graph(
        x, init_anchors(x, config.anchors, rng_anchor),
        ConnectivitySolveConfig(config.k0))
    assert np.array_equal(result.graph.indices, initial.indices)
    assert np.array_equal(result.graph.weights, initial.weights)


def test_run_fixed_b_keeps_graph():
    x, _ = scaled_blobs(n=300)
    config = quick_config(mode="fixed_b", anchors=25, inner_epochs=30)
    result = run_anchorgae(x, config, record_graphs=True)
    first, last = result.iteration_graphs[0], result.iteration_graphs[-1]
    assert np.array_equal(first.indices, last.indices)
    assert np.array_equal(first.weights, last.weights)


def test_run_fixed_k_keeps_sparsity():
    x, _ = scaled_blobs(n=300)
    result = run_anchorgae(x, quick_config(mode="fixed_k", anchors=25,
                                           inner_epochs=30))
    assert all(e.k == 3 for e in result.diagnostics)


def test_run_knn_mode_uniform_weights():
    x, _ = scaled_blobs(n=300)
    result = run_anchorgae(x, quick_config(mode="knn", anchors=25,
                                           inner_epochs=30))
    k = result.graph.k
    assert np.allclose(result.graph.weights, 1.0 / k)


def test_run_k_sequence_non_decreasing_and_bounded():
    # n_s = n puts floor(m * n_s / n) at m, so k_m is clamped to m - 1 = 29
    # and k climbs by (29 - 3) // 4 = 6 per round.
    x, _ = scaled_blobs(n=400)
    config = quick_config(outer_epochs=4, anchors=30, inner_epochs=20,
                          n_s=400)
    result = run_anchorgae(x, config)
    ks = [e.k for e in result.diagnostics]
    # each round records the graph it trained on; k grows after each refit
    assert ks == [3, 3, 9, 15, 21]
    assert all(k <= config.anchors - 1 for k in ks)


def test_run_default_ns_follows_cluster_count():
    # n // clusters = 100 gives k_m = floor(30 * 100 / 400) = 7 and steps of
    # (7 - 3) // 2 = 2.
    x, _ = scaled_blobs(n=400)
    result = run_anchorgae(x, quick_config(anchors=30, inner_epochs=20))
    explicit = run_anchorgae(x, quick_config(anchors=30, inner_epochs=20,
                                             n_s=100))
    ks = [e.k for e in result.diagnostics]
    assert ks == [e.k for e in explicit.diagnostics]
    assert ks == [3, 3, 5]


def test_run_deterministic():
    x, _ = scaled_blobs(n=300)
    config = quick_config(anchors=25, inner_epochs=25)
    r1 = run_anchorgae(x, config)
    r2 = run_anchorgae(x, config)
    assert np.array_equal(r1.z, r2.z)
    assert [e.__dict__ for e in r1.diagnostics] == \
           [e.__dict__ for e in r2.diagnostics]
    for a, b in zip(r1.loss_traces, r2.loss_traces):
        assert np.array_equal(a, b)


def test_run_records_optional_series():
    x, _ = scaled_blobs(n=250)
    config = quick_config(anchors=20, inner_epochs=20)
    result = run_anchorgae(x, config, record_graphs=True)
    assert len(result.iteration_graphs) == len(result.diagnostics)


def test_run_caps_every_graph_fit_at_the_default(monkeypatch):
    lengths = []

    def counted(*args, _orig=pipeline.fit_anchor_graph, **kwargs):
        hist = []
        g = _orig(*args, history=hist, **kwargs)
        lengths.append(len(hist))
        return g

    monkeypatch.setattr(pipeline, "fit_anchor_graph", counted)
    x, _ = scaled_blobs()
    run_anchorgae(x, quick_config())
    assert len(lengths) == 3  # the initial fit and two refits
    assert max(lengths) == FIT_MAX_ITERS == 15


def count_layer0_products(monkeypatch, d_in):
    """Count the sample-side poolings and anchor-side aggregations of d_in-wide
    inputs (layer 0 only, when no hidden width equals d_in), split by
    whether they run inside pipeline's call to train, inside a graph fit or
    pullback (where pooling x is how the anchor inputs are made), or
    elsewhere. Also returns the positional arguments of each call pipeline
    makes to train, fit_anchor_graph, pullback_anchors and
    measure_collapse, by name."""
    import anchorgae.convolution as convolution
    import anchorgae.pipeline as pipeline

    counts = {(op, where): 0 for op in ("pool", "aggregate")
              for where in ("train", "fit", "other")}
    where = ["other"]
    calls = {}

    def count(op, h):
        if h.shape[1] == d_in:
            counts[op, where[0]] += 1

    def counted_pool(g, h, _orig=AnchorGraph.pool):
        count("pool", h)
        return _orig(g, h)

    def counted_aggregate(g, h, _orig=convolution.apply_anchor_adjacency):
        count("aggregate", h)
        return _orig(g, h)

    monkeypatch.setattr(AnchorGraph, "pool", counted_pool)
    for mod in (convolution, pipeline):
        monkeypatch.setattr(mod, "apply_anchor_adjacency", counted_aggregate)
    for name, label in (("train", "train"), ("fit_anchor_graph", "fit"),
                        ("pullback_anchors", "fit"),
                        ("measure_collapse", "other")):
        calls[name] = []

        def flagged(*args, _orig=getattr(pipeline, name), _label=label,
                    _calls=calls[name], **kwargs):
            _calls.append(args)
            where[0] = _label
            try:
                return _orig(*args, **kwargs)
            finally:
                where[0] = "other"
        monkeypatch.setattr(pipeline, name, flagged)
    return counts, calls


ROUND_CASES = [(mode, rounds) for mode in pipeline.MODES
               for rounds in (0, 1, 3)]


@pytest.mark.parametrize("mode, rounds", ROUND_CASES,
                         ids=[f"{mode}-{rounds}" for mode, rounds in ROUND_CASES])
def test_layer0_aggregated_once_per_graph_not_per_epoch(monkeypatch, mode,
                                                        rounds):
    x, _ = scaled_blobs(n=200, d=7)
    counts, calls = count_layer0_products(monkeypatch, d_in=7)
    # n_s = n puts k_m at m - 1 = 19, so k climbs by 16 // rounds per refit.
    result = run_anchorgae(x, quick_config(
        anchors=20, hidden_dims=(6, 4), outer_epochs=rounds, inner_epochs=5,
        mode=mode, n_s=200))
    refits = 0 if mode == "fixed_b" else rounds
    step = 0 if mode == "fixed_k" else 16 // max(rounds, 1)
    # Every round but the last trains, and zero rounds still train once;
    # every round but the last refits, except with the graph frozen.
    assert len(calls["train"]) == max(rounds, 1)
    assert len(calls["fit_anchor_graph"]) == 1 + refits
    assert [args[2].k for args in calls["fit_anchor_graph"]] == \
        [3] + [3 + t * step for t in range(refits)]
    assert len(calls["pullback_anchors"]) == 1 + refits
    assert [args[2] for args in calls["measure_collapse"]] == \
        [e.iteration for e in result.diagnostics] == list(range(rounds + 1))
    # One anchor-side aggregation per graph. The sample side's pooled
    # input is the pullback's, so x is pooled nowhere else.
    assert counts["aggregate", "other"] == 1 + refits
    assert counts["aggregate", "train"] == counts["aggregate", "fit"] == 0
    assert counts["pool", "train"] == counts["pool", "other"] == 0
    assert counts["pool", "fit"] > 0


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_sample_side_first_input_is_the_anchor_input(monkeypatch, mode):
    """Every forward pass of a run gets its first-layer input from x pooled
    onto its graph, bit for bit: p0 = g.pool(x), the pullback's anchors, on
    the sample side, and a0 = g.pool(x) aggregated by the anchor-side
    adjacency on the anchor side."""
    from anchorgae import training

    x, _ = scaled_blobs(n=200, d=7, seed=1)
    # Graphs by id; holding them keeps a freed graph's id from being reused.
    checked = {"samples": {}, "anchors": {}}

    def checking(g, p0, params, _orig=pipeline.conv_forward_samples):
        assert np.array_equal(p0, g.pool(x))
        checked["samples"][id(g)] = g
        return _orig(g, p0, params)

    def checking_anchors(g, a0, params, _orig=pipeline.conv_forward_anchors):
        assert np.array_equal(a0, g.anchor_adjacency() @ g.pool(x))
        checked["anchors"][id(g)] = g
        return _orig(g, a0, params)

    for mod in (pipeline, training):
        monkeypatch.setattr(mod, "conv_forward_samples", checking)
        monkeypatch.setattr(mod, "conv_forward_anchors", checking_anchors)
    for seed in range(3):
        for ids in checked.values():
            ids.clear()
        run_anchorgae(x, quick_config(anchors=20, hidden_dims=(6, 4),
                                      outer_epochs=3, inner_epochs=2,
                                      mode=mode, seed=seed))
        # Each of the four round graphs is checked on both sides (one in
        # fixed_b).
        graphs = 1 if mode == "fixed_b" else 4
        assert [len(ids) for ids in checked.values()] == [graphs, graphs]


def test_fixed_k_uniformity_trend_once_well_trained():
    """Degeneration signature: once reconstruction has converged, each
    further fixed-k refit makes the support weights (weakly) more uniform.
    Stochastic trend over 10 seeds; transitions qualify when the entering
    reconstruction gap is at the empirically reachable well-trained level
    (<= 0.2; the softmax decoder cannot push the max row deviation much
    below ~0.1 on these instances), and a 0.01 jitter allowance absorbs
    plateau noise in the max-based gap."""
    passing = 0
    for seed in range(10):
        ds = make_blobs(200, 8, 4, 12.0, make_rng(seed))
        x = minmax_scale(ds.x)
        config = AnchorGaeConfig(clusters=4, anchors=20, hidden_dims=(32, 16),
                                 mode="fixed_k", outer_epochs=4,
                                 inner_epochs=400, learning_rate=3e-3,
                                 seed=seed)
        entries = run_anchorgae(x, config).diagnostics
        ok = True
        for prev, nxt in zip(entries, entries[1:]):
            if prev.reconstruction_gap <= 0.2 and \
                    nxt.uniformity_gap > prev.uniformity_gap + 0.01:
                ok = False
        passing += ok
    assert passing >= 8


def test_fit_cap_has_one_default():
    assert AnchorGaeConfig(clusters=2).fit_max_iters == \
        ConnectivitySolveConfig(k=1).max_iters


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        AnchorGaeConfig(clusters=2, mode="bogus")
    with pytest.raises(ValueError, match="exceed"):
        AnchorGaeConfig(clusters=2, anchors=3, k0=3)
    with pytest.raises(ValueError, match="outer_epochs"):
        AnchorGaeConfig(clusters=2, outer_epochs=-1)
    with pytest.raises(ValueError, match="hidden_dims"):
        AnchorGaeConfig(clusters=2, hidden_dims=())
    with pytest.raises(ValueError, match="between 2 and anchors=25, got 30"):
        AnchorGaeConfig(clusters=30, anchors=25)
    with pytest.raises(ValueError, match="between 2 and anchors=100, got 1"):
        AnchorGaeConfig(clusters=1)
    with pytest.raises(ValueError, match="k0 must be >= 1, got 0"):
        AnchorGaeConfig(clusters=2, k0=0)
    with pytest.raises(ValueError, match="n_s must be >= 1, got 0"):
        AnchorGaeConfig(clusters=2, n_s=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        AnchorGaeConfig(clusters=2, seed=-1)
