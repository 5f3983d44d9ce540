import types

import numpy as np
import pytest

from anchorgae import anchor_graph, numerics
from anchorgae.anchor_graph import ConnectivitySolveConfig
from tracing import Span, Tracer, layer_metrics, summarize


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0, work=5.0),
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0, work=7.0),
        Span("leaf", 5.5, 6.0, 3),
        Span("leaf", 6.0, 8.0, 3),
    ]
    stats = summarize(spans)
    assert stats["root"].calls == 1
    assert stats["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["a"].calls == 2
    assert stats["a"].s == pytest.approx(7.0)
    assert stats["a"].self_s == pytest.approx((3.0 - 1.0) + (4.0 - 2.5))
    assert stats["a"].work == 12.0
    assert stats["leaf"].self_s == pytest.approx(stats["leaf"].s) == pytest.approx(3.5)


def traced_fit(x, anchors0, k):
    tracer = Tracer()
    missing = tracer.install({"numerics": numerics, "anchor_graph": anchor_graph})
    history = []
    try:
        anchor_graph.fit_anchor_graph(x, anchors0, ConnectivitySolveConfig(k=k),
                                      history=history)
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.spans, missing, fit_max_iters=30), history


def test_iterations_from_call_counts_match_history():
    x = numerics.make_rng(0).normal(size=(200, 3))
    metrics, history = traced_fit(x, x[:12], k=3)
    assert metrics["anchor_graph.fit.calls"] == 1
    assert metrics["anchor_graph.fit.iters"] == len(history) > 1
    assert metrics["anchor_graph.reseeds"] == 0
    assert anchor_graph.fit_anchor_graph.__name__ == "fit_anchor_graph"
    assert not hasattr(anchor_graph.fit_anchor_graph, "__wrapped__")


def test_duplicated_samples_force_a_counted_reseed():
    base = numerics.make_rng(1).normal(size=(20, 2))
    x = np.repeat(base, 2, axis=0)
    # Rows 0 and 1 coincide, so anchor 1 loses every tie to anchor 0.
    metrics, history = traced_fit(x, x[[0, 1, 4, 6, 8]], k=1)
    assert metrics["anchor_graph.fit.iters"] == len(history)
    assert metrics["anchor_graph.reseeds"] >= 1


def test_missing_function_is_reported_missing_not_zero():
    fake_graph = types.ModuleType("anchor_graph")
    fake_graph.fit_anchor_graph = lambda: None  # update_anchors is gone
    tracer = Tracer()
    missing = tracer.install({"numerics": numerics, "anchor_graph": fake_graph})
    tracer.uninstall()
    assert "anchor_graph.update_anchors" in missing
    assert "anchor_graph.fit" not in missing
    metrics = layer_metrics(tracer.spans, missing, fit_max_iters=30)
    assert metrics["anchor_graph.fit.calls"] == 0
    for name in ("anchor_graph.update_anchors.s", "anchor_graph.fit.iters",
                 "anchor_graph.fit.capped_ratio", "anchor_graph.reseeds"):
        assert name not in metrics


def test_every_layer_is_wrapped_where_its_callers_look_it_up():
    import importlib

    from tracing import LAYERS

    modules = {home: importlib.import_module(f"anchorgae.{home}")
               for home, _ in LAYERS.values()}
    original = modules["pipeline"].fit_anchor_graph
    tracer = Tracer()
    try:
        assert tracer.install(modules) == []
        assert modules["pipeline"].fit_anchor_graph is not original
        assert (modules["training"].pairwise_sq_dist
                is modules["numerics"].pairwise_sq_dist)
    finally:
        tracer.uninstall()
    assert modules["pipeline"].fit_anchor_graph is original
