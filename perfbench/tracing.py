"""In-memory span tracing for the benchmark's traced runs.

Each layer function is wrapped at every module attribute that refers to it,
which is the name its callers look up at call time (``pipeline`` calls
``fit_anchor_graph`` through its own namespace, ``training`` calls
``pairwise_sq_dist`` through its own, and so on). A wrapped call records a
span (name, start, end, parent). Per-layer metrics are derived from the
spans once the fit is over, so no metric is computed while the fit runs.
"""

import functools
import time
from dataclasses import dataclass

# Span name -> (module that defines the function, function name).
LAYERS = {
    "numerics.pairwise_sq_dist": ("numerics", "pairwise_sq_dist"),
    "anchor_graph.fit": ("anchor_graph", "fit_anchor_graph"),
    "anchor_graph.update_anchors": ("anchor_graph", "update_anchors"),
    "convolution.forward_samples": ("convolution", "conv_forward_samples"),
    "convolution.forward_anchors": ("convolution", "conv_forward_anchors"),
    "convolution.sample_aggregate": ("convolution", "apply_sample_adjacency"),
    "convolution.anchor_aggregate": ("convolution", "apply_anchor_adjacency"),
    "convolution.anchor_aggregate_t": ("convolution", "apply_anchor_adjacency_t"),
    "training.train": ("training", "train"),
    "training.decode": ("training", "decode"),
    "training.loss": ("training", "loss"),
    "training.backward": ("training", "backward"),
    "pipeline.run": ("pipeline", "run_anchorgae"),
    "pipeline.pullback": ("pipeline", "pullback_anchors"),
    "pipeline.measure_collapse": ("pipeline", "measure_collapse"),
    "clustering.spectral": ("clustering", "spectral_via_svd"),
    "clustering.eig": ("numerics", "sym_eig_topc"),
    "clustering.kmeans": ("clustering", "kmeans"),
    "data_io.make_blobs": ("data_io", "make_blobs"),
    "data_io.minmax_scale": ("data_io", "minmax_scale"),
}


def _distance_flop(a, b, *_, **__) -> float:
    """2 n m d for the n x m cross product that dominates pairwise_sq_dist."""
    return 2.0 * a.shape[0] * b.shape[0] * a.shape[1]


# Work recorded per call, for the layers whose work has a closed form.
WORK = {"numerics.pairwise_sq_dist": _distance_flop}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    work: float = 0.0


class Tracer:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        work(*args, **kwargs) if work else 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> list[str]:
        """Wrap every layer function wherever a module in `modules` (short
        name -> module) refers to it. Returns the layer names whose function
        was not found; their metrics must be reported as missing."""
        missing = []
        for name, (home, attr) in LAYERS.items():
            fn = getattr(modules.get(home), attr, None)
            if not callable(fn):
                missing.append(name)
                continue
            wrapped = self.wrap(name, fn, WORK.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        return missing

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, total time, self time and work per span name. Self time is a
    span's duration minus the time its direct children cover; children of
    one span run one after another, so their durations add."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = {}
    for span, child_s in zip(spans, covered):
        st = stats.setdefault(span.name, LayerStats())
        st.calls += 1
        st.s += span.end - span.start
        st.self_s += span.end - span.start - child_s
        st.work += span.work
    return stats


def child_counts(spans: list[Span], parent: str, child: str) -> list[int]:
    """For each span named `parent`, how many direct children are named
    `child`."""
    index = {i: 0 for i, span in enumerate(spans) if span.name == parent}
    for span in spans:
        if span.name == child and span.parent in index:
            index[span.parent] += 1
    return list(index.values())


class _Unavailable(Exception):
    """A metric needs a missing layer or has a ratio with no base."""


def layer_metrics(spans: list[Span], missing: list[str],
                  fit_max_iters: int) -> dict[str, float]:
    """Per-layer metrics by name. A metric that needs a missing layer is
    left out, so it reads as absent and never as zero; so is a ratio whose
    base is zero."""
    stats = summarize(spans)

    def st(name: str) -> LayerStats:
        if name in missing:
            raise _Unavailable(name)
        return stats.get(name, LayerStats())

    def fit_counts(child: str) -> list[int]:
        st("anchor_graph.fit")
        st(child)
        return child_counts(spans, "anchor_graph.fit", child)

    def epochs() -> int:
        st("training.train")
        st("training.loss")
        return sum(child_counts(spans, "training.train", "training.loss"))

    def ratio(num: float, den: float) -> float:
        if not den:
            raise _Unavailable("ratio with no base")
        return num / den

    dist = "numerics.pairwise_sq_dist"
    formulas = {
        f"{dist}.calls": lambda: st(dist).calls,
        f"{dist}.s": lambda: st(dist).s,
        f"{dist}.gflop": lambda: st(dist).work / 1e9,
        f"{dist}.gflops": lambda: ratio(st(dist).work / 1e9, st(dist).s),
        "anchor_graph.fit.calls": lambda: st("anchor_graph.fit").calls,
        "anchor_graph.fit.s": lambda: st("anchor_graph.fit").s,
        "anchor_graph.fit.self_s": lambda: st("anchor_graph.fit").self_s,
        "anchor_graph.update_anchors.s":
            lambda: st("anchor_graph.update_anchors").s,
        "anchor_graph.fit.iters":
            lambda: sum(fit_counts("anchor_graph.update_anchors")),
        "anchor_graph.fit.capped_ratio": lambda: ratio(
            sum(i >= fit_max_iters
                for i in fit_counts("anchor_graph.update_anchors")),
            st("anchor_graph.fit").calls),
        # Each fit computes distances once up front, once per iteration
        # and once per re-seed round.
        "anchor_graph.reseeds": lambda: (
            sum(fit_counts(dist)) - st("anchor_graph.fit").calls
            - sum(fit_counts("anchor_graph.update_anchors"))),
        "convolution.forward_samples.calls":
            lambda: st("convolution.forward_samples").calls,
        "convolution.forward_samples.s":
            lambda: st("convolution.forward_samples").s,
        "convolution.forward_anchors.calls":
            lambda: st("convolution.forward_anchors").calls,
        "convolution.forward_anchors.s":
            lambda: st("convolution.forward_anchors").s,
        "convolution.sample_aggregate.s":
            lambda: st("convolution.sample_aggregate").s,
        "convolution.anchor_aggregate.s":
            lambda: st("convolution.anchor_aggregate").s,
        "convolution.anchor_aggregate_t.s":
            lambda: st("convolution.anchor_aggregate_t").s,
        "convolution.dense_product_s": lambda: (
            st("convolution.forward_samples").self_s
            + st("convolution.forward_anchors").self_s),
        "training.train.s": lambda: st("training.train").s,
        "training.epochs": epochs,
        "training.epoch_ms":
            lambda: ratio(1e3 * st("training.train").s, epochs()),
        "training.decode.self_s": lambda: st("training.decode").self_s,
        "training.backward.self_s": lambda: st("training.backward").self_s,
        "training.loss.s": lambda: st("training.loss").s,
        "training.optimizer_self_s": lambda: st("training.train").self_s,
        "pipeline.run.s": lambda: st("pipeline.run").s,
        # measure_collapse runs once per outer round plus once at the end.
        "pipeline.rounds": lambda: (st("pipeline.measure_collapse").calls
                                    - st("pipeline.run").calls),
        "pipeline.pullback.s": lambda: st("pipeline.pullback").s,
        "pipeline.measure_collapse.s":
            lambda: st("pipeline.measure_collapse").s,
        "clustering.spectral.s": lambda: st("clustering.spectral").s,
        "clustering.eig.s": lambda: st("clustering.eig").s,
        "clustering.kmeans.s": lambda: st("clustering.kmeans").s,
        "data_io.make_blobs.s": lambda: st("data_io.make_blobs").s,
        "data_io.minmax_scale.s": lambda: st("data_io.minmax_scale").s,
    }
    out = {}
    for name, formula in formulas.items():
        try:
            out[name] = float(formula())
        except _Unavailable:
            pass
    return out
