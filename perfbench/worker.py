"""One benchmark fit in a fresh process.

Usage (run.py starts it; the package must be importable from PYTHONPATH):

    python3 perfbench/worker.py '<workload json>' <seed> <trace 0|1> <t0>

t0 is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, the imports, make_blobs and minmax_scale.
The fit is run_anchorgae then spectral_via_svd, exactly as `anchorgae fit`
runs it. Prints one JSON object as the last line of standard output.
"""

import os
import sys

# BLAS reads its thread count when numpy loads, so pin it before any import
# that could load numpy.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "ANCHORGAE_THREADS"):
    os.environ[_var] = str(NPROC)

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from anchorgae import clustering, data_io, metrics, numerics, pipeline  # noqa: E402

from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def check(z, labels, c: int, acc: float, acc_floor: float) -> str | None:
    """Reason the outputs are wrong, or None when they pass."""
    if not np.all(np.isfinite(z)):
        return "embedding has non-finite entries"
    if labels.shape != (z.shape[0],) or labels.min() < 0 or labels.max() >= c:
        return f"labels outside [0, {c})"
    if not acc >= acc_floor:
        return f"acc {acc:.4f} below floor {acc_floor}"
    return None


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    seed, traced, t0 = int(argv[2]), argv[3] == "1", float(argv[4])

    tracer = Tracer() if traced else None
    missing = tracer.install(
        {home: importlib.import_module(f"anchorgae.{home}")
         for home, _ in LAYERS.values()}) if traced else []

    ds = data_io.make_blobs(spec["n"], spec["d"], spec["clusters"],
                            spec["separation"], numerics.make_rng(seed))
    x = data_io.minmax_scale(ds.x)
    setup_s = time.monotonic() - t0

    config = pipeline.AnchorGaeConfig(
        clusters=spec["clusters"], anchors=spec["anchors"],
        hidden_dims=tuple(spec["layers"]), k0=spec["k0"],
        outer_epochs=spec["outer_epochs"], inner_epochs=spec["inner_epochs"],
        learning_rate=spec["lr"], optimizer=spec["optimizer"],
        mode=spec["mode"], seed=seed)

    out = {"setup_s": setup_s, "error": None}
    start = time.perf_counter()
    try:
        result = pipeline.run_anchorgae(x, config)
        _, _, assignment = clustering.spectral_via_svd(
            result.graph, spec["clusters"], seed=seed)
        end = time.perf_counter()
    except Exception as exc:  # a failed fit is counted, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
    else:
        labels = assignment.labels
        out["fit_s"] = end - start
        out["acc"] = metrics.acc(labels, ds.labels)
        out["nmi"] = metrics.nmi(labels, ds.labels)
        out["digest"] = hashlib.sha256(
            np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()[:16]
        out["error"] = check(result.z, labels, spec["clusters"], out["acc"],
                             spec["acc_floor"])
        if traced:
            layers = layer_metrics(tracer.spans, missing, config.fit_max_iters)
            fit_spans = [s for s in tracer.spans if s.parent < 0
                         and start <= s.start and s.end <= end]
            layers["uncovered_s"] = (end - start) - sum(
                s.end - s.start for s in fit_spans)
            out["layers"] = layers
            out["spans"] = [[s.name, s.start - start, s.end - start, s.parent]
                            for s in tracer.spans]
    out["missing"] = missing
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = {"nproc": NPROC, "blas_threads": NPROC,
                  "python": platform.python_version(),
                  "numpy": np.__version__, "scipy": scipy.__version__,
                  "blas": blas_name()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
