"""The benchmark's tracer finds each layer by module and function name, and
its worker calls the package directly; a rename or a changed signature in
the package would silently drop a layer's metrics or fail every fit."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKER = ROOT / "perfbench" / "worker.py"

# A fit of about a second: one full-mode round (refit and pullback run).
TINY_SPEC = {
    "n": 200, "d": 6, "clusters": 3, "separation": 8, "anchors": 20,
    "layers": [16, 8], "k0": 3, "outer_epochs": 1, "inner_epochs": 5,
    "lr": 0.001, "optimizer": "adam", "mode": "full", "acc_floor": 0.3,
}


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_names_a_package_function():
    layers = load_layers()
    assert layers
    for span, (home, attr) in layers.items():
        module = importlib.import_module(f"anchorgae.{home}")
        assert callable(getattr(module, attr, None)), \
            f"{span}: anchorgae.{home}.{attr} is not a function"


@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_worker_fits_tiny_workload(trace):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(TINY_SPEC), "0", trace,
         str(time.monotonic())],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["error"] is None
    assert result["missing"] == []
    if trace == "1":
        assert result["layers"]["anchor_graph.fit.calls"] == 2
        assert result["layers"]["pipeline.rounds"] == 1
