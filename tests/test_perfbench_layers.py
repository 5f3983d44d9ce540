"""The benchmark's tracer finds each layer by module and function name; a
rename in the package would silently drop that layer's metrics."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
