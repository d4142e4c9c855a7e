"""The benchmark's tracer wraps public functions by name; each must exist.

``perfbench/tracing.py`` imports only the standard library, so it is
loaded here from its file and every ``(layer, attr)`` in its ``TARGETS``
is resolved on ``wehrlflux.<layer>``.  A deleted or renamed function then
fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "layer, attr", [(layer, attr) for layer, attr, _ in tracing.TARGETS]
)
def test_traced_name_resolves(layer, attr):
    assert layer in tracing.LAYERS
    owner = importlib.import_module(f"wehrlflux.{layer}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
