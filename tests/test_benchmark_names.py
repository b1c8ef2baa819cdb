"""The per-layer metrics of ``BENCHMARK.json`` name functions of the package.

``perfbench`` traces the public module-level functions defined in each
module (and the ``FockSpace`` constructor) and reads each metric's layer by
name, so a renamed or deleted function breaks a traced run with a
``KeyError``.  Each named layer must still be such a function.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from bosonlab.fockstate import FockSpace

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_layers() -> list:
    """The layer ``module.name`` of every per-layer metric that names one;
    ``fail_rate``, ``solve.minflt`` and ``trace.*`` measure the run itself."""
    layers = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        if name in ("fail_rate", "solve.minflt") or name.startswith("trace."):
            continue
        layers.add(name.rpartition(".")[0])
    return sorted(layers)


def test_benchmark_names_traced_layers():
    assert traced_layers()


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layer_is_a_public_function(layer):
    module, name = layer.split(".")
    mod = importlib.import_module(f"bosonlab.{module}")
    obj = getattr(mod, name, None)
    if obj is FockSpace:
        return
    assert not name.startswith("_")
    assert inspect.isfunction(obj), f"bosonlab.{module}.{name} is not a function"
    assert obj.__module__ == mod.__name__, f"bosonlab.{module}.{name} is defined elsewhere"
