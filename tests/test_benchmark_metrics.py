"""The per-layer metric names of BENCHMARK.json against the code they trace.

`benchmarks/spans.py` records a span `<layer>.<function>` for each public
function a layer module defines, one for `bounds.CfSearch.alphas` and one
`harness.check.<id>` for each `harness.CHECKS` entry.  `benchmarks/run.py`
reads a metric whose span was never recorded as 0, so a metric that names a
function the module no longer defines reads 0 whatever the code does.  These
tests only read `BENCHMARK.json` and `benchmarks/spec.json`.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

from uplab.harness import CHECKS

ROOT = Path(__file__).resolve().parents[1]
LAYERS = json.loads((ROOT / "benchmarks" / "spec.json").read_text())["layers"]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

# Metrics known to name a function that is gone.  The list is exact, so the
# test fails once a name is mended too.  transforms.spectrogram moved into
# tests/test_transforms.py as the dense oracle of spectrogram_marginals.
STALE = {"transforms.spectrogram.self_s"}


def is_traced(layer: str, path: str) -> bool:
    """Whether spans.py records a span named `<layer>.<path>`."""
    module = importlib.import_module(f"uplab.{layer}")
    if "." in path:  # a method spans.py wraps by name, like CfSearch.alphas
        owner, _, method = path.partition(".")
        return callable(getattr(getattr(module, owner, None), method, None))
    value = getattr(module, path, None)
    return inspect.isfunction(value) and value.__module__ == module.__name__ and not path.startswith("_")


def test_every_function_metric_names_a_function_its_module_defines():
    pattern = re.compile(rf"({'|'.join(map(re.escape, LAYERS))})\.(.+)\.(calls|self_s)")
    named = [(name, match) for name in PER_LAYER if (match := pattern.fullmatch(name))]
    assert "bounds.CfSearch.alphas.calls" in {name for name, _ in named}
    stale = {name for name, match in named if not is_traced(match[1], match[2])}
    assert stale == STALE


def test_every_check_metric_names_a_check():
    ids = [name.removeprefix("harness.check.") for name in PER_LAYER if name.startswith("harness.check.")]
    assert ids
    assert all(i.endswith(".s") for i in ids)
    assert {i.removesuffix(".s") for i in ids} <= set(CHECKS)
