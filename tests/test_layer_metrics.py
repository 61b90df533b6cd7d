"""The benchmark's per-layer metrics name functions that exist.

perfbench records `<layer>.<name>_s` as the self time of the public
function `name` of `gapstego.<layer>`; a metric whose function was
renamed or deleted would go missing from a traced benchmark run.  This
reads BENCHMARK.json only.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

LAYERS = ("codec", "formats", "keygen", "semigroup", "analysis")
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TIMED = [
    tuple(m["name"].removesuffix("_s").split("."))
    for m in SPEC["per_layer"]
    if m["name"].endswith("_s") and m["name"].split(".")[0] in LAYERS
]


def test_every_layer_is_timed():
    assert {layer for layer, _ in TIMED} == set(LAYERS)


@pytest.mark.parametrize("layer, name", TIMED, ids=[".".join(t) for t in TIMED])
def test_metric_names_a_public_function_of_its_layer(layer, name):
    module = importlib.import_module(f"gapstego.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn), f"gapstego.{layer} has no function {name}"
    assert fn.__module__ == f"gapstego.{layer}", f"{name} is defined in {fn.__module__}"


@pytest.mark.parametrize("layer", ("cli", *LAYERS))
def test_every_attribute_names_its_module_as_text(layer):
    # the tracer reads getattr(attr, "__module__", "") of every attribute of
    # these modules as a string (re.compile(...).split has __module__ None)
    module = importlib.import_module(f"gapstego.{layer}")
    owners = {name: getattr(value, "__module__", "") for name, value in vars(module).items()}
    assert {name: owner for name, owner in owners.items() if not isinstance(owner, str)} == {}
