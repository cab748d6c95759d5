"""The benchmark's layer tracer names package functions by string, and
`Tracer.install` raises AttributeError on a name that no longer exists, which
breaks traced benchmark runs. Every name it lists must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, attr) for layer, attrs in tracer.TRACED.items() for attr in attrs]


@pytest.mark.parametrize("layer,attr", traced_names())
def test_traced_name_resolves(layer, attr):
    target = importlib.import_module(f"cascade_logic.{layer}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
