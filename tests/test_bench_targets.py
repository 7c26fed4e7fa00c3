"""Every function the benchmark's tracer wraps resolves where it looks.

`bench/tracer.py` wraps each `TARGETS` entry by name: a function is read from
its home module, a `Class.method` from the class's own `__dict__`. A refactor
that renames, moves or inlines one of them would break the traced benchmark
run; this test catches it from the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "layer,attr", [(layer, attr) for layer, attrs in TARGETS.items() for attr in attrs]
)
def test_traced_target_resolves_in_its_home_module(layer, attr):
    home = importlib.import_module(f"conscient_sim.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name)
        assert meth in vars(cls), f"{layer}.{attr} is not defined on the class itself"
        target = vars(cls)[meth]
    else:
        assert hasattr(home, attr), f"conscient_sim.{layer} has no attribute {attr!r}"
        target = getattr(home, attr)
    assert callable(target)


def test_targets_are_not_empty():
    # an empty table would leave the parametrized test above with no cases
    assert TARGETS and all(TARGETS.values())
