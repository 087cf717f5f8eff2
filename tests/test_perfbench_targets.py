"""The traced benchmark pass wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TARGETS; nothing is wrapped
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in _targets()])
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer rebinds the method on the class itself
        assert callable(vars(getattr(owner, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr
