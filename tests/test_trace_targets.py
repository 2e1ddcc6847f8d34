"""Every name the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` wraps pqsim's functions and methods by name, and
its self-tests are not collected with this suite.  This test loads the
tracer module by path, without installing it, and resolves each target the
way ``install`` does, so deleting or renaming a wrapped name fails here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    return [(layer, attr) for layer, attrs in targets.items() for attr in attrs]


@pytest.mark.parametrize("layer,attr", _targets())
def test_target_resolves(layer, attr):
    module = importlib.import_module(f"pqsim.{layer}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))
