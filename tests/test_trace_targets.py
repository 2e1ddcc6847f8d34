"""Every name the benchmark's tracer wraps still exists, and a traced run passes.

``perfbench/tracing.py`` wraps pqsim's functions and methods by name, and
its self-tests are not collected with this suite.  This test loads the
tracer module by path, without installing it, and resolves each target the
way ``install`` does, so deleting or renaming a wrapped name fails here.
A short traced benchmark run of each of the three workloads also fails
when a layer the workload must exercise records no calls, as when a
stacked path replaces the last call of a traced per-state function.
"""

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _traced_short_run(*args):
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args,
                          "--trace", "1", "--short"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert '"correct": true' in run.stdout.strip().splitlines()[-1]


def test_short_traced_opf_checks_run_succeeds():
    _traced_short_run("--workload", "opf-checks", "--seed", "3")


def test_short_traced_cli_demos_run_succeeds():
    """``run device`` reaches the per-state chain from ``DeviceSpec.apply``
    through ``DeviceSpec.distribution`` to ``partial_trace``, which the
    cli-demos workload requires to record calls."""
    _traced_short_run("--workload", "cli-demos")


def test_short_traced_device_draws_run_succeeds():
    """Single draws still reach an eigendecomposition, which the
    device-draws workload requires to record calls: a table eigendecomposes
    its densities only for a spectral kind."""
    _traced_short_run("--workload", "device-draws", "--seed", "1")
