"""Golden records: identical configs give byte-identical records.

``tests/golden/records.json`` holds, captured once and never regenerated
to make a change pass:

- ``cli``: the stdout of every benchmark CLI command at the default seed
  (``list-devices``, the seven demos and the three checks);
- ``opf``: the ``format_record`` line of every in-process checker and
  refutation the benchmark runs, at the default seed, with the CLI's
  random-stream namespaces.

The records are computed in a fresh interpreter with BLAS pinned to one
thread, as the benchmark runs them: least-squares residuals move by ulps
with the BLAS thread count.  Running this file as a script prints the
records as JSON, and under ``opf_seeds`` each in-process op's record at
pqsim seeds 1-10 and the default seed, under ``estimation_seeds`` the
records of the overlap estimate and the no-signalling demo at those seeds,
and under ``cli_d4`` the stdout of the CLI's d=4 fpvnem demo and
product-form checks, which build the d=16 witness design and the
513-outcome meter.  ``tests/golden/seeds.json`` holds that whole output,
captured once in the same way and never regenerated to make a change
pass, and the script's output must equal it byte for byte.

A change that moves one byte of any of them fails here.  If a change is
meant to move a record, say which field moved and why in ``CHANGES.md``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pqsim import cli, experiments, opf
from pqsim.qcore import FactorSpace, POVMSet, RandomStream

HERE = Path(__file__).resolve().parent
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

CLI_COMMANDS = {
    "list-devices": ["list-devices"],
    **{f"demo {name}": ["demo", name] for name in cli.DEMO_NAMES},
    "check closure": ["check", "closure", "--family", "quantum_povm"],
    "check product-form": ["check", "product-form", "--family", "fpvnem"],
    "check estimation": ["check", "estimation", "--family", "readout"],
}

# printed by the script only
CLI_D4_COMMANDS = {
    "demo fpvnem --d 4 --m 8": ["demo", "fpvnem", "--d", "4", "--m", "8"],
    **{f"check product-form --family {family} --d 4": [
        "check", "product-form", "--family", family, "--d", "4"]
       for family in ("quantum", "fpvnem")},
}


def _computational_povm(dim):
    eye = np.eye(dim, dtype=complex)
    return POVMSet(tuple(np.outer(eye[i], eye[i]) for i in range(dim)))


def _fpvnem(d, m, samples):
    return lambda seed: experiments.fpvnem_refutation(d, m, samples, RandomStream(seed, 10))


def _closure_entropy_meter(seed):
    measurement = opf.entropy_meter_measurement(FactorSpace((2, 2)), (0,), precision=3)
    return opf.check_closure(measurement, 100, RandomStream(seed, 3))


def _closure_quantum_povm(seed):
    measurement = opf.FullMeasurement.from_povm(_computational_povm(4), FactorSpace((2, 2)))
    return opf.check_closure(measurement, 100, RandomStream(seed, 3))


def _product_form_quantum(seed):
    return opf.product_form_witness(opf.opf_from_quantum(
        np.diag(np.linspace(0.1, 0.9, 16)), FactorSpace((4, 4))))


OPF_OPS = {
    "fpvnem d=2 m=3": _fpvnem(2, 3, 1000),
    "fpvnem d=4 m=8": _fpvnem(4, 8, 100),
    "closure entropy_meter m=3": _closure_entropy_meter,
    "closure quantum_povm d=4": _closure_quantum_povm,
    "product_form quantum d=16": _product_form_quantum,
    "spod-update projector0": lambda seed: experiments.spod_update_refutation(
        RandomStream(seed, 11)),
    "estimation quantum_povm d=4": lambda seed: opf.check_estimation_assumption(
        "quantum_povm", 4, RandomStream(seed, 3)),
}


OPF_SEEDS = (*range(1, 11), cli.DEFAULT_SEED)

# experiments run as the CLI runs them, on schedules and weights that reach
# the overlap estimate's rounds and the factor kernels of the no-signalling demo
ESTIMATION_RUNS = {
    **{f"ensemble-overlap epsilons={list(s)}": ("ensemble-overlap", {"epsilons": s})
       for s in ((0.05, 0.01), (0.1, 0.05, 0.01), (0.2, 0.001))},
    **{f"no-signalling weights={list(w)}": ("no-signalling", {"weights": w})
       for w in ((0.5, 0.5), (0.3, 0.7), (1.0,))},
}


def cli_stdout(argv):
    """Exit status and stdout of one CLI command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def cli_records(commands: dict) -> dict:
    """The stdout of each command at the default seed, after its exit status
    when that is not 0."""
    os.environ.pop("PQSIM_SEED", None)
    out = {}
    for label, argv in commands.items():
        status, stdout = cli_stdout(argv)
        out[label] = stdout if status == 0 else f"exit status {status}\n{stdout}"
    return out


def records() -> dict:
    """Every golden record of this checkout, keyed as in records.json."""
    cli_out = cli_records(CLI_COMMANDS)
    opf_out = {label: cli.format_record(call(cli.DEFAULT_SEED).record_fields())
               for label, call in OPF_OPS.items()}
    return {"cli": cli_out, "opf": opf_out}


def seed_records() -> dict:
    """The ``format_record`` line of every in-process op at each of ``OPF_SEEDS``."""
    return {label: {str(seed): cli.format_record(call(seed).record_fields())
                    for seed in OPF_SEEDS}
            for label, call in OPF_OPS.items()}


def estimation_seed_records() -> dict:
    """The ``format_record`` line of each of ``ESTIMATION_RUNS`` at each of ``OPF_SEEDS``."""
    return {label: {str(seed): cli.format_record(
                cli.run_experiment(name, params, seed).record_fields()) for seed in OPF_SEEDS}
            for label, (name, params) in ESTIMATION_RUNS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads((HERE / "golden" / "records.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def script_output():
    """This file's output as a script, run in a fresh interpreter on one BLAS thread."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout


@pytest.fixture(scope="module")
def current(script_output):
    return json.loads(script_output)


def test_golden_covers_every_command_and_op(golden):
    assert set(golden["cli"]) == set(CLI_COMMANDS)
    assert set(golden["opf"]) == set(OPF_OPS)


@pytest.mark.parametrize("label", sorted(CLI_COMMANDS))
def test_cli_stdout_is_byte_identical(label, golden, current):
    assert current["cli"][label] == golden["cli"][label]


@pytest.mark.parametrize("label", sorted(OPF_OPS))
def test_opf_record_is_byte_identical(label, golden, current):
    assert current["opf"][label] == golden["opf"][label]


def test_seed_swept_output_is_byte_identical(script_output):
    assert script_output == (HERE / "golden" / "seeds.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    json.dump({**records(), "cli_d4": cli_records(CLI_D4_COMMANDS),
               "opf_seeds": seed_records(), "estimation_seeds": estimation_seed_records()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
