"""The exit-status contract over generated configs and flags.

Configs are built from the README's grammar, mostly valid, with at most one
key mutated, deleted, added or repeated.  For every one, ``cli.main``
returns 0, 1 or 2, raises nothing and warns about nothing; an exit 2 names
a key on stderr; an exit 0 or 1 prints the same bytes when run again, and a
device run leaves the state's amplitudes bit-identical.  The examples are
derandomized and bounded, so the test is reproducible and takes seconds.
Besides 2^64, one past the largest seed, the pool's integers are small: a
count such as ``action.repetitions`` takes any integer, and a large one
makes a long run.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsim import cli

SPACES = ((2,), (3,), (2, 2), (2, 3), (2, 2, 2))

# a token pool for mutations: valid values of every key's type, the other
# types, non-finite and huge numbers, and malformed values
TOKENS = (
    "-1", "0", "1", "2", "3", "4", "9", "0.5", "2.5", "1e-320", "1e308", "-1e308",
    "nan", "inf", "true", "false", '"x"', '""', '"computational"', '"pauli_x"',
    '"pauli_z"', '"number"', '"bell"', '"random"', '"device"', '"check"', '"value"',
    '"bit"', '"finite"', '"fpvnem"', '"1+1i"', "[]", "[0]", "[1]", "[0, 1]", "[1, 0]",
    "[2]", "[2, 2]", "[3, 2]", "[0.5, 0.5]", "[1e308, 1e308]", "[1e-200, 1e-200]",
    '["1", "0"]', '["1+1i", "0"]', "[true]", "[1, 2", '"open', "18446744073709551616",
    # spaces of 2^40 dimensions, beyond space.dims' bound, whose arrays fail to allocate
    "[1048576, 1048576]", "[1099511627776]",
)

# keys a config may hold but a generated one may lack
EXTRA_KEYS = (
    "seed", "state.labels", "state.amplitudes", "action.target", "action.repetitions",
    "output.format", "action.device.alpha", "action.device.precision",
    "action.device.observable", "action.device.basis", "action.device.variant",
    "action.device.max_label", "action.experiment.samples", "action.experiment.d",
    "action.check.m", "action.check.family", "bogus", "state.bogus",
)


def _observable(d):
    return st.sampled_from(['"number"', f"[{', '.join(_diag(d, range(d)))}]"]
                           + (['"pauli_z"', '"pauli_x"'] if d == 2 else []))


def _diag(d, values):
    """Row-major entries of diag(values) as config tokens."""
    return [str(values[i]) if i == j else "0" for i in range(d) for j in range(d)]


def _device_params(kind, d):
    """Valid parameters of a device kind acting on dimension d."""
    opt = {"basis": st.just('"computational"'), "precision": st.sampled_from(["1", "3"]),
           "sharpness": st.sampled_from(["2", "10.5"]), "alpha": st.sampled_from(["1", "2", "0.5"])}
    required, optional = {
        "BasisSelect": ({}, ("basis", "sharpness")),
        "EigenvalueSampler": ({"observable": _observable(d)}, ("precision",)),
        "EntanglementAnalyse": ({}, ("basis", "precision")),
        "EntropyCertifier": ({"entropy_threshold": st.sampled_from(["0.25", "0.5"])},
                             ("alpha", "sharpness")),
        "EntropyMeter": ({}, ("alpha", "precision")),
        "ExpectationReadout": ({"observable": _observable(d)}, ("precision",)),
        "FunctionReadout": ({"exponent": st.sampled_from(["1", "2"])},
                            ("basis", "precision")),
        "OverlapTest": ({"target_state": st.just(f"[{', '.join(['1'] + ['0'] * (d - 1))}]"),
                         "threshold": st.sampled_from(["0.25", "0.5"])}, ("sharpness",)),
        "PovmSampler": ({"povm": st.just('"computational"'),
                         "max_label": st.sampled_from(["0", "5"])}, ()),
        "Readout": ({}, ("basis", "precision")),
        "UncertaintySampler": ({"observable": _observable(d)}, ("precision",)),
    }[kind]
    if kind == "EigenvalueSampler":
        required = dict(required, variant=st.just('"value"'))
        optional += ("max_label",)
        opt["max_label"] = st.just("4")
    return st.fixed_dictionaries(required, optional={k: opt[k] for k in optional})


# small, fast parameters of every experiment and check
ACTIONS = {
    ("experiment", "fpvnem"): {"d": "2", "m": "2", "samples": "12",
                               "include_entangled": "false"},
    ("experiment", "spod-update"): {"element": '"half_identity"'},
    ("experiment", "no-signalling"): {"weights": "[0.25, 0.75]"},
    ("experiment", "cloning"): {"d": "2", "precision": "3", "trials": "5"},
    ("experiment", "tomography"): {"n": "100", "confidence": "0.9", "threshold": "0.1"},
    ("experiment", "ensemble-readout"): {"n": "100", "precisions": "[2]"},
    ("experiment", "ensemble-overlap"): {"n": "20", "epsilons": "[0.2]"},
    ("check", "closure"): {"family": '"entropy_meter"', "samples": "2", "m": "2"},
    ("check", "product_form"): {"family": '"quantum"', "d": "2"},
    ("check", "estimation_assumption"): {"family": '"readout"', "d": "2"},
}


@st.composite
def valid_configs(draw):
    """A config as (key, token) pairs that parses and runs."""
    action = draw(st.sampled_from(["device"] * 3 + ["experiment", "check"]))
    if action == "device":
        name = draw(st.sampled_from(sorted(cli.dev.DEVICE_KINDS)))
    else:
        name = draw(st.sampled_from([k[1] for k in ACTIONS if k[0] == action]))
    # EntanglementAnalyse needs a second factor
    dims = draw(st.sampled_from(SPACES[2:] if name == "EntanglementAnalyse" else SPACES))
    pairs = []
    if draw(st.booleans()):
        pairs.append(("seed", str(draw(st.integers(0, 2**64 - 1)))))
    pairs.append(("space.dims", f"[{', '.join(map(str, dims))}]"))
    kinds = ["product", "random", "explicit"]
    if len(set(dims)) == 1 and len(dims) > 1:
        kinds += ["ghz"] + (["bell"] if len(dims) == 2 else [])
    kind = draw(st.sampled_from(kinds))
    pairs.append(("state.kind", f'"{kind}"'))
    if kind == "product":
        labels = [draw(st.integers(0, d - 1)) for d in dims]
        pairs.append(("state.labels", f"[{', '.join(map(str, labels))}]"))
    elif kind == "explicit":
        total = 1
        for d in dims:
            total *= d
        one = draw(st.integers(0, total - 1))
        pairs.append(("state.amplitudes",
                      f"[{', '.join('1' if i == one else '0' for i in range(total))}]"))
    pairs.append(("action.type", f'"{action}"'))
    pairs.append((f"action.{action}.{cli._NAME_KEYS[action]}", f'"{name}"'))
    if action == "device":
        target = draw(st.integers(0, len(dims) - 1))
        pairs.append(("action.target", f"[{target}]"))
        pairs.append(("action.repetitions", str(draw(st.integers(1, 4)))))
        params = draw(_device_params(name, dims[target]))
    else:
        params = ACTIONS[action, name]
    pairs += [(f"action.{action}.{key}", value) for key, value in params.items()]
    pairs.append(("output.format", draw(st.sampled_from(['"records"', '"text"']))))
    return pairs


@st.composite
def mutated_configs(draw):
    """A valid config with at most one key replaced, deleted, added or repeated."""
    pairs = draw(valid_configs())
    how = draw(st.sampled_from(["none", "replace", "replace", "replace", "delete", "add",
                                "repeat"]))
    index = draw(st.integers(0, len(pairs) - 1))
    if how == "replace":
        pairs[index] = (pairs[index][0], draw(st.sampled_from(TOKENS)))
    elif how == "delete":
        del pairs[index]
    elif how == "add":
        pairs.insert(index, (draw(st.sampled_from(EXTRA_KEYS)), draw(st.sampled_from(TOKENS))))
    elif how == "repeat":
        pairs.append(pairs[index])
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _main(argv):
    """``cli.main``'s status, stdout and stderr, and the warnings it raised;
    an argparse rejection is its exit status 2."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            status = cli.main(argv)
        except SystemExit as exit_:  # argparse's usage error
            status = exit_.code
    return status, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _check_contract(argv, status, stdout, stderr, caught, names_a_key):
    """No warning, exit 0, 1 or 2; an exit 2 whose stderr matches
    ``names_a_key``, else the same bytes from a second run."""
    assert caught == [], caught
    assert status in (0, 1, 2), status
    if status == 2:
        assert re.search(names_a_key, stderr), stderr
    else:
        assert _main(argv)[:3] == (status, stdout, stderr)  # the same bytes again


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_configs())
def test_config_runs_keep_the_exit_status_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.pq"
        path.write_text(text, encoding="utf-8")
        states, original = [], cli.build_state

        def build_state(config):
            state = original(config)
            states.append((state, state.amplitudes.tobytes()))
            return state

        with mock.patch.object(cli, "build_state", build_state):
            status, stdout, stderr, caught = _main(["run", str(path)])
            _check_contract(["run", str(path)], status, stdout, stderr, caught,
                            r"\(key '[\w.]+'")
        for state, amplitudes in states:  # devices never disturb the state
            assert state.amplitudes.tobytes() == amplitudes


FLAG_VALUES = ("-1", "0", "1", "2", "3", "4", "5", "8", "9", "x", "2.5")


@st.composite
def flag_argvs(draw):
    """``demo`` and ``check`` command lines, mostly with flags the action takes."""
    command = draw(st.sampled_from(["demo", "check"]))
    if command == "demo":
        name = draw(st.sampled_from(["fpvnem", "spod-update", "no-signalling", "cloning"]))
        flags = ("--d", "--m", "--seed")
    else:
        name = draw(st.sampled_from(["closure", "product-form", "estimation"]))
        flags = ("--family", "--d", "--m", "--samples", "--seed")
    argv = [command, name]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2, unique=True)):
        if flag == "--family":
            value = draw(st.sampled_from(["quantum_povm", "entropy_meter", "fpvnem",
                                          "quantum", "readout", "spod", "x"]))
        elif flag == "--samples":
            value = draw(st.sampled_from(["0", "1", "3", "x"]))
        elif flag == "--d" and name in ("fpvnem", "product-form"):
            value = draw(st.sampled_from(["1", "2", "3", "5", "x"]))  # d = 4 is slow here
        else:
            value = draw(st.sampled_from(FLAG_VALUES))
        argv += [flag, value]
    return argv


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=flag_argvs())
def test_demo_and_check_flags_keep_the_exit_status_contract(argv):
    # a flag's error names it, or its parameter as a key; argparse names the argument
    _check_contract(argv, *_main(argv), r"\(key '\w+'|--\w+|argument (kind|name)")
