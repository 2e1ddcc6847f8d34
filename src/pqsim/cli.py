"""Configuration-driven experiment runner and command-line interface.

Commands:
  pqsim run <config-file>          execute a run configuration
  pqsim demo <name> [--d] [--m] [--seed]   run a built-in demonstration
  pqsim list-devices [--json] [filter]     show the device catalog
  pqsim check <closure|product-form|estimation> [options]

Config files are nested key/value text: ``section.key = value`` per line,
lists in brackets, strings quoted, ``#`` comments.  Records are emitted
one per line as lexicographically sorted ``key=value`` pairs; complex
numbers as ``re+imi`` with 17 significant digits.  Identical configs
produce byte-identical record output.

Exit status: 0 on success (including VIOLATION_CERTIFIED, a successful
reproduction), 1 on FAIL or invariant violation, 2 on configuration
errors.  The environment variable ``PQSIM_SEED`` overrides the default
seed; an explicit ``--seed`` flag or config entry wins over it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import sys
from typing import Any, Callable

import numpy as np

from . import devices as dev
from . import experiments as exp
from ._record import field, record
from .opf import (
    ESTIMATION_FAMILIES,
    FullMeasurement,
    check_closure,
    check_estimation_assumption,
    entropy_meter_measurement,
    opf_from_quantum,
    product_form_witness,
)
from .qcore import (Ensemble, FactorSpace, HermitianObservable, POVMSet, PureState, RandomStream,
                    _row_norms, normalized_states, projectors)

DEFAULT_SEED = 0x5EED

# stream namespaces, so state preparation and repetitions never share a
# RandomStream with each other or with an experiment or check
_STATE_STREAM = 2
_DEVICE_STREAM = 1
_DEVICE_PREFIX = "action.device."


class ConfigError(Exception):
    """Fatal configuration problem, pointing at the offending key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.reason = message
        self.key = key
        self.line = line
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# Record formatting
# ---------------------------------------------------------------------------

def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (complex, np.complexfloating)):
        re_part = format(float(value.real), ".17g")
        im = float(value.imag)
        sign = "+" if im >= 0 or math.isnan(im) else "-"
        return f"{re_part}{sign}{format(abs(im), '.17g')}i"
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return format_value(list(value.reshape(-1)))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(format_value(v) for v in value) + "]"
    raise TypeError(f"cannot format {type(value).__name__} in a record")


def format_record(fields: dict) -> str:
    return " ".join(f"{key}={format_value(fields[key])}" for key in sorted(fields))


def parse_complex(text: str) -> complex:
    """Parse the record format re+imi (also plain reals)."""
    text = text.strip()
    if text.endswith("i"):
        body = text[:-1]
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                return complex(float(body[:pos]), float(body[pos:]))
        return complex(0.0, float(body))
    return complex(float(text), 0.0)


# ---------------------------------------------------------------------------
# Config text parsing
# ---------------------------------------------------------------------------

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _is_int(value) -> bool:
    """Whether a config value is an integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_scalar(token: str, key: str, line: int):
    token = token.strip()
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise ConfigError("unterminated string", key, line)
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    if _INT_RE.match(token):
        return int(token)
    try:
        number = float(token)
    except ValueError:
        raise ConfigError(f"cannot parse value {token!r}", key, line) from None
    if not math.isfinite(number):
        raise ConfigError(f"non-finite value {token!r}", key, line)
    return number


def _parse_value(token: str, key: str, line: int):
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ConfigError("unterminated list", key, line)
        inner = token[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_scalar(part, key, line) for part in inner.split(","))
    return _parse_scalar(token, key, line)


def _read_pairs(text: str) -> dict[str, tuple[object, int]]:
    pairs: dict[str, tuple[object, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"malformed key {key!r}", key, lineno)
        if key in pairs:
            raise ConfigError("duplicate key", key, lineno)
        pairs[key] = (_parse_value(value, key, lineno), lineno)
    return pairs


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@record
class RunConfig:
    seed: int
    dims: tuple[int, ...]
    state_kind: str
    action_type: str  # device | experiment | check
    name: str  # the device kind, experiment id or check kind: a key of _ACTIONS[action_type]
    state_labels: tuple[int, ...] = ()
    state_amplitudes: tuple[complex, ...] = ()
    target: tuple[int, ...] = ()
    repetitions: int = 1
    params: tuple[tuple[str, object], ...] = ()
    output_path: str = ""
    output_format: str = "records"
    # the device parse_config built and checked from ``params``; run uses it
    device: dev.DeviceSpec | None = field(default=None, compare=False, repr=False)


_STATE_KINDS = ("bell", "ghz", "product", "random", "explicit")
_NAME_KEYS = {"device": "kind", "experiment": "id", "check": "kind"}  # action.<type>.<key>


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration, or raise ConfigError.

    The space, state, target and device are checked here, the device by
    running it once on a basis state.  An experiment's or check's
    parameters are checked against their bounds when ``run`` reads them.
    """
    pairs = _read_pairs(text)
    consumed: set[str] = set()

    def take(key, default=None, required=False):
        consumed.add(key)
        if key in pairs:
            return pairs[key][0]
        if required:
            raise ConfigError("missing required key", key)
        return default

    def line_of(key):
        return pairs[key][1] if key in pairs else None

    def fail(message, key):
        raise ConfigError(message, key, line_of(key))

    seed = (_checked_seed(take("seed"), "seed", "seed", line_of("seed")) if "seed" in pairs
            else _env_seed())

    dims = take("space.dims", required=True)
    if not isinstance(dims, tuple) or not all(_is_int(d) for d in dims):
        fail("space.dims must be a list of integers", "space.dims")
    try:
        space = FactorSpace(dims)
    except ValueError as err:
        fail(str(err), "space.dims")
    if space.total_dim > _MAX_DIM:
        fail(f"space.dims has total dimension {space.total_dim}, above {_MAX_DIM} = 2^24",
             "space.dims")

    state_kind = take("state.kind", required=True)
    if state_kind not in _STATE_KINDS:
        fail(f"state.kind must be one of {_STATE_KINDS}", "state.kind")
    labels = take("state.labels", ())
    amplitudes_raw = take("state.amplitudes", ())
    state_labels: tuple[int, ...] = ()
    state_amplitudes: tuple[complex, ...] = ()
    if state_kind == "product":
        if not isinstance(labels, tuple) or not all(_is_int(x) for x in labels):
            fail("product state needs integer state.labels", "state.labels")
        try:
            PureState.basis_state(space, labels)  # the constructor build_state uses
        except ValueError as err:
            fail(str(err), "state.labels")
        state_labels = labels
    elif state_kind == "explicit":
        if not amplitudes_raw:
            fail("explicit state needs state.amplitudes", "state.amplitudes")
        try:
            state_amplitudes = tuple(_complex_entries(amplitudes_raw, "state.amplitudes"))
        except ConfigError as err:
            fail(err.reason, "state.amplitudes")
        if len(state_amplitudes) != space.total_dim:
            fail(f"state.amplitudes has length {len(state_amplitudes)}, "
                 f"expected {space.total_dim}", "state.amplitudes")
        norm = _row_norms(np.array([state_amplitudes], dtype=complex))[0]  # inf if it overflows
        if not abs(norm - 1.0) <= 1e-6:  # also rejects non-finite amplitudes
            fail(f"amplitudes norm {norm} deviates from 1 beyond 1e-6", "state.amplitudes")
    elif state_kind in ("bell", "ghz"):
        if space.n_factors < 2 or len(set(space.dims)) != 1:
            fail(f"{state_kind} state needs at least two equal factors", "state.kind")
        if state_kind == "bell" and space.n_factors != 2:
            fail("bell state needs exactly two factors", "state.kind")

    action_type = take("action.type", required=True)
    if action_type not in _NAME_KEYS:
        fail(f"action.type must be one of {tuple(_NAME_KEYS)}", "action.type")
    prefix = f"action.{action_type}."
    name_key = prefix + _NAME_KEYS[action_type]
    name = take(name_key, required=True)
    records = _ACTIONS[action_type]
    if name not in records:
        fail(f"{name_key} must be one of {tuple(records)}, got {name!r}", name_key)
    record = records[name]
    accepted = record.names if action_type == "device" else record.params
    params = []
    for key in pairs:
        if key.startswith(prefix) and key != name_key:
            if key[len(prefix):] not in accepted:
                fail(f"parameter {key[len(prefix):]!r} not accepted by {name}", key)
            params.append((key[len(prefix):], take(key)))

    target: tuple[int, ...] = ()
    repetitions = 1
    spec = None
    if action_type == "device":
        target = take("action.target", required=True)
        if not isinstance(target, tuple) or not all(_is_int(i) for i in target):
            fail("action.target must be a list of factor indices", "action.target")
        try:
            dim = dev.target_dimension(space, target)
        except ValueError as err:
            fail(str(err), "action.target")
        if dim > _MAX_TARGET_DIM:
            fail(f"action.target has dimension {dim}, above {_MAX_TARGET_DIM} = 2^12",
                 "action.target")
        if record.single_factor and len(target) != 1:
            fail(f"{name} acts on a single factor", "action.target")
        repetitions = take("action.repetitions", 1)
        if not _is_int(repetitions) or repetitions < 1:
            fail("action.repetitions must be a positive integer", "action.repetitions")
        spec = _device_spec(name, dict(params), dim, line_of)
        # one evaluation on a basis state runs the library's checks of the
        # parameters against the space and draws nothing; a ParameterError
        # names the parameter, any other ValueError is the kind's
        try:
            spec.distribution(PureState.basis_state(space, 0), target)
        except ValueError as err:
            fail(str(err), _DEVICE_PREFIX + getattr(err, "name", "kind"))

    output_path = take("output.path", "")
    output_format = take("output.format", "records")
    if output_format not in ("text", "records"):
        fail("output.format must be 'text' or 'records'", "output.format")

    unknown = set(pairs) - consumed
    if unknown:
        fail("unknown key", sorted(unknown)[0])

    return RunConfig(
        seed=seed, dims=space.dims, state_kind=state_kind,
        state_labels=state_labels, state_amplitudes=state_amplitudes,
        action_type=action_type, name=name, target=target, repetitions=repetitions,
        params=tuple(sorted(params)),
        output_path=output_path, output_format=output_format, device=spec,
    )


# ---------------------------------------------------------------------------
# Parameter bounds and device parameters
# ---------------------------------------------------------------------------

@record
class Param:
    """One parameter's default and bounds: a value out of ``choices``, or a
    number of ``type`` in [low, high] (in (low, high) when ``open``).  An
    ``int`` parameter takes integers only, a ``float`` one integers or
    floats, and neither takes a bool.  A ``many`` parameter is a nonempty
    list of such values; a single value counts as a list of one."""

    type: type
    default: Any = None
    low: float = -math.inf
    high: float = math.inf
    open: bool = False
    choices: tuple = ()
    many: bool = False

    def parse(self, value, key: str):
        """The checked value, or a ConfigError naming the key."""
        if not self.many:
            return self._one(value, key)
        items = value if isinstance(value, (list, tuple)) else (value,)
        if not items:
            raise ConfigError(f"{key} must be nonempty", key)
        return [self._one(item, key) for item in items]

    def _one(self, value, key: str):
        if self.choices:
            if not any(value == c and type(value) is type(c) for c in self.choices):
                raise ConfigError(f"{key} must be one of {self.choices}, got {value!r}", key)
            return value
        if not (_is_int(value) or (self.type is float and isinstance(value, float))):
            noun = "an integer" if self.type is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {value!r}", key)
        inside = (self.low < value < self.high if self.open
                  else self.low <= value <= self.high)
        # the magnitude bound rejects NaN, infinities and ints no float can hold
        if not (inside and abs(value) <= sys.float_info.max):
            left, right = "()" if self.open else "[]"
            raise ConfigError(f"{key} must lie in {left}{self.low:g}, {self.high:g}{right}, "
                              f"got {value}", key)
        return float(value) if self.type is float else value


_NAMED_OBSERVABLES = dict(zip(("pauli_x", "pauli_y", "pauli_z"), exp.PAULI))


def _complex_entries(value, key: str) -> list[complex]:
    if not isinstance(value, tuple) or any(isinstance(v, bool) for v in value):
        raise ConfigError(f"{key} must be a list of numbers", key)
    try:
        return [parse_complex(v) if isinstance(v, str) else complex(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"unparseable entry in {key}", key) from None


def _resolve_matrix(value, dim: int, key: str):
    if isinstance(value, str):
        if value == "number":
            return np.diag(np.arange(dim, dtype=complex))
        if value in _NAMED_OBSERVABLES:
            return _NAMED_OBSERVABLES[value]
        raise ConfigError(f"unknown named observable {value!r}", key)
    entries = _complex_entries(value, key)
    if len(entries) != dim * dim:
        raise ConfigError(f"observable needs {dim * dim} row-major entries", key)
    return np.array(entries, dtype=complex).reshape(dim, dim)


def _resolve_state_vector(value, dim: int, key: str) -> PureState:
    entries = _complex_entries(value, key)
    return PureState.normalized(FactorSpace((len(entries),)), np.array(entries))


def _resolve_basis(value, dim: int, key: str):
    return None if value == "computational" else list(_resolve_matrix(value, dim, key))


def _computational_povm(dim: int) -> POVMSet:
    return POVMSet(tuple(projectors(np.eye(dim, dtype=complex))))


def _resolve_povm(value, dim: int, key: str) -> POVMSet:
    if value != "computational":
        raise ConfigError("povm supports the named set 'computational'", key)
    return _computational_povm(dim)


def _bounded(param: Param):
    return lambda value, dim, key: param.parse(value, key)


_NUMBER, _INTEGER = _bounded(Param(float)), _bounded(Param(int))

# Every device parameter means the same in every kind that takes it, so it
# is converted by name: (value, target dimension, key) -> value.  The library
# checks the values when parse_config runs the device once; bounds stay here
# only where that run cannot see them (precision, which the integer-label
# variants ignore, and max_label, which no kind checks).  An observable is
# diagonalised here, once, not on every repetition.
_DEVICE_PARAMS = {
    "observable": lambda value, dim, key: HermitianObservable(_resolve_matrix(value, dim, key)),
    "target_state": _resolve_state_vector,
    "basis": _resolve_basis,
    "povm": _resolve_povm,
    "entropy_threshold": _NUMBER,
    "threshold": _NUMBER,
    "precision": _bounded(Param(int, low=1)),
    "exponent": _INTEGER,
    "max_label": _bounded(Param(int, low=0)),
    "label_offset": _INTEGER,
    "variant": lambda value, dim, key: value,  # the library names the choices
    "alpha": _NUMBER,
    "sharpness": _NUMBER,
}


def _device_spec(kind: str, raw: dict, dim: int, line_of=lambda key: None) -> dev.DeviceSpec:
    """The device with its parameters resolved by name and checked together
    by its kind, or a ConfigError naming the key."""
    params = {}
    for name, value in raw.items():
        key = _DEVICE_PREFIX + name
        try:
            params[name] = _DEVICE_PARAMS[name](value, dim, key)
        except (ConfigError, ValueError) as err:
            raise ConfigError(getattr(err, "reason", str(err)), key, line_of(key)) from None
    try:
        return dev.DeviceSpec(kind, params)
    except dev.ParameterError as err:
        key = _DEVICE_PREFIX + err.name
        raise ConfigError(str(err), key, line_of(key)) from None


def build_state(config: RunConfig) -> PureState:
    space = FactorSpace(config.dims)
    if config.state_kind == "bell":
        d = space.dims[0]
        return PureState(space, np.eye(d).reshape(-1) / math.sqrt(d))
    if config.state_kind == "ghz":
        amps = np.zeros(space.total_dim)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
        return PureState(space, amps)
    if config.state_kind == "product":
        return PureState.basis_state(space, config.state_labels)
    if config.state_kind == "random":
        return PureState.normalized(
            space, RandomStream(config.seed, experiment=_STATE_STREAM).complex_normal(
                space.total_dim))
    amps = np.array(config.state_amplitudes)
    norm = float(_row_norms(amps))
    if abs(norm - 1.0) > 1e-9:
        print(f"warning: renormalizing explicit amplitudes (norm {norm:.9g})",
              file=sys.stderr)
    return PureState.normalized(space, amps)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _outcome_fields(outcome) -> dict:
    if isinstance(outcome, dev.RealValue):
        return {"outcome_type": "real", "value": outcome.value}
    if isinstance(outcome, dev.IntegerLabel):
        return {"outcome_type": "label", "value": outcome.value}
    if isinstance(outcome, dev.Bit):
        return {"outcome_type": "bit", "value": outcome.value}
    if isinstance(outcome, dev.MatrixDescription):
        return {"outcome_type": "matrix", "matrix": outcome.matrix,
                "precision": -1 if outcome.precision is None else outcome.precision}
    return {"outcome_type": "overflow",
            "excluded_probability": outcome.excluded_probability}


def _device_records(config: RunConfig):
    """The records of a device run, each made when it is asked for: one per
    repetition, then the summary."""
    state = build_state(config)
    spec = config.device
    reps = range(config.repetitions)
    # repetition r of a stochastic device draws from stream (seed, _DEVICE_STREAM, r)
    streams = (RandomStream(config.seed, experiment=_DEVICE_STREAM).derive_many(reps)
               if spec.stochastic else itertools.repeat(None))
    for rep, rng in zip(reps, streams):
        outcome = spec.apply(state, config.target, rng)
        fields = {"record": "repetition", "repetition": rep}
        fields.update(_outcome_fields(outcome))
        yield fields
    yield {
        "record": "summary", "action": "device", "kind": config.name,
        "target": list(config.target), "repetitions": config.repetitions,
        "seed": config.seed,
    }


# ---------------------------------------------------------------------------
# Experiments and checks
# ---------------------------------------------------------------------------

@record
class Action:
    """One experiment or check: its names, stream, parameters and call.

    ``call(read, rng)`` reads each parameter through ``read(name)``: the
    default when absent, else the value checked against its bounds, so an
    unused parameter is never checked.  An experiment returns its
    certificate or report, a check its record fields and whether it passed.
    ``m_param`` is the parameter the CLI flag ``--m`` feeds.  ``check(read)``,
    where set, runs before the call and raises ParameterError when
    parameters that each pass their bounds do not fit together.
    """

    cli_name: str
    config_name: str
    stream: int
    params: dict[str, Param]
    call: Callable
    m_param: str | None = None
    check: Callable | None = None


def _run_action(action: Action, params: dict, seed: int, prefix: str = ""):
    """Run an action on the given parameters; a ConfigError names the
    parameter's key, ``prefix`` + its name."""
    for name in params:
        if name not in action.params:
            raise ConfigError(f"{action.cli_name} takes no parameter {name!r}", prefix + name)

    def read(name):
        param = action.params[name]
        return param.parse(params[name], prefix + name) if name in params else param.default

    if action.check is not None:
        try:
            action.check(read)
        except dev.ParameterError as err:
            raise ConfigError(str(err), prefix + err.name) from None
    return action.call(read, RandomStream(seed, experiment=action.stream))


def _no_signalling_weights(read) -> None:
    """The no-signalling weights are one or two numbers summing to 1."""
    try:
        exp.checked_schmidt_weights(read("weights"))
    except ValueError as err:
        raise dev.ParameterError("weights", str(err)) from None


def _default_ensemble() -> Ensemble:
    ket0, ket1, plus = normalized_states(FactorSpace((2,)), [[1, 0], [0, 1], [1, 1]])
    return Ensemble(((ket0, 0.5), (ket1, 0.3), (plus, 0.2)))


def _closure(read, rng):
    family = read("family")
    space = FactorSpace((2, 2))
    if family == "quantum_povm":
        measurement = FullMeasurement.from_povm(_computational_povm(4), space)
    else:  # entropy_meter, fpvnem
        measurement = entropy_meter_measurement(space, (0,), precision=read("m"))
    report = check_closure(measurement, read("samples"), rng)
    return dict(report.record_fields(), family=family), report.passed


def _product_form(read, rng):
    family = read("family")
    # the witness fits operators on a space of total dimension <= 16
    space = FactorSpace((read("d"),) * 2)
    if family == "fpvnem":
        opf = entropy_meter_measurement(space, (0,), precision=read("m")).outcomes[0]
        expected = "VIOLATION"
    else:  # quantum
        opf = opf_from_quantum(np.diag(np.linspace(0.1, 0.9, space.total_dim)), space)
        expected = "QUADRATIC"
    cert = product_form_witness(opf)
    return dict(cert.record_fields(), family=family, expected=expected), \
        cert.verdict == expected


_D = Param(int, 2, 2, 4)
_M = Param(int, 3, 1, 8)  # the entropy meter's precision: 2^m log2(d) + 1 outcomes
_THRESHOLD = Param(float, 0.05, low=0.0, open=True)
# a count's largest array stays near 256 MB at d = 4: fpvnem's (samples, 16) and cloning's
# (trials, 8) complex states at 10^6, the closure check's (samples, 257) floats at 10^5
_MAX_COUNT = 10**6
# and so does a size's: 2^24 complex amplitudes, or a (2^12, 2^12) complex density, take 256 MB
_MAX_DIM = 2**24
_MAX_TARGET_DIM = 2**12

EXPERIMENTS = {a.config_name: a for a in (
    Action("fpvnem", "fpvnem", 10, {
        "d": _D, "m": _M, "samples": Param(int, 1000, 1, _MAX_COUNT),
        "include_entangled": Param(bool, True, choices=(True, False))},
        lambda read, rng: exp.fpvnem_refutation(
            read("d"), read("m"), read("samples"), rng,
            include_entangled=read("include_entangled")),
        m_param="m"),
    Action("spod-update", "spod-update", 11, {
        "element": Param(str, "projector0", choices=tuple(exp.SPOD_ELEMENTS))},
        lambda read, rng: exp.spod_update_refutation(rng, element=read("element"))),
    Action("no-signalling", "no-signalling", 12, {
        "weights": Param(float, (0.5, 0.5), 0.0, 1.0, many=True)},
        lambda read, rng: exp.no_signalling_demo(rng, schmidt_weights=read("weights")),
        check=_no_signalling_weights),
    Action("cloning", "cloning", 13, {
        "d": _D, "precision": Param(int, None, 1), "trials": Param(int, 100, 1, _MAX_COUNT)},
        lambda read, rng: exp.cloning_demo(read("d"), rng, precision=read("precision"),
                                           trials=read("trials")),
        m_param="precision"),
    Action("tomography", "tomography", 14, {
        "n": Param(int, 100_000, 100), "confidence": Param(float, 0.95, 0.0, 1.0, open=True),
        "threshold": Param(float, 0.02, low=0.0, open=True)},
        lambda read, rng: exp.tomography_estimate(
            PureState.basis_state(FactorSpace((2,)), 0), read("n"), rng,
            confidence=read("confidence"), threshold=read("threshold"))),
    Action("ensemble-readout", "ensemble-readout", 15, {
        "n": Param(int, 10_000, 100, _MAX_COUNT), "precisions": Param(int, None, 1, many=True),
        "threshold": _THRESHOLD},
        lambda read, rng: exp.ensemble_estimate_readout(
            _default_ensemble(), read("n"), rng, precision_schedule=read("precisions"),
            threshold=read("threshold")),
        m_param="precisions"),
    Action("ensemble-overlap", "ensemble-overlap", 16, {
        "n": Param(int, 2000, 1, _MAX_COUNT),
        "epsilons": Param(float, (0.05, 0.01), 0.0, 1.0, open=True, many=True),
        "threshold": _THRESHOLD},
        lambda read, rng: exp.ensemble_estimate_overlap(
            _default_ensemble(), read("epsilons"), read("n"), rng,
            threshold=read("threshold"))),
)}

CHECKS = {a.config_name: a for a in (
    Action("closure", "closure", 3, {
        "family": Param(str, "quantum_povm",
                        choices=("quantum_povm", "entropy_meter", "fpvnem")),
        "samples": Param(int, 100, 1, 10**5), "m": _M},
        _closure, m_param="m"),
    Action("product-form", "product_form", 3, {
        "family": Param(str, "fpvnem", choices=("fpvnem", "quantum")),
        "d": _D, "m": _M},
        _product_form, m_param="m"),
    Action("estimation", "estimation_assumption", 3, {
        "family": Param(str, "readout", choices=ESTIMATION_FAMILIES), "d": _D},
        lambda read, rng: (check_estimation_assumption(read("family"), read("d"), rng)
                           .record_fields(), True)),
)}

# the record table of each action type, keyed by the name a config gives
_ACTIONS = {"device": dev.DEVICE_KINDS, "experiment": EXPERIMENTS, "check": CHECKS}
DEMO_NAMES = tuple(a.cli_name for a in EXPERIMENTS.values())


def run_experiment(experiment_id: str, params: dict, seed: int):
    """Run one named experiment and return its certificate or report."""
    return _run_action(EXPERIMENTS[experiment_id], params, seed)


def _action_record(action: Action, params: dict, seed: int,
                   prefix: str = "") -> tuple[dict, int]:
    """Run an experiment or a check: its record fields and exit status."""
    result = _run_action(action, params, seed, prefix)
    if isinstance(result, tuple):  # a check's fields and whether it passed
        fields, passed = result
    else:  # an experiment's certificate or report
        fields, passed = result.record_fields(), result.passed
    return fields, 0 if passed else 1


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit status.

    ``output.path`` is opened first, so an unwritable path exits 2 before
    any computation."""
    render = _as_text if config.output_format == "text" else format_record
    try:
        out = (open(config.output_path, "w", encoding="utf-8") if config.output_path
               else contextlib.nullcontext(sys.stdout))
    except OSError as err:
        raise ConfigError(f"cannot write {config.output_path!r}: {err.strerror}",
                          "output.path") from None
    with out as stream:
        if config.action_type == "device":
            records, status = _device_records(config), 0
        else:
            fields, status = _action_record(_ACTIONS[config.action_type][config.name],
                                            dict(config.params), config.seed,
                                            f"action.{config.action_type}.")
            records = [fields]
        for fields in records:  # a device run's records are written as they are made
            stream.write(render(fields) + "\n")
    return status


def _as_text(fields: dict) -> str:
    head = fields.get("experiment") or fields.get("check") or fields.get("record", "run")
    verdict = fields.get("verdict") or fields.get("status") or ""
    rest = {k: v for k, v in fields.items()
            if k not in ("experiment", "check", "record", "verdict", "status")}
    body = ", ".join(f"{k}={format_value(v)}" for k, v in sorted(rest.items()))
    return f"{head}: {verdict} ({body})" if verdict else f"{head}: {body}"


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def list_devices(as_json: bool = False, pattern: str = "") -> str:
    entries = {
        kind: entry for kind, entry in dev.DEVICE_KINDS.items()
        if pattern.lower() in kind.lower()
    }
    if as_json:
        import json  # only here: importing pqsim does not load it

        return json.dumps({
            kind: {"aliases": e.aliases, "summary": e.summary, "params": ", ".join(e.params),
                   "stochastic": e.stochastic}
            for kind, e in entries.items()
        }, indent=2, sort_keys=True)
    width = max((len(k) for k in entries), default=10)
    lines = [f"{'kind':<{width}}  {'tag':<36}  parameters"]
    for kind, e in sorted(entries.items()):
        lines.append(f"{kind:<{width}}  {e.aliases:<36}  {', '.join(e.params)}")
        lines.append(f"{'':<{width}}  {e.summary}")
    return "\n".join(lines)


def _checked_seed(seed, source: str, key: str | None = None, line: int | None = None) -> int:
    """``seed`` if it is an integer in [0, 2^64), else a ConfigError naming
    its ``source``, and its config ``key`` when it has one.  RandomStream
    reduces seeds modulo 2^64, so a seed outside that range would silently
    repeat the records of one inside."""
    if _is_int(seed) and 0 <= seed < 2 ** 64:
        return seed
    raise ConfigError(f"{source} must be an integer in [0, 2^64), got {seed!r}", key, line)


def _env_seed() -> int:
    """The seed from PQSIM_SEED, or DEFAULT_SEED when it is unset or empty."""
    text = os.environ.get("PQSIM_SEED")
    if not text:
        return DEFAULT_SEED
    try:
        return _checked_seed(int(text), "PQSIM_SEED")
    except ValueError:
        raise ConfigError(f"PQSIM_SEED must be an integer, got {text!r}") from None


def _seed_from(args) -> int:
    if args.seed is not None:
        return _checked_seed(args.seed, "--seed")
    return _env_seed()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqsim",
        description="Simulate post-quantum measurement devices and reproduce "
                    "their counterexample experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run configuration file")
    p_run.add_argument("config", help="path to the configuration file")

    p_demo = sub.add_parser("demo", help="run a built-in demonstration")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--d", type=int, help="subsystem dimension")
    p_demo.add_argument("--m", type=int, help="binary output precision")
    p_demo.add_argument("--seed", type=int)

    p_list = sub.add_parser("list-devices", help="show the device catalog")
    p_list.add_argument("filter", nargs="?", default="")
    p_list.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run a standalone checker")
    p_check.add_argument("name", metavar="kind", choices=[a.cli_name for a in CHECKS.values()])
    p_check.add_argument("--family")
    p_check.add_argument("--d", type=int)
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--samples", type=int)
    p_check.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as err:
                raise ConfigError(f"cannot read {args.config!r}: {err.strerror}") from None
            except UnicodeDecodeError as err:
                raise ConfigError(f"{args.config!r} is not UTF-8 text: {err.reason} "
                                  f"at byte {err.start}") from None
            return run(parse_config(text))
        if args.command == "list-devices":
            print(list_devices(as_json=args.json, pattern=args.filter))
            return 0
        # demo or check: the flags given feed the action's parameters
        seed = _seed_from(args)
        actions = EXPERIMENTS if args.command == "demo" else CHECKS
        action = next(a for a in actions.values() if a.cli_name == args.name)
        params = {flag: getattr(args, flag) for flag in ("family", "d", "m", "samples")
                  if getattr(args, flag, None) is not None}
        if "m" in params and action.m_param is not None:
            params[action.m_param] = params.pop("m")
        fields, status = _action_record(action, params, seed)
        print(format_record(fields))
        return status
    except ConfigError as err:
        print(f"pqsim: configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
