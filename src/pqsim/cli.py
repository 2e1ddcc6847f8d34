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
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import devices as dev
from . import experiments as exp
from .opf import (
    ESTIMATION_FAMILIES,
    FullMeasurement,
    check_closure,
    check_estimation_assumption,
    entropy_meter_measurement,
    opf_from_quantum,
    product_form_witness,
)
from .qcore import Ensemble, FactorSpace, POVMSet, PureState, RandomStream, require_hermitian

DEFAULT_SEED = 0x5EED

# stream namespaces, so state preparation, repetitions, and experiments
# never share a RandomStream
_STATE_STREAM = 2
_DEVICE_STREAM = 1
_CHECK_STREAM = 3
_EXPERIMENT_STREAMS = {
    "fpvnem": 10, "spod-update": 11, "no-signalling": 12, "cloning": 13,
    "tomography": 14, "ensemble-readout": 15, "ensemble-overlap": 16,
}

DEMO_NAMES = tuple(_EXPERIMENT_STREAMS)


class ConfigError(Exception):
    """Fatal configuration problem, pointing at the offending key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
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

@dataclass(frozen=True)
class RunConfig:
    seed: int
    dims: tuple[int, ...]
    state_kind: str
    action_type: str  # device | experiment | check
    state_labels: tuple[int, ...] = ()
    state_amplitudes: tuple[complex, ...] = ()
    device_kind: str = ""
    target: tuple[int, ...] = ()
    repetitions: int = 1
    experiment_id: str = ""
    check_kind: str = ""
    params: tuple[tuple[str, object], ...] = ()
    output_path: str = ""
    output_format: str = "records"

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_text(self) -> str:
        """Serialize so that parse_config round-trips to an equal RunConfig."""
        lines = [f"seed = {self.seed}",
                 f"space.dims = {_render(list(self.dims))}",
                 f'state.kind = "{self.state_kind}"']
        if self.state_labels:
            lines.append(f"state.labels = {_render(list(self.state_labels))}")
        if self.state_amplitudes:
            rendered = [format_value(a) for a in self.state_amplitudes]
            lines.append(f"state.amplitudes = {_render(rendered, quote=True)}")
        lines.append(f'action.type = "{self.action_type}"')
        if self.action_type == "device":
            lines.append(f'action.device.kind = "{self.device_kind}"')
            lines.append(f"action.target = {_render(list(self.target))}")
            lines.append(f"action.repetitions = {self.repetitions}")
            prefix = "action.device."
        elif self.action_type == "experiment":
            lines.append(f'action.experiment.id = "{self.experiment_id}"')
            prefix = "action.experiment."
        else:
            lines.append(f'action.check.kind = "{self.check_kind}"')
            prefix = "action.check."
        for key, value in self.params:
            lines.append(f"{prefix}{key} = {_render(value)}")
        if self.output_path:
            lines.append(f'output.path = "{self.output_path}"')
        lines.append(f'output.format = "{self.output_format}"')
        return "\n".join(lines) + "\n"


def _render(value, quote: bool = False) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (list, tuple)):
        inner = ", ".join(f'"{v}"' if quote else _render(v) for v in value)
        return f"[{inner}]"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_STATE_KINDS = ("bell", "ghz", "product", "random", "explicit")
_ACTION_TYPES = ("device", "experiment", "check")
_CHECK_KINDS = ("closure", "product_form", "estimation_assumption")

_DEVICE_PARAM_KEYS = {
    "Readout": {"basis", "precision"},
    "FunctionReadout": {"exponent", "basis", "precision"},
    "ExpectationReadout": {"observable", "precision"},
    "EigenvalueSampler": {"observable", "variant", "precision", "max_label",
                          "label_offset"},
    "UncertaintySampler": {"observable", "precision"},
    "PovmSampler": {"povm", "max_label"},
    "OverlapTest": {"target_state", "threshold", "sharpness"},
    "BasisSelect": {"basis", "sharpness"},
    "EntropyMeter": {"alpha", "precision"},
    "EntropyCertifier": {"alpha", "entropy_threshold", "sharpness"},
    "EntanglementAnalyse": {"basis", "precision"},
}

_EXPERIMENT_PARAM_KEYS = {
    "fpvnem": {"d", "m", "samples", "include_entangled"},
    "spod-update": {"element"},
    "no-signalling": {"weights"},
    "cloning": {"d", "precision", "trials"},
    "tomography": {"n", "confidence", "threshold"},
    "ensemble-readout": {"n", "weights", "precisions", "threshold"},
    "ensemble-overlap": {"n", "weights", "epsilons", "threshold"},
}

_CHECK_PARAM_KEYS = {
    "closure": {"family", "samples", "m"},
    "product_form": {"family", "d", "m"},
    "estimation_assumption": {"family", "d"},
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration, or raise ConfigError."""
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

    seed = take("seed")
    if seed is None:
        seed = _env_seed()
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer", "seed", line_of("seed"))

    dims = take("space.dims", required=True)
    if not isinstance(dims, tuple) or not all(isinstance(d, int) for d in dims):
        raise ConfigError("space.dims must be a list of integers", "space.dims",
                          line_of("space.dims"))
    try:
        space = FactorSpace(dims)
    except ValueError as err:
        raise ConfigError(str(err), "space.dims", line_of("space.dims")) from None

    state_kind = take("state.kind", required=True)
    if state_kind not in _STATE_KINDS:
        raise ConfigError(f"state.kind must be one of {_STATE_KINDS}", "state.kind",
                          line_of("state.kind"))
    labels = take("state.labels", ())
    amplitudes_raw = take("state.amplitudes", ())
    state_labels: tuple[int, ...] = ()
    state_amplitudes: tuple[complex, ...] = ()
    if state_kind == "product":
        if not labels or not all(isinstance(x, int) for x in labels):
            raise ConfigError("product state needs integer state.labels",
                              "state.labels", line_of("state.labels"))
        if len(labels) != space.n_factors:
            raise ConfigError("state.labels needs one label per factor",
                              "state.labels", line_of("state.labels"))
        state_labels = tuple(labels)
    elif state_kind == "explicit":
        if not amplitudes_raw:
            raise ConfigError("explicit state needs state.amplitudes",
                              "state.amplitudes", line_of("state.amplitudes"))
        try:
            state_amplitudes = tuple(
                parse_complex(a) if isinstance(a, str) else complex(a)
                for a in amplitudes_raw)
        except ValueError:
            raise ConfigError("unparseable amplitude", "state.amplitudes",
                              line_of("state.amplitudes")) from None
        if len(state_amplitudes) != space.total_dim:
            raise ConfigError(
                f"state.amplitudes has length {len(state_amplitudes)}, "
                f"expected {space.total_dim}", "state.amplitudes",
                line_of("state.amplitudes"))
        norm = float(np.linalg.norm(np.array(state_amplitudes)))
        if not abs(norm - 1.0) <= 1e-6:  # also rejects non-finite amplitudes
            raise ConfigError(f"amplitudes norm {norm} deviates from 1 beyond 1e-6",
                              "state.amplitudes", line_of("state.amplitudes"))
    elif state_kind in ("bell", "ghz"):
        if space.n_factors < 2 or len(set(space.dims)) != 1:
            raise ConfigError(f"{state_kind} state needs at least two equal factors",
                              "state.kind", line_of("state.kind"))
        if state_kind == "bell" and space.n_factors != 2:
            raise ConfigError("bell state needs exactly two factors", "state.kind",
                              line_of("state.kind"))

    action_type = take("action.type", required=True)
    if action_type not in _ACTION_TYPES:
        raise ConfigError(f"action.type must be one of {_ACTION_TYPES}", "action.type",
                          line_of("action.type"))

    device_kind = ""
    target: tuple[int, ...] = ()
    repetitions = 1
    experiment_id = ""
    check_kind = ""
    params: list[tuple[str, object]] = []

    if action_type == "device":
        device_kind = take("action.device.kind", required=True)
        if device_kind not in dev.DEVICE_CATALOG:
            raise ConfigError(f"unknown device kind {device_kind!r}",
                              "action.device.kind", line_of("action.device.kind"))
        raw_target = take("action.target", required=True)
        if not isinstance(raw_target, tuple) or not all(
                isinstance(i, int) for i in raw_target):
            raise ConfigError("action.target must be a list of factor indices",
                              "action.target", line_of("action.target"))
        if not raw_target or not set(raw_target) <= set(range(space.n_factors)):
            raise ConfigError("action.target indices out of range", "action.target",
                              line_of("action.target"))
        target = tuple(raw_target)
        repetitions = take("action.repetitions", 1)
        if not isinstance(repetitions, int) or repetitions < 1:
            raise ConfigError("action.repetitions must be a positive integer",
                              "action.repetitions", line_of("action.repetitions"))
        allowed = _DEVICE_PARAM_KEYS[device_kind]
        prefix = "action.device."
        for key in pairs:
            if key.startswith(prefix) and key != "action.device.kind":
                name = key[len(prefix):]
                if name not in allowed:
                    raise ConfigError(
                        f"parameter {name!r} not accepted by {device_kind}",
                        key, line_of(key))
                params.append((name, take(key)))
        _validate_device_params(device_kind, dict(params), space, target,
                                line_of, prefix)
    elif action_type == "experiment":
        experiment_id = take("action.experiment.id", required=True)
        if experiment_id not in _EXPERIMENT_PARAM_KEYS:
            raise ConfigError(f"unknown experiment {experiment_id!r}",
                              "action.experiment.id", line_of("action.experiment.id"))
        prefix = "action.experiment."
        for key in pairs:
            if key.startswith(prefix) and key != "action.experiment.id":
                name = key[len(prefix):]
                if name not in _EXPERIMENT_PARAM_KEYS[experiment_id]:
                    raise ConfigError(
                        f"parameter {name!r} not accepted by {experiment_id}",
                        key, line_of(key))
                params.append((name, take(key)))
    else:
        check_kind = take("action.check.kind", required=True)
        if check_kind not in _CHECK_KINDS:
            raise ConfigError(f"check kind must be one of {_CHECK_KINDS}",
                              "action.check.kind", line_of("action.check.kind"))
        prefix = "action.check."
        for key in pairs:
            if key.startswith(prefix) and key != "action.check.kind":
                name = key[len(prefix):]
                if name not in _CHECK_PARAM_KEYS[check_kind]:
                    raise ConfigError(f"parameter {name!r} not accepted by {check_kind}",
                                      key, line_of(key))
                params.append((name, take(key)))

    output_path = take("output.path", "")
    output_format = take("output.format", "records")
    if output_format not in ("text", "records"):
        raise ConfigError("output.format must be 'text' or 'records'", "output.format",
                          line_of("output.format"))

    unknown = set(pairs) - consumed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError("unknown key", key, line_of(key))

    return RunConfig(
        seed=seed, dims=space.dims, state_kind=state_kind,
        state_labels=state_labels, state_amplitudes=state_amplitudes,
        action_type=action_type, device_kind=device_kind, target=target,
        repetitions=repetitions, experiment_id=experiment_id,
        check_kind=check_kind, params=tuple(sorted(params)),
        output_path=output_path, output_format=output_format,
    )


def _validate_device_params(kind, params, space, target, line_of, prefix):
    d_target = math.prod(space.dims[i] for i in set(target))
    if kind == "EntropyCertifier":
        threshold = params.get("entropy_threshold")
        if threshold is None:
            raise ConfigError("missing required key", prefix + "entropy_threshold")
        limit = math.log2(d_target)
        if not 0 < float(threshold) < limit:
            raise ConfigError(
                f"entropy_threshold {threshold} outside allowed range 0 < E < {limit:g}",
                prefix + "entropy_threshold", line_of(prefix + "entropy_threshold"))
    if kind == "OverlapTest":
        if "target_state" not in params or "threshold" not in params:
            raise ConfigError("OverlapTest needs target_state and threshold",
                              prefix + "threshold")
        if not 0 < float(params["threshold"]) < 1:
            raise ConfigError("threshold must lie in (0, 1)", prefix + "threshold",
                              line_of(prefix + "threshold"))
    if kind in ("ExpectationReadout", "EigenvalueSampler", "UncertaintySampler"):
        if "observable" not in params:
            raise ConfigError("missing required key", prefix + "observable")
    if kind == "PovmSampler" and "povm" not in params:
        raise ConfigError("missing required key", prefix + "povm")


# ---------------------------------------------------------------------------
# Config-to-object resolution
# ---------------------------------------------------------------------------

_NAMED_OBSERVABLES = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _resolve_matrix(value, dim: int, key: str):
    if isinstance(value, str):
        if value == "number":
            return np.diag(np.arange(dim, dtype=complex))
        if value in _NAMED_OBSERVABLES:
            mat = _NAMED_OBSERVABLES[value]
            if mat.shape[0] != dim:
                raise ConfigError(f"{value} is a qubit observable, target has dim {dim}",
                                  key)
            return mat
        raise ConfigError(f"unknown named observable {value!r}", key)
    entries = [parse_complex(v) if isinstance(v, str) else complex(v) for v in value]
    if len(entries) != dim * dim:
        raise ConfigError(f"observable needs {dim * dim} row-major entries", key)
    return np.array(entries, dtype=complex).reshape(dim, dim)


def _resolve_state_vector(value, dim: int, key: str) -> PureState:
    entries = [parse_complex(v) if isinstance(v, str) else complex(v) for v in value]
    if len(entries) != dim:
        raise ConfigError(f"state vector needs {dim} entries", key)
    try:
        return PureState.normalized(FactorSpace((dim,)), np.array(entries))
    except ValueError as err:
        raise ConfigError(str(err), key) from None


def _resolve_device_spec(config: RunConfig, space: FactorSpace) -> dev.DeviceSpec:
    d_target = math.prod(space.dims[i] for i in set(config.target))
    params: dict = {}
    for key, value in config.params:
        full_key = "action.device." + key
        if key == "observable":
            mat = _resolve_matrix(value, d_target, full_key)
            try:
                require_hermitian(mat, "observable is not Hermitian within tolerance")
            except ValueError as err:
                raise ConfigError(str(err), full_key) from None
            params[key] = mat
        elif key == "target_state":
            params[key] = _resolve_state_vector(value, d_target, full_key)
        elif key == "basis":
            if value == "computational":
                continue
            mat = _resolve_matrix(value, d_target, full_key)
            params[key] = [mat[i] for i in range(d_target)]
        elif key == "povm":
            if value == "computational":
                eye = np.eye(d_target, dtype=complex)
                params[key] = POVMSet(tuple(
                    np.outer(eye[i], eye[i]) for i in range(d_target)))
            else:
                raise ConfigError("povm supports the named set 'computational'", full_key)
        else:
            params[key] = value
    return dev.DeviceSpec(config.device_kind, params)


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
    norm = float(np.linalg.norm(amps))
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


def _run_device(config: RunConfig) -> tuple[list[dict], int]:
    space = FactorSpace(config.dims)
    state = build_state(config)
    spec = _resolve_device_spec(config, space)
    records = []
    for rep in range(config.repetitions):
        rng = RandomStream(config.seed, experiment=_DEVICE_STREAM, trial=rep)
        outcome = spec.apply(state, config.target, rng if spec.stochastic else None)
        fields = {"record": "repetition", "repetition": rep}
        fields.update(_outcome_fields(outcome))
        records.append(fields)
    summary = {
        "record": "summary", "action": "device", "kind": config.device_kind,
        "target": list(config.target), "repetitions": config.repetitions,
        "seed": config.seed,
    }
    records.append(summary)
    return records, 0


def _default_ensemble() -> Ensemble:
    space = FactorSpace((2,))
    ket0 = PureState.basis_state(space, 0)
    ket1 = PureState.basis_state(space, 1)
    plus = PureState(space, np.array([1, 1]) / math.sqrt(2.0))
    return Ensemble(((ket0, 0.5), (ket1, 0.3), (plus, 0.2)))


def _bounded_int(value, key: str, low: int, high: int | None = None) -> int:
    """An integer parameter within [low, high], or a ConfigError naming the key."""
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}", key) from None
    if number < low or (high is not None and number > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{key} must be {bounds}, got {number}", key)
    return number


def run_experiment(experiment_id: str, params: dict, seed: int):
    """Dispatch one named experiment and return its certificate or report."""
    rng = RandomStream(seed, experiment=_EXPERIMENT_STREAMS[experiment_id])
    if experiment_id == "fpvnem":
        return exp.fpvnem_refutation(
            _bounded_int(params.get("d", 2), "d", 2, 4),
            _bounded_int(params.get("m", 3), "m", 1, 8),
            int(params.get("samples", 1000)), rng,
            include_entangled=bool(params.get("include_entangled", True)))
    if experiment_id == "spod-update":
        return exp.spod_update_refutation(rng, element=params.get("element",
                                                                  "projector0"))
    if experiment_id == "no-signalling":
        weights = params.get("weights", (0.5, 0.5))
        return exp.no_signalling_demo(rng, schmidt_weights=weights)
    if experiment_id == "cloning":
        precision = params.get("precision")
        return exp.cloning_demo(_bounded_int(params.get("d", 2), "d", 2, 4), rng,
                                precision=(None if precision is None
                                           else _bounded_int(precision, "precision", 1)),
                                trials=_bounded_int(params.get("trials", 100), "trials", 1))
    if experiment_id == "tomography":
        source = PureState.basis_state(FactorSpace((2,)), 0)
        return exp.tomography_estimate(source,
                                       _bounded_int(params.get("n", 100_000), "n", 100), rng,
                                       threshold=float(params.get("threshold", 0.02)))
    if experiment_id == "ensemble-readout":
        precisions = params.get("precisions")
        if precisions is not None:
            if len(precisions) == 0:
                raise ConfigError("precisions must be nonempty", "precisions")
            precisions = [_bounded_int(m, "precisions", 1) for m in precisions]
        return exp.ensemble_estimate_readout(
            _default_ensemble(), _bounded_int(params.get("n", 10_000), "n", 100), rng,
            precision_schedule=precisions,
            threshold=float(params.get("threshold", 0.05)))
    if experiment_id == "ensemble-overlap":
        epsilons = params.get("epsilons", (0.05, 0.01))
        return exp.ensemble_estimate_overlap(
            _default_ensemble(), epsilons, int(params.get("n", 2000)), rng,
            threshold=float(params.get("threshold", 0.05)))
    raise ConfigError(f"unknown experiment {experiment_id!r}")


def _experiment_exit(result) -> int:
    if isinstance(result, exp.Certificate):
        return 0 if result.verdict in (exp.VIOLATION_CERTIFIED, exp.CONSISTENT) else 1
    return 0 if result.status == "OK" and result.passed else 1


def _run_check(check_kind: str, params: dict, seed: int) -> tuple[list[dict], int]:
    rng = RandomStream(seed, experiment=_CHECK_STREAM)
    if check_kind == "closure":
        family = params.get("family", "quantum_povm")
        samples = _bounded_int(params.get("samples", 100), "samples", 1)
        space = FactorSpace((2, 2))
        if family == "quantum_povm":
            eye = np.eye(4, dtype=complex)
            povm = POVMSet(tuple(np.outer(eye[i], eye[i]) for i in range(4)))
            measurement = FullMeasurement.from_povm(povm, space)
        elif family in ("entropy_meter", "fpvnem"):
            measurement = entropy_meter_measurement(
                space, (0,), precision=_bounded_int(params.get("m", 3), "m", 1))
        else:
            raise ConfigError(f"unknown closure family {family!r}")
        report = check_closure(measurement, samples, rng)
        fields = report.record_fields()
        fields["family"] = family
        return [fields], 0 if report.passed else 1
    if check_kind == "product_form":
        family = params.get("family", "fpvnem")
        # the witness fits operators on a space of total dimension <= 16
        space = FactorSpace((_bounded_int(params.get("d", 2), "d", 2, 4),) * 2)
        if family == "fpvnem":
            measurement = entropy_meter_measurement(
                space, (0,), precision=_bounded_int(params.get("m", 3), "m", 1))
            opf = measurement.outcomes[0]
            expected = "VIOLATION"
        elif family == "quantum":
            dim = space.total_dim
            opf = opf_from_quantum(np.diag(np.linspace(0.1, 0.9, dim)), space)
            expected = "QUADRATIC"
        else:
            raise ConfigError(f"unknown product-form family {family!r}")
        cert = product_form_witness(opf)
        fields = cert.record_fields()
        fields["family"] = family
        fields["expected"] = expected
        return [fields], 0 if cert.verdict == expected else 1
    # estimation_assumption
    family = params.get("family", "readout")
    if family not in ESTIMATION_FAMILIES:
        raise ConfigError(f"unknown estimation family {family!r}; "
                          f"expected one of {ESTIMATION_FAMILIES}")
    verdict = check_estimation_assumption(family, _bounded_int(params.get("d", 2), "d", 2, 4),
                                          rng)
    return [verdict.record_fields()], 0


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit status."""
    if config.action_type == "device":
        records, status = _run_device(config)
    elif config.action_type == "experiment":
        result = run_experiment(config.experiment_id, dict(config.params), config.seed)
        records = [result.record_fields()]
        status = _experiment_exit(result)
    else:
        records, status = _run_check(config.check_kind, dict(config.params),
                                     config.seed)

    lines = [format_record(fields) for fields in records]
    if config.output_format == "text":
        lines = [_as_text(fields) for fields in records]
    payload = "\n".join(lines) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
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
        kind: entry for kind, entry in dev.DEVICE_CATALOG.items()
        if pattern.lower() in kind.lower()
    }
    if as_json:
        return json.dumps({
            kind: {"aliases": e.aliases, "summary": e.summary, "params": e.params,
                   "stochastic": e.stochastic}
            for kind, e in entries.items()
        }, indent=2, sort_keys=True)
    width = max((len(k) for k in entries), default=10)
    lines = [f"{'kind':<{width}}  {'tag':<36}  parameters"]
    for kind, e in sorted(entries.items()):
        lines.append(f"{kind:<{width}}  {e.aliases:<36}  {e.params}")
        lines.append(f"{'':<{width}}  {e.summary}")
    return "\n".join(lines)


def _env_seed() -> int:
    """The seed from PQSIM_SEED, or DEFAULT_SEED when it is unset or empty."""
    text = os.environ.get("PQSIM_SEED")
    if not text:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"PQSIM_SEED must be an integer, got {text!r}") from None


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
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
    p_demo.add_argument("--d", type=int, default=None, help="subsystem dimension")
    p_demo.add_argument("--m", type=int, default=None, help="binary output precision")
    p_demo.add_argument("--seed", type=int, default=None)

    p_list = sub.add_parser("list-devices", help="show the device catalog")
    p_list.add_argument("filter", nargs="?", default="")
    p_list.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run a standalone checker")
    p_check.add_argument("kind", choices=("closure", "product-form", "estimation"))
    p_check.add_argument("--family", default=None)
    p_check.add_argument("--d", type=int, default=2)
    p_check.add_argument("--m", type=int, default=3)
    p_check.add_argument("--samples", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
            return run(parse_config(text))
        if args.command == "demo":
            seed = _seed_from(args)
            params: dict = {}
            if args.d is not None:
                params["d"] = args.d
            if args.m is not None:
                params["m"] = args.m
                if args.name == "cloning":
                    params["precision"] = params.pop("m")
                if args.name == "ensemble-readout":
                    params["precisions"] = [params.pop("m")]
            result = run_experiment(args.name, params, seed)
            print(format_record(result.record_fields()))
            return _experiment_exit(result)
        if args.command == "list-devices":
            print(list_devices(as_json=args.json, pattern=args.filter))
            return 0
        # check
        seed = _seed_from(args)
        kind = {"closure": "closure", "product-form": "product_form",
                "estimation": "estimation_assumption"}[args.kind]
        params = {"d": args.d, "m": args.m, "samples": args.samples}
        if args.family:
            params["family"] = args.family
        records, status = _run_check(kind, params, seed)
        for fields in records:
            print(format_record(fields))
        return status
    except ConfigError as err:
        print(f"pqsim: configuration error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"pqsim: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
