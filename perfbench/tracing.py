"""Span tracing of pqsim's five modules, installed from outside the package.

``install`` wraps the public functions and methods of ``qcore``,
``devices``, ``opf``, ``experiments`` and ``cli``.  Modules import names
directly (``devices`` does ``from .qcore import partial_trace``), so a
wrapped function replaces the original under every name any pqsim module
binds it to; methods are replaced on their class, which every binding
shares.  numpy's ``eigh`` and ``eigvalsh`` get a counter, not a span.

Spans are recorded only while ``tracer.op`` is a valid op index, so the
benchmark's own input generation and checks never show up.  Each span
holds its name, start, end, parent span and op id; spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute) for every wrapped callable; "Class.method" patches the
# class.  The span name is "<module>.<attribute>".
TARGETS = {
    "qcore": [
        "PureState.__init__", "DensityMatrix.__init__", "HermitianObservable.__init__",
        "POVMSet.__init__", "RandomStream.__init__", "RandomStream.choose",
        "partial_trace", "measure_projective", "random_pure_state", "random_unitary",
        "random_density_matrix", "tensor_product", "apply_unitary", "apply_on_factors",
        "schmidt_decompose", "born_probabilities", "fidelity", "entropy",
        "von_neumann_entropy", "renyi_entropy",
    ],
    "devices": [
        "DeviceSpec.apply", "DeviceSpec.distribution", "DeviceSpec.probability_of",
        "reduced_density", "readout_density", "function_readout", "expectation_readout",
        "eigenvalue_distribution", "uncertainty_distribution", "povm_distribution",
        "overlap_distribution", "basis_weights", "basis_select_distribution",
        "entropy_meter", "certify_distribution", "entanglement_analyse",
        "sample_eigenvalue", "sample_projection", "sample_uncertainty", "sample_povm",
        "overlap_test", "basis_select", "entropy_certify",
    ],
    "opf": [
        "OPF.__call__", "OPF.on_ensemble", "FullMeasurement.completeness_violation",
        "opf_from_quantum", "opf_from_device", "readout_opf", "mix", "compose_unitary",
        "compose_system", "mix_measurements", "entropy_meter_measurement",
        "check_closure", "hermitian_basis", "hermitian_coords", "canonical_probe_states",
        "product_form_witness", "ic_projector_states", "density_from_projector_values",
        "check_estimation_assumption", "update_map_feasibility",
    ],
    "experiments": [
        "fpvnem_refutation", "spod_update_refutation", "no_signalling_demo",
        "cloning_demo", "tomography_estimate", "ensemble_estimate_readout",
        "ensemble_estimate_overlap", "wilson_interval", "trace_distance",
        "recovered_supports_disjoint", "fibonacci_net",
    ],
    "cli": [
        "main", "run", "parse_config", "build_state", "run_experiment",
        "format_record", "parse_complex", "list_devices", "build_parser",
    ],
}

CONSTRUCTORS = {f"qcore.{c}.__init__" for c in
                ("PureState", "DensityMatrix", "HermitianObservable", "POVMSet",
                 "RandomStream")}

# One exact-distribution evaluation is one call of these that is not nested
# inside another of them; its inputs are fingerprinted for the repeat ratio.
EVALUATIONS = {f"devices.{n}" for n in (
    "DeviceSpec.distribution", "readout_density", "function_readout",
    "expectation_readout", "eigenvalue_distribution", "uncertainty_distribution",
    "povm_distribution", "overlap_distribution", "basis_weights",
    "basis_select_distribution", "entropy_meter", "certify_distribution",
    "entanglement_analyse")}
# Everything else in devices computes distributions too, except the draws.
DRAWS = {f"devices.{n}" for n in (
    "DeviceSpec.apply", "sample_eigenvalue", "sample_projection", "sample_uncertainty",
    "sample_povm", "overlap_test", "basis_select", "entropy_certify")}

LAYERS = ("cli", "experiments", "opf", "devices", "qcore")


class Tracer:
    """In-memory span store.  ``op`` is the current op id, -1 outside ops."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack = [-1]
        self.eig_calls = 0
        self.keys: dict[int, str] = {}  # span index -> digest of the evaluation's inputs
        self.pending: list = []  # (span index, name, args, kwargs) awaiting a digest
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def settle(self) -> None:
        """Digest the inputs of evaluations recorded so far; call outside ops.

        Inputs are value objects that pqsim never mutates, so digesting them
        after the op keeps the hashing out of every measured span.
        """
        for index, name, args, kwargs in self.pending:
            text = repr((name, _fingerprint(args), _fingerprint(kwargs))).encode()
            self.keys[index] = hashlib.blake2b(text, digest_size=16).hexdigest()
        self.pending.clear()

    def as_dump(self) -> dict:
        self.settle()
        return {
            "names": self.names,
            "spans": [[self.name[i], self.start[i], self.end[i], self.parent[i],
                       self.op_id[i]] for i in range(len(self.start))],
            "keys": {str(i): k for i, k in self.keys.items()},
            "eig_calls": self.eig_calls,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dump(), handle)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Fingerprints of distribution inputs
# ---------------------------------------------------------------------------

def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _fingerprint(v)) for k, v in value.items()))
    for attr in ("amplitudes", "entries", "elements"):  # PureState, observables, POVMSet
        if hasattr(value, attr):
            return (type(value).__name__, _fingerprint(getattr(value, attr)))
    if hasattr(value, "kind") and hasattr(value, "params"):  # DeviceSpec
        return (value.kind, _fingerprint(value.params))
    return repr(value)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _span_wrapper(fn, name: str, tracer: Tracer):
    nid = tracer.name_id(name)
    keyed = name in EVALUATIONS
    perf = time.perf_counter
    names, starts, ends = tracer.name, tracer.start, tracer.end
    parents, op_ids, stack = tracer.parent, tracer.op_id, tracer.stack
    pending = tracer.pending

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op < 0:
            return fn(*args, **kwargs)
        index = len(starts)
        if keyed:
            pending.append((index, name, args, kwargs))
        names.append(nid)
        parents.append(stack[-1])
        op_ids.append(tracer.op)
        ends.append(0.0)
        stack.append(index)
        starts.append(perf())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = perf()
            stack.pop()

    return wrapper


def _count_wrapper(fn, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op >= 0:
            tracer.eig_calls += 1
        return fn(*args, **kwargs)

    return wrapper


def _replace(tracer: Tracer, owner, attr: str, new) -> None:
    tracer._undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def install(tracer: Tracer) -> Tracer:
    """Wrap every target under every name a loaded pqsim module binds it to."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "pqsim" or n.startswith("pqsim."))]
    for layer, attrs in TARGETS.items():
        module = sys.modules[f"pqsim.{layer}"]
        for attr in attrs:
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                _replace(tracer, cls, method, _span_wrapper(cls.__dict__[method], name, tracer))
                continue
            original = getattr(module, attr)
            wrapper = _span_wrapper(original, name, tracer)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        _replace(tracer, mod, bound, wrapper)
    for attr in ("eigh", "eigvalsh"):
        _replace(tracer, np.linalg, attr, _count_wrapper(getattr(np.linalg, attr), tracer))
    return tracer


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Totals:
    """Per-span-name calls and self time, summed over any number of dumps."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.evaluations = 0
        self.distinct: set = set()
        self.draws = 0
        self.eig_calls = 0
        self.spans = 0
        self.top_level_s = 0.0  # time inside outermost spans

    def add(self, dump: dict) -> None:
        names = dump["names"]
        spans = dump["spans"]
        keys = dump["keys"]
        self.eig_calls += dump["eig_calls"]
        self.spans += len(spans)
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                self.top_level_s += end - start
        for i, (nid, start, end, parent, _) in enumerate(spans):
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child[i]
            if name in EVALUATIONS or name in DRAWS:
                family = EVALUATIONS if name in EVALUATIONS else DRAWS
                p = parent
                while p >= 0 and names[spans[p][0]] not in family:
                    p = spans[p][3]
                if p < 0:
                    if family is EVALUATIONS:
                        self.evaluations += 1
                        self.distinct.add(keys[str(i)])
                    else:
                        self.draws += 1

    def _sum(self, table: dict, predicate) -> float:
        return sum(v for k, v in table.items() if predicate(k))

    def metrics(self) -> dict:
        ms = lambda pred: self._sum(self.self_s, pred) * 1e3
        calls = lambda pred: int(self._sum(self.calls, pred))
        in_layer = lambda layer: (lambda k: k.startswith(layer + "."))
        distribution = lambda k: k.startswith("devices.") and k not in DRAWS
        out = {
            "cli.self_ms": ms(in_layer("cli")),
            "cli.format_record_calls": calls(lambda k: k == "cli.format_record"),
            "experiments.calls": calls(in_layer("experiments")),
            "experiments.self_ms": ms(in_layer("experiments")),
            "opf.opf_eval_calls": calls(lambda k: k == "opf.OPF.__call__"),
            "opf.opf_eval_self_ms": ms(lambda k: k == "opf.OPF.__call__"),
            "opf.hermitian_coords_calls": calls(lambda k: k == "opf.hermitian_coords"),
            "opf.hermitian_coords_ms": ms(lambda k: k == "opf.hermitian_coords"),
            "opf.check_closure_ms": ms(lambda k: k == "opf.check_closure"),
            "opf.product_form_witness_ms": ms(lambda k: k == "opf.product_form_witness"),
            "opf.self_ms": ms(in_layer("opf")),
            "devices.distribution_calls": self.evaluations,
            "devices.distribution_self_ms": ms(distribution),
            "devices.distribution_repeat_ratio": (
                self.evaluations / len(self.distinct) if self.distinct else 0.0),
            "devices.draw_calls": self.draws,
            "devices.draw_self_ms": ms(lambda k: k in DRAWS),
            "devices.self_ms": ms(in_layer("devices")),
            "qcore.construct_calls": calls(lambda k: k in CONSTRUCTORS),
            "qcore.construct_self_ms": ms(lambda k: k in CONSTRUCTORS),
            "qcore.hermitian_observable_calls": calls(
                lambda k: k == "qcore.HermitianObservable.__init__"),
            "qcore.random_stream_calls": calls(lambda k: k == "qcore.RandomStream.__init__"),
            "qcore.partial_trace_calls": calls(lambda k: k == "qcore.partial_trace"),
            "qcore.partial_trace_self_ms": ms(lambda k: k == "qcore.partial_trace"),
            "qcore.eig_calls": self.eig_calls,
            "qcore.self_ms": ms(in_layer("qcore")),
            "trace.spans": self.spans,
        }
        return out
