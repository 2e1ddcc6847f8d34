"""Properties of every device kind and of full measurements on 1-3 factors
of dimension 2-4, every nonempty target and seeded random states, and the
round trip of a record through its text format."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim.cli import format_record, parse_complex
from pqsim.devices import DEVICE_KINDS, DeviceSpec, IntegerLabel, MatrixDescription, Overflow
from pqsim.opf import FullMeasurement, device_measurement, entropy_meter_measurement
from pqsim.qcore import (
    FactorSpace,
    POVMSet,
    RandomStream,
    random_pure_state,
    random_pure_states,
    random_unitary,
)

from . import oracles


def _variants(kind: str, dim: int, rng: RandomStream) -> list[dict]:
    """Parameter sets of a device kind that are valid on a target of dimension dim."""
    g = rng.complex_normal(dim * dim).reshape(dim, dim)
    hermitian = (g + g.conj().T) / 2.0
    number = np.diag(np.arange(dim, dtype=complex))
    phi = random_pure_state(FactorSpace((dim,)), rng)
    eye = np.eye(dim, dtype=complex)
    unitary = np.linalg.qr(rng.complex_normal(dim * dim).reshape(dim, dim))[0]
    basis = list(unitary.T)
    limit = math.log2(dim)
    return {
        "Readout": [{}, {"basis": basis, "precision": 3}],
        "FunctionReadout": [{"exponent": 1}, {"exponent": 3, "precision": 4}],
        "ExpectationReadout": [{"observable": hermitian}, {"observable": number, "precision": 2}],
        "EigenvalueSampler": [
            {"observable": hermitian}, {"observable": hermitian, "precision": 2},
            {"observable": number, "variant": "integer_label", "label_offset": -1},
            {"observable": number, "variant": "finite", "max_label": 1},
            {"observable": np.outer(phi.amplitudes, phi.amplitudes.conj()), "variant": "bit"}],
        "UncertaintySampler": [{"observable": hermitian}, {"observable": number, "precision": 3}],
        "PovmSampler": [{"povm": POVMSet(tuple(np.outer(e, e) for e in eye))},
                        {"povm": POVMSet(tuple(np.outer(e, e) for e in eye)), "max_label": 1}],
        "OverlapTest": [{"target_state": phi, "threshold": 0.4},
                        {"target_state": phi, "threshold": 0.4, "sharpness": 6.0}],
        "BasisSelect": [{}, {"basis": basis, "sharpness": 5.0}],
        "EntropyMeter": [{}, {"alpha": 2.0, "precision": 4}, {"alpha": 0.5}],
        "EntropyCertifier": [
            {"entropy_threshold": 0.5 * limit},
            {"alpha": 2.0, "entropy_threshold": 0.3 * limit, "sharpness": 4.0}],
        "EntanglementAnalyse": [{}, {"basis": basis, "precision": 4}],
    }[kind]


@st.composite
def _cases(draw, kind: str):
    """(space, target, seed, variant index) for one device kind."""
    single = DEVICE_KINDS[kind].single_factor
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=2 if single else 1, max_size=3)))
    n = len(dims)
    targets = [t for r in range(1, 2 if single else n + 1)
               for t in itertools.combinations(range(n), r)]
    target = draw(st.sampled_from(targets))
    return FactorSpace(dims), target, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(0, 4))


def _keys(distribution) -> list:
    """Each branch as comparable data: outcome type, exact payload, probability."""
    keys = []
    for outcome, prob in distribution:
        if isinstance(outcome, MatrixDescription):
            payload = (outcome.matrix.shape, outcome.matrix.tobytes(), outcome.precision)
        elif isinstance(outcome, Overflow):
            payload = outcome.excluded_probability
        else:
            payload = outcome.value
        keys.append((type(outcome).__name__, payload, prob))
    return keys


@pytest.mark.parametrize("kind", sorted(DEVICE_KINDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_device_properties_across_shapes(kind, data):
    space, target, seed, variant = data.draw(_cases(kind))
    rng = RandomStream(seed)
    dim = math.prod(space.dims[i] for i in target)
    choices = _variants(kind, dim, rng.derive(0))
    spec = DeviceSpec(kind, choices[variant % len(choices)])
    a, b = (random_pure_state(space, child) for child in rng.derive_many(range(1, 3)))
    before = a.amplitudes.tobytes()

    one = spec.distribution(a, target)
    probs = np.array([p for _, p in one])
    assert np.all(probs >= 0.0)
    assert abs(math.fsum(probs) - 1.0) <= 1e-12

    stacked = spec.distributions([a, b], target)
    assert [_keys(d) for d in stacked] == [_keys(one), _keys(spec.distribution(b, target))]

    outcome = spec.apply(a, target, rng.derive(3))
    assert a.amplitudes.tobytes() == before
    hits = [p for key, p in zip(_keys(one), probs) if key[:2] == _keys([(outcome, 0.0)])[0][:2]]
    assert hits and max(hits) > 0.0


_KIND_VARIANTS = [(kind, i) for kind in sorted(DEVICE_KINDS)
                  for i in range(len(_variants(kind, 2, RandomStream(0))))]


def _same_branches(got, want, kind):
    """Equal list views: exactly, or within 1e-12 for the entanglement
    analyser, whose table reads the reduced density where its per-state body
    contracted the amplitudes, in another order of operations."""
    if kind != "EntanglementAnalyse":
        return _keys(got) == _keys(want)
    (a, p), (b, q) = got[0], want[0]
    return (len(got) == len(want) == 1 and p == q == 1.0 and a.precision == b.precision
            and a.matrix.shape == b.matrix.shape
            and np.max(np.abs(a.matrix - b.matrix)) <= 1e-12)


@pytest.mark.parametrize("kind,variant", _KIND_VARIANTS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_table_rows_and_draws_equal_the_per_state_bodies(kind, variant, data):
    """Each row of a table, and each one-row distribution, equals the kind's
    per-state body in ``tests/oracles.py``; a draw gives the body's outcome
    and leaves its stream where the body's draw leaves it."""
    space, target, seed, _ = data.draw(_cases(kind))
    rng = RandomStream(seed)
    dim = math.prod(space.dims[i] for i in target)
    spec = DeviceSpec(kind, _variants(kind, dim, rng.derive(0))[variant])
    states = random_pure_states((space,), rng.derive(1), 4)
    table = spec.table(states, target)
    assert table.probabilities.shape == (4, len(table.types))
    rows = table.rows()
    assert [_keys(d) for d in spec.distributions(states, target)] == [_keys(r) for r in rows]
    for t, (psi, row) in enumerate(zip(states, rows)):
        want = oracles.device_distribution(spec, psi, target)
        assert _same_branches(row, want, kind)
        assert _same_branches(spec.distribution(psi, target), want, kind)
        stream, oracle_stream = rng.derive(10 + t), rng.derive(10 + t)
        outcome = spec.apply(psi, target, stream)
        assert _same_branches([(outcome, 1.0)],
                              [(oracles.device_apply(spec, psi, target, oracle_stream), 1.0)],
                              kind)
        assert stream.uniform() == oracle_stream.uniform()


@st.composite
def _spaces(draw):
    """(space, nonempty target) over 1-3 factors of dimension 2-4."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    targets = [t for r in range(1, len(dims) + 1)
               for t in itertools.combinations(range(len(dims)), r)]
    return FactorSpace(dims), draw(st.sampled_from(targets))


@settings(max_examples=30, deadline=None)
@given(shape=_spaces(), seed=st.integers(0, 2 ** 32 - 1), precision=st.integers(1, 4),
       alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_full_measurements_are_complete_across_shapes(shape, seed, precision, alpha):
    """The outcome probabilities of an entropy meter, a rank-1 POVM on the
    whole space and a smoothed basis selection sum to 1 on every state."""
    space, target = shape
    rng = RandomStream(seed)
    dim = math.prod(space.dims[i] for i in target)
    unitary = random_unitary(space.total_dim, rng.derive(0))
    povm = POVMSet(tuple(np.outer(u, u.conj()) for u in unitary.T))
    measurements = [
        entropy_meter_measurement(space, target, precision, alpha),
        FullMeasurement.from_povm(povm, space),
        device_measurement(DeviceSpec("BasisSelect", {"sharpness": 4.0}),
                           [IntegerLabel(i) for i in range(dim)], space, target),
    ]
    states = random_pure_states((space,), rng.derive(1), 8)
    for measurement in measurements:
        assert measurement.completeness_violation(states) <= 1e-12


_FINITE = st.floats(allow_nan=False)
_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.booleans(), _FINITE,
    st.complex_numbers(allow_nan=False), st.text("abcxyz_", min_size=1, max_size=8),
    st.lists(_FINITE, max_size=4))


def _parse_field(text: str, like):
    """The value of one record field, read back as the type it was written from."""
    if isinstance(like, bool):
        return {"true": True, "false": False}[text]
    if isinstance(like, int):
        return int(text)
    if isinstance(like, str):
        return text
    if isinstance(like, list):
        inner = text[1:-1]
        return [parse_complex(item).real for item in inner.split(",")] if inner else []
    value = parse_complex(text)
    return value.real if isinstance(like, float) else value


@settings(max_examples=50, deadline=None)
@given(fields=st.dictionaries(st.from_regex(r"[a-z][a-z_]{0,9}", fullmatch=True), _VALUES,
                              min_size=1, max_size=6))
def test_record_round_trips_through_its_text(fields):
    """format_record writes the fields sorted by key, and parse_complex reads
    every number back exactly."""
    tokens = format_record(fields).split(" ")
    assert [token.split("=", 1)[0] for token in tokens] == sorted(fields)
    for token in tokens:
        key, text = token.split("=", 1)
        assert _parse_field(text, fields[key]) == fields[key]
