"""Properties of every device kind on 1-3 factors of dimension 2-4, every
nonempty target and seeded random states."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim.devices import DEVICE_KINDS, DeviceSpec, MatrixDescription, Overflow
from pqsim.qcore import FactorSpace, POVMSet, RandomStream, random_pure_state


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

