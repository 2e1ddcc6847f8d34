"""The densities the library builds from validated states are density
matrices by construction, so no library path checks them at run time.

A reduced density of a ``PureState`` or ``StateStack``, and an ensemble
density of such states with validated weights, is Hermitian, of unit trace
and positive semi-definite up to rounding.  ``require_density`` checks only
``DensityMatrix``'s user-given entries; the property test here is the
oracle for every other density, and the spy tests guard that a device
table, the spod-update refutation and the estimation checks eigendecompose
only where a spectrum is read.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim import experiments, opf
from pqsim.devices import DEVICE_KINDS, DeviceSpec
from pqsim.qcore import (
    Ensemble,
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    ensemble_densities,
    normalized_states,
    random_pure_states,
    reduced_densities,
    require_density,
    require_ensemble_weights,
)

# Far inside the 1e-9 tolerances of require_density; the largest deviations
# seen are below 1e-15.
MARGIN = 1e-12


def _assert_densities(rhos: np.ndarray) -> None:
    """The largest Hermitian deviation, |trace - 1| and negative eigenvalue
    of an (n, d, d) stack are within MARGIN, and require_density passes."""
    assert np.abs(rhos - rhos.swapaxes(-1, -2).conj()).max() <= MARGIN
    assert np.abs(rhos.trace(axis1=-2, axis2=-1) - 1.0).max() <= MARGIN
    assert np.linalg.eigvalsh(rhos)[:, 0].min() >= -MARGIN
    require_density(rhos)


@st.composite
def _stacks(draw):
    """(stack, generator): 12 validated states on 1-3 factors of dimension
    2-4, from amplitudes of magnitude 10^s, s in [-100, 100], each entry
    further scaled by e^-t, t uniform in [0, spread] with spread <= 200,
    divided by their norms as ``PureState.normalized`` divides; or
    ``random_pure_states`` draws."""
    space = FactorSpace(tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_pure_states((space,), RandomStream(int(gen.integers(2 ** 32))), 12), gen
    scale = 10.0 ** draw(st.integers(-100, 100))
    spread = draw(st.floats(0.0, 200.0))
    shape = (12, space.total_dim)
    amps = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) * scale
    return normalized_states(space, amps * np.exp(-spread * gen.random(shape))), gen


@settings(max_examples=300, deadline=None)
@given(case=_stacks())
def test_reduced_densities_of_validated_states_are_densities(case):
    """On every nonempty set of kept factors, the whole space included."""
    stack, _ = case
    n = stack.space.n_factors
    for keep in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(1, n + 1)):
        _assert_densities(reduced_densities(stack, keep))
    _assert_densities(reduced_densities(list(stack), n - 1))  # a list, as a table takes it


@settings(max_examples=300, deadline=None)
@given(case=_stacks(), members=st.integers(1, 4))
def test_ensemble_densities_of_validated_weights_are_densities(case, members):
    """Flat Dirichlet weights, checked as ``Ensemble`` checks them, over the
    stack's states taken ``members`` at a time."""
    stack, gen = case
    trials = len(stack) // members
    weights = gen.dirichlet(np.ones(members), size=trials)
    require_ensemble_weights(weights)
    amps = stack.amplitudes[:trials * members].reshape(trials, members, -1)
    _assert_densities(ensemble_densities(weights, amps))


@pytest.fixture
def eig_calls(monkeypatch):
    """The names of numpy's ``eigh`` and ``eigvalsh`` calls, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, _original=original,
                            **kwargs: calls.append(_name) or _original(*args, **kwargs))
    return calls


_QUBIT = FactorSpace((2,))
_OBSERVABLE = HermitianObservable(np.diag([1.0, -1.0]))
_PARAMS = {  # built here, so that their own eigendecompositions are made before any spy
    "ExpectationReadout": {"observable": _OBSERVABLE},
    "EigenvalueSampler": {"observable": _OBSERVABLE},
    "UncertaintySampler": {"observable": _OBSERVABLE},
    "PovmSampler": {"povm": POVMSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))},
    "OverlapTest": {"target_state": PureState(_QUBIT, [1.0, 0.0]), "threshold": 0.4},
    "FunctionReadout": {"exponent": 1},
    "EntropyCertifier": {"entropy_threshold": 0.5},
}


@pytest.mark.parametrize("single", [False, True], ids=["stack", "state"])
@pytest.mark.parametrize("kind", sorted(DEVICE_KINDS))
def test_a_table_eigendecomposes_only_for_a_spectral_kind(kind, single, eig_calls):
    states = random_pure_states((FactorSpace((2, 2)),), RandomStream(5), 7)
    DeviceSpec(kind, _PARAMS.get(kind, {})).table(states[0] if single else states, (0,))
    assert eig_calls == (["eigvalsh"] if DEVICE_KINDS[kind].spectral else [])


def test_spod_update_eigendecomposes_only_its_povms_and_fidelities(eig_calls):
    experiments.spod_update_refutation(RandomStream(11))  # makes the element's fits once
    eig_calls.clear()
    experiments.spod_update_refutation(RandomStream(12))
    # the POVM check, then fidelities' eigh of the densities and eigvalsh of the products
    assert eig_calls == ["eigvalsh", "eigh", "eigvalsh"]


@pytest.mark.parametrize("family", ["quantum_povm", "spod"])
def test_estimation_eigendecomposes_no_ensemble_density(family, eig_calls):
    opf.check_estimation_assumption(family, 3, RandomStream(1))  # makes the IC outcomes once
    eig_calls.clear()
    opf.check_estimation_assumption(family, 3, RandomStream(2))
    assert eig_calls == []


def test_overlap_estimate_eigendecomposes_no_drawn_density(eig_calls):
    plus = PureState.normalized(_QUBIT, [1.0, 1.0])
    source = Ensemble(((PureState(_QUBIT, [1.0, 0.0]), 0.5), (plus, 0.5)))
    eig_calls.clear()
    experiments.ensemble_estimate_overlap(source, [0.2, 0.05], 40, RandomStream(3))
    assert eig_calls == []

