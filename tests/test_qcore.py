"""Core state representation, linear algebra, and randomness contract."""

import dataclasses
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim import _seedwords, qcore
from pqsim.devices import reduced_density
from pqsim.qcore import (
    DensityMatrix,
    Ensemble,
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    StateStack,
    apply_unitary,
    born_probabilities,
    entropy,
    fidelities,
    fidelity,
    measure_projective,
    normalized_states,
    partial_trace,
    quantize,
    random_density_matrix,
    random_pure_state,
    random_pure_states,
    random_pure_states_in_turn,
    random_unitaries,
    random_unitary,
    reduced_densities,
    renyi_entropy,
    require_density,
    schmidt_decompose,
    spectrum_entropies,
    spectrum_entropy,
    tensor_product,
    tensor_products,
    unitary_images,
    von_neumann_entropy,
)

from . import oracles
from .oracles import (
    derived_streams,
    naive_partial_trace,
    normalized_amplitudes,
    pure_state_amplitudes,
    random_state_amplitudes,
    renyi_bits,
    shannon_bits,
    tensor_amplitudes,
    trace_probabilities,
)

QUBIT = FactorSpace((2,))
TWO_QUBITS = FactorSpace((2, 2))

KET0 = PureState.basis_state(QUBIT, 0)
KET1 = PureState.basis_state(QUBIT, 1)
PLUS = PureState(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = PureState(QUBIT, np.array([1, -1]) / np.sqrt(2))
BELL = PureState(TWO_QUBITS, np.array([1, 0, 0, 1]) / np.sqrt(2))

PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTypes:
    def test_factor_space_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            FactorSpace((2, 1))

    def test_factor_space_total_dim(self):
        assert FactorSpace((2, 3, 2)).total_dim == 12

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(QUBIT, np.array([1.0, 1.0]))

    def test_pure_state_renormalizes_exactly(self):
        eps = 5e-10
        state = PureState(QUBIT, np.array([1.0 + eps, 0.0]))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_pure_state_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 2.0

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_matrix_keeps_its_eigenvalues(self, monkeypatch):
        rho = random_density_matrix(4, RandomStream(31))
        assert np.array_equal(rho.eigenvalues(), np.linalg.eigvalsh(rho.entries))
        with pytest.raises(ValueError):
            rho.eigenvalues()[0] = 1.0
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(1) or original(a))
        von_neumann_entropy(rho)
        renyi_entropy(rho, 2.0)
        assert calls == []

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            Ensemble(((KET0, 0.5), (KET1, 0.6)))
        with pytest.raises(ValueError):
            Ensemble(((KET0, 1.0), (BELL, 0.0)))
        ens = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        np.testing.assert_allclose(ens.density().entries, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_ensemble_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="ensemble weights"):
            Ensemble(((KET0, weight),))

    def test_povm_must_resolve_identity(self):
        with pytest.raises(ValueError):
            POVMSet((np.eye(2) / 2, np.eye(2) / 3))
        povm = POVMSet((np.eye(2) / 2, np.eye(2) / 2))
        assert len(povm) == 2

    def test_observable_clusters_degenerate_eigenvalues(self):
        obs = HermitianObservable(np.eye(3))
        assert obs.n_clusters == 1
        np.testing.assert_allclose(obs.projectors[0], np.eye(3), atol=1e-12)

    def test_observable_cluster_order_ascending(self):
        obs = HermitianObservable(np.diag([3.0, -1.0, 3.0]))
        assert obs.eigenvalues == (pytest.approx(-1.0), pytest.approx(3.0))
        assert obs.projectors[1].trace() == pytest.approx(2.0)


def _two_element_povms(n):
    """n POVMs {b, I - b} on a qubit, b diagonal with entries in (0.2, 0.8)."""
    b = np.zeros((n, 2, 2), dtype=complex)
    b[:, [0, 1], [0, 1]] = np.linspace(0.2, 0.8, 2 * n).reshape(n, 2)
    return np.stack([b, np.eye(2) - b], axis=1)


def test_born_probability_rows_pair_each_density_with_its_povm():
    rhos = reduced_densities(random_pure_states((FactorSpace((2, 3)),), RandomStream(15), 6),
                             (0,))
    stack = _two_element_povms(6)
    povms = qcore.povm_sets(stack)
    got = qcore.born_probability_rows(rhos, stack)
    assert got.shape == (6, 2)
    for rho, povm, row in zip(rhos, povms, got):
        assert row.tobytes() == qcore.born_probability_rows(rho[None], povm)[0].tobytes()
    with pytest.raises(ValueError, match="6 POVMs do not pair with 5 densities"):
        qcore.born_probability_rows(rhos[:5], stack)
    with pytest.raises(ValueError, match="POVM dimension 2 does not match state dimension 3"):
        qcore.born_probability_rows(np.eye(3)[None] / 3, stack[:1])


def _spoil(povm, kind):
    """Make one valid qubit POVM of a stack fail the named POVMSet check."""
    if kind in ("nan", "inf"):
        povm[0, 0, 0] = math.nan if kind == "nan" else math.inf
    elif kind == "non_hermitian":  # the sum stays I
        povm[0, 0, 1] += 0.1
        povm[1, 0, 1] -= 0.1
    elif kind == "negative":
        povm[0] = np.diag([-0.1, 0.5])
        povm[1] = np.diag([1.1, 0.5])
    else:  # incomplete
        povm[1] *= 0.9


def _message(build):
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


class TestPovmSets:
    """``povm_sets`` validates a stack of POVMs as ``POVMSet`` validates one."""

    KINDS = ("nan", "inf", "non_hermitian", "negative", "incomplete")

    def test_rows_equal_povms_built_one_at_a_time(self):
        rng = RandomStream(367)
        stack = np.empty((9, 3, 3, 3), dtype=complex)
        for povm in stack:
            u = random_unitary(3, rng)
            weights = rng.generator.dirichlet(np.ones(3), size=3)
            for element, w in zip(povm, weights.T):
                element[:] = (u * w) @ u.conj().T
        povms = qcore.povm_sets(stack)
        assert len(povms) == 9
        want = [[e.tobytes() for e in POVMSet(tuple(elements)).elements] for elements in stack]
        stack[:] = 0.0  # the rows are a copy of the input
        for povm, elements in zip(povms, want):
            assert isinstance(povm, POVMSet) and len(povm) == 3 and povm.dim == 3
            assert [e.tobytes() for e in povm.elements] == elements
            for element in povm.elements:
                with pytest.raises(ValueError, match="read-only"):
                    element[0, 0] = 1.0

    def test_one_povm_keeps_its_own_read_only_copy(self):
        b = np.diag([0.3, 0.6])
        povm = POVMSet((b, np.eye(2) - b))
        b[0, 0] = 0.9
        assert povm.elements[0][0, 0] == 0.3
        with pytest.raises(ValueError, match="read-only"):
            povm.elements[1][0, 0] = 0.0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows", [(0,), (2,), (1, 3)])
    def test_first_bad_povm_raises_the_one_povm_message(self, kind, rows):
        stack = _two_element_povms(5)
        for row in rows:
            _spoil(stack[row], kind)
        want = _message(lambda: POVMSet(tuple(stack[rows[0]])))
        assert _message(lambda: qcore.povm_sets(stack)) == want

    @pytest.mark.parametrize("first, second", itertools.permutations(KINDS, 2))
    def test_the_earlier_of_two_bad_povms_names_the_failure(self, first, second):
        stack = _two_element_povms(5)
        _spoil(stack[1], first)
        _spoil(stack[3], second)
        want = _message(lambda: POVMSet(tuple(stack[1])))
        assert _message(lambda: qcore.povm_sets(stack)) == want

    @pytest.mark.parametrize("order", ["psd_first", "hermitian_first"])
    def test_elements_are_checked_in_order(self, order):
        negative = np.diag([-0.1, 1.1]).astype(complex)
        skew = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        elements = (negative, skew) if order == "psd_first" else (skew, negative)
        want = ("negative eigenvalue" if order == "psd_first" else "not Hermitian")
        assert want in _message(lambda: POVMSet(elements))
        stack = _two_element_povms(3)
        stack[1] = elements
        assert _message(lambda: qcore.povm_sets(stack)) == _message(lambda: POVMSet(elements))

    def test_shape_failures_raise_the_one_povm_message(self):
        assert _message(lambda: qcore.povm_sets(np.zeros((4, 2, 2, 3)))) == \
            _message(lambda: POVMSet((np.zeros((2, 3)), np.zeros((2, 3)))))
        assert _message(lambda: qcore.povm_sets(np.zeros((4, 0, 2, 2)))) == \
            _message(lambda: POVMSet(()))
        with pytest.raises(ValueError, match="is not \\(n, k, d, d\\)"):
            qcore.povm_sets(np.zeros((2, 2, 2)))
        assert qcore.povm_sets(np.zeros((0, 2, 2, 2))) == ()


class TestEmptyMatrices:
    """A 0 x 0 matrix is square but empty: each constructor raises its own
    ValueError naming the shape, not numpy's zero-size reduction error."""

    def test_density_matrix(self):
        with pytest.raises(ValueError, match=r"density matrix .* shape \(0, 0\)"):
            DensityMatrix(np.zeros((0, 0)))

    def test_hermitian_observable(self):
        with pytest.raises(ValueError, match=r"observable .* shape \(0, 0\)"):
            HermitianObservable(np.zeros((0, 0)))

    def test_povm_set(self):
        with pytest.raises(ValueError, match=r"POVM element .* shape \(0, 0\)"):
            POVMSet((np.zeros((0, 0)),))

    def test_povm_sets(self):
        message = _message(lambda: qcore.povm_sets(np.zeros((3, 2, 0, 0))))
        assert message == _message(lambda: POVMSet((np.zeros((0, 0)), np.zeros((0, 0)))))
        assert "shape (0, 0)" in message

    def test_empty_stacks_pass_the_stacked_checks(self):
        for check in (lambda m: qcore.require_hermitian(m, "not Hermitian"),
                      lambda m: qcore.require_psd(m, "not PSD"), qcore.require_density):
            check(np.zeros((0, 3, 3), dtype=complex))


class TestEnsembleWeightRows:
    @pytest.mark.parametrize("weights, first_bad, message", [
        ([[0.5, 0.5], [0.5, 0.0]], 1, "must be positive"),
        ([[math.nan, 1.0], [0.5, 0.5]], 0, "must be positive"),
        ([[0.5, 0.5], [0.5, 0.6], [0.5, -0.1]], 1, "sum to 1.1, not 1"),
        ([[0.5, 0.5], [0.5, -0.1], [0.5, 0.6]], 1, "must be positive"),
        ([[0.2, 0.3, 0.5], [0.25, 0.25, 0.25]], 1, "sum to 0.75, not 1"),
    ])
    def test_first_bad_row_raises_the_ensemble_message(self, weights, first_bad, message):
        want = _message(lambda: Ensemble(tuple((KET0, w) for w in weights[first_bad])))
        assert message in want
        assert _message(lambda: qcore.require_ensemble_weights(np.array(weights))) == want

    def test_totals_are_added_in_member_order(self):
        # ((w0 + w1) + w2) + w3 is 1.0000001; (w0 + w1) + (w2 + w3) is 1.0000000999999998
        weights = [0.394695223262884, 0.0010904773937420085, 0.23061365768478997,
                   0.37360074165858403]
        want = _message(lambda: Ensemble(tuple((KET0, w) for w in weights)))
        assert "sum to 1.0000001, not 1" in want
        assert _message(lambda: qcore.require_ensemble_weights(np.array([weights]))) == want


class TestNonFinite:
    """NaN fails every ``x > tol`` test, so the checks are ``not x <= tol``."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="deviates from 1"):
            PureState(QUBIT, [bad, 0.0])
        with pytest.raises(ValueError, match="cannot normalize a vector of norm"):
            PureState.normalized(QUBIT, [bad, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_density_matrix_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix([[bad, 0], [0, 0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix([[0.5, bad], [bad, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_observable_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianObservable([[bad, 0], [0, 1]])

    def test_povm_element_rejects_nan(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            POVMSet((np.diag([1.0, math.nan]), np.diag([0.0, 1.0])))

    def test_unitary_check_rejects_nan(self):
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(KET0, np.array([[1, 0], [0, math.nan]]))


class TestHugeAmplitudes:
    """A finite amplitude whose square overflows makes the norm inf, which the
    norm checks reject with their own messages and no floating-point warning
    (the test suite turns every warning into an error)."""

    @pytest.mark.parametrize("amps", [[1e200, 1e200], [1e155, 0.0], [0.0, 1e308j]])
    def test_single_states(self, amps):
        with pytest.raises(ValueError, match="state norm inf deviates from 1"):
            PureState(QUBIT, np.array(amps))
        with pytest.raises(ValueError, match="cannot normalize a vector of norm inf"):
            PureState.normalized(QUBIT, np.array(amps))

    def test_stacks(self):
        rows = np.array([[1.0, 0.0], [1e200, 1e200]])
        with pytest.raises(ValueError, match="cannot normalize a vector of norm inf"):
            normalized_states(QUBIT, rows)
        with pytest.raises(ValueError, match="state norm inf deviates from 1"):
            StateStack(QUBIT, rows)

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e100, 1e150])
    def test_norms_that_do_not_overflow_are_numpy_s(self, scale):
        rows = scale * np.random.default_rng(7).standard_normal((4, 6)).view(complex)
        for row, got in zip(rows, qcore._row_norms(rows)):
            assert got == float(np.linalg.norm(row))
            assert qcore._row_norms(row) == got  # a vector alone
            assert qcore._row_norms(row.real) == float(np.linalg.norm(row.real))


class TestRepeatedRules:
    """``projectors`` and ``in_order_sum`` give the bits of the loops they replace."""

    def test_projectors_are_outer_products(self):
        rows = np.random.default_rng(8).standard_normal((5, 6)).view(complex)
        rows[::2, 1] = -0.0
        for row, projector in zip(rows, qcore.projectors(rows)):
            assert projector.tobytes() == np.outer(row, row.conj()).tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_in_order_sum_is_a_loop_from_zero(self, axis):
        x = np.random.default_rng(9).choice([0.0, -0.0, 0.1, -0.3, 1e16, -1e16], size=(40, 7))
        x[:, 0] = x[0, :] = -0.0  # a sum of -0.0 alone is 0.0 from 0.0
        want = np.zeros(x.shape[1 - axis])
        for term in np.moveaxis(x, axis, 0):
            want += term
        assert qcore.in_order_sum(x, axis).tobytes() == want.tobytes()


# Every space the construction oracle is checked on.
ORACLE_SPACES = [(2,), (3,), (2, 2), (2, 3), (4, 4), (2, 2, 2)]


def _amplitude_inputs(dim, seed, scale=1.0 + 3e-10):
    """One vector of norm ``scale`` in every form a caller may pass: a list,
    a real and a complex array, and non-contiguous real and complex views."""
    g = np.random.default_rng(seed)
    v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    v *= scale / np.linalg.norm(v)
    r = g.standard_normal(dim)
    r *= scale / np.linalg.norm(r)
    strided = np.zeros(3 * dim, dtype=complex)
    strided[::3] = v
    column = np.zeros((dim, 2))
    column[:, 1] = r
    return {"list": [complex(x) for x in v], "real": r, "complex": v,
            "complex view": strided[::3], "real column": column[:, 1]}


class TestConstructionOracle:
    """The direct norm and outer product build exactly the amplitudes of the
    original np.linalg.norm / np.kron / np.prod construction."""

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_pure_state(self, dims):
        space = FactorSpace(dims)
        for form, amps in _amplitude_inputs(space.total_dim, 1).items():
            state = PureState(space, amps)
            assert np.array_equal(state.amplitudes, pure_state_amplitudes(amps)), form

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_normalized(self, dims):
        space = FactorSpace(dims)
        for form, amps in _amplitude_inputs(space.total_dim, 2, scale=3.7).items():
            state = PureState.normalized(space, amps)
            assert np.array_equal(state.amplitudes, normalized_amplitudes(amps)), form

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_random_pure_state(self, dims):
        for trial in range(20):
            state = random_pure_state(FactorSpace(dims), RandomStream(3, trial=trial))
            want = random_state_amplitudes(dims, RandomStream(3, trial=trial))
            assert np.array_equal(state.amplitudes, want)

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_tensor_product(self, dims):
        rng = RandomStream(5)
        for trial in range(10):
            a = random_pure_state(FactorSpace(dims), rng)
            for other in ((2,), (3,)):
                b = random_pure_state(FactorSpace(other), rng)
                for left, right in ((a, b), (b, a)):
                    joint = tensor_product(left, right)
                    assert joint.space.dims == left.space.dims + right.space.dims
                    assert np.array_equal(
                        joint.amplitudes, tensor_amplitudes(left.amplitudes, right.amplitudes))

    @pytest.mark.parametrize("build", [PureState, PureState.normalized])
    def test_state_never_aliases_its_input(self, build):
        for form, source in _amplitude_inputs(4, 6).items():
            state = build(TWO_QUBITS, source)
            before = state.amplitudes.copy()
            source[0] = 99.0
            assert np.array_equal(state.amplitudes, before), form
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 1.0

    def test_total_dim_is_a_python_int(self):
        for dims in ORACLE_SPACES:
            total = FactorSpace(dims).total_dim
            assert type(total) is int and total == int(np.prod(dims))


class TestStackedStates:
    """Stacked construction equals the per-state loop bit for bit: the
    library's scalar path and the original construction in the oracles."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 0x5EED])
    def test_random_product_states_equal_per_trial_loop(self, d, seed):
        factor = FactorSpace((d,))
        rng = RandomStream(seed, 10)
        states = random_pure_states((factor, factor), rng, 60)
        assert len(states) == 60
        for t, state in enumerate(states):
            child = rng.derive(t)
            scalar = tensor_product(random_pure_state(factor, child),
                                    random_pure_state(factor, child))
            child = rng.derive(t)
            original = tensor_amplitudes(random_state_amplitudes((d,), child),
                                         random_state_amplitudes((d,), child))
            assert state.space.dims == (d, d)
            assert np.array_equal(state.amplitudes, scalar.amplitudes)
            assert np.array_equal(state.amplitudes, original)

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_random_states_on_one_space_equal_per_trial_loop(self, dims):
        space = FactorSpace(dims)
        rng = RandomStream(17, 3)
        for t, state in enumerate(random_pure_states((space,), rng, 30)):
            assert state.space == space
            assert np.array_equal(state.amplitudes,
                                  random_state_amplitudes(dims, rng.derive(t)))
            assert np.array_equal(state.amplitudes,
                                  random_pure_state(space, rng.derive(t)).amplitudes)

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("seed", [1, 2, 7, 0x5EED])
    def test_draws_in_turn_equal_the_call_loop(self, dims, seed):
        # the closure checker's 10 lead probes, then its 10 backgrounds
        space, back = FactorSpace(dims), FactorSpace(dims[-1:])
        stacked, looped = RandomStream(seed, 3, 101), RandomStream(seed, 3, 101)
        for on in (space, back):
            got = random_pure_states_in_turn(on, stacked, 10)
            want = oracles.random_states_in_turn(on, looped, 10)
            assert got.space == on and len(got) == 10
            assert not got.amplitudes.flags.writeable
            assert got.amplitudes.tobytes() == np.array(
                [psi.amplitudes for psi in want]).tobytes()
        assert stacked.normal(7).tobytes() == looped.normal(7).tobytes()

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2)])
    def test_one_draw_is_the_one_row_case(self, dims):
        space = FactorSpace(dims)
        single, looped = RandomStream(11, 3), RandomStream(11, 3)
        for _ in range(5):
            state = random_pure_state(space, single)
            assert isinstance(state, PureState) and state.space == space
            assert state.amplitudes.tobytes() == oracles.random_pure_state(
                space, looped).amplitudes.tobytes()
        assert single.uniform() == looped.uniform()

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_normalized_states_equal_oracle(self, dims):
        space = FactorSpace(dims)
        g = np.random.default_rng(len(dims) * 10 + space.total_dim)
        complex_rows = (g.standard_normal((25, space.total_dim))
                        + 1j * g.standard_normal((25, space.total_dim))) * 3.7
        real_rows = g.standard_normal((25, space.total_dim))
        for rows in (complex_rows, real_rows, [list(r) for r in complex_rows]):
            states = normalized_states(space, rows)
            for state, row in zip(states, rows):
                assert np.array_equal(state.amplitudes, normalized_amplitudes(row))
                assert np.array_equal(state.amplitudes,
                                      PureState.normalized(space, row).amplitudes)

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_tensor_products_equal_oracle(self, dims):
        rng = RandomStream(19)
        states = [random_pure_state(FactorSpace(dims), rng) for _ in range(15)]
        for other in ((2,), (3,), (2, 2)):
            phi = random_pure_state(FactorSpace(other), rng)
            for pack in (list, StateStack.of):
                joint = tensor_products(pack(states), phi)
                assert len(joint) == len(states)
                for psi, state in zip(states, joint):
                    assert state.space.dims == dims + other
                    assert np.array_equal(state.amplitudes,
                                          tensor_amplitudes(psi.amplitudes, phi.amplitudes))

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_unitary_images_equal_oracle(self, dims):
        space = FactorSpace(dims)
        rng = RandomStream(23)
        states = [random_pure_state(space, rng) for _ in range(15)]
        u = random_unitary(space.total_dim, rng)
        for pack in (list, StateStack.of):
            images = unitary_images(pack(states), u)
            assert len(images) == len(states)
            for psi, state in zip(states, images):
                assert state.space == space
                assert np.array_equal(state.amplitudes,
                                      normalized_amplitudes(u @ psi.amplitudes))

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_stacked_backgrounds_and_unitaries_are_blocks_of_single_calls(self, dims):
        space = FactorSpace(dims)
        rng = RandomStream(29)
        states = StateStack.of([random_pure_state(space, rng) for _ in range(7)])
        phis = [random_pure_state(FactorSpace((3,)), rng) for _ in range(5)]
        joint = tensor_products(states, StateStack.of(phis))
        assert joint.space.dims == dims + (3,)
        assert joint.amplitudes.tobytes() == b"".join(
            tensor_products(states, phi).amplitudes.tobytes() for phi in phis)
        unitaries = random_unitaries(space.total_dim, rng, 5)
        images = unitary_images(states, unitaries)
        assert images.space == space
        assert images.amplitudes.tobytes() == b"".join(
            unitary_images(states, u).amplitudes.tobytes() for u in unitaries)

    def test_rows_are_read_only_and_never_alias_the_input(self):
        rows = np.array([[1.0, 1.0j, 0.0, 2.0], [0.5, 0.0, 0.0, 0.0]], dtype=complex)
        states = normalized_states(TWO_QUBITS, rows)
        before = [s.amplitudes.copy() for s in states]
        rows[:] = 7.0
        for state, want in zip(states, before):
            assert np.array_equal(state.amplitudes, want)
            with pytest.raises(ValueError):
                state.amplitudes[0] = 1.0
        for state in random_pure_states((QUBIT, QUBIT), RandomStream(3), 4):
            assert not state.amplitudes.flags.writeable

    def test_every_row_is_norm_checked(self):
        good = np.array([1.0, 0.0], dtype=complex)
        for bad in ([1.0 + 1e-6, 0.0], [math.nan, 0.0], [math.inf, 0.0]):
            rows = np.array([good, np.array(bad, dtype=complex)])
            with pytest.raises(ValueError, match="deviates from 1"):
                StateStack(QUBIT, rows)
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            normalized_states(QUBIT, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="cannot normalize a vector of norm nan"):
            normalized_states(QUBIT, [[1.0, 0.0], [math.nan, 1.0]])
        with pytest.raises(ValueError, match="cannot normalize a vector of norm inf"):
            normalized_states(QUBIT, [[math.inf, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="does not match total_dim"):
            normalized_states(QUBIT, [[1.0, 0.0, 0.0]])

    def test_row_messages_equal_the_single_state_messages(self):
        for bad in ([1.0 + 1e-6, 0.0], [math.nan, 0.0]):
            with pytest.raises(ValueError) as want:
                PureState(QUBIT, bad)
            with pytest.raises(ValueError) as got:
                StateStack(QUBIT, np.array([[1.0, 0.0], bad], dtype=complex))
            assert str(got.value) == str(want.value)
        for bad in ([0.0, 0.0], [math.inf, 1.0]):
            with pytest.raises(ValueError) as want:
                PureState.normalized(QUBIT, bad)
            with pytest.raises(ValueError) as got:
                normalized_states(QUBIT, [[1.0, 0.0], bad])
            assert str(got.value) == str(want.value)

    def test_stacks_reject_states_of_another_space(self):
        # (2, 2) and (4,) have one total dimension but are different spaces
        mixed = [random_pure_state(TWO_QUBITS, RandomStream(5)),
                 random_pure_state(FactorSpace((4,)), RandomStream(6))]
        with pytest.raises(ValueError, match="must share one FactorSpace"):
            tensor_products(mixed, KET0)
        with pytest.raises(ValueError, match="must share one FactorSpace"):
            unitary_images(mixed, np.eye(4))
        with pytest.raises(ValueError, match="must share one FactorSpace"):
            StateStack.of(mixed[:1], FactorSpace((4,)))

    @pytest.mark.parametrize("draw,name,bad", [
        (lambda rng, v: random_pure_states((QUBIT, QUBIT), rng, v), "trials", -1),
        (lambda rng, v: random_pure_states_in_turn(QUBIT, rng, v), "n", -1),
        (lambda rng, v: random_unitaries(2, rng, v), "n", -1),
        (lambda rng, v: random_unitaries(v, rng, 2), "dim", 0),
        (lambda rng, v: random_unitary(v, rng), "dim", -2),
    ])
    def test_counts_and_dimensions_are_checked_before_any_draw(self, draw, name, bad):
        # unchecked, these gave numpy's "negative dimensions are not allowed",
        # a bare TypeError, or a (2, 0, 0) stack for dim 0
        rng = RandomStream(23)
        with pytest.raises(ValueError, match=f"^{name} must be at least "):
            draw(rng, bad)
        for value in (True, 2.5, "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                draw(rng, value)
        assert rng.uniform() == RandomStream(23).uniform()  # no draw was made
        draw(rng, np.int64(1))  # a numpy integer is an integer

    def test_empty_stacks(self):
        assert len(random_pure_states((QUBIT,), RandomStream(1), 0)) == 0
        assert len(tensor_products(StateStack.of([], QUBIT), KET0)) == 0
        assert len(unitary_images(StateStack.of([], QUBIT), np.eye(2))) == 0
        assert len(normalized_states(QUBIT, np.zeros((0, 2)))) == 0
        # an empty list names no space for the result to live on
        with pytest.raises(ValueError, match="names no FactorSpace"):
            tensor_products([], KET0)
        with pytest.raises(ValueError, match="names no FactorSpace"):
            unitary_images([], np.eye(2))
        assert tensor_products(StateStack.of([], QUBIT), KET0).space == TWO_QUBITS


class TestStateStack:
    """One validated (n, D) array: rows checked once, viewed as states."""

    @pytest.mark.parametrize("dims", ORACLE_SPACES)
    def test_construction_equals_per_state_loop(self, dims):
        space = FactorSpace(dims)
        g = np.random.default_rng(space.total_dim)
        rows = [pure_state_amplitudes(g.standard_normal(space.total_dim)
                                      + 1j * g.standard_normal(space.total_dim))
                for _ in range(20)]
        stack = StateStack(space, rows)
        assert len(stack) == 20 and stack.space == space
        for state, row in zip(stack, rows):
            assert np.array_equal(state.amplitudes, PureState(space, row).amplitudes)
            assert np.array_equal(state.amplitudes, pure_state_amplitudes(row))

    def test_rows_are_views_and_slices_are_stacks(self):
        stack = random_pure_states((QUBIT, QUBIT), RandomStream(29), 6)
        rows = list(stack)
        assert len(rows) == 6
        for i, state in enumerate(rows):
            assert type(state) is PureState and state.space == TWO_QUBITS
            assert np.shares_memory(state.amplitudes, stack.amplitudes)
            assert np.array_equal(state.amplitudes, stack[i].amplitudes)
        assert np.array_equal(stack[-1].amplitudes, rows[5].amplitudes)
        assert np.array_equal(stack[np.int64(2)].amplitudes, rows[2].amplitudes)
        part = stack[1:4]
        assert type(part) is StateStack and part.space == TWO_QUBITS and len(part) == 3
        assert np.shares_memory(part.amplitudes, stack.amplitudes)
        assert not stack.amplitudes.flags.writeable and not part.amplitudes.flags.writeable
        with pytest.raises(TypeError):
            stack[[0, 1]]
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.space = QUBIT

    def test_of_converts_once(self):
        stack = random_pure_states((TWO_QUBITS,), RandomStream(31), 5)
        assert StateStack.of(stack) is stack
        assert StateStack.of(stack, FactorSpace((2, 2))) is stack
        one = StateStack.of(BELL)
        assert len(one) == 1 and one.space == TWO_QUBITS
        assert np.shares_memory(one.amplitudes, BELL.amplitudes)
        packed = StateStack.of(list(stack))
        assert packed.space == TWO_QUBITS and not packed.amplitudes.flags.writeable
        assert np.array_equal(packed.amplitudes, stack.amplitudes)
        assert StateStack.of(tuple(stack), TWO_QUBITS).amplitudes.tobytes() \
            == stack.amplitudes.tobytes()
        assert len(StateStack.of([], QUBIT)) == 0
        for states in (stack, BELL, [BELL], [KET0, BELL]):
            with pytest.raises(ValueError, match="^elsewhere$"):
                StateStack.of(states, QUBIT, "elsewhere")
        with pytest.raises(ValueError, match="must share one FactorSpace"):
            StateStack.of([BELL, KET0])

    @pytest.mark.parametrize("bad_rows", [(0,), (2,), (1, 3), (3, 1, 2), (0, 1, 2, 3)])
    def test_first_bad_row_raises_the_single_state_message(self, bad_rows):
        good = [1.0, 0.0]
        kinds = ([1.0 + 1e-6, 0.0], [math.nan, 0.0], [math.inf, 0.0], [0.5, 0.0])
        for shift in range(len(kinds)):
            rows = [good] * 4
            for j, i in enumerate(bad_rows):
                rows[i] = kinds[(shift + j) % len(kinds)]
            first = rows[min(bad_rows)]
            with pytest.raises(ValueError) as want:
                PureState(QUBIT, first)
            with pytest.raises(ValueError) as got:
                StateStack(QUBIT, rows)
            assert str(got.value) == str(want.value)
        kinds = ([0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 0.0])
        for shift in range(len(kinds)):
            rows = [good] * 4
            for j, i in enumerate(bad_rows):
                rows[i] = kinds[(shift + j) % len(kinds)]
            first = rows[min(bad_rows)]
            with pytest.raises(ValueError) as want:
                PureState.normalized(QUBIT, first)
            with pytest.raises(ValueError) as got:
                normalized_states(QUBIT, rows)
            assert str(got.value) == str(want.value)

    def test_rejects_a_wrong_shape(self):
        for rows in ([1.0, 0.0], [[1.0, 0.0, 0.0]], np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match="does not match total_dim 2"):
                StateStack(QUBIT, rows)


class TestTensorProduct:
    def test_basis_case(self):
        out = tensor_product(KET0, KET1)
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)
        assert out.space.dims == (2, 2)

    def test_dimension_one_factor_is_unconstructible(self):
        with pytest.raises(ValueError):
            FactorSpace((1,))

    def test_norm_preserved_on_random_states(self):
        rng = RandomStream(7)
        for trial in range(50):
            a = random_pure_state(FactorSpace((3,)), rng)
            b = random_pure_state(TWO_QUBITS, rng)
            joint = tensor_product(a, b)
            assert abs(np.linalg.norm(joint.amplitudes) - 1.0) < 1e-12


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        rho = partial_trace(BELL, (0,))
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_reduces_to_projector(self):
        state = tensor_product(KET0, KET1)
        rho = partial_trace(state, (0,))
        np.testing.assert_allclose(rho.entries, KET0.density(), atol=1e-12)

    def test_matches_index_summation_oracle(self):
        space = FactorSpace((2, 3))
        rng = RandomStream(11)
        for trial in range(20):
            state = random_pure_state(space, rng)
            got = partial_trace(state, (0,)).entries
            want = naive_partial_trace(state.amplitudes, space.dims, (0,))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_oracle_agreement_on_larger_spaces_and_density_input(self):
        rng = RandomStream(12)
        for dims, keep in [((2, 2, 2), (1,)), ((2, 3, 2), (0, 2)), ((4, 2), (1,))]:
            space = FactorSpace(dims)
            state = random_pure_state(space, rng)
            want = naive_partial_trace(state.amplitudes, dims, keep)
            np.testing.assert_allclose(partial_trace(state, keep).entries, want, atol=1e-12)
            dm = DensityMatrix.from_pure(state)
            np.testing.assert_allclose(
                partial_trace(dm, keep, space=space).entries, want, atol=1e-12
            )

    def test_rejects_empty_and_full_subsets(self):
        with pytest.raises(ValueError):
            partial_trace(BELL, ())
        with pytest.raises(ValueError):
            partial_trace(BELL, (0, 1))
        with pytest.raises(ValueError):
            partial_trace(StateStack.of([BELL, BELL]), (0, 1))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 4)])
    def test_a_stack_gives_each_state_s_entries(self, dims):
        space = FactorSpace(dims)
        states = random_pure_states((space,), RandomStream(14), 7)
        for r in range(1, len(dims)):
            for keep in itertools.combinations(range(len(dims)), r):
                rhos = partial_trace(states, keep)
                d = math.prod(dims[i] for i in keep)
                assert rhos.shape == (7, d, d)
                for rho, psi in zip(rhos, states):
                    assert rho.tobytes() == partial_trace(psi, keep).entries.tobytes()
                assert reduced_densities(states, keep).tobytes() == rhos.tobytes()

    def test_output_satisfies_density_invariants_bulk(self):
        rng = RandomStream(13)
        spaces = [FactorSpace(d) for d in [(2, 2), (2, 3), (4, 2, 2), (2, 2, 2, 2), (4, 4)]]
        for trial in range(1000):
            space = spaces[trial % len(spaces)]
            state = random_pure_state(space, rng.derive(trial))
            keep = (trial % space.n_factors,)
            rho = partial_trace(state, keep)  # DensityMatrix constructor validates
            assert rho.dim == space.dims[keep[0]]


class TestSubsetPlans:
    """Subset and bipartition plans are kept per (dims, subset) for an int or a
    tuple; every spelling of one index set gives the same bytes, and a bad
    one raises its message on every call."""

    SPACE = FactorSpace((2, 3, 2))

    @pytest.mark.parametrize("spellings", [
        (1, (1,), [1], np.int64(1), (np.int64(1),), True),
        ((0, 2), (2, 0), [2, 0], (np.int64(2), 0), range(0, 3, 2)),
    ])
    def test_every_spelling_gives_identical_matrices(self, spellings):
        state = random_pure_state(self.SPACE, RandomStream(21))
        stack = random_pure_states((self.SPACE,), RandomStream(22), 5)
        got = [(partial_trace(state, keep).entries.tobytes(),
                reduced_density(state, keep).entries.tobytes(),
                reduced_densities(stack, keep).tobytes()) for keep in spellings]
        assert all(g == got[0] for g in got)
        want = naive_partial_trace(state.amplitudes, self.SPACE.dims, qcore._subset_plan(
            self.SPACE, spellings[0]).keep)
        np.testing.assert_allclose(partial_trace(state, spellings[0]).entries, want, atol=1e-12)

    def test_pure_partial_trace_equals_the_stacked_row(self):
        # before the plans were kept, partial_trace of a state was reduced_densities' one row
        rng = RandomStream(23)
        for dims in [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2)]:
            space = FactorSpace(dims)
            state = random_pure_state(space, rng)
            for size in range(1, len(dims)):
                for keep in itertools.combinations(range(len(dims)), size):
                    assert (partial_trace(state, keep).entries.tobytes()
                            == reduced_densities(state, keep)[0].tobytes())

    def test_kept_plan_equals_a_fresh_one(self):
        for dims in [(2,), (2, 3), (3, 2, 4)]:
            space = FactorSpace(dims)
            for size in range(1, len(dims) + 1):
                for keep in itertools.permutations(range(len(dims)), size):
                    plan = qcore._subset_plan(space, keep)
                    assert plan == qcore._build_plan(dims, list(keep))
                    assert qcore._subset_plan(space, keep) is plan

    @pytest.mark.parametrize("keep,message", [
        ((), "subsystem index set must be nonempty"),
        ([], "subsystem index set must be nonempty"),
        ((1, 1), r"duplicate subsystem indices in \(1, 1\)"),
        ([0, 0], r"duplicate subsystem indices in \(0, 0\)"),
        ((3,), r"subsystem indices \(3,\) out of range for 3 factors"),
        (-1, r"subsystem indices \(-1,\) out of range for 3 factors"),
        ((0, 1, 2), "a bipartition needs a proper subset"),
    ])
    def test_a_bad_subset_raises_its_message_every_time(self, keep, message):
        state = random_pure_state(self.SPACE, RandomStream(24))
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                partial_trace(state, keep)
            if keep != (0, 1, 2):  # every factor kept is a valid reduced density
                with pytest.raises(ValueError, match=message):
                    reduced_density(state, keep)
                with pytest.raises(ValueError, match=message):
                    reduced_densities(state, keep)

    def test_an_iterator_is_consumed_by_each_call(self):
        # an iterator is never a key: a second look at a spent one sees it empty
        state = random_pure_state(self.SPACE, RandomStream(25))
        keep = iter((0,))
        partial_trace(state, keep)
        with pytest.raises(ValueError, match="must be nonempty"):
            partial_trace(state, keep)

    def test_reduced_density_looks_its_plan_up_once(self, monkeypatch):
        calls = []
        cached = qcore._cached_plan

        def spy(dims, subset):
            calls.append(subset)
            return cached(dims, subset)

        monkeypatch.setattr(qcore, "_cached_plan", spy)
        state = random_pure_state(self.SPACE, RandomStream(27))
        for keep in ((2, 0), (0, 1, 2)):
            calls.clear()
            reduced_density(state, keep)
            assert calls == [keep]

    def test_unhashable_entries_are_built_each_time(self):
        state = random_pure_state(self.SPACE, RandomStream(26))
        keep = (np.array(0),)
        assert (partial_trace(state, keep).entries.tobytes()
                == partial_trace(state, (0,)).entries.tobytes())


class TestSchmidt:
    def test_bell_state(self):
        dec = schmidt_decompose(BELL, (0,))
        assert dec.rank == 2
        np.testing.assert_allclose(dec.weights, [0.5, 0.5], atol=1e-12)

    def test_product_state(self):
        dec = schmidt_decompose(tensor_product(PLUS, KET1), (0,))
        assert dec.rank == 1
        assert dec.weights[0] == pytest.approx(1.0)

    def test_asymmetric_weights_by_construction(self):
        amps = np.zeros(4)
        amps[0] = math.sqrt(0.36)
        amps[3] = math.sqrt(0.64)
        state = PureState(TWO_QUBITS, amps)
        dec = schmidt_decompose(state, (0,))
        np.testing.assert_allclose(dec.weights, [0.64, 0.36], atol=1e-12)

    @pytest.mark.parametrize("dims,cut", [((2, 2), (0,)), ((2, 3), (1,)), ((3, 2), (0,)),
                                          ((2, 2, 3), (0, 1)), ((4, 4), (0,)),
                                          ((2, 3, 2), (2, 0))])
    def test_equals_per_vector_oracle(self, dims, cut):
        space = FactorSpace(dims)
        rng = RandomStream(53)
        lead = FactorSpace(tuple(dims[i] for i in sorted(cut)))
        states = [random_pure_state(space, rng) for _ in range(10)]
        # rank-deficient ones too: a product state across the cut, reordered
        product = tensor_product(random_pure_state(lead, rng), random_pure_state(
            FactorSpace(tuple(d for i, d in enumerate(dims) if i not in cut)), rng))
        order = np.argsort(tuple(sorted(cut)) + space.complement(cut))
        states.append(PureState(space, np.transpose(
            product.amplitudes.reshape(product.space.dims), order).reshape(-1)))
        for state in states:
            dec = schmidt_decompose(state, cut)
            weights, lefts, rights = oracles.schmidt_terms(state, cut)
            assert list(dec.weights) == weights
            assert [psi.amplitudes.tobytes() for psi in dec.left_states] == lefts
            assert [psi.amplitudes.tobytes() for psi in dec.right_states] == rights
        assert schmidt_decompose(states[-1], cut).rank == 1

    def test_weights_match_reduced_spectrum_and_reconstruction(self):
        rng = RandomStream(17)
        for dims, cut in [((2, 2), (0,)), ((2, 3), (1,)), ((2, 2, 3), (0, 1))]:
            space = FactorSpace(dims)
            state = random_pure_state(space, rng)
            dec = schmidt_decompose(state, cut)
            # weights equal reduced density matrix eigenvalues (both sorted)
            eigs = np.sort(partial_trace(state, cut).eigenvalues())[::-1]
            np.testing.assert_allclose(dec.weights, eigs[: dec.rank], atol=1e-9)
            assert abs(sum(dec.weights) - 1.0) < 1e-9
            # orthonormal Schmidt vectors on both sides
            for states in (dec.left_states, dec.right_states):
                gram = np.array([[a.overlap(b) for b in states] for a in states])
                np.testing.assert_allclose(gram, np.eye(dec.rank), atol=1e-8)
            # reconstruction, exact up to global phase
            rebuilt = np.zeros(space.total_dim, dtype=complex)
            for w, left, right in zip(dec.weights, dec.left_states, dec.right_states):
                rebuilt += math.sqrt(w) * tensor_product_order(
                    left.amplitudes, right.amplitudes, dims, cut
                )
            phase = np.vdot(rebuilt, state.amplitudes)
            phase /= abs(phase)
            np.testing.assert_allclose(rebuilt * phase, state.amplitudes, atol=1e-8)


def tensor_product_order(left, right, dims, cut):
    """Recombine Schmidt factors back into the original factor order."""
    cut = tuple(sorted(cut))
    rest = tuple(i for i in range(len(dims)) if i not in cut)
    joint = np.kron(left, right).reshape([dims[i] for i in cut + rest])
    return np.transpose(joint, np.argsort(cut + rest)).reshape(-1)


class TestBornProbabilities:
    def test_plus_state_in_z_basis(self):
        povm = POVMSet((KET0.density(), KET1.density()))
        probs = born_probabilities(DensityMatrix.from_pure(PLUS), povm)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_identity_povm(self):
        povm = POVMSet((np.eye(2),))
        probs = born_probabilities(DensityMatrix.maximally_mixed(2), povm)
        np.testing.assert_allclose(probs, [1.0], atol=1e-12)

    def test_matches_trace_oracle(self):
        rng = RandomStream(23)
        for trial in range(20):
            rho = random_density_matrix(3, rng)
            u = random_unitary(3, rng)
            elements = tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(3))
            povm = POVMSet(elements)
            got = born_probabilities(rho, povm)
            np.testing.assert_allclose(got, trace_probabilities(rho.entries, elements),
                                       atol=1e-12)

    def test_sums_to_one_for_random_povms(self):
        rng = RandomStream(29)
        for trial in range(200):
            rho = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng).entries * 0.8
            povm = POVMSet((b, np.eye(4) - b))
            assert abs(born_probabilities(rho, povm).sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        povm = POVMSet((np.eye(2),))
        with pytest.raises(ValueError):
            born_probabilities(DensityMatrix.maximally_mixed(3), povm)

    @pytest.mark.parametrize("dim,k", [(2, 2), (3, 3), (4, 9), (8, 12)])
    def test_rows_equal_the_one_density_body(self, dim, k):
        """Each row of the stacked form equals the original one-density
        body bit for bit, and the one-density call is its one-row case."""
        rng = RandomStream(31 + dim)
        rhos = [random_density_matrix(dim, rng) for _ in range(6)]
        b = 0.8 * random_density_matrix(dim, rng).entries
        weights = rng.generator.dirichlet(np.ones(k - 1))
        povm = POVMSet((b,) + tuple(w * (np.eye(dim) - b) for w in weights))
        got = qcore.born_probability_rows(np.array([rho.entries for rho in rhos]), povm)
        assert got.shape == (6, k)
        for row, rho in zip(got, rhos):
            assert row.tobytes() == oracles.born_probabilities(rho, povm).tobytes()
            assert row.tobytes() == born_probabilities(rho, povm).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_a_non_finite_row_raises(self, bad, entry):
        # a NaN in the probabilities passes a min check and a "> atol" sum check;
        # an inf entry is rejected before the matmul's 0 * inf can warn
        povm = POVMSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        rhos = np.array([np.eye(2), np.eye(2)], dtype=complex) / 2
        rhos[1][entry] = bad
        with pytest.raises(ValueError, match="^Born probabilities do not sum to 1"):
            qcore.born_probability_rows(rhos, povm)

    def test_clamp_gives_zero_the_sign_clip_gave(self, monkeypatch):
        raw = np.array([[1.0, -0.0], [-0.0, 1.0], [1.0 + 1e-13, -1e-13], [0.5, 0.5]])
        monkeypatch.setattr(qcore, "_traced_products", lambda operators, rhos: raw.copy())
        povm = POVMSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        got = qcore.born_probability_rows(np.zeros((4, 2, 2), dtype=complex), povm)
        assert got.tobytes() == np.clip(raw, 0.0, None).tobytes()
        assert not np.signbit(got).any()

    def test_rows_raise_the_one_density_messages(self):
        povm = POVMSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        good = DensityMatrix.maximally_mixed(2).entries
        for bad, message in ((np.diag([1.5, -0.5]), "below tolerance"),
                             (np.diag([0.7, 0.7]), "do not sum to 1")):
            with pytest.raises(ValueError, match=message):
                qcore.born_probability_rows(np.array([good, bad, good]), povm)
        with pytest.raises(ValueError, match="POVM dimension 2 does not match state "
                                             "dimension 3"):
            qcore.born_probability_rows(np.zeros((0, 3, 3)), povm)


class TestQuadraticForms:
    """One kernel for every <v|M|v>: each broadcast pair equals
    np.vdot(v, M @ v) of the pair alone, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    def test_every_shape_equals_the_per_pair_loop(self, dim):
        rng = RandomStream(37 + dim)
        matrices = np.array([random_density_matrix(dim, rng).entries for _ in range(5)])
        vectors = np.array([random_pure_state(FactorSpace((dim,)), rng).amplitudes
                            for _ in range(7)])
        for m, v, shape in ((matrices, vectors[0], (5,)),  # a stack against one vector
                            (matrices[:, None], vectors, (5, 7)),  # against a stack
                            (matrices[0], vectors, (7,))):  # one matrix against a stack
            got = qcore.quadratic_forms(m, v)
            assert got.shape == shape
            assert got.tobytes() == oracles.quadratic_forms(m, v).tobytes()

    def test_strided_inputs_equal_the_per_pair_loop(self):
        rng = RandomStream(43)
        wide = rng.complex_normal(6 * 8 * 8).reshape(6, 8, 8)
        matrices = wide[::2, 1::2, ::2].swapaxes(-1, -2)  # (3, 4, 4), no unit stride
        vectors = rng.complex_normal(5 * 12).reshape(5, 12)[:, ::3]  # (5, 4)
        for m, v in ((matrices, vectors[2]), (matrices[:, None], vectors),
                     (matrices[1], vectors)):
            assert (qcore.quadratic_forms(m, v).tobytes()
                    == oracles.quadratic_forms(m, v).tobytes())


class TestMeasureProjective:
    def test_bell_schmidt_basis_outcomes(self):
        z_second = HermitianObservable(PAULI_Z)
        seen = set()
        for trial in range(200):
            idx, post = measure_projective(BELL, z_second, (1,), RandomStream(1000 + trial))
            # cluster 0 is eigenvalue -1 (|1>), cluster 1 is eigenvalue +1 (|0>)
            target = (0, 0) if idx == 1 else (1, 1)
            expected = PureState.basis_state(TWO_QUBITS, target)
            assert post.equals_up_to_phase(expected, atol=1e-10)
            seen.add(idx)
        assert seen == {0, 1}

    def test_eigenstate_is_fixed_point(self):
        obs = HermitianObservable(PAULI_Z)
        idx, post = measure_projective(KET0, obs, (0,), RandomStream(5))
        assert obs.eigenvalues[idx] == pytest.approx(1.0)
        assert post.equals_up_to_phase(KET0, atol=1e-12)

    def test_binomial_concentration_on_plus_state(self):
        obs = HermitianObservable(PAULI_Z)
        rng = RandomStream(31)
        hits = sum(
            measure_projective(PLUS, obs, (0,), rng)[0] == 1 for _ in range(10_000)
        )
        # 4 sigma band around p = 0.5 at N = 1e4
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_zero_probability_branch_never_selected(self):
        obs = HermitianObservable(PAULI_Z)
        for trial in range(100):
            idx, _ = measure_projective(KET1, obs, (0,), RandomStream(trial))
            assert obs.eigenvalues[idx] == pytest.approx(-1.0)


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density_matrix(3, RandomStream(37))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        assert fidelity(DensityMatrix.from_pure(KET0), DensityMatrix.from_pure(KET1)) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_pure_state_overlap_formula(self):
        got = fidelity(DensityMatrix.from_pure(KET0), DensityMatrix.from_pure(PLUS))
        assert got == pytest.approx(abs(np.vdot(KET0.amplitudes, PLUS.amplitudes)) ** 2,
                                    abs=1e-10)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_symmetry(self):
        rng = RandomStream(41)
        for trial in range(20):
            rho, sigma = random_density_matrix(3, rng), random_density_matrix(3, rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_equals_one_pair_oracle(self, d):
        """fidelities of pure and mixed pairs, rank 1 to d, equals the old
        per-pair body exactly."""
        rng = RandomStream(43, d)
        space = FactorSpace((d,))
        rhos, sigmas = [], []
        for t, child in enumerate(rng.derive_many(range(24))):
            pure = DensityMatrix.from_pure(random_pure_state(space, child)).entries
            mixed = random_density_matrix(d, child, rank=1 + t % d).entries
            rhos += [pure, mixed, pure, mixed]
            sigmas += [mixed, pure, pure, mixed]
        got = fidelities(np.array(rhos), np.array(sigmas))
        want = [oracles.fidelity(a, b) for a, b in zip(rhos, sigmas)]
        assert got.tolist() == want
        assert [fidelity(DensityMatrix(a), DensityMatrix(b))
                for a, b in zip(rhos, sigmas)] == want

    def test_rejects_unequal_dimensions(self):
        with pytest.raises(ValueError, match="equal dimension"):
            fidelity(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3))


class TestDensityStack:
    """require_density checks every row of a stack with DensityMatrix's code."""

    BAD = {
        "non-Hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
        "wrong trace": np.diag([0.6, 0.6]),
        "negative": np.diag([1.5, -0.5]),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("row", [0, 2])
    def test_bad_row_raises_the_density_matrix_message(self, kind, row):
        stack = np.array([DensityMatrix.maximally_mixed(2).entries,
                          DensityMatrix.from_pure(PLUS).entries,
                          DensityMatrix.from_pure(KET1).entries])
        stack[row] = self.BAD[kind]
        with pytest.raises(ValueError) as alone:
            DensityMatrix(self.BAD[kind])
        with pytest.raises(ValueError) as stacked:
            require_density(stack)
        assert str(stacked.value) == str(alone.value)

    def test_valid_stack_gives_each_rows_eigenvalues(self):
        rhos = [random_density_matrix(3, child)
                for child in RandomStream(3).derive_many(range(5))]
        vals = require_density(np.array([rho.entries for rho in rhos]))
        assert vals.tobytes() == np.array([rho.eigenvalues() for rho in rhos]).tobytes()


class TestQuantize:
    def test_basic_arithmetic(self):
        assert quantize(0.3, 2) == pytest.approx(0.25)

    def test_exact_multiple_is_fixed_point(self):
        assert quantize(0.5, 1) == 0.5

    def test_tie_rounds_to_even_multiple(self):
        assert quantize(0.375, 2) == 0.5
        assert quantize(0.125, 2) == 0.0

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValueError):
            quantize(0.3, 0)

    def test_array_equals_scalar_oracle_at_ties(self):
        """Ties k/2^m + 2^-(m+1) round to the even multiple, and a small
        negative rounds to +0.0, as Python's round gives."""
        for m in range(1, 9):
            ties = (np.arange(-40, 40) + 0.5) * 2.0 ** -m
            xs = np.concatenate([ties, -ties / 2 ** m, [0.0, -0.0, 0.3, -1e-300]])
            got = quantize(xs, m)
            want = [oracles.quantize(x, m) for x in xs.tolist()]
            assert got.tobytes() == np.array(want).tobytes()
            assert [quantize(x, m) for x in xs.tolist()] == want
        assert type(quantize(0.3, 2)) is float

    @pytest.mark.parametrize("x,m", [(1e308, 4), (-1e308, 1), (0.3, 2000), (-0.3, 1100),
                                     (2.0 ** 1020, 4), (5e-324, 2000), (np.nextafter(1.0, 2.0), 1075)])
    def test_overflowing_scale_returns_x_unchanged(self, x, m):
        """Where x * 2^m overflows, x is already a multiple of 2^-m; an
        overflow warning would be an error here."""
        assert quantize(x, m) == x
        got = quantize(np.array([x, 0.3, np.inf, -np.inf]), m)
        assert got[0] == x and np.isinf(got[2:]).all()
        assert got[1] == (0.3 if m >= 1074 else oracles.quantize(0.3, m))

    @given(st.floats(min_value=-64.0, max_value=64.0), st.integers(min_value=1, max_value=20))
    def test_idempotent(self, x, m):
        once = quantize(x, m)
        assert quantize(once, m) == once

    @given(st.floats(min_value=-64.0, max_value=64.0), st.integers(min_value=1, max_value=20))
    def test_within_half_cell(self, x, m):
        assert abs(quantize(x, m) - x) <= 2.0 ** (-m) / 2 + 1e-15


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(DensityMatrix.from_pure(PLUS)) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_qubit_is_one_bit(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(1.0)

    def test_matches_scalar_formula_oracle(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert von_neumann_entropy(rho) == pytest.approx(shannon_bits([0.25, 0.75]), abs=1e-10)

    def test_renyi_pure_state_zero_for_any_alpha(self):
        rho = DensityMatrix.from_pure(random_pure_state(FactorSpace((3,)), RandomStream(43)))
        for alpha in (0.0, 0.5, 2.0, 5.0):
            assert renyi_entropy(rho, alpha) == pytest.approx(0.0, abs=1e-9)

    def test_renyi_two_mixed_qubit(self):
        assert renyi_entropy(DensityMatrix.maximally_mixed(2), 2.0) == pytest.approx(1.0)

    def test_renyi_matches_scalar_oracle(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        want = renyi_bits([0.25, 0.75], 2.0)
        assert renyi_entropy(rho, 2.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-math.log2(0.625), abs=1e-12)

    def test_renyi_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            renyi_entropy(DensityMatrix.maximally_mixed(2), 1.0)

    @pytest.mark.parametrize("alpha", [-0.5, math.nan])
    def test_entropy_rejects_negative_or_nan_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            entropy(DensityMatrix.maximally_mixed(2), alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 1.0 - 1e-10, 1.0 + 1e-10])
    def test_stack_equals_filtered_rows(self, alpha):
        """spectrum_entropies equals spectrum_entropy and the old filtering
        body row by row, with eigenvalues at, below and above the floor in
        rows of 2 to 12, so rows of 8 or more drop some of theirs."""
        rng = np.random.default_rng(7)
        floor = qcore.EIGENVALUE_FLOOR
        for d in range(2, 13):
            vals = rng.dirichlet(np.ones(d), size=40)
            low = rng.random((40, d)) < 0.4
            vals[low] = rng.choice([floor, floor / 2, 0.0, -1e-15, 2 * floor], size=low.sum())
            vals[:, -1] += 1e-3  # every row keeps at least one
            got = spectrum_entropies(vals, alpha)
            assert got.tolist() == [spectrum_entropy(row, alpha) for row in vals]
            assert got.tolist() == [oracles.spectrum_entropy(row, alpha) for row in vals]

    def test_entropy_dispatcher_continuity_at_alpha_one(self):
        rng = RandomStream(47)
        for trial in range(10):
            rho = random_density_matrix(3, rng)
            vn = von_neumann_entropy(rho)
            for alpha in (1.0 - 1e-5, 1.0 + 1e-5):
                assert abs(renyi_entropy(rho, alpha) - vn) < 1e-4
            assert entropy(rho, 1.0) == vn

    def test_renyi_monotone_nonincreasing_in_alpha(self):
        rng = RandomStream(53)
        alphas = (0.5, 2.0, 3.0, 5.0)
        for trial in range(200):
            rho = random_density_matrix(3, rng)
            values = [renyi_entropy(rho, a) for a in alphas]
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo + 1e-9

    def test_entropy_bounds(self):
        rng = RandomStream(59)
        for trial in range(200):
            dim = 2 + trial % 3
            rho = random_density_matrix(dim, rng)
            for value in (von_neumann_entropy(rho), renyi_entropy(rho, 2.0)):
                assert -1e-12 <= value <= math.log2(dim) + 1e-9

    def test_unitary_invariance(self):
        rng = RandomStream(61)
        for trial in range(100):
            rho = random_density_matrix(4, rng)
            u = random_unitary(4, rng)
            conj = DensityMatrix(u @ rho.entries @ u.conj().T)
            assert abs(von_neumann_entropy(conj) - von_neumann_entropy(rho)) < 1e-8
            assert abs(renyi_entropy(conj, 2.0) - renyi_entropy(rho, 2.0)) < 1e-8


class TestRandomStream:
    def test_identical_keys_reproduce_sequences(self):
        a = RandomStream(1234, experiment=3, trial=9)
        b = RandomStream(1234, experiment=3, trial=9)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_distinct_trials_decorrelate(self):
        a = RandomStream(1234, trial=0)
        b = RandomStream(1234, trial=1)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_choose_matches_inverse_cdf(self):
        rng = RandomStream(67)
        counts = np.zeros(3)
        for _ in range(9000):
            counts[rng.choose([0.2, 0.3, 0.5])] += 1
        np.testing.assert_allclose(counts / 9000, [0.2, 0.3, 0.5], atol=0.02)

    def test_choose_skips_floored_entries(self):
        rng = RandomStream(71)
        for _ in range(200):
            assert rng.choose([0.5, 1e-13, 0.5]) in (0, 2)

    @settings(max_examples=300, deadline=None)
    @given(probabilities=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1e-13, qcore.SELECTION_FLOOR, 0.25, 0.5, 1.0]),
                  st.floats(-1e-12, 1.0), st.integers(0, 2)),
        min_size=1, max_size=8),
        seed=st.integers(0, 2**64 - 1))
    def test_choose_equals_the_numpy_inverse_cdf(self, probabilities, seed):
        """Floored entries, zeros and ties pick the index the numpy body picks
        on the same stream, or raise its message, and leave the stream where
        it leaves it."""
        got, want = RandomStream(seed), RandomStream(seed)
        for _ in range(3):
            try:
                index = oracles.choose(want, probabilities)
            except ValueError as err:
                with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                    got.choose(probabilities)
                break
            assert got.choose(probabilities) == index
        assert got.uniform() == want.uniform()

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.5, 1.0 - 2**-53, 1.0])
    @pytest.mark.parametrize("probabilities", [
        [0.1, 0.2], [0.1, 0.2, 0.0, 1e-13], [1e-13, 0.7, 0.3], [0.5, 0.5], [1.0],
        [0.1] * 10, [1 / 3, 1 / 3, 1 / 3, 0.0]])
    def test_choose_equals_the_numpy_inverse_cdf_at_fixed_uniforms(self, u, probabilities):
        # a stream's uniforms lie in [0, 1); u = 1.0 reaches the last-nonzero
        # rule, which never picks a trailing floored entry

        class Fixed(RandomStream):
            def uniform(self):
                return u

        assert Fixed(0).choose(probabilities) == oracles.choose(Fixed(0), probabilities)

    @pytest.mark.parametrize("probabilities", [
        [math.nan, 0.5], [0.5, math.nan], [math.inf, 1.0], [0.5, -math.inf], [math.nan]])
    def test_choose_rejects_a_non_finite_probability(self, probabilities):
        # the numpy body returned 1 for the first three
        rng = RandomStream(72)
        with pytest.raises(ValueError, match="^probabilities must be finite$"):
            rng.choose(probabilities)
        assert rng.uniform() == RandomStream(72).uniform()  # no draw was made

    def test_unitary_is_unitary(self):
        u = random_unitary(4, RandomStream(73))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_unitary_stack_equals_draws_in_turn(self, dim):
        stacked, single, oracle = (RandomStream(79, dim) for _ in range(3))
        got = random_unitaries(dim, stacked, 10)
        assert got.shape == (10, dim, dim)
        for want in ([random_unitary(dim, single) for _ in range(10)],
                     [oracles.random_unitary(dim, oracle) for _ in range(10)]):
            assert got.tobytes() == b"".join(u.tobytes() for u in want)
        assert stacked.normal(3).tolist() == single.normal(3).tolist() \
            == oracle.normal(3).tolist()


def assert_same_stream(a, b):
    """Same key, same PCG64 state words, same first draws of each kind."""
    assert (a.seed, a.experiment, a.trial) == (b.seed, b.experiment, b.trial)
    assert a.generator.bit_generator.state == b.generator.bit_generator.state
    assert a.normal(4).tolist() == b.normal(4).tolist()
    assert a.uniform() == b.uniform()
    assert a.generator.dirichlet(np.ones(3)).tolist() == \
        b.generator.dirichlet(np.ones(3)).tolist()


def _ranges():
    """Trial ranges on both sides of the 2^32 word boundary, in either
    direction; none holds a negative trial."""
    edge = st.integers(min_value=2**32 - 8, max_value=2**32 + 8)
    low = st.integers(min_value=40, max_value=10_000)
    return st.one_of(
        st.just(range(2**32 - 2, 2**32 + 2)),
        st.builds(range, st.integers(0, 6)),
        st.builds(lambda start, n, step: range(start, start + n * step, step),
                  st.one_of(edge, low), st.integers(0, 6),
                  st.sampled_from([1, 2, 3, -1, -3])),
    )


class TestDeriveMany:
    """``derive_many`` equals the per-trial loop of RandomStream constructions,
    whose SeedSequence is numpy's own."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                          st.integers(min_value=0, max_value=2**64 - 1),
                          st.integers(min_value=-2**70, max_value=2**70)),
           experiment=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**33]),
                                st.integers(min_value=0, max_value=2**70)),
           trials=_ranges())
    def test_equals_per_trial_loop(self, seed, experiment, trials):
        streams = list(RandomStream(seed, experiment).derive_many(trials))
        oracle = derived_streams(seed, experiment, trials)
        assert len(streams) == len(oracle) == len(trials)
        for stream, want in zip(streams, oracle):
            assert_same_stream(stream, want)

    @pytest.mark.parametrize("trials", [
        range(0), range(5, 5), range(1), range(7, 19), range(0, 5000),
        range(2**32 - 2, 2**32 + 2), range(2**32 + 3, 2**32 - 4, -1), range(0, 2**64, 2**63),
    ])
    def test_edge_ranges(self, trials):
        rng = RandomStream(0x5EED, 10)
        streams = list(rng.derive_many(trials))
        assert len(streams) == len(trials)
        for stream, t in zip(streams, trials):
            assert_same_stream(stream, rng.derive(t))

    def test_blocks_join_seamlessly(self, monkeypatch):
        monkeypatch.setattr(_seedwords, "BLOCK", 3)
        # past 2^32 every trial goes through derive; in bounds, blocks of 3
        for trials in (range(2**32 - 7, 2**32 + 2, 1), range(2**32 - 10, 2**32)):
            for stream, want in zip(RandomStream(9, 2).derive_many(trials),
                                    derived_streams(9, 2, trials), strict=True):
                assert_same_stream(stream, want)

    @pytest.mark.parametrize("trials,vectorised", [
        (range(0, 5), True), (range(2**32 - 3, 2**32), True), (range(4, -1, -2), True),
        (range(2**32 - 1, -1, -2**31), True), (range(0), True),
        (range(2**32 - 2, 2**32 + 1), False), (range(2**32 + 2, 2**32 - 2, -1), False),
        (range(2**32, 2**32 + 3), False), (range(0, 2**64, 2**63), False),
        (range(3, -2, -1), False),
    ])
    def test_whole_range_is_vectorised_only_inside_one_word(self, monkeypatch, trials,
                                                            vectorised):
        # both ends in [0, 2^32): every trial's words come from seed_words;
        # else none does.  Either way the first (up to) four streams are derive's.
        seen = []
        seed_words = _seedwords.seed_words

        def spy(seed, experiment, block):
            seen.extend(block)
            return seed_words(seed, experiment, block)

        monkeypatch.setattr(_seedwords, "seed_words", spy)
        rng = RandomStream(8, 1)
        for t, stream in zip(trials[:4], rng.derive_many(trials)):
            assert_same_stream(stream, rng.derive(t))
        assert seen == (list(trials) if vectorised else [])

    def test_negative_trial_fails_as_derive_does_when_reached(self):
        rng = RandomStream(3)
        with pytest.raises(ValueError) as want:
            [rng.derive(t) for t in range(2, -2, -1)]
        streams = rng.derive_many(range(2, -2, -1))  # lazy: nothing built yet
        assert [s.trial for s in itertools.islice(streams, 3)] == [2, 1, 0]
        with pytest.raises(ValueError) as got:
            next(streams)
        assert str(got.value) == str(want.value)

    def test_streams_pickle_as_derive_streams_do(self):
        stream = next(RandomStream(6, 2).derive_many(range(5, 6)))
        stream.normal(3)
        copy = pickle.loads(pickle.dumps(stream))
        assert_same_stream(copy, stream)

    @pytest.mark.parametrize("trials", [
        range(0), range(7), range(5, 40, 3), range(4, -1, -2), range(2**32 - 3, 2**32),
        range(2**32 - 2, 2**32 + 2), range(2**32 + 2, 2**32 - 2, -1), range(0, 2**64, 2**63),
    ])
    def test_bare_generators_equal_derive(self, trials):
        rng = RandomStream(0x5EED, 10)
        generators = [s.generator for s in rng.derive_many(trials)]
        assert len(generators) == len(trials)
        for gen, t in zip(generators, trials):
            want = rng.derive(t).generator
            assert gen.bit_generator.state == want.bit_generator.state
            assert gen.standard_normal(6).tolist() == want.standard_normal(6).tolist()

    def test_streams_are_made_one_at_a_time(self):
        streams = RandomStream(4).derive_many(range(10))
        first = next(streams)
        draws = first.normal(8)
        assert_same_stream(next(streams), RandomStream(4, trial=1))
        assert draws.tolist() == RandomStream(4, trial=0).normal(8).tolist()


_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's multiplier


def _raw_steps(stream, at_most):
    """How many raw outputs a stream has taken since it was seeded, found by
    stepping a fresh copy of its key; None if more than ``at_most``."""
    state = stream.generator.bit_generator.state
    fresh = RandomStream(stream.seed, stream.experiment, stream.trial).generator.bit_generator
    for steps in range(at_most + 1):
        if fresh.state == state:
            return steps
        fresh.random_raw()
    return None


def _fast_path_rows(seed, experiment, trials, k):
    """Whether each trial's first k raw outputs all pass numpy's ziggurat
    fast path by the committed tables."""
    raw = _seedwords.raw_outputs(_seedwords.seed_words(seed, experiment, trials), k)
    rabs = raw >> np.uint64(9) & np.uint64((1 << 52) - 1)
    return (rabs < _seedwords._KI9[(raw & np.uint64(0x1FF)).astype(np.intp)]).all(axis=1)


class TestNormalRows:
    """``RandomStream._normal_rows`` equals each trial's own stream, numpy's
    SeedSequence and generator, in every normal; the rows its ziggurat pass
    keeps are the rows whose stream took exactly k raw outputs."""

    @pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**64 - 1])
    @pytest.mark.parametrize("experiment", [0, 3, 2**40])
    @pytest.mark.parametrize("n", [0, 1, 2, 100])
    def test_rows_equal_each_trials_stream(self, seed, experiment, n):
        rng = RandomStream(seed, experiment)
        for k in range(2, 33):
            rows = rng._normal_rows(range(n), k)
            assert rows.shape == (n, k) and rows.dtype == np.float64
            assert rows.tobytes() == oracles.normal_rows(rng, range(n), k).tobytes()
            fast = _fast_path_rows(rng.seed, experiment, range(n), k)
            for row, stream, kept in zip(rows, derived_streams(seed, experiment, range(n)), fast):
                assert row.tobytes() == stream.normal(k).tobytes()
                steps = _raw_steps(stream, k)
                assert steps == k if kept else steps is None

    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_block_boundary(self, k):
        rng = RandomStream(0x5EED, 3)
        trials = range(_seedwords.BLOCK + 1)
        rows = rng._normal_rows(trials, k)
        want = [s.normal(k) for s in derived_streams(0x5EED, 3, trials)]
        assert rows.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("trials", [range(2**32 - 2, 2**32 + 2), range(5, -1, -1), range(7, 19)])
    def test_ranges_outside_one_word_are_drawn_by_derive(self, trials):
        rng = RandomStream(9, 2)
        want = [s.normal(8) for s in derived_streams(9, 2, trials)]
        assert rng._normal_rows(trials, 8).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("k", [2, 8, 17])
    def test_every_row_through_its_generator_gives_the_same_bytes(self, monkeypatch, k):
        rng = RandomStream(0x5EED, 10)
        want = rng._normal_rows(range(300), k)
        assert not _fast_path_rows(rng.seed, 10, range(300), k).all()  # some rows fall back
        monkeypatch.setattr(_seedwords, "_KI9", np.zeros_like(_seedwords._KI9))
        assert rng._normal_rows(range(300), k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 20, 100])
    @pytest.mark.parametrize("k", [1, 8, 16, 24])
    def test_raw_outputs_equal_random_raw(self, n, k):
        words = _seedwords.seed_words(2**64 - 1, 2**40, range(n))
        want = [np.random.PCG64(_seedwords.SeedWords(w)).random_raw(k) for w in words]
        assert _seedwords.raw_outputs(words, k).tobytes() == np.array(want).tobytes()

    def test_tables_are_the_installed_numpys(self):
        """Re-probe numpy's ziggurat at every box: set a PCG64 so that its
        next raw output is a chosen word, then draw one normal.  Below the
        box's ki the draw takes one output and is +-rabs * wi; at ki it takes
        more."""
        bit_gen = np.random.PCG64(0)
        gen = np.random.Generator(bit_gen)
        inverse = pow(_PCG_MULT, -1, 1 << 128)

        def draw(word):
            # with inc 1 the next state is the word itself, whose top six
            # bits are 0, so XSL-RR outputs it unrotated
            bit_gen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                             "state": {"state": (word - 1) * inverse % (1 << 128), "inc": 1}}
            x = gen.standard_normal()
            return x, bit_gen.state["state"]["state"] == word

        for box in range(256):
            ki = int(_seedwords._KI9[box])
            assert ki == int(_seedwords._KI9[box + 256]) and 0 <= ki < 2**52
            assert draw(ki << 9 | box)[1] is False
            if ki == 0:
                continue
            for sign in (0, 1):
                for rabs in {ki - 1, 1}:
                    x, one_output = draw(rabs << 9 | sign << 8 | box)
                    assert one_output
                    assert x == float(rabs) * _seedwords._WI9[sign << 8 | box]
                    assert x == (-1) ** sign * (float(rabs) * _seedwords._WI9[box])


class TestApplyUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            apply_unitary(KET0, np.array([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_unitary_without_a_warning(self, bad):
        # every warning is an error here, so an inf - inf in the product fails the test
        with pytest.raises(ValueError, match="^matrix is not unitary within tolerance$"):
            apply_unitary(KET0, np.array([[bad, 0], [0, 1]]))

    def test_local_application_matches_kron(self):
        rng = RandomStream(79)
        state = random_pure_state(TWO_QUBITS, rng)
        u = random_unitary(2, rng)
        local = apply_unitary(state, u, on=(1,))
        full = apply_unitary(state, np.kron(np.eye(2), u))
        assert local.equals_up_to_phase(full, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_rejects_a_non_square_matrix_by_name(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"unitary must be a nonempty square matrix, got shape {shape}")):
            apply_unitary(KET0, np.ones(shape))


class TestApplyOnFactors:
    """apply_on_factors reads its subset through the subset plan, and a stack
    of operators gives each operator's image, bit for bit."""

    @pytest.mark.parametrize("dims", [(2,), (2, 3), (3, 2, 2), (2, 2, 2, 2)])
    def test_a_stack_equals_one_call_per_operator(self, dims):
        gen = np.random.default_rng(len(dims))
        space = FactorSpace(dims)
        psi = random_pure_state(space, RandomStream(sum(dims)))
        for size in range(1, len(dims) + 1):
            for subset in itertools.combinations(range(len(dims)), size):
                d = math.prod(dims[i] for i in subset)
                ops = gen.standard_normal((3, d, d)) + 1j * gen.standard_normal((3, d, d))
                stacked = qcore.apply_on_factors(psi.amplitudes, dims, ops, subset)
                assert stacked.shape == (3, space.total_dim)
                for op, row in zip(ops, stacked):
                    one = qcore.apply_on_factors(psi.amplitudes, dims, op, subset)
                    assert one.tobytes() == row.tobytes()
                    assert one.tobytes() == oracles.apply_on_factors(
                        psi.amplitudes, dims, op, subset).tobytes()

    def test_the_subset_is_read_as_a_set(self):
        psi = random_pure_state(FactorSpace((2, 3)), RandomStream(81))
        op = random_unitary(6, RandomStream(82))
        assert (qcore.apply_on_factors(psi.amplitudes, (2, 3), op, (1, 0)).tobytes()
                == qcore.apply_on_factors(psi.amplitudes, (2, 3), op, (0, 1)).tobytes())

    @pytest.mark.parametrize("subset,message", [
        ((0, 0), r"duplicate subsystem indices in \(0, 0\)"),
        ((3,), r"subsystem indices \(3,\) out of range for 3 factors"),
        ((-1,), r"subsystem indices \(-1,\) out of range for 3 factors"),
        ((), "subsystem index set must be nonempty"),
    ])
    def test_a_bad_subset_raises_the_plan_message(self, subset, message):
        with pytest.raises(ValueError, match=message):
            qcore.apply_on_factors(np.eye(8)[0], (2, 2, 2), np.eye(2), subset)

    def test_measure_projective_equals_one_call_per_projector(self):
        rng = RandomStream(83)
        for dims, on in [((2, 2), (1,)), ((3, 2), 0), ((2, 3, 2), (2, 0)), ((2, 2, 2), (0, 1, 2))]:
            space = FactorSpace(dims)
            d = math.prod(dims[i] for i in np.atleast_1d(on))
            obs = HermitianObservable(np.diag(np.arange(d) % 2).astype(complex))  # degenerate
            for t in range(10):
                psi = random_pure_state(space, rng.derive(t))
                idx, post = measure_projective(psi, obs, on, RandomStream(84, trial=t))
                want_idx, want = oracles.measure_projective(psi, obs, on,
                                                            RandomStream(84, trial=t))
                assert idx == want_idx
                assert post.amplitudes.tobytes() == want.amplitudes.tobytes()


@pytest.mark.parametrize("rank,message", [
    (0, "rank must be at least 1, got 0"),
    (2.0, "rank must be an integer, got 2.0"),
    (True, "rank must be an integer, got True"),
])
def test_random_density_matrix_rejects_a_bad_rank_by_name(rank, message):
    with pytest.raises(ValueError, match=message):
        random_density_matrix(2, RandomStream(85), rank=rank)
