"""Device catalog behavior, trivial update, and sampling soundness."""

import math

import numpy as np
import pytest

from pqsim import devices, qcore
from pqsim.devices import (
    DEVICE_KINDS,
    Bit,
    DeviceSpec,
    DistributionTable,
    IntegerLabel,
    MatrixDescription,
    Overflow,
    ParameterError,
    RealValue,
    basis_select,
    basis_select_distribution,
    certify_distribution,
    eigenvalue_distribution,
    entanglement_analyse,
    entropy_certify,
    entropy_meter,
    expectation_readout,
    function_readout,
    outcomes_equal,
    overlap_distribution,
    overlap_test,
    povm_distribution,
    quantize_matrix,
    readout_density,
    reduced_density,
    sample_eigenvalue,
    sample_povm,
    sample_projection,
    sample_uncertainty,
    uncertainty_distribution,
)
from pqsim.qcore import (
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    apply_unitary,
    born_probabilities,
    povm_sets,
    random_pure_state,
    random_pure_states,
    random_unitary,
    tensor_product,
)

from .oracles import chisquare_pvalue, partial_inner_products

QUBIT = FactorSpace((2,))
TWO_QUBITS = FactorSpace((2, 2))
KET0 = PureState.basis_state(QUBIT, 0)
KET1 = PureState.basis_state(QUBIT, 1)
PLUS = PureState(QUBIT, np.array([1, 1]) / np.sqrt(2))
BELL = PureState(TWO_QUBITS, np.array([1, 0, 0, 1]) / np.sqrt(2))
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HADAMARD_ROWS = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
COMPUTATIONAL = POVMSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

# a valid value of every required device parameter, on a qubit target
REQUIRED_VALUES = {
    "observable": PAULI_Z, "povm": COMPUTATIONAL, "target_state": PLUS,
    "threshold": 0.5, "entropy_threshold": 0.5, "exponent": 2,
}

# every kind, with its optional parameters set where that changes its body
SPEC_CASES = [
    ("Readout", {"basis": HADAMARD_ROWS, "precision": 3}),
    ("FunctionReadout", {"exponent": 2, "precision": 4}),
    ("ExpectationReadout", {"observable": PAULI_Z, "precision": 2}),
    ("EigenvalueSampler", {"observable": PAULI_Z, "precision": 2}),
    ("EigenvalueSampler", {"observable": PAULI_Z, "variant": "finite", "max_label": 0,
                           "label_offset": -1}),
    ("UncertaintySampler", {"observable": PAULI_Z, "precision": 3}),
    ("PovmSampler", {"povm": COMPUTATIONAL, "max_label": 1}),
    ("OverlapTest", {"target_state": PLUS, "threshold": 0.4}),
    ("OverlapTest", {"target_state": PLUS, "threshold": 0.4, "sharpness": 6.0}),
    ("BasisSelect", {"basis": HADAMARD_ROWS, "sharpness": 5.0}),
    ("EntropyMeter", {"alpha": 2.0, "precision": 4}),
    ("EntropyCertifier", {"entropy_threshold": 0.3}),
    ("EntropyCertifier", {"alpha": 2.0, "entropy_threshold": 0.3, "sharpness": 4.0}),
    ("EntanglementAnalyse", {"basis": HADAMARD_ROWS, "precision": 4}),
]

# the public per-kind function of each kind, as a (state, target, params) call
PER_KIND_FUNCTIONS = {
    "Readout": lambda s, t, p: [(readout_density(s, t, **p), 1.0)],
    "FunctionReadout": lambda s, t, p: [(function_readout(s, t, **p), 1.0)],
    "ExpectationReadout": lambda s, t, p: [(expectation_readout(s, t, **p), 1.0)],
    "EigenvalueSampler": lambda s, t, p: eigenvalue_distribution(s, t, **p),
    "UncertaintySampler": lambda s, t, p: uncertainty_distribution(s, t, **p),
    "PovmSampler": lambda s, t, p: povm_distribution(s, t, **p),
    "OverlapTest": lambda s, t, p: overlap_distribution(s, t, p["target_state"],
                                                        p["threshold"], p.get("sharpness")),
    "BasisSelect": lambda s, t, p: basis_select_distribution(s, t, **p),
    "EntropyMeter": lambda s, t, p: [(entropy_meter(s, t, **p), 1.0)],
    "EntropyCertifier": lambda s, t, p: certify_distribution(
        s, t, p.get("alpha", 1.0), p["entropy_threshold"], p.get("sharpness")),
    "EntanglementAnalyse": lambda s, t, p: [(entanglement_analyse(s, t, **p), 1.0)],
}

# the catalog sampler of each stochastic kind, as a (state, target, params, rng) call
SAMPLERS = {
    "EigenvalueSampler": lambda s, t, p, rng: sample_eigenvalue(s, t, rng=rng, **p),
    "UncertaintySampler": lambda s, t, p, rng: sample_uncertainty(s, t, rng=rng, **p),
    "PovmSampler": lambda s, t, p, rng: sample_povm(s, t, rng=rng, **p),
    "OverlapTest": lambda s, t, p, rng: overlap_test(s, t, p["target_state"], p["threshold"],
                                                     rng, p.get("sharpness")),
    "BasisSelect": lambda s, t, p, rng: basis_select(s, t, rng=rng, **p),
    "EntropyCertifier": lambda s, t, p, rng: entropy_certify(
        s, t, p.get("alpha", 1.0), p["entropy_threshold"], rng, p.get("sharpness")),
}


def _branch_keys(distribution) -> list:
    """Each branch as exact data: outcome type, payload bytes, probability."""
    keys = []
    for outcome, prob in distribution:
        if isinstance(outcome, MatrixDescription):
            payload = (outcome.matrix.shape, outcome.matrix.tobytes(), outcome.precision)
        elif isinstance(outcome, Overflow):
            payload = outcome.excluded_probability
        else:
            payload = outcome.value
        keys.append((type(outcome), payload, prob))
    return keys


CHI2_DRAWS = 10_000
CHI2_P = 0.001


def draw_counts(sampler, n=CHI2_DRAWS, seed=0xA5):
    """Tally outcomes of n seeded draws, keyed by repr-stable identity."""
    counts = {}
    for trial in range(n):
        outcome = sampler(RandomStream(seed, trial=trial))
        key = _key(outcome)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _key(outcome):
    if isinstance(outcome, RealValue):
        return ("real", round(outcome.value, 9))
    if isinstance(outcome, IntegerLabel):
        return ("label", outcome.value)
    if isinstance(outcome, Bit):
        return ("bit", outcome.value)
    if isinstance(outcome, Overflow):
        return ("overflow",)
    raise AssertionError(outcome)


def assert_chisquare(distribution, sampler):
    """Seeded draws must match the analytic distribution by chi-square."""
    counts = draw_counts(sampler)
    keys, probs = [], []
    merged = {}
    for outcome, p in distribution:
        merged[_key(outcome)] = merged.get(_key(outcome), 0.0) + p
    for key, p in merged.items():
        keys.append(key)
        probs.append(p)
    observed = np.array([counts.get(k, 0) for k in keys], dtype=float)
    assert observed.sum() == CHI2_DRAWS
    assert chisquare_pvalue(observed, probs) > CHI2_P


def assert_untouched(state, before):
    assert state.amplitudes.tobytes() == before


class TestReadout:
    def test_bell_reduction(self):
        out = readout_density(BELL, (0,))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
        assert out.precision is None

    def test_product_state_exact_at_finite_precision(self):
        state = tensor_product(KET0, KET1)
        out = readout_density(state, (0,), precision=3)
        np.testing.assert_allclose(out.matrix, KET0.density(), atol=0)

    def test_quantization_of_entries(self):
        amps = np.zeros(4)
        amps[0], amps[3] = math.sqrt(0.3), math.sqrt(0.7)
        state = PureState(TWO_QUBITS, amps)
        out = readout_density(state, (0,), precision=2)
        np.testing.assert_allclose(out.matrix, np.diag([0.25, 0.75]), atol=0)

    def test_basis_covariance(self):
        rng = RandomStream(83)
        for trial in range(20):
            state = random_pure_state(TWO_QUBITS, rng)
            u = random_unitary(2, rng)
            basis = [u[:, i] for i in range(2)]
            rotated = readout_density(state, (0,), basis=basis).matrix
            plain = readout_density(state, (0,)).matrix
            np.testing.assert_allclose(rotated, u.conj().T @ plain @ u, atol=1e-10)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            readout_density(BELL, (0,), basis=[[1, 0], [1, 0]])

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_basis(self, entry):
        for device in (readout_density, basis_select):
            with pytest.raises(ParameterError, match="not orthonormal") as err:
                device(BELL, (0,), basis=[[entry, 0], [0, 1]])
            assert err.value.name == "basis"

    def test_full_system_target(self):
        out = readout_density(PLUS, (0,))
        np.testing.assert_allclose(out.matrix, PLUS.density(), atol=1e-12)


class TestFunctionReadout:
    def test_pure_reduced_state_is_power_fixed_point(self):
        state = tensor_product(PLUS, KET1)
        for n in (1, 2, 3):
            out = function_readout(state, (0,), exponent=n)
            np.testing.assert_allclose(out.matrix, PLUS.density(), atol=1e-12)

    def test_maximally_mixed_square(self):
        out = function_readout(BELL, (0,), exponent=2)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 4, atol=1e-12)

    def test_matches_matrix_multiplication_oracle(self):
        rng = RandomStream(89)
        for trial in range(20):
            state = random_pure_state(TWO_QUBITS, rng)
            rho = reduced_density(state, (0,)).entries
            out = function_readout(state, (0,), exponent=2)
            np.testing.assert_allclose(out.matrix, rho @ rho, atol=1e-12)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            function_readout(BELL, (0,), exponent=0)


class TestExpectationReadout:
    def test_eigenstate(self):
        assert expectation_readout(KET0, (0,), PAULI_Z).value == pytest.approx(1.0)

    def test_bell_subsystem_is_unpolarized(self):
        assert expectation_readout(BELL, (0,), PAULI_Z).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_trace_oracle(self):
        rng = RandomStream(97)
        for trial in range(20):
            state = random_pure_state(TWO_QUBITS, rng)
            h = rng.complex_normal(4).reshape(2, 2)
            a = h + h.conj().T
            rho = reduced_density(state, (0,)).entries
            got = expectation_readout(state, (0,), a).value
            assert got == pytest.approx(np.trace(a @ rho).real, abs=1e-12)

    def test_quantized_output(self):
        amps = np.zeros(4)
        amps[0], amps[3] = math.sqrt(0.3), math.sqrt(0.7)
        state = PureState(TWO_QUBITS, amps)
        # <Z> = 0.3 - 0.7 = -0.4, nearest multiple of 1/4 is -0.5
        assert expectation_readout(state, (0,), PAULI_Z, precision=2).value == -0.5


class TestEigenvalueSampler:
    def test_plus_state_even_odds(self):
        dist = eigenvalue_distribution(PLUS, (0,), PAULI_Z, variant="value")
        assert outcomes_equal(dist[0][0], RealValue(-1.0))
        assert outcomes_equal(dist[1][0], RealValue(1.0))
        np.testing.assert_allclose([p for _, p in dist], [0.5, 0.5], atol=1e-12)

    def test_projection_special_case_bit_output(self):
        assert sample_projection(KET0, (0,), KET0, RandomStream(1)) == Bit(1)
        dist = eigenvalue_distribution(KET0, (0,), KET0.density(), variant="bit")
        as_dict = {_key(o): p for o, p in dist}
        assert as_dict[("bit", 1)] == pytest.approx(1.0)

    def test_finite_variant_overflow_mass(self):
        # 4 distinct eigenvalues on C^4, labels shifted to {-1, 0, 1, 2}
        state = PureState(FactorSpace((4, 4)),
                          np.eye(4).reshape(-1) / 2.0)  # maximally entangled
        obs = np.diag([0.0, 1.0, 2.0, 3.0])
        dist = eigenvalue_distribution(state, (0,), obs, variant="finite",
                                       max_label=1, label_offset=-1)
        labels = {_key(o): p for o, p in dist}
        assert labels[("overflow",)] == pytest.approx(0.25)
        for lab in (-1, 0, 1):
            assert labels[("label", lab)] == pytest.approx(0.25)
        # overflow outcome carries the excluded mass as metadata
        overflow = [o for o, _ in dist if isinstance(o, Overflow)][0]
        assert overflow.excluded_probability == pytest.approx(0.25)

    def test_value_quantization_does_not_touch_probabilities(self):
        obs = np.diag([0.3, 0.7])
        raw = eigenvalue_distribution(PLUS, (0,), obs, variant="value")
        quant = eigenvalue_distribution(PLUS, (0,), obs, variant="value", precision=1)
        np.testing.assert_allclose([p for _, p in raw], [p for _, p in quant], atol=0)
        assert [o.value for o, _ in quant] == [0.5, 0.5]  # merged values, unmerged entries

    def test_integer_labels_ascending(self):
        obs = np.diag([5.0, -2.0])
        dist = eigenvalue_distribution(KET0, (0,), obs, variant="integer_label")
        # cluster 0 is eigenvalue -2 (on |1>), cluster 1 is eigenvalue 5 (on |0>)
        as_dict = {_key(o): p for o, p in dist}
        assert as_dict[("label", 0)] == pytest.approx(0.0, abs=1e-12)
        assert as_dict[("label", 1)] == pytest.approx(1.0)

    def test_chisquare_value_variant(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(101))
        dist = eigenvalue_distribution(state, (0,), PAULI_Z, variant="value")
        assert_chisquare(dist, lambda rng: sample_eigenvalue(state, (0,), PAULI_Z, rng))

    def test_chisquare_finite_variant(self):
        state = PureState(FactorSpace((4, 4)), np.eye(4).reshape(-1) / 2.0)
        obs = np.diag([0.0, 1.0, 2.0, 3.0])
        dist = eigenvalue_distribution(state, (0,), obs, variant="finite",
                                       max_label=1, label_offset=-1)
        assert_chisquare(dist, lambda rng: sample_eigenvalue(
            state, (0,), obs, rng, variant="finite", max_label=1, label_offset=-1))

    def test_trivial_update_and_repeatability(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(103))
        before = state.amplitudes.tobytes()
        results = set()
        for trial in range(50):
            out = sample_eigenvalue(state, (0,), PAULI_Z, RandomStream(5, trial=trial))
            results.add(_key(out))
            assert_untouched(state, before)
        assert len(results) == 2  # repetition explores the distribution


class TestUncertaintySampler:
    def test_eigenstate_reads_zero(self):
        dist = uncertainty_distribution(KET0, (0,), PAULI_Z)
        as_dict = {_key(o): p for o, p in dist}
        assert as_dict[("real", 0.0)] == pytest.approx(1.0)

    def test_unpolarized_qubit(self):
        dist = uncertainty_distribution(BELL, (0,), PAULI_Z)
        np.testing.assert_allclose(sorted(o.value for o, _ in dist), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose([p for _, p in dist], [0.5, 0.5], atol=1e-12)

    def test_chisquare_against_shifted_observable_oracle(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(107))
        rho = reduced_density(state, (0,)).entries
        h = RandomStream(109).complex_normal(4).reshape(2, 2)
        a = h + h.conj().T
        # oracle: expectation readout plus eigenvalue sampler on the shifted matrix
        mean = np.trace(a @ rho).real
        shifted = HermitianObservable(a - mean * np.eye(2))
        oracle = [(RealValue(lam), np.trace(p @ rho).real)
                  for lam, p in zip(shifted.eigenvalues, shifted.projectors)]
        assert_chisquare(oracle, lambda rng: sample_uncertainty(state, (0,), a, rng))

    def test_quantization_applies_to_output_only(self):
        amps = np.zeros(4)
        amps[0], amps[3] = math.sqrt(0.3), math.sqrt(0.7)
        state = PureState(TWO_QUBITS, amps)
        dist = uncertainty_distribution(state, (0,), PAULI_Z, precision=1)
        # <Z> = -0.4 stays full precision in the shift; outputs quantized
        values = sorted(o.value for o, _ in dist)
        assert values == [-0.5, 1.5]
        probs = {_key(o): p for o, p in dist}
        assert probs[("real", 1.5)] == pytest.approx(0.3)


class TestPovmSampler:
    def test_even_coin(self):
        povm = POVMSet((np.eye(2) / 2, np.eye(2) / 2))
        dist = povm_distribution(PLUS, (0,), povm)
        assert {_key(o) for o, _ in dist} == {("label", 1), ("label", 2)}
        np.testing.assert_allclose([p for _, p in dist], [0.5, 0.5], atol=1e-12)

    def test_projective_povm_matches_eigenvalue_sampler(self):
        rng = RandomStream(113)
        state = random_pure_state(TWO_QUBITS, rng)
        u = random_unitary(2, rng)
        projs = tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(2))
        povm_probs = [p for _, p in povm_distribution(state, (0,), POVMSet(projs))]
        obs = HermitianObservable(1.0 * projs[0] + 2.0 * projs[1])
        ev_probs = [p for _, p in eigenvalue_distribution(state, (0,), obs,
                                                          variant="integer_label")]
        np.testing.assert_allclose(sorted(povm_probs), sorted(ev_probs), atol=1e-12)

    def test_finite_overflow(self):
        rng = RandomStream(127)
        state = random_pure_state(TWO_QUBITS, rng)
        rho = reduced_density(state, (0,)).entries
        a1 = np.array([[0.3, 0], [0, 0.1]])
        a2 = np.array([[0.5, 0], [0, 0.2]])
        povm = POVMSet((a1, a2, np.eye(2) - a1 - a2))
        dist = povm_distribution(state, (0,), povm, max_label=1)
        as_dict = {_key(o): p for o, p in dist}
        assert as_dict[("overflow",)] == pytest.approx(1.0 - np.trace(a1 @ rho).real)

    def test_chisquare(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(131))
        b = np.array([[0.6, 0.2], [0.2, 0.3]])
        povm = POVMSet((b, np.eye(2) - b))
        dist = povm_distribution(state, (0,), povm)
        assert_chisquare(dist, lambda rng: sample_povm(state, (0,), povm, rng))

    def test_distribution_matches_born_oracle(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(137))
        b = np.array([[0.5, 0.1], [0.1, 0.4]])
        povm = POVMSet((b, np.eye(2) - b))
        want = born_probabilities(reduced_density(state, (0,)), povm)
        got = [p for _, p in povm_distribution(state, (0,), povm)]
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestPerStatePovms:
    """``povm`` as the tuple ``povm_sets`` gives: POVM r on state r of a stack."""

    STATES = random_pure_states((TWO_QUBITS,), RandomStream(139), 5)

    @staticmethod
    def _povms(n):
        b = np.zeros((n, 2, 2), dtype=complex)
        b[:, [0, 1], [0, 1]] = np.linspace(0.15, 0.85, 2 * n).reshape(n, 2)
        b[:, 0, 1] = b[:, 1, 0] = 0.1
        return povm_sets(np.stack([b, np.eye(2) - b], axis=1))

    def test_each_state_gets_its_own_povm(self):
        povms = self._povms(5)
        spec = DeviceSpec("PovmSampler", {"povm": povms, "max_label": 1})
        streams = [RandomStream(141, 0, t) for t in range(5)]
        oracle_streams = [RandomStream(141, 0, t) for t in range(5)]
        rows = spec.distribution(self.STATES, (1,))
        outcomes = spec.apply(self.STATES, (1,), streams)
        for r, (psi, povm) in enumerate(zip(self.STATES, povms)):
            one = DeviceSpec("PovmSampler", {"povm": povm, "max_label": 1})
            assert _branch_keys(rows[r]) == _branch_keys(one.distribution(psi, (1,)))
            assert outcomes[r] == one.apply(psi, (1,), oracle_streams[r])
            assert streams[r].uniform() == oracle_streams[r].uniform()

    @pytest.mark.parametrize("call", [
        lambda spec, states: spec.distribution(states, (0,)),
        lambda spec, states: spec.apply(states, (0,), [RandomStream(1)] * len(states)),
        lambda spec, states: spec.table(states, (0,)),
    ])
    @pytest.mark.parametrize("n", [4, 6])
    def test_a_tuple_of_another_length_names_povm(self, call, n):
        spec = DeviceSpec("PovmSampler", {"povm": self._povms(n)})
        with pytest.raises(ParameterError, match="per-state POVMs") as err:
            call(spec, self.STATES)
        assert err.value.name == "povm"

    @pytest.mark.parametrize("call", [
        lambda spec, psi: spec.distribution(psi, (0,)),
        lambda spec, psi: spec.apply(psi, (0,), RandomStream(1)),
        lambda spec, psi: spec.table(psi, (0,)),
        lambda spec, psi: spec.probability_of(psi, (0,), IntegerLabel(1)),
        lambda spec, psi: povm_distribution(psi, (0,), spec.params["povm"]),
        lambda spec, psi: sample_povm(psi, (0,), spec.params["povm"], RandomStream(1)),
    ])
    def test_a_tuple_with_a_single_state_names_povm(self, call):
        spec = DeviceSpec("PovmSampler", {"povm": self._povms(1)})
        with pytest.raises(ParameterError, match="single state") as err:
            call(spec, self.STATES[0])
        assert err.value.name == "povm"

    def test_a_stack_needs_one_stream_per_state(self):
        spec = DeviceSpec("PovmSampler", {"povm": self._povms(5)})
        for rng in ([RandomStream(1)] * 4, RandomStream(1)):
            with pytest.raises(ValueError, match="5 states need one RandomStream"):
                spec.apply(self.STATES, (0,), rng)

    def test_povms_of_another_shape_name_povm(self):
        povms = self._povms(4) + povm_sets(np.eye(2)[None, None])
        with pytest.raises(ParameterError) as err:
            DeviceSpec("PovmSampler", {"povm": povms}).distribution(self.STATES, (0,))
        assert err.value.name == "povm"


class TestOverlapTest:
    def test_hard_accept(self):
        assert overlap_test(KET0, (0,), KET0, 0.9) == Bit(1)

    def test_hard_reject_on_mixed(self):
        assert overlap_test(BELL, (0,), KET0, 0.6) == Bit(0)

    def test_smoothed_at_threshold_is_fair_coin(self):
        dist = overlap_distribution(BELL, (0,), KET0, 0.5, sharpness=3.0)
        as_dict = {_key(o): p for o, p in dist}
        assert as_dict[("bit", 1)] == pytest.approx(0.5, abs=1e-12)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            overlap_test(KET0, (0,), KET0, 1.0)

    @pytest.mark.parametrize("sharpness", [None, 5.0])
    def test_amplitude_sequences_give_the_state_table(self, sharpness):
        states = [random_pure_state(TWO_QUBITS, RandomStream(141, 0, t)) for t in range(20)]
        amps = np.array([0.6, 0.8j])
        tables = [DeviceSpec("OverlapTest", {"target_state": target, "threshold": 0.4,
                                             "sharpness": sharpness}).table(states, (1,))
                  for target in (amps.tolist(), amps, PureState(QUBIT, amps))]
        for table in tables[:2]:
            assert table.types == tables[2].types
            assert table.values.tobytes() == tables[2].values.tobytes()
            assert table.probabilities.tobytes() == tables[2].probabilities.tobytes()
        listed, state = (DeviceSpec("OverlapTest", {"target_state": target, "threshold": 0.5})
                         for target in ([1, 0], KET0))
        assert listed.distribution(BELL, (0,)) == state.distribution(BELL, (0,))

    @pytest.mark.parametrize("target_state", [
        [1, 1], np.array([0.6, 0.8]) * 2, [[1, 0], [0, 0]], np.eye(2), [np.nan, 0],
        [1.0, np.nan], [1], [], "ab", None,
    ], ids=repr)
    def test_invalid_target_state_is_named(self, target_state):
        spec = DeviceSpec("OverlapTest", {"target_state": target_state, "threshold": 0.5})
        with pytest.raises(ParameterError) as err:
            spec.distribution(KET0, (0,))
        assert err.value.name == "target_state"

    def test_chisquare_smoothed(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(139))
        dist = overlap_distribution(state, (0,), KET0, 0.4, sharpness=5.0)
        assert_chisquare(dist, lambda rng: overlap_test(state, (0,), KET0, 0.4,
                                                        rng, sharpness=5.0))


class TestBasisSelect:
    def test_deterministic_winner(self):
        out = basis_select(KET0, (0,))
        assert out == IntegerLabel(0)

    def test_tie_broken_uniformly(self):
        dist = basis_select_distribution(BELL, (0,))
        np.testing.assert_allclose([p for _, p in dist], [0.5, 0.5], atol=1e-12)
        assert_chisquare(dist, lambda rng: basis_select(BELL, (0,), rng=rng))

    def test_smoothed_uniform_on_maximally_mixed(self):
        for k in (0.5, 3.0, 50.0):
            dist = basis_select_distribution(BELL, (0,), sharpness=k)
            np.testing.assert_allclose([p for _, p in dist], [0.5, 0.5], atol=1e-12)

    def test_chisquare_smoothed(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(149))
        dist = basis_select_distribution(state, (0,), sharpness=4.0)
        assert_chisquare(dist, lambda rng: basis_select(state, (0,), rng=rng,
                                                        sharpness=4.0))


class TestEntropyMeter:
    def test_bell_is_one_bit(self):
        assert entropy_meter(BELL, (0,)).value == pytest.approx(1.0, abs=1e-10)

    def test_product_state_zero_for_any_alpha(self):
        state = tensor_product(PLUS, KET1)
        for alpha in (0.0, 0.5, 1.0, 2.0, 7.0):
            assert entropy_meter(state, (0,), alpha).value == pytest.approx(0.0, abs=1e-9)

    def test_quantization_fixed_point(self):
        assert entropy_meter(BELL, (0,), 1.0, precision=3).value == 1.0

    def test_local_unitary_invariance(self):
        rng = RandomStream(151)
        for trial in range(30):
            state = random_pure_state(TWO_QUBITS, rng)
            u = random_unitary(2, rng)
            rotated = apply_unitary(state, u, on=(0,))
            for alpha in (1.0, 2.0):
                a = entropy_meter(state, (0,), alpha).value
                b = entropy_meter(rotated, (0,), alpha).value
                assert abs(a - b) < 1e-8


class TestEntropyCertifier:
    def test_bell_certifies(self):
        assert entropy_certify(BELL, (0,), 1.0, 0.5) == Bit(1)

    def test_product_state_rejects(self):
        state = tensor_product(KET0, KET1)
        assert entropy_certify(state, (0,), 1.0, 0.5) == Bit(0)

    def test_smoothed_product_state_probability(self):
        state = tensor_product(KET0, KET1)
        k, e = 4.0, 0.25
        dist = certify_distribution(state, (0,), 1.0, e, sharpness=k)
        as_dict = {_key(o): p for o, p in dist}
        assert as_dict[("bit", 1)] == pytest.approx(1.0 / (1.0 + math.exp(k * e)), abs=1e-12)

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            entropy_certify(BELL, (0,), 1.0, 1.5)  # log2(2) = 1 bounds E
        with pytest.raises(ValueError):
            entropy_certify(BELL, (0,), 1.0, 0.0)

    def test_chisquare_smoothed(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(157))
        dist = certify_distribution(state, (0,), 1.0, 0.5, sharpness=2.0)
        assert_chisquare(dist, lambda rng: entropy_certify(state, (0,), 1.0, 0.5,
                                                           rng, sharpness=2.0))


def test_certifier_thresholds_the_meter_reading():
    """The certifier's bit is a function of the entropy meter's reading, bit for
    bit, and alpha is checked before the threshold."""
    space = FactorSpace((2, 3))
    for child in RandomStream(5).derive_many(range(10)):
        psi = random_pure_state(space, child)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            value = entropy_meter(psi, (1,), alpha).value
            smooth = certify_distribution(psi, (1,), alpha, 0.8, sharpness=3.0)
            assert smooth[0] == (Bit(1), devices._logistic(3.0 * (value - 0.8)))
            assert certify_distribution(psi, (1,), alpha, value)[0] == (Bit(1), 0.0)
    for alpha in (-1.0, math.nan):
        with pytest.raises(ParameterError) as err:
            certify_distribution(BELL, (0,), alpha, 5.0)
        assert err.value.name == "alpha"


class TestEntanglementAnalyse:
    def test_bell_matches_partial_inner_product_oracle(self):
        out = entanglement_analyse(BELL, 0)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
        oracle = partial_inner_products(BELL.amplitudes, (2, 2), 0,
                                        [np.array([1, 0]), np.array([0, 1])])
        np.testing.assert_allclose(out.matrix, oracle, atol=1e-12)

    def test_product_state_single_entry(self):
        chi = PureState(QUBIT, np.array([0.6, 0.8]))
        state = tensor_product(KET0, chi)
        out = entanglement_analyse(state, 0)
        np.testing.assert_allclose(out.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_equals_transposed_readout(self):
        rng = RandomStream(163)
        for trial in range(20):
            state = random_pure_state(FactorSpace((2, 3)), rng)
            m = entanglement_analyse(state, 0).matrix
            rho = readout_density(state, (0,)).matrix
            assert np.max(np.abs(m - rho.T)) < 1e-10

    def test_oracle_agreement_in_rotated_basis(self):
        rng = RandomStream(167)
        state = random_pure_state(FactorSpace((3, 2)), rng)
        u = random_unitary(3, rng)
        basis = [u[:, i] for i in range(3)]
        out = entanglement_analyse(state, 0, basis=basis)
        oracle = partial_inner_products(state.amplitudes, (3, 2), 0, basis)
        np.testing.assert_allclose(out.matrix, oracle, atol=1e-10)

    def test_quantization(self):
        out = entanglement_analyse(BELL, 0, precision=1)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=0)
        scaled = out.matrix * 2 ** 1
        np.testing.assert_allclose(scaled.real, np.round(scaled.real), atol=0)


class TestSmoothedLimits:
    """Smoothed devices at k = 1e6 agree with hard devices off the margin."""

    K = 1e6
    MARGIN = 1e-4

    def test_overlap_limit(self):
        rng = RandomStream(173)
        checked = 0
        while checked < 100:
            state = random_pure_state(TWO_QUBITS, rng)
            a = 0.1 + 0.8 * rng.uniform()
            w = reduced_density(state, (0,)).entries[0, 0].real
            if abs(w - a) <= self.MARGIN:
                continue
            hard = overlap_distribution(state, (0,), KET0, a)
            smooth = overlap_distribution(state, (0,), KET0, a, sharpness=self.K)
            np.testing.assert_allclose([p for _, p in smooth], [p for _, p in hard],
                                       atol=1e-10)
            checked += 1

    def test_certifier_limit(self):
        rng = RandomStream(179)
        checked = 0
        while checked < 100:
            state = random_pure_state(TWO_QUBITS, rng)
            e = 0.05 + 0.9 * rng.uniform()
            s = entropy_meter(state, (0,), 1.0).value
            if abs(s - e) <= self.MARGIN:
                continue
            hard = certify_distribution(state, (0,), 1.0, e)
            smooth = certify_distribution(state, (0,), 1.0, e, sharpness=self.K)
            np.testing.assert_allclose([p for _, p in smooth], [p for _, p in hard],
                                       atol=1e-10)
            checked += 1

    def test_basis_select_limit(self):
        rng = RandomStream(181)
        checked = 0
        while checked < 100:
            state = random_pure_state(TWO_QUBITS, rng)
            weights = sorted(basis_select_distribution(state, (0,)),
                             key=lambda pair: -pair[1])
            raw = reduced_density(state, (0,)).entries
            gap = abs(raw[0, 0].real - raw[1, 1].real)
            if gap <= self.MARGIN:
                continue
            hard = basis_select_distribution(state, (0,))
            smooth = basis_select_distribution(state, (0,), sharpness=self.K)
            np.testing.assert_allclose([p for _, p in smooth], [p for _, p in hard],
                                       atol=1e-10)
            checked += 1


class TestTrivialUpdate:
    """Every device leaves the global amplitudes bit-identical."""

    def test_sweep_all_kinds(self):
        state = random_pure_state(TWO_QUBITS, RandomStream(191))
        before = state.amplitudes.tobytes()
        rng = RandomStream(193)
        povm = POVMSet((np.eye(2) / 2, np.eye(2) / 2))
        readout_density(state, (0,))
        function_readout(state, (0,), exponent=2)
        expectation_readout(state, (0,), PAULI_Z)
        sample_eigenvalue(state, (0,), PAULI_Z, rng)
        sample_projection(state, (0,), KET0, rng)
        sample_uncertainty(state, (0,), PAULI_Z, rng)
        sample_povm(state, (0,), povm, rng)
        overlap_test(state, (0,), KET0, 0.5)
        overlap_test(state, (0,), KET0, 0.5, rng, sharpness=2.0)
        basis_select(state, (0,), rng=rng)
        entropy_meter(state, (0,), 1.0)
        entropy_certify(state, (0,), 1.0, 0.5)
        entanglement_analyse(state, 0)
        assert_untouched(state, before)


class TestDeviceSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec("Telepathy")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="takes no parameter 'phi'"):
            DeviceSpec("OverlapTest", {"phi": KET0, "threshold": 0.5})

    @pytest.mark.parametrize("params,name", [
        ({"observable": np.array([[0, 1], [1, 0]]), "variant": "bit"}, "variant"),
        ({"observable": np.diag([1.0, -1.0]), "variant": "bit"}, "variant"),
        ({"observable": np.diag([1.0, -1.0]), "variant": "finite"}, "max_label"),
    ])
    def test_eigenvalue_sampler_parameters_are_checked_together(self, params, name):
        spec = DeviceSpec("EigenvalueSampler", params)  # checked where the table uses them
        with pytest.raises(ParameterError) as err:
            spec.distribution(KET0, (0,))
        assert err.value.name == name
        with pytest.raises(ParameterError, match=str(err.value)):
            eigenvalue_distribution(KET0, (0,), **params)
        DeviceSpec("EigenvalueSampler", {"observable": np.diag([1.0, 0.0]), "variant": "bit"})
        DeviceSpec("EigenvalueSampler", {**params, "variant": "finite", "max_label": 1})

    @pytest.mark.parametrize("kind,params", SPEC_CASES)
    def test_distribution_is_one_partial_trace_and_the_kind_functions_row(
            self, kind, params, monkeypatch):
        # each per-state evaluation traces the state once, through qcore's
        # partial_trace, and gives what the per-kind function gives
        state = random_pure_state(TWO_QUBITS, RandomStream(197))
        calls = []
        original = qcore.partial_trace

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(qcore, "partial_trace", spy)
        got = DeviceSpec(kind, params).distribution(state, (1,))
        assert len(calls) == 1
        want = PER_KIND_FUNCTIONS[kind](state, (1,), params)
        assert _branch_keys(got) == _branch_keys(want)

    @pytest.mark.parametrize("kind,params", SPEC_CASES)
    def test_table_values_have_one_row_per_state(self, kind, params):
        # a fixed alphabet's values are one row broadcast, not a second layout
        states = [random_pure_state(TWO_QUBITS, RandomStream(199, trial=t)) for t in range(5)]
        table = DeviceSpec(kind, params).table(states, (1,))
        if table.types == (MatrixDescription,):
            assert table.values.shape == (5, 2, 2)
        else:
            assert table.values.shape == table.probabilities.shape == (5, len(table.types))
        assert [_branch_keys(row) for row in table.rows()] == [
            _branch_keys(DeviceSpec(kind, params).table(psi, (1,)).rows()[0]) for psi in states]

    @pytest.mark.parametrize("kind,missing", [
        (kind, name) for kind, record in DEVICE_KINDS.items() for name in record.required])
    def test_missing_required_parameter_is_named(self, kind, missing):
        complete = {name: REQUIRED_VALUES[name] for name in DEVICE_KINDS[kind].required}
        DeviceSpec(kind, complete)
        with pytest.raises(ParameterError) as err:
            DeviceSpec(kind, {k: v for k, v in complete.items() if k != missing})
        assert err.value.name == missing

    def test_catalog_params_name_the_required_ones(self):
        kind = DEVICE_KINDS["EigenvalueSampler"]
        assert kind.required == ("observable",)
        assert kind.names == ("observable", "variant", "precision", "max_label",
                              "label_offset")
        assert DEVICE_KINDS["FunctionReadout"].required == ("exponent",)

    def test_hard_threshold_devices_leave_the_stream_alone(self):
        rng, fresh = RandomStream(5), RandomStream(5)
        assert overlap_test(BELL, (0,), KET0, 0.3, rng) == Bit(1)
        assert entropy_certify(BELL, (0,), 1.0, 0.5, rng) == Bit(1)
        assert rng.uniform() == fresh.uniform()

    @pytest.mark.parametrize("kind,params", [
        ("EigenvalueSampler", {"observable": PAULI_Z}),
        ("EigenvalueSampler", {"observable": 2.0 * np.eye(2)}),  # one branch
        ("EigenvalueSampler", {"observable": PAULI_Z, "variant": "integer_label",
                               "label_offset": 3}),
        ("EigenvalueSampler", {"observable": PAULI_Z, "variant": "finite", "max_label": 0}),
        ("EigenvalueSampler", {"observable": np.diag([1.0, 0.0]), "variant": "bit"}),
        ("EigenvalueSampler", {"observable": np.eye(2), "variant": "bit"}),  # one branch
        ("UncertaintySampler", {"observable": PAULI_Z, "precision": 3}),
        ("UncertaintySampler", {"observable": 0.5 * np.eye(2)}),  # one branch
        ("PovmSampler", {"povm": COMPUTATIONAL}),
        ("PovmSampler", {"povm": COMPUTATIONAL, "max_label": 1}),
        ("PovmSampler", {"povm": POVMSet((np.eye(2),))}),  # one branch
        ("OverlapTest", {"target_state": PLUS, "threshold": 0.4, "sharpness": 6.0}),
        ("BasisSelect", {}),
        ("BasisSelect", {"basis": HADAMARD_ROWS, "sharpness": 5.0}),
        ("EntropyCertifier", {"alpha": 2.0, "entropy_threshold": 0.3, "sharpness": 4.0}),
    ])
    @pytest.mark.parametrize("state", [KET0, PLUS, BELL], ids=["ket0", "plus", "bell"])
    def test_sample_functions_draw_as_apply(self, kind, params, state):
        # the outcome and the stream's next uniform: a one-branch distribution
        # draws nothing, in both
        spec = DeviceSpec(kind, params)
        for seed in range(6):
            rng, fresh = RandomStream(seed), RandomStream(seed)
            assert SAMPLERS[kind](state, (0,), params, rng) == spec.apply(state, (0,), fresh)
            assert rng.uniform() == fresh.uniform()

    def test_one_element_povm_leaves_the_stream_alone(self):
        rng = RandomStream(5)
        assert sample_povm(PLUS, (0,), POVMSet((np.eye(2),)), rng) == IntegerLabel(1)
        assert rng.uniform() == RandomStream(5).uniform()

    @pytest.mark.parametrize("povm", [
        [0.5 * np.eye(2)],  # not complete
        [np.ones((2, 3)) / 3],  # not square
        ["ab", "cd"],
        3,
    ], ids=["incomplete", "non_square", "strings", "not_a_sequence"])
    def test_malformed_povm_names_its_key(self, povm):
        with pytest.raises(ParameterError) as err:
            DeviceSpec("PovmSampler", {"povm": povm}).distribution(KET0, (0,))
        assert err.value.name == "povm"
        with pytest.raises(ParameterError) as err:
            sample_povm(KET0, (0,), povm, RandomStream(1))
        assert err.value.name == "povm"

    def test_observable_that_cannot_be_built_names_its_key(self):
        # numpy raises TypeError here, which the conversion names as it does a ValueError
        with pytest.raises(ParameterError) as err:
            DeviceSpec("ExpectationReadout", {"observable": object()}).distribution(KET0, (0,))
        assert err.value.name == "observable"

    @pytest.mark.parametrize("kind,params,name", [
        ("Readout", {"basis": [[1, 0], [0]]}, "basis"),  # ragged
        ("Readout", {"basis": [["a", "b"], ["c", "d"]]}, "basis"),
        ("BasisSelect", {"basis": [[1, 0], [0]]}, "basis"),
        ("EntanglementAnalyse", {"basis": [["a", "b"], ["c", "d"]]}, "basis"),
        ("EntropyMeter", {"alpha": "x"}, "alpha"),
        ("EntropyMeter", {"alpha": None}, "alpha"),
        ("EntropyCertifier", {"alpha": "x", "entropy_threshold": 0.5}, "alpha"),
        *[(kind, {**params, "precision": precision}, "precision")
          for kind, params in [("Readout", {}), ("ExpectationReadout", {"observable": PAULI_Z}),
                               ("EntropyMeter", {}), ("UncertaintySampler",
                                                      {"observable": PAULI_Z})]
          for precision in (0, -1, "x", float("inf"))],
    ])
    def test_malformed_parameter_is_named(self, kind, params, name):
        with pytest.raises(ParameterError) as err:
            DeviceSpec(kind, params).table(BELL, (0,))
        assert err.value.name == name

    @pytest.mark.parametrize("variant", ["integer_label", "finite", "bit"])
    def test_label_variants_ignore_precision(self, variant):
        params = {"observable": np.diag([1.0, 0.0]), "variant": variant, "max_label": 1}
        want = DeviceSpec("EigenvalueSampler", params).distribution(BELL, (0,))
        for precision in (3, 0, "x"):
            assert DeviceSpec("EigenvalueSampler", {**params, "precision": precision}
                              ).distribution(BELL, (0,)) == want

    def test_apply_draws_whenever_it_gets_a_stream(self):
        spec = DeviceSpec("BasisSelect")
        rng, fresh = RandomStream(5), RandomStream(5)
        assert spec.apply(KET0, (0,), rng) == IntegerLabel(0)
        fresh.uniform()
        assert rng.uniform() == fresh.uniform()

    def test_apply_deterministic_without_rng(self):
        spec = DeviceSpec("EntropyMeter", {"alpha": 1.0})
        out = spec.apply(BELL, (0,))
        assert isinstance(out, RealValue)
        assert out.value == pytest.approx(1.0, abs=1e-10)

    def test_apply_stochastic_requires_rng(self):
        spec = DeviceSpec("EigenvalueSampler", {"observable": PAULI_Z})
        with pytest.raises(ValueError):
            spec.apply(BELL, (0,))
        out = spec.apply(BELL, (0,), RandomStream(3))
        assert isinstance(out, RealValue)

    def test_probability_of_matches_distribution(self):
        spec = DeviceSpec("EigenvalueSampler", {"observable": PAULI_Z})
        assert spec.probability_of(PLUS, (0,), RealValue(1.0)) == pytest.approx(0.5)

    def test_probability_of_rejects_alien_selector(self):
        spec = DeviceSpec("PovmSampler",
                          {"povm": POVMSet((np.eye(2) / 2, np.eye(2) / 2))})
        with pytest.raises(ValueError):
            spec.probability_of(PLUS, (0,), Bit(1))

    def test_readout_selector_probability_is_indicator(self):
        spec = DeviceSpec("Readout")
        hit = MatrixDescription(KET0.density())
        assert spec.probability_of(KET0, (0,), hit) == pytest.approx(1.0)
        assert spec.probability_of(KET1, (0,), hit) == pytest.approx(0.0)

    def test_stochastic_flag(self):
        assert DeviceSpec("OverlapTest", {"target_state": KET0, "threshold": 0.5,
                                          "sharpness": 2.0}).stochastic
        assert not DeviceSpec("OverlapTest",
                              {"target_state": KET0, "threshold": 0.5}).stochastic
        assert not DeviceSpec("Readout").stochastic


class TestDistributionTableRows:
    def test_real_values_keep_the_sign_of_zero(self):
        table = DistributionTable((RealValue, RealValue), np.array([[0.0, -0.0], [-0.0, 0.0]]),
                                  np.full((2, 2), 0.5))
        signs = [[math.copysign(1.0, outcome.value) for outcome, _ in row]
                 for row in table.rows()]
        assert signs == [[1.0, -1.0], [-1.0, 1.0]]

    @pytest.mark.parametrize("kind", [IntegerLabel, Bit])
    def test_int_outcomes_are_shared_and_equal_fresh_ones(self, kind):
        rows = devices._scalar_table(kind, [1, 0], np.full((50, 2), 0.5)).rows()
        for row in rows:
            assert [(outcome, p) for outcome, p in row] == [(kind(1), 0.5), (kind(0), 0.5)]
            assert [type(outcome.value) for outcome, _ in row] == [int, int]
            assert [hash(outcome) for outcome, _ in row] == [hash(kind(1)), hash(kind(0))]
            assert row[0][0] is rows[0][0][0] and row[1][0] is rows[0][1][0]

    def test_overflow_carries_its_rows_mass(self):
        probs = np.array([[0.25, 0.5, 0.25], [0.5, 0.0, 0.5]])
        rows = devices._label_table([0, 1, 2], probs, max_label=1).rows()
        assert [row[-1] for row in rows] == [(Overflow(0.25), 0.25), (Overflow(0.5), 0.5)]
        assert [row[-1][0].excluded_probability for row in rows] == [0.25, 0.5]
        assert rows[0][0][0] is rows[1][0][0]

    def test_a_bit_outside_0_1_is_still_rejected(self):
        table = DistributionTable((Bit, Bit), np.array([[1, 0], [1, 2]]), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="Bit outcome must be 0 or 1"):
            table.rows()


class TestOutcomeEquality:
    def test_cross_type_never_equal(self):
        assert not outcomes_equal(Bit(1), IntegerLabel(1))

    def test_real_value_tolerance(self):
        assert outcomes_equal(RealValue(0.5), RealValue(0.5 + 1e-12))
        assert not outcomes_equal(RealValue(0.5), RealValue(0.6))

    def test_matrix_description_requires_same_precision(self):
        a = MatrixDescription(np.eye(2) / 2, precision=2)
        b = MatrixDescription(np.eye(2) / 2, precision=None)
        assert not outcomes_equal(a, b)
        assert outcomes_equal(a, MatrixDescription(np.eye(2) / 2, precision=2))

    def test_overflow_ignores_mass(self):
        assert outcomes_equal(Overflow(0.3), Overflow(0.99))

    def test_quantize_matrix_components_independent(self):
        m = np.array([[0.3 + 0.3j]])
        np.testing.assert_allclose(quantize_matrix(m, 2), [[0.25 + 0.25j]], atol=0)
