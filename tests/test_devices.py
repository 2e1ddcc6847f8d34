"""Device catalog behavior, trivial update, and sampling soundness."""

import math

import numpy as np
import pytest

from pqsim import devices
from pqsim.devices import (
    DEVICE_KINDS,
    Bit,
    DeviceSpec,
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
    random_pure_state,
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
        with pytest.raises(ParameterError) as err:
            DeviceSpec("EigenvalueSampler", params)
        assert err.value.name == name
        with pytest.raises(ParameterError, match=str(err.value)):
            eigenvalue_distribution(KET0, (0,), **params)
        DeviceSpec("EigenvalueSampler", {"observable": np.diag([1.0, 0.0]), "variant": "bit"})
        DeviceSpec("EigenvalueSampler", {**params, "variant": "finite", "max_label": 1})

    def test_distribution_calls_the_kind_function_by_its_global_name(self, monkeypatch):
        calls = []
        original = devices.readout_density

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(devices, "readout_density", spy)
        DeviceSpec("Readout").distribution(BELL, (0,))
        assert len(calls) == 1

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
