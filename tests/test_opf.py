"""Outcome probability functions: constructors, closure, witnesses, checkers."""

import gc
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pqsim.devices import (
    Bit,
    DeviceSpec,
    DistributionTable,
    IntegerLabel,
    MatrixDescription,
    OutcomeSelection,
    Overflow,
    RealValue,
    quantize_matrix,
)
from pqsim import opf
from pqsim.opf import (
    OPF,
    QUBIT_PROBE_STATES,
    FullMeasurement,
    check_closure,
    check_estimation_assumption,
    compose_system,
    compose_unitary,
    constant_opf,
    density_from_projector_values,
    device_measurement,
    entropy_meter_measurement,
    entropy_outcome_values,
    hermitian_coords,
    hermitian_from_coords,
    ic_projector_states,
    mix,
    mix_measurements,
    opf_from_device,
    opf_from_quantum,
    product_form_witness,
    readout_opf,
    update_map_feasibility,
)
from pqsim.qcore import (
    DensityMatrix,
    Ensemble,
    FactorSpace,
    POVMSet,
    PureState,
    RandomStream,
    StateStack,
    ensemble_densities,
    quadratic_forms,
    random_density_matrix,
    random_pure_state,
    random_pure_states,
    random_unitary,
    tensor_product,
)

from . import oracles
from .oracles import quadratic_form

SRC = Path(__file__).resolve().parent.parent / "src"
QUBIT = FactorSpace((2,))
TWO_QUBITS = FactorSpace((2, 2))
KET0 = PureState.basis_state(QUBIT, 0)
KET1 = PureState.basis_state(QUBIT, 1)
PLUS = PureState(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = PureState(QUBIT, np.array([1, -1]) / np.sqrt(2))
BELL = PureState(TWO_QUBITS, np.array([1, 0, 0, 1]) / np.sqrt(2))
PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)


def random_povm_element(dim, rng, scale=0.8):
    rho = random_density_matrix(dim, rng).entries
    return scale * rho / np.linalg.eigvalsh(rho)[-1]


class TestQuantumOPF:
    def test_identity_is_constant_one(self):
        f = opf_from_quantum(np.eye(2))
        assert f(PLUS) == pytest.approx(1.0)

    def test_projector_on_plus(self):
        f = opf_from_quantum(PROJ0)
        assert f(PLUS) == pytest.approx(0.5)

    def test_matches_quadratic_form_oracle(self):
        rng = RandomStream(211)
        for trial in range(20):
            q = random_povm_element(3, rng)
            f = opf_from_quantum(q)
            psi = random_pure_state(FactorSpace((3,)), rng)
            assert f(psi) == pytest.approx(quadratic_form(q, psi.amplitudes), abs=1e-12)

    def test_rejects_out_of_range_element(self):
        with pytest.raises(ValueError):
            opf_from_quantum(2.0 * np.eye(2))
        with pytest.raises(ValueError):
            opf_from_quantum(-0.1 * np.eye(2))


class TestDeviceOPF:
    def test_entropy_meter_outcome_zero_is_certain_on_single_system(self):
        spec = DeviceSpec("EntropyMeter", {"alpha": 1.0, "precision": 3})
        f0 = opf_from_device(spec, RealValue(0.0), QUBIT, (0,))
        rng = RandomStream(223)
        for _ in range(50):
            assert f0(random_pure_state(QUBIT, rng)) == pytest.approx(1.0)

    def test_readout_opf_is_state_indicator(self):
        f = readout_opf(KET0)
        assert f(KET0) == pytest.approx(1.0)
        assert f(KET1) == pytest.approx(0.0)
        assert f(PLUS) == pytest.approx(0.0)
        phased = PureState(QUBIT, np.array([1j, 0.0]))
        assert f(phased) == pytest.approx(1.0)  # global phase is unobservable

    def test_readout_opf_on_ensembles(self):
        f = readout_opf(KET0)
        ens_a = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        ens_b = Ensemble(((PLUS, 0.5), (MINUS, 0.5)))
        assert f.on_ensemble(ens_a) == pytest.approx(0.5)
        assert f.on_ensemble(ens_b) == pytest.approx(0.0)

    def test_spod_element_matches_quantum_opf(self):
        rng = RandomStream(227)
        b = random_povm_element(2, rng)
        povm = POVMSet((b, np.eye(2) - b))
        spec = DeviceSpec("PovmSampler", {"povm": povm})
        f_dev = opf_from_device(spec, IntegerLabel(1), QUBIT, (0,))
        f_q = opf_from_quantum(b)
        for _ in range(100):
            psi = random_pure_state(QUBIT, rng)
            assert f_dev(psi) == pytest.approx(f_q(psi), abs=1e-12)

    def test_selector_must_be_in_outcome_set(self):
        spec = DeviceSpec("PovmSampler",
                          {"povm": POVMSet((np.eye(2) / 2, np.eye(2) / 2))})
        with pytest.raises(ValueError):
            opf_from_device(spec, Bit(0), QUBIT, (0,))


class TestMix:
    def test_complementary_pair_gives_constant_half(self):
        f = opf_from_quantum(PROJ0)
        g = opf_from_quantum(np.eye(2) - PROJ0)
        mixed = mix([f, g], [0.5, 0.5])
        rng = RandomStream(229)
        for _ in range(20):
            assert mixed(random_pure_state(QUBIT, rng)) == pytest.approx(0.5)

    def test_single_component_identity(self):
        f = opf_from_quantum(PROJ0)
        same = mix([f], [1.0])
        assert same(PLUS) == pytest.approx(f(PLUS))

    def test_operator_level_linearity(self):
        rng = RandomStream(233)
        q1, q2 = random_povm_element(2, rng), random_povm_element(2, rng)
        p = 0.3
        mixed = mix([opf_from_quantum(q1), opf_from_quantum(q2)], [p, 1 - p])
        direct = opf_from_quantum(p * q1 + (1 - p) * q2)
        np.testing.assert_allclose(mixed.operator, direct.operator, atol=1e-12)
        for _ in range(50):
            psi = random_pure_state(QUBIT, rng)
            assert mixed(psi) == pytest.approx(direct(psi), abs=1e-12)

    def test_weight_validation(self):
        f = opf_from_quantum(PROJ0)
        with pytest.raises(ValueError):
            mix([f, f], [0.5, 0.6])

    @pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.inf, 0.0]])
    def test_non_finite_weights_rejected(self, weights):
        f = opf_from_quantum(PROJ0)
        with pytest.raises(ValueError, match="weights must be nonnegative and sum to 1"):
            mix([f, f], weights)


class TestComposeUnitary:
    def test_identity_leaves_opf_unchanged(self):
        f = opf_from_quantum(PROJ0)
        g = compose_unitary(f, np.eye(2))
        assert g(PLUS) == pytest.approx(f(PLUS))

    def test_conjugation_oracle(self):
        rng = RandomStream(239)
        q = random_povm_element(2, rng)
        u = random_unitary(2, rng)
        composed = compose_unitary(opf_from_quantum(q), u)
        direct = opf_from_quantum(u.conj().T @ q @ u)
        np.testing.assert_allclose(composed.operator, direct.operator, atol=1e-12)
        for _ in range(50):
            psi = random_pure_state(QUBIT, rng)
            assert composed(psi) == pytest.approx(direct(psi), abs=1e-12)

    def test_entropy_opf_invariant_under_local_unitary(self):
        spec = DeviceSpec("EntropyMeter", {"alpha": 1.0, "precision": 3})
        f = opf_from_device(spec, RealValue(0.5), TWO_QUBITS, (0,))
        rng = RandomStream(241)
        u_local = np.kron(random_unitary(2, rng), np.eye(2))
        composed = compose_unitary(f, u_local)
        for _ in range(30):
            psi = random_pure_state(TWO_QUBITS, rng)
            assert composed(psi) == pytest.approx(f(psi), abs=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            compose_unitary(opf_from_quantum(PROJ0), np.array([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_unitary_without_a_warning(self, bad):
        # every warning is an error here, so an inf - inf in the product fails the test
        with pytest.raises(ValueError, match="^matrix is not unitary within tolerance$"):
            compose_unitary(opf_from_quantum(PROJ0), np.array([[bad, 0], [0, 1]]))


class TestComposeSystem:
    def test_product_operator_contracts_to_scaled_factor(self):
        rng = RandomStream(251)
        a, b = random_povm_element(2, rng), random_povm_element(2, rng)
        g = opf_from_quantum(np.kron(a, b), TWO_QUBITS)
        phi = random_pure_state(QUBIT, rng)
        f = compose_system(g, phi)
        scale = float(np.real(np.vdot(phi.amplitudes, b @ phi.amplitudes)))
        direct = opf_from_quantum(scale * a)
        np.testing.assert_allclose(f.operator, direct.operator, atol=1e-12)
        for _ in range(50):
            psi = random_pure_state(QUBIT, rng)
            assert f(psi) == pytest.approx(direct(psi), abs=1e-12)

    def test_constant_one_stays_constant(self):
        g = constant_opf(TWO_QUBITS, 1.0)
        f = compose_system(g, KET0)
        assert f(PLUS) == pytest.approx(1.0)

    def test_global_eigenvalue_sampler_reduces_to_povm_element(self):
        # sampling an entangled observable on the joint system, then fixing
        # the background state, acts like a positive-operator outcome on the
        # first factor, not like a projective measurement there
        rng = RandomStream(257)
        u = random_unitary(4, rng)
        obs = u @ np.diag([0.0, 1.0, 2.0, 3.0]) @ u.conj().T
        spec = DeviceSpec("EigenvalueSampler",
                          {"observable": obs, "variant": "integer_label"})
        g = opf_from_device(spec, IntegerLabel(2), TWO_QUBITS, (0, 1))
        f = compose_system(g, KET0)
        # oracle: the contracted projector is a POVM element on C^2
        proj = np.outer(u[:, 2], u[:, 2].conj()).reshape(2, 2, 2, 2)
        element = np.einsum("k,ikjl,l->ij", KET0.amplitudes.conj(), proj,
                            KET0.amplitudes)
        f_direct = opf_from_quantum(element)
        for _ in range(50):
            psi = random_pure_state(QUBIT, rng)
            assert f(psi) == pytest.approx(f_direct(psi), abs=1e-10)
        # generically not a projector: strictly between 0 and 1
        eigs = np.linalg.eigvalsh(element)
        assert 1e-6 < eigs[-1] < 1.0 - 1e-6

    def test_dimension_mismatch(self):
        g = constant_opf(TWO_QUBITS, 1.0)
        with pytest.raises(ValueError):
            compose_system(g, PureState.basis_state(FactorSpace((3,)), 0))


class TestFullMeasurementAndClosure:
    def test_quantum_family_closure(self):
        rng = RandomStream(263)
        b = random_povm_element(4, rng)
        povm = POVMSet((b, np.eye(4) - b))
        measurement = FullMeasurement.from_povm(povm, TWO_QUBITS)
        report = check_closure(measurement, 100, RandomStream(7))
        assert report.max_violation < 1e-8
        assert report.passed

    def test_entropy_meter_family_closure(self):
        measurement = entropy_meter_measurement(TWO_QUBITS, (0,), precision=2)
        report = check_closure(measurement, 60, RandomStream(8))
        assert report.passed

    def test_corrupted_family_reports_deficit(self):
        f = opf_from_quantum(0.9 * np.eye(2))
        report = check_closure(FullMeasurement((f,)), 50, RandomStream(9))
        assert report.completeness_violation == pytest.approx(0.1, abs=1e-9)
        assert not report.passed

    def test_mix_measurements_with_explicit_pairing(self):
        b = random_povm_element(2, RandomStream(269))
        quantum = FullMeasurement.from_povm(POVMSet((b, np.eye(2) - b)), QUBIT)
        flip = FullMeasurement.from_povm(POVMSet((np.eye(2) - b, b)), QUBIT)
        mixed = mix_measurements(quantum, flip, 0.4, pairing=[(0, 1), (1, 0)])
        assert len(mixed.outcomes) == 2
        states = [random_pure_state(QUBIT, RandomStream(10, trial=t)) for t in range(30)]
        assert mixed.completeness_violation(states) < 1e-9
        # paired outcomes combine pointwise
        psi = states[0]
        want = 0.4 * quantum.outcomes[0](psi) + 0.6 * flip.outcomes[1](psi)
        assert mixed.outcomes[0](psi) == pytest.approx(want, abs=1e-12)

    def test_mix_measurements_unpaired_outcomes_kept(self):
        b = random_povm_element(2, RandomStream(271))
        quantum = FullMeasurement.from_povm(POVMSet((b, np.eye(2) - b)), QUBIT)
        meter = entropy_meter_measurement(FactorSpace((2,)), (0,), precision=1)
        mixed = mix_measurements(quantum, meter, 0.5, pairing=[])
        assert len(mixed.outcomes) == 2 + len(meter.outcomes)
        states = [random_pure_state(QUBIT, RandomStream(11, trial=t)) for t in range(20)]
        assert mixed.completeness_violation(states) < 1e-9

    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.5, 1.0])
    def test_mixed_outcomes_equal_their_columns_bit_for_bit(self, weight):
        # paired, first-only and second-only outcomes of a device and a quantum
        # measurement, each evaluating only its own component outcomes
        space = FactorSpace((2, 2))
        b = random_povm_element(4, RandomStream(273))
        quantum = FullMeasurement.from_povm(POVMSet((b, np.eye(4) - b)), space)
        meter = entropy_meter_measurement(space, (0,), precision=2)
        for first, second, pairing in ((meter, quantum, [(0, 1)]), (quantum, meter, [(1, 2)]),
                                       (quantum, quantum, [(0, 0), (1, 1)])):
            mixed = mix_measurements(first, second, weight, pairing)
            states = random_pure_states((space,), RandomStream(12), 25)
            matrix = mixed.probabilities(states)
            assert matrix.shape == (25, len(mixed.outcomes))
            for i, f in enumerate(mixed.outcomes):
                assert f.values(states).tobytes() == matrix[:, i].tobytes()
                assert f(states[3]) == matrix[3, i]

    @pytest.mark.parametrize("pairing,message", [
        ([(-1, 0)], r"first pairing index must be in \[0, 1\], got -1"),
        ([(0, 2)], r"second pairing index must be in \[0, 1\], got 2"),
        ([(0, 1), (1.0, 0)], "first pairing index must be an integer, got 1.0"),
        ([(0, True)], "second pairing index must be an integer, got True"),
    ])
    def test_mix_measurements_rejects_pairings_outside_the_outcomes(self, pairing, message):
        # (-1, 0) once paired the last outcome of the first measurement and
        # still listed it as unpaired, so |1> had total probability 1.5
        computational = FullMeasurement.from_povm(POVMSet((PROJ0, np.eye(2) - PROJ0)), QUBIT)
        with pytest.raises(ValueError, match=f"^{message}$"):
            mix_measurements(computational, computational, 0.5, pairing)


class TestRangeInvariant:
    def test_constructed_opfs_stay_in_range(self):
        rng = RandomStream(277)
        spec = DeviceSpec("EntropyCertifier",
                          {"alpha": 2.0, "entropy_threshold": 0.5, "sharpness": 3.0})
        candidates = [
            opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS),
            opf_from_device(spec, Bit(1), TWO_QUBITS, (0,)),
            mix([opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS),
                 opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS)],
                [0.25, 0.75]),
            compose_unitary(
                opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS),
                random_unitary(4, rng)),
            compose_system(
                opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS),
                random_pure_state(QUBIT, rng)),
        ]
        for f in candidates:
            for trial in range(1000):
                psi = random_pure_state(f.space, rng)
                value = f(psi)
                assert -1e-9 <= value <= 1.0 + 1e-9


class TestProductFormWitness:
    def test_quantum_opf_is_quadratic(self):
        rng = RandomStream(281)
        f = opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS)
        cert = product_form_witness(f)
        assert cert.residual < 1e-8
        assert cert.verdict == "QUADRATIC"
        np.testing.assert_allclose(cert.operator, f.operator, atol=1e-8)

    def test_constant_opf_fits_scaled_identity(self):
        cert = product_form_witness(constant_opf(TWO_QUBITS, 0.37))
        assert cert.residual < 1e-10
        np.testing.assert_allclose(cert.operator, 0.37 * np.eye(4), atol=1e-8)

    def test_fpvnem_outcome_zero_certifies_violation(self):
        measurement = entropy_meter_measurement(TWO_QUBITS, (0,), precision=3)
        cert = product_form_witness(measurement.outcomes[0])
        assert cert.residual > 0.1
        assert cert.verdict == "VIOLATION"

    def test_residual_stable_under_probe_resampling(self):
        rng = RandomStream(283)
        f = opf_from_quantum(random_povm_element(4, rng), TWO_QUBITS)
        baseline = product_form_witness(f).residual
        for salt in range(3):
            extras = [random_pure_state(TWO_QUBITS, RandomStream(50 + salt, trial=t))
                      for t in range(20)]
            again = product_form_witness(f, extra_probes=extras).residual
            assert abs(again - baseline) < 1e-8

    def test_fpvnem_verdict_stable_under_probe_resampling(self):
        measurement = entropy_meter_measurement(TWO_QUBITS, (0,), precision=3)
        f0 = measurement.outcomes[0]
        for salt in range(3):
            extras = [random_pure_state(TWO_QUBITS, RandomStream(60 + salt, trial=t))
                      for t in range(20)]
            assert product_form_witness(f0, extra_probes=extras).residual > 0.1

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            product_form_witness(constant_opf(FactorSpace((5, 4)), 1.0))

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (4, 4)], ids=str)
    def test_equals_the_per_call_probe_design(self, dims):
        """The certificate equals the one of the old body, which drew,
        normalized and designed the probes on every call, byte for byte,
        with and without extra probes."""
        space = FactorSpace(dims)
        rng = RandomStream(289, len(dims), math.prod(dims))
        opfs = [opf_from_quantum(random_povm_element(space.total_dim, rng), space),
                entropy_meter_measurement(space, (0,), precision=3).outcomes[1]
                if len(dims) > 1 else constant_opf(space, 0.25)]
        extras = [random_pure_state(space, rng.derive(t)) for t in range(5)]
        for f in opfs:
            for extra in ((), extras, StateStack.of(extras[:1])):
                cert = product_form_witness(f, extra_probes=extra)
                residual, operator, count = oracles.product_form_fit(f, extra)
                assert cert.residual == residual
                assert cert.operator.tobytes() == operator.tobytes()
                assert cert.probe_count == count

    def test_fits_pin_one_blas_thread_and_restore_the_count(self):
        """Inside ``_one_blas_thread`` OpenBLAS runs one thread, and the count
        set before comes back after, also with threads entering it at once."""
        count = opf._openblas_thread_count()
        if count is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        get, put = count
        before, interval = get(), sys.getswitchinterval()
        inside = []

        def fit():
            for _ in range(200):
                with opf._one_blas_thread():
                    time.sleep(0)  # let another thread in while this one is pinned
                    inside.append(get())

        try:
            put(2)
            sys.setswitchinterval(1e-6)
            workers = [threading.Thread(target=fit) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert inside == [1] * 800
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(before)

    def test_probe_design_is_built_once_per_dimension_read_only(self):
        first = opf._witness_design(4)
        product_form_witness(constant_opf(TWO_QUBITS, 0.5))
        product_form_witness(constant_opf(FactorSpace((4,)), 0.5), extra_probes=[
            random_pure_state(FactorSpace((4,)), RandomStream(293))])
        again = opf._witness_design(4)
        assert all(a is b for a, b in zip(first, again))
        for array in again:
            assert not array.flags.writeable
        amps, design = again
        assert design.shape == (len(amps), 16)

    def test_importing_builds_no_probe_design(self):
        code = ("import pqsim.cli, pqsim.experiments, pqsim.opf; "
                "print(pqsim.opf._witness_design.cache_info().currsize)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
        assert run.stdout.strip() == "0"


class TestEntropyOutcomeValues:
    def test_qubit_outcome_count_bound(self):
        for m in (1, 2, 3, 5):
            values = entropy_outcome_values(2, m)
            assert len(values) == 2 ** m + 1  # log2(2) = 1 exactly, so the bound is tight

    def test_values_are_exact_multiples(self):
        for v in entropy_outcome_values(3, 4):
            assert v == math.ldexp(round(math.ldexp(v, 4)), -4)

    def test_bound_formula(self):
        for d, m in [(2, 1), (2, 3), (3, 3), (4, 2)]:
            count = len(entropy_outcome_values(d, m))
            assert count <= math.ceil(2 ** m * math.log2(d)) + 1


class TestEstimationAssumption:
    @pytest.mark.parametrize("dim,message", [
        (2.5, "dim must be an integer, got 2.5"),
        (True, "dim must be an integer, got True"),
        (5, r"dim must be in \[2, 4\], got 5"),
        (1, r"dim must be in \[2, 4\], got 1"),
    ])
    def test_dimension_rejected_by_name(self, dim, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_estimation_assumption("quantum_povm", dim, RandomStream(1))

    def test_satisfied_families_return_ic_outcomes(self):
        rng = RandomStream(293)
        for family in ("quantum_povm", "spod", "erd_sevrd"):
            verdict = check_estimation_assumption(family, 2, rng)
            assert verdict.verdict == "SATISFIED"
            assert len(verdict.outcomes) == 3
            assert verdict.evidence < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_readout_witness_pair_equals_per_state_loop(self, dim):
        space = FactorSpace((dim,))
        for trial in range(20):
            u = random_unitary(dim, RandomStream(311, dim, trial))
            a, b = opf._readout_witness_pair(dim, u)
            u0, u1 = u[:, 0], u[:, 1]
            want = [PureState.normalized(space, v).amplitudes.tobytes()
                    for v in (u0, u1, (u0 + u1) / math.sqrt(2.0), (u0 - u1) / math.sqrt(2.0))]
            assert [s.amplitudes.tobytes() for s, _ in a.members + b.members] == want

    def test_qubit_outcomes_are_pauli_derived(self):
        verdict = check_estimation_assumption("quantum_povm", 2, RandomStream(307))
        pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.array([[1, 0], [0, -1]])]
        for f in verdict.outcomes:
            # each outcome is (I + s.n)/2 for a Pauli axis: check it matches
            # one of the +-1 eigenprojectors of a Pauli matrix
            ok = any(
                np.allclose(f.operator, (np.eye(2) + sign * p) / 2, atol=1e-12)
                for p in pauli for sign in (1, -1))
            assert ok

    def test_entropy_meter_trivially_satisfied(self):
        verdict = check_estimation_assumption("entropy_meter", 2, RandomStream(311))
        assert verdict.verdict == "SATISFIED-TRIVIALLY"
        assert verdict.evidence < 1e-12

    def test_readout_fails_with_canonical_witness(self):
        verdict = check_estimation_assumption("readout", 2, RandomStream(313))
        assert verdict.verdict == "FAILS"
        w = verdict.witness
        assert w is not None
        # identical density matrices
        np.testing.assert_allclose(w.ensemble_a.density().entries,
                                   w.ensemble_b.density().entries, atol=1e-12)
        # the supplied (quantum) list agrees on both; the readout OPF differs
        assert w.list_agreement < 1e-9
        assert w.value_a == pytest.approx(0.5)
        assert w.value_b == pytest.approx(0.0)

    def test_readout_witness_avoids_supplied_readout_outcomes(self):
        rng = RandomStream(317)
        supplied = list(check_estimation_assumption("quantum_povm", 2, rng).outcomes)
        supplied += [readout_opf(KET0), readout_opf(PLUS)]
        verdict = check_estimation_assumption("readout", 2, rng, outcome_list=supplied)
        assert verdict.verdict == "FAILS"
        assert verdict.witness.list_agreement < 1e-9
        # witness members dodge the supplied readout targets
        for f in supplied[-2:]:
            assert f.on_ensemble(verdict.witness.ensemble_a) == pytest.approx(0.0)

    @pytest.mark.parametrize("family", ["quantum_povm", "spod", "erd_sevrd"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_ensembles_equal_per_trial_loop(self, family, dim, monkeypatch):
        made = []

        def spy(*args, **kwargs):
            made.append(original(*args, **kwargs))
            return made[-1]

        original = opf._random_ensembles
        monkeypatch.setattr(opf, "_random_ensembles", spy)
        rng = RandomStream(353, 3)
        check_estimation_assumption(family, dim, rng)
        (weights, members), = made
        assert weights.shape == (20, 3) and len(members) == 60
        got = [[(members[3 * t + r].amplitudes.tobytes(), float(weights[t, r]))
                for r in range(3)] for t in range(20)]
        want = oracles.estimation_ensembles(FactorSpace((dim,)), rng)
        assert got == [[(s.amplitudes.tobytes(), w) for s, w in e.members] for e in want]

    @pytest.mark.parametrize("family", ["quantum_povm", "spod", "erd_sevrd"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", [7, 353, 0x5EED])
    def test_evidence_equals_per_trial_loop(self, family, dim, seed):
        rng = RandomStream(seed, 3)
        evidence = check_estimation_assumption(family, dim, rng).evidence
        assert evidence == oracles.estimation_evidence(family, dim, rng)

    @pytest.mark.parametrize("family", ["quantum_povm", "spod", "erd_sevrd"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_evidence_equals_per_trial_loop_at_seeds_1_to_10(self, family, dim):
        for seed in range(1, 11):
            rng = RandomStream(seed, 3)
            evidence = check_estimation_assumption(family, dim, rng).evidence
            assert evidence == oracles.estimation_evidence(family, dim, rng), seed

    @pytest.mark.parametrize("family", ["quantum_povm", "spod", "erd_sevrd"])
    def test_ic_outcomes_are_built_once_per_family_and_dim(self, family):
        opf._ic_outcomes.cache_clear()
        first = opf._ic_outcomes(family, 3)
        assert opf._ic_outcomes(family, 3) is first
        assert opf._ic_outcomes(family, 2) is not first
        for seed in (1, 2):
            verdict = check_estimation_assumption(family, 3, RandomStream(seed, 3))
            assert verdict.outcomes is first.outcomes
        assert not first.states.flags.writeable
        opf._ic_outcomes.cache_clear()
        again = opf._ic_outcomes(family, 3)
        assert again is not first
        assert again.states.tobytes() == first.states.tobytes()
        states = random_pure_states((FactorSpace((3,)),), RandomStream(361), 12)
        for f, g in zip(first.outcomes, again.outcomes, strict=True):
            assert f(states).tobytes() == g(states).tobytes()

    @pytest.mark.parametrize("family", ["quantum_povm", "spod", "erd_sevrd"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_ic_outcomes_equal_the_per_projector_loop(self, family, dim):
        ic = opf._ic_outcomes(family, dim)
        assert ic.states.tobytes() == np.array(ic_projector_states(dim)).tobytes()
        states = random_pure_states((FactorSpace((dim,)),), RandomStream(367, dim), 60)
        want = oracles.ic_outcomes(family, dim)
        for f, g in zip(ic.outcomes, want, strict=True):
            assert f.provenance == g.provenance
            assert f(states).tobytes() == g(states).tobytes()
        assert not ic.projectors.flags.writeable
        assert ic.projectors.tobytes() == np.array(
            [np.outer(v, v.conj()) for v in ic_projector_states(dim)]).tobytes()
        if family == "quantum_povm":  # the stack the checker evaluates in one pass
            stacked = quadratic_forms(ic.projectors[:, None], states.amplitudes)
            assert stacked.tobytes() == np.array([g(states) for g in want]).tobytes()
            for f, q in zip(ic.outcomes, ic.projectors, strict=True):
                assert f.operator.tobytes() == q.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stacked_ensemble_densities_equal_from_ensemble(self, dim):
        space = FactorSpace((dim,))
        rng = RandomStream(359, 3)
        weights, members = opf._random_ensembles(space, rng, trials=20, members=3)
        stacked = ensemble_densities(weights, members.amplitudes.reshape(20, 3, dim))
        for row, ens in zip(stacked, oracles.estimation_ensembles(space, rng)):
            assert row.tobytes() == DensityMatrix.from_ensemble(ens).entries.tobytes()
            assert row.tobytes() == oracles.ensemble_density(ens).tobytes()

    def test_outcome_list_bound(self):
        supplied = [readout_opf(KET0)] * 65
        with pytest.raises(ValueError):
            check_estimation_assumption("readout", 2, RandomStream(331),
                                        outcome_list=supplied)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            check_estimation_assumption("telepathy", 2, RandomStream(337))

    def test_ic_values_injective_on_density_matrices(self):
        rng = RandomStream(347)
        states = ic_projector_states(2)
        projs = [np.outer(s, s.conj()) for s in states]
        for trial in range(100):
            rho = random_density_matrix(2, rng)
            sigma = random_density_matrix(2, rng)
            td = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.entries - sigma.entries)))
            if td <= 1e-3:
                continue
            va = np.array([np.trace(p @ rho.entries).real for p in projs])
            vb = np.array([np.trace(p @ sigma.entries).real for p in projs])
            assert np.max(np.abs(va - vb)) > 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_density_rows_equal_one_row_calls(self, dim):
        rng = RandomStream(361)
        states = ic_projector_states(dim)
        projs = [np.outer(s, s.conj()) for s in states]
        rhos = [random_density_matrix(dim, rng).entries for _ in range(7)]
        rows = np.array([[np.trace(p @ rho).real for p in projs] for rho in rhos])
        stacked = density_from_projector_values(states, rows, dim)
        assert stacked.shape == (7, dim, dim)
        for row, rebuilt, rho in zip(rows, stacked, rhos):
            one = density_from_projector_values(states, list(row), dim)
            assert one.shape == (dim, dim)
            assert rebuilt.tobytes() == one.tobytes()
            np.testing.assert_allclose(rebuilt, rho, atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_density_rows_equal_the_per_row_lstsq_loop(self, dim):
        rng = RandomStream(361)
        states = ic_projector_states(dim)
        projs = [np.outer(s, s.conj()) for s in states]
        rhos = [random_density_matrix(dim, rng).entries for _ in range(7)]
        rows = np.array([[np.trace(p @ rho).real for p in projs] for rho in rhos])
        want = oracles.density_rows(states, rows, dim)
        assert density_from_projector_values(states, rows, dim).tobytes() == want.tobytes()
        for row, one in zip(rows, want):
            assert density_from_projector_values(states, row, dim).tobytes() == one.tobytes()

    @pytest.mark.parametrize("family", ["quantum_povm", "spod", "erd_sevrd"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 20, 100])
    def test_family_values_fit_as_the_per_row_lstsq_loop(self, family, dim, n):
        ic = opf._ic_outcomes(family, dim)
        states = random_pure_states((FactorSpace((dim,)),), RandomStream(373, n), max(n, 1))
        values = np.array([f(states) for f in ic.outcomes]).T[:n]
        got = density_from_projector_values(ic.states, values, dim)
        want = oracles.density_rows(ic_projector_states(dim), values, dim)
        assert got.shape == want.shape == (n, dim, dim)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_fit_as_the_per_row_lstsq_loop(self, dim, bad):
        states = ic_projector_states(dim)
        rows = RandomStream(379, dim).generator.random((6, dim * dim - 1))
        rows[1, 0] = bad
        rows[4] = bad
        try:
            want = oracles.density_rows(states, rows, dim)
        except Exception as err:  # the same error type, or the same bytes
            with pytest.raises(type(err)):
                density_from_projector_values(states, rows, dim)
        else:
            assert density_from_projector_values(states, rows, dim).tobytes() == want.tobytes()

    def test_nonconverging_fit_raises_lstsqs_error(self, capfd):
        # a NaN probe makes a NaN design, whose SVD does not converge
        states = [np.array([math.nan, 1.0]), *ic_projector_states(2)[1:]]
        for fit in (oracles.density_rows, density_from_projector_values):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                fit(states, np.full((2, 3), 0.5), 2)
        capfd.readouterr()  # LAPACK's own report of the NaN argument

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_empty_value_stack_gives_an_empty_density_stack(self, dim):
        states = ic_projector_states(dim)
        got = density_from_projector_values(states, np.zeros((0, dim * dim - 1)), dim)
        assert got.shape == (0, dim, dim) and got.dtype == complex

    @pytest.mark.parametrize("shape", [(7,), (9,), (0,), (3, 7), (3, 9), (1, 2, 8), (2, 1, 8), ()])
    def test_values_of_another_shape_are_named(self, shape):
        with pytest.raises(ValueError, match=r"values must have shape \(8,\) or \(n, 8\), "
                                             + re.escape(f"got {shape}")):
            density_from_projector_values(ic_projector_states(3), np.zeros(shape), 3)

    def test_density_reconstruction_roundtrip(self):
        rng = RandomStream(349)
        for dim in (2, 3, 4):
            states = ic_projector_states(dim)
            rho = random_density_matrix(dim, rng).entries
            values = [np.trace(np.outer(s, s.conj()) @ rho).real for s in states]
            rebuilt = density_from_projector_values(states, values, dim)
            np.testing.assert_allclose(rebuilt, rho, atol=1e-9)


class TestFlatDirichlet:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("size", [1, 10])
    def test_equals_generator_dirichlet(self, k, size):
        for t in range(40):
            gen = RandomStream(383, 3).derive(t).generator
            ref = RandomStream(383, 3).derive(t).generator
            got = opf._flat_dirichlet([gen] * size, k)
            want = ref.dirichlet(np.ones(k), size=size)
            assert got.tobytes() == want.tobytes()
            # the stream is left where dirichlet leaves it
            assert gen.standard_normal(24).tobytes() == ref.standard_normal(24).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_one_row_per_generator(self, k):
        gens = list(RandomStream(389)._generators(range(20)))
        got = opf._flat_dirichlet(gens, k)
        want = [RandomStream(389).derive(t).generator.dirichlet(np.ones(k)) for t in range(20)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_one_outcome_is_weight_one_with_no_draw(self):
        gen, fresh = RandomStream(397).generator, RandomStream(397).generator
        got = opf._flat_dirichlet([gen] * 10, 1)
        assert got.shape == (10, 1) and got.tolist() == [[1.0]] * 10
        assert gen.random() == fresh.random()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("members", [2, 3, 5])
    def test_random_ensembles_equal_the_dirichlet_loop(self, dim, members):
        space = FactorSpace((dim,))
        rng = RandomStream(401, 3)
        weights, states = opf._random_ensembles(space, rng, trials=20, members=members)
        want = oracles.random_ensembles(space, rng, trials=20, members=members)
        assert weights.tobytes() == np.array(
            [[w for _, w in e.members] for e in want]).tobytes()
        assert states.amplitudes.tobytes() == np.array(
            [s.amplitudes for e in want for s, _ in e.members]).tobytes()


class TestUpdateMapFeasibility:
    def test_half_identity_is_feasible(self):
        cert = update_map_feasibility(np.eye(2) / 2, QUBIT_PROBE_STATES)
        assert cert.residual < 1e-10
        assert cert.feasible
        # the fitted map is half the identity map
        rho = random_density_matrix(2, RandomStream(353)).entries
        np.testing.assert_allclose(cert.candidate.apply(rho), rho / 2, atol=1e-10)

    def test_zero_element_is_feasible(self):
        cert = update_map_feasibility(np.zeros((2, 2)), QUBIT_PROBE_STATES)
        assert cert.residual < 1e-12

    def test_projector_element_is_infeasible(self):
        cert = update_map_feasibility(PROJ0, QUBIT_PROBE_STATES)
        assert cert.residual > 0.1
        assert not cert.feasible

    def test_minus_state_constraint_is_the_witness(self):
        # fit on {|0>,|1>,|+>,|i>}; the fitted map must then fail on |->
        cert = update_map_feasibility(PROJ0, QUBIT_PROBE_STATES)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        proj = np.outer(minus, minus.conj())
        got = cert.candidate.apply(proj)
        want = 0.5 * proj
        assert np.linalg.norm(got - want) > 0.1

    def test_insufficient_span_rejected(self):
        with pytest.raises(ValueError):
            update_map_feasibility(PROJ0, QUBIT_PROBE_STATES[:3])

    @pytest.mark.parametrize("element,message", [
        ([[0, 1], [0, 0]], "POVM element must be Hermitian"),
        (2 * np.eye(2), "POVM element must satisfy 0 <= Q <= I"),
        (-0.1 * np.eye(2), "POVM element must satisfy 0 <= Q <= I"),
        (np.ones((2, 3)), "POVM element must be a nonempty square matrix"),
    ])
    def test_element_takes_the_quantum_opf_checks(self, element, message):
        for build in (lambda: update_map_feasibility(element, QUBIT_PROBE_STATES),
                      lambda: opf_from_quantum(element)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_probes_must_match_the_element_dimension(self):
        with pytest.raises(ValueError, match="probe states do not match the element's dimension"):
            update_map_feasibility(np.eye(3) / 2, QUBIT_PROBE_STATES)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_equals_per_probe_loop(self, dim):
        rng = RandomStream(367, experiment=dim)
        space = FactorSpace((dim,))
        canonical = [PureState.normalized(space, v) for v in opf.canonical_probe_states(dim)]
        for case in range(30):
            element = random_density_matrix(dim, rng.derive(case)).entries * (case % 3) / 2
            extra = [random_pure_state(space, rng.derive(100 + case)) for _ in range(case % 4)]
            probes = canonical + extra
            cert = update_map_feasibility(element, probes)
            residual, matrix = oracles.update_map_fit(element, probes)
            assert cert.residual == residual
            assert cert.candidate.matrix.tobytes() == matrix.tobytes()

    def test_candidate_map_is_linear_by_representation(self):
        cert = update_map_feasibility(np.eye(2) / 2, QUBIT_PROBE_STATES)
        rng = RandomStream(359)
        a = random_density_matrix(2, rng).entries
        b = random_density_matrix(2, rng).entries
        combined = cert.candidate.apply(0.3 * a + 0.7 * b)
        split = 0.3 * cert.candidate.apply(a) + 0.7 * cert.candidate.apply(b)
        np.testing.assert_allclose(combined, split, atol=1e-12)


class TestVectorisedHermitianCoords:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_equals_scalar_oracle_on_non_hermitian_matrices(self, dim):
        gen = np.random.default_rng(dim)
        for _ in range(5):
            m = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
            assert np.array_equal(hermitian_coords(m), oracles.hermitian_coords(m))
        real = gen.normal(size=(dim, dim))
        assert np.array_equal(hermitian_coords(real), oracles.hermitian_coords(real))

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_stack_equals_scalar_oracle_entrywise(self, dim):
        gen = np.random.default_rng(100 + dim)
        stack = gen.normal(size=(3, 2, dim, dim)) + 1j * gen.normal(size=(3, 2, dim, dim))
        coords = hermitian_coords(stack)
        assert coords.shape == (3, 2, dim * dim)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(coords[idx], oracles.hermitian_coords(stack[idx]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_from_coords_equals_scalar_sum_and_inverts(self, dim):
        gen = np.random.default_rng(200 + dim)
        x = gen.normal(size=dim * dim)
        assert np.array_equal(hermitian_from_coords(x), oracles.hermitian_matrix(x))
        stack = gen.normal(size=(4, dim * dim))
        for row, matrix in zip(stack, hermitian_from_coords(stack)):
            assert np.array_equal(matrix, oracles.hermitian_matrix(row))
        h = random_density_matrix(dim, RandomStream(dim)).entries
        assert np.max(np.abs(hermitian_from_coords(hermitian_coords(h)) - h)) < 1e-12


SPACES = [FactorSpace((2, 2)), FactorSpace((2, 3)), FactorSpace((2, 2, 2))]


def _states(space, seed, n=12):
    return [random_pure_state(space, RandomStream(seed, trial=t)) for t in range(n)]


def _per_outcome(measurement, states):
    return np.array([[f(psi) for f in measurement.outcomes] for psi in states])


class TestOutcomeVectors:
    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_entropy_meter_equals_scalar_oracle_exactly(self, space):
        meter = entropy_meter_measurement(space, (0,), precision=3)
        spec = DeviceSpec("EntropyMeter", {"alpha": 1.0, "precision": 3})
        states = _states(space, 401)
        want = np.array([[oracles.selected_probability(spec, psi, (0,), RealValue(v))
                          for v in entropy_outcome_values(2, 3)] for psi in states])
        got = meter.probabilities(states)
        assert got.shape == (len(states), len(meter.outcomes))
        assert np.array_equal(got, want)
        assert np.array_equal(got, _per_outcome(meter, states))

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_quantum_povm_matches_quadratic_forms(self, space):
        b = random_povm_element(space.total_dim, RandomStream(409))
        elements = (b, np.eye(space.total_dim) - b)
        measurement = FullMeasurement.from_povm(POVMSet(elements), space)
        states = _states(space, 419)
        want = np.array([[quadratic_form(q, psi.amplitudes) for q in elements]
                         for psi in states])
        assert np.max(np.abs(measurement.probabilities(states) - want)) < 1e-12

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_mixed_measurement_matches_scalar_mixture(self, space):
        b = random_povm_element(space.total_dim, RandomStream(421))
        elements = (b, np.eye(space.total_dim) - b)
        quantum = FullMeasurement.from_povm(POVMSet(elements), space)
        meter = entropy_meter_measurement(space, (0,), precision=2)
        spec = DeviceSpec("EntropyMeter", {"alpha": 1.0, "precision": 2})
        mixed = mix_measurements(meter, quantum, 0.3, pairing=[(0, 1)])
        states = _states(space, 431)
        values = entropy_outcome_values(2, 2)
        for psi, got in zip(states, mixed.probabilities(states)):
            dev = [oracles.selected_probability(spec, psi, (0,), RealValue(v)) for v in values]
            q = [quadratic_form(e, psi.amplitudes) for e in elements]
            want = [0.3 * dev[0] + 0.7 * q[1]] + [0.3 * p for p in dev[1:]] + [0.7 * q[0]]
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(mixed.probabilities(states) - _per_outcome(mixed, states))) < 1e-12

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_composed_measurements_match_base_on_transformed_states(self, space):
        rng = RandomStream(433)
        meter = entropy_meter_measurement(space, (0,), precision=3)
        u = random_unitary(space.total_dim, rng)
        rotated = FullMeasurement(tuple(compose_unitary(f, u) for f in meter.outcomes))
        states = _states(space, 439)
        moved = [PureState.normalized(space, u @ psi.amplitudes) for psi in states]
        assert np.max(np.abs(rotated.probabilities(states)
                             - meter.probabilities(moved))) < 1e-12

        lead = FactorSpace(space.dims[:-1])
        phi = random_pure_state(FactorSpace(space.dims[-1:]), rng)
        joined = FullMeasurement(tuple(compose_system(f, phi) for f in meter.outcomes))
        lead_states = _states(lead, 443)
        assert np.max(np.abs(
            joined.probabilities(lead_states)
            - meter.probabilities([tensor_product(psi, phi) for psi in lead_states]))) < 1e-12

    def test_space_mismatch_rejected(self):
        meter = entropy_meter_measurement(TWO_QUBITS, (0,), precision=2)
        with pytest.raises(ValueError):
            meter.probabilities([KET0])


class TestStackedEntropyMeter:
    @pytest.mark.parametrize("space", SPACES + [FactorSpace((4, 4))], ids=str)
    @pytest.mark.parametrize("alpha,precision", [(1.0, None), (1.0, 3), (2.0, None), (0.5, 4)])
    def test_readings_equal_single_state_oracle_exactly(self, space, alpha, precision):
        states = _states(space, 461)
        for n in range(1, space.n_factors + 1):
            for target in itertools.combinations(range(space.n_factors), n):
                spec = DeviceSpec("EntropyMeter", {"alpha": alpha, "precision": precision})
                got = spec.table(states, target)
                want = [oracles.entropy_reading(psi.amplitudes, space.dims, target,
                                                alpha, precision) for psi in states]
                assert got.types == (RealValue,)
                assert got.values[:, 0].tolist() == want
                assert spec.distribution(states, target) == [
                    spec.distribution(psi, target) for psi in states]

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec("EntropyMeter").table(
                [BELL, random_pure_state(FactorSpace((2, 3)), RandomStream(1))], (0,))


class TestDistributionCounts:
    """A device-backed measurement evaluates its device once per state.

    Every kind passes whole stacks of states to ``DeviceSpec.table``, one
    call per stack; a per-state ``DeviceSpec.distribution`` call would be
    counted too.  The counters record every state either one evaluates, and
    ``tables`` the size of each stack.
    """

    @pytest.fixture
    def tables(self):
        return []

    @pytest.fixture
    def evaluated(self, monkeypatch, tables):
        seen = []
        single, stacked = DeviceSpec.distribution, DeviceSpec.table

        def distribution(self, state, target):
            seen.append(state.amplitudes.tobytes())
            return single(self, state, target)

        def table(self, states, target):
            seen.extend(psi.amplitudes.tobytes() for psi in states)
            tables.append(len(states))
            return stacked(self, states, target)

        monkeypatch.setattr(DeviceSpec, "distribution", distribution)
        monkeypatch.setattr(DeviceSpec, "table", table)
        return seen

    def test_meter_construction_evaluates_one_probe(self, evaluated):
        meter = entropy_meter_measurement(FactorSpace((4, 4)), (0,), precision=8)
        assert len(meter.outcomes) == 513
        assert len(evaluated) == 1

    def test_closure_evaluates_each_distinct_state_once(self, evaluated):
        meter = entropy_meter_measurement(TWO_QUBITS, (0,), precision=3)
        evaluated.clear()
        samples = 20
        report = check_closure(meter, samples, RandomStream(449))
        assert report.passed
        # random states, 10 unitary rotations and 10 backgrounds of 10 probes
        assert len(evaluated) == samples + 10 * samples + 10 * 10
        assert len(set(evaluated)) == len(evaluated)

    def test_povm_measurement_runs_its_device_once_per_state(self, evaluated, tables):
        spec = DeviceSpec("PovmSampler", {"povm": POVMSet(tuple(
            np.diag(row).astype(complex) for row in np.eye(4)))})
        selectors = [IntegerLabel(i) for i in range(1, 5)]
        measurement = device_measurement(spec, selectors, TWO_QUBITS, (0, 1))
        assert len(evaluated) == 1
        states = _states(TWO_QUBITS, 457)
        values = measurement.probabilities(states)
        assert len(evaluated) == 1 + len(states)
        assert tables == [1, len(states)]
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-12

    def test_closure_on_a_povm_device_makes_one_table_call_per_stack(self, evaluated,
                                                                     tables):
        b = random_povm_element(2, RandomStream(459))
        spec = DeviceSpec("PovmSampler", {"povm": POVMSet((b, np.eye(2) - b))})
        measurement = device_measurement(spec, [IntegerLabel(1), IntegerLabel(2)],
                                         TWO_QUBITS, (0,))
        tables.clear()
        evaluated.clear()
        report = check_closure(measurement, 30, RandomStream(461))
        assert report.passed
        # the sampled states, then one stack each of the 10 rotations of 30
        # probes and of the 10 backgrounds of 10
        assert tables == [30, 300, 100]
        assert len(evaluated) == sum(tables)


def _value_error(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


NON_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]])
NEGATIVE = -0.1 * np.eye(2)
ABOVE_I = 1.5 * np.eye(2)


class TestStackedElementCheck:
    """``from_povm`` checks its elements as one stack, with the checks, the
    messages and the first bad element of the one-element loop, and gives
    the loop's outcomes."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_outcomes_equal_the_element_loop(self, dim):
        rng = RandomStream(811, dim)
        b, c = random_povm_element(dim, rng, 0.5), random_povm_element(dim, rng, 0.4)
        povm = POVMSet((b, c, np.eye(dim) - b - c))
        spaces = [FactorSpace((dim,))] + ([FactorSpace((2, dim // 2))] if dim in (4, 8) else [])
        for space in spaces:
            states = random_pure_states((space,), rng.derive(1), 40)
            got, want = FullMeasurement.from_povm(povm, space), oracles.from_povm(povm, space)
            assert got.probabilities(states).tobytes() == want.probabilities(states).tobytes()
            for f, g in zip(got.outcomes, want.outcomes, strict=True):
                assert (f.space, f.provenance) == (g.space, g.provenance)
                assert f.operator.tobytes() == g.operator.tobytes()
                assert f(states).tobytes() == g(states).tobytes()
                assert [f(psi) for psi in states] == [g(psi) for psi in states]

    @pytest.mark.parametrize("elements,message", [
        ((PROJ0, NON_HERMITIAN), "POVM element must be Hermitian"),
        ((NEGATIVE, np.eye(2) - NEGATIVE), "POVM element must satisfy 0 <= Q <= I"),
        ((ABOVE_I, np.eye(2) - ABOVE_I), "POVM element must satisfy 0 <= Q <= I"),
        ((PROJ0, NON_HERMITIAN, NEGATIVE), "POVM element must be Hermitian"),
        ((PROJ0, NEGATIVE, NON_HERMITIAN), "POVM element must satisfy 0 <= Q <= I"),
        ((PROJ0, ABOVE_I, np.diag([math.nan, 1.0])), "POVM element must satisfy 0 <= Q <= I"),
        ((np.diag([math.inf, 0.0]), NEGATIVE), "POVM element must be Hermitian"),
        ((PROJ0, np.diag([0.0, -math.inf])), "POVM element must be Hermitian"),
    ])
    def test_bad_stacks_raise_the_first_bad_elements_error(self, elements, message):
        stack = np.array(elements, dtype=complex)
        stack.setflags(write=False)
        povm = POVMSet._trusted(stack)  # past POVMSet's own checks
        assert _value_error(lambda: opf._povm_elements(stack)) == message
        assert _value_error(lambda: FullMeasurement.from_povm(povm, QUBIT)) == message
        assert _value_error(lambda: oracles.from_povm(povm, QUBIT)) == message

    def test_space_must_match_the_elements(self):
        povm = POVMSet((PROJ0, np.eye(2) - PROJ0))
        for build in (FullMeasurement.from_povm, oracles.from_povm):
            with pytest.raises(ValueError, match="^declared space does not match"):
                build(povm, TWO_QUBITS)


class TestStackedQuadraticForm:
    """A list or a stack of states goes through one stacked <psi|Q|psi> that
    equals the original one-state np.vdot(psi, Q @ psi) exactly, through
    every closure constructor that builds on it."""

    @staticmethod
    def _setup(dim, seed):
        rng = RandomStream(seed)
        space = FactorSpace((dim,))
        elements = [random_povm_element(dim, rng, scale) for scale in (0.8, 0.5, 0.3)]
        states = [random_pure_state(space, rng) for _ in range(40)]
        return rng, space, elements, states

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_quantum_opf_and_from_povm(self, dim):
        rng, space, (b, _, _), listed = self._setup(dim, 500 + dim)
        for states in (listed, StateStack.of(listed)):  # a list, then a stack
            elements = (b, np.eye(dim) - b)
            measurement = FullMeasurement.from_povm(POVMSet(elements), space)
            want = np.array([[oracles.quadratic_value(q, psi.amplitudes) for q in elements]
                             for psi in states])
            assert np.array_equal(measurement.probabilities(states), want)
            for j, f in enumerate(measurement.outcomes):
                assert np.array_equal(f.values(states), want[:, j])
                assert [f(psi) for psi in states] == want[:, j].tolist()
            assert np.array_equal(FullMeasurement(measurement.outcomes).probabilities(states),
                                  want)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_mixture(self, dim):
        rng, space, elements, listed = self._setup(dim, 510 + dim)
        for states in (listed, StateStack.of(listed)):  # a list, then a stack
            weights = [0.2, 0.5, 0.3]
            mixed = mix([opf_from_quantum(q, space) for q in elements], weights)
            w = np.asarray(weights, dtype=float)
            want = [float(sum(wi * oracles.quadratic_value(q, psi.amplitudes)
                              for wi, q in zip(w, elements))) for psi in states]
            assert mixed.values(states).tolist() == want
            assert [mixed(psi) for psi in states] == want

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_unitary_composition(self, dim):
        rng, space, (q, _, _), listed = self._setup(dim, 520 + dim)
        for states in (listed, StateStack.of(listed)):  # a list, then a stack
            u = random_unitary(dim, rng)
            composed = compose_unitary(opf_from_quantum(q, space), u)
            want = [oracles.quadratic_value(
                q, oracles.normalized_amplitudes(u @ psi.amplitudes)) for psi in states]
            assert composed.values(states).tolist() == want
            assert [composed(psi) for psi in states] == want

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_system_composition(self, dim):
        rng, space, _, listed = self._setup(dim, 530 + dim)
        for states in (listed, StateStack.of(listed)):  # a list, then a stack
            q = random_povm_element(2 * dim, rng)
            phi = random_pure_state(QUBIT, rng)
            composed = compose_system(opf_from_quantum(q, FactorSpace((dim, 2))), phi)
            want = [oracles.quadratic_value(q, oracles.tensor_amplitudes(psi.amplitudes,
                                                                         phi.amplitudes))
                    for psi in states]
            assert composed.space == space
            assert composed.values(states).tolist() == want
            assert [composed(psi) for psi in states] == want

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_on_ensemble(self, dim):
        rng, space, (q, _, _), states = self._setup(dim, 540 + dim)
        f = opf_from_quantum(q, space)
        ensembles = [Ensemble(tuple(zip(states[i:i + 3], (0.2, 0.3, 0.5))))
                     for i in range(0, 30, 3)]
        want = [sum(w * oracles.quadratic_value(q, s.amplitudes) for s, w in ens.members)
                for ens in ensembles]
        assert f.on_ensembles(ensembles) == want
        assert [f.on_ensemble(ens) for ens in ensembles] == want

    def test_values_reject_a_state_on_a_foreign_space(self):
        for f in (opf_from_quantum(PROJ0), constant_opf(QUBIT, 0.5),
                  entropy_meter_measurement(QUBIT, (0,), precision=2).outcomes[0]):
            with pytest.raises(ValueError, match="state space does not match"):
                f.values([KET0, BELL])
            with pytest.raises(ValueError, match="state space does not match"):
                f(BELL)
            with pytest.raises(ValueError, match="state space does not match"):
                f([KET0, BELL])
            with pytest.raises(ValueError, match="state space does not match"):
                f(StateStack.of([BELL]))
            assert f.values([]).shape == (0,)
            assert f.values(StateStack.of([], QUBIT)).shape == (0,)

    def test_calling_on_a_list_is_values(self):
        rng, space, (q, _, _), states = self._setup(4, 547)
        for f in (opf_from_quantum(q, space), constant_opf(space, 0.25),
                  entropy_meter_measurement(space, (0,), precision=2).outcomes[1]):
            want = f.values(states)
            assert np.array_equal(f(states), want)
            assert np.array_equal(f(tuple(states)), want)
            one = f(states[3])
            assert type(one) is float and one == want[3]


def _table(types, values, probs, precision=None):
    return DistributionTable(tuple(types), np.array(values), np.array(probs, dtype=float),
                             precision)


class TestOutcomeSelectionMatrix:
    """The (n, k) matrix read off a table equals the tuple walk that read the
    table's list view, byte for byte, and the original per-distribution loop
    exactly, including the order in which repeated branches are added."""

    @staticmethod
    def _check(spec, selectors, table):
        selection = OutcomeSelection(spec, selectors)
        rows = table.rows()
        want = np.array([oracles.selection_probabilities(spec, selectors, dist)
                         for dist in rows]).reshape(len(rows), -1)
        got = selection.matrix(table)
        assert got.tobytes() == oracles.selection_matrix(spec, selectors, rows).tobytes()
        assert np.array_equal(got, want)
        for r in range(len(table)):  # each row alone, as a one-row table
            values = table.values if len(table.values) == 1 else table.values[r:r + 1]
            row = DistributionTable(table.types, values, table.probabilities[r:r + 1],
                                    table.precision)
            assert selection.matrix(row)[0].tobytes() == got[r].tobytes()

    def test_multi_branch_and_mixed_type_distributions(self):
        spec = DeviceSpec("EigenvalueSampler", {"observable": np.diag([0.0, 1.0])})
        selectors = [IntegerLabel(1), IntegerLabel(2), Overflow(), RealValue(0.25), Bit(1),
                     RealValue(0.5), RealValue(123.0), RealValue(0.5 + 8e-10),
                     RealValue(0.25 + 1e-9), RealValue(math.nan), IntegerLabel(7)]
        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): the order of addition shows
        self._check(spec, selectors, _table(
            [IntegerLabel] * 3 + [Overflow], [[1, 1, 1, 0], [2, 1, 2, 0]],
            [[0.1, 0.2, 0.3, 0.4], [0.3, 0.2, 0.1, 0.4]]))
        # 0.25 + 5e-10 is within the tolerance of two selectors, and 0.5 + 4e-10 too
        self._check(spec, selectors, _table(
            [RealValue] * 3, [[0.25, 0.25 + 5e-10, 0.5], [0.5 + 4e-10, 0.5 - 1e-9, 0.25]],
            [[0.7, 0.1, 0.2], [0.3, 0.3, 0.4]]))
        self._check(spec, selectors, _table([Bit], [[1], [0]], [[1.0], [1.0]]))
        self._check(spec, selectors, _table([], np.zeros((2, 0)), np.zeros((2, 0))))
        gen = np.random.default_rng(5)
        pool = {RealValue: [0.25, 0.25 + 5e-10, 0.25 + 1e-9, 0.25 + 2e-9, 0.5, 0.5 + 8e-10,
                            0.5 + 9e-10, 123.0 - 1e-9, 7.0],
                IntegerLabel: [1, 2, 7, -3], Bit: [0, 1], Overflow: [0]}
        kinds = list(pool)
        for _ in range(20):
            types = [kinds[i] for i in gen.integers(0, len(kinds), 12)]
            values = [[pool[t][gen.integers(len(pool[t]))] for t in types] for _ in range(3)]
            values = np.array(values, dtype=object if IntegerLabel in types else float)
            probs = gen.dirichlet(np.ones(12), size=3)
            self._check(spec, selectors, DistributionTable(tuple(types), values, probs))

    def test_device_distributions(self):
        rng = RandomStream(601)
        space = FactorSpace((2, 3))
        states = [random_pure_state(space, rng) for _ in range(20)]
        obs = np.diag([0.0, 0.1, 0.3])
        povm = POVMSet((np.diag([0.5, 0.5, 0.0]), np.diag([0.5, 0.25, 0.5]),
                        np.diag([0.0, 0.25, 0.5])))
        cases = [
            (DeviceSpec("EigenvalueSampler", {"observable": obs, "precision": 1}),
             [RealValue(0.0), RealValue(0.5), RealValue(7.0)], (1,)),  # 0 and 0.1 read 0
            (DeviceSpec("EigenvalueSampler", {"observable": obs, "variant": "finite",
                                              "max_label": 1}),
             [IntegerLabel(0), IntegerLabel(1), Overflow(), RealValue(0.3)], (1,)),
            (DeviceSpec("PovmSampler", {"povm": povm, "max_label": 2}),
             [IntegerLabel(2), Overflow(), IntegerLabel(1)], (1,)),
            (DeviceSpec("BasisSelect", {"sharpness": 2.0}),
             [IntegerLabel(i) for i in range(3)], (1,)),
            (DeviceSpec("Readout"),
             [MatrixDescription(states[0].density()), MatrixDescription(np.eye(6) / 6),
              MatrixDescription(states[1].density() + 5e-10),
              MatrixDescription(states[2].density(), precision=3)], (0, 1)),
            (DeviceSpec("Readout", {"precision": 2}),
             [MatrixDescription(quantize_matrix(states[3].density(), 2), precision=2),
              MatrixDescription(np.eye(3) / 3, precision=2)], (0, 1)),
            (DeviceSpec("EntropyMeter", {"precision": 3}),
             [RealValue(v) for v in entropy_outcome_values(2, 3)] + [RealValue(0.0625)],
             (0,)),
        ]
        for spec, selectors, target in cases:
            self._check(spec, selectors, spec.table(states, target))

    def test_illegal_selector_raises_the_same_message(self):
        spec = DeviceSpec("PovmSampler", {"povm": POVMSet((np.eye(2) / 2, np.eye(2) / 2))})
        for selectors in ([IntegerLabel(1), Bit(0), RealValue(0.5)],
                          [IntegerLabel(1), IntegerLabel(3), Bit(0)],
                          [Overflow(), IntegerLabel(2)],
                          [MatrixDescription(np.eye(2) / 2), IntegerLabel(1)]):
            table = spec.table([KET0, PLUS], (0,))
            with pytest.raises(ValueError) as want:
                oracles.selection_probabilities(spec, selectors, table.rows()[0])
            with pytest.raises(ValueError) as walk:
                oracles.selection_matrix(spec, selectors, table.rows())
            with pytest.raises(ValueError) as got:
                OutcomeSelection(spec, selectors).matrix(table)
            assert str(got.value) == str(want.value) == str(walk.value)
        assert "Bit(value=0)" in str(
            pytest.raises(ValueError, OutcomeSelection(spec, [Bit(0)]).matrix,
                          spec.table(KET0, (0,))).value)

    def test_513_outcome_meter_equals_the_tuple_walk(self):
        """A 513-outcome meter on 300 states: one table, one matrix."""
        space = FactorSpace((4, 4))
        meter = entropy_meter_measurement(space, (0,), precision=8)
        states = StateStack.of([random_pure_state(space, RandomStream(617, 0, t))
                                for t in range(300)])
        spec = DeviceSpec("EntropyMeter", {"alpha": 1.0, "precision": 8})
        selectors = [RealValue(v) for v in entropy_outcome_values(4, 8)]
        table = spec.table(states, (0,))
        want = oracles.selection_matrix(spec, selectors, table.rows())
        assert meter.probabilities(states).tobytes() == want.tobytes()


class TestStackedCallers:
    """Checkers evaluate whole probe lists, on the states the old loops built."""

    def test_closure_states_equal_the_per_state_loop(self):
        b = random_povm_element(4, RandomStream(607))
        base = FullMeasurement.from_povm(POVMSet((b, np.eye(4) - b)), TWO_QUBITS)
        seen = []

        def record(states):
            seen.append([psi.amplitudes for psi in states])
            return base.probabilities(states)

        samples, rng = 60, RandomStream(613, 3)
        report = check_closure(FullMeasurement(base.outcomes, record), samples, rng)
        assert report.passed

        # the original loop: per-trial states, rotated probes, background
        # products; its 21 lists are the 3 stacks, concatenated in order
        states = [random_pure_state(TWO_QUBITS, rng.derive(t)) for t in range(samples)]
        aux = rng.derive(samples + 1)
        probes = states[:50]
        for _ in range(10):
            aux.generator.dirichlet(np.ones(2))
        rotated = []
        for _ in range(10):
            u = random_unitary(4, aux)
            rotated += [PureState.normalized(TWO_QUBITS, u @ psi.amplitudes) for psi in probes]
        lead_probes = [random_pure_state(QUBIT, aux) for _ in range(10)]
        products = []
        for _ in range(10):
            phi = random_pure_state(QUBIT, aux)
            products += [tensor_product(psi, phi) for psi in lead_probes]
        want = [states, rotated, products]
        assert len(seen) == len(want)
        for got_list, want_list in zip(seen, want):
            assert b"".join(got.tobytes() for got in got_list) == b"".join(
                state.amplitudes.tobytes() for state in want_list)

    def test_product_form_witness_reads_the_meter_once(self, monkeypatch):
        f0 = entropy_meter_measurement(TWO_QUBITS, (0,), precision=3).outcomes[0]
        calls = []
        stacked = DeviceSpec.table

        def table(self, states, target):
            calls.append(len(states))
            return stacked(self, states, target)

        monkeypatch.setattr(DeviceSpec, "table", table)
        cert = product_form_witness(f0)
        assert cert.verdict == "VIOLATION"
        assert calls == [cert.probe_count]
        with pytest.raises(ValueError, match="state space does not match"):
            product_form_witness(f0, extra_probes=[KET0])

    def test_povm_closure_makes_no_single_state_calls(self, monkeypatch):
        calls = []
        evaluate = OPF.__call__

        def call(self, states):
            calls.append(states)
            return evaluate(self, states)

        monkeypatch.setattr(OPF, "__call__", call)
        povm = POVMSet(tuple(np.diag(row).astype(complex) for row in np.eye(4)))
        report = check_closure(FullMeasurement.from_povm(povm, TWO_QUBITS), 100,
                               RandomStream(617, 3))
        assert report.passed
        # each outcome once per stack: the random states, the 10 rotations of
        # 50 probes, the 10 backgrounds of 10
        assert [len(states) for states in calls] == [100] * 4 + [500] * 4 + [100] * 4
        assert not any(isinstance(states, PureState) for states in calls)

    def test_povm_closure_builds_no_row_states(self, monkeypatch):
        # the stacks flow from the constructors to the quadratic forms as
        # arrays: no state is taken out of a stack as a PureState row
        rows = []
        trusted = PureState._trusted

        def spy(cls, space, amplitudes):
            rows.append(amplitudes)
            return trusted(space, amplitudes)

        monkeypatch.setattr(PureState, "_trusted", classmethod(spy))
        povm = POVMSet(tuple(np.diag(row).astype(complex) for row in np.eye(4)))
        report = check_closure(FullMeasurement.from_povm(povm, TWO_QUBITS), 100,
                               RandomStream(1, 3))
        assert report.passed
        assert rows == []
        list(StateStack.of([KET0, KET1]))  # the spy sees rows that are made
        assert len(rows) == 2


CLOSURE_SPACES = [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]


def _closure_measurements(space):
    """A quantum POVM, the entropy meter, a PovmSampler device, a one-outcome
    measurement, and the POVM stretched out of range, whose violations are
    not zero, without and with NaN rows."""
    dim, lead = space.total_dim, space.dims[0]
    b = random_povm_element(dim, RandomStream(701, dim))
    quantum = FullMeasurement.from_povm(POVMSet((b, np.eye(dim) - b)), space)
    c = random_povm_element(lead, RandomStream(703, lead))
    spec = DeviceSpec("PovmSampler", {"povm": POVMSet((c, np.eye(lead) - c))})

    def stretched(states):
        return 1.3 * quantum.probabilities(states) - 0.1

    def with_nan(states):
        values = stretched(states)
        values[StateStack.of(states).amplitudes[:, 0].real > 0.6] = np.nan
        return values

    return {
        "quantum": quantum,
        "entropy_meter": entropy_meter_measurement(space, (0,), precision=3),
        "povm_device": device_measurement(spec, [IntegerLabel(1), IntegerLabel(2)],
                                          space, (0,)),
        "one_outcome": FullMeasurement((opf_from_quantum(np.eye(dim), space),)),
        "stretched": FullMeasurement(quantum.outcomes, stretched),
        "with_nan": FullMeasurement(quantum.outcomes, with_nan),
    }


class TestStackedClosure:
    """``check_closure`` evaluates each property as one stack, and reads the
    same records off it as the per-property loop of ``oracles.check_closure``."""

    @staticmethod
    def _recorded(measurement):
        seen = []

        def evaluate(states):
            seen.append(StateStack.of(states).amplitudes.tobytes())
            return measurement.probabilities(states)

        return FullMeasurement(measurement.outcomes, evaluate), seen

    @pytest.mark.parametrize("samples", [1, 7, 50, 100])
    @pytest.mark.parametrize("dims", CLOSURE_SPACES, ids=str)
    def test_records_and_stacks_equal_the_loop(self, dims, samples):
        from pqsim.cli import format_record

        space = FactorSpace(dims)
        for name, measurement in _closure_measurements(space).items():
            stacked, stacked_seen = self._recorded(measurement)
            looped, looped_seen = self._recorded(measurement)
            got = check_closure(stacked, samples, RandomStream(709, samples))
            want = oracles.check_closure(looped, samples, RandomStream(709, samples))
            assert repr(got) == repr(want), name
            assert format_record(got.record_fields()) == format_record(want.record_fields())
            assert len(stacked_seen) == (3 if space.n_factors >= 2 else 2)
            assert b"".join(stacked_seen) == b"".join(looped_seen), name

    def test_stretched_measurement_reports_its_violations(self):
        report = check_closure(_closure_measurements(TWO_QUBITS)["stretched"], 50,
                               RandomStream(711))
        assert min(report.completeness_violation, report.mixture_violation,
                   report.unitary_violation, report.composition_violation) > 0.0
        assert not report.passed

    @pytest.mark.parametrize("row", [3, 25, 260])
    def test_nan_in_one_rotated_row_fails_the_check(self, row):
        # rows 3 and 25 lie in the first rotation's block, 3 also among its
        # range-checked probes; row 260 lies in the sixth block
        from pqsim.cli import format_record

        quantum = FullMeasurement.from_povm(POVMSet(tuple(np.diag(e) for e in np.eye(4))),
                                            TWO_QUBITS)
        calls = []

        def evaluate(states):
            values = quantum.probabilities(states).copy()
            calls.append(len(values))
            if len(calls) == 2:  # the rotated probes
                values[row, 1] = np.nan
            return values

        report = check_closure(FullMeasurement(quantum.outcomes, evaluate), 100,
                               RandomStream(5))
        assert calls[1] == 500
        assert report.completeness_violation < 1e-12
        assert report.mixture_violation < 1e-12 and report.composition_violation < 1e-12
        assert math.isnan(report.unitary_violation) and math.isnan(report.max_violation)
        assert not report.passed
        fields = format_record(report.record_fields()).split()
        assert {"unitary_violation=nan", "max_violation=nan", "passed=false"} <= set(fields)

    @pytest.mark.parametrize("position", range(4))
    def test_max_violation_is_nan_wherever_the_nan_is(self, position):
        parts = [0.0, 1e-12, 2e-12, 1e-13]
        parts[position] = math.nan
        report = opf.ClosureReport(10, *parts)
        assert math.isnan(report.max_violation)
        assert not report.passed
        assert opf.ClosureReport(10, *parts[:3], None).passed == (position == 3)

    @pytest.mark.parametrize("samples", [True, False, 2.5, 3.0, "5", None, 0, -1])
    def test_samples_must_be_a_positive_integer(self, samples):
        measurement = FullMeasurement.from_povm(POVMSet((PROJ0, np.eye(2) - PROJ0)), QUBIT)
        with pytest.raises(ValueError, match="^samples must be"):
            check_closure(measurement, samples, RandomStream(713))

    def test_numpy_integer_samples(self):
        measurement = FullMeasurement.from_povm(POVMSet((PROJ0, np.eye(2) - PROJ0)), QUBIT)
        got = check_closure(measurement, np.int64(3), RandomStream(717))
        assert type(got.samples) is int
        assert got == check_closure(measurement, 3, RandomStream(717))


class TestBlockedProjectorDesign:
    """The projector design, built ``_DESIGN_BLOCK`` rows at a time, equals
    the one-stack design bit for bit, at every row count about a block edge."""

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_equals_the_one_stack_design(self, dim):
        block = opf._DESIGN_BLOCK
        gen = np.random.default_rng(dim)
        for n in (0, 1, block - 1, block, block + 1, 529):
            amps = gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim))
            got = opf._projector_design(amps)
            want = oracles.projector_design(amps)
            assert got.shape == want.shape == (n, dim * dim)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 4, 9, 16])
    def test_witness_design_equals_the_one_stack_design(self, dim):
        amps, design = opf._witness_design(dim)
        assert design.tobytes() == oracles.projector_design(amps).tobytes()


def _columns_equal(measurement, states):
    """Each outcome OPF's values equal its column of ``probabilities`` bit for bit."""
    probs = measurement.probabilities(states)
    assert probs.shape == (len(states), len(measurement.outcomes))
    for column, f in zip(probs.T, measurement.outcomes):
        assert f.values(states).tobytes() == column.tobytes()


class TestOutcomeColumns:
    """A device outcome OPF evaluates only its own column, through a
    one-selector selection made when it is evaluated."""

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_entropy_meter(self, d, m):
        factor, space = FactorSpace((d,)), FactorSpace((d, d))
        rng = RandomStream(701, d, m)
        meter = entropy_meter_measurement(space, (0,), precision=m)
        bell = PureState(space, np.eye(d).reshape(-1) / math.sqrt(d))
        products = random_pure_states((factor, factor), rng.derive(0), 16)
        entangled = StateStack.of([bell, *random_pure_states((space,), rng.derive(1), 16)])
        for states in (products, entangled):
            _columns_equal(meter, states)

    @pytest.mark.parametrize("family", ["spod", "erd_sevrd"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_ic_outcomes(self, family, dim):
        space = FactorSpace((dim,))
        states = random_pure_states((space,), RandomStream(703, dim), 30)
        outcomes = opf._ic_outcomes(family, dim).outcomes
        assert len(outcomes) == dim * dim - 1
        for vec, f in zip(ic_projector_states(dim), outcomes):
            proj = np.outer(vec, vec.conj())
            if family == "spod":
                spec = DeviceSpec("PovmSampler", {"povm": POVMSet((proj, np.eye(dim) - proj))})
                selectors = [IntegerLabel(1), IntegerLabel(2)]
            else:
                spec = DeviceSpec("EigenvalueSampler", {"observable": proj, "variant": "bit"})
                selectors = [Bit(1), Bit(0)]
            measurement = device_measurement(spec, selectors, space, space.indices())
            _columns_equal(measurement, states)
            assert f.values(states).tobytes() == measurement.probabilities(
                states)[:, 0].tobytes()

    def test_readout(self):
        space = FactorSpace((2, 3))
        rng = RandomStream(707)
        states = StateStack.of([random_pure_state(space, rng) for _ in range(12)])
        _columns_equal(device_measurement(DeviceSpec("Readout"), [
            MatrixDescription(states[0].density()), MatrixDescription(np.eye(6) / 6),
            MatrixDescription(states[1].density() + 5e-10),
            MatrixDescription(states[2].density(), precision=3)], space, (0, 1)), states)
        rho = DeviceSpec("Readout", {"precision": 2}).distribution(states[3], (0,))[0][0]
        _columns_equal(device_measurement(DeviceSpec("Readout", {"precision": 2}), [
            rho, MatrixDescription(np.eye(2) / 2, precision=2)], space, (0,)), states)
        phi = states[4]
        want = device_measurement(DeviceSpec("Readout"), [MatrixDescription(phi.density())],
                                  space, space.indices()).probabilities(states)[:, 0]
        assert readout_opf(phi).values(states).tobytes() == want.tobytes()
        assert readout_opf(phi)(phi) == 1.0

    def test_povm_sampler_with_max_label(self):
        povm = POVMSet((np.diag([0.5, 0.5, 0.0]), np.diag([0.5, 0.25, 0.5]),
                        np.diag([0.0, 0.25, 0.5])))
        spec = DeviceSpec("PovmSampler", {"povm": povm, "max_label": 2})
        space = FactorSpace((2, 3))
        states = random_pure_states((space,), RandomStream(709), 20)
        measurement = device_measurement(
            spec, [IntegerLabel(2), Overflow(), IntegerLabel(1)], space, (1,))
        _columns_equal(measurement, states)
        assert np.max(np.abs(measurement.probabilities(states).sum(axis=1) - 1.0)) < 1e-12

    def test_illegal_selector_raises_the_selection_message(self):
        spec = DeviceSpec("PovmSampler", {"povm": POVMSet((np.eye(2) / 2, np.eye(2) / 2))})
        probe = spec.table(KET0, (0,))
        # each list, and the illegal selector its message names
        for selectors, illegal in (([IntegerLabel(1), Bit(0), RealValue(0.5)], 1),
                                   ([IntegerLabel(1), IntegerLabel(3), Bit(0)], 1),
                                   ([Overflow(), IntegerLabel(2)], 0),
                                   ([MatrixDescription(np.eye(2) / 2), IntegerLabel(1)], 0)):
            with pytest.raises(ValueError) as want:
                OutcomeSelection(spec, selectors).matrix(probe)
            with pytest.raises(ValueError) as got:
                device_measurement(spec, selectors, QUBIT, (0,))
            assert str(got.value) == str(want.value)
            assert repr(selectors[illegal]) in str(want.value)
            with pytest.raises(ValueError) as one:
                opf_from_device(spec, selectors[illegal], QUBIT, (0,))
            assert str(one.value) == str(want.value)


def _traced(call):
    """The result of one call, and the bytes tracemalloc counts as still held
    after it and at its peak, in MB.  A first untraced call makes the imports
    and caches the traced one needs."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept / 1e6, peak / 1e6


class TestMemoryGuards:
    """The transient work of the witness and of one meter outcome stays small:
    it sets the opf-checks workload's peak resident memory."""

    def test_witness_design_16_peak(self):
        def build():
            opf._witness_design.cache_clear()
            return opf._witness_design(16)

        (amps, design), _, peak = _traced(build)
        assert design.shape == (529, 256)
        assert peak <= 2.0  # a (529, 16, 16) projector stack took it to 7.5 MB

    def test_meter_outcome_on_the_witness_probes_peak(self):
        space = FactorSpace((4, 4))
        meter = entropy_meter_measurement(space, (0,), precision=8)
        probes = StateStack._trusted(space, opf._witness_design(16)[0])
        values, _, peak = _traced(lambda: meter.outcomes[0].values(probes))
        assert values.shape == (len(probes),)
        assert peak <= 1.0  # the all-outcome (529, 513) matrix alone is 2.2 MB

    def test_meter_keeps_no_selection_per_outcome(self):
        meter, kept, _ = _traced(
            lambda: entropy_meter_measurement(FactorSpace((4, 4)), (0,), 8))
        assert len(meter.outcomes) == 513
        assert kept <= 0.3  # one kept selection per outcome held 0.8 MB

    def test_mixed_outcome_on_the_witness_probes_peak(self):
        space = FactorSpace((4, 4))
        meters = [entropy_meter_measurement(space, (0,), precision=8) for _ in range(2)]
        mixed = mix_measurements(*meters, 0.5, pairing=[(i, i) for i in range(513)])
        probes = StateStack._trusted(space, opf._witness_design(16)[0])
        values, _, peak = _traced(lambda: mixed.outcomes[0].values(probes))
        assert values.shape == (len(probes),)
        assert peak <= 1.0  # a column of the whole mixed (529, 513) matrix took 10.9 MB
