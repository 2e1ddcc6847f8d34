"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, including the measured runtime against its budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from pqsim.devices import (
    Bit,
    IntegerLabel,
    RealValue,
    basis_select,
    basis_select_distribution,
    certify_distribution,
    eigenvalue_distribution,
    entropy_certify,
    entropy_meter,
    overlap_distribution,
    overlap_test,
    povm_distribution,
    readout_density,
    reduced_density,
    sample_eigenvalue,
    sample_povm,
    sample_projection,
    sample_uncertainty,
    uncertainty_distribution,
)
from pqsim.experiments import (
    VIOLATION_CERTIFIED,
    cloning_demo,
    ensemble_estimate_readout,
    fpvnem_refutation,
    no_signalling_demo,
    recovered_supports_disjoint,
    spod_update_refutation,
    tomography_estimate,
)
from pqsim.opf import (
    QUBIT_PROBE_STATES,
    check_estimation_assumption,
    compose_system,
    compose_unitary,
    entropy_meter_measurement,
    ic_projector_states,
    mix,
    opf_from_quantum,
    product_form_witness,
    update_map_feasibility,
)
from pqsim.qcore import (
    DensityMatrix,
    Ensemble,
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    born_probabilities,
    measure_projective,
    partial_trace,
    quantize,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    renyi_entropy,
    schmidt_decompose,
    von_neumann_entropy,
)

from .oracles import chisquare_pvalue, shannon_bits

QUBIT = FactorSpace((2,))
TWO_QUBITS = FactorSpace((2, 2))
KET0 = PureState.basis_state(QUBIT, 0)
KET1 = PureState.basis_state(QUBIT, 1)
PLUS = PureState(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = PureState(QUBIT, np.array([1, -1]) / np.sqrt(2))
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {name}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget_seconds
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} "
          f"({elapsed:.1f}s of {budget_seconds:.0f}s budget)")
    assert ok, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_fpvnem_refutation():
    with criterion(1, "finite-precision entropy meter refutes the quadratic form", 10):
        cert = fpvnem_refutation(d=2, m=3, samples=1000, rng=RandomStream(0x5EED))
        assert cert.evidence["outcome_count"] <= 9
        assert cert.evidence["outcome_bound"] == 9  # ceil(2^3 log2 2) + 1
        assert cert.evidence["max_product_deviation"] <= 1e-9
        assert cert.evidence["f0_bell"] == 0.0
        assert cert.evidence["residual"] > 0.1
        assert cert.verdict == VIOLATION_CERTIFIED


def test_criterion_2_spod_update_refutation():
    with criterion(2, "no state-independent linear update map for POVM readout", 5):
        cert = spod_update_refutation(RandomStream(0x5EED))
        assert cert.evidence["min_update_fidelity"] >= 1.0 - 1e-12
        assert cert.evidence["residual"] > 0.1
        assert cert.evidence["control_residual"] < 1e-10
        assert cert.verdict == VIOLATION_CERTIFIED
        control = update_map_feasibility(np.eye(2) / 2, QUBIT_PROBE_STATES)
        assert control.residual < 1e-10


def test_criterion_3_no_signalling_violation():
    with criterion(3, "remote measurement flips a local entropy meter", 1):
        bell = no_signalling_demo(RandomStream(0x5EED))
        assert bell.evidence["entropy_before"] == pytest.approx(1.0, abs=1e-10)
        assert bell.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)
        assert bell.verdict == VIOLATION_CERTIFIED
        partial = no_signalling_demo(RandomStream(0x5EED),
                                     weights=(0.36, 0.64))
        want = shannon_bits([0.36, 0.64])
        assert partial.evidence["entropy_before"] == pytest.approx(0.9427, abs=1e-3)
        assert partial.evidence["entropy_before"] == pytest.approx(want, abs=1e-10)
        assert partial.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)


def test_criterion_4_cloning_demo():
    with criterion(4, "readout reconstruction clones unknown qubits", 5):
        exact = cloning_demo(2, RandomStream(0x5EED), trials=100)
        assert exact.verdict == VIOLATION_CERTIFIED
        assert exact.evidence["min_fidelity"] >= 1.0 - 1e-9
        finite = cloning_demo(2, RandomStream(0x5EED), precision=8, trials=100)
        assert finite.evidence["fidelity_threshold"] == pytest.approx(1 - 10 * 2.0 ** -8)
        assert finite.evidence["successes"] >= 95
        assert finite.verdict == VIOLATION_CERTIFIED


def test_criterion_5_tomography_repetitions():
    with criterion(5, "qubit tomography from 3 IC outcomes at N=1e5", 60):
        sources = [KET0, PureState(QUBIT, np.array([1, 1j]) / np.sqrt(2)),
                   Ensemble(((KET0, 0.5), (KET1, 0.5)))]
        for source in sources[:1]:
            hits = 0
            for rep in range(100):
                report = tomography_estimate(source, 100_000,
                                             RandomStream(0x5EED, trial=rep))
                hits += report.metric_value < 0.02
            assert hits >= 95
        # spot-check the mixed source at reduced repetition count
        for rep in range(10):
            report = tomography_estimate(sources[2], 100_000,
                                         RandomStream(0x1111, trial=rep))
            assert report.metric_value < 0.02


def test_criterion_6_ensemble_readout_estimation():
    with criterion(6, "readout estimation of a 3-member ensemble at N=1e4", 60):
        ensemble = Ensemble(((KET0, 0.5), (KET1, 0.3), (PLUS, 0.2)))
        hits = 0
        for rep in range(100):
            report = ensemble_estimate_readout(ensemble, 10_000,
                                               RandomStream(0x5EED, trial=rep))
            hits += report.metric_value < 0.05
        assert hits >= 95
        # the same-density witness pair resolves to disjoint supports, always
        pair_a = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        pair_b = Ensemble(((PLUS, 0.5), (MINUS, 0.5)))
        for rep in range(100):
            rep_a = ensemble_estimate_readout(pair_a, 10_000,
                                              RandomStream(0xA, trial=rep))
            rep_b = ensemble_estimate_readout(pair_b, 10_000,
                                              RandomStream(0xB, trial=rep))
            assert recovered_supports_disjoint(rep_a, rep_b)


def test_criterion_7_estimation_assumption_verdicts():
    with criterion(7, "estimation-assumption verdicts match the constructions", 10):
        rng = RandomStream(0x5EED)
        for family in ("spod", "erd_sevrd", "quantum_povm"):
            verdict = check_estimation_assumption(family, 2, rng)
            assert verdict.verdict == "SATISFIED"
            assert len(verdict.outcomes) == 3
        trivially = check_estimation_assumption("entropy_meter", 2, rng)
        assert trivially.verdict == "SATISFIED-TRIVIALLY"
        fails = check_estimation_assumption("readout", 2, rng)
        assert fails.verdict == "FAILS"
        witness = fails.witness
        np.testing.assert_allclose(witness.ensemble_a.density().entries,
                                   witness.ensemble_b.density().entries, atol=1e-12)
        assert witness.value_a == pytest.approx(0.5)
        assert witness.value_b == pytest.approx(0.0)
        assert witness.list_agreement < 1e-9


# ---------------------------------------------------------------------------
# Criterion 8: the property suite
# ---------------------------------------------------------------------------

def _spaces():
    return [FactorSpace(d) for d in ((2, 2), (2, 3), (4, 2, 2), (2, 2, 2, 2), (4, 4))]


def _chisquare_cases():
    """(label, analytic distribution, sampler) for every stochastic device."""
    rng = RandomStream(0xCA5E)
    state = random_pure_state(TWO_QUBITS, rng)
    bell = PureState(TWO_QUBITS, np.array([1, 0, 0, 1]) / np.sqrt(2))
    big = PureState(FactorSpace((4, 4)), np.eye(4).reshape(-1) / 2.0)
    obs4 = np.diag([0.0, 1.0, 2.0, 3.0])
    b = np.array([[0.6, 0.2], [0.2, 0.3]])
    povm = POVMSet((b, np.eye(2) - b))
    povm3 = POVMSet((b / 2, np.eye(2) - b, b / 2))
    z_obs = HermitianObservable(PAULI_Z)

    def projective_counts(r):
        idx, _ = measure_projective(state, z_obs, (0,), r)
        return IntegerLabel(idx)

    projective_dist = [
        (IntegerLabel(i), float(np.trace(p @ reduced_density(state, (0,)).entries).real))
        for i, p in enumerate(z_obs.projectors)]

    return [
        ("measure_projective", projective_dist, projective_counts),
        ("eigenvalue value", eigenvalue_distribution(state, (0,), PAULI_Z),
         lambda r: sample_eigenvalue(state, (0,), PAULI_Z, r)),
        ("eigenvalue integer_label",
         eigenvalue_distribution(state, (0,), PAULI_Z, variant="integer_label"),
         lambda r: sample_eigenvalue(state, (0,), PAULI_Z, r, variant="integer_label")),
        ("eigenvalue finite",
         eigenvalue_distribution(big, (0,), obs4, variant="finite", max_label=1,
                                 label_offset=-1),
         lambda r: sample_eigenvalue(big, (0,), obs4, r, variant="finite",
                                     max_label=1, label_offset=-1)),
        ("projection bit",
         [(Bit(1), reduced_density(state, (0,)).entries[0, 0].real),
          (Bit(0), 1 - reduced_density(state, (0,)).entries[0, 0].real)],
         lambda r: sample_projection(state, (0,), KET0, r)),
        ("uncertainty", uncertainty_distribution(state, (0,), PAULI_Z),
         lambda r: sample_uncertainty(state, (0,), PAULI_Z, r)),
        ("povm", povm_distribution(state, (0,), povm),
         lambda r: sample_povm(state, (0,), povm, r)),
        ("povm finite", povm_distribution(state, (0,), povm3, max_label=1),
         lambda r: sample_povm(state, (0,), povm3, r, max_label=1)),
        ("overlap smoothed", overlap_distribution(state, (0,), KET0, 0.4, 5.0),
         lambda r: overlap_test(state, (0,), KET0, 0.4, r, sharpness=5.0)),
        ("basis tie", basis_select_distribution(bell, (0,)),
         lambda r: basis_select(bell, (0,), rng=r)),
        ("basis smoothed", basis_select_distribution(state, (0,), sharpness=4.0),
         lambda r: basis_select(state, (0,), rng=r, sharpness=4.0)),
        ("certify smoothed", certify_distribution(state, (0,), 1.0, 0.5, 2.0),
         lambda r: entropy_certify(state, (0,), 1.0, 0.5, r, sharpness=2.0)),
    ]


def _outcome_key(outcome):
    if isinstance(outcome, RealValue):
        return ("real", round(outcome.value, 9))
    if isinstance(outcome, IntegerLabel):
        return ("label", outcome.value)
    if isinstance(outcome, Bit):
        return ("bit", outcome.value)
    return ("overflow",)


def _qcore_invariants():
    rng = RandomStream(0x0AC)
    spaces = _spaces()
    for trial in range(1000):
        space = spaces[trial % len(spaces)]
        state = random_pure_state(space, rng.derive(trial))
        keep = (trial % space.n_factors,)
        partial_trace(state, keep)  # constructor enforces the invariants

    for trial in range(200):
        space = spaces[trial % 2]
        state = random_pure_state(space, rng.derive(5000 + trial))
        dec = schmidt_decompose(state, (0,))
        eigs = np.sort(partial_trace(state, (0,)).eigenvalues())[::-1]
        np.testing.assert_allclose(dec.weights, eigs[: dec.rank], atol=1e-9)

    for trial in range(200):
        rho = random_density_matrix(4, rng)
        b = random_density_matrix(4, rng).entries * 0.7
        assert abs(born_probabilities(rho, POVMSet((b, np.eye(4) - b))).sum() - 1) < 1e-9

    quant_stream = RandomStream(0x0AD)
    for trial in range(1000):
        x = (quant_stream.uniform() - 0.5) * 128.0
        m = 1 + trial % 20
        once = quantize(x, m)
        assert quantize(once, m) == once

    alphas = (0.5, 2.0, 3.0, 5.0)
    for trial in range(200):
        rho = random_density_matrix(3, rng)
        values = [renyi_entropy(rho, a) for a in alphas]
        assert all(hi <= lo + 1e-9 for lo, hi in zip(values, values[1:]))

    for trial in range(200):
        rho = random_density_matrix(4, rng)
        u = random_unitary(4, rng)
        conj = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert abs(von_neumann_entropy(conj) - von_neumann_entropy(rho)) < 1e-8


def _device_invariants():
    rng = RandomStream(0x0AE)
    # trivial update, bit-identical, across a sweep
    state = random_pure_state(TWO_QUBITS, rng)
    before = state.amplitudes.tobytes()
    povm = POVMSet((np.eye(2) / 2, np.eye(2) / 2))
    for trial in range(100):
        child = rng.derive(trial)
        sample_eigenvalue(state, (0,), PAULI_Z, child)
        sample_povm(state, (0,), povm, child)
        entropy_meter(state, (0,), 1.0)
        readout_density(state, (0,))
        overlap_test(state, (0,), KET0, 0.5, child, sharpness=2.0)
        assert state.amplitudes.tobytes() == before

    # basis covariance of the readout
    for trial in range(100):
        psi = random_pure_state(TWO_QUBITS, rng)
        u = random_unitary(2, rng)
        rotated = readout_density(psi, (0,), basis=[u[:, 0], u[:, 1]]).matrix
        plain = readout_density(psi, (0,)).matrix
        assert np.max(np.abs(rotated - u.conj().T @ plain @ u)) < 1e-10

    # projective POVM sampling matches the eigenvalue sampler's clusters
    for trial in range(100):
        psi = random_pure_state(TWO_QUBITS, rng)
        v = random_unitary(2, rng)
        projs = tuple(np.outer(v[:, i], v[:, i].conj()) for i in range(2))
        povm_probs = sorted(p for _, p in povm_distribution(psi, (0,), POVMSet(projs)))
        obs = HermitianObservable(projs[0] - projs[1])
        ev_probs = sorted(p for _, p in eigenvalue_distribution(
            psi, (0,), obs, variant="integer_label"))
        np.testing.assert_allclose(povm_probs, ev_probs, atol=1e-12)

    # smoothed devices at k = 1e6 agree with hard devices off the margin
    for label, hard, smooth in _limit_cases(rng):
        np.testing.assert_allclose(smooth, hard, atol=1e-9, err_msg=label)


def _limit_cases(rng):
    cases = []
    checked = 0
    while checked < 100:
        psi = random_pure_state(TWO_QUBITS, rng)
        a = 0.1 + 0.8 * rng.uniform()
        w = reduced_density(psi, (0,)).entries[0, 0].real
        if abs(w - a) <= 1e-4:
            continue
        cases.append(("overlap",
                      [p for _, p in overlap_distribution(psi, (0,), KET0, a)],
                      [p for _, p in overlap_distribution(psi, (0,), KET0, a, 1e6)]))
        checked += 1
    checked = 0
    while checked < 100:
        psi = random_pure_state(TWO_QUBITS, rng)
        e = 0.05 + 0.9 * rng.uniform()
        if abs(entropy_meter(psi, (0,), 1.0).value - e) <= 1e-4:
            continue
        cases.append(("certify",
                      [p for _, p in certify_distribution(psi, (0,), 1.0, e)],
                      [p for _, p in certify_distribution(psi, (0,), 1.0, e, 1e6)]))
        checked += 1
    checked = 0
    while checked < 100:
        psi = random_pure_state(TWO_QUBITS, rng)
        raw = reduced_density(psi, (0,)).entries
        if abs(raw[0, 0].real - raw[1, 1].real) <= 1e-4:
            continue
        cases.append(("basis",
                      [p for _, p in basis_select_distribution(psi, (0,))],
                      [p for _, p in basis_select_distribution(psi, (0,),
                                                               sharpness=1e6)]))
        checked += 1
    return cases


def _opf_invariants():
    rng = RandomStream(0x0AF)
    # range on 1e3 random states for a mixed bag of constructions
    meter = entropy_meter_measurement(TWO_QUBITS, (0,), precision=2)
    b = random_density_matrix(4, rng).entries * 0.7
    candidates = [
        opf_from_quantum(b, TWO_QUBITS),
        meter.outcomes[0],
        mix([opf_from_quantum(b, TWO_QUBITS), opf_from_quantum(np.eye(4) - b,
                                                               TWO_QUBITS)],
            [0.4, 0.6]),
        compose_unitary(opf_from_quantum(b, TWO_QUBITS), random_unitary(4, rng)),
    ]
    for f in candidates:
        for trial in range(1000):
            value = f(random_pure_state(TWO_QUBITS, rng))
            assert -1e-9 <= value <= 1.0 + 1e-9

    # operator-level oracles for the closure constructors
    for trial in range(50):
        q1 = random_density_matrix(2, rng).entries * 0.8
        q2 = random_density_matrix(2, rng).entries * 0.8
        mixed = mix([opf_from_quantum(q1), opf_from_quantum(q2)], [0.3, 0.7])
        np.testing.assert_allclose(mixed.operator, 0.3 * q1 + 0.7 * q2, atol=1e-10)
        u = random_unitary(2, rng)
        comp = compose_unitary(opf_from_quantum(q1), u)
        np.testing.assert_allclose(comp.operator, u.conj().T @ q1 @ u, atol=1e-10)
        phi = random_pure_state(QUBIT, rng)
        joint = opf_from_quantum(np.kron(q1, q2), TWO_QUBITS)
        reducedop = compose_system(joint, phi).operator
        scale = float(np.real(np.vdot(phi.amplitudes, q2 @ phi.amplitudes)))
        np.testing.assert_allclose(reducedop, scale * q1, atol=1e-10)

    # witness residual stability for quadratic OPFs
    f = opf_from_quantum(random_density_matrix(4, rng).entries * 0.8, TWO_QUBITS)
    baseline = product_form_witness(f).residual
    for salt in range(3):
        extras = [random_pure_state(TWO_QUBITS, RandomStream(0x33 + salt, trial=t))
                  for t in range(15)]
        assert abs(product_form_witness(f, extra_probes=extras).residual
                   - baseline) < 1e-8

    # IC outcome injectivity at d = 2
    projs = [np.outer(s, s.conj()) for s in ic_projector_states(2)]
    for trial in range(100):
        rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
        td = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.entries - sigma.entries)))
        if td <= 1e-3:
            continue
        va = np.array([np.trace(p @ rho.entries).real for p in projs])
        vb = np.array([np.trace(p @ sigma.entries).real for p in projs])
        assert np.max(np.abs(va - vb)) > 1e-6


def test_criterion_8_property_suite():
    with criterion(8, "property suite: invariants, samplers, smoothed limits", 120):
        _qcore_invariants()
        _device_invariants()
        _opf_invariants()
        # chi-square validation of every stochastic device at 1e4 draws
        for label, distribution, sampler in _chisquare_cases():
            counts: dict = {}
            for trial in range(10_000):
                key = _outcome_key(sampler(RandomStream(0xD1CE, trial=trial)))
                counts[key] = counts.get(key, 0) + 1
            merged: dict = {}
            for outcome, p in distribution:
                key = _outcome_key(outcome)
                merged[key] = merged.get(key, 0.0) + p
            observed = np.array([counts.get(k, 0) for k in merged], dtype=float)
            pvalue = chisquare_pvalue(observed, list(merged.values()))
            assert pvalue > 0.001, f"{label}: chi-square p = {pvalue}"
