"""Counterexample experiments and estimation protocols."""

import dataclasses
import math

import numpy as np
import pytest

from pqsim import cli, experiments
from pqsim.devices import MatrixDescription, readout_density, sample_povm
from pqsim.experiments import (
    SPOD_ELEMENTS,
    CONSISTENT,
    FAIL,
    VIOLATION_CERTIFIED,
    OutcomeStat,
    cloning_demo,
    ensemble_estimate_overlap,
    ensemble_estimate_readout,
    fibonacci_net,
    fpvnem_refutation,
    no_signalling_demo,
    recovered_supports_disjoint,
    spod_update_refutation,
    tomography_estimate,
    trace_distance,
    wilson_interval,
)
from pqsim.qcore import Ensemble, FactorSpace, PureState, RandomStream, tensor_product

from . import oracles
from .oracles import shannon_bits

QUBIT = FactorSpace((2,))
KET0 = PureState.basis_state(QUBIT, 0)
KET1 = PureState.basis_state(QUBIT, 1)
PLUS = PureState(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = PureState(QUBIT, np.array([1, -1]) / np.sqrt(2))


class TestFpvnemRefutation:
    def test_qubit_m3_certifies(self):
        cert = fpvnem_refutation(2, 3, 200, RandomStream(0x5EED))
        assert cert.verdict == VIOLATION_CERTIFIED
        assert cert.evidence["outcome_count"] <= 9
        assert cert.evidence["outcome_bound"] == 9
        assert cert.evidence["max_product_deviation"] <= 1e-9
        assert cert.evidence["f0_bell"] == 0.0
        assert cert.evidence["residual"] > 0.1

    def test_outcome_bound_formula_m1(self):
        cert = fpvnem_refutation(2, 1, 10, RandomStream(1))
        assert cert.evidence["outcome_bound"] == 3  # ceil(2 * log2(2)) + 1

    def test_product_only_sweep_is_consistent(self):
        cert = fpvnem_refutation(2, 3, 100, RandomStream(2), include_entangled=False)
        assert cert.verdict == CONSISTENT
        assert cert.evidence["residual"] < 1e-6

    def test_deterministic_given_seed(self):
        a = fpvnem_refutation(2, 3, 50, RandomStream(77))
        b = fpvnem_refutation(2, 3, 50, RandomStream(77))
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fpvnem_refutation(5, 3, 10, RandomStream(3))
        with pytest.raises(ValueError):
            fpvnem_refutation(2, 9, 10, RandomStream(3))


class TestSpodUpdateRefutation:
    def test_default_run_certifies(self):
        cert = spod_update_refutation(RandomStream(4))
        assert cert.verdict == VIOLATION_CERTIFIED
        assert cert.evidence["min_update_fidelity"] >= 1.0 - 1e-12
        assert cert.evidence["residual"] > 0.1
        assert cert.evidence["control_residual"] < 1e-10

    def test_half_identity_control_is_consistent(self):
        cert = spod_update_refutation(RandomStream(5), element="half_identity")
        assert cert.verdict == CONSISTENT
        assert cert.evidence["residual"] < 1e-10

    def test_zero_control_is_consistent(self):
        cert = spod_update_refutation(RandomStream(6), element="zero")
        assert cert.verdict == CONSISTENT

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            spod_update_refutation(RandomStream(7), element="hadamard")


    @pytest.mark.parametrize("seed", range(20))
    def test_min_update_fidelity_equals_per_trial_loop(self, seed):
        rng = RandomStream(1000 + 7 * seed, 11)
        cert = spod_update_refutation(rng)
        assert cert.evidence["min_update_fidelity"] == oracles.spod_update_fidelity(rng)


def _fails_naming(cert, clause):
    """The certificate is a FAIL whose record names exactly the one clause."""
    assert cert.verdict == FAIL
    assert cert.evidence["failed_checks"] == [clause]
    assert f"failed_checks=[{clause}]" in cli.format_record(cert.record_fields())


class TestFailedChecks:
    """Each clause of the two refutations, forced to fail alone, is named in
    ``failed_checks``; a passing run has no such field."""

    def test_passing_runs_name_no_clause(self):
        for cert in (fpvnem_refutation(2, 3, 50, RandomStream(1)),
                     fpvnem_refutation(2, 3, 50, RandomStream(1), include_entangled=False),
                     spod_update_refutation(RandomStream(2)),
                     spod_update_refutation(RandomStream(2), element="zero")):
            assert cert.verdict != FAIL
            assert "failed_checks" not in cert.evidence

    def test_fpvnem_outcome_bound(self, monkeypatch):
        measure = experiments.entropy_meter_measurement

        def doubled(*args, **kwargs):
            measurement = measure(*args, **kwargs)
            return dataclasses.replace(measurement, outcomes=measurement.outcomes * 2)

        monkeypatch.setattr(experiments, "entropy_meter_measurement", doubled)
        _fails_naming(fpvnem_refutation(2, 3, 50, RandomStream(1)), "outcome_bound")

    @pytest.mark.parametrize("entangled", [True, False])
    def test_fpvnem_product_deviation(self, monkeypatch, entangled):
        bell = PureState(FactorSpace((2, 2)), np.array([1, 0, 0, 1]) / math.sqrt(2))
        monkeypatch.setattr(experiments, "random_pure_states",
                            lambda spaces, rng, trials: [bell] * trials)
        _fails_naming(fpvnem_refutation(2, 3, 50, RandomStream(1), include_entangled=entangled),
                      "product_deviation")

    def test_fpvnem_f0_bell(self, monkeypatch):
        monkeypatch.setattr(experiments, "PureState",
                            lambda space, amplitudes: PureState.basis_state(space, 0))
        cert = fpvnem_refutation(2, 3, 50, RandomStream(1))
        assert cert.evidence["f0_bell"] == 1.0
        _fails_naming(cert, "f0_bell")

    def test_fpvnem_residual(self, monkeypatch):
        witness = experiments.product_form_witness
        monkeypatch.setattr(experiments, "product_form_witness", lambda f: (
            dataclasses.replace(witness(f), residual=0.05)))
        _fails_naming(fpvnem_refutation(2, 3, 50, RandomStream(1)), "residual")

    def test_fpvnem_product_only_residual(self, monkeypatch):
        monkeypatch.setattr(experiments, "_product_probe_residual", lambda f, d: 1e-3)
        _fails_naming(fpvnem_refutation(2, 3, 50, RandomStream(1), include_entangled=False),
                      "residual")

    def test_spod_trivial_update(self, monkeypatch):
        monkeypatch.setattr(experiments, "fidelities", lambda a, b: np.full(len(a), 0.5))
        cert = spod_update_refutation(RandomStream(2))
        assert cert.evidence["min_update_fidelity"] == 0.5
        _fails_naming(cert, "trivial_update")

    @pytest.mark.parametrize("clause,element,residual", [
        ("control_residual", "half_identity", 1e-3),
        ("certified_or_feasible", "projector0", 0.05),
    ])
    def test_spod_update_map_clauses(self, monkeypatch, clause, element, residual):
        fit = experiments.update_map_feasibility

        def forced(a, probes):
            cert = fit(a, probes)
            if np.array_equal(a, SPOD_ELEMENTS[element]):
                return dataclasses.replace(cert, residual=residual)
            return cert

        monkeypatch.setattr(experiments, "update_map_feasibility", forced)
        _fails_naming(spod_update_refutation(RandomStream(2)), clause)


def _report_fails_naming(report, clause):
    """The estimation report did not pass, and its record names exactly the one clause."""
    assert not report.passed
    assert report.extras["failed_checks"] == [clause]
    assert f"failed_checks=[{clause}]" in cli.format_record(report.record_fields())


class TestReportFailedChecks:
    """The cloning demo and the estimation reports name the clause of a FAIL
    in ``failed_checks``; a passing run has no such field."""

    ENSEMBLE = Ensemble(((KET0, 0.5), (KET1, 0.3), (PLUS, 0.2)))

    def test_passing_runs_name_no_clause(self):
        assert "failed_checks" not in cloning_demo(2, RandomStream(12)).evidence
        assert "failed_checks" not in cloning_demo(2, RandomStream(14), precision=8).evidence
        for report in (tomography_estimate(KET0, 100_000, RandomStream(16)),
                       ensemble_estimate_readout(self.ENSEMBLE, 10_000, RandomStream(22)),
                       ensemble_estimate_overlap(Ensemble(((KET0, 0.5), (KET1, 0.5))),
                                                 [0.05, 0.01], 10_000, RandomStream(30))):
            assert report.passed
            assert "failed_checks" not in report.record_fields()

    def test_cloning_rank_defect(self, monkeypatch):
        # a readout that reports the maximally mixed state has no rank-1 description
        monkeypatch.setattr(experiments, "readout_density",
                            lambda state, target, precision=None: MatrixDescription(
                                np.eye(2) / 2, precision))
        cert = cloning_demo(2, RandomStream(12))
        _fails_naming(cert, "rank_defect")
        assert cert.evidence["rank_defect"] == 0.5

    def test_cloning_successes(self, monkeypatch):
        # a readout that always describes |0> copies most states badly
        monkeypatch.setattr(experiments, "readout_density",
                            lambda state, target, precision=None: readout_density(
                                tensor_product(KET0, KET0), (0,), precision=precision))
        cert = cloning_demo(2, RandomStream(14), precision=8)
        _fails_naming(cert, "successes")
        assert cert.evidence["successes"] < 95

    def test_tomography_metric(self):
        # 1000 trials estimate |+> to about 0.026 in trace distance, above 0.02
        _report_fails_naming(tomography_estimate(PLUS, 1000, RandomStream(18)),
                             "metric_below_threshold")
        _report_fails_naming(tomography_estimate(KET0, 100_000, RandomStream(16),
                                                 threshold=1e-9), "metric_below_threshold")

    def test_ensemble_readout_metric(self):
        # at precision 1 the three members' descriptions merge
        _report_fails_naming(ensemble_estimate_readout(self.ENSEMBLE, 1000, RandomStream(26),
                                                       precision_schedule=[1]),
                             "metric_below_threshold")
        _report_fails_naming(ensemble_estimate_readout(self.ENSEMBLE, 10_000, RandomStream(22),
                                                       threshold=1e-9),
                             "metric_below_threshold")

    def test_ensemble_overlap_metric(self):
        report = ensemble_estimate_overlap(Ensemble(((KET0, 0.5), (KET1, 0.5))), [0.05, 0.01],
                                           101, RandomStream(30), threshold=1e-9)
        assert report.status == "OK"
        _report_fails_naming(report, "metric_below_threshold")

    def test_ensemble_overlap_net_cap(self):
        report = ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), [1e-4], 100,
                                           RandomStream(32), net_cap=100)
        assert report.status == FAIL
        _report_fails_naming(report, "net_cap")


class TestNoSignallingDemo:
    def test_bell_state_entropy_drop(self):
        cert = no_signalling_demo(RandomStream(8))
        assert cert.verdict == VIOLATION_CERTIFIED
        assert cert.evidence["entropy_before"] == pytest.approx(1.0, abs=1e-10)
        assert cert.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)

    def test_product_state_shows_no_signal(self):
        cert = no_signalling_demo(RandomStream(9), schmidt_weights=(1.0,))
        assert cert.verdict == CONSISTENT
        assert cert.evidence["entropy_before"] == pytest.approx(0.0, abs=1e-10)
        assert cert.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)

    def test_partially_entangled_matches_binary_entropy_oracle(self):
        cert = no_signalling_demo(RandomStream(10), schmidt_weights=(0.36, 0.64))
        want = shannon_bits([0.36, 0.64])
        assert cert.evidence["entropy_before"] == pytest.approx(want, abs=1e-10)
        assert cert.evidence["entropy_before"] == pytest.approx(0.9427, abs=1e-3)
        assert cert.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)

    def test_both_remote_outcomes_collapse_entropy(self):
        seen = set()
        for seed in range(20):
            cert = no_signalling_demo(RandomStream(seed))
            seen.add(cert.evidence["remote_outcome"])
            assert cert.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)
        assert seen == {0, 1}

    def test_meter_readings_agree_with_reduced_state_entropy(self):
        from pqsim.qcore import partial_trace, von_neumann_entropy

        for weights in ((0.5, 0.5), (0.36, 0.64), (0.1, 0.9)):
            cert = no_signalling_demo(RandomStream(40), schmidt_weights=weights)
            amps = np.zeros(4)
            amps[0], amps[3] = math.sqrt(weights[0]), math.sqrt(weights[1])
            state = PureState(FactorSpace((2, 2)), amps)
            direct = von_neumann_entropy(partial_trace(state, (0,)))
            assert abs(cert.evidence["entropy_before"] - direct) < 1e-10

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            no_signalling_demo(RandomStream(11), schmidt_weights=(0.4, 0.4))


class TestCloningDemo:
    def test_infinite_precision_reconstruction(self):
        cert = cloning_demo(2, RandomStream(12))
        assert cert.verdict == VIOLATION_CERTIFIED
        assert cert.evidence["min_fidelity"] >= 1.0 - 1e-9

    def test_basis_state_exact_copy(self):
        # all qubits included; also exercise d = 3
        cert = cloning_demo(3, RandomStream(13), trials=20)
        assert cert.verdict == VIOLATION_CERTIFIED

    def test_finite_precision_quota(self):
        cert = cloning_demo(2, RandomStream(14), precision=8)
        assert cert.verdict == VIOLATION_CERTIFIED
        assert cert.evidence["fidelity_threshold"] == pytest.approx(1.0 - 10.0 / 256.0)
        assert cert.evidence["successes"] >= 95

    def test_deterministic(self):
        assert cloning_demo(2, RandomStream(15)) == cloning_demo(2, RandomStream(15))


class TestDeriveManyCallers:
    """The experiments that draw a stream per trial from ``derive_many`` give
    what their per-trial loops of RandomStream constructions gave."""

    def test_spod_update_draws_equal_per_trial_loop(self, monkeypatch):
        from pqsim import experiments

        draws = []

        def spy(psi, target, povm, rng):
            outcome = sample_povm(psi, target, povm, rng)
            draws.append((psi.amplitudes.tobytes(), povm.elements[0].tobytes(), outcome))
            return outcome

        monkeypatch.setattr(experiments, "sample_povm", spy)
        rng = RandomStream(41, 11)
        spod_update_refutation(rng)
        assert draws == oracles.spod_update_draws(rng)

    @pytest.mark.parametrize("d,precision", [(2, None), (3, 6), (4, 8)])
    def test_cloning_equals_per_trial_loop(self, d, precision, monkeypatch):
        from pqsim import experiments

        descriptions = []

        def spy(*args, **kwargs):
            description = readout_density(*args, **kwargs)
            descriptions.append(description.matrix.tobytes())
            return description

        monkeypatch.setattr(experiments, "readout_density", spy)
        rng = RandomStream(43, 13)
        cert = cloning_demo(d, rng, precision=precision, trials=40)
        want = oracles.cloning_trials(d, rng, precision, 40)
        assert descriptions == [description for description, _ in want]
        fidelities = [fidelity for _, fidelity in want]
        assert cert.evidence["min_fidelity"] == min(fidelities)
        threshold = cert.evidence["fidelity_threshold"]
        assert cert.evidence["successes"] == sum(f >= threshold for f in fidelities)


class TestTomography:
    def test_pure_state_estimate(self):
        report = tomography_estimate(KET0, 100_000, RandomStream(16))
        assert report.metric_name == "trace_distance"
        assert report.metric_value < 0.02
        assert report.passed

    def test_maximally_mixed_ensemble(self):
        ens = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        report = tomography_estimate(ens, 100_000, RandomStream(17))
        assert report.metric_value < 0.02
        np.testing.assert_allclose(report.estimate_matrix, np.eye(2) / 2, atol=0.03)

    def test_estimate_is_physical(self):
        report = tomography_estimate(PLUS, 1000, RandomStream(18))
        vals = np.linalg.eigvalsh(report.estimate_matrix)
        assert vals[0] >= -1e-12
        assert np.trace(report.estimate_matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_intervals_contain_frequencies(self):
        report = tomography_estimate(PLUS, 5000, RandomStream(19))
        for stat in report.outcome_stats:
            lo, hi = stat.interval
            assert lo <= stat.frequency <= hi

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            tomography_estimate(KET0, 0, RandomStream(20))
        with pytest.raises(ValueError):
            tomography_estimate(KET0, 99, RandomStream(20))

    def test_repetition_harness(self):
        # the acceptance criterion at reduced scale: 20 repetitions, N = 2e4
        hits = 0
        for rep in range(20):
            report = tomography_estimate(KET0, 20_000, RandomStream(21, trial=rep))
            hits += report.metric_value < 0.02
        assert hits >= 19


class TestEnsembleReadout:
    ENSEMBLE = Ensemble(((KET0, 0.5), (KET1, 0.3), (PLUS, 0.2)))

    def test_three_member_recovery(self):
        report = ensemble_estimate_readout(self.ENSEMBLE, 10_000, RandomStream(22))
        assert report.metric_value < 0.05
        assert report.passed
        assert len(report.recovered) == 3

    def test_single_member_exact(self):
        report = ensemble_estimate_readout(Ensemble(((PLUS, 1.0),)), 100,
                                           RandomStream(23))
        assert report.metric_value == 0.0
        assert len(report.recovered) == 1

    def test_same_density_witness_pair_distinguished(self):
        pair_a = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        pair_b = Ensemble(((PLUS, 0.5), (MINUS, 0.5)))
        rep_a = ensemble_estimate_readout(pair_a, 10_000, RandomStream(24))
        rep_b = ensemble_estimate_readout(pair_b, 10_000, RandomStream(25))
        assert recovered_supports_disjoint(rep_a, rep_b)
        assert rep_a.passed and rep_b.passed

    def test_finite_precision_schedule(self):
        report = ensemble_estimate_readout(self.ENSEMBLE, 5000, RandomStream(26),
                                           precision_schedule=[6, 7, 8, 9, 10, 11, 12])
        assert report.extras["finite_precision"]
        assert report.metric_value < 0.05
        # member reconstruction error bounded by the coarsest quantization cell
        assert report.extras["max_member_deviation"] < 2.0 ** -5

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ensemble_estimate_readout(self.ENSEMBLE, 1000, RandomStream(27),
                                      precision_schedule=[])

    def test_repetition_harness(self):
        hits = 0
        for rep in range(20):
            report = ensemble_estimate_readout(self.ENSEMBLE, 10_000,
                                               RandomStream(28, trial=rep))
            hits += report.metric_value < 0.05
        assert hits == 20


class TestEnsembleOverlap:
    def test_single_state_recovery_at_eps_001(self):
        report = ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), [0.05, 0.01],
                                           500, RandomStream(29))
        assert report.status == "OK"
        assert len(report.recovered) == 1
        state, weight = report.recovered[0]
        assert weight == pytest.approx(1.0)
        assert abs(np.vdot(state, KET0.amplitudes)) ** 2 > 0.99

    def test_uniform_pair_weights(self):
        ens = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        report = ensemble_estimate_overlap(ens, [0.05, 0.01], 10_000, RandomStream(30))
        assert report.metric_value < 0.05
        assert report.passed
        assert len(report.recovered) == 2

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), [], 100,
                                      RandomStream(31))

    def test_net_cap_failure_reported(self):
        report = ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), [1e-4], 100,
                                           RandomStream(32), net_cap=100)
        assert report.status == FAIL
        assert not report.passed
        assert report.extras["net_cap"] == 100

    def test_net_covers_sphere(self):
        # every state must find at least one net point above the acceptance
        # overlap: the construction must out-resolve its epsilon
        for eps in (0.05, 0.01):
            from pqsim.experiments import _net_size_for
            net = fibonacci_net(_net_size_for(eps))
            rng = RandomStream(33)
            for trial in range(500):
                from pqsim.qcore import random_pure_state
                psi = random_pure_state(QUBIT, rng)
                best = max(abs(np.vdot(v, psi.amplitudes)) ** 2 for v in net)
                assert best > 1.0 - eps


class TestReportPlumbing:
    def test_outcome_stat_validates_interval(self):
        with pytest.raises(ValueError):
            OutcomeStat(0.9, (0.1, 0.2), 100)

    def test_wilson_interval_contains_mle(self):
        for k, n in [(0, 50), (50, 50), (17, 100), (1, 1000)]:
            lo, hi = wilson_interval(k, n, 0.95)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_interval_matches_scipy_quantile(self):
        for confidence in (0.8, 0.9, 0.95, 0.99, 0.999):
            for k, n in [(17, 100), (3, 50), (990, 1000)]:
                want = oracles.wilson_interval(k, n, confidence)
                got = wilson_interval(k, n, confidence)
                assert got == pytest.approx(want, abs=1e-12)

    def test_trace_distance_basics(self):
        a, b = KET0.density(), KET1.density()
        assert trace_distance(a, b) == pytest.approx(1.0)
        assert trace_distance(a, a) == pytest.approx(0.0)

    def test_certificate_records_flatten(self):
        cert = spod_update_refutation(RandomStream(34))
        fields = cert.record_fields()
        assert fields["experiment"] == "spod-update"
        assert fields["verdict"] == VIOLATION_CERTIFIED
        assert "residual" in fields and "seed" in fields

    def test_estimation_report_records(self):
        report = tomography_estimate(KET0, 1000, RandomStream(35))
        fields = report.record_fields()
        assert fields["experiment"] == "tomography"
        assert len(fields["outcome_frequencies"]) == 3
