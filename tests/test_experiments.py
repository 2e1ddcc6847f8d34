"""Counterexample experiments and estimation protocols."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pqsim import cli, experiments
from pqsim._record import replace
from pqsim.devices import (
    DeviceSpec,
    DistributionTable,
    MatrixDescription,
    ParameterError,
    overlap_bits,
)
from pqsim.experiments import (
    SPOD_ELEMENTS,
    CLONING_MAX_PRECISION,
    CONSISTENT,
    FAIL,
    VIOLATION_CERTIFIED,
    OutcomeStat,
    _net_size_for,
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
from pqsim.qcore import (
    DensityMatrix,
    Ensemble,
    FactorSpace,
    PureState,
    RandomStream,
    StateStack,
    quadratic_forms,
    random_pure_states,
    reduced_densities,
    tensor_product,
)

from . import oracles
from .oracles import shannon_bits

SRC = Path(__file__).resolve().parents[1] / "src"
QUBIT = FactorSpace((2,))
TWO_QUBITS = FactorSpace((2, 2))
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


GOLDEN_OPF = json.loads((Path(__file__).resolve().parent / "golden" / "records.json")
                        .read_text(encoding="utf-8"))["opf"]


def _record(cert) -> str:
    return cli.format_record(cert.record_fields())


class TestPatchedRunsLeaveNoKeptValue:
    """A patched test of ``TestFailedChecks`` fills the caches with patched
    values; once its fixture clears them, an unpatched run prints the golden
    record again."""

    @pytest.mark.parametrize("test,args,label", [
        ("test_fpvnem_outcome_bound", (), "fpvnem d=2 m=3"),
        ("test_fpvnem_f0_bell", (), "fpvnem d=2 m=3"),
        ("test_fpvnem_residual", (), "fpvnem d=2 m=3"),
        ("test_spod_update_map_clauses", ("control_residual", "half_identity", 1e-3),
         "spod-update projector0"),
        ("test_spod_update_map_clauses", ("certified_or_feasible", "projector0", 0.05),
         "spod-update projector0"),
    ])
    def test_an_unpatched_run_after_a_patched_one_prints_the_golden_record(
            self, test, args, label):
        run = {"fpvnem d=2 m=3": lambda: fpvnem_refutation(
                   2, 3, 1000, RandomStream(cli.DEFAULT_SEED, 10)),
               "spod-update projector0": lambda: spod_update_refutation(
                   RandomStream(cli.DEFAULT_SEED, 11))}[label]
        _clear_refutation_caches()
        with pytest.MonkeyPatch.context() as patch:
            getattr(TestFailedChecks(), test)(patch, *args)
        assert _record(run()) != GOLDEN_OPF[label]  # the patched value is still kept
        _clear_refutation_caches()  # what the fixture does after each test
        assert _record(run()) == GOLDEN_OPF[label]


class TestKeptSeedFreeHalves:
    """fpvnem's seed-free half is kept per (d, m, include_entangled) and
    spod-update's fits per element: a cold call, a warm call and the body
    from before (``tests/oracles.py``) print the same record."""

    @pytest.mark.parametrize("entangled", [True, False])
    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fpvnem_records(self, d, m, entangled):
        _clear_refutation_caches()
        for seed in (1, 7, 0x5EED):  # cold at seed 1, then warm
            def run(refutation):
                return _record(refutation(d, m, 20, RandomStream(seed, 10),
                                          include_entangled=entangled))
            assert run(fpvnem_refutation) == run(oracles.fpvnem_refutation)
            assert run(fpvnem_refutation) == run(oracles.fpvnem_refutation)
        assert experiments._fpvnem_facts.cache_info().currsize == 1

    @pytest.mark.parametrize("element", sorted(SPOD_ELEMENTS))
    def test_spod_update_records(self, element):
        _clear_refutation_caches()
        for seed in (1, 7, 0x5EED):
            def run(refutation):
                return _record(refutation(RandomStream(seed, 11), element=element))
            assert run(spod_update_refutation) == run(oracles.spod_update_refutation)
            assert run(spod_update_refutation) == run(oracles.spod_update_refutation)
        assert experiments._update_map_certificates.cache_info().currsize == 1

    def test_spod_elements_are_read_only(self):
        for element in SPOD_ELEMENTS.values():
            with pytest.raises(ValueError):
                element[0, 0] = 0.5

    @pytest.mark.parametrize("args,message", [
        ((2, 2.5, 10), "m must be an integer, got 2.5"),
        ((2, True, 10), "m must be an integer, got True"),
        ((2, 0, 10), r"m must be in \[1, 8\], got 0"),
        ((2, 9, 10), r"m must be in \[1, 8\], got 9"),
        ((2, 3, 0), "samples must be at least 1, got 0"),
        ((2, 3, 10.0), "samples must be an integer, got 10.0"),
        ((2, 3, False), "samples must be an integer, got False"),
        ((3.0, 3, 10), "d must be an integer, got 3.0"),
        ((5, 3, 10), r"d must be in \[2, 4\], got 5"),
    ])
    def test_fpvnem_argument_checks(self, args, message):
        _clear_refutation_caches()
        with pytest.raises(ValueError, match=message):
            fpvnem_refutation(*args, RandomStream(3))
        assert experiments._fpvnem_facts.cache_info().currsize == 0

    def test_numpy_integers_share_the_int_key(self):
        _clear_refutation_caches()
        ints = fpvnem_refutation(2, 3, 20, RandomStream(3))
        numpy_ints = fpvnem_refutation(np.int64(2), np.int64(3), np.int64(20), RandomStream(3))
        assert _record(ints) == _record(numpy_ints)
        assert experiments._fpvnem_facts.cache_info().currsize == 1

    def test_importing_fills_no_cache(self):
        code = ("import pqsim, pqsim.cli; from pqsim import experiments, opf, qcore; "
                "print([f.cache_info().currsize for f in (experiments._fpvnem_facts, "
                "experiments._update_map_certificates, opf._witness_design, "
                "qcore._cached_plan)])")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
        assert run.stdout.strip() == "[0, 0, 0, 0]"


def _clear_refutation_caches():
    experiments._fpvnem_facts.cache_clear()
    experiments._update_map_certificates.cache_clear()


def _fails_naming(cert, clause):
    """The certificate is a FAIL whose record names exactly the one clause."""
    assert cert.verdict == FAIL
    assert cert.evidence["failed_checks"] == [clause]
    assert f"failed_checks=[{clause}]" in cli.format_record(cert.record_fields())


class TestFailedChecks:
    """Each clause of the two refutations, forced to fail alone, is named in
    ``failed_checks``; a passing run has no such field."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        """The refutations keep their seed-free halves, built by the module
        globals these tests patch: each test starts cold, so its patch is
        seen, and leaves cold, so no patched value outlives it."""
        _clear_refutation_caches()
        yield
        _clear_refutation_caches()

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
            return replace(measurement, outcomes=measurement.outcomes * 2)

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
            replace(witness(f), residual=0.05)))
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
                return replace(cert, residual=residual)
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
        monkeypatch.setattr(DeviceSpec, "table", lambda spec, state, target: DistributionTable(
            (MatrixDescription,), np.eye(2)[None] / 2, np.ones((1, 1)), spec.params["precision"]))
        cert = cloning_demo(2, RandomStream(12))
        _fails_naming(cert, "rank_defect")
        assert cert.evidence["rank_defect"] == 0.5

    def test_cloning_successes(self, monkeypatch):
        # a readout that always describes |0> copies most states badly
        original = DeviceSpec.table
        monkeypatch.setattr(DeviceSpec, "table", lambda spec, state, target: original(
            spec, tensor_product(KET0, KET0), (0,)))
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
                                                       precisions=[1]),
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
        cert = no_signalling_demo(RandomStream(9), weights=(1.0,))
        assert cert.verdict == CONSISTENT
        assert cert.evidence["entropy_before"] == pytest.approx(0.0, abs=1e-10)
        assert cert.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)

    def test_partially_entangled_matches_binary_entropy_oracle(self):
        cert = no_signalling_demo(RandomStream(10), weights=(0.36, 0.64))
        want = shannon_bits([0.36, 0.64])
        assert cert.evidence["entropy_before"] == pytest.approx(want, abs=1e-10)
        assert cert.evidence["entropy_before"] == pytest.approx(0.9427, abs=1e-3)
        assert cert.evidence["entropy_after"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("weights", [[math.nan], [0.5, math.nan]])
    def test_nan_weights_fail_the_sum_check(self, weights):
        with pytest.raises(ParameterError, match="^Schmidt weights must sum to 1$") as err:
            experiments.checked_schmidt_weights(weights)
        assert err.value.name == "weights"
        with pytest.raises(ValueError, match="^Schmidt weights must sum to 1$"):
            no_signalling_demo(RandomStream(8), weights=weights)

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
            cert = no_signalling_demo(RandomStream(40), weights=weights)
            amps = np.zeros(4)
            amps[0], amps[3] = math.sqrt(weights[0]), math.sqrt(weights[1])
            state = PureState(FactorSpace((2, 2)), amps)
            direct = von_neumann_entropy(partial_trace(state, (0,)))
            assert abs(cert.evidence["entropy_before"] - direct) < 1e-10

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            no_signalling_demo(RandomStream(11), weights=(0.4, 0.4))


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_quota_is_never_below_the_quantum_cloner_fidelity(self, d):
        # the optimal universal quantum 1 -> 2 cloner reaches (d+3)/(2(d+1)), above
        # 1 - 10*2^-m at m <= 5; from m = 6 on, 1 - 10*2^-m is the higher of the two
        for precision, want in [*((m, (d + 3) / (2 * (d + 1))) for m in range(1, 6)),
                                (6, 1.0 - 10.0 / 64.0)]:
            cert = cloning_demo(d, RandomStream(16), precision=precision, trials=10)
            assert cert.evidence["fidelity_threshold"] == want


class TestDeriveManyCallers:
    """The experiments that draw a stream per trial from ``derive_many`` give
    what their per-trial loops of RandomStream constructions gave."""

    def test_spod_update_draws_equal_per_trial_loop(self, monkeypatch):
        calls = []
        apply = DeviceSpec.apply

        def spy(spec, states, target, rng=None):
            outcomes = apply(spec, states, target, rng)
            calls.append((spec, states, target, outcomes))
            return outcomes

        monkeypatch.setattr(DeviceSpec, "apply", spy)
        rng = RandomStream(41, 11)
        spod_update_refutation(rng)
        assert len(calls) == 1
        spec, states, target, outcomes = calls[0]
        assert isinstance(states, StateStack) and len(states) == 100 and target == (0,)
        draws = [(psi.amplitudes.tobytes(), povm.elements[0].tobytes(), outcome)
                 for psi, povm, outcome in zip(states, spec.params["povm"], outcomes)]
        assert draws == oracles.spod_update_draws(rng)

    @pytest.mark.parametrize("d,precision", [(2, None), (3, 6), (4, 8)])
    def test_cloning_equals_per_trial_loop(self, d, precision, monkeypatch):
        # the oracle reads each trial out by readout_density
        descriptions = []
        original = DeviceSpec.table

        def spy(spec, state, target):
            table = original(spec, state, target)
            descriptions.append(table.values[0].tobytes())
            return table

        monkeypatch.setattr(DeviceSpec, "table", spy)
        rng = RandomStream(43, 13)
        cert = cloning_demo(d, rng, precision=precision, trials=40)
        monkeypatch.undo()  # the oracle's own readouts are not recorded
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
                                           precisions=[6, 7, 8, 9, 10, 11, 12])
        assert report.extras["finite_precision"]
        assert report.metric_value < 0.05
        # member reconstruction error bounded by the coarsest quantization cell
        assert report.extras["max_member_deviation"] < 2.0 ** -5

    def test_empty_schedule_rejected(self):
        with pytest.raises(ParameterError) as err:
            ensemble_estimate_readout(self.ENSEMBLE, 1000, RandomStream(27),
                                      precisions=[])
        assert err.value.name == "precisions"
        with pytest.raises(ValueError, match="^precision schedule must be nonempty$"):
            ensemble_estimate_readout(self.ENSEMBLE, 1000, RandomStream(27),
                                      precisions=np.array([], dtype=int))

    @pytest.mark.parametrize("schedule", [[4, 6], [6], [8, 2, 12]])
    def test_array_schedule_gives_the_list_record(self, schedule):
        for seed in (1, 26, 27):
            got = ensemble_estimate_readout(self.ENSEMBLE, 1000, RandomStream(seed),
                                            precisions=np.array(schedule))
            want = ensemble_estimate_readout(self.ENSEMBLE, 1000, RandomStream(seed),
                                             precisions=schedule)
            assert _record(got) == _record(want)

    def test_repetition_harness(self):
        hits = 0
        for rep in range(20):
            report = ensemble_estimate_readout(self.ENSEMBLE, 10_000,
                                               RandomStream(28, trial=rep))
            hits += report.metric_value < 0.05
        assert hits == 20


class TestOverlapPass:
    """The overlap estimate tests every drawn member against the whole net in
    one stacked pass; its fired sets and its reports equal the per-point
    ``overlap_test`` loop's."""

    @pytest.mark.parametrize("eps", [0.3, 0.05, 0.01])
    def test_fired_sets_equal_the_per_point_loop(self, eps):
        size = _net_size_for(eps)
        net_states = [PureState(QUBIT, v) for v in fibonacci_net(size)]
        net = StateStack(QUBIT, np.array(fibonacci_net(size)))
        states = (list(random_pure_states((QUBIT,), RandomStream(40), 40))
                  + net_states[:: max(size // 7, 1)] + [KET0, KET1, PLUS, MINUS])
        rhos = reduced_densities(StateStack.of(states), (0,))
        for state, bits in zip(states, overlap_bits(rhos, net, 1.0 - eps)):
            assert (frozenset(np.flatnonzero(bits).tolist())
                    == oracles.overlap_fired(state, net_states, eps))

    def test_weights_equal_the_per_point_products_bit_for_bit(self):
        # a threshold at the per-point weight itself never fires; one ulp below it does
        net = StateStack(QUBIT, np.array(fibonacci_net(12)))
        states = random_pure_states((QUBIT,), RandomStream(41), 8)
        rhos = reduced_densities(states, (0,))
        for rho, state in zip(rhos, states):
            for j, phi in enumerate(net):
                weight = quadratic_forms(
                    DensityMatrix.from_pure(state).entries[None], phi.amplitudes)[0]
                if not 0.0 < np.nextafter(weight, 0.0) < weight < 1.0:
                    continue
                assert not overlap_bits(rho[None], net, weight)[0, j]
                assert overlap_bits(rho[None], net, np.nextafter(weight, 0.0))[0, j]

    def test_overlap_bits_keeps_the_per_call_checks(self):
        rhos = reduced_densities([KET0], (0,))
        net = StateStack(QUBIT, np.array(fibonacci_net(8)))
        for threshold in (0.0, 1.0):
            with pytest.raises(ParameterError, match="overlap threshold must lie in"):
                overlap_bits(rhos, net, threshold)
        with pytest.raises(ParameterError, match="target state dimension does not match"):
            overlap_bits(rhos, StateStack(TWO_QUBITS, np.eye(4)[:1]), 0.5)

    @pytest.mark.parametrize("members,schedule,n_draws,seed", [
        (((KET0, 0.5), (KET1, 0.3), (PLUS, 0.2)), [0.05, 0.01], 10_000, 42),
        (((KET0, 0.5), (KET0, 0.5)), [0.05], 300, 43),  # one state twice
        (((KET0, 0.999), (MINUS, 0.001)), [0.2, 0.05], 100, 44),  # a member never drawn
        (((PLUS, 1.0),), [0.05], 0, 45),  # no draws at all
        (((PLUS, 0.6), (MINUS, 0.4)), [0.3], 1000, 46),
        (((KET0, 1.0),), [1e-4], 100, 47),  # net cap
    ])
    def test_reports_equal_the_per_point_loop(self, members, schedule, n_draws, seed):
        source = Ensemble(members)
        got = ensemble_estimate_overlap(source, schedule, n_draws, RandomStream(seed),
                                        net_cap=2000)
        want = oracles.ensemble_estimate_overlap(source, schedule, n_draws,
                                                 RandomStream(seed), net_cap=2000)
        assert _record(got) == _record(want)
        assert ([state.tobytes() for state, _ in got.recovered]
                == [state.tobytes() for state, _ in want.recovered])


class TestEnsembleScore:
    """The two ensemble estimators share one score-and-report body; each
    report equals its estimator's body from before, kept in ``oracles``."""

    SOURCES = (Ensemble(((KET0, 0.5), (KET1, 0.3), (PLUS, 0.2))),
               Ensemble(((PLUS, 0.6), (MINUS, 0.4))))

    @staticmethod
    def _same(got, want):
        assert _record(got) == _record(want)
        assert repr(got.recovered) == repr(want.recovered)

    @pytest.mark.parametrize("schedule", [None, [3], [6, 10]], ids=str)
    def test_readout_reports_equal_the_old_body(self, schedule):
        for source in self.SOURCES:
            for seed in range(1, 21):
                self._same(ensemble_estimate_readout(source, 2000, RandomStream(seed),
                                                     precisions=schedule),
                           oracles.ensemble_estimate_readout(source, 2000, RandomStream(seed),
                                                             precision_schedule=schedule))

    @pytest.mark.parametrize("schedule", [[0.05], [0.05, 0.01]], ids=str)
    def test_overlap_reports_equal_the_old_body(self, schedule):
        for source in self.SOURCES:
            for seed in range(1, 21):
                self._same(ensemble_estimate_overlap(source, schedule, 2000, RandomStream(seed)),
                           oracles.ensemble_estimate_overlap(source, schedule, 2000,
                                                             RandomStream(seed)))


    def test_ghost_mass_adds_ghost_clusters_then_unmatched_states(self):
        # estimates of pure states rarely leave a ghost, so the body gets one here
        source = Ensemble(((KET0, 0.7), (KET1, 0.3)))
        clusters = [{"state": PLUS.amplitudes, "count": 3}, {"state": None, "count": 1},
                    {"state": KET1.amplitudes, "count": 5}, {"state": None, "count": 7}]
        report = experiments._ensemble_report("ensemble-overlap", source, clusters,
                                              [None, 1], 11, RandomStream(2), 0.95, 0.05, {})
        ghost = (1 / 11 + 7 / 11) + 3 / 11
        assert report.metric_value == abs(0.7 - 0.0) + abs(0.3 - 5 / 11) + ghost
        assert [w for _, w in report.recovered] == [3 / 11, 5 / 11]
        assert [stat.frequency for stat in report.outcome_stats] == [3 / 11, 1 / 11, 5 / 11,
                                                                     7 / 11]
        assert report.extras == {"failed_checks": ["metric_below_threshold"]}


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
        with pytest.raises(ParameterError) as err:
            ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), [], 100,
                                      RandomStream(31))
        assert err.value.name == "epsilons"

    @pytest.mark.parametrize("epsilons", [[0.0], [0.05, 1.0], [2]])
    def test_epsilon_outside_the_open_interval_rejected(self, epsilons):
        with pytest.raises(ParameterError, match=r"^epsilon values must lie in \(0, 1\)$") as err:
            ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), epsilons, 100,
                                      RandomStream(31))
        assert err.value.name == "epsilons"

    # at 1e-17, 1 - 2 eps rounds to 1: no finite net resolves it
    @pytest.mark.parametrize("eps,net_cap", [(1e-4, 100), (1e-17, 4000)])
    def test_net_cap_failure_reported(self, eps, net_cap):
        report = ensemble_estimate_overlap(Ensemble(((KET0, 1.0),)), [eps], 100,
                                           RandomStream(32), net_cap=net_cap)
        assert report.status == FAIL
        assert not report.passed
        assert report.extras["net_cap"] == net_cap
        assert report.extras["requested_net"] > net_cap

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


class TestOverlapFinalRound:
    """The overlap estimate runs only its final round: its reports equal the
    body that ran every round of the schedule."""

    @pytest.mark.parametrize("net_cap", [4000, 100])
    @pytest.mark.parametrize("schedule", [[0.05, 0.01], [0.1, 0.05, 0.01], [0.2, 0.001]])
    def test_reports_equal_the_every_round_body(self, schedule, net_cap):
        source = cli._default_ensemble()
        for seed in range(1, 21):
            got = ensemble_estimate_overlap(source, schedule, 2000, RandomStream(seed, 16),
                                            net_cap=net_cap)
            want = oracles.ensemble_estimate_overlap_rounds(
                source, schedule, 2000, RandomStream(seed, 16), net_cap=net_cap)
            assert _record(got) == _record(want)
            assert repr(got.recovered) == repr(want.recovered)
            assert ([state.tobytes() for state, _ in got.recovered]
                    == [state.tobytes() for state, _ in want.recovered])


ENSEMBLE = Ensemble(((KET0, 0.5), (PLUS, 0.5)))
INTEGER_ARGUMENTS = {
    "cloning d": lambda v: cloning_demo(v, RandomStream(1), trials=5),
    "cloning trials": lambda v: cloning_demo(2, RandomStream(1), trials=v),
    "cloning precision": lambda v: cloning_demo(2, RandomStream(1), precision=v, trials=5),
    "tomography n": lambda v: tomography_estimate(KET0, v, RandomStream(1)),
    "readout n": lambda v: ensemble_estimate_readout(ENSEMBLE, v, RandomStream(1)),
    "readout precisions": lambda v: ensemble_estimate_readout(
        ENSEMBLE, 100, RandomStream(1), precisions=[4, v]),
    "overlap n": lambda v: ensemble_estimate_overlap(ENSEMBLE, [0.05], v, RandomStream(1)),
    "overlap net_cap": lambda v: ensemble_estimate_overlap(ENSEMBLE, [0.05], 10, RandomStream(1),
                                                           net_cap=v),
}


@pytest.mark.parametrize("argument,value,message", [
    ("cloning d", 2.0, "d must be an integer, got 2.0"),
    ("cloning d", True, "d must be an integer, got True"),
    ("cloning d", 5, r"d must be in \[2, 4\], got 5"),
    ("cloning trials", 5.0, "trials must be an integer, got 5.0"),
    ("cloning trials", True, "trials must be an integer, got True"),
    ("cloning trials", 0, "trials must be at least 1, got 0"),
    ("cloning precision", 6.0, "precision must be an integer, got 6.0"),
    ("cloning precision", True, "precision must be an integer, got True"),
    ("cloning precision", 0, r"precision must be in \[1, 52\], got 0"),
    ("cloning precision", 53, r"precision must be in \[1, 52\], got 53"),
    ("tomography n", 100.5, "n must be an integer, got 100.5"),
    ("tomography n", True, "n must be an integer, got True"),
    ("tomography n", 99, "n must be at least 100, got 99"),
    ("readout n", 100.5, "n must be an integer, got 100.5"),
    ("readout n", True, "n must be an integer, got True"),
    ("readout n", 99, "n must be at least 100, got 99"),
    ("readout precisions", 4.0, "precisions must be an integer, got 4.0"),
    ("readout precisions", True, "precisions must be an integer, got True"),
    ("readout precisions", 0, "precisions must be at least 1, got 0"),
    ("overlap n", 10.0, "n must be an integer, got 10.0"),
    ("overlap n", True, "n must be an integer, got True"),
    ("overlap n", -1, "n must be at least 0, got -1"),
    ("overlap net_cap", True, "net_cap must be an integer, got True"),
    ("overlap net_cap", 50.5, "net_cap must be an integer, got 50.5"),
    ("overlap net_cap", 0, "net_cap must be at least 1, got 0"),
])
def test_integer_argument_rejected_by_name(argument, value, message):
    with pytest.raises(ParameterError, match=f"^{message}$") as err:
        INTEGER_ARGUMENTS[argument](value)
    assert err.value.name == argument.split()[-1]


@pytest.mark.parametrize("argument,value", [
    ("cloning d", 4), ("cloning trials", 1), ("cloning precision", 1),
    ("cloning precision", CLONING_MAX_PRECISION),
    ("tomography n", 100), ("readout n", 100), ("readout precisions", 1),
    ("overlap n", 0), ("overlap net_cap", 1), ("overlap net_cap", np.int64(4000)),
    ("cloning d", np.int64(2)),
])
def test_integer_argument_accepts_its_bounds(argument, value):
    assert INTEGER_ARGUMENTS[argument](value).seed == 1


class TestReportPlumbing:
    def test_outcome_stat_validates_interval(self):
        with pytest.raises(ValueError):
            OutcomeStat(0.9, (0.1, 0.2), 100)

    def test_wilson_interval_contains_mle(self):
        for k, n in [(0, 50), (50, 50), (17, 100), (1, 1000)]:
            lo, hi = wilson_interval(k, n, 0.95)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_interval_rejects_a_confidence_that_rounds_to_certainty(self):
        # 0.5 + c/2 rounds to 1 here, and 1 has no normal quantile
        with pytest.raises(ParameterError) as err:
            wilson_interval(17, 100, 0.9999999999999999)
        assert err.value.name == "confidence"
        lo, hi = wilson_interval(17, 100, 0.9999999999999998)
        assert 0.0 <= lo <= 0.17 <= hi <= 1.0

    @pytest.mark.parametrize("confidence", [0.0, -1.0, 1.0, 1e-300, math.nan])
    def test_wilson_interval_rejects_a_confidence_outside_its_range(self, confidence):
        # 0.5 + c/2 must lie in (0.5, 1), where the normal quantile is positive and finite
        with pytest.raises(ParameterError) as err:
            wilson_interval(17, 100, confidence)
        assert err.value.name == "confidence"

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
