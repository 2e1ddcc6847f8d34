"""Self-tests of the benchmark.  The file name keeps them out of the repo's
tier-1 collection; run them explicitly:

    python3 -m pytest -q perfbench/selftest.py

They run every workload in short mode, traced and untraced, and check that
the checks catch what they are meant to catch: a corrupted reference, a
device that disturbs its state and a sampler with the wrong distribution
must each be counted as failed ops, and compare.py must call a change with
one more failed op worse.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-demos", "opf-checks", "device-draws")


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--short"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run_reports_every_per_layer_metric(workload):
    done = _bench("--workload", workload, "--seed", "3", "--trace", "1", "--short")
    result = _result(done)
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in run.MUST_BE_CALLED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert "tracing overhead" in done.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "opf-checks", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _run_cycle(workload, k=0):
    tally = harness.Tally()
    for block in workload.cycle(k):
        harness.run_block(block, tally)
    return tally


def test_corrupted_reference_counts_as_failed(tmp_path):
    workload = workloads.OpfChecks(5, tmp_path, short=True)
    label = "spod-update projector0"
    workload.references[label] = workload.references[label].replace(
        "residual=0.58896070256178545", "residual=0.58896071256178545")
    tally = _run_cycle(workload)
    assert tally.failed == 1
    assert "residual" in tally.errors[0]


def test_reference_tolerance_is_1e9():
    ref = "a=0.5 b=[1,2+0.5i] verdict=OK"
    assert harness.compare_records("a=0.5000000005 b=[1,2+0.5i] verdict=OK", ref) is None
    assert harness.compare_records("a=0.500000002 b=[1,2+0.5i] verdict=OK", ref)
    assert harness.compare_records("a=0.5 b=[1,2+0.50000001i] verdict=OK", ref)
    assert harness.compare_records("a=0.5 b=[1,2+0.5i] verdict=FAIL", ref)
    assert harness.compare_records("a=0.5 b=[1,2+0.5i]", ref)


def test_disturbed_state_counts_as_failed(tmp_path, monkeypatch):
    original = workloads.devices.DeviceSpec.apply

    def disturbing_apply(self, state, target, rng=None):
        outcome = original(self, state, target, rng)
        state.amplitudes = state.amplitudes[::-1].copy()
        return outcome

    monkeypatch.setattr(workloads.devices.DeviceSpec, "apply", disturbing_apply)
    tally = _run_cycle(workloads.DeviceDraws(5, tmp_path, short=True))
    assert tally.failed > 0
    assert any("amplitudes" in e for e in tally.errors)


def test_wrong_distribution_fails_chi_square(tmp_path, monkeypatch):
    def first_outcome(self, state, target, rng=None):
        rng.uniform()
        return self.distribution(state, target)[0][0]

    monkeypatch.setattr(workloads.devices.DeviceSpec, "apply", first_outcome)
    workload = workloads.DeviceDraws(5, tmp_path, short=True)
    workload.long_block = 200
    tally = _run_cycle(workload)
    assert any("chi-square" in e for e in tally.errors)


def test_chi_square_survival_function_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for stat, dof in ((0.5, 1), (3.0, 2), (10.0, 3), (40.0, 7), (200.0, 150), (1e-3, 5)):
        assert harness.chi2_sf(stat, dof) == pytest.approx(stats.chi2.sf(stat, dof),
                                                           rel=1e-9, abs=1e-15)


def test_chi_square_pvalue_merges_small_bins_and_flags_impossible_outcomes():
    probs = {"a": 0.5, "b": 0.49, "c": 0.01}
    assert harness.chi_square_pvalue({"a": 50, "b": 49, "c": 1}, probs) > 0.5
    assert harness.chi_square_pvalue({"a": 90, "b": 10}, probs) < 1e-6
    assert harness.chi_square_pvalue({"a": 99, "d": 1}, probs) == 0.0


def test_tail_uses_the_highest_ladder_percentile_with_ten_beyond():
    values = list(range(1, 10001))
    assert harness.tail_latency(values) == (99.0, 9900, 100)
    assert harness.tail_latency(values[:1000]) == (99.0, 990, 10)
    assert harness.tail_latency(values[:999])[0] == 90.0
    assert harness.tail_latency(values[:24]) == (50.0, 12, 12)
    assert harness.tail_latency(values[:15]) == (100.0 * 5 / 15, 5, 10)


def test_kind_summary_weighs_each_kind_at_its_p10_as_a_cycle_does():
    # kind "a" runs 3 times a cycle, "b" once; "b" was sampled more often
    a = [0.010 + 0.001 * i for i in range(10)]  # p10 0.010
    b = [0.100] + [0.500] * 19  # p10 0.500: nearest rank 2 of 20, past the lone fast one
    calibrations = [2 * harness.REF_CAL_S] * 9 + [3 * harness.REF_CAL_S]  # a machine at half speed
    summary = harness.kind_summary(a + b, ["a"] * 10 + ["b"] * 20, {"a": 3, "b": 1},
                                   calibrations)
    assert summary["ops_per_cycle"] == 4
    assert summary["cycle_seconds"] == pytest.approx(3 * 0.010 + 0.500)
    assert summary["geomean_ms"] == pytest.approx((10.0 ** 3 * 500.0) ** 0.25)
    assert summary["fewest_samples"] == 10
    assert summary["scale"] == pytest.approx(0.5)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from pqsim import devices, qcore

    original = qcore.partial_trace
    tracer = tracing.install(tracing.Tracer())
    try:
        assert devices.partial_trace is qcore.partial_trace is not original
        assert qcore.partial_trace.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert devices.partial_trace is qcore.partial_trace is original


def _write_runs(path, failed_by_seed):
    with open(path, "w", encoding="utf-8") as handle:
        for seed, failed in failed_by_seed.items():
            attempted = 105
            metrics = {"latency_geomean_p10_ref_ms": {"value": 100.0 + seed, "unit": "ref-ms"},
                       "success_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"}}
            result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}
            handle.write(json.dumps({"workload": "opf-checks", "seed": seed,
                                     "result": result}) + "\n")


def test_compare_calls_one_more_failed_op_worse(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write_runs(parent, {seed: 0 for seed in range(1, 11)})
    _write_runs(change, {seed: 0 for seed in range(1, 11)})
    assert compare.compare(str(parent), str(change)) == 0
    _write_runs(change, {seed: int(seed == 4) for seed in range(1, 11)})
    assert compare.compare(str(parent), str(change)) == 1
    assert "seed 4: correct=false" in capsys.readouterr().out


def test_success_ratio_bound_is_below_one_failed_op_in_a_run():
    # a run makes well under a million ops (device-draws, the busiest, about
    # 4000 per second), so one failed op moves success_ratio by more than the bound
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "success_ratio")
    assert bound * 1_000_000 <= 1.0
