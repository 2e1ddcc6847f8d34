#!/usr/bin/env python3
"""pqsim benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload cli-demos --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it benchmarks the pqsim sources in
that checkout's ``src``.  With ``--trace 0`` it measures the end-to-end
metrics; with ``--trace 1`` it runs cycle 0 of the workload untraced once to
warm up, then block by block traced and untraced in alternation, and
reports the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Workloads,
ops and metrics are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# The launcher pins BLAS to one thread before numpy is first imported; every
# child process inherits the setting.
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBES = 3  # fresh set-ups per run; setup_s is their median
STARTUP_PROBES = 5  # fresh interpreters per traced run for the cli floor metrics
TRACE_PAIRS = 2  # interleaved traced/untraced runs of cycle 0 per traced run
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pqsim.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {  # name -> unit; the metrics of the result line, gated by BENCHMARK.json
    "setup_s": "s",
    "throughput_p10_ref_ops_per_s": "ops/ref-s",
    "latency_geomean_p10_ref_ms": "ref-ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
# Printed beside them, not gated: on a shared machine they follow other
# tenants' load more than the program (see KIND_PCT in harness.py).  Times
# are in this run's seconds.
PLAIN = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "error_rate": "ratio",
}

PER_LAYER = {  # name -> unit
    "cli.python_startup_ms": "ms", "cli.import_ms": "ms", "cli.self_ms": "ms",
    "cli.format_record_calls": "count",
    "experiments.calls": "count", "experiments.self_ms": "ms",
    "opf.opf_eval_calls": "count", "opf.opf_eval_self_ms": "ms",
    "opf.hermitian_coords_calls": "count", "opf.hermitian_coords_ms": "ms",
    "opf.check_closure_ms": "ms", "opf.product_form_witness_ms": "ms", "opf.self_ms": "ms",
    "devices.distribution_calls": "count", "devices.distribution_self_ms": "ms",
    "devices.distribution_repeat_ratio": "ratio",
    "devices.draw_calls": "count", "devices.draw_self_ms": "ms", "devices.self_ms": "ms",
    "qcore.construct_calls": "count", "qcore.construct_self_ms": "ms",
    "qcore.hermitian_observable_calls": "count", "qcore.random_stream_calls": "count",
    "qcore.partial_trace_calls": "count", "qcore.partial_trace_self_ms": "ms",
    "qcore.eig_calls": "count", "qcore.self_ms": "ms",
    "trace.op_ms": "ms", "trace.untraced_op_ms": "ms", "trace.overhead_ms": "ms",
    "trace.spans": "count",
}

# The traced run fails when a layer a workload exercises records no calls.
MUST_BE_CALLED = {
    "cli-demos": ("cli.format_record_calls", "experiments.calls", "opf.opf_eval_calls",
                  "devices.distribution_calls", "devices.draw_calls",
                  "qcore.construct_calls", "qcore.random_stream_calls",
                  "qcore.partial_trace_calls", "qcore.eig_calls"),
    "opf-checks": ("experiments.calls", "opf.opf_eval_calls", "opf.hermitian_coords_calls",
                   "devices.distribution_calls", "devices.draw_calls",
                   "qcore.construct_calls", "qcore.random_stream_calls",
                   "qcore.partial_trace_calls", "qcore.eig_calls"),
    "device-draws": ("devices.draw_calls", "devices.distribution_calls",
                     "qcore.construct_calls", "qcore.hermitian_observable_calls",
                     "qcore.random_stream_calls", "qcore.partial_trace_calls",
                     "qcore.eig_calls"),
}


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_sources() -> None:
    """Import pqsim from this checkout's src and nowhere else."""
    if not (SRC / "pqsim" / "__init__.py").is_file():
        _fail(f"no pqsim sources at {SRC}; run from the root of a pqsim checkout")
    sys.path.insert(0, str(SRC))
    import pqsim

    if Path(pqsim.__file__).resolve().parent != (SRC / "pqsim").resolve():
        _fail(f"pqsim imported from {pqsim.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _probe_seconds(argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(args, workdir: Path) -> float:
    """Median over fresh processes of the time from start to the first op.

    Each probe is this script in set-up-only mode: it imports pqsim and the
    workload, generates cycle 0's inputs, and prints the monotonic clock
    (shared by all processes on Linux) at the moment the first op would run.
    """
    times = []
    for i in range(1 if args.short else SETUP_PROBES):
        probe_dir = workdir / f"setup-{i}"
        probe_dir.mkdir()
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        if args.short:
            argv.append("--short")
        start = time.perf_counter()
        out = subprocess.run(argv, check=True, capture_output=True, text=True)
        times.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(times)


def _run_cycle(blocks, tally, tracer=None, keep_results=False):
    from harness import run_block

    for block in blocks:
        run_block(block, tally, tracer, keep_results)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def _report_errors(tally) -> None:
    for message in tally.errors:
        print(f"  FAILED {message}")


def measure(args, workload, workdir: Path) -> int:
    """End-to-end metrics: cycle 0 whole, then blocks of further cycles
    until ``args.seconds`` have passed since the first op."""
    from harness import KIND_PCT, REF_CAL_S, Tally, kind_summary, latency_summary, run_block

    setup_s = measure_setup(args, workdir)
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    for block in workload.cycle(0):
        run_block(block, tally)
        tally.calibrate()
    cycle = {}
    for kind in tally.kinds:
        cycle[kind] = cycle.get(kind, 0) + 1
    k = 1
    while time.perf_counter() < deadline:
        for block in workload.cycle(k):
            if time.perf_counter() >= deadline:
                break
            run_block(block, tally)
            tally.calibrate()
        k += 1
    plain = latency_summary(tally.latencies)
    fast = kind_summary(tally.latencies, tally.kinds, cycle, tally.calibrations)
    rss_kb = getattr(workload, "peak_rss_kb", 0) or resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    error_rate = tally.failed / tally.attempted
    metrics = {
        "setup_s": setup_s,
        "throughput_p10_ref_ops_per_s": fast["ops_per_cycle"] / (
            fast["cycle_seconds"] * fast["scale"]),
        "latency_geomean_p10_ref_ms": fast["geomean_ms"] * fast["scale"],
        "peak_rss_mb": rss_kb / 1024.0,
        "success_ratio": 1.0 - error_rate,
        "throughput_ops_per_s": plain["ops"] / plain["op_seconds"],
        "latency_p50_ms": plain["p50_ms"],
        "latency_tail_ms": plain["tail_ms"],
        "error_rate": error_rate,
    }
    rss_scope = "over its op processes" if hasattr(workload, "peak_rss_kb") else "of this process"
    print(f"workload {args.workload}  seed {args.seed}  cycles {k} (the last may be partial)  "
          f"ops {plain['ops']}  op kinds {fast['kinds']}, "
          f"at least {fast['fewest_samples']} samples each")
    print(f"  calibration kernel p{KIND_PCT:g} {fast['calibration_ms']:.4f} ms over "
          f"{fast['calibrations']} runs; reference {1e3 * REF_CAL_S:g} ms, so one second "
          f"here is {fast['scale']:.4f} reference seconds; unscaled: "
          f"{fast['ops_per_cycle'] / fast['cycle_seconds']:.6g} ops/s, {fast['geomean_ms']:.6g} ms")
    at_p10 = f"each of the {fast['kinds']} op kinds at its p10 latency"
    notes = {
        "setup_s": f"median of {1 if args.short else SETUP_PROBES} fresh set-ups",
        "throughput_p10_ref_ops_per_s": f"{fast['ops_per_cycle']} ops of a cycle, {at_p10}",
        "latency_geomean_p10_ref_ms": f"geometric mean op of a cycle, {at_p10}",
        "peak_rss_mb": f"peak resident memory {rss_scope}",
        "success_ratio": "1 - error_rate",
        "throughput_ops_per_s": f"{plain['ops']} ops in {plain['op_seconds']:.3f} s of ops",
        "latency_tail_ms": (f"p{plain['tail_pct']:g}, {plain['ops']} samples, "
                            f"{plain['tail_beyond']} beyond"),
        "error_rate": f"{tally.failed} of {tally.attempted} ops failed",
    }
    for title, units in (("gated", END_TO_END), ("not gated", PLAIN)):
        print(f" {title}:")
        for name, unit in units.items():
            print(f"  {name:<30} {metrics[name]:>14.6g} {unit:<9} {notes.get(name, '')}")
    _report_errors(tally)
    _emit(tally.failed == 0, tally.attempted, tally.failed, metrics, END_TO_END)
    return 0


def _traced_block(block, tally, tracer) -> None:
    """Run one block with spans; ``tracer`` is None for cli-demos, whose op
    processes install the wrappers themselves and dump their own spans."""
    from harness import run_block
    import tracing

    if tracer is None:
        run_block(block, tally, keep_results=True)
        return
    tracing.install(tracer)
    try:
        run_block(block, tally, tracer)
    finally:
        tracer.uninstall()


def measure_traced(args, workload, workdir: Path) -> int:
    """Per-layer metrics of cycle 0 and the tracing overhead.

    An untraced warm-up pass of cycle 0 comes first and is not timed.  Then,
    TRACE_PAIRS times, every block of cycle 0 runs once traced and once
    untraced, back to back, the order alternating from block to block and
    between repetitions, so that drift of machine speed cancels at the scale
    of one block.  The overhead is the median over repetitions of traced
    minus untraced op time.  The per-layer metrics come from the traced
    blocks of the last repetition, which are warm.
    """
    import tracing
    from harness import Tally, run_block

    env = _child_env()
    startup_ms = 1e3 * statistics.median(
        _probe_seconds(["-c", "pass"], env) for _ in range(STARTUP_PROBES))
    import_ms = 1e3 * statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(STARTUP_PROBES))

    trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    in_process = args.workload != "cli-demos"
    keep = not in_process  # cli stdout is compared between traced and untraced runs
    warmup = Tally()
    _run_cycle(workload.cycle(0), warmup, keep_results=keep)
    tallies, pairs = [warmup], []
    for repetition in range(TRACE_PAIRS):
        for path in trace_dir.glob("op-0-*.json"):
            path.unlink()
        tracer = tracing.Tracer() if in_process else None
        traced, plain = Tally(), Tally()
        traced_blocks = workload.cycle(0, None if in_process else trace_dir)
        for i, (tb, pb) in enumerate(zip(traced_blocks, workload.cycle(0))):
            if (i + repetition) % 2 == 0:
                _traced_block(tb, traced, tracer)
                run_block(pb, plain, keep_results=keep)
            else:
                run_block(pb, plain, keep_results=keep)
                _traced_block(tb, traced, tracer)
        pairs.append((1e3 * sum(traced.latencies), 1e3 * sum(plain.latencies)))
        tallies += [traced, plain]
    if keep:
        for tally in tallies[1:]:
            for (label, a), (_, b) in zip(tally.results, warmup.results):
                if not isinstance(a, Exception) and not isinstance(b, Exception) \
                        and a.stdout != b.stdout:
                    tally.fail(label, "stdout differs between traced and untraced runs")

    totals = tracing.Totals()
    if in_process:
        tracer.dump(str(trace_dir / "spans.json"))
        totals.add(tracer.as_dump())
    else:
        for path in sorted(trace_dir.glob("op-0-*.json")):
            totals.add(tracing.load(str(path)))
    traced_ms = statistics.median(t for t, _ in pairs)
    plain_ms = statistics.median(u for _, u in pairs)
    overhead_ms = statistics.median(t - u for t, u in pairs)
    last_traced_ms = pairs[-1][0]
    metrics = totals.metrics()
    metrics.update({
        "cli.python_startup_ms": startup_ms,
        "cli.import_ms": import_ms,
        "trace.op_ms": traced_ms,
        "trace.untraced_op_ms": plain_ms,
        "trace.overhead_ms": overhead_ms,
    })
    missing = [m for m in MUST_BE_CALLED[args.workload] if metrics[m] == 0]

    print(f"workload {args.workload}  seed {args.seed}  cycle 0: {warmup.attempted} ops; "
          f"untraced warm-up, then {TRACE_PAIRS} interleaved traced/untraced runs; last traced: "
          f"{metrics['trace.spans']} spans in {trace_dir}")
    print(f"  {'layer':<12} {'spans':>9} {'self ms':>12} {'share':>7}")
    for layer in tracing.LAYERS:
        calls = sum(v for k, v in totals.calls.items() if k.startswith(layer + "."))
        self_ms = metrics[f"{layer}.self_ms"]
        print(f"  {layer:<12} {calls:>9} {self_ms:>12.3f} {self_ms / last_traced_ms:>7.1%}")
    outside = last_traced_ms - 1e3 * totals.top_level_s
    print(f"  {'(no span)':<12} {'':>9} {outside:>12.3f} {outside / last_traced_ms:>7.1%}")
    print("  tracing overhead: " + ", ".join(f"{t:.3f} - {u:.3f}" for t, u in pairs)
          + f" ms traced - untraced; median {overhead_ms:.3f} ms "
          f"({overhead_ms / plain_ms:+.1%})")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    for tally in tallies:
        _report_errors(tally)
    for name in missing:
        print(f"  FAILED coverage: {name} is 0 on {args.workload}")
    failed = sum(t.failed for t in tallies)
    _emit(failed == 0 and not missing, sum(t.attempted for t in tallies), failed,
          metrics, PER_LAYER)
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-demos", "opf-checks", "device-draws"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_run_seconds(),
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="a few small ops per cycle, for the self-tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(ONE_THREAD)
    _use_checkout_sources()
    import workloads

    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_probe),
                                                      args.short)
        workload.cycle(0)
        print(time.perf_counter())
        return 0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.short)
        if args.trace:
            return measure_traced(args, workload, workdir)
        return measure(args, workload, workdir)


if __name__ == "__main__":
    sys.exit(main())
