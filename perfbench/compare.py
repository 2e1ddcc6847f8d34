#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

Collect untraced runs of one or more checkouts, each for ``run_seconds``
from BENCHMARK.json, alternating which checkout goes first from seed to
seed; each run's JSON result becomes one line of the output file:

    python3 perfbench/compare.py collect --root ../parent --out parent.jsonl \\
        --root . --out change.jsonl --seeds 1-10

Compare the parent's runs with the change's:

    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload it first checks correctness: the workload is ``worse``
when any change run reports ``correct=false`` or more failed ops than the
parent's run at the same seed, whatever its timings.  Then for each
end-to-end metric it prints each side's median and quartiles, the share of
seed-paired runs the change wins, and a verdict against the metric's bound
in BENCHMARK.json:

- ``unresolved``: the parent's own quartile spread, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
- ``unchanged``: anything else.

The exit status is 1 when any verdict is ``worse``.  With a single file,
it prints each metric's spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    if len(args.root) != len(args.out):
        raise SystemExit("give one --out per --root")
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    sides = [(Path(root).resolve(), Path(out)) for root, out in zip(args.root, args.out)]
    for n, seed in enumerate(_seeds(args.seeds)):
        order = sides if n % 2 == 0 else sides[::-1]
        for workload in workloads:
            for root, out in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
                done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(done.stdout + done.stderr, file=sys.stderr)
                    raise SystemExit(f"{root}: {workload} seed {seed} exited {done.returncode}")
                result = json.loads(lines[-1])
                with open(out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": seed,
                                             "result": result}) + "\n")
                print(f"{root.name}: {workload} seed {seed} correct={result['correct']}",
                      file=sys.stderr)
    return 0


def load_runs(path: str) -> dict:
    """{workload: {seed: result}}"""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                entry = json.loads(line)
                runs.setdefault(entry["workload"], {})[entry["seed"]] = entry["result"]
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(results: dict, metric: str) -> dict:
    return {seed: r["metrics"][metric]["value"] for seed, r in results.items()
            if metric in r["metrics"]}


def verdict(parent: dict, change: dict, bound: float, lower_is_better: bool) -> tuple:
    """(verdict, share of pairs won) for one metric; dicts map seed -> value."""
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(sorted(parent.values()))
    _, cm, _ = quartiles(sorted(change.values()))
    pairs = [s for s in parent if s in change]
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in pairs)
    share = wins / len(pairs) if pairs else 0.0
    spread = p3 - p1
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if spread > bound * abs(pm):
        all_better = all(sign * (c - p) < 0 for c in change.values() for p in parent.values())
        return ("better" if all_better else "unresolved"), share
    if worse_by > bound:
        return "worse", share
    if share >= 0.9 and abs(cm - pm) > spread:
        return "better", share
    return "unchanged", share


def _fmt(values: list) -> str:
    q1, m, q3 = quartiles(sorted(values))
    return f"{m:11.5g} [{q1:.5g}, {q3:.5g}]"


def correctness(parent: dict, change: dict) -> list:
    """Why the change's runs of one workload are less correct; dicts map seed -> result."""
    problems = []
    for seed, result in sorted(change.items()):
        parent_failed = parent[seed]["failed"] if seed in parent else 0
        if not result["correct"]:
            problems.append(f"seed {seed}: correct=false")
        if result["failed"] > parent_failed:
            problems.append(f"seed {seed}: {result['failed']} failed ops, "
                            f"parent {parent_failed}")
    return problems


def compare(parent_path: str, change_path: str) -> int:
    spec = load_spec()
    parent, change = load_runs(parent_path), load_runs(change_path)
    worse = 0
    print(f"{'workload':<13} {'metric':<22} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        problems = correctness(parent[workload], change[workload])
        if problems:
            worse += 1
            print(f"{workload:<13} {'correctness':<22} worse: " + "; ".join(problems))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = _values(parent[workload], name), _values(change[workload], name)
            if not a or not b:
                continue
            result, share = verdict(a, b, metric["bound"], metric["better"] == "lower")
            worse += result == "worse"
            print(f"{workload:<13} {name:<22} {_fmt(list(a.values())):<34} "
                  f"{_fmt(list(b.values())):<34} {share:>5.0%}  {result} "
                  f"(bound {metric['bound']:.0%})")
    return 1 if worse else 0


def spreads(path: str) -> int:
    spec = load_spec()
    runs = load_runs(path)
    for workload, results in sorted(runs.items()):
        failed = sum(r["failed"] for r in results.values())
        correct = all(r["correct"] for r in results.values())
        print(f"{workload}: {len(results)} runs, correct={correct}, failed ops={failed}")
        for metric in spec["end_to_end"]:
            values = sorted(_values(results, metric["name"]).values())
            if not values:
                continue
            q1, m, q3 = quartiles(values)
            share = (q3 - q1) / abs(m) if m else 0.0
            flag = "" if share < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {metric['name']:<22} median {m:<12.6g} spread {share:7.2%} "
                  f"(bound {metric['bound']:.0%}){flag}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "collect":
        parser = argparse.ArgumentParser(prog="compare.py collect")
        parser.add_argument("--root", action="append", default=[],
                            help="checkout to run (repeat, one per --out)")
        parser.add_argument("--out", action="append", default=[],
                            help="JSON-lines file the runs are appended to")
        parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
        parser.add_argument("--workloads", default="", help="comma-separated; default all")
        return collect(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description="compare two sets of runs")
    parser.add_argument("parent", help="runs of the parent commit (JSON lines)")
    parser.add_argument("change", nargs="?", help="runs of the change; omit to see spreads")
    args = parser.parse_args(argv)
    if args.change is None:
        return spreads(args.parent)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
