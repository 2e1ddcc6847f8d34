"""Measurement loop, statistics and output checks shared by the workloads.

A workload hands the loop a list of blocks per cycle.  A block is a list
of ops plus an optional check over all of the block's results; an op is a
zero-argument call (the only timed code) plus a check of its own result.
An op fails when its own check or its block's check fails.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

# Tail latency is the highest of these percentiles that still has at least
# ten samples beyond it.  A fixed ladder keeps the reported percentile from
# drifting with the sample count, so runs of similar length compare.  It
# stops at p99: on a shared 2-CPU machine the p99.9 of device-draws was set
# by other processes' interference and spread 40 % from run to run.
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10

# The gated metrics take each op kind at this percentile of its latencies in
# the run, and scale it by the calibration kernel's own percentile in the
# same run.  On a shared machine whose speed drops by up to 40 % in spells
# of 10 s to minutes, a kind's median follows the share of the run spent in
# slow spells; its 10th percentile is set by the op's least disturbed runs,
# and the scale removes what a spell covering the whole run adds to it.
KIND_PCT = 10.0

# The calibration kernel runs between blocks, at most once per CAL_EVERY_S.
# REF_CAL_S is its 10th-percentile time on the 2-vCPU virtual machine the
# benchmark was built on: a reference second is the time in which that
# machine, undisturbed, runs the kernel 1/REF_CAL_S times.
CAL_EVERY_S = 0.1
REF_CAL_S = 0.45e-3

RECORD_ATOL = 1e-9


@dataclass
class Op:
    """One timed call.  ``check`` returns an error message or None."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]] = lambda result: None
    before: Callable[[], Any] = lambda: None  # untimed, its value goes to check_state
    check_state: Callable[[Any], Optional[str]] = lambda snapshot: None


@dataclass
class Block:
    ops: list
    check: Optional[Callable[[list], Optional[str]]] = None


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # seconds per op
    kinds: list = field(default_factory=list)  # the label of each op, in step
    calibrations: list = field(default_factory=list)  # seconds per calibration kernel
    last_calibration: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # first few messages, for the log
    results: list = field(default_factory=list)  # (label, result), when kept

    def calibrate(self) -> None:
        """Time the calibration kernel, unless it ran under CAL_EVERY_S ago.
        It is not warmed up: timed in the state the last op left the caches
        in (for cli-demos, after another process), it tracked the ops'
        slowdowns better than a warmed kernel, whose scaled cli-demos
        metrics spread twice as much."""
        if time.perf_counter() - self.last_calibration >= CAL_EVERY_S:
            start = time.perf_counter()
            calibration_kernel()
            self.last_calibration = time.perf_counter()
            self.calibrations.append(self.last_calibration - start)

    def fail(self, label: str, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")


def run_block(block: Block, tally: Tally, tracer=None, keep_results: bool = False) -> None:
    """Run every op of a block, timing each call, then apply the checks."""
    results, failed_ops = [], set()
    for op in block.ops:
        snapshot = op.before()
        index = tally.attempted
        tally.attempted += 1
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as err:  # an op that raises is a failed op, not a crash
            result = err
        end = time.perf_counter()
        if tracer is not None:
            tracer.op = -1
            tracer.settle()
        tally.latencies.append(end - start)
        tally.kinds.append(op.label)
        if isinstance(result, Exception):
            message = f"raised {type(result).__name__}: {result}"
        else:
            message = op.check(result) or op.check_state(snapshot)
        if message:
            tally.fail(op.label, message)
            failed_ops.add(len(results))
        results.append(result)
        if keep_results:
            tally.results.append((op.label, result))
    if block.check is not None and len(failed_ops) < len(results):
        message = block.check(results)
        if message:
            tally.fail(block.ops[0].label, message, len(results) - len(failed_ops))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(sorted_values: list, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_latency(sorted_values: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the latency tail."""
    n = len(sorted_values)
    for pct in reversed(TAIL_LADDER):
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(sorted_values, pct), beyond
    # fewer than 20 samples: take the order statistic with ten beyond it,
    # or the maximum when there are not even that many
    rank = max(1, n - TAIL_MIN_BEYOND)
    return 100.0 * rank / n, sorted_values[rank - 1], n - rank


def latency_summary(latencies: list) -> dict:
    ordered = sorted(latencies)
    pct, tail, beyond = tail_latency(ordered)
    return {
        "ops": len(ordered),
        "op_seconds": sum(ordered),
        "p50_ms": nearest_rank(ordered, 50.0) * 1e3,
        "tail_pct": pct,
        "tail_ms": tail * 1e3,
        "tail_beyond": beyond,
    }


_CAL_MATRIX = np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T


def calibration_kernel() -> int:
    """Fixed work like pqsim's: Python loops, dicts of small values and
    numpy calls on 4x4 matrices; about 0.45 ms."""
    total = 0
    for i in range(3000):
        total += i * i
    table = {}
    for i in range(300):
        table[str(i)] = (i, float(i))
    for _ in range(15):
        np.linalg.eigh(_CAL_MATRIX)
        total += int(np.outer(_CAL_MATRIX[0], _CAL_MATRIX[1]).sum())
    return total + len(table)


def kind_summary(latencies: list, kinds: list, cycle: dict, calibrations: list) -> dict:
    """The gated timing metrics: every op kind at its KIND_PCT latency, in
    reference seconds.

    ``cycle`` maps each kind to its number of ops in one cycle.  Throughput
    is a cycle's ops over the time the cycle takes with every op at its
    kind's KIND_PCT latency; latency is the geometric mean op of such a
    cycle, which, unlike its median, does not rest on one kind alone.  Both
    weigh the kinds as a cycle does, wherever in a cycle the run stopped.
    ``scale`` turns this run's seconds into reference seconds: REF_CAL_S
    over the calibration kernel's KIND_PCT time in the run.
    """
    by_kind: dict = {}
    for kind, seconds in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(seconds)
    fast = {kind: nearest_rank(sorted(v), KIND_PCT) for kind, v in by_kind.items()}
    per_op = sorted(fast[kind] for kind, n in cycle.items() for _ in range(n))
    calibration_s = nearest_rank(sorted(calibrations), KIND_PCT)
    return {
        "ops_per_cycle": len(per_op),
        "cycle_seconds": sum(per_op),
        "geomean_ms": math.exp(sum(math.log(x) for x in per_op) / len(per_op)) * 1e3,
        "kinds": len(cycle),
        "fewest_samples": min(len(by_kind[kind]) for kind in cycle),
        "calibration_ms": calibration_s * 1e3,
        "calibrations": len(calibrations),
        "scale": REF_CAL_S / calibration_s,
    }


# ---------------------------------------------------------------------------
# Chi-square goodness of fit
# ---------------------------------------------------------------------------

def chi2_sf(stat: float, dof: int) -> float:
    """Survival function of the chi-square distribution (regularized Q(k/2, x/2))."""
    if stat <= 0.0:
        return 1.0
    a, x = dof / 2.0, stat / 2.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        for _ in range(10_000):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return max(0.0, 1.0 - total * math.exp(log_prefactor))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_prefactor) * h


def chi_square_pvalue(counts: dict, probabilities: dict, floor: float = 1e-12) -> float:
    """p-value of observed outcome counts against exact probabilities.

    An outcome drawn although its probability is below ``floor`` gives 0.
    Bins with expected count below 5 are merged, smallest first.
    """
    n = sum(counts.values())
    if any(probabilities.get(key, 0.0) < floor for key in counts):
        return 0.0
    bins = sorted([n * p, counts.get(key, 0)] for key, p in probabilities.items()
                  if p >= floor)
    while len(bins) > 1 and bins[0][0] < 5.0:
        low = bins.pop(0)
        bins[0][0] += low[0]
        bins[0][1] += low[1]
        bins.sort()
    if len(bins) < 2:
        return 1.0
    stat = sum((observed - expected) ** 2 / expected for expected, observed in bins)
    return chi2_sf(stat, len(bins) - 1)


# ---------------------------------------------------------------------------
# Record comparison
# ---------------------------------------------------------------------------

_SCALAR = re.compile(r"[^\[\],]+")


def _number(token: str) -> Optional[complex]:
    """Parse an int, float or record-format complex (re+imi); None if not numeric."""
    try:
        return complex(float(token), 0.0)
    except ValueError:
        pass
    if token.endswith("i"):
        body = token[:-1]
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                try:
                    return complex(float(body[:pos]), float(body[pos:]))
                except ValueError:
                    return None
    return None


def _values_close(actual: str, reference: str, atol: float) -> bool:
    if actual == reference:
        return True
    if _SCALAR.sub("#", actual) != _SCALAR.sub("#", reference):
        return False
    for a, r in zip(_SCALAR.findall(actual), _SCALAR.findall(reference)):
        if a == r:
            continue
        na, nr = _number(a), _number(r)
        if na is None or nr is None or abs(na - nr) > atol * max(1.0, abs(nr)):
            return False
    return True


def _record(line: str) -> Optional[dict]:
    tokens = line.split(" ")
    if not all("=" in t for t in tokens):
        return None
    return dict(t.split("=", 1) for t in tokens)


def compare_records(actual: str, reference: str, atol: float = RECORD_ATOL) -> Optional[str]:
    """None when the output matches the reference; otherwise what differs.

    Record lines (``key=value`` tokens) match when their keys agree, their
    non-numeric values are equal and their numbers agree within ``atol``
    (relative above 1).  Any other line must be equal.
    """
    got, want = actual.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, reference has {len(want)}"
    for number, (a, r) in enumerate(zip(got, want), 1):
        if a == r:
            continue
        ra, rr = _record(a), _record(r)
        if ra is None or rr is None:
            return f"line {number} differs from the reference"
        if ra.keys() != rr.keys():
            return f"line {number} has keys {sorted(ra.keys() ^ rr.keys())} differing"
        for key in rr:
            if not _values_close(ra[key], rr[key], atol):
                return f"line {number}: {key}={ra[key]}, reference {rr[key]}"
    return None


def record_fields(line: str) -> dict:
    """Fields of one record line, values left as text ({} if not a record)."""
    return _record(line.strip()) or {}
