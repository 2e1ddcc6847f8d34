"""The three workloads: what one op is, how inputs come from the seed, and
how every op's output is checked.

Each workload is a closed loop with one client.  ``cycle(k)`` returns the
blocks of cycle ``k``; the inputs of a cycle depend only on the benchmark
seed and ``k``.  In cycle 0 the cli-demos ops, and the first run of each
opf-checks op, use pqsim's default seed, and their records are compared
with references captured at the seed commit; other ops draw pqsim seeds
from the benchmark seed and get the seed-free known-answer checks only.

pqsim must already be importable (run.py puts the checkout's ``src`` on
the path); importing this module imports every pqsim module, which is part
of the measured set-up.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pqsim import cli, devices, experiments, opf, qcore
from pqsim.qcore import FactorSpace, HermitianObservable, POVMSet, PureState, RandomStream

from harness import Block, Op, chi_square_pvalue, compare_records, record_fields

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DEFAULT_SEED = cli.DEFAULT_SEED

# A long block fails its chi-square test below this p-value.  It is 0.001
# divided by 1000, the most such tests one run makes, so a correct program
# fails a run of this benchmark with probability at most 0.001 (Bonferroni).
CHI_SQUARE_ALPHA = 1e-6

VERDICT_OK = ("VIOLATION_CERTIFIED", "CONSISTENT")


def load_references() -> dict:
    if not REFERENCES.is_file():  # only while capture_references.py makes it
        return {}
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def _seeds(seed: int, *key: int):
    """Independent numpy generator for one part of the inputs."""
    return np.random.default_rng([seed & 0xFFFFFFFF, *key])


def _pqsim_seed(rng) -> int:
    return int(rng.integers(1, 2**31))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, short: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.short = short
        self.references = load_references().get(self.name, {})

    def cycle(self, k: int, trace_dir: Path | None = None) -> list:
        raise NotImplementedError

    def reference_check(self, label: str, output: str, at_default_seed: bool):
        """Compare the output of an op run at pqsim's default seed with the
        reference captured at the seed commit."""
        if not at_default_seed:
            return None
        if label not in self.references:
            return f"no reference record for {label!r}"
        return compare_records(output, self.references[label])


def _first(*messages):
    return next((m for m in messages if m), None)


# ---------------------------------------------------------------------------
# cli-demos
# ---------------------------------------------------------------------------

DEMOS = ("fpvnem", "spod-update", "no-signalling", "cloning", "tomography",
         "ensemble-readout", "ensemble-overlap")
CLI_COMMANDS = (
    ("list-devices", ["list-devices"]),
    *((f"demo {d}", ["demo", d]) for d in DEMOS),
    ("check closure", ["check", "closure", "--family", "quantum_povm"]),
    ("check product-form", ["check", "product-form", "--family", "fpvnem"]),
    ("check estimation", ["check", "estimation", "--family", "readout"]),
    ("run device", ["run"]),
)
CLI_SHORT = ("list-devices", "demo no-signalling", "check closure", "run device")
RUN_REPETITIONS = 300


def _cli_exit_agrees(label: str, fields: dict, status: int):
    if "passed" in fields:
        ok = fields["passed"] == "true" and fields.get("status", "OK") == "OK"
    elif label == "check product-form":
        ok = fields.get("verdict") == fields.get("expected")
    elif label.startswith("demo"):
        ok = fields.get("verdict") in VERDICT_OK
    else:  # list-devices, run, check estimation: success is the only outcome
        ok = True
    if ok != (status == 0):
        return f"exit status {status} disagrees with the printed record"
    return None


def _cli_known_answer(label: str, fields: dict):
    expect = {
        "demo fpvnem": {"verdict": "VIOLATION_CERTIFIED", "f0_bell": "0"},
        "demo spod-update": {"verdict": "VIOLATION_CERTIFIED"},
        "demo no-signalling": {"verdict": "VIOLATION_CERTIFIED"},
        "demo cloning": {"verdict": "VIOLATION_CERTIFIED"},
        "check closure": {"passed": "true"},
        "check product-form": {"verdict": "VIOLATION"},
        "check estimation": {"verdict": "FAILS"},
    }.get(label, {})
    for key, value in expect.items():
        if fields.get(key) != value:
            return f"{key}={fields.get(key)}, expected {value}"
    if label == "demo spod-update" and not float(fields["control_residual"]) < 1e-10:
        return f"control_residual {fields['control_residual']} not below 1e-10"
    if label == "demo no-signalling":
        before, after = float(fields["entropy_before"]), float(fields["entropy_after"])
        if abs(before - 1.0) > 1e-9 or abs(after) > 1e-9:
            return f"entropy {before} before and {after} after, expected 1 and 0"
    return None


def _complex_text(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}i"


def _reduced(amplitudes: np.ndarray, dims: tuple, target: tuple) -> np.ndarray:
    """Reduced density matrix of the target factors, in plain numpy."""
    rest = tuple(i for i in range(len(dims)) if i not in target)
    d_t = int(np.prod([dims[i] for i in target]))
    mat = np.transpose(amplitudes.reshape(dims), target + rest).reshape(d_t, -1)
    return mat @ mat.conj().T


class CliResult:
    __slots__ = ("status", "stdout", "stderr")

    def __init__(self, status, stdout, stderr):
        self.status, self.stdout, self.stderr = status, stdout, stderr


class CliDemos(Workload):
    """One op is one ``python -m pqsim.cli ...`` process, run to its exit."""

    name = "cli-demos"

    def __init__(self, seed, workdir, short=False):
        super().__init__(seed, workdir, short)
        root = HERE.parent
        self.env = dict(os.environ)
        self.env.pop("PQSIM_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.cwd = root
        self.peak_rss_kb = 0

    def _config(self, k: int, pqsim_seed: int | None) -> tuple[Path, float]:
        """Write the run config of cycle k; returns its path and P(outcome +1).

        Cycle 0 runs at pqsim's defaults, so its state is seed-free too.
        """
        rng = _seeds(self.seed if k else DEFAULT_SEED, 7, k)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        lines = [] if pqsim_seed is None else [f"seed = {pqsim_seed}"]
        rendered = ", ".join(f'"{_complex_text(a)}"' for a in amps)
        lines += [
            "space.dims = [2, 2]",
            'state.kind = "explicit"',
            f"state.amplitudes = [{rendered}]",
            'action.type = "device"',
            'action.device.kind = "EigenvalueSampler"',
            'action.device.observable = "pauli_x"',
            "action.target = [1]",
            f"action.repetitions = {RUN_REPETITIONS}",
        ]
        path = self.workdir / f"run-{k}.pq"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = _reduced(amps, (2, 2), (1,))
        return path, float(np.real(plus @ rho @ plus))

    def _spawn(self, argv: list, trace: tuple | None) -> CliResult:
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        env = self.env
        if trace is None:
            cmd = [sys.executable, "-m", "pqsim.cli", *argv]
        else:
            spans_path, op = trace
            cmd = [sys.executable, str(HERE / "trace_entry.py"), *argv]
            env = dict(env, PERFBENCH_SPANS=str(spans_path), PERFBENCH_OP=str(op))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.cwd)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out_path.read_text(encoding="utf-8"),
                         err_path.read_text(encoding="utf-8"))

    def _check(self, label: str, k: int, result: CliResult, p_plus: float | None):
        lines = result.stdout.splitlines()
        if label == "run device":
            message = self._check_run(lines, result.status, p_plus)
        else:
            fields = record_fields(lines[0]) if lines else {}
            message = _first(_cli_exit_agrees(label, fields, result.status),
                             _cli_known_answer(label, fields))
            if label == "list-devices" and not message:  # seed-free: always compared
                message = self.reference_check(label, result.stdout, True)
        return message or self.reference_check(label, result.stdout, k == 0)

    def _check_run(self, lines: list, status: int, p_plus: float):
        if status != 0:
            return f"exit status {status}"
        if len(lines) != RUN_REPETITIONS + 1:
            return f"{len(lines)} records, expected {RUN_REPETITIONS + 1}"
        summary = record_fields(lines[-1])
        if summary.get("record") != "summary" or summary.get("repetitions") != str(
                RUN_REPETITIONS):
            return "missing or wrong summary record"
        counts = {1: 0, -1: 0}
        for line in lines[:-1]:
            value = float(record_fields(line).get("value", "nan"))
            sign = 1 if abs(value - 1.0) <= 1e-9 else -1 if abs(value + 1.0) <= 1e-9 else 0
            if sign == 0:
                return f"outcome {value} is not an eigenvalue of pauli_x"
            counts[sign] += 1
        p = chi_square_pvalue(counts, {1: p_plus, -1: 1.0 - p_plus})
        if p < CHI_SQUARE_ALPHA:
            return f"outcome counts {counts} fail chi-square against P(+1)={p_plus:.6f} (p={p:.2e})"
        return None

    def cycle(self, k, trace_dir=None):
        rng = _seeds(self.seed, 1, k)
        commands = [c for c in CLI_COMMANDS if not self.short or c[0] in CLI_SHORT]
        order = rng.permutation(len(commands))
        blocks = []
        for position, index in enumerate(order):
            label, argv = commands[index]
            pqsim_seed = None if k == 0 else _pqsim_seed(rng)
            argv = list(argv)
            p_plus = None
            if label == "run device":
                path, p_plus = self._config(k, pqsim_seed)
                argv.append(str(path))
            elif pqsim_seed is not None and label != "list-devices":
                argv += ["--seed", str(pqsim_seed)]
            trace = None
            if trace_dir is not None:
                trace = (trace_dir / f"op-{k}-{position}.json", position)
            blocks.append(Block([Op(
                label,
                call=lambda argv=argv, trace=trace: self._spawn(argv, trace),
                check=lambda r, label=label, p_plus=p_plus: self._check(label, k, r, p_plus),
            )]))
        return blocks


# ---------------------------------------------------------------------------
# opf-checks
# ---------------------------------------------------------------------------

def _computational_povm(dim: int) -> POVMSet:
    eye = np.eye(dim, dtype=complex)
    return POVMSet(tuple(np.outer(eye[i], eye[i]) for i in range(dim)))


def _fpvnem(d, m, samples):
    return lambda seed: experiments.fpvnem_refutation(d, m, samples, RandomStream(seed, 10))


def _closure_entropy_meter(seed):
    measurement = opf.entropy_meter_measurement(FactorSpace((2, 2)), (0,), precision=3)
    return opf.check_closure(measurement, 100, RandomStream(seed, 3))


def _closure_quantum_povm(seed):
    measurement = opf.FullMeasurement.from_povm(_computational_povm(4), FactorSpace((2, 2)))
    return opf.check_closure(measurement, 100, RandomStream(seed, 3))


def _product_form_quantum(seed):
    space = FactorSpace((4, 4))
    return opf.product_form_witness(
        opf.opf_from_quantum(np.diag(np.linspace(0.1, 0.9, 16)), space))


# label -> (call taking a pqsim seed, expected record fields).  The random
# streams use the CLI's namespaces (experiments 10 and 11, checks 3), so a
# cycle-0 record equals what the matching CLI command prints.
OPF_OPS = {
    "fpvnem d=2 m=3": (_fpvnem(2, 3, 1000),
                       {"verdict": "VIOLATION_CERTIFIED", "f0_bell": "0"}),
    "fpvnem d=4 m=8": (_fpvnem(4, 8, 100),
                       {"verdict": "VIOLATION_CERTIFIED", "f0_bell": "0"}),
    "closure entropy_meter m=3": (_closure_entropy_meter, {"passed": "true"}),
    "closure quantum_povm d=4": (_closure_quantum_povm, {"passed": "true"}),
    "product_form quantum d=16": (_product_form_quantum, {"verdict": "QUADRATIC"}),
    "spod-update projector0": (
        lambda seed: experiments.spod_update_refutation(RandomStream(seed, 11)),
        {"verdict": "VIOLATION_CERTIFIED"}),
    "estimation quantum_povm d=4": (
        lambda seed: opf.check_estimation_assumption("quantum_povm", 4,
                                                     RandomStream(seed, 3)),
        {"verdict": "SATISFIED"}),
}
# The cheap ops run at several seeds per cycle: a user calls a checker far
# more often than a refutation at d=4, and each cheap op gets tens of samples
# a run for its 10th percentile.
OPF_REPEATS = {"spod-update projector0": 6, "estimation quantum_povm d=4": 6,
               "closure quantum_povm d=4": 11, "fpvnem d=2 m=3": 9}


def opf_record(result) -> str:
    return cli.format_record(result.record_fields())


class OpfChecks(Workload):
    """One op is one in-process checker or experiment call."""

    name = "opf-checks"

    def _check(self, label: str, seed: int, result):
        record = opf_record(result)
        fields = record_fields(record)
        for key, value in OPF_OPS[label][1].items():
            if fields.get(key) != value:
                return f"{key}={fields.get(key)}, expected {value}"
        if label.startswith("spod") and not float(fields["control_residual"]) < 1e-10:
            return f"control_residual {fields['control_residual']} not below 1e-10"
        seed_free = label.startswith("product_form")  # always compared
        return self.reference_check(label, record, seed_free or seed == DEFAULT_SEED)

    def cycle(self, k, trace_dir=None):
        """Every op once, the cheap ones OPF_REPEATS times (once in short mode);
        in cycle 0 the first run of each op is at pqsim's default seed."""
        rng = _seeds(self.seed, 2, k)
        runs = []
        for label in OPF_OPS:
            if label in OPF_REPEATS:
                runs += [(label, r) for r in range(1 if self.short else OPF_REPEATS[label])]
            elif not self.short:
                runs.append((label, 0))
        blocks = []
        for index in rng.permutation(len(runs)):
            label, repeat = runs[index]
            seed = DEFAULT_SEED if k == 0 and repeat == 0 else _pqsim_seed(rng)
            call = OPF_OPS[label][0]
            blocks.append(Block([Op(
                label,
                call=lambda call=call, seed=seed: call(seed),
                check=lambda r, label=label, seed=seed: self._check(label, seed, r),
            )]))
        return blocks


# ---------------------------------------------------------------------------
# device-draws
# ---------------------------------------------------------------------------

# (dims, target) of the state spaces; targets of dimension 2, 3, 4 and 4
DRAW_SPACES = (((2, 2), (0,)), ((2, 3), (1,)), ((2, 2, 2), (0, 2)), ((4, 4), (0,)))
LONG_BLOCK = 64
DRAW_STREAM = 1  # the config runner's device-stream namespace


def _random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _random_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _device_variants(rng, dim: int) -> list:
    """Every stochastic device kind and variant on a target of this dimension.

    Parameters are raw arrays, as the config runner passes them; only the
    POVM and the overlap target are value objects, as they are there too.
    """
    number = np.diag(np.arange(dim, dtype=complex))
    v = _random_vector(rng, dim)
    spec = devices.DeviceSpec
    return [
        ("eigenvalue value", spec("EigenvalueSampler", {"observable": _random_hermitian(rng, dim)})),
        ("eigenvalue value m=3", spec("EigenvalueSampler", {
            "observable": _random_hermitian(rng, dim), "precision": 3})),
        ("eigenvalue integer_label", spec("EigenvalueSampler", {
            "observable": number, "variant": "integer_label", "label_offset": -1})),
        ("eigenvalue finite", spec("EigenvalueSampler", {
            "observable": number, "variant": "finite", "max_label": 1})),
        ("eigenvalue bit", spec("EigenvalueSampler", {
            "observable": np.outer(v, v.conj()), "variant": "bit"})),
        ("uncertainty", spec("UncertaintySampler", {"observable": _random_hermitian(rng, dim)})),
        ("uncertainty m=4", spec("UncertaintySampler", {
            "observable": _random_hermitian(rng, dim), "precision": 4})),
        ("povm", spec("PovmSampler", {"povm": _computational_povm(dim)})),
        ("povm max_label=1", spec("PovmSampler", {
            "povm": _computational_povm(dim), "max_label": 1})),
        ("overlap smoothed", spec("OverlapTest", {
            "target_state": PureState(FactorSpace((dim,)), _random_vector(rng, dim)),
            "threshold": 0.3, "sharpness": 8.0})),
        ("basis select hard", spec("BasisSelect", {})),
        ("basis select smoothed", spec("BasisSelect", {
            "basis": list(_random_unitary(rng, dim).T), "sharpness": 5.0})),
        ("entropy certifier", spec("EntropyCertifier", {
            "alpha": 1.0, "entropy_threshold": 0.5 * math.log2(dim), "sharpness": 6.0})),
        ("entropy certifier renyi-2", spec("EntropyCertifier", {
            "alpha": 2.0, "entropy_threshold": 0.5 * math.log2(dim), "sharpness": 6.0})),
        ("measure_projective", HermitianObservable(_random_hermitian(rng, dim))),
    ]


def _outcome_key(outcome):
    return (type(outcome).__name__, getattr(outcome, "value", None)
            if not isinstance(outcome, devices.Overflow) else None)


def _disturbance(state: PureState):
    return lambda snapshot: (None if state.amplitudes.tobytes() == snapshot
                             else "device call changed the state's amplitudes")


class DeviceDraws(Workload):
    """One op is one ``DeviceSpec.apply`` or ``measure_projective`` draw."""

    name = "device-draws"

    def __init__(self, seed, workdir, short=False):
        super().__init__(seed, workdir, short)
        rng = _seeds(seed, 3)
        spaces = DRAW_SPACES[:1] if short else DRAW_SPACES
        self.long_block = 4 if short else LONG_BLOCK
        self.pairs = []  # (label, space, target, device)
        for dims, target in spaces:
            dim = int(np.prod([dims[i] for i in target]))
            for label, device in _device_variants(rng, dim):
                self.pairs.append((f"{label} {dims}", FactorSpace(dims), target, device))

    def _draw_op(self, label, device, state, target, trial) -> Op:
        seed = self.seed
        if isinstance(device, HermitianObservable):
            call = lambda: qcore.measure_projective(
                state, device, target, RandomStream(seed, DRAW_STREAM, trial))
            n = device.n_clusters
            check = lambda r: (None if 0 <= r[0] < n and r[1].space.dims == state.space.dims
                               else f"bad projective outcome {r[0]}")
        else:
            call = lambda: device.apply(state, target, RandomStream(seed, DRAW_STREAM, trial))
            check = lambda r: (None if isinstance(r, (devices.RealValue, devices.IntegerLabel,
                                                      devices.Bit, devices.Overflow))
                               else f"unexpected outcome {r!r}")
        snapshot = state.amplitudes.tobytes
        return Op(label, call=call, check=check, before=snapshot,
                  check_state=_disturbance(state))

    @staticmethod
    def _chi_square(device, state, target):
        if isinstance(device, HermitianObservable):
            rho = _reduced(state.amplitudes, state.space.dims, target)
            probs = {i: float(np.real(np.trace(p @ rho)))
                     for i, p in enumerate(device.projectors)}
            key = lambda r: r[0]
        else:
            probs = {}
            for outcome, p in device.distribution(state, target):
                k = _outcome_key(outcome)
                probs[k] = probs.get(k, 0.0) + p
            key = _outcome_key

        def check(results):
            counts = {}
            for r in results:
                counts[key(r)] = counts.get(key(r), 0) + 1
            p = chi_square_pvalue(counts, probs)
            if p < CHI_SQUARE_ALPHA:
                return f"draws fail chi-square against the exact distribution (p={p:.2e})"
            return None

        return check

    def cycle(self, k, trace_dir=None):
        rng = _seeds(self.seed, 4, k)
        trial = k * 1_000_000
        blocks = []
        # long-block and single draws are separate op kinds: a per-state
        # cache would make them cost differently
        for label, space, target, device in self.pairs:
            state = PureState(space, _random_vector(rng, space.total_dim))
            ops = []
            for _ in range(self.long_block):
                ops.append(self._draw_op(f"{label} long", device, state, target, trial))
                trial += 1
            blocks.append(Block(ops, self._chi_square(device, state, target)))
            for _ in range(self.long_block):
                single = PureState(space, _random_vector(rng, space.total_dim))
                blocks.append(Block([self._draw_op(f"{label} single", device, single, target,
                                                   trial)]))
                trial += 1
        return [blocks[i] for i in rng.permutation(len(blocks))]


WORKLOADS = {w.name: w for w in (CliDemos, OpfChecks, DeviceDraws)}
