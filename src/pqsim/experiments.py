"""Executable counterexamples, demonstrations, and state-estimation protocols.

Every experiment is a deterministic function of its parameters and the
seed carried by the supplied :class:`~pqsim.qcore.RandomStream`: identical
inputs reproduce identical verdicts and evidence.  Experiments return
either a :class:`Certificate` (pass/fail constructions) or an
:class:`EstimationReport` (statistical protocols); both serialize to the
CLI's record format through ``record_fields``.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .devices import (
    DeviceSpec,
    entropy_meter,
    overlap_bits,
    readout_density,
)
from .opf import (
    QUBIT_PROBE_STATES,
    FullMeasurement,
    UpdateMapCertificate,
    _pair_probes,
    entropy_meter_measurement,
    product_form_witness,
    quadratic_fit,
    update_map_feasibility,
)
from .qcore import (
    Ensemble,
    FactorSpace,
    HermitianObservable,
    PureState,
    RandomStream,
    StateStack,
    _checked_int,
    fidelities,
    measure_projective,
    normalized_states,
    povm_sets,
    random_pure_states,
    reduced_densities,
    require_density,
    schmidt_decompose,
    tensor_products,
)

VIOLATION_CERTIFIED = "VIOLATION_CERTIFIED"
CONSISTENT = "CONSISTENT"
FAIL = "FAIL"
CLONING_SUCCESS_QUOTA = 0.95  # share of trials a finite-precision readout must clone
SAME_STATE_ATOL = 1e-6  # recovered states closer than this (up to phase) are one state

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Certificate:
    """Verdict plus numeric evidence for one experiment run."""

    experiment: str
    verdict: str
    evidence: dict
    seed: int

    @property
    def passed(self) -> bool:
        """Whether the run reproduced its claim: any verdict but FAIL."""
        return self.verdict in (VIOLATION_CERTIFIED, CONSISTENT)

    def record_fields(self) -> dict:
        fields = {"experiment": self.experiment, "verdict": self.verdict,
                  "seed": self.seed}
        fields.update(self.evidence)
        return fields


@dataclass(frozen=True)
class OutcomeStat:
    """Frequency estimate with its confidence interval and trial count."""

    frequency: float
    interval: tuple[float, float]
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        lo, hi = self.interval
        if not lo - 1e-12 <= self.frequency <= hi + 1e-12:
            raise ValueError("interval must contain the frequency estimate")


@dataclass(frozen=True)
class EstimationReport:
    """Result of a statistical estimation protocol.

    ``recovered`` holds (amplitudes, weight) pairs for ensemble estimates;
    ``estimate_matrix`` holds the reconstructed density matrix for
    tomography.  ``passed`` is set only when the protocol's own declared
    criterion is met by the computed numbers.
    """

    protocol: str
    outcome_stats: tuple[OutcomeStat, ...]
    metric_name: str
    metric_value: float
    confidence: float
    threshold: float
    passed: bool
    seed: int
    status: str = "OK"
    estimate_matrix: np.ndarray | None = None
    recovered: tuple[tuple[np.ndarray, float], ...] = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.metric_value < 0:
            raise ValueError("achieved metric must be nonnegative")

    def record_fields(self) -> dict:
        fields = {
            "experiment": self.protocol,
            "metric": self.metric_name,
            "metric_value": self.metric_value,
            "confidence": self.confidence,
            "threshold": self.threshold,
            "passed": self.passed,
            "status": self.status,
            "seed": self.seed,
            "outcome_frequencies": [s.frequency for s in self.outcome_stats],
            "outcome_trials": [s.trials for s in self.outcome_stats],
            "recovered_weights": [w for _, w in self.recovered],
        }
        fields.update(self.extras)
        return fields


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the score interval always contains phat; enforce against float fuzz
    return (max(min(center - half, phat), 0.0), min(max(center + half, phat), 1.0))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


# ---------------------------------------------------------------------------
# Refutation experiments
# ---------------------------------------------------------------------------

def fpvnem_refutation(d: int, m: int, samples: int, rng: RandomStream,
                      include_entangled: bool = True) -> Certificate:
    """Finite-precision entropy meter vs the quadratic measurement form.

    Checks (i) the outcome set is bounded by ceil(2^m log2 d) + 1, (ii) the
    outcome-0 OPF equals 1 on random product states, (iii) it equals 0 on a
    maximally entangled state, and (iv) no single operator Q reproduces it
    as <psi|Q|psi> (large least-squares residual).  With
    ``include_entangled=False`` only product states are probed, and no
    violation is observable.  Only check (ii) depends on the seed; the rest
    is computed once per (d, m, include_entangled), on first use.
    """
    d = _checked_int(d, "d", 2, 4)
    m = _checked_int(m, "m", 1, 8)
    samples = _checked_int(samples, "samples", 1)
    facts = _fpvnem_facts(d, m, bool(include_entangled))
    bound = math.ceil(2 ** m * math.log2(d)) + 1
    factor = FactorSpace((d,))

    products = random_pure_states((factor, factor), rng, samples)
    f0_products = facts.measurement.outcomes[0].values(products)
    worst_product = float(np.max(np.abs(f0_products - 1.0), initial=0.0))

    evidence = {
        "d": d, "m": m, "samples": samples,
        "outcome_count": facts.outcome_count, "outcome_bound": bound,
        "max_product_deviation": worst_product,
    }

    clauses = {"outcome_bound": facts.outcome_count <= bound,
               "product_deviation": worst_product <= 1e-9}

    if not include_entangled:
        evidence["residual"] = facts.residual
        clauses["residual"] = facts.residual < 1e-6
        return Certificate("fpvnem", _judge(evidence, CONSISTENT, clauses), evidence, rng.seed)

    evidence.update({"f0_bell": facts.f0_bell, "residual": facts.residual})
    clauses.update({"f0_bell": facts.f0_bell == 0.0, "residual": facts.residual > 0.1})
    return Certificate("fpvnem", _judge(evidence, VIOLATION_CERTIFIED, clauses),
                       evidence, rng.seed)


class _FpvnemFacts(NamedTuple):
    """The seed-free half of ``fpvnem_refutation`` at one (d, m): the meter's
    full measurement, its outcome count, f0 on the Bell state (None when
    only product states are probed) and the quadratic-form fit's residual.

    The largest entry, d=4, m=8, holds about 0.25 MB under tracemalloc: its
    513 outcome OPFs and the measurement's one selection.  Its first build
    also keeps the d=16 witness design, 1.2 MB in ``opf._witness_design``,
    and peaks at about 2 MB."""

    measurement: FullMeasurement
    outcome_count: int
    f0_bell: float | None
    residual: float


@functools.cache
def _fpvnem_facts(d: int, m: int, include_entangled: bool) -> _FpvnemFacts:
    """``_FpvnemFacts`` per validated (d, m, include_entangled), built on first
    use."""
    space = FactorSpace((d, d))
    measurement = entropy_meter_measurement(space, (0,), precision=m)
    f0 = measurement.outcomes[0]
    if not include_entangled:
        return _FpvnemFacts(measurement, len(measurement.outcomes), None,
                            _product_probe_residual(f0, d))
    bell = PureState(space, np.eye(d).reshape(-1) / math.sqrt(d))
    return _FpvnemFacts(measurement, len(measurement.outcomes), f0(bell),
                        product_form_witness(f0).residual)


def _judge(evidence: dict, verdict: str, clauses: dict[str, bool]) -> str:
    """``verdict`` when every named clause holds; otherwise FAIL, with the
    names of the clauses that fail added to the evidence as
    ``failed_checks``, so a FAIL record says why."""
    failed = [name for name, holds in clauses.items() if not holds]
    if not failed:
        return verdict
    evidence["failed_checks"] = failed
    return FAIL


def _product_probe_residual(f, d: int) -> float:
    """Best quadratic-form fit of an OPF restricted to product states."""
    factor_probes = _pair_probes(d, (1, -1, 1j))
    probes = normalized_states(FactorSpace((d, d)), [np.kron(a, b) for a in factor_probes
                                                     for b in factor_probes])
    return quadratic_fit(probes.amplitudes, f.values(probes))[0]


SPOD_ELEMENTS = {
    "projector0": np.array([[1, 0], [0, 0]], dtype=complex),
    "half_identity": np.eye(2, dtype=complex) / 2,
    "zero": np.zeros((2, 2), dtype=complex),
}
for _element in SPOD_ELEMENTS.values():  # read-only: their fits are kept per name
    _element.setflags(write=False)


@functools.cache
def _update_map_certificates(element: str) -> tuple[UpdateMapCertificate, UpdateMapCertificate]:
    """The seed-free half of ``spod_update_refutation`` for a named element:
    the update-map fits of the element and of the half-identity control,
    each made once, on first use."""
    return (update_map_feasibility(SPOD_ELEMENTS[element], QUBIT_PROBE_STATES),
            update_map_feasibility(SPOD_ELEMENTS["half_identity"], QUBIT_PROBE_STATES))


def spod_update_refutation(rng: RandomStream, element: str = "projector0") -> Certificate:
    """POVM-statistics device vs the linear state-update postulate.

    First confirms the trivial update across repeated applications, then
    certifies (for a generic POVM element) that no state-independent
    linear map reproduces it; the half-identity and zero controls remain
    feasible.  Each of the 100 trials draws a state and a diagonal POVM
    from its own stream; the sampler then runs once on every state, as one
    ``DeviceSpec.apply`` on the stack with one POVM and one stream per state.
    The two fits depend on the element only, so they are made once per
    element, on first use.
    """
    if element not in SPOD_ELEMENTS:
        raise ValueError(f"element must be one of {sorted(SPOD_ELEMENTS)}")
    space = FactorSpace((2, 2))
    dim = space.total_dim
    normals = np.empty((100, 2 * dim))
    uniforms = np.empty((100, 2))
    children = []
    for row, pair, child in zip(normals, uniforms, rng.derive_many(range(100))):
        child.generator.standard_normal(out=row)  # random_pure_state's draw
        child.generator.random(out=pair)
        children.append(child)
    states = normalized_states(space, normals[:, :dim] + 1j * normals[:, dim:])
    b = np.zeros((100, 2, 2))
    b[:, [0, 1], [0, 1]] = 0.2 + 0.6 * uniforms
    povms = povm_sets(np.stack([b, np.eye(2) - b], axis=1))
    before = reduced_densities(states, space.indices())
    require_density(before)
    DeviceSpec("PovmSampler", {"povm": povms}).apply(states, (0,), children)
    after = reduced_densities(states, space.indices())  # devices never touch the state
    require_density(after)
    min_update_fidelity = min(1.0, *fidelities(before, after).tolist())

    cert, control = _update_map_certificates(element)

    evidence = {
        "element": element,
        "min_update_fidelity": min_update_fidelity,
        "residual": cert.residual,
        "control_residual": control.residual,
    }
    verdict = _judge(evidence, VIOLATION_CERTIFIED if cert.residual > 0.1 else CONSISTENT, {
        "trivial_update": min_update_fidelity >= 1.0 - 1e-12,
        "control_residual": control.residual < 1e-10,
        "certified_or_feasible": cert.residual > 0.1 or cert.feasible,
    })
    return Certificate("spod-update", verdict, evidence, rng.seed)


def checked_schmidt_weights(values: Sequence[float]) -> np.ndarray:
    """The Schmidt weights of the no-signalling state as an array: one or two
    nonnegative numbers summing to 1 (a NaN does not), else ValueError."""
    weights = np.asarray(values, dtype=float)
    if weights.size not in (1, 2) or np.any(weights < 0):
        raise ValueError("Schmidt weights must be one or two nonnegative numbers")
    if not abs(weights.sum() - 1.0) <= 1e-9:
        raise ValueError("Schmidt weights must sum to 1")
    return weights


def no_signalling_demo(rng: RandomStream,
                       schmidt_weights: Sequence[float] = (0.5, 0.5)) -> Certificate:
    """Remote measurement made visible through a local entropy meter.

    Prepares sum_i sqrt(p_i)|ii> on two qubits, reads the entropy of the
    first factor, performs a projective measurement of the second factor
    in the Schmidt basis, and reads the entropy again.  Any change is a
    signal that quantum measurements alone could never produce.
    """
    weights = checked_schmidt_weights(schmidt_weights)
    space = FactorSpace((2, 2))
    amps = np.zeros(4)
    amps[0] = math.sqrt(weights[0])
    if weights.size == 2:
        amps[3] = math.sqrt(weights[1])
    state = PureState(space, amps)

    before = entropy_meter(state, (0,), alpha=1.0).value

    dec = schmidt_decompose(state, (0,))
    basis = _complete_basis([chi.amplitudes for chi in dec.right_states], 2)
    observable = HermitianObservable(sum(
        (k + 1.0) * np.outer(b, b.conj()) for k, b in enumerate(basis)))
    outcome, post = measure_projective(state, observable, (1,), rng)
    after = entropy_meter(post, (0,), alpha=1.0).value

    evidence = {
        "weights": [float(w) for w in weights],
        "entropy_before": before,
        "entropy_after": after,
        "remote_outcome": outcome,
    }
    verdict = VIOLATION_CERTIFIED if abs(before - after) > 1e-6 else CONSISTENT
    return Certificate("no-signalling", verdict, evidence, rng.seed)


def _complete_basis(vectors: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend orthonormal vectors to a full orthonormal basis."""
    basis = [np.asarray(v, dtype=complex) for v in vectors]
    for j in range(dim):
        candidate = np.zeros(dim, dtype=complex)
        candidate[j] = 1.0
        for b in basis:
            candidate = candidate - np.vdot(b, candidate) * b
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            basis.append(candidate / norm)
        if len(basis) == dim:
            break
    return basis


def cloning_demo(d: int, rng: RandomStream, precision: int | None = None,
                 trials: int = 100) -> Certificate:
    """State readout as a cloning machine for unknown pure states, d in [2, 4].

    Each trial reads out the reduced density matrix of an unknown state,
    reconstructs the state from the rank-1 description, and prepares two
    copies.  Infinite precision demands copy fidelity >= 1 - 1e-9 on every
    trial; at finite precision m >= 1 the quota is fidelity >= 1 - 10*2^-m
    on at least ``CLONING_SUCCESS_QUOTA`` of the ``trials`` >= 1.
    """
    d = _checked_int(d, "d", 2, 4)
    trials = _checked_int(trials, "trials", 1)
    precision = None if precision is None else _checked_int(precision, "precision", 1)
    factor = FactorSpace((d,))
    blank = PureState.basis_state(FactorSpace((2,)), 0)
    threshold = 1.0 - 1e-9 if precision is None else 1.0 - 10.0 * 2.0 ** (-precision)

    states = random_pure_states((factor,), rng, trials)
    readout = DeviceSpec("Readout", {"precision": precision})
    fidelities = []
    for trial, (psi, joint) in enumerate(zip(states, tensor_products(states, blank))):
        vals, vecs = np.linalg.eigh(readout.table(joint, (0,)).values[0])
        if precision is None and (vals[-1] < 1.0 - 1e-9 or vals[-2] > 1e-9):
            evidence = {"d": d, "trial": trial, "rank_defect": float(vals[-2])}
            return Certificate("cloning", _judge(evidence, VIOLATION_CERTIFIED,
                                                 {"rank_defect": False}), evidence, rng.seed)
        copy = PureState.normalized(factor, vecs[:, -1])
        fidelities.append(abs(np.vdot(copy.amplitudes, psi.amplitudes)) ** 2)

    successes = sum(f >= threshold for f in fidelities)
    required = trials if precision is None else math.ceil(CLONING_SUCCESS_QUOTA * trials)
    evidence = {
        "d": d, "trials": trials,
        "precision": -1 if precision is None else precision,
        "fidelity_threshold": threshold,
        "min_fidelity": min(fidelities),
        "successes": successes,
    }
    verdict = _judge(evidence, VIOLATION_CERTIFIED, {"successes": successes >= required})
    return Certificate("cloning", verdict, evidence, rng.seed)


# ---------------------------------------------------------------------------
# Estimation protocols
# ---------------------------------------------------------------------------

def tomography_estimate(source: Union[Ensemble, PureState], n_trials: int,
                        rng: RandomStream, confidence: float = 0.95,
                        threshold: float = 0.02) -> EstimationReport:
    """Qubit state tomography from three informationally complete outcomes.

    Splits the trial budget across the +1 eigenprojectors of the three
    Pauli axes, reconstructs the Bloch vector from the frequencies, and
    projects the linear-inversion estimate onto the physical cone
    (eigenvalue clipping plus trace renormalization).
    """
    space = source.space
    if space.total_dim != 2:
        raise ValueError("tomography protocol is implemented for d = 2")
    n_trials = _checked_int(n_trials, "n_trials", 100)  # the confidence recipe's minimum

    rho_true = source.density().entries if isinstance(source, Ensemble) else source.density()
    budgets = [n_trials // 3 + (1 if i < n_trials % 3 else 0) for i in range(3)]
    stats = []
    bloch = np.zeros(3)
    for i, (pauli, budget) in enumerate(zip(PAULI, budgets)):
        q = (np.eye(2) + pauli) / 2.0
        p = float(np.trace(q @ rho_true).real)
        successes = int(rng.derive(i).generator.binomial(budget, min(max(p, 0.0), 1.0)))
        freq = successes / budget
        stats.append(OutcomeStat(freq, wilson_interval(successes, budget, confidence),
                                 budget))
        bloch[i] = 2.0 * freq - 1.0

    raw = (np.eye(2, dtype=complex)
           + bloch[0] * PAULI[0] + bloch[1] * PAULI[1] + bloch[2] * PAULI[2]) / 2.0
    estimate = _project_to_physical(raw)
    metric = trace_distance(estimate, rho_true)
    extras = {}
    return EstimationReport(
        protocol="tomography", outcome_stats=tuple(stats),
        metric_name="trace_distance", metric_value=metric,
        confidence=confidence, threshold=threshold,
        passed=_below_threshold(extras, metric, threshold), seed=rng.seed,
        estimate_matrix=estimate, extras=extras,
    )


def _below_threshold(extras: dict, metric: float, threshold: float) -> bool:
    """metric < threshold, judged by ``_judge``: a failure goes into ``failed_checks``."""
    return _judge(extras, "OK", {"metric_below_threshold": metric < threshold}) != FAIL


def _project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Nearest PSD unit-trace matrix by eigenvalue clipping."""
    sym = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        return np.eye(matrix.shape[0], dtype=complex) / matrix.shape[0]
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T


def _phase_fixed(vector: np.ndarray) -> np.ndarray:
    """Normalize the global phase: largest component becomes real positive."""
    idx = int(np.argmax(np.abs(vector)))
    phase = vector[idx] / abs(vector[idx])
    return vector / phase


def _state_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max amplitude-component distance after global-phase alignment."""
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    return float(np.max(np.abs(a * phase - b)))


def ensemble_estimate_readout(source: Ensemble, n_draws: int, rng: RandomStream,
                              precision_schedule: Sequence[int] | None = None,
                              confidence: float = 0.95,
                              threshold: float = 0.05) -> EstimationReport:
    """Recover a finite ensemble by repeated state readout.

    Draws states from the ensemble and clusters the readout descriptions;
    identical descriptions identify identical members at infinite
    precision, while at finite precision two reconstructions are
    identified when their phase-aligned amplitudes differ by less than
    2^-(m-1), the quantization cell size.  The achieved metric is the
    total variation sum |p_i - p_i^e| against the true weights.
    """
    n_draws = _checked_int(n_draws, "n_draws", 100)
    members = source.members
    weights = source.weights

    if precision_schedule is not None and len(precision_schedule) == 0:
        raise ValueError("precision schedule must be nonempty")
    schedule = [_checked_int(m, "precision_schedule entry", 1)
                for m in (() if precision_schedule is None else precision_schedule)]

    # group draws by (member, precision); the draw sequence is multinomial
    groups: dict[tuple[int, int | None], int] = {}
    if precision_schedule is None:
        counts = rng.derive(0).generator.multinomial(n_draws, weights)
        for r, c in enumerate(counts):
            if c > 0:
                groups[(r, None)] = int(c)
    else:
        member_draws = rng.derive(0).generator.choice(
            len(members), size=n_draws, p=weights)
        for t, r in enumerate(member_draws):
            key = (int(r), schedule[min(t, len(schedule) - 1)])
            groups[key] = groups.get(key, 0) + 1

    # one readout per distinct (member, precision) group
    clusters: list[dict] = []
    for (r, m_t), count in sorted(groups.items(), key=lambda kv: -kv[1]):
        state = members[r][0]
        description = readout_density(state, state.space.indices(), precision=m_t)
        vals, vecs = np.linalg.eigh(description.matrix)
        reconstructed = _phase_fixed(vecs[:, -1])
        tol = 0.0 if m_t is None else 2.0 ** (-(m_t - 1))
        placed = False
        for cluster in clusters:
            cell = max(tol, cluster["tol"], 1e-9)
            if _state_distance(cluster["state"], reconstructed) < cell:
                cluster["count"] += count
                placed = True
                break
        if not placed:
            clusters.append({"state": reconstructed, "count": count, "tol": tol})

    # match each cluster to the nearest true member, within a quantization cell
    cell = max(2.0 ** (-(min(schedule or [60]) - 1)), 1e-6)
    matches, deviations = [], [0.0]
    for cluster in clusters:
        distances = [_state_distance(cluster["state"], mem.amplitudes) for mem, _ in members]
        best = int(np.argmin(distances))
        matches.append(best if distances[best] < cell else None)
        if matches[-1] is not None:
            deviations.append(distances[best])

    extras = {"members": len(members), "draws": n_draws,
              "max_member_deviation": max(deviations),
              "finite_precision": precision_schedule is not None}
    return _ensemble_report("ensemble-readout", source, clusters, matches, n_draws, rng,
                            confidence, threshold, extras)


def _ensemble_report(protocol: str, source: Ensemble, clusters: Sequence[dict],
                     matches: Sequence[int | None], n_draws: int, rng: RandomStream,
                     confidence: float, threshold: float, extras: dict) -> EstimationReport:
    """The report of an ensemble estimate from its clusters, each a dict with
    a ``count`` of draws and a recovered ``state`` (None for a ghost), and
    the member each recovered state matched, or None.  The metric is the
    total variation sum |p_i - p_i^e| against the true weights, plus the
    ghost mass: the ghost clusters' and then the unmatched states' weights."""
    recovered = tuple((c["state"], c["count"] / n_draws) for c in clusters
                      if c["state"] is not None)
    stats = tuple(OutcomeStat(c["count"] / n_draws,
                              wilson_interval(c["count"], n_draws, confidence), n_draws)
                  for c in clusters)
    estimated = [0.0] * len(source.members)
    ghost_mass = sum(c["count"] / n_draws for c in clusters if c["state"] is None)
    for (_, weight), member in zip(recovered, matches):
        if member is None:
            ghost_mass += weight
        else:
            estimated[member] += weight
    total_variation = sum(abs(w - e) for w, e in zip(source.weights, estimated)) + ghost_mass
    return EstimationReport(
        protocol=protocol, outcome_stats=stats,
        metric_name="total_variation", metric_value=total_variation,
        confidence=confidence, threshold=threshold,
        passed=_below_threshold(extras, total_variation, threshold), seed=rng.seed,
        recovered=recovered, extras=extras,
    )


def recovered_supports_disjoint(a: EstimationReport, b: EstimationReport) -> bool:
    """Whether two ensemble estimates share no recovered state (up to phase)."""
    for state_a, _ in a.recovered:
        for state_b, _ in b.recovered:
            if _state_distance(state_a, state_b) < SAME_STATE_ATOL:
                return False
    return True


# ---------------------------------------------------------------------------
# Overlap-device estimation
# ---------------------------------------------------------------------------

def _bloch_vector(amplitudes: np.ndarray) -> np.ndarray:
    a, b = amplitudes
    return np.array([2 * (np.conj(a) * b).real, 2 * (np.conj(a) * b).imag,
                     abs(a) ** 2 - abs(b) ** 2])


def _bloch_state(vector: np.ndarray) -> np.ndarray:
    v = vector / np.linalg.norm(vector)
    theta = math.acos(min(max(v[2], -1.0), 1.0))
    phi = math.atan2(v[1], v[0])
    return np.array([math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi),
                                                                        math.sin(phi))])


def fibonacci_net(size: int) -> list[np.ndarray]:
    """Deterministic quasi-uniform net of qubit states on the Bloch sphere."""
    golden = (1 + math.sqrt(5)) / 2
    states = []
    for i in range(size):
        z = 1.0 - 2.0 * (i + 0.5) / size
        phi = 2 * math.pi * i / golden
        r = math.sqrt(max(1.0 - z * z, 0.0))
        states.append(_bloch_state(np.array([r * math.cos(phi), r * math.sin(phi), z])))
    return states


def _net_size_for(epsilon: float) -> int:
    # overlap > 1 - eps means Bloch angle < arccos(1 - 2 eps); the covering
    # radius of an N-point Fibonacci net is below 3.5/sqrt(N)
    theta = math.acos(1.0 - 2.0 * epsilon)
    return max(int(math.ceil((3.5 / theta) ** 2)), 8)


def ensemble_estimate_overlap(source: Ensemble, epsilon_schedule: Sequence[float],
                              n_draws: int, rng: RandomStream,
                              confidence: float = 0.95, threshold: float = 0.05,
                              net_cap: int = 4000) -> EstimationReport:
    """Recover a qubit ensemble using only threshold overlap tests.

    A round probes every draw with the hard overlap device against a
    deterministic net of target states at acceptance threshold 1 - eps;
    the firing pattern identifies the drawn state to within the net
    resolution.  Rounds run at decreasing eps, each net within ``net_cap``;
    the final round's clusters give the estimate (cluster state = Bloch
    centroid of firing targets), so it is the one round that is run.
    """
    if source.space.total_dim != 2:
        raise ValueError("overlap estimation is implemented for d = 2")
    schedule = [float(e) for e in epsilon_schedule]
    if len(schedule) == 0:
        raise ValueError("epsilon schedule must be nonempty")
    if any(not 0.0 < e < 1.0 for e in schedule):
        raise ValueError("epsilon values must lie in (0, 1)")
    n_draws = _checked_int(n_draws, "n_draws", 0)
    net_cap = _checked_int(net_cap, "net_cap", 1)

    members = source.members
    counts = rng.derive(0).generator.multinomial(n_draws, source.weights)
    space = source.space
    drawn = [r for r, count in enumerate(counts) if count > 0]
    rhos = reduced_densities(StateStack.of([members[r][0] for r in drawn], space),
                             space.indices())
    require_density(rhos)

    for eps in schedule:  # every round's net must fit; eps and size end as the final round's
        size = _net_size_for(eps)
        if size > net_cap:
            extras = {"net_cap": net_cap, "requested_net": size, "epsilon": eps}
            return EstimationReport(
                protocol="ensemble-overlap", outcome_stats=(),
                metric_name="total_variation", metric_value=0.0,
                confidence=confidence, threshold=threshold, passed=False,
                seed=rng.seed, status=_judge(extras, "OK", {"net_cap": False}),
                extras=extras)
    net = StateStack(space, np.array(fibonacci_net(size)))
    clusters: dict[frozenset, dict] = {}
    for r, bits in zip(drawn, overlap_bits(rhos, net, 1.0 - eps)):
        # ascending, as the set's iteration order (the centroid's sum order) follows it
        fired = frozenset(np.flatnonzero(bits).tolist())
        if not fired:
            fired = frozenset({-1})  # net failed to cover: ghost cluster
        entry = clusters.setdefault(fired, {"count": 0})
        entry["count"] += int(counts[r])
    for fired, entry in clusters.items():
        if -1 in fired:
            entry["state"] = None
            continue
        centroid = np.sum([_bloch_vector(net.amplitudes[j]) for j in fired], axis=0)
        entry["state"] = _phase_fixed(_bloch_state(centroid))

    # each recovered state matches the member of largest overlap, if that
    # overlap exceeds 1 - eps
    matches, overlaps_matched = [], [1.0]
    for state in (c["state"] for c in clusters.values() if c["state"] is not None):
        overlaps = [abs(np.vdot(state, mem.amplitudes)) ** 2 for mem, _ in members]
        best = int(np.argmax(overlaps))
        matches.append(best if overlaps[best] > 1.0 - eps else None)
        if matches[-1] is not None:
            overlaps_matched.append(overlaps[best])

    extras = {"rounds": len(schedule), "final_epsilon": eps, "final_net_size": size,
              "min_matched_overlap": min(overlaps_matched), "draws": n_draws}
    return _ensemble_report("ensemble-overlap", source, clusters.values(), matches, n_draws,
                            rng, confidence, threshold, extras)
