"""Catalog of hypothetical measurement devices acting on a subsystem.

Every device reads out information about the reduced density matrix of a
designated subsystem of a global pure state and leaves that state
untouched (the trivial post-measurement update).  Stochastic devices draw
from Born-rule distributions that are always computed at full floating
precision; only declared outputs are quantized.

Each stochastic operation comes in two layers: a ``*_distribution``
function returning the exact outcome distribution, and the sampling
operation that draws from it through a :class:`~pqsim.qcore.RandomStream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .qcore import (
    DensityMatrix,
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    _normalize_subset,
    born_probabilities,
    entropy,
    partial_trace,
    quantize,
    reduced_densities,
    spectrum_entropy,
    stack_amplitudes,
)

BASIS_ATOL = 1e-8
TIE_ATOL = 1e-9  # two basis weights tie when they differ by less than this
OUTCOME_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealValue:
    value: float


@dataclass(frozen=True)
class IntegerLabel:
    value: int


@dataclass(frozen=True)
class Bit:
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("Bit outcome must be 0 or 1")


class MatrixDescription:
    """Classical description of a matrix, optionally at finite precision.

    At precision ``m`` every real and imaginary entry is an exact multiple
    of 2^-m; ``precision=None`` means the full floating-point description.
    """

    __slots__ = ("matrix", "precision")

    def __init__(self, matrix: np.ndarray, precision: int | None = None):
        mat = np.array(matrix, dtype=complex)
        mat.setflags(write=False)
        self.matrix = mat
        self.precision = None if precision is None else int(precision)

    def __repr__(self):
        return f"MatrixDescription(shape={self.matrix.shape}, precision={self.precision})"


@dataclass(frozen=True)
class Overflow:
    """Error code for finite-range samplers; carries the excluded mass."""

    excluded_probability: float = 0.0


Outcome = Union[RealValue, IntegerLabel, Bit, MatrixDescription, Overflow]


def outcomes_equal(a: Outcome, b: Outcome, atol: float = OUTCOME_ATOL) -> bool:
    """Tolerant outcome comparison; Overflow matches Overflow regardless of mass."""
    if type(a) is not type(b):
        return False
    if isinstance(a, RealValue):
        return abs(a.value - b.value) <= atol
    if isinstance(a, (IntegerLabel, Bit)):
        return a.value == b.value
    if isinstance(a, MatrixDescription):
        if a.precision != b.precision or a.matrix.shape != b.matrix.shape:
            return False
        return float(np.max(np.abs(a.matrix - b.matrix))) <= atol
    return True  # Overflow


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def reduced_density(state: PureState, target: Union[int, Sequence[int]]) -> DensityMatrix:
    """Reduced density matrix of the target factors (the whole state if all)."""
    subset = _normalize_subset(state.space, target)
    if len(subset) == state.space.n_factors:
        return DensityMatrix.from_pure(state)
    return partial_trace(state, subset)


def reduced_density_stack(states: Sequence[PureState], target) -> np.ndarray:
    """Reduced density matrices of the target factors of states on one space.

    Returns an (n, d, d) stack whose entries equal ``reduced_density`` of
    each state; the states are unit vectors, so the stack needs no
    revalidation.
    """
    space = states[0].space
    subset = _normalize_subset(space, target)
    amps = stack_amplitudes(states, space)
    if len(subset) == space.n_factors:
        return amps[:, :, None] * amps.conj()[:, None, :]
    return reduced_densities(amps, space, subset)


def target_dimension(space: FactorSpace, target: Union[int, Sequence[int]]) -> int:
    subset = _normalize_subset(space, target)
    return math.prod(space.dims[i] for i in subset)


def quantize_matrix(matrix: np.ndarray, m: int) -> np.ndarray:
    """Quantize real and imaginary parts independently to multiples of 2^-m."""
    quantizer = np.vectorize(lambda x: quantize(x, m))
    return quantizer(matrix.real) + 1j * quantizer(matrix.imag)


def _basis_matrix(basis, dim: int) -> np.ndarray:
    """Column matrix of basis states from a row list (None = computational)."""
    if basis is None:
        return np.eye(dim, dtype=complex)
    rows = np.array(basis, dtype=complex)
    if rows.shape != (dim, dim):
        raise ValueError(f"basis must list {dim} vectors of length {dim}")
    b = rows.T
    if np.max(np.abs(b.conj().T @ b - np.eye(dim))) > BASIS_ATOL:
        raise ValueError("basis is not orthonormal within tolerance")
    return b


def _as_observable(observable) -> HermitianObservable:
    if isinstance(observable, HermitianObservable):
        return observable
    return HermitianObservable(observable)


def _as_povm(povm) -> POVMSet:
    if isinstance(povm, POVMSet):
        return povm
    return POVMSet(tuple(povm))


def _projector_weight(rho: DensityMatrix, vector: np.ndarray) -> float:
    """Tr(P_phi rho) for a normalized vector phi."""
    return float(np.real(np.vdot(vector, rho.entries @ vector)))


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _draw(distribution: list[tuple[Outcome, float]], rng: RandomStream) -> Outcome:
    probs = [p for _, p in distribution]
    return distribution[rng.choose(probs)][0]


# ---------------------------------------------------------------------------
# Readout devices
# ---------------------------------------------------------------------------

def readout_density(state: PureState, target, basis=None,
                    precision: int | None = None) -> MatrixDescription:
    """Classical description of the reduced density matrix.

    The matrix is expressed in the given orthonormal basis (computational
    by default) and, when ``precision`` is supplied, each entry's real and
    imaginary parts are reported to the nearest multiple of 2^-precision.
    """
    rho = reduced_density(state, target)
    b = _basis_matrix(basis, rho.dim)
    mat = b.conj().T @ rho.entries @ b
    if precision is not None:
        mat = quantize_matrix(mat, precision)
    return MatrixDescription(mat, precision)


def function_readout(state: PureState, target, exponent: int = 1, basis=None,
                     precision: int | None = None) -> MatrixDescription:
    """Description of rho^n for a positive integer n (n=1 is the identity map)."""
    exponent = int(exponent)
    if exponent < 1:
        raise ValueError("supported matrix functions are positive integer powers")
    rho = reduced_density(state, target)
    b = _basis_matrix(basis, rho.dim)
    mat = b.conj().T @ np.linalg.matrix_power(rho.entries, exponent) @ b
    if precision is not None:
        mat = quantize_matrix(mat, precision)
    return MatrixDescription(mat, precision)


def expectation_readout(state: PureState, target, observable,
                        precision: int | None = None) -> RealValue:
    """Expectation value Tr(A rho_1), optionally quantized."""
    obs = _as_observable(observable)
    rho = reduced_density(state, target)
    if obs.dim != rho.dim:
        raise ValueError("observable dimension does not match the target factors")
    value = float(np.trace(obs.entries @ rho.entries).real)
    if precision is not None:
        value = quantize(value, precision)
    return RealValue(value)


# ---------------------------------------------------------------------------
# Stochastic eigenvalue and POVM samplers
# ---------------------------------------------------------------------------

def _cluster_probabilities(rho: DensityMatrix, obs: HermitianObservable) -> np.ndarray:
    probs = np.array([float(np.trace(p @ rho.entries).real) for p in obs.projectors])
    return np.clip(probs, 0.0, None)


def eigenvalue_distribution(state: PureState, target, observable, variant: str = "value",
                            precision: int | None = None, max_label: int | None = None,
                            label_offset: int = 0) -> list[tuple[Outcome, float]]:
    """Exact outcome distribution of the eigenvalue sampler.

    Variants:
      - ``value``          eigenvalue as a real number (quantized when
                           ``precision`` is given; entries are reported
                           post-quantization without re-aggregating, so two
                           clusters may carry the same reported value)
      - ``integer_label``  cluster index, ascending from the smallest
                           eigenvalue, shifted by ``label_offset``
      - ``finite``         like integer_label but labels with |i| >
                           ``max_label`` are replaced by one Overflow
                           outcome carrying the excluded mass
      - ``bit``            for projector-valued observables only: the
                           eigenvalue itself as a 0/1 bit
    """
    obs = _as_observable(observable)
    rho = reduced_density(state, target)
    if obs.dim != rho.dim:
        raise ValueError("observable dimension does not match the target factors")
    probs = _cluster_probabilities(rho, obs)

    if variant == "value":
        outcomes: list[tuple[Outcome, float]] = []
        for lam, p in zip(obs.eigenvalues, probs):
            value = quantize(lam, precision) if precision is not None else lam
            outcomes.append((RealValue(value), float(p)))
        return outcomes
    if variant == "integer_label":
        return [(IntegerLabel(i + label_offset), float(p)) for i, p in enumerate(probs)]
    if variant == "finite":
        if max_label is None:
            raise ValueError("finite variant needs max_label")
        kept: list[tuple[Outcome, float]] = []
        excluded = 0.0
        for i, p in enumerate(probs):
            label = i + label_offset
            if abs(label) <= max_label:
                kept.append((IntegerLabel(label), float(p)))
            else:
                excluded += float(p)
        kept.append((Overflow(excluded), excluded))
        return kept
    if variant == "bit":
        values = sorted(obs.eigenvalues)
        if any(min(abs(v), abs(v - 1.0)) > 1e-9 for v in values):
            raise ValueError("bit variant needs a projector-valued observable")
        return [(Bit(int(round(lam))), float(p)) for lam, p in zip(obs.eigenvalues, probs)]
    raise ValueError(f"unknown eigenvalue sampler variant {variant!r}")


def sample_eigenvalue(state: PureState, target, observable, rng: RandomStream,
                      variant: str = "value", precision: int | None = None,
                      max_label: int | None = None, label_offset: int = 0) -> Outcome:
    """Draw one eigenvalue-sampler outcome; the global state is unchanged."""
    dist = eigenvalue_distribution(state, target, observable, variant=variant,
                                   precision=precision, max_label=max_label,
                                   label_offset=label_offset)
    return _draw(dist, rng)


def sample_projection(state: PureState, target, phi: PureState, rng: RandomStream) -> Bit:
    """Bit 1 with probability Tr(P_phi rho_1): the projector special case."""
    rho = reduced_density(state, target)
    w = _projector_weight(rho, phi.amplitudes)
    return Bit(1) if rng.choose([1.0 - w, w]) == 1 else Bit(0)


def uncertainty_distribution(state: PureState, target, observable,
                             precision: int | None = None) -> list[tuple[Outcome, float]]:
    """Distribution over eigenvalues of A - <A>, Born-weighted by A's eigenspaces.

    Only the reported value is quantized; the expectation shift and the
    Born probabilities stay at full precision.
    """
    obs = _as_observable(observable)
    rho = reduced_density(state, target)
    if obs.dim != rho.dim:
        raise ValueError("observable dimension does not match the target factors")
    mean = float(np.trace(obs.entries @ rho.entries).real)
    probs = _cluster_probabilities(rho, obs)
    outcomes = []
    for lam, p in zip(obs.eigenvalues, probs):
        value = lam - mean
        if precision is not None:
            value = quantize(value, precision)
        outcomes.append((RealValue(value), float(p)))
    return outcomes


def sample_uncertainty(state: PureState, target, observable, rng: RandomStream,
                       precision: int | None = None) -> Outcome:
    """Draw an eigenvalue of the mean-shifted observable A - <A>."""
    return _draw(uncertainty_distribution(state, target, observable, precision), rng)


def povm_distribution(state: PureState, target, povm,
                      max_label: int | None = None) -> list[tuple[Outcome, float]]:
    """Distribution over 1-based POVM element labels, with optional overflow."""
    povm = _as_povm(povm)
    rho = reduced_density(state, target)
    probs = born_probabilities(rho, povm)
    if max_label is None:
        return [(IntegerLabel(i + 1), float(p)) for i, p in enumerate(probs)]
    kept: list[tuple[Outcome, float]] = []
    excluded = 0.0
    for i, p in enumerate(probs):
        if i + 1 <= max_label:
            kept.append((IntegerLabel(i + 1), float(p)))
        else:
            excluded += float(p)
    kept.append((Overflow(excluded), excluded))
    return kept


def sample_povm(state: PureState, target, povm, rng: RandomStream,
                max_label: int | None = None) -> Outcome:
    """Draw a POVM label with probability Tr(A_i rho_1); state unchanged."""
    return _draw(povm_distribution(state, target, povm, max_label), rng)


# ---------------------------------------------------------------------------
# Overlap, basis selection
# ---------------------------------------------------------------------------

def overlap_distribution(state: PureState, target, phi: PureState, threshold: float,
                         sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Bit distribution of the overlap test Tr(P_phi rho_1) vs threshold.

    Hard version (no sharpness): deterministic 1 iff the overlap exceeds
    the threshold.  Smoothed version: 1 with logistic probability
    1/(1 + exp(-k (overlap - threshold))).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("overlap threshold must lie in (0, 1)")
    rho = reduced_density(state, target)
    if phi.space.total_dim != rho.dim:
        raise ValueError("target state dimension does not match the target factors")
    w = _projector_weight(rho, phi.amplitudes)
    if sharpness is None:
        hit = 1.0 if w > threshold else 0.0
        return [(Bit(1), hit), (Bit(0), 1.0 - hit)]
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    p1 = _logistic(sharpness * (w - threshold))
    return [(Bit(1), p1), (Bit(0), 1.0 - p1)]


def overlap_test(state: PureState, target, phi: PureState, threshold: float,
                 rng: RandomStream | None = None, sharpness: float | None = None) -> Bit:
    """Run the overlap test; rng is required only for the smoothed version."""
    dist = overlap_distribution(state, target, phi, threshold, sharpness)
    if sharpness is None:
        return max(dist, key=lambda pair: pair[1])[0]
    if rng is None:
        raise ValueError("smoothed overlap test needs a RandomStream")
    return _draw(dist, rng)


def basis_weights(state: PureState, target, basis=None) -> np.ndarray:
    """Tr(P_{phi_i} rho_1) for every basis state."""
    rho = reduced_density(state, target)
    b = _basis_matrix(basis, rho.dim)
    return np.real(np.einsum("ij,ji->i", b.conj().T @ rho.entries, b)).clip(0.0, None)


def basis_select_distribution(state: PureState, target, basis=None,
                              sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Label distribution of the basis selection device.

    Hard version: uniform over all indices within ``TIE_ATOL`` of the
    maximal weight.  Smoothed version: probabilities proportional to
    exp(k * weight).
    """
    weights = basis_weights(state, target, basis)
    if sharpness is None:
        top = float(np.max(weights))
        winners = [i for i, w in enumerate(weights) if top - w < TIE_ATOL]
        share = 1.0 / len(winners)
        return [(IntegerLabel(i), share if i in winners else 0.0)
                for i in range(len(weights))]
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    logits = sharpness * (weights - np.max(weights))
    probs = np.exp(logits)
    probs /= probs.sum()
    return [(IntegerLabel(i), float(p)) for i, p in enumerate(probs)]


def basis_select(state: PureState, target, basis=None, rng: RandomStream | None = None,
                 sharpness: float | None = None) -> IntegerLabel:
    """Pick the basis state of maximal weight (or its softmax smoothing)."""
    dist = basis_select_distribution(state, target, basis, sharpness)
    if rng is None:
        nonzero = [pair for pair in dist if pair[1] > 0.0]
        if sharpness is None and len(nonzero) == 1:
            return nonzero[0][0]
        raise ValueError("stochastic basis selection needs a RandomStream")
    return _draw(dist, rng)


# ---------------------------------------------------------------------------
# Entropy meters, certifiers, entanglement analyser
# ---------------------------------------------------------------------------

def entropy_meter(state: PureState, target, alpha: float = 1.0,
                  precision: int | None = None) -> RealValue:
    """Entanglement entropy of order alpha of the target subsystem, in bits."""
    return entropy_meter_readings([state], target, alpha, precision)[0]


def entropy_meter_readings(states: Sequence[PureState], target, alpha: float = 1.0,
                           precision: int | None = None) -> list[RealValue]:
    """Entropy-meter outputs for states on one space, from one stacked eigensolve."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if len(states) == 0:
        return []
    readings = []
    for vals in np.linalg.eigvalsh(reduced_density_stack(states, target)):
        value = spectrum_entropy(vals, alpha)
        if precision is not None:
            value = quantize(value, precision)
        readings.append(RealValue(value))
    return readings


def certify_distribution(state: PureState, target, alpha: float, threshold: float,
                         sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Bit distribution of the entropy certifier S_alpha(rho_1) vs threshold."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    dim = target_dimension(state.space, target)
    limit = math.log2(dim)
    if not 0.0 < threshold < limit:
        raise ValueError(
            f"entropy threshold {threshold} outside allowed range 0 < E < {limit}"
        )
    s = entropy(reduced_density(state, target), alpha)
    if sharpness is None:
        hit = 1.0 if s > threshold else 0.0
        return [(Bit(1), hit), (Bit(0), 1.0 - hit)]
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    p1 = _logistic(sharpness * (s - threshold))
    return [(Bit(1), p1), (Bit(0), 1.0 - p1)]


def entropy_certify(state: PureState, target, alpha: float, threshold: float,
                    rng: RandomStream | None = None,
                    sharpness: float | None = None) -> Bit:
    """Certify S_alpha(rho_1) > E, hard or logistically smoothed."""
    dist = certify_distribution(state, target, alpha, threshold, sharpness)
    if sharpness is None:
        return max(dist, key=lambda pair: pair[1])[0]
    if rng is None:
        raise ValueError("smoothed entropy certifier needs a RandomStream")
    return _draw(dist, rng)


def entanglement_analyse(state: PureState, target_single: int, basis=None,
                         precision: int | None = None) -> MatrixDescription:
    """Gram matrix M_ij = <phi_i|phi_j> of the partial inner products.

    Here phi_i is the complement-space vector obtained by contracting the
    i-th basis vector against the single target factor.  M equals the
    transpose of the reduced density matrix in the same basis.
    """
    target = int(target_single)
    space = state.space
    _normalize_subset(space, target)
    if space.n_factors < 2:
        raise ValueError("entanglement analysis needs at least two factors")
    d_t = space.dims[target]
    b = _basis_matrix(basis, d_t)
    rest = space.complement((target,))
    d_rest = math.prod(space.dims[i] for i in rest)

    tensor = state.amplitudes.reshape(space.dims)
    tensor = np.moveaxis(tensor, target, 0).reshape(d_t, d_rest)
    partials = b.conj().T @ tensor  # row i holds <phi_i|psi>
    m = partials.conj() @ partials.T
    if precision is not None:
        m = quantize_matrix(m, precision)
    return MatrixDescription(m, precision)


# ---------------------------------------------------------------------------
# Device specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    aliases: str
    summary: str
    params: str
    stochastic: bool


DEVICE_CATALOG: dict[str, CatalogEntry] = {
    "Readout": CatalogEntry(
        "RD/FPRD", "classical description of the reduced density matrix",
        "basis?, precision?", False),
    "FunctionReadout": CatalogEntry(
        "FRD/FFRD", "description of a matrix power of the reduced density matrix",
        "exponent, basis?, precision?", False),
    "ExpectationReadout": CatalogEntry(
        "ERD/FERD", "expectation value of a Hermitian observable",
        "observable, precision?", False),
    "EigenvalueSampler": CatalogEntry(
        "SEVRD/FSEVRD/ISEVRD/FISEVRD/SPRD", "Born-rule eigenvalue draw without disturbance",
        "observable, variant?, precision?, max_label?, label_offset?", True),
    "UncertaintySampler": CatalogEntry(
        "SURD/FSURD", "eigenvalue draw of the mean-shifted observable",
        "observable, precision?", True),
    "PovmSampler": CatalogEntry(
        "SPOD/FSPOD", "Born-rule POVM label draw without disturbance",
        "povm, max_label?", True),
    "OverlapTest": CatalogEntry(
        "SOD/SSOD", "threshold test on the overlap with a target state",
        "target_state, threshold, sharpness?", True),
    "BasisSelect": CatalogEntry(
        "BSD/SBSD", "index of the basis state of maximal weight",
        "basis?, sharpness?", True),
    "EntropyMeter": CatalogEntry(
        "VNEM/REM/UEM + finite precision", "entanglement entropy of order alpha, in bits",
        "alpha?, precision?", False),
    "EntropyCertifier": CatalogEntry(
        "UEC/smoothed UEC", "threshold test on the order-alpha entropy",
        "alpha?, entropy_threshold, sharpness?", True),
    "EntanglementAnalyse": CatalogEntry(
        "EA/FPEA", "Gram matrix of partial inner products against a basis",
        "basis?, precision?", False),
}


@dataclass(frozen=True)
class DeviceSpec:
    """Tagged description of one catalog device with its classical inputs."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEVICE_CATALOG:
            raise ValueError(f"unknown device kind {self.kind!r}")
        object.__setattr__(self, "params", dict(self.params))

    @property
    def stochastic(self) -> bool:
        if self.kind in ("OverlapTest", "EntropyCertifier"):
            return self.params.get("sharpness") is not None
        return DEVICE_CATALOG[self.kind].stochastic

    def _get(self, key, default=None):
        return self.params.get(key, default)

    def distribution(self, state: PureState, target) -> list[tuple[Outcome, float]]:
        """Exact outcome distribution (deterministic devices give one point)."""
        p = self.params
        kind = self.kind
        if kind == "Readout":
            out = readout_density(state, target, p.get("basis"), p.get("precision"))
            return [(out, 1.0)]
        if kind == "FunctionReadout":
            out = function_readout(state, target, p.get("exponent", 1),
                                   p.get("basis"), p.get("precision"))
            return [(out, 1.0)]
        if kind == "ExpectationReadout":
            out = expectation_readout(state, target, p["observable"], p.get("precision"))
            return [(out, 1.0)]
        if kind == "EigenvalueSampler":
            return eigenvalue_distribution(
                state, target, p["observable"], variant=p.get("variant", "value"),
                precision=p.get("precision"), max_label=p.get("max_label"),
                label_offset=p.get("label_offset", 0))
        if kind == "UncertaintySampler":
            return uncertainty_distribution(state, target, p["observable"],
                                            p.get("precision"))
        if kind == "PovmSampler":
            return povm_distribution(state, target, p["povm"], p.get("max_label"))
        if kind == "OverlapTest":
            return overlap_distribution(state, target, p["target_state"],
                                        p["threshold"], p.get("sharpness"))
        if kind == "BasisSelect":
            return basis_select_distribution(state, target, p.get("basis"),
                                             p.get("sharpness"))
        if kind == "EntropyMeter":
            out = entropy_meter(state, target, p.get("alpha", 1.0), p.get("precision"))
            return [(out, 1.0)]
        if kind == "EntropyCertifier":
            return certify_distribution(state, target, p.get("alpha", 1.0),
                                        p["entropy_threshold"], p.get("sharpness"))
        if kind == "EntanglementAnalyse":
            subset = _normalize_subset(state.space, target)
            if len(subset) != 1:
                raise ValueError("EntanglementAnalyse acts on a single factor")
            out = entanglement_analyse(state, subset[0], p.get("basis"),
                                       p.get("precision"))
            return [(out, 1.0)]
        raise AssertionError(kind)

    def distributions(self, states: Sequence[PureState], target
                      ) -> list[list[tuple[Outcome, float]]]:
        """``distribution`` of each state; entropy meters take the list in one stacked pass."""
        if self.kind == "EntropyMeter":
            p = self.params
            readings = entropy_meter_readings(states, target, p.get("alpha", 1.0),
                                              p.get("precision"))
            return [[(out, 1.0)] for out in readings]
        return [self.distribution(state, target) for state in states]

    def apply(self, state: PureState, target, rng: RandomStream | None = None) -> Outcome:
        """Run the device once.  Stochastic kinds require a RandomStream."""
        dist = self.distribution(state, target)
        if len(dist) == 1:
            return dist[0][0]
        deterministic = [o for o, prob in dist if prob >= 1.0 - 1e-12]
        if deterministic and rng is None:
            return deterministic[0]
        if rng is None:
            raise ValueError(f"device kind {self.kind} needs a RandomStream")
        return _draw(dist, rng)

    def probability_of(self, state: PureState, target, selector: Outcome,
                       atol: float = OUTCOME_ATOL) -> float:
        """Analytic probability that the device yields the selected outcome."""
        selection = OutcomeSelection(self, (selector,), atol)
        return float(selection.probabilities(self.distribution(state, target))[0])


def _selector_plausible(spec: DeviceSpec, selector: Outcome) -> bool:
    """Whether a selector that missed every branch is still a legal outcome.

    Devices with state-dependent outcome values (readouts, meters) can
    legitimately miss: the selected description simply has probability 0
    on this state.  Label/bit devices have a fixed outcome alphabet, so a
    miss there is a caller error.
    """
    if spec.kind in ("Readout", "FunctionReadout", "EntanglementAnalyse"):
        return isinstance(selector, MatrixDescription)
    if spec.kind in ("ExpectationReadout", "EntropyMeter"):
        return isinstance(selector, RealValue)
    if spec.kind in ("EigenvalueSampler", "UncertaintySampler"):
        return isinstance(selector, (RealValue, IntegerLabel, Bit, Overflow))
    return False


class OutcomeSelection:
    """A fixed list of selected outcomes of one device, read off its distributions.

    ``matrix(distributions)[r, i]`` adds up, in branch order, the
    probabilities of the branches of ``distributions[r]`` that match
    ``selectors[i]`` under :func:`outcomes_equal`.  The branches of all the
    distributions are matched against all selectors in one pass, so a
    measurement with many outcomes needs one device evaluation per state,
    not one per outcome.  A selector that matches no branch of a
    distribution must still be a legal outcome of the device kind.
    """

    __slots__ = ("kind", "selectors", "atol", "_groups", "_values", "_may_miss")

    def __init__(self, spec: DeviceSpec, selectors: Sequence[Outcome],
                 atol: float = OUTCOME_ATOL):
        self.kind = spec.kind
        self.selectors = tuple(selectors)
        self.atol = atol
        groups: dict[type, list[int]] = {}
        for i, selector in enumerate(self.selectors):
            groups.setdefault(type(selector), []).append(i)
        self._groups = {kind: np.array(idx) for kind, idx in groups.items()}
        # scalar payloads of RealValue/IntegerLabel/Bit selectors, NaN elsewhere
        self._values = np.array([getattr(s, "value", math.nan) for s in self.selectors],
                                dtype=float)
        self._may_miss = np.array([_selector_plausible(spec, s) for s in self.selectors],
                                  dtype=bool)

    def _hits(self, kind: type, outcomes: list, idx: np.ndarray) -> np.ndarray:
        """(branches, selectors of idx) table of outcomes_equal for one outcome type."""
        if kind is RealValue:
            values = np.array([o.value for o in outcomes], dtype=float)
            distance = values[:, None] - self._values[idx]
            return np.abs(distance, out=distance) <= self.atol
        if kind in (IntegerLabel, Bit):
            values = np.array([o.value for o in outcomes], dtype=float)
            return values[:, None] == self._values[idx]
        return np.array([[outcomes_equal(o, self.selectors[i], self.atol) for i in idx]
                         for o in outcomes], dtype=bool).reshape(len(outcomes), len(idx))

    def matrix(self, distributions: Sequence[list[tuple[Outcome, float]]]) -> np.ndarray:
        """(n, k) probabilities of the k selectors under each of n distributions."""
        branches: dict[type, tuple[list, list, list]] = {}
        for r, distribution in enumerate(distributions):
            for outcome, prob in distribution:
                rows, outcomes, probs = branches.setdefault(type(outcome), ([], [], []))
                rows.append(r)
                outcomes.append(outcome)
                probs.append(prob)
        k = len(self.selectors)
        hits = []  # (flat cell index, probability) of every matching branch, per type
        for kind, (rows, outcomes, probs) in branches.items():
            idx = self._groups.get(kind)
            if idx is None:
                continue
            # row-major nonzero keeps branch order, so add.at below sums each
            # cell in the order the branches come
            branch, column = np.nonzero(self._hits(kind, outcomes, idx))
            hits.append((np.array(rows)[branch] * k + idx[column],
                         np.array(probs, dtype=float)[branch]))
        # allocated once the (branches, selectors) tables above are freed
        out = np.zeros((len(distributions), k))
        matched = np.zeros(out.shape, dtype=bool)
        for cells, probs in hits:
            np.add.at(out.reshape(-1), cells, probs)
            matched.reshape(-1)[cells] = True
        illegal = np.argwhere(~(matched | self._may_miss))
        if illegal.size:
            raise ValueError(f"selector {self.selectors[illegal[0, 1]]!r} is not in the "
                             f"outcome set of {self.kind}")
        return out

    def probabilities(self, distribution: list[tuple[Outcome, float]]) -> np.ndarray:
        """The selectors' probabilities under one distribution."""
        return self.matrix([distribution])[0]
