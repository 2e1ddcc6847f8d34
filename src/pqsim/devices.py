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
from typing import Any, Callable, Mapping, Sequence, Union

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
    partial_trace,
    quantize,
    reduced_densities,
    spectrum_entropies,
    stack_amplitudes,
)

BASIS_ATOL = 1e-8
TIE_ATOL = 1e-9  # two basis weights tie when they differ by less than this
OUTCOME_ATOL = 1e-9
_VARIANTS = ("value", "integer_label", "finite", "bit")  # of the eigenvalue sampler


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


class ParameterError(ValueError):
    """Parameters that each pass their own checks but do not fit together;
    ``name`` is the parameter to change."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


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
    return quantize(matrix.real, m) + 1j * quantize(matrix.imag, m)


def basis_matrix(basis, dim: int) -> np.ndarray:
    """Column matrix of basis states from a row list (None = computational)."""
    if basis is None:
        return np.eye(dim, dtype=complex)
    rows = np.array(basis, dtype=complex)
    if rows.shape != (dim, dim):
        raise ParameterError("basis", f"basis must list {dim} vectors of length {dim}")
    b = rows.T
    # NaN fails <=, and a non-finite entry is rejected before inf - inf can warn
    if not (np.isfinite(b).all()
            and np.max(np.abs(b.conj().T @ b - np.eye(dim))) <= BASIS_ATOL):
        raise ParameterError("basis", "basis is not orthonormal within tolerance")
    return b


def _as_observable(observable) -> HermitianObservable:
    if isinstance(observable, HermitianObservable):
        return observable
    try:
        return HermitianObservable(observable)
    except ValueError as err:
        raise ParameterError("observable", str(err)) from None


def _as_povm(povm) -> POVMSet:
    if isinstance(povm, POVMSet):
        return povm
    return POVMSet(tuple(povm))


def _observed(state: PureState, target, observable
              ) -> tuple[HermitianObservable, DensityMatrix]:
    """The observable and the reduced density matrix it acts on."""
    obs = _as_observable(observable)
    rho = reduced_density(state, target)
    if obs.dim != rho.dim:
        raise ParameterError("observable",
                             "observable dimension does not match the target factors")
    return obs, rho


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


def _outcome(distribution: list[tuple[Outcome, float]], rng: RandomStream | None,
             device: str) -> Outcome:
    """One run of a device: the only outcome of a one-point distribution, a
    draw from ``rng``, or without one the outcome of probability 1."""
    if len(distribution) == 1:
        return distribution[0][0]
    if rng is not None:
        return _draw(distribution, rng)
    sure = [o for o, prob in distribution if prob >= 1.0 - 1e-12]
    if not sure:
        raise ValueError(f"{device} needs a RandomStream")
    return sure[0]


def _with_overflow(labelled, max_label: int) -> list[tuple[Outcome, float]]:
    """The (label, probability) pairs with |label| <= max_label, then one
    Overflow outcome carrying the excluded mass."""
    kept: list[tuple[Outcome, float]] = []
    excluded = 0.0
    for label, p in labelled:
        if abs(label) <= max_label:
            kept.append((IntegerLabel(label), float(p)))
        else:
            excluded += float(p)
    kept.append((Overflow(excluded), excluded))
    return kept


def _require_sharpness(sharpness: float) -> None:
    """Raise ParameterError unless a smoothing sharpness is positive (NaN is not)."""
    if not sharpness > 0:
        raise ParameterError("sharpness", "sharpness must be positive")


def _threshold_bit(value: float, threshold: float,
                   sharpness: float | None) -> list[tuple[Outcome, float]]:
    """Bit distribution of a threshold test: hard (no sharpness), 1 iff the
    value exceeds the threshold; smoothed, 1 with logistic probability
    1/(1 + exp(-k (value - threshold)))."""
    if sharpness is None:
        hit = 1.0 if value > threshold else 0.0
        return [(Bit(1), hit), (Bit(0), 1.0 - hit)]
    _require_sharpness(sharpness)
    p1 = _logistic(sharpness * (value - threshold))
    return [(Bit(1), p1), (Bit(0), 1.0 - p1)]


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
    return function_readout(state, target, 1, basis, precision)


def function_readout(state: PureState, target, exponent: int = 1, basis=None,
                     precision: int | None = None) -> MatrixDescription:
    """Description of rho^n for a positive integer n (n=1 is the identity map)."""
    exponent = int(exponent)
    if exponent < 1:
        raise ParameterError("exponent",
                             "supported matrix functions are positive integer powers")
    rho = reduced_density(state, target)
    b = basis_matrix(basis, rho.dim)
    mat = b.conj().T @ np.linalg.matrix_power(rho.entries, exponent) @ b
    if precision is not None:
        mat = quantize_matrix(mat, precision)
    return MatrixDescription(mat, precision)


def expectation_readout(state: PureState, target, observable,
                        precision: int | None = None) -> RealValue:
    """Expectation value Tr(A rho_1), optionally quantized."""
    obs, rho = _observed(state, target, observable)
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
    obs, rho = _observed(state, target, observable)
    _require_variant_inputs(variant, obs, max_label)
    probs = _cluster_probabilities(rho, obs)

    if variant == "value":
        values = (obs.eigenvalues if precision is None
                  else quantize(np.array(obs.eigenvalues), precision).tolist())
        return [(RealValue(value), float(p)) for value, p in zip(values, probs)]
    if variant == "integer_label":
        return [(IntegerLabel(i + label_offset), float(p)) for i, p in enumerate(probs)]
    if variant == "finite":
        return _with_overflow(((i + label_offset, p) for i, p in enumerate(probs)), max_label)
    return [(Bit(int(round(lam))), float(p)) for lam, p in zip(obs.eigenvalues, probs)]


def _require_variant_inputs(variant: str, observable, max_label: int | None) -> None:
    """Raise ParameterError for an unknown eigenvalue-sampler variant or one
    that lacks what it needs: ``finite`` a max_label, ``bit`` a
    projector-valued observable."""
    if variant not in _VARIANTS:
        raise ParameterError("variant", f"variant must be one of {_VARIANTS}, got {variant!r}")
    if variant == "finite" and max_label is None:
        raise ParameterError("max_label", "finite variant needs max_label")
    if variant == "bit" and any(min(abs(v), abs(v - 1.0)) > 1e-9
                                for v in _as_observable(observable).eigenvalues):
        raise ParameterError("variant", "bit variant needs a projector-valued observable")


def sample_eigenvalue(state: PureState, target, observable, rng: RandomStream,
                      variant: str = "value", precision: int | None = None,
                      max_label: int | None = None, label_offset: int = 0) -> Outcome:
    """Draw one eigenvalue-sampler outcome; the global state is unchanged."""
    return _draw(eigenvalue_distribution(state, target, observable, variant, precision,
                                         max_label, label_offset), rng)


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
    obs, rho = _observed(state, target, observable)
    mean = float(np.trace(obs.entries @ rho.entries).real)
    probs = _cluster_probabilities(rho, obs)
    values = np.array(obs.eigenvalues) - mean
    if precision is not None:
        values = quantize(values, precision)
    return [(RealValue(value), float(p)) for value, p in zip(values.tolist(), probs)]


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
    return _with_overflow(((i + 1, p) for i, p in enumerate(probs)), max_label)


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
        raise ParameterError("threshold", "overlap threshold must lie in (0, 1)")
    rho = reduced_density(state, target)
    if phi.space.total_dim != rho.dim:
        raise ParameterError("target_state",
                             "target state dimension does not match the target factors")
    return _threshold_bit(_projector_weight(rho, phi.amplitudes), threshold, sharpness)


def overlap_test(state: PureState, target, phi: PureState, threshold: float,
                 rng: RandomStream | None = None, sharpness: float | None = None) -> Bit:
    """Run the overlap test; rng is required only for the smoothed version."""
    dist = overlap_distribution(state, target, phi, threshold, sharpness)
    return _outcome(dist, None if sharpness is None else rng, "smoothed overlap test")


def basis_weights(state: PureState, target, basis=None) -> np.ndarray:
    """Tr(P_{phi_i} rho_1) for every basis state."""
    rho = reduced_density(state, target)
    b = basis_matrix(basis, rho.dim)
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
    _require_sharpness(sharpness)
    logits = sharpness * (weights - np.max(weights))
    probs = np.exp(logits)
    probs /= probs.sum()
    return [(IntegerLabel(i), float(p)) for i, p in enumerate(probs)]


def basis_select(state: PureState, target, basis=None, rng: RandomStream | None = None,
                 sharpness: float | None = None) -> IntegerLabel:
    """Pick the basis state of maximal weight (or its softmax smoothing)."""
    dist = basis_select_distribution(state, target, basis, sharpness)
    return _outcome(dist, rng, "stochastic basis selection")


# ---------------------------------------------------------------------------
# Entropy meters, certifiers, entanglement analyser
# ---------------------------------------------------------------------------

def entropy_meter(state: PureState, target, alpha: float = 1.0,
                  precision: int | None = None) -> RealValue:
    """Entanglement entropy of order alpha of the target subsystem, in bits."""
    return entropy_meter_readings([state], target, alpha, precision)[0]


def entropy_meter_readings(states: Sequence[PureState], target, alpha: float = 1.0,
                           precision: int | None = None) -> list[RealValue]:
    """Entropy-meter outputs for states on one space, from one stacked eigensolve,
    one entropy pass and one quantize pass."""
    if not alpha >= 0:  # NaN is not either
        raise ParameterError("alpha", "alpha must be nonnegative")
    if len(states) == 0:
        return []
    values = spectrum_entropies(np.linalg.eigvalsh(reduced_density_stack(states, target)), alpha)
    if precision is not None:
        values = quantize(values, precision)
    return [RealValue(value) for value in values.tolist()]


def certify_distribution(state: PureState, target, alpha: float, threshold: float,
                         sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Bit distribution of the entropy certifier: the entropy meter's reading
    S_alpha(rho_1) vs threshold."""
    value = entropy_meter(state, target, alpha).value
    limit = math.log2(target_dimension(state.space, target))
    if not 0.0 < threshold < limit:
        raise ParameterError("entropy_threshold", f"entropy threshold {threshold} outside "
                             f"allowed range 0 < E < {limit:g}")
    return _threshold_bit(value, threshold, sharpness)


def entropy_certify(state: PureState, target, alpha: float, threshold: float,
                    rng: RandomStream | None = None,
                    sharpness: float | None = None) -> Bit:
    """Certify S_alpha(rho_1) > E, hard or logistically smoothed."""
    dist = certify_distribution(state, target, alpha, threshold, sharpness)
    return _outcome(dist, None if sharpness is None else rng, "smoothed entropy certifier")


def entanglement_analyse(state: PureState, target_single, basis=None,
                         precision: int | None = None) -> MatrixDescription:
    """Gram matrix M_ij = <phi_i|phi_j> of the partial inner products.

    Here phi_i is the complement-space vector obtained by contracting the
    i-th basis vector against the single target factor (an index, or a
    one-index set).  M equals the transpose of the reduced density matrix
    in the same basis.
    """
    space = state.space
    subset = _normalize_subset(space, target_single)
    if len(subset) != 1:
        raise ValueError("EntanglementAnalyse acts on a single factor")
    target = subset[0]
    if space.n_factors < 2:
        raise ValueError("entanglement analysis needs at least two factors")
    d_t = space.dims[target]
    b = basis_matrix(basis, d_t)
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
# Device kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceKind:
    """One device kind: its catalog entry, distribution and outcome set.

    ``params`` are in catalog order, a trailing ``?`` marking an optional
    one.  ``distribution(state, target, params)`` (and ``stacked``, for a
    list of states in one pass) calls the kind's module function by its
    global name, so a wrapper bound over that name sees every call.
    ``may_miss``: the selector types that may match no branch, as outcome
    values of readouts and meters depend on the state; a label or bit
    device has a fixed alphabet, so a miss there is a caller error.  A kind
    with ``deterministic_without`` is stochastic only when that parameter
    is set; a ``single_factor`` kind acts on one factor.  ``check(params)``,
    where set, raises ParameterError when parameters that each pass their
    own checks do not fit together; ``DeviceSpec`` runs it.
    """

    aliases: str
    summary: str
    params: tuple[str, ...]
    stochastic: bool
    distribution: Callable[[PureState, Any, Mapping[str, Any]], list]
    may_miss: tuple[type, ...] = ()
    deterministic_without: str | None = None
    stacked: Callable[[Sequence[PureState], Any, Mapping[str, Any]], list] | None = None
    single_factor: bool = False
    check: Callable[[Mapping[str, Any]], None] | None = None

    @property
    def required(self) -> tuple[str, ...]:
        return tuple(p for p in self.params if not p.endswith("?"))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.rstrip("?") for p in self.params)


_SAMPLED_VALUES = (RealValue, IntegerLabel, Bit, Overflow)

DEVICE_KINDS: dict[str, DeviceKind] = {
    "Readout": DeviceKind(
        "RD/FPRD", "classical description of the reduced density matrix",
        ("basis?", "precision?"), False,
        lambda s, t, p: [(readout_density(s, t, **p), 1.0)], (MatrixDescription,)),
    "FunctionReadout": DeviceKind(
        "FRD/FFRD", "description of a matrix power of the reduced density matrix",
        ("exponent", "basis?", "precision?"), False,
        lambda s, t, p: [(function_readout(s, t, **p), 1.0)], (MatrixDescription,)),
    "ExpectationReadout": DeviceKind(
        "ERD/FERD", "expectation value of a Hermitian observable",
        ("observable", "precision?"), False,
        lambda s, t, p: [(expectation_readout(s, t, **p), 1.0)], (RealValue,)),
    "EigenvalueSampler": DeviceKind(
        "SEVRD/FSEVRD/ISEVRD/FISEVRD/SPRD", "Born-rule eigenvalue draw without disturbance",
        ("observable", "variant?", "precision?", "max_label?", "label_offset?"), True,
        lambda s, t, p: eigenvalue_distribution(s, t, **p), _SAMPLED_VALUES,
        check=lambda p: _require_variant_inputs(p.get("variant", "value"),
                                                p.get("observable"), p.get("max_label"))),
    "UncertaintySampler": DeviceKind(
        "SURD/FSURD", "eigenvalue draw of the mean-shifted observable",
        ("observable", "precision?"), True,
        lambda s, t, p: uncertainty_distribution(s, t, **p), _SAMPLED_VALUES),
    "PovmSampler": DeviceKind(
        "SPOD/FSPOD", "Born-rule POVM label draw without disturbance",
        ("povm", "max_label?"), True,
        lambda s, t, p: povm_distribution(s, t, **p)),
    "OverlapTest": DeviceKind(
        "SOD/SSOD", "threshold test on the overlap with a target state",
        ("target_state", "threshold", "sharpness?"), True,
        lambda s, t, p: overlap_distribution(s, t, p["target_state"], p["threshold"],
                                             p.get("sharpness")),
        deterministic_without="sharpness"),
    "BasisSelect": DeviceKind(
        "BSD/SBSD", "index of the basis state of maximal weight",
        ("basis?", "sharpness?"), True,
        lambda s, t, p: basis_select_distribution(s, t, **p)),
    "EntropyMeter": DeviceKind(
        "VNEM/REM/UEM + finite precision", "entanglement entropy of order alpha, in bits",
        ("alpha?", "precision?"), False,
        lambda s, t, p: [(entropy_meter(s, t, **p), 1.0)], (RealValue,),
        stacked=lambda states, t, p: [[(out, 1.0)]
                                      for out in entropy_meter_readings(states, t, **p)]),
    "EntropyCertifier": DeviceKind(
        "UEC/smoothed UEC", "threshold test on the order-alpha entropy",
        ("alpha?", "entropy_threshold", "sharpness?"), True,
        lambda s, t, p: certify_distribution(s, t, p.get("alpha", 1.0),
                                             p["entropy_threshold"], p.get("sharpness")),
        deterministic_without="sharpness"),
    "EntanglementAnalyse": DeviceKind(
        "EA/FPEA", "Gram matrix of partial inner products against a basis",
        ("basis?", "precision?"), False,
        lambda s, t, p: [(entanglement_analyse(s, t, **p), 1.0)], (MatrixDescription,),
        single_factor=True),
}


@dataclass(frozen=True)
class DeviceSpec:
    """Tagged description of one catalog device with its classical inputs."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"unknown device kind {self.kind!r}")
        kind = DEVICE_KINDS[self.kind]
        unknown = set(self.params) - set(kind.names)
        if unknown:
            raise ValueError(f"{self.kind} takes no parameter {sorted(unknown)[0]!r}")
        if kind.check is not None:
            kind.check(self.params)
        object.__setattr__(self, "params", dict(self.params))

    @property
    def stochastic(self) -> bool:
        kind = DEVICE_KINDS[self.kind]
        switch = kind.deterministic_without
        return kind.stochastic and (switch is None or self.params.get(switch) is not None)

    def distribution(self, state: PureState, target) -> list[tuple[Outcome, float]]:
        """Exact outcome distribution (deterministic devices give one point)."""
        return DEVICE_KINDS[self.kind].distribution(state, target, self.params)

    def distributions(self, states: Sequence[PureState], target
                      ) -> list[list[tuple[Outcome, float]]]:
        """``distribution`` of each state, in one stacked pass where the kind has one."""
        stacked = DEVICE_KINDS[self.kind].stacked
        if stacked is not None:
            return stacked(states, target, self.params)
        return [self.distribution(state, target) for state in states]

    def apply(self, state: PureState, target, rng: RandomStream | None = None) -> Outcome:
        """Run the device once.  Stochastic kinds require a RandomStream."""
        return _outcome(self.distribution(state, target), rng, f"device kind {self.kind}")

    def probability_of(self, state: PureState, target, selector: Outcome) -> float:
        """Analytic probability that the device yields the selected outcome."""
        selection = OutcomeSelection(self, (selector,))
        return float(selection.probabilities(self.distribution(state, target))[0])


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

    __slots__ = ("kind", "selectors", "_groups", "_values", "_may_miss")

    def __init__(self, spec: DeviceSpec, selectors: Sequence[Outcome]):
        self.kind = spec.kind
        self.selectors = tuple(selectors)
        groups: dict[type, list[int]] = {}
        for i, selector in enumerate(self.selectors):
            groups.setdefault(type(selector), []).append(i)
        self._groups = {kind: np.array(idx) for kind, idx in groups.items()}
        # scalar payloads of RealValue/IntegerLabel/Bit selectors, NaN elsewhere
        self._values = np.array([getattr(s, "value", math.nan) for s in self.selectors],
                                dtype=float)
        may_miss = DEVICE_KINDS[spec.kind].may_miss
        self._may_miss = np.array([isinstance(s, may_miss) for s in self.selectors],
                                  dtype=bool)

    def _hits(self, kind: type, outcomes: list, idx: np.ndarray) -> np.ndarray:
        """(branches, selectors of idx) table of outcomes_equal for one outcome type."""
        if kind is RealValue:
            values = np.array([o.value for o in outcomes], dtype=float)
            distance = values[:, None] - self._values[idx]
            return np.abs(distance, out=distance) <= OUTCOME_ATOL
        if kind in (IntegerLabel, Bit):
            values = np.array([o.value for o in outcomes], dtype=float)
            return values[:, None] == self._values[idx]
        return np.array([[outcomes_equal(o, self.selectors[i]) for i in idx]
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
