"""Catalog of hypothetical measurement devices acting on a subsystem.

Every device reads out information about the reduced density matrix of a
designated subsystem of a global pure state and leaves that state
untouched (the trivial post-measurement update).  Stochastic devices draw
from Born-rule distributions that are always computed at full floating
precision; only declared outputs are quantized.

Each device kind has one table body, which maps an (n, d, d) stack of
reduced densities to a :class:`DistributionTable`: the outcome values and
(n, branches) probabilities of all n states in one pass.
``DeviceSpec.table`` is the one way a device is evaluated: it validates the
reduced densities of a state, a stack or a list of states once and feeds
them to the table with every parameter but ``precision``, which it applies
itself.  ``DeviceSpec.distribution`` is the table's list view (its one row
for a single state), and ``DeviceSpec.apply`` draws from each row through
a :class:`~pqsim.qcore.RandomStream`.  The per-kind functions
(``povm_distribution``, ``entropy_meter``, ``sample_povm``, ...) are
``DeviceSpec`` calls on one state.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from .qcore import (
    DensityMatrix,
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    StateStack,
    _subset_plan,
    born_probability_rows,
    partial_trace,  # unused here; perfbench/selftest.py checks the tracer wraps this binding
    quadratic_forms,
    quantize,
    reduced_densities,
    require_density,
    spectrum_entropies,
    _traced_products,
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


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """The outcome distributions of one device on n states, as arrays.

    Branch j has the outcome type ``types[j]`` on every row, and
    ``probabilities`` is the (n, branches) array.  ``values[r, j]`` is the
    payload of branch j on row r: a float for RealValue, an int for
    IntegerLabel and Bit, a placeholder for Overflow, whose outcome carries
    its own probability.  A readout's one MatrixDescription branch keeps the
    (n, d, d) matrices in ``values`` instead.  ``precision`` is the m of
    values quantized to multiples of 2^-m, None at full precision.
    """

    types: tuple[type, ...]
    values: np.ndarray
    probabilities: np.ndarray
    precision: int | None = None

    def __len__(self) -> int:
        return len(self.probabilities)

    def rows(self) -> list[list[tuple[Outcome, float]]]:
        """The list view: each row's (outcome, probability) branches, in order.

        IntegerLabel and Bit outcomes are frozen and int-valued, so rows share
        one outcome per distinct value (``_int_outcome``, which keeps 256).
        A RealValue is built per row, so that 0.0 and -0.0 stay apart.
        """
        probs = self.probabilities.tolist()
        if self.types == (MatrixDescription,):
            return [[(MatrixDescription(m, self.precision), row[0])]
                    for m, row in zip(self.values, probs)]
        return [[(Overflow(p) if kind is Overflow else kind(v) if kind is RealValue
                  else _int_outcome(kind, v), p)
                 for kind, v, p in zip(self.types, row_values, row)]
                for row_values, row in zip(self.values.tolist(), probs)]


@functools.lru_cache(maxsize=256, typed=True)
def _int_outcome(kind: type, value: int) -> Outcome:
    """The one ``kind(value)`` outcome of an int-valued kind, shared by every
    row and table that has it; ``typed`` keeps 1, 1.0 and True apart."""
    return kind(value)


def _scalar_table(kind: type, values, probs: np.ndarray) -> DistributionTable:
    """A table with one branch of ``kind`` per column of probs; ``values`` is
    (n, branches), or the one row of a fixed alphabet, repeated to n rows."""
    values = np.asarray(values).reshape(-1, probs.shape[1])
    if len(values) != len(probs):
        values = values.repeat(len(probs), axis=0)
    return DistributionTable((kind,) * probs.shape[1], values, probs)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def reduced_density(state: PureState, target: Union[int, Sequence[int]]) -> DensityMatrix:
    """Reduced density matrix of the target factors (the whole state if all):
    the one row of ``reduced_densities``, validated."""
    return DensityMatrix(reduced_densities(state, target)[0])


def target_dimension(space: FactorSpace, target: Union[int, Sequence[int]]) -> int:
    return _subset_plan(space, target).d_keep


def quantize_matrix(matrix: np.ndarray, m: int) -> np.ndarray:
    """Quantize real and imaginary parts independently to multiples of 2^-m."""
    return quantize(matrix.real, m) + 1j * quantize(matrix.imag, m)


def _at_precision(table: DistributionTable, precision) -> DistributionTable:
    """Every device's one finite-precision step: at ``precision`` m, RealValue
    values or a readout's matrix entries to the nearest multiple of 2^-m.
    Label, bit and overflow branches ignore it."""
    matrices = table.types == (MatrixDescription,)
    if precision is None or not (matrices or RealValue in table.types):
        return table
    try:
        m = int(precision)
        values = quantize_matrix(table.values, m) if matrices else quantize(table.values, m)
    except (TypeError, ValueError, OverflowError) as err:
        raise ParameterError("precision", str(err)) from None
    return DistributionTable(table.types, values, table.probabilities, m)


def basis_matrix(basis, dim: int) -> np.ndarray:
    """Column matrix of basis states from a row list (None = computational)."""
    if basis is None:
        return np.eye(dim, dtype=complex)
    try:
        rows = np.array(basis, dtype=complex)
    except (TypeError, ValueError) as err:  # ragged or not numbers
        raise ParameterError("basis", str(err)) from None
    if rows.shape != (dim, dim):
        raise ParameterError("basis", f"basis must list {dim} vectors of length {dim}")
    b = rows.T
    # NaN fails <=, and a non-finite entry is rejected before inf - inf can warn
    if not (np.isfinite(b).all()
            and np.max(np.abs(b.conj().T @ b - np.eye(dim))) <= BASIS_ATOL):
        raise ParameterError("basis", "basis is not orthonormal within tolerance")
    return b


def _converted(name: str, value, cls: type, build: Callable[[Any], Any]):
    """A parameter value of type ``cls`` as given, anything else through
    ``build``; a TypeError or ValueError of the build is a ParameterError
    naming the parameter."""
    if isinstance(value, cls):
        return value
    try:
        return build(value)
    except (TypeError, ValueError) as err:
        raise ParameterError(name, str(err)) from None


def _observable(observable, dim: int) -> HermitianObservable:
    """The observable, which must act on the target's dimension."""
    obs = _converted("observable", observable, HermitianObservable, HermitianObservable)
    if obs.dim != dim:
        raise ParameterError("observable",
                             "observable dimension does not match the target factors")
    return obs


def _one_factor_state(amplitudes) -> PureState:
    """A 1-D amplitude sequence as a one-factor state."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1:
        raise ValueError(f"target state must be a 1-D amplitude vector, got shape {amps.shape}")
    return PureState(FactorSpace((amps.size,)), amps)


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _outcome(distribution: list[tuple[Outcome, float]], rng: RandomStream | None,
             device: str) -> Outcome:
    """One run of a device: the only outcome of a one-point distribution,
    which leaves the stream alone; a draw from ``rng``, one uniform through
    ``RandomStream.choose``; or without one the outcome of probability 1."""
    if len(distribution) == 1:
        return distribution[0][0]
    if rng is not None:
        return distribution[rng.choose([p for _, p in distribution])][0]
    sure = [o for o, prob in distribution if prob >= 1.0 - 1e-12]
    if not sure:
        raise ValueError(f"{device} needs a RandomStream")
    return sure[0]


def _label_table(labels: list[int], probs: np.ndarray,
                 max_label: int | None) -> DistributionTable:
    """IntegerLabel branches for the columns of probs; with ``max_label``, only
    those with |label| <= max_label, then one Overflow branch carrying the
    excluded mass, added in label order."""
    if max_label is None:
        return _scalar_table(IntegerLabel, labels, probs)
    kept = [j for j, label in enumerate(labels) if abs(label) <= max_label]
    excluded = np.zeros(len(probs))
    for j, label in enumerate(labels):
        if abs(label) > max_label:
            excluded = excluded + probs[:, j]
    probs = np.column_stack([probs[:, kept], excluded])
    table = _scalar_table(IntegerLabel, [labels[j] for j in kept] + [0], probs)
    return replace(table, types=table.types[:-1] + (Overflow,))  # the 0 is its placeholder


def _require_sharpness(sharpness: float) -> None:
    """Raise ParameterError unless a smoothing sharpness is positive (NaN is not)."""
    if not sharpness > 0:
        raise ParameterError("sharpness", "sharpness must be positive")


def _threshold_table(values: np.ndarray, threshold: float,
                     sharpness: float | None) -> DistributionTable:
    """Bit distributions of a threshold test on each value: hard (no
    sharpness), 1 iff the value exceeds the threshold; smoothed, 1 with
    logistic probability 1/(1 + exp(-k (value - threshold)))."""
    if sharpness is None:
        p1 = np.where(values > threshold, 1.0, 0.0)
    else:
        _require_sharpness(sharpness)
        # math.exp per row, as numpy's exp may round the last bit differently
        p1 = np.array([_logistic(x) for x in (sharpness * (values - threshold)).tolist()],
                      dtype=float)
    return _scalar_table(Bit, [1, 0], np.column_stack([p1, 1.0 - p1]))


# ---------------------------------------------------------------------------
# Readout devices
# ---------------------------------------------------------------------------

def _power_table(rhos: np.ndarray, exponent: int = 1, basis=None) -> DistributionTable:
    """Descriptions of rho^n in the basis, one sure branch per density."""
    exponent = int(exponent)
    if exponent < 1:
        raise ParameterError("exponent",
                             "supported matrix functions are positive integer powers")
    b = basis_matrix(basis, rhos.shape[-1])
    mats = b.conj().T @ np.linalg.matrix_power(rhos, exponent) @ b
    return DistributionTable((MatrixDescription,), mats, np.ones((len(mats), 1)))


def readout_density(state: PureState, target, basis=None,
                    precision: int | None = None) -> MatrixDescription:
    """Classical description of the reduced density matrix.

    The matrix is expressed in the given orthonormal basis (computational
    by default) and, when ``precision`` is supplied, each entry's real and
    imaginary parts are reported to the nearest multiple of 2^-precision.
    """
    return DeviceSpec("Readout", {"basis": basis, "precision": precision}
                      ).distribution(state, target)[0][0]


def function_readout(state: PureState, target, exponent: int = 1, basis=None,
                     precision: int | None = None) -> MatrixDescription:
    """Description of rho^n for a positive integer n (n=1 is the identity map)."""
    return DeviceSpec("FunctionReadout", {"exponent": exponent, "basis": basis,
                                          "precision": precision}
                      ).distribution(state, target)[0][0]


def _expectation_table(rhos: np.ndarray, observable) -> DistributionTable:
    values = _traced_products((_observable(observable, rhos.shape[-1]).entries,), rhos)[:, 0]
    return _scalar_table(RealValue, values[:, None], np.ones((len(values), 1)))


def expectation_readout(state: PureState, target, observable,
                        precision: int | None = None) -> RealValue:
    """Expectation value Tr(A rho_1), optionally quantized."""
    return DeviceSpec("ExpectationReadout", {"observable": observable, "precision": precision}
                      ).distribution(state, target)[0][0]


# ---------------------------------------------------------------------------
# Stochastic eigenvalue and POVM samplers
# ---------------------------------------------------------------------------

def _cluster_probabilities(rhos: np.ndarray, obs: HermitianObservable) -> np.ndarray:
    """(n, clusters) Born weights Tr(P_i rho), clipped at 0."""
    return np.clip(_traced_products(obs.projectors, rhos), 0.0, None)


def _eigenvalue_table(rhos: np.ndarray, observable, variant: str = "value",
                      max_label: int | None = None, label_offset: int = 0) -> DistributionTable:
    obs = _observable(observable, rhos.shape[-1])
    probs = _cluster_probabilities(rhos, obs)
    if variant == "value":
        return _scalar_table(RealValue, np.array(obs.eigenvalues), probs)
    if variant == "bit":
        return _scalar_table(Bit, [int(round(lam)) for lam in obs.eigenvalues], probs)
    labels = [i + label_offset for i in range(obs.n_clusters)]
    return _label_table(labels, probs, max_label if variant == "finite" else None)


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
    return DeviceSpec("EigenvalueSampler", {
        "observable": observable, "variant": variant, "precision": precision,
        "max_label": max_label, "label_offset": label_offset}).distribution(state, target)


def _require_variant_inputs(variant: str, observable, max_label: int | None) -> None:
    """Raise ParameterError for an unknown eigenvalue-sampler variant or one
    that lacks what it needs: ``finite`` a max_label, ``bit`` a
    projector-valued observable."""
    if variant not in _VARIANTS:
        raise ParameterError("variant", f"variant must be one of {_VARIANTS}, got {variant!r}")
    if variant == "finite" and max_label is None:
        raise ParameterError("max_label", "finite variant needs max_label")
    if variant == "bit":
        obs = _converted("observable", observable, HermitianObservable, HermitianObservable)
        if any(min(abs(v), abs(v - 1.0)) > 1e-9 for v in obs.eigenvalues):
            raise ParameterError("variant", "bit variant needs a projector-valued observable")


def sample_eigenvalue(state: PureState, target, observable, rng: RandomStream,
                      variant: str = "value", precision: int | None = None,
                      max_label: int | None = None, label_offset: int = 0) -> Outcome:
    """Draw one eigenvalue-sampler outcome; the global state is unchanged."""
    return DeviceSpec("EigenvalueSampler", {
        "observable": observable, "variant": variant, "precision": precision,
        "max_label": max_label, "label_offset": label_offset}).apply(state, target, rng)


def sample_projection(state: PureState, target, phi: PureState, rng: RandomStream) -> Bit:
    """Bit 1 with probability Tr(P_phi rho_1): the projector special case."""
    w = float(quadratic_forms(reduced_densities(state, target), phi.amplitudes)[0])
    return Bit(1) if rng.choose([1.0 - w, w]) == 1 else Bit(0)


def _uncertainty_table(rhos: np.ndarray, observable) -> DistributionTable:
    obs = _observable(observable, rhos.shape[-1])
    means = _traced_products((obs.entries,), rhos)[:, 0]
    return _scalar_table(RealValue, np.array(obs.eigenvalues) - means[:, None],
                         _cluster_probabilities(rhos, obs))


def uncertainty_distribution(state: PureState, target, observable,
                             precision: int | None = None) -> list[tuple[Outcome, float]]:
    """Distribution over eigenvalues of A - <A>, Born-weighted by A's eigenspaces.

    Only the reported value is quantized; the expectation shift and the
    Born probabilities stay at full precision.
    """
    return DeviceSpec("UncertaintySampler", {"observable": observable, "precision": precision}
                      ).distribution(state, target)


def sample_uncertainty(state: PureState, target, observable, rng: RandomStream,
                       precision: int | None = None) -> Outcome:
    """Draw an eigenvalue of the mean-shifted observable A - <A>."""
    return DeviceSpec("UncertaintySampler", {"observable": observable, "precision": precision}
                      ).apply(state, target, rng)


def _per_state(povm) -> bool:
    """Whether a POVM sampler's ``povm`` is a tuple of POVMSets, one per state
    of a stack, such as ``povm_sets`` gives."""
    return (isinstance(povm, tuple) and len(povm) > 0
            and all(isinstance(p, POVMSet) for p in povm))


def _povm_table(rhos: np.ndarray, povm, max_label: int | None = None) -> DistributionTable:
    """Labels 1..k of one POVM (a POVMSet or its elements) on every density,
    or of POVM r of a per-state tuple on density r."""
    if _per_state(povm):
        if len(povm) != len(rhos):
            raise ParameterError("povm", f"{len(povm)} per-state POVMs for {len(rhos)} states")
        povm = _converted("povm", povm, np.ndarray, lambda p: np.stack([q._stack for q in p]))
    else:
        povm = _converted("povm", povm, POVMSet, lambda elements: POVMSet(tuple(elements)))
    probs = born_probability_rows(rhos, povm)
    return _label_table(list(range(1, probs.shape[1] + 1)), probs, max_label)


def povm_distribution(state: PureState, target, povm,
                      max_label: int | None = None) -> list[tuple[Outcome, float]]:
    """Distribution over 1-based POVM element labels, with optional overflow."""
    return DeviceSpec("PovmSampler", {"povm": povm, "max_label": max_label}
                      ).distribution(state, target)


def sample_povm(state: PureState, target, povm, rng: RandomStream,
                max_label: int | None = None) -> Outcome:
    """Draw a POVM label with probability Tr(A_i rho_1); state unchanged."""
    return DeviceSpec("PovmSampler", {"povm": povm, "max_label": max_label}
                      ).apply(state, target, rng)


# ---------------------------------------------------------------------------
# Overlap, basis selection
# ---------------------------------------------------------------------------

def _require_overlap(rhos: np.ndarray, target_space: FactorSpace, threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ParameterError("threshold", "overlap threshold must lie in (0, 1)")
    if target_space.total_dim != rhos.shape[-1]:
        raise ParameterError("target_state",
                             "target state dimension does not match the target factors")


def _overlap_table(rhos: np.ndarray, target_state: PureState, threshold: float,
                   sharpness: float | None = None) -> DistributionTable:
    target_state = _converted("target_state", target_state, PureState, _one_factor_state)
    _require_overlap(rhos, target_state.space, threshold)
    return _threshold_table(quadratic_forms(rhos, target_state.amplitudes), threshold,
                            sharpness)


def overlap_bits(rhos: np.ndarray, targets: StateStack, threshold: float) -> np.ndarray:
    """(n, N) hard overlap tests of an (n, d, d) density stack against each of
    N target states, in one pass: True where ``overlap_test`` gives 1.  Each
    weight gets the products ``overlap_test`` computes for its one pair."""
    _require_overlap(rhos, targets.space, threshold)
    return quadratic_forms(rhos[:, None], targets.amplitudes) > threshold


def overlap_distribution(state: PureState, target, phi: PureState, threshold: float,
                         sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Bit distribution of the overlap test Tr(P_phi rho_1) vs threshold.

    Hard version (no sharpness): deterministic 1 iff the overlap exceeds
    the threshold.  Smoothed version: 1 with logistic probability
    1/(1 + exp(-k (overlap - threshold))).
    """
    return DeviceSpec("OverlapTest", {"target_state": phi, "threshold": threshold,
                                      "sharpness": sharpness}).distribution(state, target)


def overlap_test(state: PureState, target, phi: PureState, threshold: float,
                 rng: RandomStream | None = None, sharpness: float | None = None) -> Bit:
    """Run the overlap test; rng is required only for the smoothed version."""
    return DeviceSpec("OverlapTest", {"target_state": phi, "threshold": threshold,
                                      "sharpness": sharpness}
                      ).apply(state, target, None if sharpness is None else rng)


def _basis_weights(rhos: np.ndarray, basis) -> np.ndarray:
    """(n, d) weights Tr(P_{phi_i} rho) of every basis state, clipped at 0."""
    b = basis_matrix(basis, rhos.shape[-1])
    return np.real(np.einsum("nij,ji->ni", b.conj().T @ rhos, b)).clip(0.0, None)


def basis_weights(state: PureState, target, basis=None) -> np.ndarray:
    """Tr(P_{phi_i} rho_1) for every basis state."""
    return _basis_weights(reduced_densities(state, target), basis)[0]


def _basis_select_table(rhos: np.ndarray, basis=None,
                        sharpness: float | None = None) -> DistributionTable:
    weights = _basis_weights(rhos, basis)
    top = weights.max(axis=1, keepdims=True)
    if sharpness is None:
        winners = top - weights < TIE_ATOL
        share = 1.0 / winners.sum(axis=1, keepdims=True)
        probs = np.where(winners, share, 0.0)
    else:
        _require_sharpness(sharpness)
        probs = np.exp(sharpness * (weights - top))
        probs /= probs.sum(axis=1, keepdims=True)
    return _scalar_table(IntegerLabel, list(range(weights.shape[1])), probs)


def basis_select_distribution(state: PureState, target, basis=None,
                              sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Label distribution of the basis selection device.

    Hard version: uniform over all indices within ``TIE_ATOL`` of the
    maximal weight.  Smoothed version: probabilities proportional to
    exp(k * weight).
    """
    return DeviceSpec("BasisSelect", {"basis": basis, "sharpness": sharpness}
                      ).distribution(state, target)


def basis_select(state: PureState, target, basis=None, rng: RandomStream | None = None,
                 sharpness: float | None = None) -> IntegerLabel:
    """Pick the basis state of maximal weight (or its softmax smoothing)."""
    return DeviceSpec("BasisSelect", {"basis": basis, "sharpness": sharpness}
                      ).apply(state, target, rng)


# ---------------------------------------------------------------------------
# Entropy meters, certifiers, entanglement analyser
# ---------------------------------------------------------------------------

def _entropy_values(spectra: np.ndarray, alpha: float) -> np.ndarray:
    """Order-alpha entropies in bits of (n, d) density spectra, in one pass."""
    if not (isinstance(alpha, numbers.Real) and alpha >= 0):  # NaN is not either
        raise ParameterError("alpha", "alpha must be nonnegative")
    return spectrum_entropies(spectra, alpha)


def _entropy_table(spectra: np.ndarray, alpha: float = 1.0) -> DistributionTable:
    values = _entropy_values(spectra, alpha)
    return _scalar_table(RealValue, values[:, None], np.ones((len(values), 1)))


def entropy_meter(state: PureState, target, alpha: float = 1.0,
                  precision: int | None = None) -> RealValue:
    """Entanglement entropy of order alpha of the target subsystem, in bits."""
    return DeviceSpec("EntropyMeter", {"alpha": alpha, "precision": precision}
                      ).distribution(state, target)[0][0]


def _certify_table(spectra: np.ndarray, entropy_threshold: float, alpha: float = 1.0,
                   sharpness: float | None = None) -> DistributionTable:
    values = _entropy_values(spectra, alpha)
    limit = math.log2(spectra.shape[-1])
    if not 0.0 < entropy_threshold < limit:
        raise ParameterError("entropy_threshold", f"entropy threshold {entropy_threshold} "
                             f"outside allowed range 0 < E < {limit:g}")
    return _threshold_table(values, entropy_threshold, sharpness)


def certify_distribution(state: PureState, target, alpha: float, threshold: float,
                         sharpness: float | None = None) -> list[tuple[Outcome, float]]:
    """Bit distribution of the entropy certifier: the entropy meter's reading
    S_alpha(rho_1) vs threshold."""
    return DeviceSpec("EntropyCertifier", {"alpha": alpha, "entropy_threshold": threshold,
                                           "sharpness": sharpness}).distribution(state, target)


def entropy_certify(state: PureState, target, alpha: float, threshold: float,
                    rng: RandomStream | None = None,
                    sharpness: float | None = None) -> Bit:
    """Certify S_alpha(rho_1) > E, hard or logistically smoothed."""
    return DeviceSpec("EntropyCertifier", {"alpha": alpha, "entropy_threshold": threshold,
                                           "sharpness": sharpness}
                      ).apply(state, target, None if sharpness is None else rng)


def _analysed_factor(space: FactorSpace, target_single) -> int:
    """The one factor an entanglement analysis acts on, in a space of at
    least two factors."""
    subset = _subset_plan(space, target_single).keep
    if len(subset) != 1:
        raise ValueError("EntanglementAnalyse acts on a single factor")
    if space.n_factors < 2:
        raise ValueError("entanglement analysis needs at least two factors")
    return subset[0]


def _analyse_table(rhos: np.ndarray, basis=None) -> DistributionTable:
    readout = _power_table(rhos, 1, basis)
    return replace(readout, values=readout.values.swapaxes(-1, -2))


def entanglement_analyse(state: PureState, target_single, basis=None,
                         precision: int | None = None) -> MatrixDescription:
    """Gram matrix M_ij = <phi_i|phi_j> of the partial inner products.

    Here phi_i is the complement-space vector obtained by contracting the
    i-th basis vector against the single target factor (an index, or a
    one-index set).  M equals the transpose of the reduced density matrix
    in the same basis, which is how it is computed.
    """
    return DeviceSpec("EntanglementAnalyse", {"basis": basis, "precision": precision}
                      ).distribution(state, target_single)[0][0]


# ---------------------------------------------------------------------------
# Device kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceKind:
    """One device kind: its catalog entry, table and outcome set.

    ``params`` are in catalog order, a trailing ``?`` marking an optional
    one.  ``table(densities, **params)`` maps an (n, d, d) stack of reduced
    densities to their ``DistributionTable``, taking every parameter but
    ``precision``, which ``DeviceSpec.table`` applies; a ``spectral`` kind's
    table reads their (n, d) ascending eigenvalues instead, which validating the
    densities computes.  The table is the kind's one statement of how its
    parameters map states to outcomes; a PovmSampler's ``povm`` may also be
    a tuple of POVMSets, one per state of a stack.
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
    table: Callable[..., DistributionTable]
    may_miss: tuple[type, ...] = ()
    deterministic_without: str | None = None
    single_factor: bool = False
    check: Callable[[Mapping[str, Any]], None] | None = None
    spectral: bool = False

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
        lambda rhos, **p: _power_table(rhos, 1, **p), (MatrixDescription,)),
    "FunctionReadout": DeviceKind(
        "FRD/FFRD", "description of a matrix power of the reduced density matrix",
        ("exponent", "basis?", "precision?"), False, _power_table, (MatrixDescription,)),
    "ExpectationReadout": DeviceKind(
        "ERD/FERD", "expectation value of a Hermitian observable",
        ("observable", "precision?"), False, _expectation_table, (RealValue,)),
    "EigenvalueSampler": DeviceKind(
        "SEVRD/FSEVRD/ISEVRD/FISEVRD/SPRD", "Born-rule eigenvalue draw without disturbance",
        ("observable", "variant?", "precision?", "max_label?", "label_offset?"), True,
        _eigenvalue_table, _SAMPLED_VALUES,
        check=lambda p: _require_variant_inputs(p.get("variant", "value"),
                                                p["observable"], p.get("max_label"))),
    "UncertaintySampler": DeviceKind(
        "SURD/FSURD", "eigenvalue draw of the mean-shifted observable",
        ("observable", "precision?"), True, _uncertainty_table, _SAMPLED_VALUES),
    "PovmSampler": DeviceKind(
        "SPOD/FSPOD", "Born-rule POVM label draw without disturbance",
        ("povm", "max_label?"), True, _povm_table),
    "OverlapTest": DeviceKind(
        "SOD/SSOD", "threshold test on the overlap with a target state",
        ("target_state", "threshold", "sharpness?"), True, _overlap_table,
        deterministic_without="sharpness"),
    "BasisSelect": DeviceKind(
        "BSD/SBSD", "index of the basis state of maximal weight",
        ("basis?", "sharpness?"), True, _basis_select_table),
    "EntropyMeter": DeviceKind(
        "VNEM/REM/UEM + finite precision", "entanglement entropy of order alpha, in bits",
        ("alpha?", "precision?"), False, _entropy_table, (RealValue,), spectral=True),
    "EntropyCertifier": DeviceKind(
        "UEC/smoothed UEC", "threshold test on the order-alpha entropy",
        ("alpha?", "entropy_threshold", "sharpness?"), True, _certify_table,
        deterministic_without="sharpness", spectral=True),
    "EntanglementAnalyse": DeviceKind(
        "EA/FPEA", "Gram matrix of partial inner products against a basis",
        ("basis?", "precision?"), False, _analyse_table, (MatrixDescription,),
        single_factor=True),
}


@dataclass(frozen=True)
class DeviceSpec:
    """Tagged description of one catalog device with its classical inputs; a
    missing required parameter raises ParameterError naming it."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"unknown device kind {self.kind!r}")
        kind = DEVICE_KINDS[self.kind]
        unknown = set(self.params) - set(kind.names)
        if unknown:
            raise ValueError(f"{self.kind} takes no parameter {sorted(unknown)[0]!r}")
        for name in kind.required:
            if name not in self.params:
                raise ParameterError(name, f"{self.kind} needs the parameter {name!r}")
        if kind.check is not None:
            kind.check(self.params)
        object.__setattr__(self, "params", dict(self.params))

    @property
    def stochastic(self) -> bool:
        kind = DEVICE_KINDS[self.kind]
        switch = kind.deterministic_without
        return kind.stochastic and (switch is None or self.params.get(switch) is not None)

    def distribution(self, states: PureState | StateStack | Sequence[PureState], target
                     ) -> list:
        """Exact outcome distribution (deterministic devices give one point)
        of a PureState: the one row of its ``table``.  A StateStack or a list
        gives one such distribution per state, in order: the list view of one
        ``table`` of them all."""
        rows = self.table(states, target).rows()
        return rows[0] if isinstance(states, PureState) else rows

    def table(self, states: StateStack | Sequence[PureState] | PureState, target
              ) -> DistributionTable:
        """The distributions of a state, a stack or a list of states in one
        pass: their reduced densities, validated once, through the kind's table."""
        if isinstance(states, PureState) and _per_state(self.params.get("povm")):
            raise ParameterError("povm", "per-state POVMs need a stack of states, "
                                         "not a single state")
        stack = StateStack.of(states)
        kind = DEVICE_KINDS[self.kind]
        if kind.single_factor:
            _analysed_factor(stack.space, target)
        rhos = reduced_densities(stack, target)
        spectra = require_density(rhos)
        params = dict(self.params)
        precision = params.pop("precision", None)
        return _at_precision(kind.table(spectra if kind.spectral else rhos, **params), precision)

    def apply(self, states: PureState | StateStack | Sequence[PureState], target,
              rng=None):
        """Run the device once on a PureState: a draw from ``distribution``
        through ``rng``, a RandomStream, which stochastic kinds require.  On a
        StateStack or a list, run it once on each state, from one ``table``:
        ``rng`` holds one RandomStream (or None) per state, or is None for
        all, and state r's outcome and stream are those of ``apply`` on it alone."""
        device = f"device kind {self.kind}"
        if isinstance(states, PureState):
            return _outcome(self.distribution(states, target), rng, device)
        rows = self.distribution(states, target)
        streams = [None] * len(rows) if rng is None else rng
        if isinstance(streams, RandomStream) or len(streams) != len(rows):
            raise ValueError(f"{len(rows)} states need one RandomStream (or None) each")
        return [_outcome(row, stream, device) for row, stream in zip(rows, streams)]

    def probability_of(self, state: PureState, target, selector: Outcome) -> float:
        """Analytic probability that the device yields the selected outcome."""
        selection = OutcomeSelection(self, (selector,))
        return float(selection.matrix(self.table(state, target))[0, 0])


_SCALARS = (RealValue, IntegerLabel, Bit)


class OutcomeSelection:
    """A fixed list of selected outcomes of one device, read off its tables.

    ``matrix(table)[r, i]`` adds up, in branch order, the probabilities of
    the branches of row r that match ``selectors[i]`` under
    :func:`outcomes_equal`, so a measurement with many outcomes needs one
    table per stack of states, not one per outcome.  Scalar branches are
    matched on the table's distinct values: |value - selector| <=
    ``OUTCOME_ATOL`` (equality for labels and bits) is decided once per
    distinct value and selector, then read back for every branch.  A
    selector that matches no branch of a row must still be a legal outcome
    of the device kind.
    """

    __slots__ = ("kind", "selectors", "_groups", "_scalars", "_may_miss")

    def __init__(self, spec: DeviceSpec, selectors: Sequence[Outcome]):
        self.kind = spec.kind
        self.selectors = tuple(selectors)
        groups: dict[type, list[int]] = {}
        for i, selector in enumerate(self.selectors):
            groups.setdefault(type(selector), []).append(i)
        self._groups = groups
        # per scalar type: its selectors' indices and values
        self._scalars = {kind: (np.array(groups[kind]),
                                np.array([self.selectors[i].value for i in groups[kind]],
                                         dtype=float))
                         for kind in _SCALARS if kind in groups}
        may_miss = DEVICE_KINDS[spec.kind].may_miss
        self._may_miss = np.array([isinstance(s, may_miss) for s in self.selectors],
                                  dtype=bool)

    def matrix(self, table: DistributionTable) -> np.ndarray:
        """(n, k) probabilities of the k selectors on each of the n rows of a table."""
        n, k = len(table), len(self.selectors)
        out = np.zeros((n, k))
        matched = np.zeros((n, k), dtype=bool)
        columns: dict[type, list[int]] = {}
        for j, kind in enumerate(table.types):
            columns.setdefault(kind, []).append(j)
        for kind, cols in columns.items():
            if kind not in self._groups:
                continue
            probs = table.probabilities[:, cols]
            if kind in self._scalars:
                index, values = self._scalars[kind]
                distinct, inverse = np.unique(np.asarray(table.values[:, cols], dtype=float),
                                              return_inverse=True)
                atol = OUTCOME_ATOL if kind is RealValue else 0.0
                hits = np.abs(distinct[:, None] - values) <= atol
                # np.nonzero walks (row, branch, selector) in row-major order,
                # so add.at sums each cell in the order the branches come
                row, branch, selector = np.nonzero(hits[inverse.reshape(probs.shape)])
                cells = row * k + index[selector]
                np.add.at(out.reshape(-1), cells, probs[row, branch])
                matched.reshape(-1)[cells] = True
                continue
            for i in self._groups[kind]:
                hit = (self._matrix_hits(table, self.selectors[i]) if kind is MatrixDescription
                       else np.ones(n, dtype=bool))  # Overflow matches whatever its mass
                for column in probs.T:
                    out[:, i] += np.where(hit, column, 0.0)
                matched[:, i] |= hit
        illegal = np.argwhere(~(matched | self._may_miss))
        if illegal.size:
            raise ValueError(f"selector {self.selectors[illegal[0, 1]]!r} is not in the "
                             f"outcome set of {self.kind}")
        return out

    @staticmethod
    def _matrix_hits(table: DistributionTable, selector: MatrixDescription) -> np.ndarray:
        """(n,) outcomes_equal of each row's matrix and a MatrixDescription selector."""
        mats = table.values
        if selector.precision != table.precision or selector.matrix.shape != mats.shape[1:]:
            return np.zeros(len(mats), dtype=bool)
        return np.abs(mats - selector.matrix).max(axis=(1, 2)) <= OUTCOME_ATOL
