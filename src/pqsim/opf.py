"""Outcome probability functions, their closure constructors, and checkers.

An OPF maps pure states to outcome probabilities; a full measurement is a
finite list of OPFs summing to 1 on every pure state.  This module builds
OPFs from quantum POVM elements and from catalog devices, implements the
three closure constructors (mixtures, composition with unitaries, system
composition), and provides the analysis tools: a sampling-based closure
checker, a least-squares witness for the quadratic (quantum) form of an
OPF, a state-estimation-assumption checker, and a feasibility certificate
for linear post-measurement update maps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ._record import field, record
from .devices import (
    Bit,
    DeviceSpec,
    IntegerLabel,
    MatrixDescription,
    Outcome,
    OutcomeSelection,
    RealValue,
    target_dimension,
)
from .qcore import (
    NORM_ATOL,
    Ensemble,
    FactorSpace,
    POVMSet,
    PureState,
    RandomStream,
    StateStack,
    _checked_int,
    _element_spectra,
    _require_square,
    _row_norms,
    ensemble_densities,
    in_order_sum,
    normalized_states,
    projectors,
    quadratic_forms,
    random_pure_states,
    random_pure_states_in_turn,
    random_unitaries,
    random_unitary,
    require_density,
    require_ensemble_weights,
    require_unitary,
    tensor_products,
    unitary_images,
)

RANGE_ATOL = 1e-9
CLOSURE_TOL = 1e-8
QUADRATIC_RESIDUAL_TOL = 1e-6
VIOLATION_THRESHOLD = 0.1
UPDATE_MAP_TOL = 1e-8
MAX_OUTCOME_LIST = 64


class OPF:
    """Evaluatable outcome probability function on pure states.

    ``evaluator`` maps a ``StateStack`` of n states on ``space`` to the (n,)
    vector of values.  Every evaluation goes through ``__call__``, which
    makes the states a stack on the OPF's space and calls it: ``f(psi)`` is
    the value on one state, ``f(states)`` and ``f.values(states)`` the
    vector on a stack or a list.  One entry point means a wrapper on
    ``OPF.__call__``, such as the benchmark's tracer, sees every evaluation.
    ``operator`` is set when the OPF is known to have the quantum quadratic
    form <psi|Q|psi>; the closure constructors propagate it.
    """

    __slots__ = ("space", "evaluator", "provenance", "operator")

    def __init__(self, space: FactorSpace,
                 evaluator: Callable[[StateStack], np.ndarray],
                 provenance: str, operator: np.ndarray | None = None):
        self.space = space
        self.evaluator = evaluator
        self.provenance = provenance
        if operator is not None:
            operator = np.array(operator, dtype=complex)
            operator.setflags(write=False)
        self.operator = operator

    def __call__(self, states) -> float | np.ndarray:
        """The value on one ``PureState``, or the (n,) values on a stack or a list."""
        values = self.evaluator(StateStack.of(states, self.space,
                                              "state space does not match the OPF's space"))
        return float(values[0]) if isinstance(states, PureState) else values

    def values(self, states: StateStack | Sequence[PureState]) -> np.ndarray:
        """(n,) values on a stack or a list of states on the OPF's space."""
        return self(states)

    def on_ensembles(self, ensembles: Sequence[Ensemble]) -> list[float]:
        """Expected values sum_r p_r f(psi_r) on proper mixtures, summed in
        member order, from one evaluation of all their members."""
        values = iter(self.values([s for ens in ensembles for s, _ in ens.members]).tolist())
        return [float(sum(w * next(values) for _, w in ens.members)) for ens in ensembles]

    def on_ensemble(self, ensemble: Ensemble) -> float:
        """Expected value sum_r p_r f(psi_r) on a proper mixture."""
        return self.on_ensembles([ensemble])[0]

    def __repr__(self):
        return f"OPF(dims={self.space.dims}, provenance={self.provenance!r})"


@record
class FullMeasurement:
    """Finite list of OPFs that should sum to 1 on every pure state.

    ``evaluator``, when set, maps a ``StateStack`` of n states to the (n, k)
    matrix of outcome vectors in one pass: a device-backed measurement runs
    its device once per state, not once per outcome.  Without it each
    outcome evaluates the whole stack and supplies one column.  An OPF in
    ``outcomes`` evaluates only its own column either way.
    """

    outcomes: tuple[OPF, ...]
    evaluator: Callable[[StateStack], np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    @property
    def space(self) -> FactorSpace:
        return self.outcomes[0].space

    def probabilities(self, states: StateStack | Sequence[PureState]) -> np.ndarray:
        """(n, k) matrix: the k outcome probabilities on each of the n states."""
        if self.evaluator is None:
            stack = StateStack.of(states, self.space, "state space does not match the OPF's space")
            return np.column_stack([f.values(stack) for f in self.outcomes])
        return self.evaluator(StateStack.of(
            states, self.space, "state space does not match the measurement's space"))

    def completeness_violation(self, states: StateStack | Sequence[PureState]) -> float:
        return float(_completeness_violation(self.probabilities(states)))

    @classmethod
    def from_povm(cls, povm: POVMSet, space: FactorSpace) -> "FullMeasurement":
        """One ``opf_from_quantum`` outcome per POVM element, on ``space``.

        The elements are checked in one stacked pass, with
        ``opf_from_quantum``'s checks and messages; the first bad element
        raises.  Each outcome evaluates its own quadratic form."""
        return cls(_quantum_opfs(povm._stack, space))


def _completeness_violation(probs: np.ndarray) -> np.ndarray:
    """Worst |sum_i f_i - 1| over the rows of an (n, k) matrix, each summed
    left to right, as a 0-d array; of a (blocks, n, k) stack, each block's."""
    return np.max(np.abs(in_order_sum(probs) - 1.0), axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _povm_elements(elements) -> np.ndarray:
    """A complex copy of a (k, d, d) stack of POVM elements, each square,
    Hermitian, then 0 <= Q <= I; else ValueError, with the message of the
    first bad element's first failed check.  A non-finite element is not
    Hermitian (``qcore._element_spectra``)."""
    q = np.array(elements, dtype=complex)
    _require_square(q.shape[1:], "POVM element")
    _, hermitian, eigenvalues = _element_spectra(q)
    bad = ~hermitian | (eigenvalues[:, 0] < -NORM_ATOL) | (eigenvalues[:, -1] > 1.0 + 1e-9)
    if bad.any():
        raise ValueError("POVM element must satisfy 0 <= Q <= I" if hermitian[bad.argmax()]
                         else "POVM element must be Hermitian")
    return q


def _quantum_opfs(elements, space: FactorSpace | None) -> tuple[OPF, ...]:
    """``opf_from_quantum`` of every element of a (k, d, d) stack, the
    elements checked in one pass."""
    q = _povm_elements(elements)
    dim = q.shape[-1]
    if space is None:
        space = FactorSpace((dim,))
    elif space.total_dim != dim:
        raise ValueError("declared space does not match the element's dimension")

    def quantum(element: np.ndarray) -> OPF:
        return OPF(space, lambda states: quadratic_forms(element, states.amplitudes),
                   "quantum", operator=element)

    return tuple(map(quantum, q))


def opf_from_quantum(element: np.ndarray, space: FactorSpace | None = None) -> OPF:
    """OPF of a quantum POVM element: f(psi) = <psi|Q|psi>, with 0 <= Q <= I."""
    return _quantum_opfs([element], space)[0]


def device_measurement(spec: DeviceSpec, selectors: Sequence[Outcome], space: FactorSpace,
                       target) -> FullMeasurement:
    """One OPF per selected device outcome, evaluated analytically (never by sampling).

    The measurement's ``probabilities`` reads all outcomes of a stack of
    states off one device table; each outcome OPF reads only its own column,
    through a one-selector selection made when it is evaluated, so no
    all-outcomes matrix is built for one outcome and no per-outcome selection
    is kept.  The selectors are checked against a single probe state.
    """
    selection = OutcomeSelection(spec, selectors)

    def evaluate(states: StateStack) -> np.ndarray:
        return selection.matrix(spec.table(states, target))

    def column(selector: Outcome) -> Callable[[StateStack], np.ndarray]:
        return lambda states: OutcomeSelection(spec, (selector,)).matrix(
            spec.table(states, target))[:, 0]

    evaluate(StateStack.of(PureState.basis_state(space, 0)))  # validates selector kinds early
    provenance = f"device:{spec.kind}"
    return FullMeasurement(tuple(OPF(space, column(s), provenance) for s in selection.selectors),
                           evaluate)


def opf_from_device(spec: DeviceSpec, selector: Outcome, space: FactorSpace,
                    target) -> OPF:
    """OPF of one device outcome, evaluated analytically (never by sampling)."""
    return device_measurement(spec, (selector,), space, target).outcomes[0]


def readout_opf(phi: PureState) -> OPF:
    """Readout OPF f_phi: value 1 exactly on phi (up to phase), else 0."""
    spec = DeviceSpec("Readout")
    selector = MatrixDescription(phi.density())
    target = phi.space.indices()
    return opf_from_device(spec, selector, phi.space, target)


def constant_opf(space: FactorSpace, value: float) -> OPF:
    if not -RANGE_ATOL <= value <= 1.0 + RANGE_ATOL:
        raise ValueError("constant OPF value must lie in [0, 1]")
    return OPF(space, lambda states: np.full(len(states), float(value)), "constant",
               operator=value * np.eye(space.total_dim))


def mix(opfs: Sequence[OPF], weights: Sequence[float]) -> OPF:
    """Pointwise convex combination of OPFs (closure under mixtures)."""
    opfs = list(opfs)
    w = np.asarray(weights, dtype=float)
    if len(opfs) != w.size or len(opfs) == 0:
        raise ValueError("need one weight per OPF")
    if not (np.all(w >= 0) and abs(float(w.sum()) - 1.0) <= 1e-9):  # NaN fails both
        raise ValueError("weights must be nonnegative and sum to 1")
    dims = opfs[0].space.dims
    if any(f.space.dims != dims for f in opfs):
        raise ValueError("mixed OPFs must share one space")
    return _weighted_outcome(opfs[0].space, list(zip(w, opfs)))


def compose_unitary(f: OPF, unitary: np.ndarray) -> OPF:
    """(f o U)(psi) = f(U psi) (closure under composition with unitaries)."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (f.space.total_dim, f.space.total_dim):
        raise ValueError("unitary dimension does not match the OPF's space")
    require_unitary(u)
    operator = None if f.operator is None else u.conj().T @ f.operator @ u
    return OPF(f.space, lambda states: f.values(unitary_images(states, u)),
               "unitary-composed", operator=operator)


def compose_system(g: OPF, phi: PureState) -> OPF:
    """f(psi) = g(psi (x) phi) (closure under system composition).

    ``phi`` is the background state on the trailing factors of g's space;
    the result lives on the leading factors.
    """
    g_dims = g.space.dims
    b_dims = phi.space.dims
    if len(b_dims) >= len(g_dims) or g_dims[len(g_dims) - len(b_dims):] != b_dims:
        raise ValueError("background state must live on the trailing factors of g")
    lead = FactorSpace(g_dims[: len(g_dims) - len(b_dims)])

    operator = None
    if g.operator is not None:
        d, b = lead.total_dim, phi.space.total_dim
        q4 = g.operator.reshape(d, b, d, b)
        operator = np.einsum("k,ikjl,l->ij", phi.amplitudes.conj(), q4, phi.amplitudes)
    return OPF(lead, lambda states: g.values(tensor_products(states, phi)),
               "system-composed", operator=operator)


def mix_measurements(first: FullMeasurement, second: FullMeasurement, weight: float,
                     pairing: Sequence[tuple[int, int]]) -> FullMeasurement:
    """Mixture of two full measurements under an explicit outcome pairing.

    ``pairing`` lists (i, j) outcome indices, each naming an outcome of its
    measurement, that are declared identical; unpaired outcomes survive with
    their single-branch weight.  There is no canonical identification across
    outcome alphabets, so the caller must supply one.  The measurement's
    ``probabilities`` evaluates both measurements whole; each outcome OPF
    evaluates only its one or two component outcomes, with the same
    arithmetic as its column.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if first.space.dims != second.space.dims:
        raise ValueError("measurements must share one space")
    paired_i = [_checked_int(i, "first pairing index", 0, len(first.outcomes) - 1)
                for i, _ in pairing]
    paired_j = [_checked_int(j, "second pairing index", 0, len(second.outcomes) - 1)
                for _, j in pairing]
    if len(set(paired_i)) != len(pairing) or len(set(paired_j)) != len(pairing):
        raise ValueError("pairing must not repeat outcomes")
    only_i = [i for i in range(len(first.outcomes)) if i not in paired_i]
    only_j = [j for j in range(len(second.outcomes)) if j not in paired_j]

    def evaluate(states: StateStack) -> np.ndarray:
        a = first.probabilities(states)
        b = second.probabilities(states)
        return np.concatenate([weight * a[:, paired_i] + (1.0 - weight) * b[:, paired_j],
                               weight * a[:, only_i], (1.0 - weight) * b[:, only_j]], axis=1)

    terms = ([((weight, first.outcomes[i]), (1.0 - weight, second.outcomes[j]))
              for i, j in zip(paired_i, paired_j)]
             + [((weight, first.outcomes[i]),) for i in only_i]
             + [((1.0 - weight, second.outcomes[j]),) for j in only_j])
    return FullMeasurement(tuple(_weighted_outcome(first.space, t) for t in terms), evaluate)


def _weighted_outcome(space: FactorSpace, terms: Sequence[tuple[float, OPF]]) -> OPF:
    """The OPF w_1 f_1 + w_2 f_2 + ... of (w, f) terms, added left to right
    from the first term; quantum, with the same sum of operators, when every
    term is."""
    operator = None
    if all(f.operator is not None for _, f in terms):
        operator = functools.reduce(np.add, (w * f.operator for w, f in terms))
    return OPF(space, lambda states: functools.reduce(
        np.add, (w * f.values(states) for w, f in terms)), "mixture", operator=operator)


# ---------------------------------------------------------------------------
# Entropy-meter full measurements
# ---------------------------------------------------------------------------

def entropy_outcome_values(target_dim: int, precision: int) -> tuple[float, ...]:
    """All reachable finite-precision entropy outputs on a target of this size.

    The entropy lies in [0, log2 d], so the quantized outputs are the
    multiples k 2^-m for k = 0 .. round(2^m log2 d).
    """
    top = int(round(math.ldexp(math.log2(target_dim), precision)))
    return tuple(math.ldexp(k, -precision) for k in range(top + 1))


def entropy_meter_measurement(space: FactorSpace, target, precision: int,
                              alpha: float = 1.0) -> FullMeasurement:
    """Finite-precision entropy meter as a full measurement (one OPF per output)."""
    spec = DeviceSpec("EntropyMeter", {"alpha": alpha, "precision": precision})
    d_t = target_dimension(space, target)
    selectors = [RealValue(v) for v in entropy_outcome_values(d_t, precision)]
    return device_measurement(spec, selectors, space, target)


# ---------------------------------------------------------------------------
# Closure checker
# ---------------------------------------------------------------------------

@record
class ClosureReport:
    """Sampled verification of completeness and the three closure properties.
    A NaN in any evaluation makes its property's violation and
    ``max_violation`` NaN, so the check fails."""

    samples: int
    completeness_violation: float
    mixture_violation: float
    unitary_violation: float
    composition_violation: float | None

    @property
    def max_violation(self) -> float:
        parts = [self.completeness_violation, self.mixture_violation,
                 self.unitary_violation]
        if self.composition_violation is not None:
            parts.append(self.composition_violation)
        return _nan_max(parts)

    @property
    def passed(self) -> bool:
        return self.max_violation < CLOSURE_TOL

    def record_fields(self) -> dict:
        return {
            "check": "closure",
            "samples": self.samples,
            "completeness_violation": self.completeness_violation,
            "mixture_violation": self.mixture_violation,
            "unitary_violation": self.unitary_violation,
            "composition_violation": (
                -1.0 if self.composition_violation is None else self.composition_violation),
            "max_violation": self.max_violation,
            "passed": self.passed,
        }


def _range_violations(blocks: np.ndarray) -> np.ndarray:
    """Worst distance of any value outside [0, 1], in each block of a stack."""
    flat = blocks.reshape(len(blocks), -1)
    return np.max(np.maximum(flat - 1.0, -flat), axis=1, initial=0.0)


def _nan_max(values: list[float]) -> float:
    """The largest value by Python's left-to-right fold, or NaN if any is NaN:
    a violation that cannot be computed fails the check."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _worst(*violations: np.ndarray) -> float:
    """``_nan_max`` of 0 and the blocks' violations."""
    return _nan_max([0.0, *(v for block in violations for v in block.tolist())])


def check_closure(measurement: FullMeasurement, samples: int,
                  rng: RandomStream) -> ClosureReport:
    """Verify completeness and closure membership on sampled inputs.

    Completeness tests sum_i f_i = 1 on random states.  The property checks
    take random mixtures, unitary compositions, and (on multi-factor
    spaces) background compositions, and verify the constructed OPFs are
    valid: values inside [0, 1] and completeness preserved.  Each
    constructed OPF is evaluated through the measurement's outcome vectors,
    as mix, compose_unitary and compose_system define it: a weighted sum of
    the outcomes, the outcomes on U psi, the outcomes on psi (x) phi.

    Each property draws its 10 weight vectors, unitaries, or lead probes and
    backgrounds in turn, each kind in one draw, and evaluates them as one
    stack, so the measurement is evaluated once on the sampled states, once
    on all rotated probes and once on all products; each block of a stack
    reads as the one evaluation it replaces.
    """
    samples = _checked_int(samples, "samples", 1)
    space = measurement.space
    states = random_pure_states((space,), rng, samples)
    values = measurement.probabilities(states)
    completeness = float(_completeness_violation(values))

    n_out = len(measurement.outcomes)
    aux = rng.derive(samples + 1)
    probes = states[:50]
    n_probes = len(probes)

    weights = _flat_dirichlet([aux.generator] * 10, n_out)
    mixed = in_order_sum(values[None, :n_probes] * weights[:, None, :])
    mixture_violation = _worst(_range_violations(mixed))

    unitaries = random_unitaries(space.total_dim, aux, 10)
    rotated = measurement.probabilities(unitary_images(probes, unitaries)).reshape(
        10, n_probes, n_out)
    unitary_violation = _worst(_completeness_violation(rotated),
                               _range_violations(rotated[:, :10]))

    composition_violation: float | None = None
    if space.n_factors >= 2:
        lead = FactorSpace(space.dims[:-1])
        back = FactorSpace((space.dims[-1],))
        lead_probes = random_pure_states_in_turn(lead, aux, 10)
        backgrounds = random_pure_states_in_turn(back, aux, 10)
        joint = measurement.probabilities(tensor_products(lead_probes, backgrounds)).reshape(
            10, 10, n_out)
        composition_violation = _worst(_completeness_violation(joint),
                                       _range_violations(joint))

    return ClosureReport(samples, completeness, mixture_violation,
                         unitary_violation, composition_violation)


# ---------------------------------------------------------------------------
# Hermitian parametrization and probe states
# ---------------------------------------------------------------------------

def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of the Hermitian matrices."""
    out = []
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j, j] = 1.0
        out.append(e)
    for j in range(dim):
        for k in range(j + 1, dim):
            s = np.zeros((dim, dim), dtype=complex)
            s[j, k] = s[k, j] = 1.0 / math.sqrt(2.0)
            out.append(s)
            a = np.zeros((dim, dim), dtype=complex)
            a[j, k] = -1j / math.sqrt(2.0)
            a[k, j] = 1j / math.sqrt(2.0)
            out.append(a)
    return out


def hermitian_coords(matrix: np.ndarray) -> np.ndarray:
    """Coordinates Re Tr(H_a M) over hermitian_basis(d), for a (..., d, d) stack.

    The d diagonal entries come first, then for each pair j < k (row-major)
    the symmetric and the antisymmetric coordinate.
    """
    m = np.asarray(matrix)
    d = m.shape[-1]
    j, k = np.triu_indices(d, 1)
    c = 1.0 / math.sqrt(2.0)
    lower, upper = m[..., k, j], m[..., j, k]
    pairs = np.stack([c * lower.real + c * upper.real,
                      c * lower.imag - c * upper.imag], axis=-1)
    diagonal = np.diagonal(m, axis1=-2, axis2=-1).real
    return np.concatenate([diagonal, pairs.reshape(m.shape[:-2] + (d * (d - 1),))], axis=-1)


def hermitian_from_coords(coords: np.ndarray) -> np.ndarray:
    """The Hermitian matrix sum_a x_a H_a over hermitian_basis(d), for (..., d^2) x."""
    x = np.asarray(coords, dtype=float)
    d = math.isqrt(x.shape[-1])
    j, k = np.triu_indices(d, 1)
    c = 1.0 / math.sqrt(2.0)
    symmetric, antisymmetric = c * x[..., d::2], c * x[..., d + 1::2]
    out = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    out.real[..., diag, diag] = x[..., :d]
    out.real[..., j, k] = symmetric
    out.real[..., k, j] = symmetric
    out.imag[..., j, k] = -antisymmetric
    out.imag[..., k, j] = antisymmetric
    return out


def _pair_probes(dim: int, phases: Sequence[complex]) -> list[np.ndarray]:
    """The basis vectors e_j, then (e_j + c e_k)/sqrt2 for each pair j < k
    (row-major) and each phase c in turn."""
    eye = np.eye(dim, dtype=complex)
    probes = list(eye)
    for j in range(dim):
        for k in range(j + 1, dim):
            probes.extend((eye[j] + c * eye[k]) / math.sqrt(2.0) for c in phases)
    return probes


def canonical_probe_states(dim: int) -> list[np.ndarray]:
    """d^2 pure-state vectors whose projectors span the Hermitian space."""
    return _pair_probes(dim, (1, 1j))


def _witness_probe_states(dim: int) -> list[np.ndarray]:
    """Deterministic overcomplete probe set for quadratic-form fitting."""
    probes = _pair_probes(dim, (1, 1j, -1, -1j))
    probes.append(np.ones(dim, dtype=complex) / math.sqrt(dim))
    salt = RandomStream(0x9E3779B9, experiment=dim)
    for _ in range(2 * dim):
        v = salt.complex_normal(dim)
        probes.append(v / _row_norms(v))
    return probes


@functools.cache
def _witness_design(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The witness's probe amplitudes on a space of total dimension dim, each
    row normalized as ``PureState.normalized`` does it, and their projector
    design: fixed per dimension, so built once, on first use, read-only."""
    amps = normalized_states(FactorSpace((dim,)), np.array(_witness_probe_states(dim))).amplitudes
    design = _projector_design(amps)
    design.setflags(write=False)
    return amps, design


# ---------------------------------------------------------------------------
# Product-form (quadratic) witness
# ---------------------------------------------------------------------------

@record
class ProductFormCertificate:
    """Least-squares evidence for or against the quadratic form of an OPF.

    ``residual`` is the worst absolute deviation |f(psi) - <psi|Q|psi>|
    over the probe set for the best-fitting Hermitian Q.  A residual below
    ``QUADRATIC_RESIDUAL_TOL`` is consistent with the quantum form; one
    above ``VIOLATION_THRESHOLD`` certifies that no such form exists.
    """

    residual: float
    operator: np.ndarray
    probe_count: int

    @property
    def verdict(self) -> str:
        if self.residual < QUADRATIC_RESIDUAL_TOL:
            return "QUADRATIC"
        if self.residual > VIOLATION_THRESHOLD:
            return "VIOLATION"
        return "INCONCLUSIVE"

    def record_fields(self) -> dict:
        return {
            "check": "product_form",
            "residual": self.residual,
            "probe_count": self.probe_count,
            "verdict": self.verdict,
        }


_DESIGN_BLOCK = 32


def _projector_design(amps: np.ndarray) -> np.ndarray:
    """The (n, d^2) Hermitian coordinates of the projectors |psi><psi| of the
    rows of an (n, d) amplitude stack.

    The projectors are made ``_DESIGN_BLOCK`` rows at a time, so no (n, d, d)
    stack is held; each row's coordinates depend on that row alone, so the
    blocks give the bits of one stacked pass.
    """
    n, d = amps.shape
    design = np.empty((n, d * d))
    for start in range(0, n, _DESIGN_BLOCK):
        rows = amps[start:start + _DESIGN_BLOCK]
        design[start:start + len(rows)] = hermitian_coords(projectors(rows))
    return design


def quadratic_fit(amps: np.ndarray, values: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares fit of values[i] = <psi_i|Q|psi_i> over an (n, d)
    amplitude stack: the worst absolute deviation and Q's Hermitian
    coordinates."""
    return _design_fit(_projector_design(amps), values)


def _design_fit(design: np.ndarray, values: np.ndarray) -> tuple[float, np.ndarray]:
    """``quadratic_fit`` on the rows of its projector design."""
    coeffs = _lstsq(design, values[:, None])[:, 0]
    return float(np.max(np.abs(values - design @ coeffs))), coeffs


_BLAS_LOCK = threading.RLock()


@functools.cache
def _openblas_thread_count():
    """The getter and setter of the thread count of numpy's bundled OpenBLAS,
    or None where numpy carries no such library (a build against another BLAS)."""
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int  # int openblas_get_num_threads(void)
    put.argtypes, put.restype = [ctypes.c_int], None  # void openblas_set_num_threads(int)
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread for the block, then restore
    its count; the lock keeps two threads from restoring each other's count,
    and a block nested in another restores one.  Without that library this
    does nothing."""
    count = _openblas_thread_count()
    if count is None:
        yield
        return
    get, put = count
    with _BLAS_LOCK:
        threads = get()
        put(1)
        try:
            yield
        finally:
            put(threads)


def _lstsq(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The least-squares X of design @ X = targets ((m, n) and (m, k), or
    stacks that broadcast, each solved alone) by the kernel, ``rcond`` and
    SVD error of ``np.linalg.lstsq``: its stacked ``gelsd``, numpy 2.4's
    gufunc ``_umath_linalg.lstsq`` ``"ddd->ddid"``, which rounds by the BLAS
    thread count, so it runs on one thread (``_one_blas_thread``).  Under
    another BLAS than numpy's OpenBLAS a fit can move by ulps with its count."""
    with _one_blas_thread(), np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                                         divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(design, targets, np.finfo(float).eps * max(design.shape[-2:]),
                                   signature="ddd->ddid")[0]


def _lstsq_failed(err, flag):
    """The error ``np.linalg.lstsq`` raises when its SVD does not converge."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def product_form_witness(f: OPF, extra_probes: StateStack | Sequence[PureState] = ()
                         ) -> ProductFormCertificate:
    """Fit a single operator Q with f(psi) = <psi|Q|psi> over a spanning probe set.

    The probe set is deterministic and overcomplete (it contains a complete
    operator-basis probe set, so the fit is unique whenever f is quadratic);
    callers may append extra probe states without changing the verdict of a
    genuinely quadratic OPF.
    """
    dim = f.space.total_dim
    if dim > 16:
        raise ValueError("quadratic-form witness supports total dimension <= 16")
    probes, design = _witness_design(dim)
    extra = StateStack.of(extra_probes, f.space, "state space does not match the OPF's space")
    if len(extra):  # the design is row-wise, so the extra rows add their own
        probes = np.concatenate([probes, extra.amplitudes])
        probes.setflags(write=False)
        design = np.concatenate([design, _projector_design(extra.amplitudes)])
    residual, coeffs = _design_fit(design, f.values(StateStack._trusted(f.space, probes)))
    return ProductFormCertificate(residual, hermitian_from_coords(coeffs), len(probes))


# ---------------------------------------------------------------------------
# State-estimation assumption checker
# ---------------------------------------------------------------------------

ESTIMATION_FAMILIES = ("quantum_povm", "entropy_meter", "spod", "erd_sevrd", "readout")


@record
class EstimationWitness:
    """Two ensembles with one density matrix that a finite list cannot separate."""

    ensemble_a: Ensemble
    ensemble_b: Ensemble
    distinguishing: OPF
    value_a: float
    value_b: float
    list_agreement: float  # worst |difference| of the supplied list across the pair
    list_size: int


@record
class EstimationVerdict:
    family: str
    dimension: int
    verdict: str  # SATISFIED | SATISFIED-TRIVIALLY | FAILS
    outcomes: tuple[OPF, ...] = ()
    witness: EstimationWitness | None = None
    evidence: float = 0.0

    def record_fields(self) -> dict:
        fields = {
            "check": "estimation_assumption",
            "family": self.family,
            "d": self.dimension,
            "verdict": self.verdict,
            "outcome_count": len(self.outcomes),
            "evidence": self.evidence,
        }
        if self.witness is not None:
            w = self.witness
            fields.update({
                "witness_value_a": w.value_a,
                "witness_value_b": w.value_b,
                "witness_list_agreement": w.list_agreement,
                "witness_list_size": w.list_size,
                "witness_states_a": [s.amplitudes for s, _ in w.ensemble_a.members],
                "witness_states_b": [s.amplitudes for s, _ in w.ensemble_b.members],
            })
        return fields


def ic_projector_states(dim: int) -> list[np.ndarray]:
    """d^2 - 1 pure states whose projector weights determine a density matrix.

    Together with the unit-trace constraint, the projectors span the
    Hermitian space; for a qubit these are the Pauli +1/-1 eigenstates
    |1>, |+>, |+i>.
    """
    return canonical_probe_states(dim)[1:]


def density_from_projector_values(states: Sequence[np.ndarray], values, dim: int) -> np.ndarray:
    """Reconstruct rho from Tr(P_a rho) values plus the unit-trace constraint:
    one (d, d) matrix from m values, or an (n, d, d) stack from an (n, m)
    stack of value rows, m = len(states); any other shape is a ValueError.

    The design is built once, and all rows are fitted in one ``_lstsq``
    call: each row is the one-right-hand-side solve that ``np.linalg.lstsq``
    makes of that row alone.  One solve with all rows as right-hand sides
    would round differently (by up to 4e-16 on d = 4) and move the
    estimation checker's evidence.
    """
    design = np.vstack([_projector_design(np.array(states)),
                        hermitian_coords(np.eye(dim, dtype=complex))])
    rows = np.asarray(values, dtype=float)
    m = len(design) - 1
    if rows.ndim not in (1, 2) or rows.shape[-1] != m:
        raise ValueError(f"values must have shape ({m},) or (n, {m}), got {rows.shape}")
    stack = rows.reshape(-1, m)
    targets = np.ones((len(stack), m + 1, 1))
    targets[:, :m, 0] = stack
    rhos = hermitian_from_coords(_lstsq(design, targets)[..., 0])
    return rhos if rows.ndim == 2 else rhos[0]


class _ICOutcomes(NamedTuple):
    """The ``ic_projector_states`` of one dimension and their projectors, as
    read-only arrays, and one outcome per projector for one family."""

    states: np.ndarray
    projectors: np.ndarray
    outcomes: tuple[OPF, ...]


@functools.cache
def _ic_outcomes(family: str, dim: int) -> _ICOutcomes:
    """The informationally complete outcomes of a POVM-statistics family on
    one dimension: seed-free, so built once per (family, dim), on first use."""
    space = FactorSpace((dim,))
    target = space.indices()
    states = np.array(ic_projector_states(dim))
    states.setflags(write=False)
    projs = projectors(states)
    projs.setflags(write=False)
    if family == "quantum_povm":
        return _ICOutcomes(states, projs, _quantum_opfs(projs, space))
    out = []
    for proj in projs:
        if family == "spod":
            povm = POVMSet((proj, np.eye(dim) - proj))
            spec = DeviceSpec("PovmSampler", {"povm": povm})
            out.append(opf_from_device(spec, IntegerLabel(1), space, target))
        elif family == "erd_sevrd":
            spec = DeviceSpec("EigenvalueSampler",
                              {"observable": proj, "variant": "bit"})
            out.append(opf_from_device(spec, Bit(1), space, target))
        else:
            raise AssertionError(family)
    return _ICOutcomes(states, projs, tuple(out))


def _readout_witness_pair(dim: int, unitary: np.ndarray) -> tuple[Ensemble, Ensemble]:
    """Same-density ensembles {u0, u1} vs {(u0+u1)/sqrt2, (u0-u1)/sqrt2}."""
    u0, u1 = unitary[:, 0], unitary[:, 1]
    a0, a1, b0, b1 = normalized_states(FactorSpace((dim,)), [
        u0, u1, (u0 + u1) / math.sqrt(2.0), (u0 - u1) / math.sqrt(2.0)])
    return Ensemble(((a0, 0.5), (a1, 0.5))), Ensemble(((b0, 0.5), (b1, 0.5)))


def check_estimation_assumption(family: str, dim: int, rng: RandomStream,
                                outcome_list: Sequence[OPF] | None = None
                                ) -> EstimationVerdict:
    """Decide whether a measurement family admits a finite estimating outcome list.

    For the POVM-statistics families the verdict is SATISFIED, with the
    d^2 - 1 informationally complete outcomes returned as the list.  The
    entropy-meter family is SATISFIED-TRIVIALLY: its OPFs are constant on
    pure states, hence on ensembles.  The readout family FAILS: the verdict
    carries two ensembles with one density matrix on which every supplied
    outcome agrees while a readout OPF separates them.
    """
    if family not in ESTIMATION_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {ESTIMATION_FAMILIES}")
    dim = _checked_int(dim, "dim", 2, 4)

    space = FactorSpace((dim,))

    if family in ("quantum_povm", "spod", "erd_sevrd"):
        ic = _ic_outcomes(family, dim)
        # evidence: worst reconstruction error of random mixed states from
        # the outcome values alone
        weights, members = _random_ensembles(space, rng, trials=20, members=3)
        if family == "quantum_povm":  # every outcome's quadratic form in one pass
            per_member = quadratic_forms(ic.projectors[:, None], members.amplitudes)
        else:  # device outcomes share no operator
            per_member = np.array([f(members) for f in ic.outcomes])
        # sum_r p_r f(psi_r) of every outcome, added in member order as
        # ``on_ensembles`` does
        values = in_order_sum(weights * per_member.reshape((len(ic.outcomes),) + weights.shape))
        rhos = density_from_projector_values(ic.states, values.T, dim)
        densities = ensemble_densities(weights, members.amplitudes.reshape(
            weights.shape + (dim,)))
        require_density(densities)
        return EstimationVerdict(family, dim, "SATISFIED", outcomes=ic.outcomes,
                                 evidence=float(np.max(np.abs(rhos - densities))))

    if family == "entropy_meter":
        measurement = entropy_meter_measurement(space, space.indices(), precision=4)
        states = random_pure_states((space,), rng, 100)
        worst = float(np.max(np.abs(measurement.outcomes[0].values(states) - 1.0)))
        return EstimationVerdict(family, dim, "SATISFIED-TRIVIALLY", outcomes=(),
                                 evidence=worst)

    # readout family
    supplied = tuple(outcome_list) if outcome_list is not None else _ic_outcomes(
        "quantum_povm", dim).outcomes
    if len(supplied) > MAX_OUTCOME_LIST:
        raise ValueError(f"outcome list is bounded at {MAX_OUTCOME_LIST} entries")
    for attempt in range(100):
        unitary = np.eye(dim, dtype=complex) if attempt == 0 else random_unitary(
            dim, rng.derive(1000 + attempt))
        ens_a, ens_b = _readout_witness_pair(dim, unitary)
        pairs = [f.on_ensembles((ens_a, ens_b)) for f in supplied]
        agreement = max((abs(va - vb) for va, vb in pairs), default=0.0)
        if agreement > 1e-9:
            continue  # a supplied outcome separates this pair; rotate and retry
        separator = readout_opf(ens_a.members[0][0])
        va, vb = separator.on_ensembles((ens_a, ens_b))
        if abs(va - vb) < 0.25:
            continue
        witness = EstimationWitness(ens_a, ens_b, separator, va, vb,
                                    agreement, len(supplied))
        return EstimationVerdict(family, dim, "FAILS", witness=witness,
                                 evidence=abs(va - vb))
    raise ValueError("could not build a witness pair the supplied list cannot separate")


def _random_ensembles(space: FactorSpace, rng: RandomStream, trials: int,
                      members: int) -> tuple[np.ndarray, StateStack]:
    """One random ensemble per trial t, drawn from ``rng.derive(t)``: flat
    Dirichlet weights (``_flat_dirichlet``), then ``members``
    ``random_pure_state`` draws.  Returns the (trials, members) weights,
    checked as ``Ensemble`` checks them, and the trials * members states in
    trial-major order.

    Each trial's normals come in one draw, as a generator's normals do not
    depend on how a run of them is split into calls.
    """
    dim = space.total_dim
    gens = [stream.generator for stream in rng.derive_many(range(trials))]
    weights = _flat_dirichlet(gens, members)
    normals = np.empty((trials, members, 2, dim))
    for block, gen in zip(normals, gens):
        gen.standard_normal(out=block.reshape(-1))
    require_ensemble_weights(weights)
    amps = normals[:, :, 0] + 1j * normals[:, :, 1]
    return weights, normalized_states(space, amps.reshape(trials * members, dim))


def _flat_dirichlet(gens: Sequence[np.random.Generator], k: int) -> np.ndarray:
    """One row of Dirichlet(1, ..., 1) weights over k per generator, in
    order, each bit for bit ``gen.dirichlet(np.ones(k))``, which leaves the
    stream where that draw leaves it; a generator listed n times draws n
    rows in turn, as ``dirichlet(..., size=n)`` does.  At k = 1 every weight
    is 1, with no draw.

    numpy draws a flat Dirichlet row as k standard exponentials (its
    gamma(1) draw is the exponential ziggurat) times 1 / their left-to-right
    sum, and so does this, without ``dirichlet``'s per-call overhead.
    """
    rows = np.ones((len(gens), k))
    if k > 1:
        for row, gen in zip(rows, gens):
            gen.standard_exponential(out=row)
        rows *= 1.0 / in_order_sum(rows)[:, None]
    return rows


# ---------------------------------------------------------------------------
# Post-measurement update-map feasibility
# ---------------------------------------------------------------------------

@record
class CPMapCandidate:
    """Linear map on density matrices, as a matrix over a Hermitian basis."""

    dimension: int
    matrix: np.ndarray  # (d^2, d^2) real, acting on Hermitian coordinates

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return hermitian_from_coords(self.matrix @ hermitian_coords(rho))


@record
class UpdateMapCertificate:
    """Feasibility evidence for a state-independent linear update map.

    The map is fitted on the probe constraints Lambda(P_phi) =
    <phi|A|phi> P_phi and the residual is the worst Frobenius violation
    over the probes plus a canonical validation set.  A large residual
    certifies that no state-independent linear map reproduces the trivial
    update for this POVM element.
    """

    dimension: int
    residual: float
    candidate: CPMapCandidate

    @property
    def feasible(self) -> bool:
        return self.residual < UPDATE_MAP_TOL

    def record_fields(self) -> dict:
        return {
            "check": "update_map",
            "d": self.dimension,
            "residual": self.residual,
            "feasible": self.feasible,
        }


def update_map_feasibility(element: np.ndarray,
                           probe_states: StateStack | Sequence[PureState]
                           ) -> UpdateMapCertificate:
    """Solve for a linear update map consistent with the trivial update.

    ``probe_states`` must span the Hermitian operator space of the POVM
    element's dimension (d^2 states suffice).  The fitted map is then validated
    on additional canonical states; the residual is the worst violation seen.
    """
    a = _povm_elements([element])[0]
    dim = a.shape[0]
    probes = StateStack.of(probe_states)
    if probes.space.total_dim != dim:
        raise ValueError("probe states do not match the element's dimension")
    n = len(probes)

    # the probes, then the validation states: canonical and random ones
    extra = random_pure_states_in_turn(FactorSpace((dim,)), RandomStream(0x51D, experiment=dim),
                                       2 * dim)
    vecs = np.concatenate([probes.amplitudes, np.array(canonical_probe_states(dim)),
                           extra.amplitudes])
    projs = projectors(vecs)
    coords = hermitian_coords(projs)
    design = coords[:n]
    if np.linalg.matrix_rank(design, tol=1e-9) < dim * dim:
        raise ValueError("probe states do not span the Hermitian operator space")

    weights = quadratic_forms(a, vecs)  # <phi|A|phi>
    lmap = _lstsq(design, weights[:n, None] * design).T  # acts on coordinates from the left

    got = hermitian_from_coords(np.matmul(lmap, coords[:, :, None])[:, :, 0])
    misfit = (got - weights[:, None, None] * projs).reshape(len(vecs), -1)
    residual = float(np.max(_row_norms(misfit), initial=0.0))  # Frobenius norms
    return UpdateMapCertificate(dim, residual, CPMapCandidate(dim, lmap))


QUBIT_PROBE_STATES = normalized_states(FactorSpace((2,)), canonical_probe_states(2))
