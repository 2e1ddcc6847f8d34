"""Finite-dimensional quantum states, linear algebra, and seeded randomness.

Everything downstream (device catalog, outcome probability functions,
experiments) is built on the value types defined here.  All types are
immutable after construction and safe to share across threads; randomness
is confined to explicit :class:`RandomStream` arguments.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import operator
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from ._record import record

# Construction tolerances.  These are contracts, not knobs: validation uses
# them to reject unphysical inputs rather than to silently repair them.
NORM_ATOL = 1e-9
HERMITIAN_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIGENVALUE_FLOOR = 1e-12
DEGENERACY_RTOL = 1e-9
PROJECTOR_ATOL = 1e-8
SELECTION_FLOOR = 1e-12  # outcomes below this probability are never sampled


@record
class FactorSpace:
    """Tensor factorization C^{d_1} x ... x C^{d_n} with every d_i >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("FactorSpace needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"every factor dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.dims)))

    def complement(self, subset: Sequence[int]) -> tuple[int, ...]:
        chosen = set(subset)
        return tuple(i for i in range(len(self.dims)) if i not in chosen)

    def subspace(self, subset: Sequence[int]) -> "FactorSpace":
        return FactorSpace(tuple(self.dims[i] for i in subset))


class _SubsetPlan(NamedTuple):
    """A validated subsystem index set, ``keep``, as a sorted tuple; the other
    factors, ``rest``; their dimensions; and the axes that put a stack of
    amplitude tensors in (row, keep, rest) order."""

    keep: tuple[int, ...]
    rest: tuple[int, ...]
    d_keep: int
    d_rest: int
    axes: tuple[int, ...]


def _build_plan(dims: tuple[int, ...], subset) -> _SubsetPlan:
    if isinstance(subset, (int, np.integer)):
        subset = (int(subset),)
    keep = tuple(sorted(int(i) for i in subset))
    if len(keep) == 0:
        raise ValueError("subsystem index set must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate subsystem indices in {keep}")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"subsystem indices {keep} out of range for {len(dims)} factors")
    rest = tuple(i for i in range(len(dims)) if i not in keep)
    return _SubsetPlan(keep, rest, math.prod(dims[i] for i in keep),
                       math.prod(dims[i] for i in rest),
                       (0,) + tuple(1 + i for i in keep + rest))


# Bounded, as float entries make many keys for one index set.
_cached_plan = functools.lru_cache(maxsize=1024)(_build_plan)


def _subset_plan(space: FactorSpace, subset: Union[int, Sequence[int]]) -> _SubsetPlan:
    """The plan of a subsystem index set on ``space``: kept per (dims, subset),
    up to 1,024 plans, for an int or a tuple of hashable entries, built anew
    for anything else (a list, an iterator).  A bad subset raises its message
    on every call: an exception is never kept.  A plan that a caller already
    holds for ``space`` is returned as it is."""
    if type(subset) is _SubsetPlan:
        return subset
    if isinstance(subset, (int, np.integer, tuple)):
        try:
            return _cached_plan(space.dims, subset)
        except TypeError:  # an unhashable entry; a build error raises again below
            pass
    return _build_plan(space.dims, subset)


class ParameterError(ValueError):
    """A parameter value rejected by the code that uses it; ``name`` is the
    parameter to change, which the CLI reports as its config key."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _require_square(shape: tuple[int, ...], what: str) -> None:
    """Raise a ValueError naming ``what`` and the shape unless it is a
    nonempty square matrix's."""
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise ValueError(f"{what} must be a nonempty square matrix, got shape {shape}")


def _square_matrix(entries, what: str) -> np.ndarray:
    """A complex copy of a nonempty square matrix (``_require_square``)."""
    mat = np.array(entries, dtype=complex)
    _require_square(mat.shape, what)
    return mat


def _checked_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int, if it is an integer (not a bool) in [low, high];
    else a ParameterError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(name, f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ParameterError(name, f"{name} must be {span}, got {value}")
    return int(value)


def require_hermitian(matrix: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless the matrix, or every matrix of a
    (..., d, d) stack, is Hermitian within ``HERMITIAN_ATOL``; a non-finite
    entry is never Hermitian (and is rejected before ``inf - inf`` can raise
    a floating-point warning).  An empty stack passes."""
    if not (np.isfinite(matrix).all()
            and np.abs(matrix - matrix.swapaxes(-1, -2).conj()).max(initial=0.0)
            <= HERMITIAN_ATOL):
        raise ValueError(message)


def require_psd(matrix: np.ndarray, message: str) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian matrix, or of every matrix
    of a (..., d, d) stack; raise ValueError(message) if the smallest of
    them lies below -``NORM_ATOL``.  An empty stack passes."""
    vals = np.linalg.eigvalsh(matrix)
    if vals[..., 0].min(initial=0.0) < -NORM_ATOL:
        raise ValueError(message)
    return vals


def require_density(matrix: np.ndarray) -> np.ndarray:
    """``DensityMatrix``'s checks on a square matrix, or on every matrix of
    a (..., d, d) stack: Hermitian, unit trace within ``TRACE_ATOL`` and
    positive semi-definite.  Returns the ascending eigenvalues.  Its one
    library caller is ``DensityMatrix``, whose entries are user-given; the
    densities of validated states are densities by construction, which
    ``tests/test_validated_densities.py`` checks in place of a run-time check."""
    require_hermitian(matrix, "density matrix is not Hermitian within tolerance")
    traces = matrix.trace(axis1=-2, axis2=-1)
    off = abs(traces - 1.0) > TRACE_ATOL
    if off.any():
        raise ValueError(f"density matrix trace {complex(np.extract(off, traces)[0])} "
                         "deviates from 1")
    return require_psd(matrix, "density matrix has a negative eigenvalue beyond tolerance")


def require_unitary(matrix: np.ndarray) -> None:
    """Raise ValueError unless U^dagger U = I within ``NORM_ATOL``; a
    non-finite entry never is, and is rejected before the product can warn."""
    if not (np.isfinite(matrix).all()
            and np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))
            <= NORM_ATOL):
        raise ValueError("matrix is not unitary within tolerance")


# A norm too large for a float is inf, which the norm checks reject with
# their own messages; numpy's overflow warning would come first.
@np.errstate(over="ignore")
def _row_norms(amps: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of an (n, D) complex stack, as
    np.linalg.norm computes it, without its dispatch; inf where it overflows."""
    re, im = amps.real, amps.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def projectors(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of every (..., D) amplitude row, as (..., D, D): each entry
    is one product, bit-identical to ``np.outer(psi, psi.conj())``."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def in_order_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The sum along ``axis``, added left to right from 0.0: bit-identical to
    Python's ``sum`` or a ``+=`` loop, which numpy's pairwise ``np.sum`` is not."""
    return np.cumsum(x, axis).take(-1, axis) + 0.0  # cumsum starts at x_0, not 0.0 + x_0


class PureState:
    """Normalized complex amplitude vector over a declared factorization.

    The amplitudes are renormalized exactly at construction (construction
    rejects vectors whose norm deviates from 1 by more than ``NORM_ATOL``)
    and are exposed read-only.  Equality of physical states is always up to
    a global phase; use :meth:`equals_up_to_phase`.
    """

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: FactorSpace, amplitudes):
        self.space = space
        self.amplitudes = _checked_rows(_amplitude_row(space, amplitudes))[0]

    @classmethod
    def normalized(cls, space: FactorSpace, amplitudes) -> "PureState":
        """Construct from any nonzero vector, dividing out its norm."""
        return cls._trusted(space, _normalized_rows(_amplitude_row(space, amplitudes))[0])

    @classmethod
    def _trusted(cls, space: FactorSpace, amplitudes: np.ndarray) -> "PureState":
        """A state on amplitudes that are already validated, normalized and
        read-only: a row of a ``StateStack``."""
        state = cls.__new__(cls)
        state.space = space
        state.amplitudes = amplitudes
        return state

    @classmethod
    def basis_state(cls, space: FactorSpace, labels: Union[int, Sequence[int]]) -> "PureState":
        """Computational basis ket, by flat index or per-factor labels."""
        if isinstance(labels, (int, np.integer)):
            flat = int(labels)
        else:
            labels = tuple(int(x) for x in labels)
            if len(labels) != space.n_factors:
                raise ValueError(f"need one label per factor, got {labels} for dims {space.dims}")
            flat = 0
            for lab, d in zip(labels, space.dims):
                if not 0 <= lab < d:
                    raise ValueError(f"label {lab} out of range for dimension {d}")
                flat = flat * d + lab
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[flat] = 1.0
        return cls(space, amps)

    def density(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a plain array."""
        return projectors(self.amplitudes)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def equals_up_to_phase(self, other: "PureState", atol: float = 1e-9) -> bool:
        if self.space.dims != other.space.dims:
            return False
        return 1.0 - abs(self.overlap(other)) <= atol

    def __repr__(self):
        return f"PureState(dims={self.space.dims})"


class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace complex matrix."""

    __slots__ = ("dim", "entries", "_eigenvalues")

    def __init__(self, entries):
        mat = _square_matrix(entries, "density matrix")
        vals = require_density(mat)
        mat.setflags(write=False)
        vals.setflags(write=False)
        self.dim = mat.shape[0]
        self.entries = mat
        self._eigenvalues = vals

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return cls(state.density())

    @classmethod
    def from_ensemble(cls, ensemble: "Ensemble") -> "DensityMatrix":
        amps = np.array([[state.amplitudes for state, _ in ensemble.members]])
        return cls(ensemble_densities(ensemble.weights[None], amps)[0])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, kept from the positivity check (read-only)."""
        return self._eigenvalues

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@record
class Ensemble:
    """Finite weighted list of pure states: a proper mixture."""

    members: tuple[tuple[PureState, float], ...]

    def __post_init__(self):
        members = tuple((s, float(w)) for s, w in self.members)
        if len(members) == 0:
            raise ValueError("ensemble must have at least one member")
        require_ensemble_weights(np.array([[w for _, w in members]]))
        dims0 = members[0][0].space.dims
        if any(s.space.dims != dims0 for s, _ in members):
            raise ValueError("all ensemble members must share one FactorSpace")
        object.__setattr__(self, "members", members)

    @property
    def space(self) -> FactorSpace:
        return self.members[0][0].space

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.members])

    def density(self) -> DensityMatrix:
        return DensityMatrix.from_ensemble(self)


def require_ensemble_weights(weights: np.ndarray) -> None:
    """``Ensemble``'s weight checks on every row of an (n, m) array, m >= 1:
    all weights positive, and their sum, added in member order, within
    ``NORM_ATOL`` of 1.  The first bad row raises one ensemble's message."""
    positive = (weights > 0.0).all(axis=1)  # NaN is not positive either
    totals = in_order_sum(weights)  # the order of Python's sum over the members
    bad = ~positive | ~(np.abs(totals - 1.0) <= NORM_ATOL)
    if bad.any():
        row = bad.argmax()
        if not positive[row]:
            raise ValueError("ensemble weights must be positive")
        raise ValueError(f"ensemble weights sum to {float(totals[row])}, not 1")


def ensemble_densities(weights: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """sum_r p_r |psi_r><psi_r| for every row of an (n, m) weight array and an
    (n, m, D) amplitude array, as an (n, D, D) stack, not validated.  The
    terms are added in member order, the order of ``DensityMatrix.from_ensemble``,
    its one-row case."""
    return in_order_sum(weights[:, :, None, None] * projectors(amplitudes), axis=1)


class HermitianObservable:
    """Hermitian matrix with its eigenvalues clustered into eigenspaces.

    Numerical eigensolvers split exact degeneracies, so eigenvalues within
    ``DEGENERACY_RTOL * (1 + |lambda|)`` of each other are merged into one
    cluster with a single projector.  Clusters are ordered ascending.
    """

    __slots__ = ("dim", "entries", "eigenvalues", "projectors")

    def __init__(self, entries):
        mat = _square_matrix(entries, "observable")
        require_hermitian(mat, "observable is not Hermitian within tolerance")
        mat.setflags(write=False)
        self.dim = mat.shape[0]
        self.entries = mat

        w, v = np.linalg.eigh(mat)
        clusters: list[list[int]] = [[0]]
        for i in range(1, len(w)):
            lam = w[clusters[-1][0]]
            if abs(w[i] - lam) < DEGENERACY_RTOL * (1.0 + abs(lam)):
                clusters[-1].append(i)
            else:
                clusters.append([i])
        values = []
        projectors = []
        for idx in clusters:
            vecs = v[:, idx]
            proj = vecs @ vecs.conj().T
            proj.setflags(write=False)
            values.append(float(np.mean(w[idx])))
            projectors.append(proj)
        self.eigenvalues = tuple(values)
        self.projectors = tuple(projectors)

        resolution = sum(self.projectors)
        if np.max(np.abs(resolution - np.eye(self.dim))) > NORM_ATOL:
            raise ValueError("eigenspace projectors do not resolve the identity")
        for i, p in enumerate(self.projectors):
            for j, q in enumerate(self.projectors):
                expect = p if i == j else np.zeros_like(p)
                if np.max(np.abs(p @ q - expect)) > PROJECTOR_ATOL:
                    raise ValueError("eigenspace projectors are not orthogonal")

    @property
    def n_clusters(self) -> int:
        return len(self.eigenvalues)

    def __repr__(self):
        return f"HermitianObservable(dim={self.dim}, clusters={self.n_clusters})"


def _element_spectra(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The POVM-element checks' one pass over a (..., d, d) stack: the stack
    with zeros in place of non-finite elements (off inf - inf and LAPACK),
    whether each element is Hermitian (a non-finite one is not) and its eigenvalues."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        stack = np.where(finite[..., None, None], stack, 0.0)
    hermitian = finite & (np.abs(stack - stack.swapaxes(-1, -2).conj()).max(
        axis=(-2, -1)) <= HERMITIAN_ATOL)
    return stack, hermitian, np.linalg.eigvalsh(stack)


def _require_povms(elements: np.ndarray) -> None:
    """``POVMSet``'s checks on every POVM of an (n, k, d, d) stack, k >= 1: each
    element Hermitian, then positive semi-definite, in element order; then
    the elements summing to the identity.  The first bad POVM raises one
    POVM's message, for its first bad element."""
    elements, hermitian, eigenvalues = _element_spectra(elements)
    element_bad = ~hermitian | (eigenvalues[..., 0] < -NORM_ATOL)
    incomplete = np.abs(elements.sum(axis=1) - np.eye(elements.shape[-1])).max(
        axis=(-2, -1)) > NORM_ATOL
    bad = element_bad.any(axis=1) | incomplete
    if bad.any():
        row = bad.argmax()
        if not element_bad[row].any():
            raise ValueError("POVM elements do not sum to the identity")
        if not hermitian[row, element_bad[row].argmax()]:
            raise ValueError("POVM element is not Hermitian within tolerance")
        raise ValueError("POVM element has a negative eigenvalue beyond tolerance")


def povm_sets(elements) -> tuple["POVMSet", ...]:
    """One ``POVMSet`` per row of an (n, k, d, d) stack of elements, validated
    by one stacked pass of ``POVMSet``'s checks.  The rows are read-only views
    of one complex copy, equal to the ``POVMSet`` of each row."""
    stack = np.array(elements, dtype=complex)
    if stack.ndim != 4:
        raise ValueError(f"POVM stack of shape {stack.shape} is not (n, k, d, d)")
    _require_square(stack.shape[2:], "POVM element")
    if stack.shape[1] == 0:
        raise ValueError("POVM must have at least one element")
    _require_povms(stack)
    stack.setflags(write=False)
    return tuple(POVMSet._trusted(row) for row in stack)


@record
class POVMSet:
    """Finite list of positive semi-definite operators summing to identity.

    ``elements`` are read-only views of one (k, d, d) stack, which the Born
    rule reads whole."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = [_square_matrix(a, "POVM element") for a in self.elements]
        if len(elems) == 0:
            raise ValueError("POVM must have at least one element")
        dim = elems[0].shape[0]
        if any(e.shape[0] != dim for e in elems):
            raise ValueError("POVM elements must share one dimension")
        stack = np.array(elems)
        _require_povms(stack[None])
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    @classmethod
    def _trusted(cls, elements: np.ndarray) -> "POVMSet":
        """A POVM on a read-only (k, d, d) stack that is already validated:
        a row of ``povm_sets``."""
        povm = object.__new__(cls)
        object.__setattr__(povm, "elements", tuple(elements))
        object.__setattr__(povm, "_stack", elements)
        return povm

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self):
        return len(self.elements)


@record
class SchmidtDecomposition:
    """Bi-orthogonal expansion psi = sum_i sqrt(p_i) phi_i x chi_i."""

    weights: tuple[float, ...]
    left_states: tuple[PureState, ...]
    right_states: tuple[PureState, ...]

    @property
    def rank(self) -> int:
        return len(self.weights)


def _in_one_word(trials: range) -> bool:
    """Whether every trial of the range lies in [0, 2^32): true when both
    ends do, and for an empty range."""
    return not trials or (0 <= trials[0] < 2**32 and 0 <= trials[-1] < 2**32)


class RandomStream:
    """Reproducible random source keyed by (seed, experiment, trial).

    Identical keys yield identical sample sequences across runs and
    platforms: ``PCG64`` seeded by ``SeedSequence(entropy=seed mod 2^64,
    spawn_key=(experiment, trial))``.  A stream is stateful and must not be
    shared between concurrent consumers; derive per-trial children instead.
    """

    __slots__ = ("seed", "experiment", "trial", "_gen")

    def __init__(self, seed: int, experiment: int = 0, trial: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.experiment = int(experiment)
        self.trial = int(trial)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.experiment, self.trial))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def stream_id(self) -> tuple[int, int]:
        return (self.experiment, self.trial)

    def derive(self, trial: int) -> "RandomStream":
        """Fresh stream for a sub-task; never reuses this stream's state."""
        return RandomStream(self.seed, experiment=self.experiment, trial=trial)

    def derive_many(self, trials: range) -> Iterator["RandomStream"]:
        """The streams ``self.derive(t)`` for t in ``trials``, in order, made
        lazily, each bit-identical to ``derive``'s.

        When both ends of the range lie in [0, 2^32), so does every trial, and
        the seeding words come from vectorised passes of numpy's SeedSequence
        mixing, one per block of ``_seedwords.BLOCK`` (4,096) trials: a few
        microseconds a stream, not a SeedSequence's 15.  Otherwise every trial
        goes through ``derive``.
        """
        if not _in_one_word(trials):
            yield from map(self.derive, trials)
            return
        # imported on first use: it imports numpy.random, which importing
        # pqsim does not
        from . import _seedwords

        pcg64, generator, seed_words = np.random.PCG64, np.random.Generator, _seedwords.SeedWords
        for start in range(0, len(trials), _seedwords.BLOCK):
            block = trials[start:start + _seedwords.BLOCK]
            for t, words in zip(block, _seedwords.seed_words(self.seed, self.experiment, block)):
                stream = RandomStream.__new__(RandomStream)
                stream.seed, stream.experiment, stream.trial = self.seed, self.experiment, t
                stream._gen = generator(pcg64(seed_words(words)))
                yield stream

    def _normal_rows(self, trials: range, k: int) -> np.ndarray:
        """(len(trials), k): row i holds the first k ``normal`` draws of the
        stream ``self.derive(trials[i])``, bit for bit: ``derive_many``'s seed
        words through ``_seedwords.standard_normals``, block by block, or
        outside [0, 2^32) each trial's ``derive`` stream."""
        normals = np.empty((len(trials), k))
        if not _in_one_word(trials):
            for row, t in zip(normals, trials):
                self.derive(t)._gen.standard_normal(out=row)
            return normals
        from . import _seedwords

        for start in range(0, len(trials), _seedwords.BLOCK):
            block = trials[start:start + _seedwords.BLOCK]
            normals[start:start + len(block)] = _seedwords.standard_normals(
                _seedwords.seed_words(self.seed, self.experiment, block), k)
        return normals

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for bulk draws (binomial etc.)."""
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def complex_normal(self, size: int) -> np.ndarray:
        block = self._gen.standard_normal(2 * size)
        return block[:size] + 1j * block[size:]

    def choose(self, probabilities: list[float]) -> int:
        """Inverse-CDF sample over a full-precision probability list.

        Entries below ``SELECTION_FLOOR`` are never selected.  The list is
        used as-is; probabilities are not quantized before sampling.  A
        non-finite entry raises ValueError.  The running sums add left to
        right and the search finds the first sum above ``u * total``, as
        ``np.cumsum`` and ``np.searchsorted(side="right")`` do.
        """
        if not probabilities:
            raise ValueError("cannot sample from an empty probability vector")
        if not all(map(math.isfinite, probabilities)):
            raise ValueError("probabilities must be finite")
        p = [x if x >= SELECTION_FLOOR else 0.0 for x in probabilities]
        cdf = list(itertools.accumulate(p))
        total = cdf[-1]
        if total <= 0.0:
            raise ValueError("all probabilities are below the selection floor")
        idx = bisect.bisect_right(cdf, self.uniform() * total)
        if idx >= len(p) or p[idx] == 0.0:
            idx = max(i for i, x in enumerate(p) if x)
        return idx

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


# ---------------------------------------------------------------------------
# Random object constructors
# ---------------------------------------------------------------------------

def random_pure_state(space: FactorSpace, rng: RandomStream) -> PureState:
    """Haar-random pure state on the given space: the one-row case of
    ``random_pure_states_in_turn``."""
    return random_pure_states_in_turn(space, rng, 1)[0]


def random_pure_states_in_turn(space: FactorSpace, rng: RandomStream, n: int) -> StateStack:
    """n Haar-random pure states drawn in turn from one stream, as one stack.

    One normal draw fills every state's ``complex_normal`` block, laid out
    (n, 2, D), as a generator's normals do not depend on how a run of them
    is split into calls; each row is then normalized as
    ``PureState.normalized`` does it, so the stack and the stream's next
    draw are bit-identical to n ``complex_normal`` draws normalized one by one.
    ``n`` is an integer >= 0.
    """
    dim = space.total_dim
    normals = rng.normal((_checked_int(n, "n", 0), 2, dim))
    return normalized_states(space, normals[:, 0] + 1j * normals[:, 1])


def random_unitary(dim: int, rng: RandomStream) -> np.ndarray:
    """Haar-random unitary via QR with phase correction: the one-matrix
    case of ``random_unitaries``."""
    return random_unitaries(dim, rng, 1)[0]


def random_unitaries(dim: int, rng: RandomStream, n: int) -> np.ndarray:
    """n ``random_unitary`` draws in turn, as one (n, dim, dim) stack.

    One normal draw fills every matrix's ``complex_normal`` block, laid out
    (n, 2, dim^2); one stacked QR and phase fix then give each matrix the
    LAPACK calls of its own draw, so the stack and the stream's next draw
    are bit-identical to n calls.  ``dim`` is an integer >= 1 and ``n`` one >= 0.
    """
    dim, n = _checked_int(dim, "dim", 1), _checked_int(n, "n", 0)
    normals = rng.normal((n, 2, dim * dim))
    g = (normals[:, 0] + 1j * normals[:, 1]).reshape(n, dim, dim)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def random_density_matrix(dim: int, rng: RandomStream, rank: int | None = None) -> DensityMatrix:
    """Random mixed state from a normalized Wishart matrix of rank ``rank`` (or ``dim``)."""
    k = dim if rank is None else _checked_int(rank, "rank", 1)
    g = rng.complex_normal(dim * k).reshape(dim, k)
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def tensor_product(a: PureState, b: PureState) -> PureState:
    """Joint state on the concatenated factorization; Kronecker amplitudes."""
    return tensor_products(a, b)[0]


# ---------------------------------------------------------------------------
# Stacks of pure states
# ---------------------------------------------------------------------------

def _amplitude_stack(space: FactorSpace, amplitudes) -> np.ndarray:
    """A complex (n, D) array of amplitude rows for ``space``; n may be 0."""
    amps = np.ascontiguousarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] != space.total_dim:
        raise ValueError(f"amplitude stack of shape {amps.shape} does not match "
                         f"total_dim {space.total_dim}")
    return amps


def _amplitude_row(space: FactorSpace, amplitudes) -> np.ndarray:
    """Any amplitude vector for ``space``, flattened to a complex (1, D) stack."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(1, -1)
    if amps.shape[1] != space.total_dim:
        raise ValueError(f"amplitude vector of length {amps.shape[1]} does not match "
                         f"total_dim {space.total_dim}")
    return amps


def _checked_rows(amps: np.ndarray) -> np.ndarray:
    """The norm check and division of every pure state, on every row of a
    stack: each norm must lie within ``NORM_ATOL`` of 1 (a non-finite one
    never does), and the first that does not is named."""
    nrm = _row_norms(amps)
    ok = np.abs(nrm - 1.0) <= NORM_ATOL
    if not ok.all():
        raise ValueError(f"state norm {float(nrm[ok.argmin()])} deviates from 1 by more "
                         f"than {NORM_ATOL}")
    amps = amps / nrm[:, None]  # a private copy: the input is never aliased
    amps.setflags(write=False)
    return amps


def _normalized_rows(amps: np.ndarray) -> np.ndarray:
    """``PureState.normalized`` on every row of a stack."""
    nrm = _row_norms(amps)
    ok = (nrm > 0.0) & np.isfinite(nrm)
    if not ok.all():
        first = float(nrm[ok.argmin()])
        raise ValueError("cannot normalize the zero vector" if first <= 0.0
                         else f"cannot normalize a vector of norm {first}")
    return _checked_rows(amps / nrm[:, None])


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each row of a with the matching (or only) row of b."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], a.shape[1] * b.shape[1])


@record(eq=False, repr=False)
class StateStack:
    """n pure states on one FactorSpace, as one read-only (n, D) array.

    Each row gets the floating-point operations of one ``PureState`` (or
    ``PureState.normalized``), so it is bit-identical to one.  The norms are
    checked in one vectorised pass; the first bad row raises one state's
    message.  An index or iteration gives ``PureState`` row views, a slice a stack.
    """

    space: FactorSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _checked_rows(_amplitude_stack(self.space, self.amplitudes)))

    @classmethod
    def _trusted(cls, space: FactorSpace, amplitudes: np.ndarray) -> "StateStack":
        """A stack on rows that are already validated, normalized and read-only."""
        stack = object.__new__(cls)
        object.__setattr__(stack, "space", space)
        object.__setattr__(stack, "amplitudes", amplitudes)
        return stack

    @classmethod
    def of(cls, states, space: FactorSpace | None = None,
           message: str = "stacked states must share one FactorSpace") -> "StateStack":
        """A stack (passed through), a state (a one-row view) or a list (packed
        once) as a stack on ``space``, by default the first state's; raise
        ValueError(message) for a state on another."""
        if isinstance(states, PureState):
            states = cls._trusted(states.space, states.amplitudes[None])
        if not isinstance(states, StateStack):
            if space is None and len(states) == 0:
                raise ValueError("an empty list of states names no FactorSpace")
            space = space or states[0].space
            if any(psi.space.dims != space.dims for psi in states):
                raise ValueError(message)
            amps = np.array([psi.amplitudes for psi in states],
                            dtype=complex).reshape(len(states), space.total_dim)
            amps.setflags(write=False)
            return cls._trusted(space, amps)
        if space is not None and states.space.dims != space.dims:
            raise ValueError(message)
        return states

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    def __iter__(self) -> Iterator[PureState]:
        return (PureState._trusted(self.space, row) for row in self.amplitudes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return StateStack._trusted(self.space, self.amplitudes[index])
        return PureState._trusted(self.space, self.amplitudes[operator.index(index)])


def normalized_states(space: FactorSpace, amplitudes) -> StateStack:
    """``PureState.normalized(space, row)`` for every row of an (n, D) array."""
    return StateStack._trusted(space, _normalized_rows(_amplitude_stack(space, amplitudes)))


def random_pure_states(spaces: Sequence[FactorSpace], rng: RandomStream,
                       trials: int) -> StateStack:
    """One state per trial t: the tensor product, left to right, of a
    ``random_pure_state`` on each space, all drawn in turn from ``rng.derive(t)``.

    Every trial's row of normals is the first draws of its stream, as a
    generator's normals do not depend on how a run of them is split into
    calls, so ``RandomStream._normal_rows`` draws them all at once.  The rest
    runs on stacks.  ``trials`` is an integer >= 0.
    """
    trials = _checked_int(trials, "trials", 0)
    sizes = [s.total_dim for s in spaces]
    normals = rng._normal_rows(range(trials), 2 * sum(sizes))
    joint = None
    start = 0
    for size in sizes:
        block = normals[:, start:start + size] + 1j * normals[:, start + size:start + 2 * size]
        start += 2 * size
        factor = _normalized_rows(block)
        joint = factor if joint is None else _checked_rows(_outer_rows(joint, factor))
    return StateStack._trusted(FactorSpace(sum((s.dims for s in spaces), ())), joint)


def tensor_products(states, phi) -> StateStack:
    """The joint state psi (x) phi, on the concatenated factorization, of
    every state of a stack or list: Kronecker amplitudes, norm-checked and
    divided by their norm like ``PureState``.  For a stack of m backgrounds
    phi the result holds m blocks of the products, one per phi in turn."""
    stack, backgrounds = StateStack.of(states), StateStack.of(phi)
    space = FactorSpace(stack.space.dims + backgrounds.space.dims)
    products = stack.amplitudes[None, :, :, None] * backgrounds.amplitudes[:, None, None, :]
    return StateStack._trusted(space, _checked_rows(
        products.reshape(len(backgrounds) * len(stack), space.total_dim)))


def unitary_images(states, unitary: np.ndarray) -> StateStack:
    """``PureState.normalized(space, unitary @ psi.amplitudes)`` for every
    state of a stack or list; the unitary is not checked.  For an (m, D, D)
    stack of unitaries the result holds m blocks of images, one per unitary
    in turn."""
    stack = StateStack.of(states)
    images = np.matmul(np.asarray(unitary)[..., None, :, :], stack.amplitudes[:, :, None])
    return StateStack._trusted(stack.space, _normalized_rows(
        images.reshape(-1, stack.space.total_dim)))


def apply_on_factors(amplitudes: np.ndarray, dims: Sequence[int], op: np.ndarray,
                     subset: Union[int, Sequence[int]]) -> np.ndarray:
    """The (D,) image of an amplitude vector under a (d, d) operator on the
    chosen factors, a validated subset read as a set; an (m, d, d) stack of
    operators gives the (m, D) images, each row equal to its operator's."""
    space = FactorSpace(tuple(dims))
    plan = _subset_plan(space, subset)
    images = np.asarray(op) @ _grouped(np.reshape(amplitudes, (1, -1)), space.dims, plan)[0]
    grouped_dims = tuple(space.dims[i] for i in plan.keep + plan.rest)
    tensor = np.transpose(images.reshape((-1,) + grouped_dims), np.argsort(plan.axes))
    return tensor.reshape(images.shape[:-2] + (space.total_dim,))


def apply_unitary(state: PureState, unitary: np.ndarray,
                  on: Union[int, Sequence[int], None] = None) -> PureState:
    """U|psi>, on the whole space or on the chosen factors only."""
    u = _square_matrix(unitary, "unitary")
    require_unitary(u)
    if on is None:
        if u.shape[0] != state.space.total_dim:
            raise ValueError("unitary dimension does not match the state")
        return unitary_images(state, u)[0]
    plan = _subset_plan(state.space, on)
    if u.shape[0] != plan.d_keep:
        raise ValueError("unitary dimension does not match the chosen factors")
    return PureState.normalized(state.space, apply_on_factors(
        state.amplitudes, state.space.dims, u, plan.keep))


def partial_trace(state: Union[PureState, StateStack, DensityMatrix],
                  keep: Union[int, Sequence[int]],
                  space: FactorSpace | None = None) -> Union[DensityMatrix, np.ndarray]:
    """Reduced density matrix on the kept factors.

    ``keep`` must be a nonempty proper subset of the subsystem indices;
    the trivial cases (trace of everything, or of nothing) are rejected.
    A :class:`PureState` gives a validated :class:`DensityMatrix`; a
    :class:`StateStack` of n states gives their (n, d_keep, d_keep) stack,
    Hermitian by construction and not validated, whose row r equals the
    entries of ``partial_trace`` of state r.  For a :class:`DensityMatrix`
    input the factorization must be supplied.
    """
    if isinstance(state, StateStack):
        return _reduced_rows(state.amplitudes, state.space.dims, _bipartition(state.space, keep))
    if isinstance(state, PureState):
        plan = _bipartition(state.space, keep)  # rejects the trivial cases
        return DensityMatrix(_reduced_rows(state.amplitudes[None], state.space.dims, plan)[0])
    if space is None:
        raise ValueError("partial_trace of a DensityMatrix needs an explicit FactorSpace")
    keep_t, rest, d_keep, d_rest, _ = _bipartition(space, keep)
    perm = keep_t + rest
    tensor = state.entries.reshape(space.dims + space.dims)
    order = perm + tuple(space.n_factors + i for i in perm)
    tensor = np.transpose(tensor, order).reshape(d_keep, d_rest, d_keep, d_rest)
    rho = np.einsum("irjr->ij", tensor)
    return DensityMatrix((rho + rho.conj().T) / 2.0)


def reduced_densities(states, keep: Union[int, Sequence[int]]) -> np.ndarray:
    """Reduced density matrices, on the kept factors, of the states of a stack
    or list: an (n, d_keep, d_keep) stack, Hermitian by construction, from
    ``partial_trace`` of the stack, or with every factor kept |psi><psi|."""
    stack = StateStack.of(states)
    plan = _subset_plan(stack.space, keep)
    if plan.rest:
        return partial_trace(stack, plan)
    return projectors(stack.amplitudes)


def _reduced_rows(amps: np.ndarray, dims: tuple[int, ...], plan: _SubsetPlan) -> np.ndarray:
    """The reduced densities of (n, D) amplitude rows across a proper bipartition."""
    mat = _grouped(amps, dims, plan)
    rho = mat @ mat.conj().transpose(0, 2, 1)
    return (rho + rho.conj().transpose(0, 2, 1)) / 2.0


def _grouped(amps: np.ndarray, dims: tuple[int, ...], plan: _SubsetPlan) -> np.ndarray:
    """(n, D) amplitude rows as (n, d_keep, d_rest) matrices, kept factors by the
    rest: for ``partial_trace``, ``schmidt_decompose`` and ``apply_on_factors``."""
    n = len(amps)
    return np.transpose(amps.reshape((n,) + dims), plan.axes).reshape(n, plan.d_keep, plan.d_rest)


def _bipartition(space: FactorSpace, keep) -> _SubsetPlan:
    """The two sides of a bipartition, with their dimensions: the kept and the
    traced-out factors of a partial trace, or a Schmidt cut and the rest."""
    plan = _subset_plan(space, keep)
    if not plan.rest:
        raise ValueError("a bipartition needs a proper subset of the subsystem indices")
    return plan


def schmidt_decompose(state: PureState, cut: Union[int, Sequence[int]]) -> SchmidtDecomposition:
    """Schmidt decomposition across the (cut | complement) bipartition.

    Weights are the squared singular values in descending order; terms
    below ``EIGENVALUE_FLOOR`` are dropped, so ``rank`` counts only the
    genuinely occupied Schmidt vectors.
    """
    space = state.space
    plan = _bipartition(space, cut)
    u, s, vh = np.linalg.svd(_grouped(state.amplitudes[None], space.dims, plan)[0],
                             full_matrices=False)

    kept = s * s > EIGENVALUE_FLOOR
    return SchmidtDecomposition(tuple((s[kept] * s[kept]).tolist()),
                                tuple(normalized_states(space.subspace(plan.keep), u.T[kept])),
                                tuple(normalized_states(space.subspace(plan.rest), vh[kept])))


def born_probabilities(rho: DensityMatrix, povm: POVMSet) -> np.ndarray:
    """Outcome probabilities Tr(A_i rho), clamped at tiny negatives."""
    return born_probability_rows(rho.entries[None], povm)[0]


def born_probability_rows(rhos: np.ndarray, povm: POVMSet | np.ndarray) -> np.ndarray:
    """``born_probabilities`` of every density of an (n, d, d) stack, which is
    not revalidated, as an (n, k) array: all against one POVM, or row r
    against POVM r of an (n, k, d, d) stack of validated elements, such as
    ``povm_sets`` gives.  Any bad row raises its message, and a non-finite
    one the sum's, before any product is taken."""
    elements = povm._stack if isinstance(povm, POVMSet) else povm
    dim = rhos.shape[-1]
    if elements.shape[-1] != dim:
        raise ValueError(f"POVM dimension {elements.shape[-1]} does not match "
                         f"state dimension {dim}")
    if elements.ndim == 4 and len(elements) != len(rhos):
        raise ValueError(f"{len(elements)} POVMs do not pair with {len(rhos)} densities")
    if not np.isfinite(rhos).all():  # the matmul's 0 * inf would warn
        raise ValueError("Born probabilities do not sum to 1 within tolerance")
    probs = _traced_products(elements, rhos)
    if probs.min(initial=0.0) < -1e-12:  # NaN is not below either
        raise ValueError("Born probability below tolerance; invalid POVM or state")
    probs = np.maximum(probs, 0.0)  # as np.clip(probs, 0.0, None), -0.0 to 0.0 too
    if not np.abs(probs.sum(axis=-1) - 1.0).max(initial=0.0) <= NORM_ATOL:  # NaN fails
        raise ValueError("Born probabilities do not sum to 1 within tolerance")
    return probs


def _traced_products(operators: Sequence[np.ndarray] | np.ndarray, rhos: np.ndarray
                     ) -> np.ndarray:
    """(n, k) values Re Tr(A_j rho_r) of k operators, a sequence or a (k, d, d)
    stack, on an (n, d, d) stack, in one matmul and one trace; an (n, k, d, d)
    stack gives row r its own k operators.  Each value equals
    np.trace(A_j @ rho_r) of the pair alone."""
    return np.matmul(np.asarray(operators), rhos[:, None]).trace(axis1=-2, axis2=-1).real


def quadratic_forms(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Re <v|M|v> of (..., d, d) matrices and (..., d) vectors, broadcast.

    Every pair is one BLAS matrix-vector product and one dot product,
    exactly np.vdot(v, M @ v); forms like ``v @ M.T`` or ``einsum`` sum in
    another order and differ in the last bits.
    """
    columns = vectors[..., :, None]
    return np.matmul(columns.conj().swapaxes(-1, -2),
                     np.matmul(matrices, columns))[..., 0, 0].real


def measure_projective(state: PureState, observable: HermitianObservable,
                       on: Union[int, Sequence[int]], rng: RandomStream
                       ) -> tuple[int, PureState]:
    """Projective measurement on the chosen factors, with state collapse.

    Returns the sampled eigenvalue-cluster index and the renormalized
    post-measurement state (P_i x I)|psi>, every cluster's image from one
    ``apply_on_factors`` call.  Clusters with probability below the
    selection floor are never chosen.
    """
    plan = _subset_plan(state.space, on)
    if observable.dim != plan.d_keep:
        raise ValueError("observable dimension does not match the chosen factors")
    branches = apply_on_factors(state.amplitudes, state.space.dims,
                                np.array(observable.projectors), plan.keep)
    idx = rng.choose([float(np.real(np.vdot(amps, amps))) for amps in branches])
    return idx, PureState.normalized(state.space, branches[idx])


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr(sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise ValueError("fidelity needs matrices of equal dimension")
    return float(fidelities(rho.entries[None], sigma.entries[None])[0])


def fidelities(rhos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """``fidelity`` of each pair of two (n, d, d) stacks of density matrices,
    which are not revalidated.  Each pair goes through the same LAPACK and
    BLAS calls as it would alone, so every value is bit-identical."""
    w, v = np.linalg.eigh(rhos)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    inner = sqrt_rho @ sigmas @ sqrt_rho
    vals = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2.0)
    root = np.sum(np.sqrt(np.clip(vals, 0.0, None)), axis=-1)
    return np.minimum(root * root, 1.0)


def quantize(x: float | np.ndarray, m: int) -> float | np.ndarray:
    """Nearest multiple of 2^-m, ties rounded to the even multiple, of a
    number (returned as a float) or of every entry of an array.

    A finite x whose x * 2^m overflows is already a multiple of 2^-m (its
    last bit is worth at least 2^(972 - m)), so it is returned unchanged."""
    m = int(m)
    if m < 1:
        raise ValueError("precision m must be a positive integer")
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(x, m)
    # + 0.0 turns the -0.0 that rint gives for small negatives into 0.0
    q = np.where(np.isinf(scaled), x, np.ldexp(np.rint(scaled), -m) + 0.0)
    return float(q) if np.ndim(q) == 0 else q


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum(lambda log2 lambda) in bits, over eigenvalues above the floor."""
    return spectrum_entropy(rho.eigenvalues(), 1.0)


def renyi_entropy(rho: DensityMatrix, alpha: float) -> float:
    """Renyi entropy (1/(1-alpha)) log2 Tr(rho^alpha) in bits, alpha != 1."""
    if abs(float(alpha) - 1.0) <= 1e-9:
        raise ValueError("alpha = 1 is the von Neumann case; use von_neumann_entropy")
    return spectrum_entropy(rho.eigenvalues(), alpha)


def entropy(rho: DensityMatrix, alpha: float = 1.0) -> float:
    """Entropy of order alpha in bits; alpha = 1 routes to von Neumann."""
    return spectrum_entropy(rho.eigenvalues(), alpha)


def spectrum_entropy(eigenvalues: np.ndarray, alpha: float = 1.0) -> float:
    """Entropy of order alpha in bits of a density matrix's eigenvalues.

    Eigenvalues at or below ``EIGENVALUE_FLOOR`` are dropped; alpha = 1
    is the von Neumann entropy, any other alpha >= 0 the Renyi entropy.
    """
    return float(spectrum_entropies(np.asarray(eigenvalues)[None], alpha)[0])


def spectrum_entropies(eigenvalues: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """``spectrum_entropy`` of each row of an (n, d) array of eigenvalues.

    The rows are summed in groups with the same number of eigenvalues above
    the floor, with the others left out: ``np.sum`` adds a row of 8 or more
    pairwise, so a zero in place of a dropped eigenvalue would regroup the
    additions and change the last bits.  A large order can make a row's
    sum of lambda^alpha underflow, or overflow on an eigenvalue rounded
    above 1; such a row is computed relative to its largest eigenvalue
    instead, which keeps it finite and accurate.
    """
    if not (isinstance(alpha, numbers.Real) and 0 <= alpha < math.inf):  # nor NaN
        raise ParameterError("alpha", "alpha must be nonnegative and finite")
    alpha = float(alpha)
    von_neumann = abs(alpha - 1.0) <= 1e-9
    vals = np.asarray(eigenvalues, dtype=float)
    kept = vals > EIGENVALUE_FLOOR
    counts = kept.sum(axis=1)
    values = np.zeros(len(vals))  # a row with no eigenvalue above the floor reads 0
    for count in set(counts.tolist()) - {0}:  # with no log2 of its empty sum
        rows = counts == count
        group = vals[kept & rows[:, None]].reshape(np.count_nonzero(rows), count)
        if von_neumann:
            values[rows] = -(group * np.log2(group)).sum(axis=1)
        else:
            values[rows] = _renyi_entropies(group, alpha)
    # + 0.0 normalizes -0.0, which would leak into record output
    return np.maximum(values, 0.0) + 0.0


def _renyi_entropies(group: np.ndarray, alpha: float) -> np.ndarray:
    """log2(sum lambda^alpha) / (1 - alpha) of each row of eigenvalues.  A
    row whose sum is below the smallest normal float (alpha > 1) or
    infinite (an eigenvalue rounded above 1) is instead
    (alpha / (alpha - 1)) (-log2 lambda_max) minus
    log2(sum (lambda / lambda_max)^alpha) / (alpha - 1): no log2 of 0 or inf."""
    with np.errstate(over="ignore"):
        sums = (group ** alpha).sum(axis=1)
    scaled = (sums < np.finfo(float).tiny) | (sums == np.inf)
    if not scaled.any():
        return np.log2(sums) / (1.0 - alpha)
    values = np.empty(len(group))
    values[~scaled] = np.log2(sums[~scaled]) / (1.0 - alpha)
    rows = group[scaled]
    top = rows.max(axis=1)
    values[scaled] = (alpha / (alpha - 1.0) * -np.log2(top)
                      - np.log2(((rows / top[:, None]) ** alpha).sum(axis=1)) / (alpha - 1.0))
    return values
