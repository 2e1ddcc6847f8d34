"""Independent brute-force oracles used to pin expected values in tests.

Each oracle deliberately avoids the library's own code paths: partial
traces are explicit index sums, entropies are scalar formulas applied to
probability lists, quadratic forms are evaluated term by term.  The scalar
forms of the library's vectorised paths live here too: Hermitian
coordinates one basis matrix at a time, and device outcome probabilities
one selected outcome at a time.  So does the original pure-state
construction (np.linalg.norm, np.kron, np.prod), which the library's
direct norm and outer product must match exactly, and the original
one-state quantum OPF evaluator and per-distribution outcome selection,
which the library's stacked forms must match exactly.  The per-trial loop
of RandomStream constructions, numpy's own SeedSequence, is the oracle of
``RandomStream.derive_many`` and of its bare generators, each trial's
generator filling its row is the oracle of ``RandomStream._normal_rows``'
one PCG64 and ziggurat pass, the numpy
inverse CDF is the oracle of the pure-Python ``RandomStream.choose``, and
each caller's old per-trial loop is kept here as the oracle of that caller, among them the estimation
checker's per-trial ensembles, their weights drawn by ``Generator.dirichlet``,
and its reconstructions, one ``np.linalg.lstsq`` per row (the oracle of
``density_from_projector_values``' one stacked fit), with the
one-member-at-a-time ensemble density.  So is the per-probe loop of
``update_map_feasibility``, the oracle of its stacked form, and the
one-row bodies of the stacked entropy, quantizer and fidelity with the old
per-trial loop of ``spod_update_refutation`` built on them, and the
per-vector loop of ``schmidt_decompose``.  Each device kind's per-state
body, from before the kinds got one table body each, is the oracle of
that kind's table rows and draws, and the tuple walk that read lists of
distributions is the oracle of ``OutcomeSelection.matrix`` on a table.
The two refutations' bodies from before their seed-free halves were kept
per key are the oracles of the kept form, and the per-point
``overlap_test`` loop of ``ensemble_estimate_overlap`` is the oracle of its
stacked overlap pass, and the per-pair ``np.vdot(v, M @ v)`` loop is the
oracle of ``qcore.quadratic_forms`` on every broadcast shape.  The
closure checker's per-property loop, one evaluation per weight draw,
unitary and background, is the oracle of its one stack per property, and
the one-matrix QR draw is the oracle of ``qcore.random_unitaries``.  The
two ensemble estimators' bodies from before they shared one
score-and-report body are the oracles of their reports.  The one-operator
``apply_on_factors`` with its own permutation, and ``measure_projective``'s
one call per projector on it, are the oracles of the stacked operator
images, and the overlap estimate's body from before it ran only its final
round is the oracle of that one round.  The one-stack projector design is
the oracle of the design built in row blocks, and the witness body from
before its design was kept per dimension, fitting by ``np.linalg.lstsq``,
is the oracle of ``product_form_witness``: with ``density_rows`` and
``update_map_fit``, every ``opf._lstsq`` caller is pinned to numpy's public
solve.  The one-state draw, one
``complex_normal`` block normalized at a time, and its call-by-call loop
are the oracles of ``qcore.random_pure_states_in_turn``; the one-element
POVM check and ``from_povm``'s one ``opf_from_quantum`` per element are the
oracles of its stacked check; and the IC outcomes built one projector at
a time on every call are the oracle of the estimation checker's outcomes
built once and evaluated as one stack.
"""

import itertools
import math

import numpy as np
import scipy.stats

from pqsim import devices
from pqsim.devices import DEVICE_KINDS, outcomes_equal, readout_density, sample_povm
from pqsim.opf import (
    OPF,
    FullMeasurement,
    canonical_probe_states,
    hermitian_basis,
    hermitian_coords as stacked_hermitian_coords,
    hermitian_from_coords,
    ic_projector_states,
    opf_from_device,
)
from pqsim.qcore import (
    EIGENVALUE_FLOOR,
    SELECTION_FLOOR,
    DensityMatrix,
    Ensemble,
    FactorSpace,
    HermitianObservable,
    POVMSet,
    PureState,
    RandomStream,
    StateStack,
    _square_matrix,
    _subset_plan,
    quantize as quantize_value,
    quadratic_forms as stacked_quadratic_forms,
    reduced_densities,
    require_density,
    require_hermitian,
    require_psd,
    spectrum_entropies,
    tensor_product,
)


def naive_partial_trace(amplitudes, dims, keep):
    """Reduced density matrix by explicit double-loop index summation."""
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    rest = tuple(i for i in range(len(dims)) if i not in keep)
    keep_dims = [dims[i] for i in keep]
    rest_dims = [dims[i] for i in rest]
    psi = np.asarray(amplitudes).reshape(dims)

    def flat(keep_idx, rest_idx):
        full = [0] * len(dims)
        for pos, i in zip(keep, keep_idx):
            full[pos] = i
        for pos, i in zip(rest, rest_idx):
            full[pos] = i
        return tuple(full)

    d_keep = int(np.prod(keep_dims))
    rho = np.zeros((d_keep, d_keep), dtype=complex)
    keep_states = list(itertools.product(*[range(d) for d in keep_dims]))
    rest_states = list(itertools.product(*[range(d) for d in rest_dims])) or [()]
    for a, ka in enumerate(keep_states):
        for b, kb in enumerate(keep_states):
            for r in rest_states:
                rho[a, b] += psi[flat(ka, r)] * np.conj(psi[flat(kb, r)])
    return rho


def shannon_bits(probs):
    """-sum(p log2 p) over strictly positive entries."""
    return -sum(p * math.log2(p) for p in probs if p > 0)


def renyi_bits(probs, alpha):
    """(1/(1-alpha)) log2 sum(p^alpha) over strictly positive entries."""
    return math.log2(sum(p ** alpha for p in probs if p > 0)) / (1.0 - alpha)


def trace_probabilities(rho, elements):
    """Born probabilities as plain elementwise traces."""
    return np.array([np.trace(np.asarray(a) @ np.asarray(rho)).real for a in elements])


def quadratic_form(q, psi):
    """<psi|Q|psi> evaluated term by term."""
    psi = np.asarray(psi)
    total = 0.0 + 0.0j
    for i in range(len(psi)):
        for j in range(len(psi)):
            total += np.conj(psi[i]) * q[i, j] * psi[j]
    return total.real


def partial_inner_products(amplitudes, dims, target, basis_rows):
    """Entanglement-analyser matrix M_ij = <phi_i|phi_j> by direct sums."""
    dims = tuple(dims)
    n = len(dims)
    rest = tuple(i for i in range(n) if i != target)
    psi = np.asarray(amplitudes).reshape(dims)
    d_t = dims[target]
    rest_states = list(itertools.product(*[range(dims[i]) for i in rest])) or [()]

    def partial(vec):
        out = np.zeros(len(rest_states), dtype=complex)
        for k, r in enumerate(rest_states):
            for a in range(d_t):
                full = [0] * n
                full[target] = a
                for pos, i in zip(rest, r):
                    full[pos] = i
                out[k] += np.conj(vec[a]) * psi[tuple(full)]
        return out

    partials = [partial(np.asarray(b)) for b in basis_rows]
    d = len(basis_rows)
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i, j] = np.vdot(partials[i], partials[j])
    return m


def chisquare_pvalue(counts, probabilities):
    """Goodness-of-fit p-value, merging expected bins below 5 counts."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probabilities, dtype=float) * counts.sum()
    keep = expected >= 5.0
    if not np.all(keep):
        counts = np.concatenate([counts[keep], [counts[~keep].sum()]])
        expected = np.concatenate([expected[keep], [expected[~keep].sum()]])
    if len(counts) < 2:
        return 1.0
    _, p = scipy.stats.chisquare(counts, expected)
    return float(p)


def hermitian_coords(matrix):
    """Coordinates Re Tr(H_a M), one basis matrix H_a at a time."""
    matrix = np.asarray(matrix)
    return np.array([float(np.trace(h @ matrix).real)
                     for h in hermitian_basis(matrix.shape[0])])


def hermitian_matrix(coords):
    """sum_a x_a H_a, one basis matrix at a time."""
    coords = np.asarray(coords, dtype=float)
    return sum(c * h for c, h in zip(coords, hermitian_basis(math.isqrt(coords.size))))


def entropy_reading(amplitudes, dims, keep, alpha, precision=None):
    """Entropy-meter output for one state: a 2-D reduced density, one eigensolve."""
    amplitudes = np.asarray(amplitudes)
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    rest = tuple(i for i in range(len(dims)) if i not in keep)
    if not rest:
        rho = np.outer(amplitudes, amplitudes.conj())
    else:
        d_keep = int(np.prod([dims[i] for i in keep]))
        mat = np.transpose(amplitudes.reshape(dims), keep + rest).reshape(d_keep, -1)
        rho = mat @ mat.conj().T
        rho = (rho + rho.conj().T) / 2.0
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-12]
    if alpha == 1.0:
        value = float(-np.sum(vals * np.log2(vals)))
    else:
        value = float(np.log2(np.sum(vals ** alpha)) / (1.0 - alpha))
    value = max(value, 0.0) + 0.0
    if precision is not None:
        value = math.ldexp(float(round(math.ldexp(value, precision))), -precision)
    return value


def quadratic_value(q, amplitudes):
    """Quantum OPF value of one state as the original evaluator computed it:
    np.vdot(psi, Q @ psi)."""
    amplitudes = np.asarray(amplitudes)
    return float(np.real(np.vdot(amplitudes, q @ amplitudes)))


def quadratic_forms(matrices, vectors):
    """Re <v|M|v> of broadcast (..., d, d) matrices and (..., d) vectors, one
    pair at a time by ``quadratic_value``."""
    matrices, vectors = np.asarray(matrices), np.asarray(vectors)
    shape = np.broadcast_shapes(matrices.shape[:-2], vectors.shape[:-1])
    matrices = np.broadcast_to(matrices, shape + matrices.shape[-2:])
    vectors = np.broadcast_to(vectors, shape + vectors.shape[-1:])
    out = np.empty(shape)
    for index in np.ndindex(shape):
        out[index] = quadratic_value(matrices[index], vectors[index])
    return out


def selection_probabilities(spec, selectors, distribution, atol=1e-9):
    """Selected-outcome probabilities under one distribution: the original
    loop over branches, adding each matching branch in order, then the
    check that every missed selector is a legal outcome of the device."""
    probs = np.zeros(len(selectors))
    matched = [False] * len(selectors)
    for outcome, prob in distribution:
        for i, selector in enumerate(selectors):
            if outcomes_equal(outcome, selector, atol):
                probs[i] += prob
                matched[i] = True
    for selector, hit in zip(selectors, matched):
        if not hit and not isinstance(selector, DEVICE_KINDS[spec.kind].may_miss):
            raise ValueError(f"selector {selector!r} is not in the outcome set of {spec.kind}")
    return probs


def selected_probability(spec, state, target, selector):
    """Probability of one device outcome, summed over its exact distribution."""
    total = 0.0
    for outcome, prob in spec.distribution(state, target):
        if outcomes_equal(outcome, selector):
            total += prob
    return total


def wilson_interval(successes, trials, confidence):
    """Wilson score interval with the normal quantile from scipy."""
    z = float(scipy.stats.norm.ppf(0.5 + confidence / 2.0))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def pure_state_amplitudes(amplitudes):
    """PureState amplitudes as the original construction made them: a
    private copy, np.linalg.norm, one division."""
    amps = np.array(amplitudes, dtype=complex).reshape(-1)
    return amps / float(np.linalg.norm(amps))


def normalized_amplitudes(amplitudes):
    """PureState.normalized amplitudes: divide out the norm, then construct."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return pure_state_amplitudes(amps / float(np.linalg.norm(amps)))


def random_state_amplitudes(dims, rng):
    """random_pure_state amplitudes: Gaussian draws of size np.prod(dims)."""
    return normalized_amplitudes(rng.complex_normal(int(np.prod(dims))))


def random_pure_state(space, rng):
    """random_pure_state as one draw made it: one complex_normal block, then
    PureState.normalized."""
    return PureState.normalized(space, rng.complex_normal(space.total_dim))


def random_states_in_turn(space, rng, n):
    """n random_pure_state draws from one stream, one call each."""
    return [random_pure_state(space, rng) for _ in range(n)]


def povm_element(element):
    """A complex copy of one POVM element, checked alone: square, Hermitian,
    then 0 <= Q <= I."""
    q = _square_matrix(element, "POVM element")
    require_hermitian(q, "POVM element must be Hermitian")
    if require_psd(q, "POVM element must satisfy 0 <= Q <= I")[-1] > 1.0 + 1e-9:
        raise ValueError("POVM element must satisfy 0 <= Q <= I")
    return q


def opf_from_quantum(element, space=None):
    """opf_from_quantum on one element checked alone."""
    q = povm_element(element)
    dim = q.shape[0]
    if space is None:
        space = FactorSpace((dim,))
    elif space.total_dim != dim:
        raise ValueError("declared space does not match the element's dimension")
    return OPF(space, lambda states: stacked_quadratic_forms(q, states.amplitudes), "quantum",
               operator=q)


def from_povm(povm, space):
    """FullMeasurement.from_povm by its element loop: one opf_from_quantum each."""
    return FullMeasurement(tuple(opf_from_quantum(q, space) for q in povm.elements))


def ic_outcomes(family, dim):
    """The estimation checker's IC outcomes, built one projector at a time."""
    space = FactorSpace((dim,))
    target = space.indices()
    out = []
    for vec in ic_projector_states(dim):
        proj = np.outer(vec, vec.conj())
        if family == "quantum_povm":
            out.append(opf_from_quantum(proj, space))
        elif family == "spod":
            spec = devices.DeviceSpec("PovmSampler",
                                      {"povm": POVMSet((proj, np.eye(dim) - proj))})
            out.append(opf_from_device(spec, devices.IntegerLabel(1), space, target))
        else:
            spec = devices.DeviceSpec("EigenvalueSampler",
                                      {"observable": proj, "variant": "bit"})
            out.append(opf_from_device(spec, devices.Bit(1), space, target))
    return tuple(out)


def random_unitary(dim, rng):
    """random_unitary as one draw made it: a complex_normal block, one 2-D QR
    and the phase fix, before draws were stacked."""
    g = rng.complex_normal(dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def tensor_amplitudes(a, b):
    """tensor_product amplitudes: the Kronecker product, then construct."""
    return pure_state_amplitudes(np.kron(a, b))


def derived_streams(seed, experiment, trials):
    """The streams of a trial range, one RandomStream construction each."""
    return [RandomStream(seed, experiment, t) for t in trials]


def normal_rows(rng, trials, k):
    """random_pure_states' per-trial loop before its rows were one pass: each
    trial's generator, from ``RandomStream.derive_many``, fills its row of k
    normals in one draw."""
    normals = np.empty((len(trials), k))
    for row, gen in zip(normals, (s.generator for s in rng.derive_many(trials))):
        gen.standard_normal(out=row)
    return normals


def choose(rng, probabilities):
    """``RandomStream.choose``'s numpy body: the floor by np.where, the running
    sums by np.cumsum and the search by np.searchsorted(side="right")."""
    p = np.asarray(probabilities, dtype=float)
    if p.size == 0:
        raise ValueError("cannot sample from an empty probability vector")
    p = np.where(p < SELECTION_FLOOR, 0.0, p)
    cdf = np.cumsum(p)
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("all probabilities are below the selection floor")
    u = rng.uniform() * total
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= p.size or p[idx] == 0.0:
        idx = int(np.max(np.nonzero(p)[0]))
    return idx


def spod_update_draws(rng):
    """(state, first POVM element, outcome) of each of spod_update_refutation's
    100 trials, drawn by its per-trial loop."""
    space = FactorSpace((2, 2))
    draws = []
    for child in derived_streams(rng.seed, rng.experiment, range(100)):
        psi = random_pure_state(space, child)
        b = np.diag([0.2 + 0.6 * child.uniform(), 0.2 + 0.6 * child.uniform()])
        povm = POVMSet((b, np.eye(2) - b))
        draws.append((psi.amplitudes.tobytes(), povm.elements[0].tobytes(),
                      sample_povm(psi, (0,), povm, child)))
    return draws


def spod_update_fidelity(rng):
    """min_update_fidelity of spod_update_refutation, by its per-trial loop:
    a DensityMatrix before and after each draw and one fidelity per trial."""
    space = FactorSpace((2, 2))
    min_update_fidelity = 1.0
    for child in derived_streams(rng.seed, rng.experiment, range(100)):
        psi = random_pure_state(space, child)
        before = DensityMatrix.from_pure(psi)
        b = np.diag([0.2 + 0.6 * child.uniform(), 0.2 + 0.6 * child.uniform()])
        sample_povm(psi, (0,), POVMSet((b, np.eye(2) - b)), child)
        after = DensityMatrix.from_pure(psi)
        min_update_fidelity = min(min_update_fidelity, fidelity(before.entries, after.entries))
    return min_update_fidelity


def fidelity(rho, sigma):
    """Uhlmann fidelity of two density matrices, one pair: one eigh for
    sqrt(rho), then one eigvalsh of the symmetrised sqrt(rho) sigma sqrt(rho)."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    root = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    return min(root * root, 1.0)


def spectrum_entropy(eigenvalues, alpha):
    """Entropy of order alpha in bits of one row of eigenvalues, those at or
    below the floor filtered out."""
    vals = eigenvalues[eigenvalues > EIGENVALUE_FLOOR]
    if abs(alpha - 1.0) <= 1e-9:
        value = float(-np.sum(vals * np.log2(vals)))
    else:
        value = float(np.log2(np.sum(vals ** alpha)) / (1.0 - alpha))
    return max(value, 0.0) + 0.0


def quantize(x, m):
    """Nearest multiple of 2^-m of one number, by Python's round."""
    return math.ldexp(float(round(math.ldexp(float(x), m))), -m)


def cloning_trials(d, rng, precision, trials):
    """(readout description, copy fidelity) of each trial of cloning_demo,
    by its per-trial loop."""
    factor = FactorSpace((d,))
    blank = PureState.basis_state(FactorSpace((2,)), 0)
    out = []
    for child in derived_streams(rng.seed, rng.experiment, range(trials)):
        psi = random_pure_state(factor, child)
        description = readout_density(tensor_product(psi, blank), (0,), precision=precision)
        copy = PureState.normalized(factor, np.linalg.eigh(description.matrix)[1][:, -1])
        out.append((description.matrix.tobytes(),
                    abs(np.vdot(copy.amplitudes, psi.amplitudes)) ** 2))
    return out


def random_ensemble(space, rng, members):
    """One random ensemble from one stream: Dirichlet weights, then a
    random_pure_state per member."""
    weights = rng.generator.dirichlet(np.ones(members))
    return Ensemble(tuple(
        (random_pure_state(space, rng), float(w)) for w in weights
    ))


def random_ensembles(space, rng, trials, members):
    """``opf._random_ensembles`` by its old per-trial loop: one
    ``random_ensemble`` per stream ``rng.derive(t)``, its weights drawn by
    ``Generator.dirichlet``."""
    return [random_ensemble(space, child, members)
            for child in derived_streams(rng.seed, rng.experiment, range(trials))]


def estimation_ensembles(space, rng):
    """check_estimation_assumption's 20 random ensembles, by its per-trial loop."""
    return random_ensembles(space, rng, trials=20, members=3)


def density_rows(states, values, dim):
    """``density_from_projector_values`` by its old per-row loop: one
    ``np.linalg.lstsq`` of the design per row of an (n, m) value stack, each
    with the unit trace appended, as an (n, d, d) stack."""
    design = np.vstack([np.array([stacked_hermitian_coords(np.outer(s, np.conj(s)))
                                  for s in states]),
                        stacked_hermitian_coords(np.eye(dim, dtype=complex))])
    coeffs = [np.linalg.lstsq(design, np.append(row, 1.0), rcond=None)[0]
              for row in np.asarray(values, dtype=float)]
    return np.array([hermitian_from_coords(c) for c in coeffs],
                    dtype=complex).reshape(-1, dim, dim)


def estimation_evidence(family, dim, rng):
    """The evidence of check_estimation_assumption for a POVM-statistics
    family, by its per-trial loop: the outcomes on each ensemble, one
    reconstruction and one ensemble density per trial."""
    outcomes = ic_outcomes(family, dim)
    ensembles = estimation_ensembles(FactorSpace((dim,)), rng)
    per_outcome = [f.on_ensembles(ensembles) for f in outcomes]
    worst = 0.0
    for trial, ens in enumerate(ensembles):
        values = [v[trial] for v in per_outcome]
        rho, = density_rows(ic_projector_states(dim), [values], dim)
        worst = max(worst, float(np.max(np.abs(rho - ens.density().entries))))
    return worst


def ensemble_density(ensemble):
    """sum_r p_r |psi_r><psi_r| of an ensemble, one member at a time."""
    dim = ensemble.members[0][0].space.total_dim
    rho = np.zeros((dim, dim), dtype=complex)
    for state, weight in ensemble.members:
        rho += weight * state.density()
    return rho


def device_run_outcomes(spec, state, target, seed, repetitions):
    """The outcomes of a config's device run, by the runner's old loop: a
    RandomStream per repetition, passed to stochastic devices only."""
    outcomes = []
    for rep in range(repetitions):
        rng = RandomStream(seed, experiment=1, trial=rep)
        outcomes.append(spec.apply(state, target, rng if spec.stochastic else None))
    return outcomes


def device_run_output(config, state):
    """The output of a config's device run as the runner wrote it before it
    streamed: every record made by the old loop, then joined and written at once."""
    from pqsim.cli import _as_text, _outcome_fields, format_record

    outcomes = device_run_outcomes(config.device, state, config.target, config.seed,
                                   config.repetitions)
    records = [{"record": "repetition", "repetition": rep, **_outcome_fields(outcome)}
               for rep, outcome in enumerate(outcomes)]
    records.append({"record": "summary", "action": "device", "kind": config.name,
                    "target": list(config.target), "repetitions": config.repetitions,
                    "seed": config.seed})
    render = _as_text if config.output_format == "text" else format_record
    return "\n".join(render(fields) for fields in records) + "\n"


def update_map_fit(element, probe_states):
    """(residual, map matrix) of update_map_feasibility, by its per-probe loop:
    a np.vdot per weight, the map applied to one projector at a time, and
    np.linalg.norm per validation state."""
    a = np.asarray(element, dtype=complex)
    dim = a.shape[0]
    probe_vecs = [np.asarray(p.amplitudes) for p in probe_states]
    design = stacked_hermitian_coords(np.array([np.outer(v, v.conj()) for v in probe_vecs]))
    weights = np.array([float(np.real(np.vdot(v, a @ v))) for v in probe_vecs])
    solution, *_ = np.linalg.lstsq(design, weights[:, None] * design, rcond=None)
    lmap = solution.T
    extra = RandomStream(0x51D, experiment=dim)
    validation = probe_vecs + canonical_probe_states(dim) + [
        random_pure_state(FactorSpace((dim,)), extra).amplitudes for _ in range(2 * dim)]
    residual = 0.0
    for v in validation:
        proj = np.outer(v, v.conj())
        want = float(np.real(np.vdot(v, a @ v))) * proj
        got = hermitian_from_coords(lmap @ stacked_hermitian_coords(proj))
        residual = max(residual, float(np.linalg.norm(got - want)))
    return residual, lmap


def schmidt_terms(state, cut):
    """(weights, left amplitudes, right amplitudes) of schmidt_decompose, by
    its per-vector loop: one PureState.normalized per kept singular vector."""
    space = state.space
    cut = tuple(sorted(cut))
    rest = tuple(i for i in range(space.n_factors) if i not in cut)
    d_left = int(np.prod([space.dims[i] for i in cut]))
    mat = np.transpose(state.amplitudes.reshape(space.dims), cut + rest).reshape(d_left, -1)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    left, right = space.subspace(cut), space.subspace(rest)
    weights, lefts, rights = [], [], []
    for i, sv in enumerate(s):
        p = float(sv * sv)
        if p <= EIGENVALUE_FLOOR:
            continue
        weights.append(p)
        lefts.append(PureState.normalized(left, u[:, i]).amplitudes.tobytes())
        rights.append(PureState.normalized(right, vh[i, :]).amplitudes.tobytes())
    return weights, lefts, rights


# ---------------------------------------------------------------------------
# Per-state device bodies and the tuple walk of outcome selection
# ---------------------------------------------------------------------------
# The device kinds' per-state bodies as they were before each kind got one
# table body, verbatim apart from their names, with the helpers they called.
# A table row must equal the matching body's distribution exactly wherever
# the operations are the same.

def _observed(state, target, observable):
    obs = devices._converted("observable", observable, HermitianObservable, HermitianObservable)
    rho = devices.reduced_density(state, target)
    if obs.dim != rho.dim:
        raise devices.ParameterError(
            "observable", "observable dimension does not match the target factors")
    return obs, rho


def _projector_weight(rho, vector):
    return float(np.real(np.vdot(vector, rho.entries @ vector)))


def _with_overflow(labelled, max_label):
    kept = []
    excluded = 0.0
    for label, p in labelled:
        if abs(label) <= max_label:
            kept.append((devices.IntegerLabel(label), float(p)))
        else:
            excluded += float(p)
    kept.append((devices.Overflow(excluded), excluded))
    return kept


def _threshold_bit(value, threshold, sharpness):
    Bit = devices.Bit
    if sharpness is None:
        hit = 1.0 if value > threshold else 0.0
        return [(Bit(1), hit), (Bit(0), 1.0 - hit)]
    devices._require_sharpness(sharpness)
    p1 = devices._logistic(sharpness * (value - threshold))
    return [(Bit(1), p1), (Bit(0), 1.0 - p1)]


def _cluster_probabilities(rho, obs):
    probs = np.array([float(np.trace(p @ rho.entries).real) for p in obs.projectors])
    return np.clip(probs, 0.0, None)


def born_probabilities(rho, povm):
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} does not match state dimension {rho.dim}")
    probs = np.array([float(np.trace(a @ rho.entries).real) for a in povm.elements])
    if np.min(probs) < -1e-12:
        raise ValueError("Born probability below tolerance; invalid POVM or state")
    probs = np.clip(probs, 0.0, None)
    if abs(float(np.sum(probs)) - 1.0) > 1e-9:
        raise ValueError("Born probabilities do not sum to 1 within tolerance")
    return probs


def function_readout(state, target, exponent=1, basis=None, precision=None):
    exponent = int(exponent)
    if exponent < 1:
        raise devices.ParameterError(
            "exponent", "supported matrix functions are positive integer powers")
    rho = devices.reduced_density(state, target)
    b = devices.basis_matrix(basis, rho.dim)
    mat = b.conj().T @ np.linalg.matrix_power(rho.entries, exponent) @ b
    if precision is not None:
        mat = devices.quantize_matrix(mat, precision)
    return devices.MatrixDescription(mat, precision)


def expectation_readout(state, target, observable, precision=None):
    obs, rho = _observed(state, target, observable)
    value = float(np.trace(obs.entries @ rho.entries).real)
    if precision is not None:
        value = quantize_value(value, precision)
    return devices.RealValue(value)


def eigenvalue_distribution(state, target, observable, variant="value", precision=None,
                            max_label=None, label_offset=0):
    obs, rho = _observed(state, target, observable)
    devices._require_variant_inputs(variant, obs, max_label)
    probs = _cluster_probabilities(rho, obs)

    if variant == "value":
        values = (obs.eigenvalues if precision is None
                  else quantize_value(np.array(obs.eigenvalues), precision).tolist())
        return [(devices.RealValue(value), float(p)) for value, p in zip(values, probs)]
    if variant == "integer_label":
        return [(devices.IntegerLabel(i + label_offset), float(p)) for i, p in enumerate(probs)]
    if variant == "finite":
        return _with_overflow(((i + label_offset, p) for i, p in enumerate(probs)), max_label)
    return [(devices.Bit(int(round(lam))), float(p)) for lam, p in zip(obs.eigenvalues, probs)]


def uncertainty_distribution(state, target, observable, precision=None):
    obs, rho = _observed(state, target, observable)
    mean = float(np.trace(obs.entries @ rho.entries).real)
    probs = _cluster_probabilities(rho, obs)
    values = np.array(obs.eigenvalues) - mean
    if precision is not None:
        values = quantize_value(values, precision)
    return [(devices.RealValue(value), float(p)) for value, p in zip(values.tolist(), probs)]


def povm_distribution(state, target, povm, max_label=None):
    povm = devices._converted("povm", povm, POVMSet, lambda elements: POVMSet(tuple(elements)))
    rho = devices.reduced_density(state, target)
    probs = born_probabilities(rho, povm)
    if max_label is None:
        return [(devices.IntegerLabel(i + 1), float(p)) for i, p in enumerate(probs)]
    return _with_overflow(((i + 1, p) for i, p in enumerate(probs)), max_label)


def overlap_distribution(state, target, phi, threshold, sharpness=None):
    if not 0.0 < threshold < 1.0:
        raise devices.ParameterError("threshold", "overlap threshold must lie in (0, 1)")
    rho = devices.reduced_density(state, target)
    if phi.space.total_dim != rho.dim:
        raise devices.ParameterError(
            "target_state", "target state dimension does not match the target factors")
    return _threshold_bit(_projector_weight(rho, phi.amplitudes), threshold, sharpness)


def basis_weights(state, target, basis=None):
    rho = devices.reduced_density(state, target)
    b = devices.basis_matrix(basis, rho.dim)
    return np.real(np.einsum("ij,ji->i", b.conj().T @ rho.entries, b)).clip(0.0, None)


def basis_select_distribution(state, target, basis=None, sharpness=None):
    weights = basis_weights(state, target, basis)
    if sharpness is None:
        top = float(np.max(weights))
        winners = [i for i, w in enumerate(weights) if top - w < 1e-9]
        share = 1.0 / len(winners)
        return [(devices.IntegerLabel(i), share if i in winners else 0.0)
                for i in range(len(weights))]
    devices._require_sharpness(sharpness)
    logits = sharpness * (weights - np.max(weights))
    probs = np.exp(logits)
    probs /= probs.sum()
    return [(devices.IntegerLabel(i), float(p)) for i, p in enumerate(probs)]


def entropy_meter(state, target, alpha=1.0, precision=None):
    if not alpha >= 0:
        raise devices.ParameterError("alpha", "alpha must be nonnegative")
    values = spectrum_entropies(np.linalg.eigvalsh(reduced_densities([state], target)), alpha)
    if precision is not None:
        values = quantize_value(values, precision)
    return devices.RealValue(values.tolist()[0])


def certify_distribution(state, target, alpha, threshold, sharpness=None):
    value = entropy_meter(state, target, alpha).value
    limit = math.log2(devices.target_dimension(state.space, target))
    if not 0.0 < threshold < limit:
        raise devices.ParameterError("entropy_threshold", f"entropy threshold {threshold} "
                                     f"outside allowed range 0 < E < {limit:g}")
    return _threshold_bit(value, threshold, sharpness)


def entanglement_analyse(state, target_single, basis=None, precision=None):
    space = state.space
    subset = _subset_plan(space, target_single).keep
    if len(subset) != 1:
        raise ValueError("EntanglementAnalyse acts on a single factor")
    target = subset[0]
    if space.n_factors < 2:
        raise ValueError("entanglement analysis needs at least two factors")
    d_t = space.dims[target]
    b = devices.basis_matrix(basis, d_t)
    rest = space.complement((target,))
    d_rest = math.prod(space.dims[i] for i in rest)

    tensor = state.amplitudes.reshape(space.dims)
    tensor = np.moveaxis(tensor, target, 0).reshape(d_t, d_rest)
    partials = b.conj().T @ tensor  # row i holds <phi_i|psi>
    m = partials.conj() @ partials.T
    if precision is not None:
        m = devices.quantize_matrix(m, precision)
    return devices.MatrixDescription(m, precision)


DEVICE_BODIES = {
    "Readout": lambda s, t, p: [(function_readout(s, t, 1, **p), 1.0)],
    "FunctionReadout": lambda s, t, p: [(function_readout(s, t, **p), 1.0)],
    "ExpectationReadout": lambda s, t, p: [(expectation_readout(s, t, **p), 1.0)],
    "EigenvalueSampler": lambda s, t, p: eigenvalue_distribution(s, t, **p),
    "UncertaintySampler": lambda s, t, p: uncertainty_distribution(s, t, **p),
    "PovmSampler": lambda s, t, p: povm_distribution(s, t, **p),
    "OverlapTest": lambda s, t, p: overlap_distribution(s, t, p["target_state"],
                                                        p["threshold"], p.get("sharpness")),
    "BasisSelect": lambda s, t, p: basis_select_distribution(s, t, **p),
    "EntropyMeter": lambda s, t, p: [(entropy_meter(s, t, **p), 1.0)],
    "EntropyCertifier": lambda s, t, p: certify_distribution(
        s, t, p.get("alpha", 1.0), p["entropy_threshold"], p.get("sharpness")),
    "EntanglementAnalyse": lambda s, t, p: [(entanglement_analyse(s, t, **p), 1.0)],
}


def device_distribution(spec, state, target):
    """The distribution of one state by its kind's per-state body."""
    return DEVICE_BODIES[spec.kind](state, target, spec.params)


def device_apply(spec, state, target, rng=None):
    """One run of a device on its per-state distribution, as ``DeviceSpec.apply`` does it."""
    return devices._outcome(device_distribution(spec, state, target), rng,
                            f"device kind {spec.kind}")


def selection_matrix(spec, selectors, distributions):
    """The (n, k) selected-outcome probabilities by the tuple walk that read
    lists of distributions before tables: every branch gathered per outcome
    type in a Python loop, matched against all selectors of its type at once,
    and added into its cell in branch order."""
    selectors = tuple(selectors)
    groups = {}
    for i, selector in enumerate(selectors):
        groups.setdefault(type(selector), []).append(i)
    groups = {kind: np.array(idx) for kind, idx in groups.items()}
    sel_values = np.array([getattr(s, "value", math.nan) for s in selectors], dtype=float)
    may_miss = devices.DEVICE_KINDS[spec.kind].may_miss
    may_miss = np.array([isinstance(s, may_miss) for s in selectors], dtype=bool)

    def hits(kind, outcomes, idx):
        if kind is devices.RealValue:
            values = np.array([o.value for o in outcomes], dtype=float)
            distance = values[:, None] - sel_values[idx]
            return np.abs(distance, out=distance) <= 1e-9
        if kind in (devices.IntegerLabel, devices.Bit):
            values = np.array([o.value for o in outcomes], dtype=float)
            return values[:, None] == sel_values[idx]
        return np.array([[outcomes_equal(o, selectors[i]) for i in idx]
                         for o in outcomes], dtype=bool).reshape(len(outcomes), len(idx))

    branches = {}
    for r, distribution in enumerate(distributions):
        for outcome, prob in distribution:
            rows, outcomes, probs = branches.setdefault(type(outcome), ([], [], []))
            rows.append(r)
            outcomes.append(outcome)
            probs.append(prob)
    k = len(selectors)
    out = np.zeros((len(distributions), k))
    matched = np.zeros(out.shape, dtype=bool)
    for kind, (rows, outcomes, probs) in branches.items():
        idx = groups.get(kind)
        if idx is None:
            continue
        branch, column = np.nonzero(hits(kind, outcomes, idx))
        cells = np.array(rows)[branch] * k + idx[column]
        np.add.at(out.reshape(-1), cells, np.array(probs, dtype=float)[branch])
        matched.reshape(-1)[cells] = True
    illegal = np.argwhere(~(matched | may_miss))
    if illegal.size:
        raise ValueError(f"selector {selectors[illegal[0, 1]]!r} is not in the "
                         f"outcome set of {spec.kind}")
    return out


def projector_design(amps):
    """``opf._projector_design`` from before it was built in row blocks: the
    whole (n, d, d) projector stack, then its (n, d^2) Hermitian coordinates."""
    projs = amps[:, :, None] * amps.conj()[:, None, :]
    return stacked_hermitian_coords(projs)


def product_form_fit(f, extra_probes=()):
    """(residual, operator, probe count) of ``product_form_witness`` by its
    body from before the probe design was kept per dimension: the probes
    redrawn, normalized and designed on every call, and fitted by
    ``np.linalg.lstsq`` on the one BLAS thread every library fit runs on."""
    from pqsim.opf import _one_blas_thread, _witness_probe_states
    from pqsim.qcore import StateStack, normalized_states

    dim = f.space.total_dim
    probes = normalized_states(f.space, np.array(_witness_probe_states(dim)))
    extra = StateStack.of(extra_probes, f.space, "state space does not match the OPF's space")
    amps = np.concatenate([probes.amplitudes, extra.amplitudes])
    amps.setflags(write=False)
    design = projector_design(amps)
    values = f.values(StateStack._trusted(f.space, amps))
    with _one_blas_thread():
        coeffs = np.linalg.lstsq(design, values, rcond=None)[0]
    residual = float(np.max(np.abs(values - design @ coeffs)))
    return residual, hermitian_from_coords(coeffs), len(amps)


def fpvnem_refutation(d, m, samples, rng, include_entangled=True):
    """``experiments.fpvnem_refutation``'s body from before its seed-free half
    was kept per (d, m): the measurement, the Bell value and the witness fit
    made anew on every call."""
    from pqsim.experiments import (
        CONSISTENT, VIOLATION_CERTIFIED, Certificate, _judge, _product_probe_residual)
    from pqsim.opf import entropy_meter_measurement, product_form_witness
    from pqsim.qcore import random_pure_states

    if not 2 <= d <= 4:
        raise ValueError("refutation runs at 2 <= d <= 4")
    if m > 8:
        raise ValueError("precision capped at m <= 8 for outcome enumeration")
    space = FactorSpace((d, d))
    factor = FactorSpace((d,))
    measurement = entropy_meter_measurement(space, (0,), precision=m)
    bound = math.ceil(2 ** m * math.log2(d)) + 1
    outcome_count = len(measurement.outcomes)
    f0 = measurement.outcomes[0]

    products = random_pure_states((factor, factor), rng, samples)
    f0_products = measurement.probabilities(products)[:, 0]
    worst_product = float(np.max(np.abs(f0_products - 1.0), initial=0.0))

    evidence = {
        "d": d, "m": m, "samples": samples,
        "outcome_count": outcome_count, "outcome_bound": bound,
        "max_product_deviation": worst_product,
    }

    clauses = {"outcome_bound": outcome_count <= bound,
               "product_deviation": worst_product <= 1e-9}

    if not include_entangled:
        residual = _product_probe_residual(f0, d)
        evidence["residual"] = residual
        clauses["residual"] = residual < 1e-6
        return Certificate("fpvnem", _judge(evidence, CONSISTENT, clauses), evidence, rng.seed)

    bell_amps = np.eye(d).reshape(-1) / math.sqrt(d)
    bell = PureState(space, bell_amps)
    f0_bell = f0(bell)
    witness = product_form_witness(f0)
    evidence.update({"f0_bell": f0_bell, "residual": witness.residual})
    clauses.update({"f0_bell": f0_bell == 0.0, "residual": witness.residual > 0.1})
    return Certificate("fpvnem", _judge(evidence, VIOLATION_CERTIFIED, clauses),
                       evidence, rng.seed)


def check_closure(measurement, samples, rng):
    """``opf.check_closure``'s per-property loop from before each property
    was drawn and evaluated as one stack: 10 weight draws, 10 unitaries (one
    QR each) and 10 backgrounds, each evaluated on its own.  Its running max
    of each property's violations is NaN from the first NaN violation on."""
    from pqsim.opf import ClosureReport
    from pqsim.qcore import (
        StateStack, random_pure_states, random_unitary, tensor_products, unitary_images)

    def completeness_violation(probs):
        totals = np.cumsum(probs, axis=1)[:, -1]
        return float(np.max(np.abs(totals - 1.0), initial=0.0))

    def range_violation(values):
        return float(np.max(np.maximum(values - 1.0, -values), initial=0.0))

    def worst(*violations):  # a running max, but NaN once any violation is NaN
        return math.nan if any(math.isnan(v) for v in violations) else max(violations)

    if samples < 1:
        raise ValueError("samples must be positive")
    space = measurement.space
    states = random_pure_states((space,), rng, samples)
    values = measurement.probabilities(states)
    completeness = completeness_violation(values)

    n_out = len(measurement.outcomes)
    aux = rng.derive(samples + 1)
    probes = states[:50]

    mixture_violation = 0.0
    for _ in range(10):
        w = aux.generator.dirichlet(np.ones(n_out)) if n_out > 1 else np.ones(1)
        mixed = np.cumsum(values[: len(probes)] * w, axis=1)[:, -1]
        mixture_violation = worst(mixture_violation, range_violation(mixed))

    unitary_violation = 0.0
    for _ in range(10):
        u = random_unitary(space.total_dim, aux)
        rotated = measurement.probabilities(unitary_images(probes, u))
        unitary_violation = worst(unitary_violation, completeness_violation(rotated),
                                  range_violation(rotated[:10]))

    composition_violation = None
    if space.n_factors >= 2:
        composition_violation = 0.0
        lead = FactorSpace(space.dims[:-1])
        back = FactorSpace((space.dims[-1],))
        lead_probes = StateStack.of([random_pure_state(lead, aux) for _ in range(10)])
        for _ in range(10):
            phi = random_pure_state(back, aux)
            joint = measurement.probabilities(tensor_products(lead_probes, phi))
            composition_violation = worst(composition_violation,
                                          completeness_violation(joint),
                                          range_violation(joint))

    return ClosureReport(samples, completeness, mixture_violation,
                         unitary_violation, composition_violation)


def spod_update_refutation(rng, element="projector0"):
    """``experiments.spod_update_refutation``'s body from before its update-map
    fits were kept per element: both fits made anew on every call."""
    from pqsim.experiments import (
        CONSISTENT, SPOD_ELEMENTS, VIOLATION_CERTIFIED, Certificate, _judge)
    from pqsim.opf import QUBIT_PROBE_STATES, update_map_feasibility
    from pqsim.qcore import fidelities, normalized_states, povm_sets, require_density

    if element not in SPOD_ELEMENTS:
        raise ValueError(f"element must be one of {sorted(SPOD_ELEMENTS)}")
    space = FactorSpace((2, 2))
    dim = space.total_dim
    normals = np.empty((100, 2 * dim))
    uniforms = np.empty((100, 2))
    children = []
    for row, pair, child in zip(normals, uniforms, rng.derive_many(range(100))):
        child.generator.standard_normal(out=row)  # random_pure_state's draw
        pair[:] = child.uniform(), child.uniform()
        children.append(child)
    states = normalized_states(space, normals[:, :dim] + 1j * normals[:, dim:])
    b = np.zeros((100, 2, 2))
    b[:, [0, 1], [0, 1]] = 0.2 + 0.6 * uniforms
    povms = povm_sets(np.stack([b, np.eye(2) - b], axis=1))
    before = reduced_densities(states, space.indices())
    require_density(before)
    for psi, povm, child in zip(states, povms, children):
        sample_povm(psi, (0,), povm, child)
    after = reduced_densities(states, space.indices())  # devices never touch the state
    require_density(after)
    min_update_fidelity = min(1.0, *fidelities(before, after).tolist())

    cert = update_map_feasibility(SPOD_ELEMENTS[element], QUBIT_PROBE_STATES)
    control = update_map_feasibility(SPOD_ELEMENTS["half_identity"], QUBIT_PROBE_STATES)

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


def ensemble_estimate_readout(source, n_draws, rng, precision_schedule=None, confidence=0.95,
                              threshold=0.05):
    """``experiments.ensemble_estimate_readout``'s body from before the two
    ensemble estimators shared one score-and-report body."""
    from pqsim.experiments import (
        EstimationReport, OutcomeStat, _below_threshold, _phase_fixed, _state_distance,
        wilson_interval)

    if n_draws < 100:
        raise ValueError("need at least 100 draws")
    members = source.members
    weights = source.weights

    if precision_schedule is not None and len(precision_schedule) == 0:
        raise ValueError("precision schedule must be nonempty")

    # group draws by (member, precision); the draw sequence is multinomial
    groups = {}
    if precision_schedule is None:
        counts = rng.derive(0).generator.multinomial(n_draws, weights)
        for r, c in enumerate(counts):
            if c > 0:
                groups[(r, None)] = int(c)
    else:
        schedule = list(precision_schedule)
        member_draws = rng.derive(0).generator.choice(
            len(members), size=n_draws, p=weights)
        for t, r in enumerate(member_draws):
            m_t = schedule[min(t, len(schedule) - 1)]
            key = (int(r), int(m_t))
            groups[key] = groups.get(key, 0) + 1

    # one readout per distinct (member, precision) group
    clusters = []
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

    recovered = tuple((c["state"], c["count"] / n_draws) for c in clusters)
    stats = tuple(
        OutcomeStat(c["count"] / n_draws,
                    wilson_interval(c["count"], n_draws, confidence), n_draws)
        for c in clusters)

    # match recovered clusters to true members for the metric
    estimated = {r: 0.0 for r in range(len(members))}
    ghost_mass = 0.0
    max_member_deviation = 0.0
    for state, weight in recovered:
        distances = [_state_distance(state, mem.amplitudes) for mem, _ in members]
        best = int(np.argmin(distances))
        cell = 2.0 ** (-(min(s for s in (precision_schedule or [60])) - 1))
        if distances[best] < max(cell, 1e-6):
            estimated[best] += weight
            max_member_deviation = max(max_member_deviation, distances[best])
        else:
            ghost_mass += weight
    total_variation = sum(abs(weights[r] - estimated[r]) for r in estimated) + ghost_mass

    extras = {"members": len(members), "draws": n_draws,
              "max_member_deviation": max_member_deviation,
              "finite_precision": precision_schedule is not None}
    return EstimationReport(
        protocol="ensemble-readout", outcome_stats=stats,
        metric_name="total_variation", metric_value=total_variation,
        confidence=confidence, threshold=threshold,
        passed=_below_threshold(extras, total_variation, threshold), seed=rng.seed,
        recovered=recovered, extras=extras,
    )


def overlap_fired(state, net, eps):
    """The net points whose hard overlap test fires on a state, one
    ``overlap_test`` per point, each rebuilding the state's density."""
    return frozenset(j for j, phi in enumerate(net)
                     if devices.overlap_test(state, state.space.indices(), phi,
                                             1.0 - eps).value == 1)


def ensemble_estimate_overlap(source, epsilon_schedule, n_draws, rng, confidence=0.95,
                              threshold=0.05, net_cap=4000):
    """``experiments.ensemble_estimate_overlap``'s body from before its overlap
    tests ran in one stacked pass: ``overlap_fired`` per drawn member and
    round, with the fired sets kept per member amplitudes."""
    from pqsim.experiments import (
        EstimationReport, OutcomeStat, _below_threshold, _bloch_state, _bloch_vector,
        _judge, _net_size_for, _phase_fixed, fibonacci_net, wilson_interval)

    if source.space.total_dim != 2:
        raise ValueError("overlap estimation is implemented for d = 2")
    schedule = [float(e) for e in epsilon_schedule]
    if len(schedule) == 0:
        raise ValueError("epsilon schedule must be nonempty")
    if any(not 0.0 < e < 1.0 for e in schedule):
        raise ValueError("epsilon values must lie in (0, 1)")

    members = source.members
    weights = source.weights
    counts = rng.derive(0).generator.multinomial(n_draws, weights)
    space = source.space

    rounds = []
    final_clusters = {}
    for round_idx, eps in enumerate(schedule):
        size = _net_size_for(eps)
        if size > net_cap:
            extras = {"net_cap": net_cap, "requested_net": size, "epsilon": eps}
            return EstimationReport(
                protocol="ensemble-overlap", outcome_stats=(),
                metric_name="total_variation", metric_value=0.0,
                confidence=confidence, threshold=threshold, passed=False,
                seed=rng.seed, status=_judge(extras, "OK", {"net_cap": False}),
                extras=extras)
        net = [PureState(space, v) for v in fibonacci_net(size)]
        rounds.append({"epsilon": eps, "net_size": size})

        pattern_cache = {}
        clusters = {}
        for r, count in enumerate(counts):
            if count == 0:
                continue
            state = members[r][0]
            key = state.amplitudes.tobytes()
            if key not in pattern_cache:
                pattern_cache[key] = overlap_fired(state, net, eps)
            fired = pattern_cache[key]
            if not fired:
                fired = frozenset({-1})  # net failed to cover: ghost cluster
            entry = clusters.setdefault(fired, {"count": 0})
            entry["count"] += int(count)
        for fired, entry in clusters.items():
            if -1 in fired:
                entry["state"] = None
                continue
            centroid = np.sum([_bloch_vector(net[j].amplitudes) for j in fired], axis=0)
            entry["state"] = _phase_fixed(_bloch_state(centroid))
        final_clusters = clusters

    recovered = tuple((entry["state"], entry["count"] / n_draws)
                      for entry in final_clusters.values()
                      if entry["state"] is not None)
    stats = tuple(
        OutcomeStat(entry["count"] / n_draws,
                    wilson_interval(entry["count"], n_draws, confidence), n_draws)
        for entry in final_clusters.values())

    final_eps = schedule[-1]
    estimated = {r: 0.0 for r in range(len(members))}
    ghost_mass = sum(entry["count"] / n_draws for entry in final_clusters.values()
                     if entry["state"] is None)
    worst_overlap = 1.0
    for state, weight in recovered:
        overlaps = [abs(np.vdot(state, mem.amplitudes)) ** 2 for mem, _ in members]
        best = int(np.argmax(overlaps))
        if overlaps[best] > 1.0 - final_eps:
            estimated[best] += weight
            worst_overlap = min(worst_overlap, overlaps[best])
        else:
            ghost_mass += weight
    total_variation = sum(abs(weights[r] - estimated[r]) for r in estimated) + ghost_mass

    extras = {"rounds": len(rounds), "final_epsilon": final_eps,
              "final_net_size": rounds[-1]["net_size"],
              "min_matched_overlap": worst_overlap, "draws": n_draws}
    return EstimationReport(
        protocol="ensemble-overlap", outcome_stats=stats,
        metric_name="total_variation", metric_value=total_variation,
        confidence=confidence, threshold=threshold,
        passed=_below_threshold(extras, total_variation, threshold), seed=rng.seed,
        recovered=recovered, extras=extras,
    )


def apply_on_factors(amplitudes, dims, op, subset):
    """``qcore.apply_on_factors`` for one operator, by its own permutation of
    the factors and its inverse, the subset taken in the order given."""
    n = len(dims)
    subset = tuple(subset)
    rest = tuple(i for i in range(n) if i not in set(subset))
    d_sub = math.prod(dims[i] for i in subset)
    d_rest = math.prod(dims[i] for i in rest)
    tensor = np.transpose(amplitudes.reshape(dims), subset + rest).reshape(d_sub, d_rest)
    tensor = (op @ tensor).reshape([dims[i] for i in subset + rest])
    return np.transpose(tensor, np.argsort(subset + rest)).reshape(-1)


def measure_projective(state, observable, on, rng):
    """``qcore.measure_projective`` by one ``apply_on_factors`` call per
    cluster projector, on the sorted subset."""
    subset = _subset_plan(state.space, on).keep
    branches = [apply_on_factors(state.amplitudes, state.space.dims, proj, subset)
                for proj in observable.projectors]
    idx = rng.choose([float(np.real(np.vdot(amps, amps))) for amps in branches])
    return idx, PureState.normalized(state.space, branches[idx])


def ensemble_estimate_overlap_rounds(source, epsilon_schedule, n_draws, rng, confidence=0.95,
                                     threshold=0.05, net_cap=4000):
    """``experiments.ensemble_estimate_overlap``'s body from before it ran only
    its final round: every round of the schedule builds its net, its overlap
    bits and its clusters, and each round's overwrite the last's."""
    from pqsim.experiments import (
        EstimationReport, _bloch_state, _bloch_vector, _ensemble_report, _judge,
        _net_size_for, _phase_fixed, fibonacci_net)

    if source.space.total_dim != 2:
        raise ValueError("overlap estimation is implemented for d = 2")
    schedule = [float(e) for e in epsilon_schedule]
    if len(schedule) == 0:
        raise ValueError("epsilon schedule must be nonempty")
    if any(not 0.0 < e < 1.0 for e in schedule):
        raise ValueError("epsilon values must lie in (0, 1)")

    members = source.members
    weights = source.weights
    counts = rng.derive(0).generator.multinomial(n_draws, weights)
    space = source.space
    drawn = [r for r, count in enumerate(counts) if count > 0]
    rhos = reduced_densities(StateStack.of([members[r][0] for r in drawn], space),
                             space.indices())
    require_density(rhos)

    for eps in schedule:
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
        clusters = {}
        for r, bits in zip(drawn, devices.overlap_bits(rhos, net, 1.0 - eps)):
            fired = frozenset(np.flatnonzero(bits).tolist())
            if not fired:
                fired = frozenset({-1})
            entry = clusters.setdefault(fired, {"count": 0})
            entry["count"] += int(counts[r])
        for fired, entry in clusters.items():
            if -1 in fired:
                entry["state"] = None
                continue
            centroid = np.sum([_bloch_vector(net.amplitudes[j]) for j in fired], axis=0)
            entry["state"] = _phase_fixed(_bloch_state(centroid))

    matches, overlaps_matched = [], [1.0]
    for state in (c["state"] for c in clusters.values() if c["state"] is not None):
        overlaps = [abs(np.vdot(state, mem.amplitudes)) ** 2 for mem, _ in members]
        best = int(np.argmax(overlaps))
        matches.append(best if overlaps[best] > 1.0 - schedule[-1] else None)
        if matches[-1] is not None:
            overlaps_matched.append(overlaps[best])

    extras = {"rounds": len(schedule), "final_epsilon": schedule[-1], "final_net_size": size,
              "min_matched_overlap": min(overlaps_matched), "draws": n_draws}
    return _ensemble_report("ensemble-overlap", source, clusters.values(), matches, n_draws,
                            rng, confidence, threshold, extras)
