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
``RandomStream.derive_many``, and each caller's old per-trial loop is
kept here as the oracle of that caller, among them the estimation
checker's per-trial ensembles and reconstructions, with the
one-member-at-a-time ensemble density.  So is the per-probe loop of
``update_map_feasibility``, the oracle of its stacked form, and the
one-row bodies of the stacked entropy, quantizer and fidelity with the old
per-trial loop of ``spod_update_refutation`` built on them, and the
per-vector loop of ``schmidt_decompose``.
"""

import itertools
import math

import numpy as np
import scipy.stats

from pqsim.devices import DEVICE_KINDS, outcomes_equal, readout_density, sample_povm
from pqsim.opf import (
    _ic_outcomes,
    canonical_probe_states,
    density_from_projector_values,
    hermitian_basis,
    hermitian_coords as stacked_hermitian_coords,
    hermitian_from_coords,
    ic_projector_states,
)
from pqsim.qcore import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    Ensemble,
    FactorSpace,
    POVMSet,
    PureState,
    RandomStream,
    random_pure_state,
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


def tensor_amplitudes(a, b):
    """tensor_product amplitudes: the Kronecker product, then construct."""
    return pure_state_amplitudes(np.kron(a, b))


def derived_streams(seed, experiment, trials):
    """The streams of a trial range, one RandomStream construction each."""
    return [RandomStream(seed, experiment, t) for t in trials]


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


def estimation_ensembles(space, rng):
    """check_estimation_assumption's 20 random ensembles, by its per-trial loop."""
    return [random_ensemble(space, child, members=3)
            for child in derived_streams(rng.seed, rng.experiment, range(20))]


def estimation_evidence(family, dim, rng):
    """The evidence of check_estimation_assumption for a POVM-statistics
    family, by its per-trial loop: the outcomes on each ensemble, one
    reconstruction and one ensemble density per trial."""
    outcomes = _ic_outcomes(family, dim)
    ensembles = estimation_ensembles(FactorSpace((dim,)), rng)
    per_outcome = [f.on_ensembles(ensembles) for f in outcomes]
    worst = 0.0
    for trial, ens in enumerate(ensembles):
        values = [v[trial] for v in per_outcome]
        rho = density_from_projector_values(ic_projector_states(dim), values, dim)
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
    records.append({"record": "summary", "action": "device", "kind": config.device_kind,
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
