"""Slow independent oracles the tests pin expected values against.

Everything here deliberately avoids the library's own fast paths: the
product-state minimum goes through a Bloch-angle grid plus local polish
instead of see-saw, the see-saw reference runs one restart at a time with
its own eigensolver calls instead of the lock-step kernel, the click
probability is an eight-fold index loop with hand-written offset arithmetic
instead of kron/permute calls, and the decomposition coefficients come from
a least-squares solve over the explicit product basis instead of the
realigned two-solve route.  The Choi witness, its detected PPT state and the
A|BB' family are filled index by index, and block by block from shift
conjugates, instead of from the closed forms over shared 9x9 blocks.
The stacked zero harvest runs the same descents together, with plain row
products and one eigensolver call per half step; it is pinned vector for
vector to the sequential harvest, and stands in for it where that one is slow.
The random draws are the oracle's own, one matrix at a time, read off the
stream in the audit's order; an effect's inverse square root comes from
``scipy.linalg`` instead of the stacked eigensolver kernel.
"""

import numpy as np
from scipy.linalg import inv, sqrtm
from scipy.optimize import minimize


def bloch_vector(theta, phi):
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)],
        dtype=complex,
    )


def _pair_values(w4, vecs):
    # outer[a] = conj(v_a) (x) v_a as a 2x2 table, contracted against w4
    outer = np.einsum("ai,ak->aik", vecs.conj(), vecs)
    return np.einsum("aik,ijkl,bjl->ab", outer, w4, outer).real


def _angle_value(angles, w4):
    x = bloch_vector(angles[0], angles[1])
    y = bloch_vector(angles[2], angles[3])
    return float(
        np.einsum("i,j,ijkl,k,l->", x.conj(), y.conj(), w4, x, y).real
    )


def min_product_expectation_bloch(mat, grid=21, polish_starts=4):
    """Brute-force min of <xy|W|xy> over two-qubit product states.

    Dense grid over two pairs of Bloch angles, then Nelder-Mead polish from
    the best grid cells.  Only valid for 4x4 Hermitian inputs.
    """
    mat = np.asarray(mat, dtype=complex)
    assert mat.shape == (4, 4)
    w4 = mat.reshape(2, 2, 2, 2)
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    vecs = np.stack(
        [
            np.cos(tt / 2.0).ravel(),
            (np.exp(1j * pp) * np.sin(tt / 2.0)).ravel(),
        ],
        axis=1,
    )
    table = _pair_values(w4, vecs)
    flat = np.argsort(table.ravel())[:polish_starts]
    angles = np.stack([tt.ravel(), pp.ravel()], axis=1)
    best = np.inf
    for idx in flat:
        a, b = divmod(int(idx), table.shape[1])
        x0 = np.concatenate([angles[a], angles[b]])
        res = minimize(
            _angle_value,
            x0,
            args=(w4,),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        best = min(best, float(res.fun))
    return best


def _min_eigpair(mat):
    vals, vecs = np.linalg.eigh(mat)
    # among equal minima take the last ascending column (the first in
    # descending order); rotate the largest entry to the positive real axis
    k = int(np.flatnonzero(vals == vals.min())[-1])
    v = vecs[:, k]
    pivot = v[int(np.argmax(np.abs(v)))]
    return float(vals[k]), v * (pivot.conj() / abs(pivot))


def seesaw_descent_reference(
    mat, d_left, d_right, rng, max_iters=500, conv_tol=1e-12, stall_tol=None,
    abandon_tol=None,
):
    """One see-saw descent from a complex Gaussian right-party start.

    Alternates exact minimal eigenvectors of the two effective operators and
    ends on the first of these checks that holds after an iteration, in this
    order.  It converges once the value and both vectors move by less than
    ``conv_tol`` in one step.  Given ``abandon_tol``, it gives up as
    ``abandonment_holds`` says, with the band ``abandon_tol`` times the
    Frobenius norm of ``mat``; a descent given up counts as not converged.
    Given ``stall_tol``, it converges once two consecutive right-half values
    differ by at most ``stall_tol`` times that norm.  Without ``abandon_tol``
    every unsettled, unstalled descent runs to the budget.
    Returns (value, phi, psi, trace, converged); the trace holds both
    half-step values of every iteration.
    """
    w4 = np.asarray(mat, dtype=complex).reshape(d_left, d_right, d_left, d_right)
    psi = rng.normal(size=d_right) + 1j * rng.normal(size=d_right)
    psi = psi / np.linalg.norm(psi)
    phi = np.zeros(d_left, dtype=complex)
    value = np.inf
    trace = []
    norm = np.sqrt(np.sum(np.abs(mat) ** 2))
    stall = None if stall_tol is None else stall_tol * norm
    band = None if abandon_tol is None else abandon_tol * norm
    for k in range(1, max_iters + 1):
        val_left, phi_new = _min_eigpair(np.einsum("irjs,r,s->ij", w4, psi.conj(), psi))
        val_right, psi_new = _min_eigpair(
            np.einsum("irjs,i,j->rs", w4, phi_new.conj(), phi_new)
        )
        trace += [val_left, val_right]
        move = max(
            abs(val_right - value),
            np.abs(phi_new - phi).max(),
            np.abs(psi_new - psi).max(),
        )
        phi, psi, value = phi_new, psi_new, val_right
        if move < conv_tol:
            return value, phi, psi, trace, True
        if band is not None and abandonment_holds(trace, k, band, max_iters):
            return value, phi, psi, trace, False
        if stall is not None and k > 1 and abs(trace[-1] - trace[-3]) <= stall:
            return value, phi, psi, trace, True
    return value, phi, psi, trace, False


def abandonment_holds(trace, k, band, max_iters=500):
    """Whether a descent is given up at iteration ``k`` (from 1), read from
    its trace of both half-step values per iteration.

    From iteration 20 on, a right-half value above ``band`` is given up when
    the exponent p of a power law C / k^p fitted to the last two right-half
    values differs from the one fitted to the two before by at most 1/k of
    the latter, and that power law still lies above the band at iteration
    ``max_iters``.  On a power law the fitted exponent changes by O(1/k^2)
    per step; on a geometric descent C r^k it grows like k ln(1/r), by
    about 1/(k - 1.5) of itself per step, so a geometric descent is never
    given up.
    """
    value = trace[2 * k - 1]
    if k < 20 or not value > band:
        return False
    # exponents of C / k^p through the values at k - 1 and k, and through
    # those at k - 2 and k - 1
    v1, v2 = trace[2 * k - 3], trace[2 * k - 5]
    p = np.log(v1 / value) / np.log(k / (k - 1))
    p_before = np.log(v2 / v1) / np.log((k - 1) / (k - 2))
    steady = p_before > 0 and abs(p - p_before) <= p_before / k
    return bool(steady and value * (k / max_iters) ** p > band)


def descent_rng(seed, index):
    """Stream of descent (or audit trial) ``index``: the spawn-key split of
    the integer seed, or the shared Generator itself."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _complex_gaussian(shape, rng):
    """Real part drawn first, then the imaginary part."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def draw_product(dims, rng):
    """One normalized complex Gaussian factor per party, in party order."""
    return tuple(v / np.linalg.norm(v) for v in (_complex_gaussian(d, rng) for d in dims))


def draw_separable(dims, k, rng):
    """Dirichlet(1, ..., 1) weights of k members, then each member's factors:
    the order in which an audit trial draws its ensemble after the count k.
    Returns (weights, members), a member being its tuple of factors."""
    weights = rng.dirichlet(np.ones(k))
    return weights, [draw_product(dims, rng) for _ in range(k)]


def mixture_density(weights, members):
    """sum_n w_n |a_n b_n><a_n b_n| over the members (a_n, b_n)."""
    vecs = [np.kron(a, b) for a, b in members]
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))


def draw_unitary(d, rng):
    """Haar unitary: the QR of a complex Gaussian, each column's phase fixed
    by the matching diagonal entry of R."""
    q, r = np.linalg.qr(_complex_gaussian((d, d), rng))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def draw_effect(d, rng):
    """Effect (S+T)^(-1/2) S (S+T)^(-1/2), Hermitized, with S = G_0 G_0^H and
    T = G_1 G_1^H for complex Gaussians G_0, then G_1; 0 <= E <= I."""
    s, t = (g @ g.conj().T for g in (_complex_gaussian((d, d), rng) for _ in range(2)))
    root = inv(sqrtm(s + t))
    e = root @ s @ root
    return (e + e.conj().T) / 2


def min_product_reference(
    mat, d_left, d_right, restarts, seed, max_iters=500, stall_tol=1e-13,
    abandon_tol=None,
):
    """Per-restart descents, run one after another in restart order, with the
    certification see-saw's stall stop (``stall_tol=None`` for the strict
    rule alone) and, given ``abandon_tol``, its abandonment rule."""
    return [
        seesaw_descent_reference(
            mat, d_left, d_right, descent_rng(seed, r), max_iters,
            stall_tol=stall_tol, abandon_tol=abandon_tol,
        )
        for r in range(restarts)
    ]


def zero_harvest_reference(
    mat, d_left, d_right, target_count, max_descents, seed,
    zero_tol=1e-8, overlap=1 - 1e-6, abandon_tol=None,
):
    """Sequential zero harvest: one descent at a time until ``target_count``
    distinct product zeros are kept or ``max_descents`` have run, each
    descent given up as ``seesaw_descent_reference`` gives up at
    ``abandon_tol`` (``None`` runs every unsettled descent to the budget).
    Returns the kept full vectors in order and the number of descents run."""
    kept = []
    run = 0
    for t in range(max_descents):
        if len(kept) >= target_count:
            break
        run += 1
        value, phi, psi, _, _ = seesaw_descent_reference(
            mat, d_left, d_right, descent_rng(seed, t), abandon_tol=abandon_tol
        )
        if abs(value) > zero_tol:
            continue
        candidate = np.kron(phi, psi)
        if any(abs(np.vdot(f, candidate)) > overlap for f in kept):
            continue
        kept.append(candidate)
    return kept, run


def _min_eigpairs(mats):
    """``_min_eigpair`` of each matrix in a stack."""
    vals, vecs = np.linalg.eigh(mats)
    rows, d = np.arange(len(mats)), vals.shape[1]
    lowest = vals == vals.min(axis=1, keepdims=True)
    k = d - 1 - np.argmax(lowest[:, ::-1], axis=1)  # the last of equal minima
    v = vecs[rows, :, k]
    pivot = v[rows, np.argmax(np.abs(v), axis=1)]
    return vals[rows, k], v * (pivot.conj() / np.abs(pivot))[:, None]


def seesaw_descents_stacked(mat, d_left, d_right, rngs, max_iters=500, conv_tol=1e-12):
    """``seesaw_descent_reference`` without stall or abandonment rules, one
    descent per stream, all run together: each steps until it converges or
    the budget runs out.  Returns the values, phis and psis, one row each."""
    w4 = np.asarray(mat, dtype=complex).reshape(d_left, d_right, d_left, d_right)
    # the effective operators as row products: [(r, s), (i, j)] and [(i, j), (r, s)]
    w_right = w4.transpose(1, 3, 0, 2).reshape(d_right * d_right, -1)
    w_left = w4.transpose(0, 2, 1, 3).reshape(d_left * d_left, -1)
    psi = np.array([rng.normal(size=d_right) + 1j * rng.normal(size=d_right) for rng in rngs])
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    phi = np.zeros((len(psi), d_left), dtype=complex)
    value = np.full(len(psi), np.inf)
    active = np.arange(len(psi))
    for _ in range(max_iters):
        if not active.size:
            break
        p, f = psi[active], phi[active]
        pairs = (p.conj()[:, :, None] * p[:, None, :]).reshape(len(p), -1)
        _, phi_new = _min_eigpairs((pairs @ w_right).reshape(-1, d_left, d_left))
        pairs = (phi_new.conj()[:, :, None] * phi_new[:, None, :]).reshape(len(p), -1)
        val_right, psi_new = _min_eigpairs((pairs @ w_left).reshape(-1, d_right, d_right))
        move = np.maximum(
            np.abs(val_right - value[active]),
            np.maximum(np.abs(phi_new - f).max(axis=1), np.abs(psi_new - p).max(axis=1)),
        )
        phi[active], psi[active], value[active] = phi_new, psi_new, val_right
        active = active[~(move < conv_tol)]
    return value, phi, psi


def zero_harvest_stacked(
    mat, d_left, d_right, target_count, max_descents, seed, zero_tol=1e-8, overlap=1 - 1e-6,
):
    """``zero_harvest_reference`` with every unsettled descent run to the
    budget, the descents run together in chunks: each chunk starts as many
    descents as zeros are still missing, within the budget, and its results
    are read in descent order.  Returns the same kept vectors and count."""
    kept = []
    run = 0
    while len(kept) < target_count and run < max_descents:
        chunk = range(run, min(max_descents, run + target_count - len(kept)))
        rngs = [descent_rng(seed, t) for t in chunk]
        for value, phi, psi in zip(*seesaw_descents_stacked(mat, d_left, d_right, rngs)):
            if abs(value) > zero_tol:
                continue
            candidate = np.kron(phi, psi)
            if any(abs(np.vdot(f, candidate)) > overlap for f in kept):
                continue
            kept.append(candidate)
        run = chunk.stop
    return kept, run


def joint_probability_loops(rho_mat, sigma_s, sigma_t, e_left, e_right, d_a, d_b):
    """Click probability by raw index bookkeeping.

    The verifier feeds sigma_s to the left input slot and sigma_t to the
    right one; the left element measures (input, left party), the right
    element (right party, input).  Transposed inputs appear directly as
    swapped indices so no reshuffling helper is involved.  Input entries
    that are zero contribute nothing and are skipped.
    """
    rho_mat, sigma_s, sigma_t, e_left, e_right = (
        np.asarray(m).tolist() for m in (rho_mat, sigma_s, sigma_t, e_left, e_right)
    )
    total = 0.0 + 0.0j
    for p in range(d_a):
        for pp in range(d_a):
            if sigma_s[pp][p] == 0:
                continue
            for q in range(d_b):
                for qp in range(d_b):
                    if sigma_t[qp][q] == 0:
                        continue
                    weight = sigma_s[pp][p] * sigma_t[qp][q]
                    for a in range(d_a):
                        for ap in range(d_a):
                            for b in range(d_b):
                                for bp in range(d_b):
                                    total += (
                                        rho_mat[a * d_b + b][ap * d_b + bp]
                                        * weight
                                        * e_left[pp * d_a + ap][p * d_a + a]
                                        * e_right[bp * d_b + qp][b * d_b + q]
                                    )
    assert abs(total.imag) < 1e-10
    return float(total.real)


def _compressed(element, vec, d, party_first):
    """<vec| E |vec> on the party system of a d*d element, in loops; the
    party is the first factor of E when ``party_first``, else the second."""
    out = np.zeros((d, d), dtype=complex)
    for p in range(d):
        for r in range(d):
            for j in range(d):
                for i in range(d):
                    if party_first:
                        row, col = j * d + p, i * d + r
                    else:
                        row, col = p * d + j, r * d + i
                    out[p, r] += np.conj(vec[j]) * element[row, col] * vec[i]
    return out


def audit_trial_reference(scenario, seed, t, mode, embed_dims=None):
    """Trial ``t`` of ``separable_nonnegativity_audit``: (direct, mixture).

    The trial is redrawn from its own stream with this module's draws, in the
    audit's order: member count, separable ensemble, then the measurement
    pair (two effects; two pairs of local unitaries around the ideal
    projectors; or, embedded, two large effects and two isometries, the
    elements being their compressions).  The direct route sums beta against
    ``joint_probability_loops``; the mixture route compresses each element
    on the member's party vector and traces W^T against the product of the
    two, all in loops.
    """
    from entwit.mdiew import AUDIT_MAX_MEMBERS

    d_a, d_b = scenario.party_dims
    rng = descent_rng(seed, t)
    k = int(rng.integers(1, AUDIT_MAX_MEMBERS + 1))
    weights, members = draw_separable((d_a, d_b), k, rng)
    if embed_dims is not None:
        e_big = [draw_effect(n, rng) for n in embed_dims]
        isos = [draw_unitary(n, rng)[:, : d * d] for n, d in zip(embed_dims, (d_a, d_b))]
        e_l, e_r = (v.conj().T @ e @ v for e, v in zip(e_big, isos))
    elif mode == "arbitrary":
        e_l, e_r = (draw_effect(d * d, rng) for d in (d_a, d_b))
    else:
        ideal = []
        for d in (d_a, d_b):
            phi = np.eye(d).ravel() / np.sqrt(d)
            u = np.eye(d * d)
            if mode == "misaligned":
                u = np.kron(draw_unitary(d, rng), draw_unitary(d, rng))
            ideal.append(u @ np.outer(phi, phi) @ u.conj().T)
        e_l, e_r = ideal
    rho = mixture_density(weights, members)
    direct = sum(
        scenario.beta[s, u] * joint_probability_loops(rho, sig_s, sig_t, e_l, e_r, d_a, d_b)
        for s, sig_s in enumerate(scenario.basis_left.states)
        for u, sig_t in enumerate(scenario.basis_right.states)
    )
    w4 = scenario.witness.mat.reshape(d_a, d_b, d_a, d_b)
    mixture = 0.0
    for weight, (a, b) in zip(weights, members):
        g_l = _compressed(e_l, a, d_a, party_first=False)
        g_r = _compressed(e_r, b, d_b, party_first=True)
        term = 0.0 + 0.0j
        for p in range(d_a):
            for q in range(d_b):
                for r in range(d_a):
                    for u in range(d_b):
                        # W^T[(r, u), (p, q)] = W[(p, q), (r, u)]
                        term += w4[p, q, r, u] * g_l[p, r] * g_r[q, u]
        mixture += weight * term.real
    return float(direct), float(mixture)


def decomposition_reference(mat, states_left, states_right):
    """Coefficients beta with sum beta[s, t] sigma_s (x) sigma_t = W, by least
    squares over the explicit product basis: one ``np.kron`` column per input
    pair, in (s, t) order.  Complex; a Hermitian W gives a real beta."""
    columns = [np.kron(s, t).ravel() for s in states_left for t in states_right]
    coeffs, *_ = np.linalg.lstsq(np.array(columns).T, np.ravel(mat), rcond=None)
    return coeffs.reshape(len(states_left), len(states_right))


def partial_transpose_loops(mat, dims, transposed):
    """Entrywise partial transpose over the flagged subsystems."""
    mat = np.asarray(mat, dtype=complex)
    n = len(dims)
    out = np.empty_like(mat)
    strides = np.ones(n, dtype=int)
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]

    def unpack(flat):
        return [(flat // strides[k]) % dims[k] for k in range(n)]

    for r in range(mat.shape[0]):
        ridx = unpack(r)
        for c in range(mat.shape[1]):
            cidx = unpack(c)
            nr, nc = list(ridx), list(cidx)
            for k in transposed:
                nr[k], nc[k] = cidx[k], ridx[k]
            out[sum(i * s for i, s in zip(nr, strides)),
                sum(i * s for i, s in zip(nc, strides))] = mat[r, c]
    return out


def partial_trace_loops(mat, dims, keep):
    """Entrywise partial trace onto the kept subsystems."""
    mat = np.asarray(mat, dtype=complex)
    n = len(dims)
    strides = np.ones(n, dtype=int)
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    kept = list(keep)
    out_dim = int(np.prod([dims[k] for k in kept])) if kept else 1
    kstrides = np.ones(len(kept), dtype=int)
    for k in range(len(kept) - 2, -1, -1):
        kstrides[k] = kstrides[k + 1] * dims[kept[k + 1]]
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for r in range(mat.shape[0]):
        ridx = [(r // strides[k]) % dims[k] for k in range(n)]
        for c in range(mat.shape[1]):
            cidx = [(c // strides[k]) % dims[k] for k in range(n)]
            if any(
                ridx[k] != cidx[k] for k in range(n) if k not in kept
            ):
                continue
            ro = sum(ridx[k] * s for k, s in zip(kept, kstrides))
            co = sum(cidx[k] * s for k, s in zip(kept, kstrides))
            out[ro, co] += mat[r, c]
    return out


def choi_witness_loops():
    """The qutrit Choi witness entry by entry: +1 on each |i, i-1> slot, +2 on
    each |ii>, then -1 on every |ii><jj|."""
    d = 3
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        k = i * d + (i - 1) % d
        mat[k, k] += 1.0
        mat[i * d + i, i * d + i] += 2.0
    for i in range(d):
        for j in range(d):
            mat[i * d + i, j * d + j] -= 1.0
    return mat


def choi_detected_ppt_state_loops():
    """3 |Phi+><Phi+| + 2 D+ + D- / 2 over its trace, the shifted diagonals
    D+- = sum_i |i, i+-1><i, i+-1| filled index by index."""
    d = 3
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[d * k + k] = 1.0
    v = v / np.sqrt(d)
    dplus = np.zeros((d * d, d * d), dtype=complex)
    dminus = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        kp = i * d + (i + 1) % d
        km = i * d + (i - 1) % d
        dplus[kp, kp] = 1.0
        dminus[km, km] = 1.0
    raw = 3.0 * np.outer(v, v.conj()) + 2.0 * dplus + 0.5 * dminus
    return raw / raw.trace().real


def rho_abb_blocks(a, b):
    """The A|BB' family assembled block by block over the A index: block
    (i, j) is |i><j| (x) a for i != j, and diagonal block i is the shift
    conjugate (S^i (x) I) X (S^i (x) I)^H of X = |0><0| (x) a + |2><2| (x) b."""
    d = 3
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)  # |k> -> |k+1 mod d>
    eye3 = np.eye(d, dtype=complex)
    x = np.kron(np.outer(eye3[0], eye3[0]), a) + np.kron(np.outer(eye3[2], eye3[2]), b)
    out = np.zeros((d * d * 2, d * d * 2), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i == j:
                left = np.kron(np.linalg.matrix_power(shift, i), np.eye(2))
                piece = left @ x @ left.conj().T
            else:
                piece = np.kron(np.outer(eye3[i], eye3[j]), a)
            out[6 * i : 6 * i + 6, 6 * j : 6 * j + 6] = piece
    return out
