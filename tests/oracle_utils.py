"""Slow independent oracles the tests pin expected values against.

Everything here deliberately avoids the library's own fast paths: the
product-state minimum goes through a Bloch-angle grid plus local polish
instead of see-saw, the see-saw reference runs one restart at a time with
its own eigensolver calls instead of the lock-step kernel, and the click
probability is an eight-fold index loop with hand-written offset arithmetic
instead of kron/permute calls.
"""

import numpy as np
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
    mat, d_left, d_right, rng, max_iters=500, conv_tol=1e-12, stall_tol=None
):
    """One see-saw descent from a complex Gaussian right-party start.

    Alternates exact minimal eigenvectors of the two effective operators and
    stops once the value and both vectors move by less than ``conv_tol`` in
    one step, or, given ``stall_tol``, once two consecutive right-half values
    differ by at most ``stall_tol`` times the Frobenius norm of ``mat``.
    Returns (value, phi, psi, trace, converged); the trace holds both
    half-step values of every iteration.
    """
    w4 = np.asarray(mat, dtype=complex).reshape(d_left, d_right, d_left, d_right)
    psi = rng.normal(size=d_right) + 1j * rng.normal(size=d_right)
    psi = psi / np.linalg.norm(psi)
    phi = np.zeros(d_left, dtype=complex)
    value = np.inf
    trace = []
    stall = None if stall_tol is None else stall_tol * np.sqrt(np.sum(np.abs(mat) ** 2))
    for _ in range(max_iters):
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
        stalled = (
            stall is not None and len(trace) > 2 and abs(trace[-1] - trace[-3]) <= stall
        )
        phi, psi, value = phi_new, psi_new, val_right
        if move < conv_tol or stalled:
            return value, phi, psi, trace, True
    return value, phi, psi, trace, False


def descent_rng(seed, index):
    """Stream of descent ``index``: the spawn-key split of the integer seed,
    or the shared Generator itself."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def min_product_reference(
    mat, d_left, d_right, restarts, seed, max_iters=500, stall_tol=1e-13
):
    """Per-restart descents, run one after another in restart order, with the
    certification see-saw's stall stop (``stall_tol=None`` for the strict
    rule alone)."""
    return [
        seesaw_descent_reference(
            mat, d_left, d_right, descent_rng(seed, r), max_iters, stall_tol=stall_tol
        )
        for r in range(restarts)
    ]


def zero_harvest_reference(
    mat, d_left, d_right, target_count, max_descents, seed,
    zero_tol=1e-8, overlap=1 - 1e-6,
):
    """Sequential zero harvest: one descent at a time until ``target_count``
    distinct product zeros are kept or ``max_descents`` have run.  Returns
    the kept full vectors in order and the number of descents run."""
    kept = []
    run = 0
    for t in range(max_descents):
        if len(kept) >= target_count:
            break
        run += 1
        value, phi, psi, _, _ = seesaw_descent_reference(
            mat, d_left, d_right, descent_rng(seed, t)
        )
        if abs(value) > zero_tol:
            continue
        candidate = np.kron(phi, psi)
        if any(abs(np.vdot(f, candidate)) > overlap for f in kept):
            continue
        kept.append(candidate)
    return kept, run


def joint_probability_loops(rho_mat, sigma_s, sigma_t, e_left, e_right, d_a, d_b):
    """Click probability by raw index bookkeeping.

    The verifier feeds sigma_s to the left input slot and sigma_t to the
    right one; the left element measures (input, left party), the right
    element (right party, input).  Transposed inputs appear directly as
    swapped indices so no reshuffling helper is involved.
    """
    total = 0.0 + 0.0j
    for a in range(d_a):
        for ap in range(d_a):
            for b in range(d_b):
                for bp in range(d_b):
                    for p in range(d_a):
                        for pp in range(d_a):
                            for q in range(d_b):
                                for qp in range(d_b):
                                    total += (
                                        rho_mat[a * d_b + b, ap * d_b + bp]
                                        * sigma_s[pp, p]
                                        * sigma_t[qp, q]
                                        * e_left[pp * d_a + ap, p * d_a + a]
                                        * e_right[bp * d_b + qp, b * d_b + q]
                                    )
    assert abs(total.imag) < 1e-10
    return float(total.real)


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
