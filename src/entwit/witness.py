"""Numerical witness certification, see-saw product minimization, zero sets.

A Hermitian W on a bipartite layout is accepted as a witness numerically when
its minimum over product states (found by seeded see-saw restarts) is >= -tol
||W||_F while its minimum eigenvalue is < -tol ||W||_F.  Product zeros are
collected from the same descents into one record, ``ZeroSet``: its span
rank, and the rank of their conjugates on B (the zeros of the partial
transpose), decide the spanning and nd-spanning verdicts, which are
deliberately one-sided: "confirmed" proves the rank, "not-found-at-budget"
proves nothing.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .operators import (
    Array,
    HermitianOperator,
    LayoutError,
    NumericalError,
    PSD_TOL,
    _as_matrix,
    _frobenius,
    _integer,
    _realign,
    _refill,
    _tolerance,
    eigh,
    is_psd,
    partial_transpose,
)
from .sampling import DEFAULT_RESTARTS, rng_from

__all__ = [*_EXPORTS["witness"], "VERDICT_CONFIRMED", "VERDICT_NOT_FOUND"]

VERDICT_CONFIRMED = "confirmed"
VERDICT_NOT_FOUND = "not-found-at-budget"


def _verdict(holds: bool) -> str:
    """The one-sided verdict of a rank check that ``holds`` or not."""
    return VERDICT_CONFIRMED if holds else VERDICT_NOT_FOUND


DEFAULT_MAX_ITERS = 500
CONVERGENCE_TOL = 1e-12  # on vector entries; times ||W||_F on values
DEGENERATE_TOL = 1e-14  # tie window, relative to the Frobenius norm of W
MONOTONE_SLACK = 1e-10  # relative to the Frobenius norm of W
ZERO_TOL = 1e-13  # relative to the Frobenius norm of W
ABANDON_AFTER = 20  # iterations before a descent may be abandoned
ABANDON_FLOOR = 3 * ZERO_TOL  # relative to the Frobenius norm of W
SPAN_SV_THRESHOLD = 1e-8
DEDUP_OVERLAP = 1 - 1e-6
IMAG_TOL = 1e-10  # imaginary part tolerated on a real-valued trace of unit scale


class SeeSawReport(NamedTuple):
    """Per-restart results in restart order, for the see-saw seeded by ``seed``.

    ``stops`` names the rule that ended each restart: ``"settled"``,
    ``"abandoned"`` or ``"budget"``, the first it met in the order of
    ``_lockstep_descents``.  ``iterations`` counts the full iterations each
    used.
    """

    best_value: float
    restarts: int
    restart_values: tuple[float, ...]
    restart_vectors: tuple[Array, Array]  # read-only (phis, psis), a row per restart
    stops: tuple[str, ...]
    iterations: tuple[int, ...]
    value_traces: tuple[tuple[float, ...], ...]
    seed: int

    def __reduce__(self):  # copies and pickles come back with frozen arrays
        return _refill, (type(self), tuple(self))

    @property
    def converged(self) -> tuple[bool, ...]:
        """Restarts that settled."""
        return tuple(s == "settled" for s in self.stops)


class ZeroSet(NamedTuple):
    """Product zeros, the rows of a read-only (k, d_A d_B) stack, and their span
    rank; ``conjugated_rank`` spans the zeros phi (x) conj(psi) of the partial
    transpose on B that the harvest saw (``collect_zero_set``).

    The verdicts are read from the ranks and the width alone, so a lifted set
    (``extended_zero_set``) carries them too.  nd-spanning asks that the zeros
    of W and of its partial transpose both span (Lewenstein, Kraus, Cirac and
    Horodecki, PRA 62, 052310 (2000)).
    """

    vectors: Array
    span_rank: int
    conjugated_rank: int

    def __reduce__(self):  # copies and pickles come back with frozen arrays
        return _refill, (type(self), tuple(self))

    @property
    def dim(self) -> int:
        """The width of the vectors, d_A d_B."""
        return self.vectors.shape[1]

    @property
    def spanning(self) -> bool:
        return self.span_rank == self.dim

    @property
    def nd_spanning(self) -> bool:
        return self.spanning and self.conjugated_rank == self.dim


class WitnessCertificate(NamedTuple):
    is_witness_numeric: bool
    min_eigenvalue: float
    min_product: SeeSawReport
    detection_state: HermitianOperator | None
    detection_value: float | None


def expectation(W: HermitianOperator, rho: HermitianOperator | Array) -> float:
    """Re Tr(W rho); raises if the trace has a stray imaginary part.

    The imaginary part is measured against ||W||_F ||rho||_F (``rho.norm``
    for an operator), the Cauchy-Schwarz bound on |Tr(W rho)|, so the check
    holds at any scale.
    """
    wmat = W.mat
    rmat = _as_matrix(rho)
    if wmat.shape != rmat.shape:
        raise LayoutError(f"dimension mismatch: {wmat.shape} vs {rmat.shape}")
    val = np.sum(wmat * rmat.T)
    rnorm = rho.norm if isinstance(rho, HermitianOperator) else _frobenius(rmat)
    if not abs(val.imag) <= IMAG_TOL * W.norm * rnorm:
        raise NumericalError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def _min_eigvecs(mats: Array, refs: Array, window: float) -> tuple[Array, Array]:
    """Minimal eigenpair of each matrix in a stack.

    Where several eigenvalues lie within ``window`` of the least, the vector
    is the normalized projection of that row of ``refs`` onto their
    eigenspace, which does not depend on the basis the eigensolver picks in
    it.  Otherwise it is the eigenvector, rotated so that its largest-modulus
    entry (the first, on ties) is real and positive.
    """
    vals, vecs = eigh(mats)
    low, v = vals[:, -1], vecs[:, :, -1]
    pivot = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
    v = v * (pivot.conj() / np.abs(pivot))[:, None]
    near = vals - low[:, None] <= window
    tied = near.sum(axis=1) > 1
    if tied.any():
        basis = vecs[tied] * near[tied][:, None, :]  # the least eigenspace's columns
        proj = (basis @ (basis.conj().transpose(0, 2, 1) @ refs[tied][:, :, None]))[:, :, 0]
        v[tied] = proj / np.linalg.norm(proj, axis=1, keepdims=True)
    return low, v


def _pairs(v: Array) -> Array:
    """Rows conj(v[n, a]) * v[n, b], flattened over (a, b), as a stack of
    one-row matrices."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), 1, -1)


def _lockstep_descents(op: HermitianOperator, seed: int, descents: range) -> tuple[Array, ...]:
    """See-saw descents of ``op`` with the given indices, in lock step.

    Descent ``t`` reads ``rng_from(seed, t)`` as one block of normals, in
    this order: Re psi and Im psi, its start on the right party (normalized);
    then Re and Im of its left reference and of its right reference, the
    vectors ``_min_eigvecs`` projects onto a tied eigenspace.  Each half-step
    is one stacked contraction and one stacked ``eigh`` over the descents
    still active.  The effective left operators,
    ``einsum("irjs,nr,ns->nij", w4, psi.conj(), psi)``, are one stacked
    matrix product of the outer products of the right vectors, one row per
    descent, with W regrouped by party; the right ones,
    ``einsum("irjs,ni,nj->nrs", ...)``, likewise.  Each row is its own
    product, so a descent's arithmetic does not depend on which descents
    share the stack (one (n, K) product would not do: BLAS rounds a one-row
    product differently).  Eigenvalues within DEGENERATE_TOL * ||W||_F of
    the least tie (``_min_eigvecs``), so a reduced operator whose whole
    spectrum is rounding noise steps to the descent's reference.  A descent
    leaves the active set on the first rule it meets, in this order, which
    names its stop: ``"settled"`` once one step moves its vectors by less
    than CONVERGENCE_TOL and its value by at most CONVERGENCE_TOL * ||W||_F;
    ``"abandoned"`` after ABANDON_AFTER or more iterations when it creeps
    along a power law that cannot bring it into the zero band (ZERO_TOL *
    ||W||_F) within the budget (``_abandoned``); and ``"budget"`` after
    DEFAULT_MAX_ITERS iterations.
    A step raising an objective by over 1e-10 * ||W||_F raises NumericalError.
    Returns the final values, left and right vectors, the value traces (two
    entries per iteration, from column 0), the iteration counts and the
    stop names.
    """
    d_left, d_right = op.layout.parties
    norm = op.norm
    slack, settle_tol = MONOTONE_SLACK * norm, CONVERGENCE_TOL * norm
    floor, window = ABANDON_FLOOR * norm, DEGENERATE_TOL * norm
    w_pairs = _realign(op.mat, d_left, d_right)
    n = len(descents)
    draws = np.empty((n, 2 * (2 * d_right + d_left)))
    for i, t in enumerate(descents):
        draws[i] = rng_from(seed, t).normal(size=draws.shape[1])
    re, im, re_left, im_left, re_right, im_right = np.split(
        draws, np.cumsum([d_right, d_right, d_left, d_left, d_right]), axis=1
    )
    psi, ref_left, ref_right = re + 1j * im, re_left + 1j * im_left, re_right + 1j * im_right
    for row in psi:  # one row at a time: a vectorized norm rounds differently
        row /= np.linalg.norm(row)
    phi = np.zeros((n, d_left), dtype=complex)
    value, before = np.full(n, np.inf), np.full(n, np.inf)
    trace = np.empty((n, 2 * DEFAULT_MAX_ITERS))
    iters = np.full(n, DEFAULT_MAX_ITERS)
    stops = np.full(n, "budget", dtype=object)
    active = np.arange(n)
    for it in range(DEFAULT_MAX_ITERS):
        if not active.size:
            break
        p, prev, prev2 = psi[active], value[active], before[active]
        val_left, phi_new = _min_eigvecs(
            (_pairs(p) @ w_pairs.T).reshape(-1, d_left, d_left), ref_left[active], window
        )
        val_right, psi_new = _min_eigvecs(
            (_pairs(phi_new) @ w_pairs).reshape(-1, d_right, d_right), ref_right[active], window
        )
        # exact eigenvector steps can only lower the objective (fp slack only)
        if not ((val_right <= val_left + slack) & (val_left <= prev + slack)).all():
            raise NumericalError(
                f"see-saw step raised the objective beyond slack {slack:.3e}"
            )
        trace[active, 2 * it] = val_left
        trace[active, 2 * it + 1] = val_right
        change = np.abs(val_right - prev)
        move = np.maximum(
            np.abs(phi_new - phi[active]).max(axis=1), np.abs(psi_new - p).max(axis=1)
        )
        phi[active], psi[active], value[active] = phi_new, psi_new, val_right
        before[active] = prev
        still = (move < CONVERGENCE_TOL) & (change <= settle_tol)
        done = still | _abandoned(it + 1, val_right, prev, prev2, floor)
        if done.any():
            leaving = active[done]
            stops[leaving] = np.where(still[done], "settled", "abandoned")
            iters[leaving] = it + 1
            active = active[~done]
    return value, phi, psi, trace, iters, stops


def _abandoned(k: int, v: Array, v1: Array, v2: Array, floor: float) -> Array:
    """Descents to abandon at iteration ``k``, from the values v_k, v_{k-1}
    and v_{k-2} of their last three iterations.

    A descent creeping toward a degenerate minimum follows a power law
    C / k^p with a steady exponent (p near 2 on the Choi map).  It is
    abandoned from iteration ABANDON_AFTER on when v_k lies above ``floor``,
    the exponent p_k fitted through v_{k-1} and v_k differs from the
    exponent q through v_{k-2} and v_{k-1} by at most q / k, and the power
    law run on to the budget still ends above the floor:
    v_k (k / DEFAULT_MAX_ITERS)^p_k > floor.  On a power law the fitted
    exponent changes by O(q / k^2) per iteration.  On a geometric descent
    C r^k, however slow, it grows like k ln(1/r), by about q / (k - 1.5)
    per iteration, so a descent contracting onto a minimum keeps running.
    """
    out = (k >= ABANDON_AFTER) & (v > floor)
    if out.any():
        v, v1, v2 = v[out], v1[out], v2[out]
        p = np.log(v1 / v) / np.log(k / (k - 1))
        q = np.log(v2 / v1) / np.log((k - 1) / (k - 2))
        steady = (q > 0) & (np.abs(p - q) <= q / k)
        out[out] = steady & (v * (k / DEFAULT_MAX_ITERS) ** p > floor)
    return out


def min_product_expectation(
    W: HermitianOperator,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> SeeSawReport:
    """Minimize <phi (x) psi| W |phi (x) psi> over the bipartition by see-saw.

    Each restart alternates exact minimal-eigenvector updates of the two
    party vectors, so the objective is non-increasing step by step.  All
    restarts run in lock step: every half-step is one stacked contraction and
    one stacked eigensolve.  A restart is masked out of later steps once it
    meets a stop rule of ``_lockstep_descents``.  Restart ``r`` is descent
    ``r`` at ``seed``, drawn from ``rng_from(seed, r)``.  The
    report keeps per-restart values, vectors, stops, iteration counts and
    traces; the overall best takes the lowest restart index on ties.
    """
    restarts = _integer(restarts, "restarts", 1)
    values, phis, psis, trace, iters, stops = _lockstep_descents(W, seed, range(restarts))
    phis.setflags(write=False)
    psis.setflags(write=False)
    return SeeSawReport(
        best_value=float(values.min()),
        restarts=restarts,
        restart_values=tuple(values.tolist()),
        restart_vectors=(phis, psis),
        stops=tuple(stops.tolist()),
        iterations=tuple(iters.tolist()),
        value_traces=tuple(tuple(row[: 2 * k].tolist()) for row, k in zip(trace, iters)),
        seed=seed,
    )


def certify_witness(
    W: HermitianOperator,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = PSD_TOL,
) -> WitnessCertificate:
    """Check witness-hood numerically and extract a detected state.

    Accepts W when the see-saw product minimum is >= -tol ||W||_F (no
    separable negativity found) while the minimum eigenvalue is < -tol ||W||_F
    (so W detects its own negative eigenspace), whatever the scale of W.
    """
    _tolerance(tol)
    report = min_product_expectation(W, restarts=restarts, seed=seed)
    vals, vecs = eigh(W)
    min_eig = float(vals[-1])
    cutoff = tol * W.norm
    ok = report.best_value >= -cutoff and min_eig < -cutoff

    detection_state = detection_value = None
    neg = vals < -cutoff
    if neg.any():
        cols = vecs[:, neg]
        proj = (cols @ cols.conj().T) / cols.shape[1]
        detection_state = HermitianOperator(proj, W.layout)
        detection_value = expectation(W, detection_state)
    return WitnessCertificate(
        is_witness_numeric=bool(ok),
        min_eigenvalue=min_eig,
        min_product=report,
        detection_state=detection_state,
        detection_value=detection_value,
    )


def span_rank(vectors: Array) -> int:
    """Singular-value rank of the rows of ``vectors`` at the relative
    threshold SPAN_SV_THRESHOLD."""
    if not len(vectors):
        return 0
    sv = np.linalg.svd(vectors, compute_uv=False)
    return int((sv > SPAN_SV_THRESHOLD * sv[0]).sum())


def collect_zero_set(
    W: HermitianOperator,
    target_count: int | None = None,
    seed: int | None = None,
    max_descents: int | None = None,
    seesaw: SeeSawReport | None = None,
) -> ZeroSet:
    """Harvest product vectors on which W vanishes, from see-saw descents.

    Runs descents until ``target_count`` distinct zeros are held or
    ``max_descents`` have run; an empty set is a legitimate outcome.
    Descent ``t`` starts from ``rng_from(seed, t)`` as restart ``t`` of a
    see-saw at the same seed does, so a ``seesaw`` report of W supplies
    descents 0 to ``seesaw.restarts - 1`` as they ended, with no descent run
    again; the seed is the report's (0 without one), and another one
    raises.  Then lock-step chunks run, each as large as the number of zeros
    still missing (capped by the budget).  One loop reads both: a chunk's
    candidates phi (x) psi are one stacked outer product.  A candidate is a
    zero when W itself vanishes on it, |<phi psi|W|phi psi>| <= ZERO_TOL *
    ||W||_F (1e-13 ||W||_F), a value taken row by row so that it does not
    depend on the chunk; of the report only the vectors are read, so a
    report of another operator supplies candidates, never zeros; one whose
    party widths are not W's raises LayoutError.  Zeros are accepted in
    descent order (the set a one-at-a-time harvest keeps, from no extra
    descent) into one preallocated stack of their bras unless one
    matrix-vector product with it finds an overlap modulus above 1 - 1e-6.
    ``vectors`` holds the first ``target_count`` zeros at most, read-only; the
    span rank is their singular-value rank at a 1e-8 relative threshold.

    Each zero phi (x) psi of W gives the zero phi (x) conj(psi) of its partial
    transpose on B, since <x y|Gamma(W)|x y> = <x conj(y)|W|x conj(y)>;
    ``conjugated_rank`` is the rank of those rows.  It can fill later than
    the span rank, so when the kept zeros span the space and their
    conjugates do not, the harvest goes on along the same descents, within
    ``max_descents``, until the conjugates span or it holds 2 * target_count
    zeros; the extra zeros count only toward ``conjugated_rank``.
    """
    widths = W.layout.parties
    if target_count is None:
        target_count = 4 * W.layout.total_dim
    target_count = _integer(target_count, "target_count", 0)
    if max_descents is None:
        max_descents = 5 * target_count
    max_descents = _integer(max_descents, "max_descents", 0)
    if seed is None:
        seed = 0 if seesaw is None else seesaw.seed
    if seesaw is not None and seesaw.seed != seed:
        raise ValueError(f"report seed {seesaw.seed!r} differs from harvest seed {seed!r}")
    zero_tol = ZERO_TOL * W.norm
    dim = W.layout.total_dim
    bras = np.empty((2 * target_count, dim), dtype=complex)  # conj(phi (x) psi) rows
    conjugates = np.empty_like(bras)  # phi (x) conj(psi) rows
    count, next_descent, ended, rank, conjugated_rank = 0, 0, None, None, None
    if seesaw is not None:
        parties = tuple(a.shape[1] for a in seesaw.restart_vectors)
        if parties != widths:
            raise LayoutError(f"see-saw report parties {parties} do not match W's {widths}")
        n = min(seesaw.restarts, max_descents)
        ended = tuple(a[:n] for a in seesaw.restart_vectors)
        next_descent = seesaw.restarts
    for limit in (target_count, 2 * target_count):
        while count < limit and (ended is not None or next_descent < max_descents):
            if ended is None:
                chunk = range(next_descent, min(max_descents, next_descent + limit - count))
                next_descent = chunk.stop
                ended = _lockstep_descents(W, seed, chunk)[1:3]
            phis, psis = ended
            ended = None
            candidates = (phis[:, :, None] * psis[:, None, :]).reshape(len(phis), dim)
            values = np.einsum("ni,ij,nj->n", candidates.conj(), W.mat, candidates).real
            for n in np.flatnonzero(np.abs(values) <= zero_tol):
                if count and np.abs(bras[:count] @ candidates[n]).max() > DEDUP_OVERLAP:
                    continue
                bras[count] = candidates[n].conj()
                conjugates[count] = np.outer(phis[n], psis[n].conj()).ravel()
                count += 1
                if count == limit:
                    ended = phis[n + 1 :], psis[n + 1 :]  # where a continuation resumes
                    break
            if rank is not None:
                conjugated_rank = span_rank(conjugates[:count])
                if conjugated_rank == dim:
                    break
        if rank is None:
            vectors = bras[:count].conj()
            rank, conjugated_rank = span_rank(vectors), span_rank(conjugates[:count])
            if rank < dim or conjugated_rank == dim:
                break
    vectors.setflags(write=False)
    return ZeroSet(vectors, rank, conjugated_rank)


def has_spanning_property(W: HermitianOperator, certificate: WitnessCertificate) -> ZeroSet:
    """The product zeros of a certified witness, whose spanning is sufficient
    for optimality only.

    The harvest takes the certificate's restarts as its first candidates, at
    their seed.  A set that does not span proves nothing (not-found-at-budget),
    never non-optimality: zero discovery is heuristic.
    """
    if not certificate.is_witness_numeric:
        raise ValueError(
            "spanning check requires a certified witness; "
            f"min product {certificate.min_product.best_value:.3e}, "
            f"min eigenvalue {certificate.min_eigenvalue:.3e}"
        )
    return collect_zero_set(W, seesaw=certificate.min_product)


def certify_indecomposable(
    W: HermitianOperator,
    rho_candidate: HermitianOperator,
    tol: float = PSD_TOL,
) -> bool:
    """One-sided certificate: W detects the PPT state rho_candidate.

    PPT is taken across W's own cut, so rho_candidate must have W's parties
    (d_A, d_B), whatever its subsystems; other parties raise LayoutError.
    Detection means Tr(W rho) < -tol ||W||_F Tr(rho), and both PSD checks are
    relative to the largest eigenvalue modulus, whatever the scales of W and
    rho.  False means "not certified by this state", never "decomposable".
    """
    if rho_candidate.layout.parties != W.layout.parties:
        raise LayoutError(
            f"state parties {rho_candidate.layout.parties} do not match W's {W.layout.parties}"
        )
    if not is_psd(rho_candidate, tol):
        return False
    if not is_psd(partial_transpose(rho_candidate), tol):
        return False
    cutoff = tol * W.norm * rho_candidate.trace
    return expectation(W, rho_candidate) < -cutoff
