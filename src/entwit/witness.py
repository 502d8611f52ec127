"""Numerical witness certification, see-saw product minimization, zero sets.

A Hermitian W on a bipartite layout is accepted as a witness numerically when
its minimum over product states (found by seeded see-saw restarts) is >= -tol
||W||_F while its minimum eigenvalue is < -tol ||W||_F.  Product zeros are
collected from the same descents; their span rank drives the spanning-property
verdicts, which are deliberately one-sided: "confirmed" proves the rank,
"not-found-at-budget" proves nothing.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import (
    Array,
    HermitianOperator,
    LayoutError,
    NumericalError,
    ProductVector,
    PSD_TOL,
    _as_matrix,
    _frobenius,
    _integer,
    _realign,
    _tolerance,
    eigh,
    is_psd,
    partial_transpose,
)
from .sampling import DEFAULT_RESTARTS, _complex_gaussian, rng_from

__all__ = [
    "SeeSawReport",
    "ZeroSet",
    "WitnessCertificate",
    "SpanningReport",
    "expectation",
    "min_product_expectation",
    "certify_witness",
    "collect_zero_set",
    "span_rank",
    "has_spanning_property",
    "nd_spanning",
    "certify_indecomposable",
    "VERDICT_CONFIRMED",
    "VERDICT_NOT_FOUND",
]

VERDICT_CONFIRMED = "confirmed"
VERDICT_NOT_FOUND = "not-found-at-budget"

DEFAULT_MAX_ITERS = 500
CONVERGENCE_TOL = 1e-12  # on vector entries; times ||W||_F on values
MONOTONE_SLACK = 1e-10  # relative to the Frobenius norm of W
ZERO_TOL = 1e-13  # relative to the Frobenius norm of W
STALL_TOL = 1e-13  # relative to the Frobenius norm of W
ABANDON_AFTER = 20  # iterations in all before a descent may be abandoned
ABANDON_FLOOR = 3 * ZERO_TOL  # relative to the Frobenius norm of W
SPAN_SV_THRESHOLD = 1e-8
DEDUP_OVERLAP = 1 - 1e-6
IMAG_TOL = 1e-10  # imaginary part tolerated on a real-valued trace of unit scale


class SeeSawReport(NamedTuple):
    """Per-restart results in restart order, for the see-saw seeded by ``seed``.

    ``stops`` names the rule that ended each restart: ``"settled"``,
    ``"abandoned"``, ``"stalled"`` or ``"budget"``, the first it met in the
    order of ``_lockstep_descents``.  ``iterations`` counts the full
    iterations each used.
    """

    best_value: float
    restarts: int
    restart_values: tuple[float, ...]
    restart_vectors: tuple[ProductVector, ...]
    stops: tuple[str, ...]
    iterations: tuple[int, ...]
    value_traces: tuple[tuple[float, ...], ...]
    seed: int

    @property
    def best_vector(self) -> ProductVector:
        """The lowest-index restart reaching the best value."""
        return self.restart_vectors[int(np.argmin(self.restart_values))]

    @property
    def converged(self) -> tuple[bool, ...]:
        """Restarts that stopped on a still value, settled or stalled."""
        return tuple(s in ("settled", "stalled") for s in self.stops)


class ZeroSet(NamedTuple):
    """Product zeros of a witness and the rank of their span."""

    vectors: tuple[ProductVector, ...]
    span_rank: int


class WitnessCertificate(NamedTuple):
    is_witness_numeric: bool
    min_eigenvalue: float
    min_product: SeeSawReport
    detection_state: HermitianOperator | None
    detection_value: float | None


class SpanningReport(NamedTuple):
    spanning: bool
    rank: int
    dim: int
    verdict: str
    note: str = ""


def expectation(W: HermitianOperator, rho: HermitianOperator | Array) -> float:
    """Re Tr(W rho); raises if the trace has a stray imaginary part.

    The imaginary part is measured against ||W||_F ||rho||_F, the
    Cauchy-Schwarz bound on |Tr(W rho)|, so the check holds at any scale.
    """
    wmat = W.mat
    rmat = _as_matrix(rho)
    if wmat.shape != rmat.shape:
        raise LayoutError(f"dimension mismatch: {wmat.shape} vs {rmat.shape}")
    val = np.sum(wmat * rmat.T)
    if not abs(val.imag) <= IMAG_TOL * _frobenius(wmat) * _frobenius(rmat):
        raise NumericalError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def _min_eigvecs(mats: Array) -> tuple[Array, Array]:
    """Minimal eigenpair of each matrix in a stack, phase-fixed.

    On a degenerate minimum the lowest-index column of the descending order
    is taken; each vector is rotated so that its largest-modulus entry (the
    first, on ties) is real and positive.
    """
    vals, vecs = eigh(mats)
    rows = np.arange(len(vals))
    idx = np.argmin(vals, axis=1)
    v = vecs[rows, :, idx]
    pivot = v[rows, np.argmax(np.abs(v), axis=1)]
    return vals[rows, idx], v * (pivot.conj() / np.abs(pivot))[:, None]


def _start_vectors(seed: int, indices: range, d_right: int) -> Array:
    """One normalized complex Gaussian right-party start per descent index;
    descent ``t`` draws from ``rng_from(seed, t)``."""
    starts = np.empty((len(indices), d_right), dtype=complex)
    for n, t in enumerate(indices):
        psi = _complex_gaussian(rng_from(seed, t), d_right)
        starts[n] = psi / np.linalg.norm(psi)
    return starts


def _pairs(v: Array) -> Array:
    """Rows conj(v[n, a]) * v[n, b], flattened over (a, b), as a stack of
    one-row matrices."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), 1, -1)


def _lockstep_descents(
    op: HermitianOperator,
    psi: Array,
    stall: bool = False,
    resume: tuple[Array, Array, Array] | None = None,
) -> tuple[Array, ...]:
    """See-saw descents of ``op`` from every start in ``psi``, in lock step.

    Each half-step is one stacked contraction and one stacked ``eigh`` over
    the descents still active.  The effective left operators,
    ``einsum("irjs,nr,ns->nij", w4, psi.conj(), psi)``, are one stacked
    matrix product of the outer products of the right vectors, one row per
    descent, with W regrouped by party; the right ones,
    ``einsum("irjs,ni,nj->nrs", ...)``, likewise.  Each row is its own
    product, so a descent's arithmetic does not depend on which descents
    share the stack, and one stopped and resumed ends bit for bit where an
    uninterrupted one ends (one (n, K) product would not do: BLAS rounds a
    one-row product differently).  A descent leaves the active set on the
    first rule it meets, in this order, which names its stop: ``"settled"``
    once one step moves its vectors by less than CONVERGENCE_TOL and its
    value by at most CONVERGENCE_TOL * ||W||_F; ``"abandoned"`` after
    ABANDON_AFTER or more iterations in all when it creeps along a power law
    that cannot bring it into the zero band (ZERO_TOL * ||W||_F) within the
    budget (``_abandoned``); with ``stall``, ``"stalled"`` once one
    iteration moves its value by at most STALL_TOL * ||W||_F; and
    ``"budget"`` after DEFAULT_MAX_ITERS iterations in all.  So a descent
    stopped on a stalled value did not meet the abandonment rule at that
    step.
    ``resume = (value, before, phi, iterations)`` continues descents
    stopped earlier from their last state (``psi`` then holds their last
    right vectors; ``before`` is the value of the iteration before the last,
    which the abandonment rule reads).
    A step raising an objective by over 1e-10 * ||W||_F raises NumericalError.
    Returns the final values, left and right vectors, the value traces (two
    entries per iteration of this call, from column 0), the iteration counts
    (in all, resumed ones included), and the stop names (``"budget"`` for
    descents resumed with no budget left).
    """
    d_left, d_right = op.layout.left_dim, op.layout.right_dim
    norm = _frobenius(op.mat)
    slack, settle_tol = MONOTONE_SLACK * norm, CONVERGENCE_TOL * norm
    floor = ABANDON_FLOOR * norm
    stall_tol = STALL_TOL * norm if stall else -np.inf
    w_pairs = _realign(op.mat, d_left, d_right)
    n = len(psi)
    psi = psi.copy()
    if resume is None:
        phi = np.zeros((n, d_left), dtype=complex)
        value, before = np.full(n, np.inf), np.full(n, np.inf)
        iters = np.zeros(n, dtype=int)
    else:
        value, before, phi, iters = (np.array(a) for a in resume)
    trace = np.empty((n, 2 * DEFAULT_MAX_ITERS))
    stops = np.full(n, "budget", dtype=object)
    left = DEFAULT_MAX_ITERS - iters  # iterations left in each descent's budget
    expiries = set(left.tolist())
    active = np.flatnonzero(left > 0)
    for it in range(max(expiries, default=0)):
        if not active.size:
            break
        p, prev, prev2 = psi[active], value[active], before[active]
        val_left, phi_new = _min_eigvecs((_pairs(p) @ w_pairs.T).reshape(-1, d_left, d_left))
        val_right, psi_new = _min_eigvecs(
            (_pairs(phi_new) @ w_pairs).reshape(-1, d_right, d_right)
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
        k = iters[active] + it + 1  # iterations in all, this one included
        hopeless = _abandoned(k, val_right, prev, prev2, floor)
        still = (move < CONVERGENCE_TOL) & (change <= settle_tol)
        stalled = change <= stall_tol
        done = still | hopeless | stalled
        if it + 1 in expiries:
            done |= left[active] == it + 1
        if done.any():
            leaving = active[done]
            stops[leaving] = np.where(still, "settled", np.where(
                hopeless, "abandoned", np.where(stalled, "stalled", "budget")))[done]
            iters[leaving] += it + 1
            active = active[~done]
    return value, phi, psi, trace, iters, stops


def _abandoned(k: Array, v: Array, v1: Array, v2: Array, floor: float) -> Array:
    """Descents to abandon at iteration ``k`` (in all), from the values v_k,
    v_{k-1} and v_{k-2} of their last three iterations.

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
        k, v, v1, v2 = k[out], v[out], v1[out], v2[out]
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
    meets a stop rule of ``_lockstep_descents``, here with the stall rule:
    on a continuum of minima the value is reached long before the vectors
    stop drifting.  Restart ``r`` starts from ``rng_from(seed, r)``.  The
    report keeps per-restart values, vectors, stops, iteration counts and
    traces; the overall best takes the lowest restart index on ties.
    """
    restarts = _integer(restarts, "restarts", 1)
    W.layout.require_bipartite()
    starts = _start_vectors(seed, range(restarts), W.layout.right_dim)
    values, phis, psis, trace, iters, stops = _lockstep_descents(W, starts, stall=True)
    return SeeSawReport(
        best_value=float(values.min()),
        restarts=restarts,
        restart_values=tuple(values.tolist()),
        restart_vectors=tuple(ProductVector(pair) for pair in zip(phis, psis)),
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
    cutoff = tol * _frobenius(W.mat)
    ok = report.best_value >= -cutoff and min_eig < -cutoff

    detection_state = None
    detection_value = None
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


def span_rank(vectors: list[Array]) -> int:
    """Singular-value rank of stacked vectors at the relative threshold
    SPAN_SV_THRESHOLD."""
    if not vectors:
        return 0
    sv = np.linalg.svd(np.array(vectors), compute_uv=False)
    return int((sv > SPAN_SV_THRESHOLD * sv[0]).sum())


def collect_zero_set(
    W: HermitianOperator,
    target_count: int | None = None,
    seed: int | None = None,
    max_descents: int | None = None,
    seesaw: SeeSawReport | None = None,
) -> ZeroSet:
    """Harvest product vectors on which W vanishes, from see-saw descents.

    Runs descents until ``target_count`` distinct zeros (descents ending at
    |value| <= ZERO_TOL * ||W||_F, 1e-13 ||W||_F) are held or the
    ``max_descents`` budget runs out; an empty set is a legitimate outcome.
    Descent ``t`` starts from ``rng_from(seed, t)``, exactly as restart ``t``
    of a see-saw at the same seed, so a ``seesaw`` report of W supplies
    descents 0 to ``seesaw.restarts - 1`` without running them again; the
    seed is the report's (0 without one), and another one raises.  The
    harvest's descents stop by the rules of ``_lockstep_descents`` without
    the stall rule.  So the report's ``"stalled"`` restarts are first run on
    together from their stored states, for the rest of their budget; each
    ends where an uninterrupted descent ends.
    The remaining descents run in lock-step chunks, each as large as the
    number of zeros still missing (capped by the budget).  Results are
    accepted in descent order, so the kept set is the one a one-at-a-time
    harvest keeps and no descent past what that harvest would run is
    started.  Distinct means Gram overlap below 1 - 1e-6; the span rank is
    the singular-value rank of the stacked full vectors at a 1e-8 relative
    threshold.
    """
    W.layout.require_bipartite()
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
    zero_tol = ZERO_TOL * _frobenius(W.mat)
    kept: list[ProductVector] = []
    fulls: list[Array] = []
    pending, next_descent = [], 0  # (value, phi, psi) not yet read; next to start
    if seesaw is not None:
        n = min(seesaw.restarts, max_descents)
        vectors = seesaw.restart_vectors[:n]
        lefts, rights = (np.array([v.factors[i] for v in vectors]) for i in (0, 1))
        # stalled restarts run on without the stall rule; the others have
        # nothing left to run
        stalled = np.array(seesaw.stops[:n]) == "stalled"
        k = np.where(stalled, seesaw.iterations[:n], DEFAULT_MAX_ITERS)
        before = [  # the value of the iteration before the last
            t[2 * j - 3] if s else np.inf for t, j, s in zip(seesaw.value_traces, k, stalled)
        ]
        resume = (seesaw.restart_values[:n], before, lefts, k)
        values, phis, psis, *_ = _lockstep_descents(W, rights, resume=resume)
        pending = list(zip(values, phis, psis))
        next_descent = seesaw.restarts
    while len(kept) < target_count and (pending or next_descent < max_descents):
        if not pending:
            missing = target_count - len(kept)
            chunk = range(next_descent, min(max_descents, next_descent + missing))
            next_descent = chunk.stop
            starts = _start_vectors(seed, chunk, W.layout.right_dim)
            values, phis, psis, *_ = _lockstep_descents(W, starts)
            pending = list(zip(values, phis, psis))
        value, phi, psi = pending.pop(0)
        if abs(value) > zero_tol:
            continue
        candidate = np.kron(phi, psi)
        if any(abs(np.vdot(f, candidate)) > DEDUP_OVERLAP for f in fulls):
            continue
        kept.append(ProductVector((phi, psi)))
        fulls.append(candidate)
    return ZeroSet(tuple(kept), span_rank(fulls))


def has_spanning_property(
    W: HermitianOperator, certificate: WitnessCertificate
) -> SpanningReport:
    """Rank check on the product-zero set; sufficient for optimality only.

    The harvest reuses the certificate's restarts, at their seed.  A failed
    check is reported as not-found-at-budget, never as a claim of
    non-optimality: zero discovery is heuristic.
    """
    if not certificate.is_witness_numeric:
        raise ValueError(
            "spanning check requires a certified witness; "
            f"min product {certificate.min_product.best_value:.3e}, "
            f"min eigenvalue {certificate.min_eigenvalue:.3e}"
        )
    seesaw = certificate.min_product
    zeros = collect_zero_set(W, seesaw=seesaw)
    dim = W.layout.total_dim
    spanning = zeros.span_rank == dim
    return SpanningReport(
        spanning=spanning,
        rank=zeros.span_rank,
        dim=dim,
        verdict=VERDICT_CONFIRMED if spanning else VERDICT_NOT_FOUND,
        note="" if spanning else "optimality not decided",
    )


def nd_spanning(W: HermitianOperator, primal: SpanningReport, seed: int = 0) -> bool:
    """True iff zero sets of both W and its partial transpose span fully.

    ``primal`` is W's own spanning report.  The partial transpose need not
    itself be a witness (it may even be PSD), so only its zero set is
    collected, with no certification demanded.
    """
    if not primal.spanning:
        return False
    gamma = partial_transpose(W)
    zeros = collect_zero_set(gamma, seed=seed)
    return zeros.span_rank == gamma.layout.total_dim


def certify_indecomposable(
    W: HermitianOperator,
    rho_candidate: HermitianOperator,
    tol: float = PSD_TOL,
) -> bool:
    """One-sided certificate: W detects the PPT state rho_candidate.

    Detection means Tr(W rho) < -tol ||W||_F Tr(rho), and both PSD checks are
    relative to the largest eigenvalue modulus, whatever the scales of W and
    rho.  False means "not certified by this state", never "decomposable".
    """
    if W.dim != rho_candidate.dim:
        raise LayoutError(
            f"dimension mismatch: witness {W.dim} vs state {rho_candidate.dim}"
        )
    if not is_psd(rho_candidate, tol):
        return False
    if not is_psd(partial_transpose(rho_candidate), tol):
        return False
    cutoff = tol * _frobenius(W.mat) * rho_candidate.trace
    return expectation(W, rho_candidate) < -cutoff
