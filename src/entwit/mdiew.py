"""Measurement-device-independent evaluation of witness expectations.

A verifier feeds tomographically complete input states to the two parties,
who each jointly measure their share of rho with their input.  Weighting the
(0,0)-outcome probabilities by the coefficients beta that expand the witness
over the input-state products reproduces Tr(W rho) / (d_A d_B) when the
measurements are the ideal maximally entangled projectors -- and can never go
negative on separable rho, whatever the measurements actually are.

Click table: with E_l on (input A', party A) and E_r on (party B, input B'),
P(0,0 | s, t) = Tr[rho (F_l[s] (x) F_r[t])], where F_l[s] = Tr_A'[(sigma_s^T
(x) I) E_l] and F_r[t] = Tr_B'[(I (x) sigma_t^T) E_r].  Three realignments
give all (s, t) at once, for a whole stack of states and elements: with the
raveled inputs as the rows of S, F_l = S_l realign(E_l), F_r = S_r
realign(E_r)^T and the table is F_l realign(rho^T) F_r^T.  Embedded elements
E = v^H E_big v are never compressed on this route: the inputs are pushed
through the isometry v instead.

Transpose bookkeeping: beta is solved against the un-transposed products
sum beta[s, t] sigma_s (x) sigma_t = W, and the probability rule transposes
the prepared inputs instead.  Under ideal projectors the identity
<Psi+| M (x) N |Psi+> = Tr(M^T N) / d cancels those transposes per side,
which is what makes the ideal value come out as Tr(W rho) / (d_A d_B).

The audit makes the robustness claim checkable two ways per trial: route (i)
sums beta against the click table; route (ii) rewrites the same number as a
mixture over ensemble members of W^T, capped by each member's projectors on
the party systems, traced against the measurement pair -- nonnegative term by
term because each term is an extension evaluated on a product-positive
operator.  The middle factor is the transposed witness precisely because the
inputs enter transposed.

The audit first draws each trial from its own stream, ``rng_from(seed, t)``,
then evaluates a chunk of trials at a time with stacked kernels: one eigh
or QR per kind of draw, one click table and one mixture per chunk.  A chunk
holds AUDIT_CHUNK trials, fewer where its two element stacks would pass
AUDIT_CHUNK_BYTES.  Every product is taken trial by trial, so a trial's
values do not depend on its chunk.  Embedded measurements are drawn in
``arbitrary`` mode only.
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
    _frobenius,
    _Frozen,
    _hermitian_matrix,
    _integer,
    _psd_matrix,
    _realign,
    _refill,
    maximally_entangled_vector,
    projector,
)
from .sampling import POVM_MODES, rng_from

__all__ = [
    *_EXPORTS["mdiew"], "DECOMPOSITION_RESIDUAL_TOL", "BETA_IMAG_TOL", "PROBABILITY_RANGE_TOL",
    "POVM_BOUND_TOL", "ROUTE_AGREEMENT_TOL", "AUDIT_VALUE_TOL", "AUDIT_MAX_MEMBERS",
    "AUDIT_CHUNK", "AUDIT_CHUNK_BYTES", "POVM_MODES",
]

DECOMPOSITION_RESIDUAL_TOL = 1e-9  # relative to the Frobenius norm of W
BETA_IMAG_TOL = 1e-10  # relative to the Frobenius norm of W
PROBABILITY_RANGE_TOL = 1e-10
POVM_BOUND_TOL = 1e-10
ROUTE_AGREEMENT_TOL = 1e-9  # relative to the Frobenius norm of W
AUDIT_VALUE_TOL = 1e-9  # relative to the Frobenius norm of W
AUDIT_MAX_MEMBERS = 4  # members per separable ensemble drawn by the audit
AUDIT_CHUNK = 256  # most audit trials evaluated together
AUDIT_CHUNK_BYTES = 2**23  # most bytes of a chunk's two complex element stacks


class StateBasis(_Frozen):
    """Tomographically complete set of d^2 unit-trace PSD states on C^d, held
    as one read-only complex (d^2, d, d) stack."""

    __slots__ = ("states",)

    def __init__(self, states: tuple[Array, ...] | Array) -> None:
        checked, d = [], None  # member 0 sets the side of every later member
        for k, s in enumerate(states):
            s = _psd_matrix(s, d, f"member {k}", PSD_TOL)
            if not abs(np.trace(s).real - 1.0) <= 1e-12:
                raise ValueError(f"member {k} has trace {float(np.trace(s).real)!r}, expected 1")
            checked.append(s)
            d = len(s)
        if not checked:
            raise ValueError("state basis is empty")
        if len(checked) != d * d:
            raise ValueError(f"need exactly {d * d} states for dimension {d}, got {len(checked)}")
        states = np.array(checked)
        vecs = states.reshape(len(states), -1)
        if np.linalg.matrix_rank(vecs, tol=1e-8) < len(states):
            # a prefix of a full-rank stack keeps full rank, so only a
            # deficient one needs the incremental pass that names its members
            ranks = [np.linalg.matrix_rank(vecs[: k + 1], tol=1e-8) for k in range(len(states))]
            dependent = [k for k in range(1, len(states)) if ranks[k] == ranks[k - 1]]
            raise ValueError(
                f"state basis is not tomographically complete; dependent members: {dependent}"
            )
        states.setflags(write=False)
        self._set(states=states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return len(self.states)


def tomographic_basis(d: int) -> StateBasis:
    """Projectors onto |m>, then (|m>+|n>)/sqrt2 and (|m>+i|n>)/sqrt2 for each
    m < n.  Exact by construction, so the stack skips StateBasis's checks."""
    d = _integer(d, "dimension", 2)
    eye = np.eye(d, dtype=complex)
    m, n = np.triu_indices(d, 1)
    pairs = np.stack((eye[m] + eye[n], eye[m] + 1j * eye[n]), axis=1) / np.sqrt(2)
    vecs = np.concatenate((eye, pairs.reshape(-1, d)))
    return _refill(StateBasis, (vecs[:, :, None] * vecs[:, None, :].conj(),))


def ideal_projector(d: int) -> Array:
    """Rank-one projector onto the d-dimensional maximally entangled vector."""
    return projector(maximally_entangled_vector(d))


def _povm_matrix(E: HermitianOperator | Array, dim: int, name: str) -> Array:
    mat = _hermitian_matrix(E, dim, name)
    vals = np.linalg.eigvalsh(mat)
    if not (vals[0] >= -POVM_BOUND_TOL and vals[-1] <= 1.0 + POVM_BOUND_TOL):
        raise NumericalError(
            f"{name} is not a POVM element: eigenvalues in "
            f"[{vals.min():.3e}, {vals.max():.3e}]"
        )
    return mat


class MdiewScenario(_Frozen):
    """What the verifier owns: the witness, the input bases and the
    coefficients beta with sum beta[s, t] sigma_s (x) sigma_t = W.

    beta is solved once, on construction.  With the raveled members as the
    columns of L and R, the expansion reads L beta R^T = realign(W), and two
    solves give the unique beta, as each basis has d^2 independent members.
    Hermiticity of W and of the members forces it real: an imaginary part
    above 1e-10 ||W||_F raises.  The residual is read off the same equation,
    since realignment only permutes entries, and one above 1e-9 ||W||_F
    raises.  The measurements belong to the untrusted devices; they are
    arguments of ``mdiew_value``.
    """

    __slots__ = ("witness", "basis_left", "basis_right", "beta", "residual")

    def __init__(
        self, witness: HermitianOperator, basis_left: StateBasis, basis_right: StateBasis
    ) -> None:
        d_a, d_b = parties = witness.layout.parties
        if (basis_left.dim, basis_right.dim) != parties:
            raise LayoutError(
                f"basis dims ({basis_left.dim}, {basis_right.dim}) do not match "
                f"witness parties {parties}"
            )
        left, right = (b.states.reshape(len(b), -1).T for b in (basis_left, basis_right))
        target = _realign(witness.mat, d_a, d_b)
        coeffs = np.linalg.solve(right, np.linalg.solve(left, target).T).T
        imag = float(np.abs(coeffs.imag).max())
        if not imag <= BETA_IMAG_TOL * witness.norm:
            raise NumericalError(
                f"decomposition coefficients have imaginary part {imag:.3e}"
            )
        beta = np.array(coeffs.real, dtype=float)
        residual = _frobenius(left @ beta @ right.T - target)
        if not residual <= DECOMPOSITION_RESIDUAL_TOL * witness.norm:
            raise NumericalError(
                f"beta does not reconstruct the witness: residual {residual:.3e}"
            )
        beta.setflags(write=False)
        self._set(
            witness=witness,
            basis_left=basis_left,
            basis_right=basis_right,
            beta=beta,
            residual=residual,
        )

    @classmethod
    def ideal(cls, W: HermitianOperator) -> "MdiewScenario":
        """Tomographic bases and the beta solved over them."""
        return cls(W, *map(tomographic_basis, W.layout.parties))


def _input_factors(sigmas: Array, elements: Array, iso: Array) -> Array:
    """F[n, s] = Tr_in[(sigma_s^T (x) I) iso_n^H E_n iso_n], raveled; each
    isometry's columns are (in, party).

    Each input is pushed through iso_n first, then traced against E_n itself.
    """
    count, d = sigmas.shape[:2]
    n, big = iso.shape[:2]
    v = iso.conj().reshape(n, big, d, d).swapaxes(-1, -2).reshape(n, -1, d)
    vs = v @ sigmas.transpose(1, 0, 2).reshape(d, -1)  # [(x, a), (s, p)]
    vs = vs.reshape(n, big, d, count, d).swapaxes(-4, -2)  # [s, a, x, p]
    ev = (elements @ iso).reshape(n, -1, d)  # [(x, p), c]
    return (vs.reshape(n, count * d, -1) @ ev).reshape(n, count, -1)


def _click_table(
    rho: Array, sig_l: Array, sig_r: Array, e_l: Array, e_r: Array,
    iso_l: Array | None = None, iso_r: Array | None = None,
) -> Array:
    """P(0,0 | s, t) = Tr[rho_n (F_l[s] (x) F_r[t])] for every input pair (s, t)
    and every member n of the stacks of states and elements.

    Three realignments give the table: with the raveled inputs as the rows
    of S_l and S_r, F_l = S_l realign(E_l), F_r = S_r realign(E_r)^T, and the
    table is F_l realign(rho^T) F_r^T.  Elements embedded by stacks of
    isometries are never compressed: the inputs are pushed through them.
    Products are taken member by member, so no entry depends on the stack.
    Every entry must be real and in [0, 1].
    """
    d_a, d_b = sig_l.shape[1], sig_r.shape[1]
    if iso_l is None:
        f_l = sig_l.reshape(len(sig_l), -1) @ _realign(e_l, d_a, d_a)
        f_r = sig_r.reshape(len(sig_r), -1) @ _realign(e_r, d_b, d_b).swapaxes(-1, -2)
    else:  # the right element measures (party, input): swap each column's index pair
        iso_r = iso_r.reshape(*iso_r.shape[:-1], d_b, d_b).swapaxes(-1, -2).reshape(iso_r.shape)
        f_l, f_r = _input_factors(sig_l, e_l, iso_l), _input_factors(sig_r, e_r, iso_r)
    # Tr[rho (F (x) G)] = sum rho[(a, b), (c, e)] F[c, a] G[e, b]
    table = f_l @ _realign(rho.swapaxes(-1, -2), d_a, d_b) @ f_r.swapaxes(-1, -2)
    imag = float(np.abs(table.imag).max())
    if not imag <= PROBABILITY_RANGE_TOL:
        raise NumericalError(f"probability has imaginary part {imag:.3e}")
    lo, hi = float(table.real.min()), float(table.real.max())
    if not (lo >= -PROBABILITY_RANGE_TOL and hi <= 1.0 + PROBABILITY_RANGE_TOL):
        bad = hi if lo >= -PROBABILITY_RANGE_TOL else lo
        raise NumericalError(f"probability {bad!r} outside [0, 1]")
    return table.real


def _direct_values(
    scenario: MdiewScenario, rho: Array, e_l: Array, e_r: Array, *isos: Array
) -> Array:
    """Route (i), sum beta[s, t] P(0,0 | s, t), per member of the stacks."""
    bases = scenario.basis_left.states, scenario.basis_right.states
    return np.sum(scenario.beta * _click_table(rho, *bases, e_l, e_r, *isos), axis=(1, 2))


def mdiew_value(
    scenario: MdiewScenario,
    rho: HermitianOperator,
    povm_left: HermitianOperator | Array | None = None,
    povm_right: HermitianOperator | Array | None = None,
) -> float:
    """sum beta[s, t] P(0,0 | s, t); the ideal projectors by default."""
    d_a, d_b = parties = scenario.witness.layout.parties
    if rho.layout.parties != parties:
        raise LayoutError(f"state parties {rho.layout.parties} do not match scenario {parties}")
    e_l, e_r = (
        _povm_matrix(ideal_projector(d) if e is None else e, d * d, f"{side} POVM element")
        for e, d, side in ((povm_left, d_a, "left"), (povm_right, d_b, "right"))
    )
    return float(_direct_values(scenario, rho.mat[None], e_l[None], e_r[None])[0])


def _mixture_route_values(
    w: Array, a: Array, b: Array, weights: Array, e_left: Array, e_right: Array
) -> Array:
    """Route (ii) per trial: W^T on the input systems, capped by member k's
    projectors |a_k><a_k| and |b_k><b_k| on the party systems, traced against
    the measurement pair and mixed by weight.  Every term is nonnegative
    whenever W^T is block-positive, i.e. whenever W is.  Indexed [trial, member].
    """
    n, d_a, d_b = len(weights), a.shape[-1], b.shape[-1]
    # each element compressed on member k's party vector:
    # G_l = (I (x) a_k)^H E_l (I (x) a_k), G_r = (b_k (x) I)^H E_r (b_k (x) I)
    cap_l = (np.eye(d_a)[:, None, :] * a[..., None, :, None]).reshape(n, -1, d_a**2, d_a)
    cap_r = (b[..., :, None, None] * np.eye(d_b)).reshape(n, -1, d_b**2, d_b)
    g_l = cap_l.conj().swapaxes(-1, -2) @ e_left[:, None] @ cap_l
    g_r = cap_r.conj().swapaxes(-1, -2) @ e_right[:, None] @ cap_r
    # Tr[W^T (G_l (x) G_r)] sums W[p, q, r, u] G_l[p, r] G_r[q, u], which is
    # vec(G_l)^T realign(W) vec(G_r): one row product per member
    rows = g_l.reshape(n, -1, 1, d_a * d_a) @ _realign(w, d_a, d_b)
    terms = (rows @ g_r.reshape(n, -1, d_b * d_b, 1))[..., 0, 0]
    return np.sum(weights * terms.real, axis=-1)


class AuditFailure(NamedTuple):
    trial: int
    route_direct: float
    route_mixture: float
    reason: str


class AuditReport(NamedTuple):
    """``worst_trial`` has the least value over both routes, ``min_value``."""

    trials: int
    povm_mode: str
    embed_dims: tuple[int, int] | None
    min_value: float
    max_route_gap: float
    median_route_gap: float
    worst_trial: int
    failures: tuple[AuditFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _effects(raw: Array) -> Array:
    """Stacked effects (S+T)^(-1/2) S (S+T)^(-1/2), Hermitized, with S = G_0 G_0^H,
    T = G_1 G_1^H and G_i = raw[..., i, 0] + 1j raw[..., i, 1] for real draws
    of shape (..., 2, 2, d, d); S+T is positive definite almost surely."""
    g = raw[..., 0, :, :] + 1j * raw[..., 1, :, :]
    s, t = (g[..., i, :, :] @ g[..., i, :, :].conj().swapaxes(-1, -2) for i in (0, 1))
    vals, vecs = np.linalg.eigh(s + t)
    inv_sqrt = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    e = inv_sqrt @ s @ inv_sqrt
    return (e + e.conj().swapaxes(-1, -2)) / 2


def _unitaries(raw: Array) -> Array:
    """Stacked Haar unitaries from real draws ``raw`` of shape (..., 2, d, d):
    the phase-fixed QR of raw[..., 0] + 1j raw[..., 1]."""
    q, r = np.linalg.qr(raw[..., 0, :, :] + 1j * raw[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _audit_chunk(
    scenario: MdiewScenario, seed: int, chunk: range, povm_mode: str,
    embed: tuple[int, int] | None,
) -> tuple[Array, Array]:
    """Direct and mixture values of the audit trials in ``chunk``.

    Trial ``t`` reads ``rng_from(seed, t)`` in this order: its member count k,
    k Dirichlet weights, Re a, Im a, Re b, Im b for each member's factors a
    and b, then per side, left first, two complex Gaussian matrices, each as
    Re G then Im G: d x d (U and V) if misaligned, on the element's space
    (G_0 and G_1) if arbitrary; then, with the checked embed dims ``embed``,
    one per side for the isometry.  Members past the count get weight 0.
    The stacks are valid by construction; only the results are checked.
    """
    (d_a, d_b) = dims = scenario.witness.layout.parties
    spaces = embed or (d_a * d_a, d_b * d_b)
    blocks = [(2, d) for d in {"misaligned": dims, "arbitrary": spaces}.get(povm_mode, ())]
    blocks += [(1, big) for big in embed or ()]
    n = len(chunk)
    width, sizes = 2 * (d_a + d_b), [2 * count * d * d for count, d in blocks]
    weights = np.zeros((n, AUDIT_MAX_MEMBERS))
    members = np.zeros((n, AUDIT_MAX_MEMBERS, width))  # Re a, Im a, Re b, Im b
    members[..., [0, 2 * d_a]] = 1.0  # unit factors for the padding
    rest = np.empty((n, sum(sizes)))
    for i, t in enumerate(chunk):
        rng = rng_from(seed, t)
        k = int(rng.integers(1, AUDIT_MAX_MEMBERS + 1))
        weights[i, :k] = rng.dirichlet(np.ones(k))
        raw = rng.normal(size=k * width + rest.shape[1])
        members[i, :k], rest[i] = raw[: k * width].reshape(k, width), raw[k * width :]
    splits = np.split(rest, np.cumsum(sizes)[:-1], axis=1)
    draws = [g.reshape(n, count, 2, d, d) for g, (count, d) in zip(splits, blocks)]
    a = members[..., :d_a] + 1j * members[..., d_a : 2 * d_a]
    b = members[..., 2 * d_a : 2 * d_a + d_b] + 1j * members[..., 2 * d_a + d_b :]
    a, b = (f / np.linalg.norm(f, axis=-1, keepdims=True) for f in (a, b))
    v = (a[..., :, None] * b[..., None, :]).reshape(n, AUDIT_MAX_MEMBERS, -1)
    rho = (weights[..., None] * v).swapaxes(-1, -2) @ v.conj()
    if povm_mode == "arbitrary":
        e_l, e_r = _effects(draws[0]), _effects(draws[1])
    else:
        # projectors onto |Phi+> or, misaligned, onto (U (x) V)|Phi+>, the
        # raveled U V^T / sqrt(d), for local unitaries U and V
        psi = [np.broadcast_to(maximally_entangled_vector(d), (n, d * d)) for d in dims]
        if povm_mode == "misaligned":
            psi = [
                (u[:, 0] @ u[:, 1].swapaxes(-1, -2)).reshape(n, -1) / np.sqrt(d)
                for u, d in zip(map(_unitaries, draws), dims)
            ]
        e_l, e_r = (p[:, :, None] * p[:, None, :].conj() for p in psi)
    isos = [_unitaries(g[:, 0])[..., : d * d] for g, d in zip(draws[2:], dims)]
    direct = _direct_values(scenario, rho, e_l, e_r, *isos)
    if isos:  # the mixture route sees only the compressed elements
        e_l, e_r = (v.conj().swapaxes(-1, -2) @ e @ v for e, v in zip((e_l, e_r), isos))
    return direct, _mixture_route_values(scenario.witness.mat, a, b, weights, e_l, e_r)


def separable_nonnegativity_audit(
    scenario: MdiewScenario,
    trials: int = 1000,
    seed: int = 0,
    povm_mode: str = "arbitrary",
    embed_dims: tuple[int, int] | None = None,
) -> AuditReport:
    """Randomized check that separable inputs never yield a negative value.

    Each trial draws a separable ensemble (1 to AUDIT_MAX_MEMBERS pure product
    members) and a measurement pair per povm_mode, then evaluates the value
    along both routes.  With embed_dims (``arbitrary`` mode only) the
    measurement elements live in enlarged spaces reached through random
    isometries; the direct route runs up there while the mixture route sees
    only the isometry-compressed elements, so agreement also exercises the
    embedding.  A value below -1e-9 ||W||_F or a route gap above
    1e-9 ||W||_F is a failure; failures are recorded, never raised.
    """
    trials = _integer(trials, "trials", 1)
    if povm_mode not in POVM_MODES:
        raise ValueError(f"povm_mode must be one of {POVM_MODES}, got {povm_mode!r}")
    d_a, d_b = scenario.witness.layout.parties
    embed = None
    if embed_dims is not None:
        if not (hasattr(embed_dims, "__len__") and len(embed_dims) == 2):
            raise LayoutError(f"embed dims must be a pair, got {embed_dims!r}")
        embed = big_l, big_r = tuple(_integer(d, "embed dim") for d in embed_dims)
        if povm_mode != "arbitrary":
            raise ValueError(f"embed dims need povm mode 'arbitrary', got {povm_mode!r}")
        if big_l < d_a * d_a or big_r < d_b * d_b:
            raise ValueError(
                f"embed dims {embed_dims} smaller than measurement spaces "
                f"({d_a * d_a}, {d_b * d_b})"
            )
    space_l, space_r = embed or (d_a * d_a, d_b * d_b)
    trial_bytes = 16 * (space_l * space_l + space_r * space_r)  # one complex element a side
    size = min(AUDIT_CHUNK, max(1, AUDIT_CHUNK_BYTES // trial_bytes))
    direct, mixture = np.empty(trials), np.empty(trials)
    for start in range(0, trials, size):
        chunk = range(start, min(trials, start + size))
        direct[start : chunk.stop], mixture[start : chunk.stop] = _audit_chunk(
            scenario, seed, chunk, povm_mode, embed
        )

    norm = scenario.witness.norm
    value_tol, gap_tol = AUDIT_VALUE_TOL * norm, ROUTE_AGREEMENT_TOL * norm
    gaps, lows = np.abs(direct - mixture), np.minimum(direct, mixture)
    ordered = np.sort(gaps)  # np.median would first import numpy.ma, 14-21 ms
    failures = []
    for t in np.flatnonzero(~((lows >= -value_tol) & (gaps <= gap_tol))):
        reasons = []
        if not direct[t] >= -value_tol:
            reasons.append(f"direct route negative: {direct[t]:.3e}")
        if not mixture[t] >= -value_tol:
            reasons.append(f"mixture route negative: {mixture[t]:.3e}")
        if not gaps[t] <= gap_tol:
            reasons.append(f"route gap {gaps[t]:.3e}")
        failures.append(
            AuditFailure(int(t), float(direct[t]), float(mixture[t]), "; ".join(reasons))
        )
    return AuditReport(
        trials=trials,
        povm_mode=povm_mode,
        embed_dims=embed,
        min_value=float(lows.min()),
        max_route_gap=float(gaps.max()),
        median_route_gap=float(ordered[(trials - 1) // 2] + ordered[trials // 2]) / 2,
        worst_trial=int(np.argmin(lows)),
        failures=tuple(failures),
    )
