"""Measurement-device-independent evaluation of witness expectations.

A verifier feeds tomographically complete input states to the two parties,
who each jointly measure their share of rho with their input.  Weighting the
(0,0)-outcome probabilities by the coefficients beta that expand the witness
over the input-state products reproduces Tr(W rho) / (d_A d_B) when the
measurements are the ideal maximally entangled projectors -- and can never go
negative on separable rho, whatever the measurements actually are.

Click table: with E_l on (input A', party A) and E_r on (party B, input B'),
P(0,0 | s, t) = Tr[rho (F_l[s] (x) F_r[t])], where F_l[s] = Tr_A'[(sigma_s^T
(x) I) E_l] and F_r[t] = Tr_B'[(I (x) sigma_t^T) E_r]; three einsums give all
(s, t) at once.  Embedded elements E = v^H E_big v are never compressed on
this route: the inputs are pushed through the isometry v instead.

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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    Array,
    HermitianOperator,
    LayoutError,
    NumericalError,
    SeparableEnsemble,
    SystemLayout,
    _as_matrix,
    maximally_entangled_vector,
    projector,
)
from .sampling import (
    random_povm_first_element,
    random_separable,
    random_unitary,
    rng_from,
)

__all__ = [
    "DECOMPOSITION_RESIDUAL_TOL",
    "BETA_IMAG_TOL",
    "PROBABILITY_RANGE_TOL",
    "POVM_BOUND_TOL",
    "ROUTE_AGREEMENT_TOL",
    "AUDIT_VALUE_TOL",
    "AUDIT_MAX_MEMBERS",
    "POVM_MODES",
    "StateBasis",
    "tomographic_basis",
    "decompose_witness",
    "reconstruction_residual",
    "ideal_projector",
    "MdiewScenario",
    "joint_probability",
    "mdiew_value",
    "AuditFailure",
    "AuditReport",
    "separable_nonnegativity_audit",
]

DECOMPOSITION_RESIDUAL_TOL = 1e-9  # relative to the Frobenius norm of W
BETA_IMAG_TOL = 1e-10  # relative to the Frobenius norm of W
PROBABILITY_RANGE_TOL = 1e-10
POVM_BOUND_TOL = 1e-10
ROUTE_AGREEMENT_TOL = 1e-9  # relative to the Frobenius norm of W
AUDIT_VALUE_TOL = 1e-9  # relative to the Frobenius norm of W
AUDIT_MAX_MEMBERS = 4  # members per separable ensemble drawn by the audit

POVM_MODES = ("ideal", "arbitrary", "misaligned")


@dataclass(frozen=True)
class StateBasis:
    """Tomographically complete set of d^2 unit-trace PSD states on C^d."""

    states: tuple[Array, ...]

    def __post_init__(self):
        states = tuple(np.array(s, dtype=complex) for s in self.states)
        if not states:
            raise ValueError("state basis is empty")
        d = states[0].shape[0]
        for k, s in enumerate(states):
            if s.shape != (d, d):
                raise ValueError(f"member {k} has shape {s.shape}, expected {(d, d)}")
            if np.abs(s - s.conj().T).max() > HERMITICITY_TOL:
                raise ValueError(f"member {k} is not Hermitian")
            if abs(np.trace(s).real - 1.0) > 1e-12:
                raise ValueError(f"member {k} has trace {np.trace(s).real!r}, expected 1")
            if np.linalg.eigvalsh(s).min() < -1e-9:
                raise ValueError(f"member {k} is not positive semidefinite")
        if len(states) != d * d:
            raise ValueError(
                f"need exactly {d * d} states for dimension {d}, got {len(states)}"
            )
        vecs = np.array([s.ravel() for s in states])
        ranks = [
            np.linalg.matrix_rank(vecs[: k + 1], tol=1e-8) for k in range(len(states))
        ]
        dependent = [k for k in range(1, len(states)) if ranks[k] == ranks[k - 1]]
        if dependent:
            raise ValueError(
                "state basis is not tomographically complete; dependent members: "
                f"{dependent}"
            )
        for s in states:
            s.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k: int) -> Array:
        return self.states[k]


def tomographic_basis(d: int) -> StateBasis:
    """Projectors onto |m>, (|m>+|n>)/sqrt2, (|m>+i|n>)/sqrt2 for m < n."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    eye = np.eye(d, dtype=complex)
    states = [projector(eye[m]) for m in range(d)]
    for m in range(d):
        for n in range(m + 1, d):
            states.append(projector((eye[m] + eye[n]) / np.sqrt(2)))
            states.append(projector((eye[m] + 1j * eye[n]) / np.sqrt(2)))
    return StateBasis(tuple(states))


def _product_basis(basis_left: StateBasis, basis_right: StateBasis) -> Array:
    """Columns are the raveled sigma_s (x) sigma_t, in (s, t) order."""
    left, right = np.array(basis_left.states), np.array(basis_right.states)
    kron = np.einsum("sij,tkl->ikjlst", left, right)
    return kron.reshape(-1, len(left) * len(right))


def reconstruction_residual(
    W: HermitianOperator,
    basis_left: StateBasis,
    basis_right: StateBasis,
    beta: Array,
) -> float:
    """Frobenius norm of (sum beta[s, t] sigma_s (x) sigma_t) - W."""
    recon = _product_basis(basis_left, basis_right) @ np.ravel(beta)
    return float(np.linalg.norm(recon - W.mat.ravel()))


def decompose_witness(
    W: HermitianOperator,
    basis_left: StateBasis,
    basis_right: StateBasis,
) -> Array:
    """Least-squares coefficients beta with sum beta[s,t] s (x) t = W.

    Solved over complex coefficients; Hermiticity of W and of the basis
    members forces the true solution real, which is checked at
    1e-10 ||W||_F rather than assumed.  A reconstruction residual above
    1e-9 ||W||_F raises.
    """
    W.layout.require_bipartite()
    d_a, d_b = W.layout.left_dim, W.layout.right_dim
    if basis_left.dim != d_a or basis_right.dim != d_b:
        raise LayoutError(
            f"basis dims ({basis_left.dim}, {basis_right.dim}) do not match "
            f"witness parties ({d_a}, {d_b})"
        )
    products, target = _product_basis(basis_left, basis_right), W.mat.ravel()
    coeffs, *_ = np.linalg.lstsq(products, target, rcond=None)
    norm = float(np.linalg.norm(W.mat))
    imag = float(np.abs(coeffs.imag).max())
    if imag > BETA_IMAG_TOL * norm:
        raise NumericalError(
            f"decomposition coefficients have imaginary part {imag:.3e}"
        )
    residual = float(np.linalg.norm(products @ coeffs.real - target))
    beta = coeffs.real.reshape(len(basis_left), len(basis_right))
    if residual > DECOMPOSITION_RESIDUAL_TOL * norm:
        raise NumericalError(
            f"witness decomposition residual {residual:.3e} exceeds "
            f"{DECOMPOSITION_RESIDUAL_TOL:.0e} ||W||_F"
        )
    beta.setflags(write=False)
    return beta


def ideal_projector(d: int) -> Array:
    """Rank-one projector onto the d-dimensional maximally entangled vector."""
    return projector(maximally_entangled_vector(d))


def _povm_matrix(E: HermitianOperator | Array, dim: int, name: str) -> Array:
    mat = _as_matrix(E)
    if mat.shape != (dim, dim):
        raise LayoutError(f"{name} must be {dim}x{dim}, got {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
        raise NumericalError(f"{name} is not Hermitian")
    vals = np.linalg.eigvalsh(mat)
    if vals.min() < -POVM_BOUND_TOL or vals.max() > 1.0 + POVM_BOUND_TOL:
        raise NumericalError(
            f"{name} is not a POVM element: eigenvalues in "
            f"[{vals.min():.3e}, {vals.max():.3e}]"
        )
    return mat


@dataclass(frozen=True)
class MdiewScenario:
    """What the verifier owns: the witness, the input bases and coefficients
    beta with sum beta[s, t] sigma_s (x) sigma_t = W.

    The reconstruction residual is computed once, on construction, and a
    residual above 1e-9 ||W||_F raises.  The measurements belong to the
    untrusted devices; they are arguments of ``mdiew_value``.
    """

    witness: HermitianOperator
    basis_left: StateBasis
    basis_right: StateBasis
    beta: Array
    residual: float = field(init=False)

    def __post_init__(self):
        self.witness.layout.require_bipartite()
        d_a, d_b = self.party_dims
        if self.basis_left.dim != d_a or self.basis_right.dim != d_b:
            raise LayoutError(
                f"basis dims ({self.basis_left.dim}, {self.basis_right.dim}) "
                f"do not match witness parties ({d_a}, {d_b})"
            )
        beta = np.array(self.beta, dtype=float)
        if beta.shape != (len(self.basis_left), len(self.basis_right)):
            raise LayoutError(
                f"beta shape {beta.shape} does not match basis sizes "
                f"({len(self.basis_left)}, {len(self.basis_right)})"
            )
        residual = reconstruction_residual(
            self.witness, self.basis_left, self.basis_right, beta
        )
        norm = float(np.linalg.norm(self.witness.mat))
        if residual > DECOMPOSITION_RESIDUAL_TOL * norm:
            raise NumericalError(
                f"beta does not reconstruct the witness: residual {residual:.3e}"
            )
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "residual", residual)

    @classmethod
    def ideal(cls, W: HermitianOperator) -> "MdiewScenario":
        """Tomographic bases and the beta solved over them."""
        W.layout.require_bipartite()
        basis_left = tomographic_basis(W.layout.left_dim)
        basis_right = tomographic_basis(W.layout.right_dim)
        return cls(
            witness=W,
            basis_left=basis_left,
            basis_right=basis_right,
            beta=decompose_witness(W, basis_left, basis_right),
        )

    @property
    def party_dims(self) -> tuple[int, int]:
        return self.witness.layout.left_dim, self.witness.layout.right_dim


def _input_factors(sigmas: Array, element: Array, iso: Array) -> Array:
    """F[s] = Tr_in[(sigma_s^T (x) I) iso^H E iso]; iso's columns are (in, party).

    Each input is pushed through iso first, then traced against E itself.
    """
    d = sigmas.shape[1]
    v3, ev3 = iso.reshape(-1, d, d), (element @ iso).reshape(-1, d, d)
    path = ["einsum_path", (0, 1), (0, 1)]
    return np.einsum("xra,srp,xpc->sac", v3.conj(), sigmas, ev3, optimize=path)


def _click_table(
    rho_mat: Array, sig_l: Array, sig_r: Array, e_l: Array, e_r: Array,
    iso_l: Array | None = None, iso_r: Array | None = None,
) -> Array:
    """P(0,0 | s, t) = Tr[rho (F_l[s] (x) F_r[t])] for every input pair (s, t).

    The isometries map the measurement spaces into the elements' spaces; the
    identity when none are given.  Every entry must be real and in [0, 1].
    """
    d_a, d_b = sig_l.shape[1], sig_r.shape[1]
    if iso_l is None:
        iso_l, iso_r = np.eye(d_a * d_a), np.eye(d_b * d_b)
    # the right element measures (party, input): swap each column's index pair
    iso_r = iso_r.reshape(-1, d_b, d_b).transpose(0, 2, 1).reshape(-1, d_b * d_b)
    f_l = _input_factors(sig_l, e_l, iso_l)
    f_r = _input_factors(sig_r, e_r, iso_r)
    rho4 = rho_mat.reshape(d_a, d_b, d_a, d_b)
    table = np.einsum("abce,sca,teb->st", rho4, f_l, f_r)
    imag = float(np.abs(table.imag).max())
    if imag > PROBABILITY_RANGE_TOL:
        raise NumericalError(f"probability has imaginary part {imag:.3e}")
    lo, hi = float(table.real.min()), float(table.real.max())
    if lo < -PROBABILITY_RANGE_TOL or hi > 1.0 + PROBABILITY_RANGE_TOL:
        bad = lo if lo < -PROBABILITY_RANGE_TOL else hi
        raise NumericalError(f"probability {bad!r} outside [0, 1]")
    return table.real


def joint_probability(
    rho: HermitianOperator,
    sigma_s: Array,
    sigma_t: Array,
    povm_left: HermitianOperator | Array,
    povm_right: HermitianOperator | Array,
) -> float:
    """P(0,0 | s, t) for one pair of verifier inputs.

    The left element acts on input (x) left party, the right element on
    right party (x) input, both in canonical system order.
    """
    rho.layout.require_bipartite()
    d_a, d_b = rho.layout.left_dim, rho.layout.right_dim
    sig_s = np.asarray(sigma_s, dtype=complex)
    sig_t = np.asarray(sigma_t, dtype=complex)
    if sig_s.shape != (d_a, d_a) or sig_t.shape != (d_b, d_b):
        raise LayoutError(
            f"input shapes {sig_s.shape}, {sig_t.shape} do not match parties "
            f"({d_a}, {d_b})"
        )
    e_l = _povm_matrix(povm_left, d_a * d_a, "left POVM element")
    e_r = _povm_matrix(povm_right, d_b * d_b, "right POVM element")
    return float(_click_table(rho.mat, sig_s[None], sig_t[None], e_l, e_r)[0, 0])


def mdiew_value(
    scenario: MdiewScenario,
    rho: HermitianOperator,
    povm_left: HermitianOperator | Array | None = None,
    povm_right: HermitianOperator | Array | None = None,
) -> float:
    """sum beta[s, t] P(0,0 | s, t); the ideal projectors by default."""
    d_a, d_b = scenario.party_dims
    if rho.layout.left_dim != d_a or rho.layout.right_dim != d_b:
        raise LayoutError(
            f"state parties ({rho.layout.left_dim}, {rho.layout.right_dim}) "
            f"do not match scenario ({d_a}, {d_b})"
        )
    if povm_left is None:
        povm_left = ideal_projector(d_a)
    if povm_right is None:
        povm_right = ideal_projector(d_b)
    e_l = _povm_matrix(povm_left, d_a * d_a, "left POVM element")
    e_r = _povm_matrix(povm_right, d_b * d_b, "right POVM element")
    sig_l = np.array(scenario.basis_left.states)
    sig_r = np.array(scenario.basis_right.states)
    return float(np.sum(scenario.beta * _click_table(rho.mat, sig_l, sig_r, e_l, e_r)))


def _mixture_route_value(
    w_t4: Array, ensemble: SeparableEnsemble, e_left: Array, e_right: Array
) -> float:
    """Route (ii): W^T on the input systems, capped by member k's projectors
    |a_k><a_k| and |b_k><b_k| on the party systems, traced against the
    measurement pair and mixed by weight.  Every term is nonnegative whenever
    W^T is block-positive, i.e. whenever W is.  w_t4 is W^T indexed
    [in_A, in_B, in_A', in_B'].
    """
    d_a, d_b = w_t4.shape[:2]
    a = np.array([m.factors[0] for m in ensemble.members])
    b = np.array([m.factors[1] for m in ensemble.members])
    # each measurement element traced against member k's cap on its party
    g_left = np.einsum("kj,pjri,ki->kpr", a.conj(), e_left.reshape((d_a,) * 4), a)
    g_right = np.einsum("km,mqlu,kl->kqu", b.conj(), e_right.reshape((d_b,) * 4), b)
    terms = np.einsum("rupq,kpr,kqu->k", w_t4, g_left, g_right)
    return float(np.dot(ensemble.weights, terms.real))


@dataclass(frozen=True)
class AuditFailure:
    trial: int
    route_direct: float
    route_mixture: float
    reason: str


@dataclass(frozen=True)
class AuditReport:
    trials: int
    povm_mode: str
    embed_dims: tuple[int, int] | None
    min_value: float
    max_route_gap: float
    failures: tuple[AuditFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _draw_small_povms(
    mode: str, d_a: int, d_b: int, rng: np.random.Generator
) -> tuple[Array, Array]:
    if mode == "ideal":
        return ideal_projector(d_a), ideal_projector(d_b)
    if mode == "arbitrary":
        return (
            random_povm_first_element(d_a * d_a, rng).mat,
            random_povm_first_element(d_b * d_b, rng).mat,
        )
    # misaligned: ideal projectors knocked around by local unitaries
    u_l = np.kron(random_unitary(d_a, rng), random_unitary(d_a, rng))
    u_r = np.kron(random_unitary(d_b, rng), random_unitary(d_b, rng))
    return (
        u_l @ ideal_projector(d_a) @ u_l.conj().T,
        u_r @ ideal_projector(d_b) @ u_r.conj().T,
    )


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
    along both routes.  With embed_dims the measurement elements live in
    enlarged spaces reached through random isometries; the direct route runs
    up there while the mixture route sees only the isometry-compressed
    elements, so agreement also exercises the embedding.  A value below
    -1e-9 ||W||_F or a route gap above 1e-9 ||W||_F is a failure; failures
    are recorded, never raised.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if povm_mode not in POVM_MODES:
        raise ValueError(f"povm_mode must be one of {POVM_MODES}, got {povm_mode!r}")
    d_a, d_b = scenario.party_dims
    if embed_dims is not None:
        big_l, big_r = int(embed_dims[0]), int(embed_dims[1])
        if big_l < d_a * d_a or big_r < d_b * d_b:
            raise ValueError(
                f"embed dims {embed_dims} smaller than measurement spaces "
                f"({d_a * d_a}, {d_b * d_b})"
            )
    layout = SystemLayout((d_a, d_b), 1)
    sig_l = np.array(scenario.basis_left.states)
    sig_r = np.array(scenario.basis_right.states)
    w_t4 = scenario.witness.mat.T.reshape(d_a, d_b, d_a, d_b)
    norm = float(np.linalg.norm(scenario.witness.mat))
    value_tol, gap_tol = AUDIT_VALUE_TOL * norm, ROUTE_AGREEMENT_TOL * norm

    failures: list[AuditFailure] = []
    min_value = np.inf
    max_gap = 0.0
    for t in range(trials):
        rng = rng_from(seed, t)
        k = int(rng.integers(1, AUDIT_MAX_MEMBERS + 1))
        ensemble = random_separable(layout, k, rng)
        rho_mat = ensemble.density(cut=1).mat

        if embed_dims is None:
            e_l, e_r = _draw_small_povms(povm_mode, d_a, d_b, rng)
            table = _click_table(rho_mat, sig_l, sig_r, e_l, e_r)
        else:
            e_l_big = random_povm_first_element(big_l, rng).mat
            e_r_big = random_povm_first_element(big_r, rng).mat
            v_l = random_unitary(big_l, rng)[:, : d_a * d_a]
            v_r = random_unitary(big_r, rng)[:, : d_b * d_b]
            table = _click_table(rho_mat, sig_l, sig_r, e_l_big, e_r_big, v_l, v_r)
            e_l = v_l.conj().T @ e_l_big @ v_l
            e_r = v_r.conj().T @ e_r_big @ v_r
        direct = float(np.sum(scenario.beta * table))
        mixture = _mixture_route_value(w_t4, ensemble, e_l, e_r)

        gap = abs(direct - mixture)
        min_value = min(min_value, direct, mixture)
        max_gap = max(max_gap, gap)
        reasons = []
        if direct < -value_tol:
            reasons.append(f"direct route negative: {direct:.3e}")
        if mixture < -value_tol:
            reasons.append(f"mixture route negative: {mixture:.3e}")
        if gap > gap_tol:
            reasons.append(f"route gap {gap:.3e}")
        if reasons:
            failures.append(
                AuditFailure(t, float(direct), float(mixture), "; ".join(reasons))
            )
    return AuditReport(
        trials=trials,
        povm_mode=povm_mode,
        embed_dims=None if embed_dims is None else (big_l, big_r),
        min_value=float(min_value),
        max_route_gap=float(max_gap),
        failures=tuple(failures),
    )
