"""Dense Hermitian operators with explicit multi-subsystem bookkeeping.

Conventions
-----------
* An operator lives on an ordered list of subsystems; the matrix is the
  Kronecker product in that order, row-major.
* A layout carries a bipartition cut: subsystems left of ``cut`` form the
  left party, the rest the right party.  The canonical four-system order
  used throughout the package is A', A, B, B' with the cut between A and B.
* Partial transposition defaults to transposing every subsystem right of
  the cut.
* All operations are pure; operators are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

Array = np.ndarray

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-9

__all__ = [
    "Array",
    "HERMITICITY_TOL",
    "PSD_TOL",
    "LayoutError",
    "NumericalError",
    "SystemLayout",
    "single_system",
    "HermitianOperator",
    "ProductVector",
    "SeparableEnsemble",
    "kron",
    "partial_transpose",
    "partial_trace",
    "eigh",
    "is_psd",
    "basis_vector",
    "projector",
    "maximally_entangled_vector",
]


class LayoutError(ValueError):
    """Subsystem bookkeeping violation (bad cut, index, or dimension)."""


class NumericalError(RuntimeError):
    """A numerical guarantee failed (solver breakdown, stray imaginary part)."""


@dataclass(frozen=True)
class SystemLayout:
    """Ordered subsystem dimensions plus the bipartition cut index."""

    dims: tuple[int, ...]
    cut: int

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise LayoutError(f"subsystem dimensions must be >= 1, got {dims}")
        if not 0 <= self.cut <= len(dims):
            raise LayoutError(f"cut {self.cut} out of range for {len(dims)} subsystems")

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def require_bipartite(self) -> None:
        # bipartite semantics need a nonempty party on each side
        if not 0 < self.cut < len(self.dims):
            raise LayoutError(
                f"operation needs a bipartition; cut {self.cut} of dims {self.dims} "
                "leaves one party empty"
            )

    @property
    def left_dims(self) -> tuple[int, ...]:
        return self.dims[: self.cut]

    @property
    def right_dims(self) -> tuple[int, ...]:
        return self.dims[self.cut :]

    @property
    def left_dim(self) -> int:
        self.require_bipartite()
        return int(np.prod(self.left_dims))

    @property
    def right_dim(self) -> int:
        self.require_bipartite()
        return int(np.prod(self.right_dims))


def single_system(d: int) -> SystemLayout:
    """Layout of one subsystem (no bipartite semantics available)."""
    return SystemLayout((int(d),), 1)


def _check_hermitian(mats: Array) -> None:
    """Raise unless each matrix of a stack is Hermitian relative to its largest
    entry, as rounding defects scale with it."""
    defect = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = defect > HERMITICITY_TOL * np.abs(mats).max(axis=(-2, -1))
    if np.any(bad):
        raise NumericalError(f"matrix is not Hermitian: defect {defect[bad].max():.3e}")


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix tied to a system layout."""

    mat: Array
    layout: SystemLayout

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise LayoutError(f"operator must be square, got shape {mat.shape}")
        if mat.shape[0] != self.layout.total_dim:
            raise LayoutError(
                f"matrix side {mat.shape[0]} != layout total dimension "
                f"{self.layout.total_dim}"
            )
        _check_hermitian(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True)
class ProductVector:
    """Pure product vector: one unit factor per subsystem."""

    factors: tuple[Array, ...]

    def __post_init__(self) -> None:
        factors = tuple(np.array(f, dtype=complex).ravel() for f in self.factors)
        if not factors:
            raise LayoutError("product vector needs at least one factor")
        for i, f in enumerate(factors):
            norm = np.linalg.norm(f)
            if abs(norm - 1.0) > HERMITICITY_TOL:
                raise NumericalError(f"factor {i} has norm {norm!r}, expected 1")
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def full(self) -> Array:
        """The assembled vector in the tensor-product space."""
        return reduce(np.kron, self.factors)


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture of pure product states with explicit weights."""

    weights: tuple[float, ...]
    members: tuple[ProductVector, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(self.members) or not self.members:
            raise LayoutError("need one weight per member and at least one member")
        if min(weights) < -HERMITICITY_TOL:
            raise NumericalError(f"negative weight {min(weights)!r}")
        if abs(sum(weights) - 1.0) > HERMITICITY_TOL:
            raise NumericalError(f"weights sum to {sum(weights)!r}, expected 1")
        dims = self.members[0].dims
        if any(m.dims != dims for m in self.members):
            raise LayoutError("ensemble members have differing factor dimensions")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.members[0].dims

    def density(self, cut: int | None = None) -> HermitianOperator:
        """Mix the member projectors into a density operator."""
        dims = self.dims
        d = int(np.prod(dims))
        rho = np.zeros((d, d), dtype=complex)
        for w, m in zip(self.weights, self.members):
            v = m.full()
            rho += w * np.outer(v, v.conj())
        layout = SystemLayout(dims, cut if cut is not None else 1)
        return HermitianOperator(rho, layout)


def _as_matrix(M: HermitianOperator | Array) -> Array:
    return M.mat if isinstance(M, HermitianOperator) else np.asarray(M, dtype=complex)


def _realign(mat: Array, d_left: int, d_right: int) -> Array:
    """``mat`` regrouped by party: the (d_left², d_right²) matrix whose entry
    ((i, j), (r, s)) is <i r|mat|j s>, so A (x) B maps to vec(A) vec(B)^T."""
    return (
        mat.reshape(d_left, d_right, d_left, d_right)
        .transpose(0, 2, 1, 3)
        .reshape(d_left * d_left, d_right * d_right)
    )


def kron(A: HermitianOperator, B: HermitianOperator) -> HermitianOperator:
    """Kronecker product; the cut lands between the two inputs' subsystems."""
    dims = A.layout.dims + B.layout.dims
    return HermitianOperator(
        np.kron(A.mat, B.mat), SystemLayout(dims, len(A.layout.dims))
    )


def _validated_subsystems(
    layout: SystemLayout, subsystems: Iterable[int] | None
) -> tuple[int, ...]:
    if subsystems is None:
        layout.require_bipartite()
        return tuple(range(layout.cut, layout.n_subsystems))
    subs = tuple(sorted(set(int(s) for s in subsystems)))
    for s in subs:
        if not 0 <= s < layout.n_subsystems:
            raise LayoutError(f"subsystem index {s} out of range for dims {layout.dims}")
    return subs


def partial_transpose(
    M: HermitianOperator, subsystems: Iterable[int] | None = None
) -> HermitianOperator:
    """Transpose the given subsystems (default: every subsystem right of the cut).

    Pure entry permutation, hence an exact involution.
    """
    layout = M.layout
    subs = _validated_subsystems(layout, subsystems)
    n = layout.n_subsystems
    t = M.mat.reshape(layout.dims + layout.dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[s + n] = axes[s + n], axes[s]
    out = np.ascontiguousarray(t.transpose(axes)).reshape(M.dim, M.dim)
    return HermitianOperator(out, layout)


def partial_trace(M: HermitianOperator, keep: Iterable[int]) -> HermitianOperator:
    """Trace out every subsystem not in ``keep``."""
    layout = M.layout
    keep_set = tuple(sorted(set(int(k) for k in keep)))
    if not keep_set:
        raise LayoutError("keep set must be nonempty")
    for k in keep_set:
        if not 0 <= k < layout.n_subsystems:
            raise LayoutError(f"subsystem index {k} out of range for dims {layout.dims}")
    n = layout.n_subsystems
    t = M.mat.reshape(layout.dims + layout.dims)
    dropped = [s for s in range(n) if s not in keep_set]
    for s in sorted(dropped, reverse=True):
        m = t.ndim // 2
        t = np.trace(t, axis1=s, axis2=s + m)
    new_dims = tuple(layout.dims[k] for k in keep_set)
    new_cut = sum(1 for k in keep_set if k < layout.cut)
    d = int(np.prod(new_dims))
    return HermitianOperator(t.reshape(d, d), SystemLayout(new_dims, new_cut))


def eigh(M: HermitianOperator | Array) -> tuple[Array, Array]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    A stack of matrices (shape ``(..., d, d)``) is solved in one call, each
    matrix ordered the same way.
    """
    mat = _as_matrix(M)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare solver failure
        raise NumericalError(
            f"eigensolver failed on shape {mat.shape}, "
            f"norm {np.linalg.norm(mat):.3e}: {exc}"
        ) from exc
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def is_psd(M: HermitianOperator | Array, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue is >= -tol."""
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    mat = _as_matrix(M)
    return bool(np.linalg.eigvalsh(mat).min() >= -tol)


def basis_vector(d: int, k: int) -> Array:
    e = np.zeros(d, dtype=complex)
    e[k] = 1.0
    return e


def projector(v: Array) -> Array:
    v = np.asarray(v, dtype=complex).ravel()
    return np.outer(v, v.conj())


def maximally_entangled_vector(d: int) -> Array:
    """(1/sqrt(d)) sum_k |kk> on a d x d bipartite space."""
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[d * k + k] = 1.0
    return v / np.sqrt(d)
