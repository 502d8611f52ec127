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

import numbers
from functools import reduce
from typing import Iterable

import numpy as np

Array = np.ndarray

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-9
CAP_PSD_TOL = 1e-10  # relative; read by the one PSD check of caps, _cap_matrix
_TINY = float(np.finfo(float).tiny)  # least normal float

__all__ = [
    "Array",
    "HERMITICITY_TOL",
    "PSD_TOL",
    "CAP_PSD_TOL",
    "LayoutError",
    "NumericalError",
    "SystemLayout",
    "single_system",
    "HermitianOperator",
    "ProductVector",
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


class _Frozen:
    """Base of the validated value types: the constructor sets each slot once,
    through ``_set``, and assigning or deleting an attribute later raises."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copies and pickles refill the slots: the values were validated once
        return _refill, (type(self), tuple(getattr(self, name) for name in self.__slots__))


def _refill(cls: type, values: tuple):
    # pickle does not keep the write flag: freeze each array again, whether
    # it fills a slot or sits in a tuple that does
    for value in values:
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
    obj = cls.__new__(cls)
    obj._set(**dict(zip(cls.__slots__, values)))
    return obj


def _integer(x, what: str, least: int | None = None) -> int:
    """``x`` as an int, at least ``least`` if given: the one check of integer
    arguments.  Bools, strings and floats raise instead of being coerced."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise LayoutError(f"{what} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise LayoutError(f"{what} must be >= {least}, got {x}")
    return int(x)


def _tolerance(tol: float) -> None:
    """The one check of tolerance arguments: finite and nonnegative."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


class SystemLayout(_Frozen):
    """Ordered subsystem dimensions plus the bipartition cut index, all integers."""

    __slots__ = ("dims", "cut")

    def __init__(self, dims: Iterable[int], cut: int) -> None:
        if not isinstance(dims, Iterable):
            raise LayoutError(f"subsystem dimensions must be a list, got {dims!r}")
        dims = tuple(_integer(d, "subsystem dimension", 1) for d in dims)
        _integer(len(dims), "number of subsystems", 1)
        cut = _integer(cut, "cut")
        if not 0 <= cut <= len(dims):
            raise LayoutError(f"cut {cut} out of range for {len(dims)} subsystems")
        self._set(dims=dims, cut=cut)

    def __eq__(self, other) -> bool:
        if type(other) is not SystemLayout:
            return NotImplemented
        return (self.dims, self.cut) == (other.dims, other.cut)

    def __hash__(self) -> int:
        return hash((self.dims, self.cut))

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
    return SystemLayout((d,), 1)


def _check_hermitian(
    mats: Array, tol=HERMITICITY_TOL, error=NumericalError, what: str = "matrix"
) -> None:
    """Raise ``error`` unless each matrix of a stack is finite and Hermitian
    relative to its largest entry, as rounding defects scale with it."""
    scale = np.abs(mats).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise error(f"{what} has non-finite entries")
    defect = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = ~(defect <= tol * scale)
    if bad.any():
        worst = (defect[bad] / scale[bad]).max()
        raise error(f"{what} is not Hermitian: relative defect {worst:.1e} > {tol:.0e}")


def _hermitian_matrix(
    M: HermitianOperator | Array | list, n: int | None, what: str, error=NumericalError
) -> Array:
    """``M`` as a new complex n x n array, n read off M's first axis when None
    (at least 1: a scalar is 1x1): the one check of matrix arguments.  Any other
    shape raises LayoutError; a non-Hermitian one raises ``error``."""
    mat = np.array(M.mat if isinstance(M, HermitianOperator) else M, dtype=complex)
    n = max((mat.shape or (1,))[0], 1) if n is None else n
    if mat.shape != (n, n):
        raise LayoutError(f"{what} must be {n}x{n}, got {mat.shape}")
    _check_hermitian(mat, error=error, what=what)
    return mat


def _psd_matrix(M: HermitianOperator | Array, n: int | None, what: str, tol: float) -> Array:
    """``_hermitian_matrix(M, n, what, ValueError)``, and the one check of PSD
    matrix arguments: a ValueError unless ``is_psd(mat, tol)``."""
    mat = _hermitian_matrix(M, n, what, ValueError)
    if not is_psd(mat, tol):
        raise ValueError(f"{what} is not positive semidefinite at relative tolerance {tol:.0e}")
    return mat


def _cap_matrix(cap: HermitianOperator | Array, n: int | None, what: str) -> Array:
    """``_psd_matrix`` at CAP_PSD_TOL: the one PSD check of a cap."""
    return _psd_matrix(cap, n, what, CAP_PSD_TOL)


def _frobenius(mat: Array) -> float:
    """||mat||_F, the scale of every relative tolerance: np.linalg.norm's value
    wherever its sum of squares is a normal float, else the norm of mat over
    its largest entry, times that entry (nan or inf for non-finite entries)."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(mat))
    if _TINY <= norm * norm < np.inf:
        return norm
    scale = float(np.abs(mat).max())
    if not 0.0 < scale < np.inf:  # a zero matrix, or non-finite entries
        return norm
    return scale * float(np.linalg.norm(mat / scale))


class HermitianOperator(_Frozen):
    """Dense complex Hermitian matrix tied to a system layout."""

    __slots__ = ("mat", "layout")

    def __init__(self, mat: Array, layout: SystemLayout) -> None:
        self._set(mat=mat, layout=layout)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate ``mat`` against ``layout`` and store it as a read-only
        complex copy."""
        mat = _hermitian_matrix(self.mat, self.layout.total_dim, "operator")
        mat.setflags(write=False)
        self._set(mat=mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)


class ProductVector(_Frozen):
    """Pure product vector: one unit factor per subsystem."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Array, ...]) -> None:
        factors = tuple(np.array(f, dtype=complex).ravel() for f in factors)
        if not factors:
            raise LayoutError("product vector needs at least one factor")
        for i, f in enumerate(factors):
            norm = np.linalg.norm(f)
            if not abs(norm - 1.0) <= HERMITICITY_TOL:
                raise NumericalError(f"factor {i} has norm {float(norm)!r}, expected 1")
            f.setflags(write=False)
        self._set(factors=factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def full(self) -> Array:
        """The assembled vector in the tensor-product space."""
        return reduce(np.kron, self.factors)


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
    subs = tuple(sorted({_integer(s, "subsystem index", 0) for s in subsystems}))
    for s in subs:
        if not s < layout.n_subsystems:
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
    keep_set = _validated_subsystems(layout, tuple(keep))
    if not keep_set:
        raise LayoutError("keep set must be nonempty")
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
            f"norm {_frobenius(mat):.3e}: {exc}"
        ) from exc
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def is_psd(M: HermitianOperator | Array, tol: float = PSD_TOL) -> bool:
    """True iff every entry is finite and the minimum eigenvalue is >= -tol
    times the largest eigenvalue modulus, as rounding defects scale with it."""
    _tolerance(tol)
    mat = _as_matrix(M)
    if not np.isfinite(mat).all():  # eigvalsh returns no nan for every nan
        return False
    vals = np.linalg.eigvalsh(mat)
    return bool(vals[0] >= -tol * max(-vals[0], vals[-1]))


def basis_vector(d: int, k: int) -> Array:
    d, k = _integer(d, "dimension", 1), _integer(k, "basis index", 0)
    if not k < d:
        raise LayoutError(f"basis index {k} out of range for dimension {d}")
    return np.eye(1, d, k, dtype=complex)[0]


def projector(v: Array) -> Array:
    v = np.asarray(v, dtype=complex).ravel()
    return np.outer(v, v.conj())


def maximally_entangled_vector(d: int) -> Array:
    """(1/sqrt(d)) sum_k |kk> on a d x d bipartite space."""
    d = _integer(d, "dimension", 1)
    return np.eye(d, dtype=complex).ravel() / np.sqrt(d)
