"""Tensor-product extension of bipartite witnesses and states by PSD caps.

An extension sandwiches an operator on A|B between PSD single-system caps:
cap_left (x) M (x) cap_right, living on the four systems A',A,B,B' with the
bipartite cut between A and B.  Witness-hood survives because a product state
on the extended cut marginalizes to a product state on A|B weighted by
nonnegative cap expectations; product zeros of W lift to zeros of the
extension by basis expansion, multiplying the zero-span rank by both cap
dimensions.  The cut placement (A'A | BB') is pure layout metadata: the
Kronecker order already groups the parties correctly, so no matrix
permutation is ever applied.
"""
from __future__ import annotations

import numpy as np

from .operators import (
    Array,
    HermitianOperator,
    LayoutError,
    ProductVector,
    PSD_TOL,
    SystemLayout,
    _frobenius,
    _Frozen,
    _integer,
    is_psd,
    partial_transpose,
)
from .witness import ZeroSet

__all__ = [
    "CAP_PSD_TOL",
    "GAMMA_CHECK_TOL",
    "ExtensionSpec",
    "extend_witness",
    "extend_state",
    "extended_zero_set",
    "gamma_of_extension_check",
]

CAP_PSD_TOL = 1e-10
GAMMA_CHECK_TOL = 1e-10


def _as_cap(obj: HermitianOperator | Array, side: str) -> HermitianOperator:
    cap = obj
    if not isinstance(cap, HermitianOperator):  # HermitianOperator raises unless square
        mat = np.asarray(obj, dtype=complex)
        cap = HermitianOperator(mat, SystemLayout(mat.shape[:1], 1))
    if cap.layout.n_subsystems != 1:
        raise LayoutError(f"{side} must act on a single system, got dims {cap.dims}")
    if not is_psd(cap, CAP_PSD_TOL):
        raise ValueError(
            f"{side} is not positive semidefinite at relative tolerance {CAP_PSD_TOL:.0e}"
        )
    if np.abs(cap.mat).max() == 0.0:
        # a zero cap kills every transferred detection value Tr(P Ptilde)
        raise ValueError(f"{side} is the zero operator; the extension would vanish")
    return cap


class ExtensionSpec(_Frozen):
    """A pair of validated nonzero PSD caps, one per side of the cut."""

    __slots__ = ("cap_left", "cap_right")

    def __init__(
        self, cap_left: HermitianOperator | Array, cap_right: HermitianOperator | Array
    ) -> None:
        self._set(
            cap_left=_as_cap(cap_left, "cap_left"),
            cap_right=_as_cap(cap_right, "cap_right"),
        )

    @property
    def dims(self) -> tuple[int, int]:
        return self.cap_left.dim, self.cap_right.dim


def _sandwich(mid_mat: Array, mid_layout: SystemLayout, left: Array, right: Array) -> HermitianOperator:
    mat = np.kron(np.kron(left, mid_mat), right)
    layout = SystemLayout(
        (left.shape[0],) + mid_layout.dims + (right.shape[0],), mid_layout.cut + 1
    )
    return HermitianOperator(mat, layout)


def extend_witness(W: HermitianOperator, spec: ExtensionSpec) -> HermitianOperator:
    """cap_left (x) W (x) cap_right, cut moved so A-side systems stay left."""
    W.layout.require_bipartite()
    return _sandwich(W.mat, W.layout, spec.cap_left.mat, spec.cap_right.mat)


def extend_state(
    rho: HermitianOperator, spec: ExtensionSpec, normalize: bool = False
) -> HermitianOperator:
    """cap_left (x) rho (x) cap_right for a PSD rho; optionally unit-trace."""
    rho.layout.require_bipartite()
    if not is_psd(rho, PSD_TOL):
        raise ValueError("state to extend is not positive semidefinite")
    out = _sandwich(rho.mat, rho.layout, spec.cap_left.mat, spec.cap_right.mat)
    if normalize:
        tr = out.trace
        if not tr > PSD_TOL * _frobenius(out.mat):
            raise ValueError(f"extended state has trace {tr!r}; cannot normalize")
        out = HermitianOperator(out.mat / tr, out.layout)
    return out


def extended_zero_set(zeros: ZeroSet, d_ap: int, d_bp: int) -> ZeroSet:
    """Lift bipartite product zeros to the (d_ap, ., ., d_bp) extended layout.

    Each zero phi (x) psi expands over the computational bases of the two cap
    spaces into e_i (x) phi (x) psi (x) f_j; every lift annihilates any
    extension of the original operator because the middle factor already
    does.  The lifts are the rows of I (x) Z (x) I for the stacked zeros Z,
    so the span rank is exactly the input rank times d_ap * d_bp.
    """
    d_ap, d_bp = (_integer(d, "cap dimension", 1) for d in (d_ap, d_bp))
    if not zeros.vectors:
        raise ValueError("zero set is empty; nothing to lift")
    vectors: list[ProductVector] = []
    for pv in zeros.vectors:
        if len(pv.factors) != 2:
            raise LayoutError("can only lift bipartite (two-factor) zeros")
        phi, psi = pv.factors
        for e in np.eye(d_ap):
            for f in np.eye(d_bp):
                vectors.append(ProductVector((e, phi, psi, f)))
    return ZeroSet(tuple(vectors), zeros.span_rank * d_ap * d_bp)


def gamma_of_extension_check(W: HermitianOperator, spec: ExtensionSpec) -> bool:
    """Partial transpose factors through: Gamma of the extension must equal
    cap_left (x) Gamma(W) (x) cap_right^T in Frobenius norm."""
    lhs = partial_transpose(extend_witness(W, spec))
    gamma_w = partial_transpose(W)
    rhs = _sandwich(gamma_w.mat, gamma_w.layout, spec.cap_left.mat, spec.cap_right.mat.T)
    return bool(np.linalg.norm(lhs.mat - rhs.mat) <= GAMMA_CHECK_TOL)
