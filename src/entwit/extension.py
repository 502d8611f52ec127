"""Tensor-product extension of bipartite witnesses and states by PSD caps.

An extension sandwiches an operator on A|B between PSD single-system caps:
cap_left (x) M (x) cap_right, living on the four systems A',A,B,B' with the
bipartite cut between A and B.  Witness-hood survives because a product state
on the extended cut marginalizes to a product state on A|B weighted by
nonnegative cap expectations; product zeros of W lift to zeros of the
extension by basis expansion, and the lifted set's span rank and conjugated
rank are W's times both cap dimensions, so the lift carries both verdicts of
``ZeroSet``, spanning and nd-spanning, from W to the extension.  Under a
rank-deficient cap the extension has more zeros than the lift: every product
vector with a factor in a cap's kernel.
The cut placement (A'A | BB') is pure layout metadata: the Kronecker order
already groups the parties correctly, so no matrix permutation is ever
applied.

Gamma(cap_left (x) W (x) cap_right) = cap_left (x) Gamma(W) (x) cap_right^T
holds entry for entry, Gamma being the partial transpose of BB': it only
moves entries, so both sides are the same products of the same floats.  The
identity carries nd-spanning (Lewenstein, Kraus, Cirac and Horodecki, PRA 62,
052310 (2000)) over to the extension, so no run recomputes it.
"""
from __future__ import annotations

import numpy as np

from . import _EXPORTS
from .operators import (
    Array,
    HermitianOperator,
    LayoutError,
    PSD_TOL,
    SystemLayout,
    _cap_matrix,
    _Frozen,
    _integer,
    _psd_matrix,
    single_system,
)
from .witness import ZeroSet

__all__ = [*_EXPORTS["extension"]]


def _as_cap(obj: HermitianOperator | Array, side: str) -> HermitianOperator:
    if isinstance(obj, HermitianOperator) and len(obj.layout.dims) != 1:
        raise LayoutError(f"{side} must act on a single system, got dims {obj.layout.dims}")
    mat = _cap_matrix(obj, None, side)
    if np.abs(mat).max() == 0.0:
        # a zero cap kills every transferred detection value Tr(P Ptilde)
        raise ValueError(f"{side} is the zero operator; the extension would vanish")
    if isinstance(obj, HermitianOperator):
        return obj  # its layout, cut included, is echoed as given
    return HermitianOperator(mat, single_system(len(mat)))


class ExtensionSpec(_Frozen):
    """A pair of validated nonzero PSD caps, one per side of the cut."""

    __slots__ = ("cap_left", "cap_right")

    def __init__(
        self, cap_left: HermitianOperator | Array, cap_right: HermitianOperator | Array
    ) -> None:
        left, right = _as_cap(cap_left, "cap_left"), _as_cap(cap_right, "cap_right")
        self._set(cap_left=left, cap_right=right)

    @property
    def dims(self) -> tuple[int, int]:
        return self.cap_left.dim, self.cap_right.dim


def _sandwich(mid_mat: Array, mid_layout: SystemLayout, left: Array, right: Array) -> HermitianOperator:
    with np.errstate(over="ignore", invalid="ignore"):  # HermitianOperator rejects inf
        mat = np.kron(np.kron(left, mid_mat), right)
    layout = SystemLayout(
        (left.shape[0],) + mid_layout.dims + (right.shape[0],), mid_layout.cut + 1
    )
    return HermitianOperator(mat, layout)


def extend_witness(W: HermitianOperator, spec: ExtensionSpec) -> HermitianOperator:
    """cap_left (x) W (x) cap_right, cut moved so A-side systems stay left."""
    W.layout.require_bipartite()
    return _sandwich(W.mat, W.layout, spec.cap_left.mat, spec.cap_right.mat)


def extend_state(rho: HermitianOperator, spec: ExtensionSpec) -> HermitianOperator:
    """cap_left (x) rho (x) cap_right for a PSD rho."""
    rho.layout.require_bipartite()
    _psd_matrix(rho, None, "state to extend", PSD_TOL)
    return _sandwich(rho.mat, rho.layout, spec.cap_left.mat, spec.cap_right.mat)


def extended_zero_set(zeros: ZeroSet, d_ap: int, d_bp: int) -> ZeroSet:
    """Lift product zeros to the (d_ap, ..., d_bp) extended layout.

    Each zero z expands over the computational bases of the two cap spaces
    into e_i (x) z (x) f_j; every lift annihilates any extension of the
    original operator because the middle factor already does.  The lifts are
    the rows of I (x) Z (x) I for the stacked zeros Z, in (i, zero, j) order,
    so the span rank, and the conjugated rank (f_j is real), is exactly the
    input's times d_ap * d_bp.  A lift is a product across the extended cut
    A'A | BB', so a lifted set lifts again; an empty set lifts to an empty
    stack of the extended width.
    """
    d_ap, d_bp = (_integer(d, "cap dimension", 1) for d in (d_ap, d_bp))
    if np.ndim(zeros.vectors) != 2:
        raise ValueError(f"zero set must be a 2-D stack, got shape {np.shape(zeros.vectors)}")
    lifts = np.kron(np.kron(np.eye(d_ap), zeros.vectors), np.eye(d_bp))
    lifts.setflags(write=False)
    lifted = d_ap * d_bp
    return ZeroSet(lifts, zeros.span_rank * lifted, zeros.conjugated_rank * lifted)
