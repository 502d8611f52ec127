"""The qutrit Choi-type witness and a one-sided extension it makes useful.

The witness on two qutrits,

    W = sum_i |i, i-1><i, i-1|  +  2 sum_i |i, i><i, i|  -  sum_{i,j} |i, i><j, j|

(indices mod 3), is indecomposable; its single negative eigenvalue -1 sits on
the maximally entangled vector.  Capping it on one side with a PSD operator P
on a qubit gives W (x) P on A|BB', and a two-parameter family of states on
those systems shows the cap buying detection the bare witness cannot provide:
the extension value goes negative while the B'-reduced state is invisible to
W alone.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .operators import (
    Array,
    HermitianOperator,
    NumericalError,
    SystemLayout,
    _cap_matrix,
    _frobenius,
    _Frozen,
    _hermitian_matrix,
    _psd_matrix,
    _refill,
    is_psd,
    partial_trace,
    partial_transpose,
)
from .witness import IMAG_TOL, expectation

__all__ = [*_EXPORTS["choi"], "CLOSED_FORM_SCALE"]

BLOCK_PSD_TOL = 1e-10  # relative, for the qubit blocks a and b of AbParams

# The closed forms below carry a reference prefactor that counts one diagonal
# block of the family; exact-trace normalization makes the state's trace three
# times that, so operational values come out scaled by this constant.
CLOSED_FORM_SCALE = 1.0 / 3.0


def _choi_blocks() -> tuple[Array, Array, Array]:
    """The 9x9 blocks the family is built from: sum_{i,j} |i, i><j, j|,
    D+ = sum_i |i, i+1><i, i+1| and D- = sum_i |i, i-1><i, i-1| (indices mod 3)."""
    d = 3
    k = np.arange(d)
    diag, plus, minus = k * d + k, k * d + (k + 1) % d, k * d + (k - 1) % d
    ent, dplus, dminus = np.zeros((3, d * d, d * d), dtype=complex)
    ent[np.ix_(diag, diag)] = 1.0
    dplus[plus, plus] = 1.0
    dminus[minus, minus] = 1.0
    return ent, dplus, dminus


def choi_witness() -> HermitianOperator:
    """The 9x9 witness above, as an operator on dims (3, 3) with cut 1."""
    ent, _, dminus = _choi_blocks()
    mat = dminus + np.diag(2 * ent.diagonal()) - ent
    return HermitianOperator(mat, SystemLayout((3, 3), 1))


class AbParams(_Frozen):
    """Qubit blocks steering the two branches of the A|BB' family.

    Both blocks must be PSD and at least one must carry trace.  The default
    pair (all-ones a, identity b) is the sharpest demonstration: equal traces
    hide the state from the reduced witness, while the larger off-diagonal of
    a lets the capped extension see it.  (A remark, not enforced: with PSD a,
    vanishing diagonal forces a = 0 entirely, collapsing the first branch.)
    """

    __slots__ = ("a", "b")

    def __init__(
        self,
        a: Array | HermitianOperator | list | None = None,
        b: Array | HermitianOperator | list | None = None,
    ) -> None:
        a = _psd_matrix(np.ones((2, 2)) if a is None else a, 2, "a", BLOCK_PSD_TOL)
        b = _psd_matrix(np.eye(2) if b is None else b, 2, "b", BLOCK_PSD_TOL)
        if not (a + b).trace().real > 0:
            raise ValueError("Tr(a) + Tr(b) must be positive")
        for block in (a, b):  # fresh copies: freezing leaves the arguments alone
            block.setflags(write=False)
        self._set(a=a, b=b)


def rho_abb_matrix(a: Array, b: Array) -> Array:
    """Unnormalized family member on dims (3, 3, 2), from raw Hermitian blocks:

        (sum_{i,j} |i, i><j, j|) (x) a  +  D- (x) b,

    so the A-block (i, j) is |i><j| (x) a on BB', and each diagonal A-block
    adds |i-1><i-1| (x) b.  Takes raw matrices rather than AbParams so that the
    PSD characterization (result PSD iff a and b both are) stays checkable on
    signed inputs.
    """
    a = _hermitian_matrix(a, 2, "a", ValueError)
    b = _hermitian_matrix(b, 2, "b", ValueError)
    ent, _, dminus = _choi_blocks()
    return np.kron(ent, a) + np.kron(dminus, b)


def rho_abb(params: AbParams) -> HermitianOperator:
    """Unit-trace family member; the raw matrix has trace 3 Tr(a + b)."""
    raw = rho_abb_matrix(params.a, params.b)
    tr = raw.trace().real
    return HermitianOperator(raw / tr, SystemLayout((3, 3, 2), 1))


def detection_values(
    params: AbParams, cap_right: Array | HermitianOperator
) -> tuple[float, float]:
    """(ext_value, reduced_value) on the unit-trace family member.

    ext_value is <W (x) cap> on the full A|BB' state; reduced_value is <W> on
    the B'-traced A|B marginal.  A negative first entry with a vanishing
    second is the point: the cap alone buys the detection.
    """
    return _detection_values(_cap_matrix(cap_right, 2, "cap"), rho_abb(params))


def _detection_values(cap_mat: Array, state: HermitianOperator) -> tuple[float, float]:
    """``detection_values`` for a checked cap on a built family member."""
    w = choi_witness()
    ext_op = HermitianOperator(np.kron(w.mat, cap_mat), state.layout)
    return expectation(ext_op, state), expectation(w, partial_trace(state, keep=(0, 1)))


def closed_form_values(
    params: AbParams, cap_right: Array | HermitianOperator
) -> tuple[float, float]:
    """Closed forms for the same two numbers, up to CLOSED_FORM_SCALE:

        (3 / Tr(a + b)) * Tr(cap (b - a))   and   (3 / Tr(a + b)) * Tr(b - a).

    Multiplying either by CLOSED_FORM_SCALE reproduces detection_values.  Each
    imaginary part is measured against its Cauchy-Schwarz bound, so at any scale.
    """
    return _closed_forms(params, _cap_matrix(cap_right, 2, "cap"))


def _closed_forms(params: AbParams, cap_mat: Array) -> tuple[float, float]:
    """``closed_form_values`` for a checked cap."""
    weight = 3.0 / (params.a + params.b).trace().real
    diff = params.b - params.a
    ext = weight * (cap_mat @ diff).trace()
    red = weight * diff.trace()
    bound = IMAG_TOL * weight * _frobenius(diff)
    if not (abs(ext.imag) <= bound * _frobenius(cap_mat) and abs(red.imag) <= bound * 2**0.5):
        raise NumericalError("closed forms came out non-real")
    return float(ext.real), float(red.real)


class ExhibitReport(NamedTuple):
    params: AbParams
    cap_right: Array
    ext_value: float
    reduced_value: float
    closed_ext: float
    closed_reduced: float
    scale: float
    state_psd: bool
    gamma_bprime_psd: bool

    def __reduce__(self):  # copies and pickles come back with frozen arrays
        return _refill, (type(self), tuple(self))


def nontrivial_extension_exhibit(
    params: AbParams | None = None,
    cap_right: Array | HermitianOperator | None = None,
) -> ExhibitReport:
    """Concrete demonstration that a cap can add detection power.

    Defaults to the all-ones a, identity b, all-ones cap, where the extension
    value lands at -1/2 while the reduced value is exactly 0.  Parameter
    choices whose extension value fails to go below -1e-6 CLOSED_FORM_SCALE
    ||cap||_F are rejected with the sign condition spelled out: for the
    all-ones cap the off-diagonal of a must exceed that of b.
    """
    params = AbParams() if params is None else params
    cap_mat = _cap_matrix(np.ones((2, 2)) if cap_right is None else cap_right, 2, "cap")
    cap_mat.setflags(write=False)  # a fresh copy, held by the report
    state = rho_abb(params)
    ext_value, reduced_value = _detection_values(cap_mat, state)
    closed_ext, closed_reduced = _closed_forms(params, cap_mat)
    threshold = -1e-6 * CLOSED_FORM_SCALE * _frobenius(cap_mat)
    if not ext_value < threshold:
        sign = "negative but" if ext_value < 0 else "not negative, so"
        raise ValueError(
            f"extension value {ext_value:.6g} is {sign} not below {threshold:.6g}: "
            "the exhibit needs Tr(cap (b - a)) < 0, i.e. the cap-weighted "
            "off-diagonals of a must dominate those of b"
        )
    return ExhibitReport(
        params=params,
        cap_right=cap_mat,
        ext_value=ext_value,
        reduced_value=reduced_value,
        closed_ext=closed_ext,
        closed_reduced=closed_reduced,
        scale=CLOSED_FORM_SCALE,
        state_psd=is_psd(state),
        gamma_bprime_psd=is_psd(partial_transpose(state, subsystems=(2,))),
    )
