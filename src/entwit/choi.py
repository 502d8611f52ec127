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

from .operators import (
    Array,
    HermitianOperator,
    NumericalError,
    SystemLayout,
    _as_matrix,
    _check_hermitian,
    _frobenius,
    _Frozen,
    is_psd,
    partial_trace,
    partial_transpose,
)
from .witness import IMAG_TOL, expectation

__all__ = [
    "choi_witness",
    "AbParams",
    "rho_abb_matrix",
    "rho_abb",
    "detection_values",
    "closed_form_values",
    "CLOSED_FORM_SCALE",
    "ExhibitReport",
    "nontrivial_extension_exhibit",
]

AB_PSD_TOL = 1e-10

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


def _hermitian_2x2(mat: Array | HermitianOperator | list, name: str) -> Array:
    arr = _as_matrix(mat).copy()  # copy: callers may freeze the result
    if arr.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got {arr.shape}")
    _check_hermitian(arr, error=ValueError)
    return arr


def _psd_2x2(mat: Array | HermitianOperator | list, name: str) -> Array:
    arr = _hermitian_2x2(mat, name)
    if not is_psd(arr, AB_PSD_TOL):
        raise ValueError(f"{name} is not positive semidefinite")
    return arr


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
        a = _psd_2x2(np.ones((2, 2)) if a is None else a, "a")
        b = _psd_2x2(np.eye(2) if b is None else b, "b")
        if not (a + b).trace().real > 0:
            raise ValueError("Tr(a) + Tr(b) must be positive")
        a.setflags(write=False)
        b.setflags(write=False)
        self._set(a=a, b=b)


def rho_abb_matrix(a: Array, b: Array) -> Array:
    """Unnormalized family member on dims (3, 3, 2), from raw Hermitian blocks:

        (sum_{i,j} |i, i><j, j|) (x) a  +  D- (x) b,

    so the A-block (i, j) is |i><j| (x) a on BB', and each diagonal A-block
    adds |i-1><i-1| (x) b.  Takes raw matrices rather than AbParams so that the
    PSD characterization (result PSD iff a and b both are) stays checkable on
    signed inputs.
    """
    a = _hermitian_2x2(a, "a")
    b = _hermitian_2x2(b, "b")
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
    cap_mat = _psd_2x2(cap_right, "cap")
    w = choi_witness()
    state = rho_abb(params)
    ext_op = HermitianOperator(np.kron(w.mat, cap_mat), state.layout)
    ext_value = expectation(ext_op, state)
    reduced = partial_trace(state, keep=(0, 1))
    reduced_value = expectation(w, reduced)
    return ext_value, reduced_value


def closed_form_values(
    params: AbParams, cap_right: Array | HermitianOperator
) -> tuple[float, float]:
    """Closed forms for the same two numbers, up to CLOSED_FORM_SCALE:

        (3 / Tr(a + b)) * Tr(cap (b - a))   and   (3 / Tr(a + b)) * Tr(b - a).

    Multiplying either by CLOSED_FORM_SCALE reproduces detection_values.
    """
    cap_mat = _psd_2x2(cap_right, "cap")
    tr_ab = (params.a + params.b).trace().real
    diff = params.b - params.a
    ext = 3.0 / tr_ab * (cap_mat @ diff).trace()
    red = 3.0 / tr_ab * diff.trace()
    if not (abs(ext.imag) <= IMAG_TOL and abs(red.imag) <= IMAG_TOL):
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
    cap_mat = (
        np.ones((2, 2), dtype=complex) if cap_right is None else _psd_2x2(cap_right, "cap")
    )
    ext_value, reduced_value = detection_values(params, cap_mat)
    closed_ext, closed_reduced = closed_form_values(params, cap_mat)
    if not ext_value < -1e-6 * CLOSED_FORM_SCALE * _frobenius(cap_mat):
        raise ValueError(
            f"extension value {ext_value:.6g} is not negative: the exhibit needs "
            "Tr(cap (b - a)) < 0, i.e. the cap-weighted off-diagonals of a must "
            "dominate those of b"
        )
    state = rho_abb(params)
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
