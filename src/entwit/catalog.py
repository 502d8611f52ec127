"""Small catalogue of stock operators used by tests, fixtures, and the CLI.

The swap witness is the canonical decomposable example (its partial transpose
is twice a maximally entangled projector); the PPT state below is the standard
companion to the qutrit Choi-type witness: entangled, invariant under partial
transposition up to positivity, and detected at value -1/7.
"""
from __future__ import annotations

import numpy as np

from .operators import (
    HermitianOperator,
    SystemLayout,
    maximally_entangled_vector,
    projector,
)
from .choi import _choi_blocks

__all__ = [
    "swap_witness",
    "choi_detected_ppt_state",
]


def swap_witness(d: int = 2) -> HermitianOperator:
    """Flip operator sum_{ij} |ij><ji| on two d-level systems."""
    if d < 2:
        raise ValueError(f"swap needs local dimension >= 2, got {d}")
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            mat[i * d + j, j * d + i] = 1.0
    return HermitianOperator(mat, SystemLayout((d, d), 1))


def choi_detected_ppt_state() -> HermitianOperator:
    """Unit-trace PPT two-qutrit state with <choi_witness> = -1/7.

    Mixes the maximally entangled projector with the two shifted diagonals
    D+ = sum_i |i, i+1><i, i+1| and D- = sum_i |i, i-1><i, i-1| in the
    weights 3 : 2 : 1/2; the partial transpose is PSD by construction while
    the witness value stays strictly negative.
    """
    pplus = projector(maximally_entangled_vector(3))
    _, dplus, dminus = _choi_blocks()
    raw = 3.0 * pplus + 2.0 * dplus + 0.5 * dminus
    return HermitianOperator(raw / raw.trace().real, SystemLayout((3, 3), 1))
