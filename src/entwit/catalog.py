"""Small catalogue of stock operators used by tests, fixtures, and the CLI.

The swap witness is the canonical decomposable example (its partial transpose
is twice a maximally entangled projector); the PPT state below is the standard
companion to the qutrit Choi-type witness: entangled, invariant under partial
transposition up to positivity, and detected at value -1/7.
"""
from __future__ import annotations

import numpy as np

from . import _EXPORTS
from .operators import (
    HermitianOperator,
    SystemLayout,
    _integer,
    maximally_entangled_vector,
    projector,
)
from .choi import _choi_blocks

__all__ = [*_EXPORTS["catalog"]]


def swap_witness(d: int = 2) -> HermitianOperator:
    """Flip operator sum_{ij} |ij><ji| on two d-level systems."""
    d = _integer(d, "dimension", 2)
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
