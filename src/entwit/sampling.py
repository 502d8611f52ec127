"""Seeded sampling of PSD operators and states.

All randomness flows from a single integer master seed.  Derived streams are
split with ``numpy``'s SeedSequence spawn keys, so a run that distributes
restarts or trials over workers draws exactly the same numbers as a serial
run.
"""
from __future__ import annotations

import numpy as np

from . import _EXPORTS
from .operators import HermitianOperator, _integer, single_system

__all__ = [*_EXPORTS["sampling"]]

# Seeded see-saw restarts of a certification; restart r starts from the stream
# rng_from(seed, r).  This constant and POVM_MODES live in this layer, which
# every command loads, so that the CLI's parser reads them without loading
# the witness or the mdiew layer.
DEFAULT_RESTARTS = 64
# How the MDI audit draws its measurement elements.
POVM_MODES = ("ideal", "arbitrary", "misaligned")


def rng_from(seed, *key: int) -> np.random.Generator:
    """Generator for ``seed``, a Generator or a nonnegative integer; extra
    nonnegative integers select an independent substream (anything else
    raises ``LayoutError``)."""
    if isinstance(seed, np.random.Generator):
        if key:
            raise ValueError("substream keys require an integer master seed")
        return seed
    key = [_integer(k, "substream key", 0) for k in key]
    seq = np.random.SeedSequence(_integer(seed, "seed", 0), spawn_key=key)
    return np.random.default_rng(seq)


def random_psd(d: int, seed) -> HermitianOperator:
    """PSD matrix G G† from a complex Gaussian G, read from the stream as
    Re G then Im G."""
    d = _integer(d, "dimension", 1)
    re, im = rng_from(seed).normal(size=(2, d, d))
    g = re + 1j * im
    return HermitianOperator(g @ g.conj().T, single_system(d))


def random_density(d: int, seed) -> HermitianOperator:
    """``random_psd`` divided by its trace."""
    p = random_psd(d, seed)
    return HermitianOperator(p.mat / p.trace, p.layout)
