"""Seeded sampling of PSD operators and states, and the stacked kernels that
turn the MDI audit's raw draws into effects and unitaries.

All randomness flows from a single integer master seed.  Derived streams are
split with ``numpy``'s SeedSequence spawn keys, so a run that distributes
restarts or trials over workers draws exactly the same numbers as a serial
run.  Audit trial t reads its stream in this order: the member count k, k
Dirichlet(1, ..., 1) weights, Re a, Im a, Re b, Im b for each member's
factors a and b, then the measurement draws; an effect takes Re G_0, Im G_0,
Re G_1, Im G_1 (``_effects``), a unitary Re G, Im G (``_unitaries``).
"""
from __future__ import annotations

import numpy as np

from .operators import Array, HermitianOperator, _integer, single_system

__all__ = [
    "rng_from",
    "random_density",
    "random_psd",
]

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


def _complex_gaussian(rng: np.random.Generator, shape) -> Array:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_psd(d: int, seed) -> HermitianOperator:
    """PSD matrix G G† from a complex Gaussian G."""
    d = _integer(d, "dimension", 1)
    g = _complex_gaussian(rng_from(seed), (d, d))
    return HermitianOperator(g @ g.conj().T, single_system(d))


def random_density(d: int, seed) -> HermitianOperator:
    """``random_psd`` divided by its trace."""
    p = random_psd(d, seed)
    return HermitianOperator(p.mat / p.trace, p.layout)


def _effects(raw: Array) -> Array:
    """Stacked effects (S+T)^(-1/2) S (S+T)^(-1/2), Hermitized, with S = G_0 G_0^H,
    T = G_1 G_1^H and G_i = raw[..., i, 0] + 1j raw[..., i, 1] for real draws
    of shape (..., 2, 2, d, d); S+T is positive definite almost surely."""
    g = raw[..., 0, :, :] + 1j * raw[..., 1, :, :]
    s, t = (g[..., i, :, :] @ g[..., i, :, :].conj().swapaxes(-1, -2) for i in (0, 1))
    vals, vecs = np.linalg.eigh(s + t)
    inv_sqrt = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    e = inv_sqrt @ s @ inv_sqrt
    return (e + e.conj().swapaxes(-1, -2)) / 2


def _unitaries(raw: Array) -> Array:
    """Stacked Haar unitaries from real draws ``raw`` of shape (..., 2, d, d):
    the phase-fixed QR of raw[..., 0] + 1j raw[..., 1]."""
    q, r = np.linalg.qr(raw[..., 0, :, :] + 1j * raw[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]

