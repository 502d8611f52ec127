"""Seeded sampling of states, product vectors, POVM elements, and unitaries.

All randomness flows from a single integer master seed.  Derived streams are
split with ``numpy``'s SeedSequence spawn keys, so a run that distributes
restarts or trials over workers draws exactly the same numbers as a serial
run.
"""
from __future__ import annotations

import numpy as np

from .operators import (
    Array,
    HermitianOperator,
    ProductVector,
    SeparableEnsemble,
    SystemLayout,
    _integer,
    single_system,
)

__all__ = [
    "rng_from",
    "random_density",
    "random_product_vector",
    "random_separable",
    "random_povm_first_element",
    "random_unitary",
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


def random_product_vector(layout: SystemLayout, seed) -> ProductVector:
    """One normalized complex Gaussian factor per subsystem."""
    rng = rng_from(seed)
    factors = []
    for d in layout.dims:
        v = _complex_gaussian(rng, d)
        factors.append(v / np.linalg.norm(v))
    return ProductVector(tuple(factors))


def random_separable(layout: SystemLayout, k: int, seed) -> SeparableEnsemble:
    """Dirichlet(1,...,1) mixture of k independent product vectors."""
    k = _integer(k, "ensemble size", 1)
    rng = rng_from(seed)
    weights = tuple(rng.dirichlet(np.ones(k)).tolist())
    members = tuple(random_product_vector(layout, rng) for _ in range(k))
    return SeparableEnsemble(weights, members)


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


def random_povm_first_element(d: int, seed) -> HermitianOperator:
    """An effect E with 0 <= E <= I (see ``_effects``)."""
    d = _integer(d, "dimension", 1)
    e = _effects(rng_from(seed).normal(size=(1, 2, 2, d, d)))[0]
    return HermitianOperator(e, single_system(d))


def random_unitary(d: int, seed) -> Array:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    d = _integer(d, "dimension", 1)
    return _unitaries(rng_from(seed).normal(size=(1, 2, d, d)))[0]
