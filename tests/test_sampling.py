import numpy as np
import pytest

from entwit import is_psd, random_density, random_psd, rng_from
from entwit.sampling import _effects, _unitaries
from integer_args import check_integer_case, integer_cases


def test_rng_from_is_reproducible_and_key_split():
    a = rng_from(7).normal(size=4)
    b = rng_from(7).normal(size=4)
    np.testing.assert_array_equal(a, b)
    c = rng_from(7, 1).normal(size=4)
    d = rng_from(7, 2).normal(size=4)
    assert not np.array_equal(c, d)
    assert not np.array_equal(a, c)
    # a key selects numpy's own spawned stream
    spawned = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1,)))
    np.testing.assert_array_equal(c, spawned.normal(size=4))


def test_rng_from_passes_generators_through():
    gen = np.random.default_rng(0)
    assert rng_from(gen) is gen
    with pytest.raises(ValueError):
        rng_from(gen, 1)


@pytest.mark.parametrize("call, value, message", integer_cases({
    "seed": (lambda x: random_psd(2, x), "seed", 0),
    "random_psd": (lambda x: random_psd(x, 0), "dimension", 1),
    "random_density": (lambda x: random_density(x, 0), "dimension", 1),
    "rng_from-key": (lambda x: rng_from(1, x), "substream key", 0),
}, own="seed", values=(2.7, 2.0, "2", True, None)))
def test_seeds_are_checked_not_coerced(call, value, message):
    # so are the dimensions of every draw, and the substream keys, which are
    # named rather than the seed
    check_integer_case(call, value, message)
    np.testing.assert_array_equal(random_psd(2, np.int64(2)).mat, random_psd(2, 2).mat)


def test_random_density_properties():
    rho = random_density(5, seed=3)
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    assert is_psd(rho, tol=1e-12)
    again = random_density(5, seed=3)
    np.testing.assert_array_equal(rho.mat, again.mat)
    other = random_density(5, seed=4)
    assert not np.array_equal(rho.mat, other.mat)


def test_random_psd_properties():
    p = random_psd(4, seed=11)
    assert is_psd(p, tol=1e-12)
    assert p.trace > 0.0
    q = random_density(4, seed=11)
    np.testing.assert_array_equal(q.mat, p.mat / p.trace)
    assert q.trace == pytest.approx(1.0, abs=1e-12)


def test_effects_are_bounded_first_elements():
    raw = rng_from(0).normal(size=(6, 2, 2, 4, 4))
    e = _effects(raw)
    np.testing.assert_array_equal(e, e.conj().swapaxes(-1, -2))
    vals = np.linalg.eigvalsh(e)
    assert vals.min() >= -1e-12
    assert vals.max() <= 1.0 + 1e-12
    # exchanging G_0 and G_1 gives the second element, I - E
    np.testing.assert_allclose(e + _effects(raw[:, ::-1]), np.broadcast_to(np.eye(4), e.shape),
                               atol=1e-12)


def test_unitaries_are_the_phase_fixed_qr():
    raw = rng_from(2).normal(size=(3, 2, 5, 5))
    u = _unitaries(raw)
    np.testing.assert_allclose(u.conj().swapaxes(-1, -2) @ u, np.broadcast_to(np.eye(5), u.shape),
                               atol=1e-12)
    # U^H G is the R of G = U R, upper triangular with a positive diagonal
    r = u.conj().swapaxes(-1, -2) @ (raw[:, 0] + 1j * raw[:, 1])
    assert np.abs(np.tril(r, -1)).max() <= 1e-12
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.abs(diag.imag).max() <= 1e-12 and diag.real.min() > 0


@pytest.mark.parametrize("kernel, shape", [(_effects, (2, 2, 4, 4)), (_unitaries, (2, 5, 5))],
                         ids=["effects", "unitaries"])
def test_kernels_are_deterministic_member_by_member(kernel, shape):
    # a member's result depends on its own draws only, bit for bit, so an
    # audit trial does not depend on the trials stacked beside it
    raw = rng_from(3).normal(size=(4, *shape))
    stacked = kernel(raw)
    np.testing.assert_array_equal(stacked, kernel(rng_from(3).normal(size=(4, *shape))))
    for i in range(len(raw)):
        np.testing.assert_array_equal(stacked[i], kernel(raw[i : i + 1])[0])
    assert not np.array_equal(stacked[0], stacked[1])
