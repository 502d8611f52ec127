import numpy as np
import pytest

from entwit import (
    SystemLayout,
    is_psd,
    partial_transpose,
    random_density,
    random_povm_first_element,
    random_product_vector,
    random_psd,
    random_separable,
    random_unitary,
    rng_from,
)
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
    "random_povm_first_element": (lambda x: random_povm_first_element(x, 0), "dimension", 1),
    "random_unitary": (lambda x: random_unitary(x, 0), "dimension", 1),
    "random_separable": (
        lambda x: random_separable(SystemLayout((2, 2), 1), x, 0), "ensemble size", 1,
    ),
    "rng_from-key": (lambda x: rng_from(1, x), "substream key", 0),
}, own="seed", values=(2.7, 2.0, "2", True, None)))
def test_seeds_are_checked_not_coerced(call, value, message):
    # so are the dimensions and the ensemble size of every draw, and the
    # substream keys, which are named rather than the seed
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


def test_random_product_vector_unit_factors():
    layout = SystemLayout((2, 3), 1)
    v = random_product_vector(layout, seed=9)
    assert v.dims == (2, 3)
    for f in v.factors:
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v.full()) == pytest.approx(1.0, abs=1e-12)


def test_random_separable_mixtures_are_ppt():
    layout = SystemLayout((2, 2), 1)
    for seed in range(6):
        ens = random_separable(layout, k=3, seed=seed)
        assert sum(ens.weights) == pytest.approx(1.0, abs=1e-12)
        rho = ens.density()
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert is_psd(rho, tol=1e-12)
        assert is_psd(partial_transpose(rho), tol=1e-10)


def test_random_povm_first_element_is_bounded():
    for seed in range(6):
        e = random_povm_first_element(4, seed=seed)
        vals = np.linalg.eigvalsh(e.mat)
        assert vals.min() >= -1e-12
        assert vals.max() <= 1.0 + 1e-12


def test_random_unitary_properties():
    u = random_unitary(5, seed=2)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    np.testing.assert_array_equal(u, random_unitary(5, seed=2))
    assert not np.array_equal(u, random_unitary(5, seed=3))
