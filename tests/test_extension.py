import numpy as np
import pytest

from entwit import (
    ExtensionSpec,
    HermitianOperator,
    SystemLayout,
    certify_witness,
    choi_detected_ppt_state,
    collect_zero_set,
    expectation,
    extend_state,
    extend_witness,
    extended_zero_set,
    gamma_of_extension_check,
    is_psd,
    partial_trace,
    partial_transpose,
    random_density,
    random_psd,
    rng_from,
    single_system,
    span_rank,
)
from integer_args import check_integer_case, integer_cases


def test_extension_spec_validates_caps():
    with pytest.raises(ValueError):
        ExtensionSpec(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        ExtensionSpec(np.zeros((2, 2)), np.eye(2))
    bipartite = HermitianOperator(np.eye(4), SystemLayout((2, 2), 1))
    with pytest.raises(Exception):
        ExtensionSpec(bipartite, np.eye(2))
    spec = ExtensionSpec(np.eye(3), random_psd(2, seed=1))
    assert spec.dims == (3, 2)
    # the PSD check is relative to the cap's largest eigenvalue, at any scale
    for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        for seed in range(20):
            rng = rng_from(seed)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            ExtensionSpec(scale * np.outer(v, v.conj()), np.eye(2))  # rank one
        with pytest.raises(ValueError, match="positive semidefinite"):
            ExtensionSpec(scale * np.diag([1.0, 0.5, -1e-6]), np.eye(2))


def test_trivial_caps_change_nothing_but_bookkeeping(swap):
    spec = ExtensionSpec(np.ones((1, 1)), np.ones((1, 1)))
    ext = extend_witness(swap, spec)
    np.testing.assert_array_equal(ext.mat, swap.mat)
    assert ext.layout.dims == (1, 2, 2, 1)
    assert ext.layout.cut == 2


def test_extend_witness_layout_and_values(choi):
    spec = ExtensionSpec(random_psd(2, seed=3), random_psd(2, seed=4))
    ext = extend_witness(choi, spec)
    assert ext.layout.dims == (2, 3, 3, 2)
    assert ext.layout.cut == 2
    expect = np.kron(
        spec.cap_left.mat, np.kron(choi.mat, spec.cap_right.mat)
    )
    np.testing.assert_allclose(ext.mat, expect, atol=1e-13)


def test_identity_caps_trace_back_to_the_original(swap):
    spec = ExtensionSpec(np.eye(2), np.eye(3))
    ext = extend_witness(swap, spec)
    mid = partial_trace(ext, keep=(1, 2))
    np.testing.assert_allclose(mid.mat, 6.0 * swap.mat, atol=1e-12)


def test_extend_state_requires_psd_and_normalizes(choi):
    rho = choi_detected_ppt_state()
    spec = ExtensionSpec(random_density(2, seed=5), random_density(2, seed=6))
    ext = extend_state(rho, spec, normalize=True)
    assert ext.trace == pytest.approx(1.0, abs=1e-12)
    assert is_psd(ext)
    with pytest.raises(ValueError):
        extend_state(choi, spec)  # not a state
    for scale in (1e-12, 1e8):
        scaled = HermitianOperator(scale * rho.mat, rho.layout)
        ext = extend_state(scaled, spec, normalize=True)
        assert ext.trace == pytest.approx(1.0, abs=1e-12)


def test_transposed_extension_factorizes_exactly(choi, swap):
    for w, seed in ((choi, 0), (swap, 1)):
        spec = ExtensionSpec(random_psd(2, seed=seed), random_psd(3, seed=seed + 10))
        assert gamma_of_extension_check(w, spec)
        ext = extend_witness(w, spec)
        lhs = partial_transpose(ext).mat
        rhs = np.kron(
            spec.cap_left.mat,
            np.kron(partial_transpose(w).mat, spec.cap_right.mat.T),
        )
        np.testing.assert_array_equal(lhs, rhs)


def test_extended_zero_set_multiplies_rank(swap):
    base = collect_zero_set(swap, seed=0)
    assert base.span_rank == 4
    lifted = extended_zero_set(base, 2, 2)
    assert lifted.span_rank == 16
    assert span_rank([v.full() for v in lifted.vectors]) == 16
    spec = ExtensionSpec(random_psd(2, seed=2), random_psd(2, seed=3))
    ext = extend_witness(swap, spec)
    for v in lifted.vectors:
        full = v.full()
        assert abs(np.real(full.conj() @ ext.mat @ full)) <= 1e-10


def test_extended_zero_set_transposed_side(swap):
    flipped = partial_transpose(swap)
    base = collect_zero_set(flipped, seed=0)
    assert base.span_rank == 3
    lifted = extended_zero_set(base, 2, 2)
    assert lifted.span_rank == 12
    assert span_rank([v.full() for v in lifted.vectors]) == 12
    spec = ExtensionSpec(random_psd(2, seed=4), random_psd(2, seed=5))
    gamma_ext = partial_transpose(extend_witness(swap, spec))
    for v in lifted.vectors:
        full = v.full()
        assert abs(np.real(full.conj() @ gamma_ext.mat @ full)) <= 1e-10


def test_extended_zero_set_rejects_degenerate_input(swap):
    base = collect_zero_set(swap, seed=0)
    for case in integer_cases({
        "d_ap": (lambda x: extended_zero_set(base, x, 2), "cap dimension", 1),
        "d_bp": (lambda x: extended_zero_set(base, 2, x), "cap dimension", 1),
    }):
        check_integer_case(*case.values)
    empty = type(base)(vectors=(), span_rank=0)
    with pytest.raises(ValueError):
        extended_zero_set(empty, 2, 2)


def test_expectation_of_extension_factorizes(choi):
    rho = choi_detected_ppt_state()
    base_value = expectation(choi, rho)
    for seed in range(5):
        wl = random_psd(2, rng_from(seed, 0))
        wr = random_psd(2, rng_from(seed, 1))
        sl = random_density(2, rng_from(seed, 2))
        sr = random_density(2, rng_from(seed, 3))
        ext_w = extend_witness(choi, ExtensionSpec(wl, wr))
        ext_s = extend_state(rho, ExtensionSpec(sl, sr))
        got = expectation(ext_w, ext_s)
        want = (
            np.trace(wl.mat @ sl.mat).real
            * base_value
            * np.trace(wr.mat @ sr.mat).real
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_extended_witness_keeps_product_positivity(choi, swap):
    for k, w in enumerate((choi, swap)):
        spec = ExtensionSpec(
            random_psd(2, rng_from(50 + k, 0)), random_psd(2, rng_from(50 + k, 1))
        )
        ext = extend_witness(w, spec)
        cert = certify_witness(ext, restarts=16, seed=k)
        assert cert.min_product.best_value >= -1e-8
