import numpy as np
import pytest

from entwit import (
    AbParams,
    ExtensionSpec,
    HermitianOperator,
    NumericalError,
    SystemLayout,
    certify_witness,
    choi_detected_ppt_state,
    closed_form_values,
    collect_zero_set,
    detection_values,
    expectation,
    extend_state,
    extend_witness,
    extended_zero_set,
    is_psd,
    partial_trace,
    partial_transpose,
    random_density,
    random_psd,
    rng_from,
    single_system,
    span_rank,
)
import entwit.operators as operators_module
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


@pytest.mark.parametrize("tol, passes", [(1e-6, True), (1e-10, False)])
def test_one_tolerance_decides_every_cap_check(monkeypatch, tol, passes):
    # The extension's caps and the Choi exhibit's cap are checked at one
    # relative tolerance: moving it moves both checks.  The cap's least
    # eigenvalue is -1e-8 relative to its largest.
    monkeypatch.setattr(operators_module, "CAP_PSD_TOL", tol)
    cap = np.diag([1.0, -1e-8])
    checks = [
        ("cap_left", lambda: ExtensionSpec(cap, np.eye(2))),
        ("cap", lambda: detection_values(AbParams(), cap)),
        ("cap", lambda: closed_form_values(AbParams(), cap)),
    ]
    for what, check in checks:
        if passes:
            check()
            continue
        message = f"{what} is not positive semidefinite at relative tolerance 1e-10"
        with pytest.raises(ValueError, match=message):
            check()


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


def test_an_extension_beyond_the_largest_float_is_rejected(swap):
    # the Kronecker products overflow; the operator check, not numpy, reports it
    spec = ExtensionSpec(1e200 * np.eye(2), 1e200 * np.eye(2))
    with pytest.raises(NumericalError, match="non-finite entries"):
        extend_witness(swap, spec)


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
    # Gamma only moves entries, so Gamma(cap_left (x) W (x) cap_right) and
    # cap_left (x) Gamma(W) (x) cap_right^T are the same products of the
    # same floats, at any scale and for any dims
    cases = [
        (choi, ExtensionSpec(random_psd(2, seed=0), random_psd(3, seed=10))),
        (swap, ExtensionSpec(random_psd(2, seed=1), random_psd(3, seed=11))),
    ]
    rng = rng_from(21)
    for _ in range(300):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=2))
        n = dims[0] * dims[1]
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        scale = 10.0 ** rng.uniform(-50, 50)
        w = HermitianOperator(scale * (g + g.conj().T), SystemLayout(dims, 1))
        caps = (random_psd(int(d), rng) for d in rng.integers(1, 4, size=2))
        cases.append((w, ExtensionSpec(*caps)))
    for w, spec in cases:
        lhs = partial_transpose(extend_witness(w, spec)).mat
        rhs = np.kron(
            np.kron(spec.cap_left.mat, partial_transpose(w).mat), spec.cap_right.mat.T
        )
        assert np.array_equal(lhs, rhs)


def test_extended_zero_set_multiplies_rank(swap):
    base = collect_zero_set(swap, seed=0)
    assert base.span_rank == 4
    lifted = extended_zero_set(base, 2, 2)
    assert lifted.span_rank == 16
    assert span_rank(lifted.vectors) == 16
    spec = ExtensionSpec(random_psd(2, seed=2), random_psd(2, seed=3))
    ext = extend_witness(swap, spec)
    for full in lifted.vectors:
        assert abs(np.real(full.conj() @ ext.mat @ full)) <= 1e-10


def test_extended_zero_set_lifts_a_lifted_set(swap):
    # a lift is a product across A'A | BB', so a lifted set lifts again, onto
    # the zeros of the witness extended twice
    base = collect_zero_set(swap, seed=0)
    inner = ExtensionSpec(random_psd(2, seed=2), random_psd(3, seed=3))
    outer = ExtensionSpec(random_psd(3, seed=4), random_psd(2, seed=5))
    twice = extended_zero_set(extended_zero_set(base, *inner.dims), *outer.dims)
    assert twice.span_rank == span_rank(twice.vectors) == base.span_rank * 2 * 3 * 3 * 2
    assert twice.vectors.shape == (len(base.vectors) * 36, 144)
    assert not twice.vectors.flags.writeable
    ext = extend_witness(extend_witness(swap, inner), outer)
    for full in twice.vectors:
        assert abs(np.real(full.conj() @ ext.mat @ full)) <= 1e-10


def test_extended_zero_set_transposed_side(swap):
    flipped = partial_transpose(swap)
    base = collect_zero_set(flipped, seed=0)
    assert base.span_rank == 3
    lifted = extended_zero_set(base, 2, 2)
    assert lifted.span_rank == 12
    assert span_rank(lifted.vectors) == 12
    spec = ExtensionSpec(random_psd(2, seed=4), random_psd(2, seed=5))
    gamma_ext = partial_transpose(extend_witness(swap, spec))
    for full in lifted.vectors:
        assert abs(np.real(full.conj() @ gamma_ext.mat @ full)) <= 1e-10


def test_extended_zero_set_rejects_degenerate_input(swap):
    base = collect_zero_set(swap, seed=0)
    for case in integer_cases({
        "d_ap": (lambda x: extended_zero_set(base, x, 2), "cap dimension", 1),
        "d_bp": (lambda x: extended_zero_set(base, 2, x), "cap dimension", 1),
    }):
        check_integer_case(*case.values)
    empty = type(base)(vectors=(), span_rank=0, conjugated_rank=0)
    with pytest.raises(ValueError):
        extended_zero_set(empty, 2, 2)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_extended_zero_set_lifts_an_empty_set(choi, seed):
    # choi + 0.1 I is a witness (product minimum 0.1, least eigenvalue -0.9)
    # with no product zero; its empty zero set lifts to an empty stack
    shifted = HermitianOperator(choi.mat + 0.1 * np.eye(9), choi.layout)
    cert = certify_witness(shifted, seed=seed)
    assert cert.is_witness_numeric
    base = collect_zero_set(shifted, seesaw=cert.min_product)
    assert base.vectors.shape == (0, 9) and base.span_rank == 0
    lifted = extended_zero_set(base, 2, 3)
    assert lifted.vectors.shape == (0, 54) and lifted.span_rank == 0
    assert not lifted.vectors.flags.writeable


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
