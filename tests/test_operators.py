import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    AbParams,
    ExtensionSpec,
    HermitianOperator,
    LayoutError,
    MdiewScenario,
    NumericalError,
    ProductVector,
    StateBasis,
    SystemLayout,
    basis_vector,
    closed_form_values,
    detection_values,
    eigh,
    extend_state,
    is_psd,
    kron,
    maximally_entangled_vector,
    mdiew_value,
    nontrivial_extension_exhibit,
    partial_trace,
    partial_transpose,
    projector,
    single_system,
    swap_witness,
)
from integer_args import check_integer_case, integer_cases
from oracle_utils import partial_trace_loops, partial_transpose_loops


def _random_hermitian(dims, seed):
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianOperator((g + g.conj().T) / 2, SystemLayout(tuple(dims), 1))


def test_layout_properties():
    lay = SystemLayout((2, 3, 4), 2)
    assert lay.left_dims == (2, 3)
    assert lay.right_dims == (4,)
    assert lay.left_dim == 6
    assert lay.right_dim == 4
    assert lay.total_dim == 24
    assert lay.n_subsystems == 3
    assert single_system(5) == SystemLayout((5,), 1)
    numpy_ints = SystemLayout((np.int64(2), np.int32(3)), np.int64(1))
    assert all(type(x) is int for x in (*numpy_ints.dims, numpy_ints.cut))


def test_layout_rejects_bad_input():
    with pytest.raises(LayoutError, match="number of subsystems must be >= 1, got 0"):
        SystemLayout((), 0)
    with pytest.raises(LayoutError, match="subsystem dimension must be >= 1, got 0"):
        SystemLayout((2, 0), 1)
    with pytest.raises(LayoutError):
        SystemLayout((2, 2), 3)
    with pytest.raises(LayoutError):
        SystemLayout((4,), 1).require_bipartite()
    # dims and cut are checked, never coerced: 2.5 is no 2, and "2" or True no dimension
    for dims, cut in (((2.5, 2), 1), ((2, 2), 1.5), ((2.0, 2), 1), (("2", 2), 1),
                      ((True, 2), 1), ((2, 2), True), (2, 1), (None, 1)):
        with pytest.raises(LayoutError, match="must be"):
            SystemLayout(dims, cut)
    assert SystemLayout((np.int64(2), 2), np.int64(1)) == SystemLayout((2, 2), 1)


@pytest.mark.parametrize("call, value, message", integer_cases({
    "partial_transpose": (
        lambda x: partial_transpose(_random_hermitian((2, 2), 0), [x]), "subsystem index", 0,
    ),
    "partial_trace": (
        lambda x: partial_trace(_random_hermitian((2, 2), 0), keep=[x]), "subsystem index", 0,
    ),
    "basis_vector-d": (lambda x: basis_vector(x, 0), "dimension", 1),
    "basis_vector-k": (lambda x: basis_vector(2, x), "basis index", 0),
    "maximally_entangled_vector": (maximally_entangled_vector, "dimension", 1),
    "swap_witness": (swap_witness, "dimension", 2),
}, values=(True, 1.0, 1.7, "1")) + [
    pytest.param(lambda x: basis_vector(2, x), 2, "basis index 2 out of range for dimension 2",
                 id="basis_vector-k-above"),
    pytest.param(lambda x: basis_vector(2, x), 5, "basis index 5 out of range for dimension 2",
                 id="basis_vector-k-far-above"),
    pytest.param(lambda x: partial_transpose(_random_hermitian((2, 2), 0), [x]), 5,
                 "subsystem index 5 out of range for dims (2, 2)", id="partial_transpose-above"),
])
def test_operator_integers_are_checked_not_coerced(call, value, message):
    # a subsystem index of 1.7 or True is no 1, no dimension is 0, and a
    # basis index is below its dimension
    check_integer_case(call, value, message)


def test_hermitian_operator_validation():
    lay = SystemLayout((2, 2), 1)
    with pytest.raises(LayoutError):
        HermitianOperator(np.eye(3), lay)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NumericalError):
        HermitianOperator(skew, single_system(2))
    op = HermitianOperator(np.diag([1.0, 2.0, 3.0, 4.0]), lay)
    assert op.trace == pytest.approx(10.0)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 99.0


@pytest.mark.parametrize(
    "mat, message",
    [
        (np.zeros((2, 3)), "operator must be 4x4, got (2, 3)"),
        (np.eye(9), "operator must be 4x4, got (9, 9)"),
        (np.ones(4), "operator must be 4x4, got (4,)"),
    ],
    ids=["not-square", "wrong-side", "vector"],
)
def test_operator_names_the_shape_its_layout_needs(mat, message):
    with pytest.raises(LayoutError) as err:
        HermitianOperator(mat, SystemLayout((2, 2), 1))
    assert str(err.value) == message


_SKEW_DEFECT = "is not Hermitian: relative defect 1.0e+00 > 1e-12"
_NOT_PSD_AT = "is not positive semidefinite at relative tolerance"
_NOT_HERMITIAN = np.array([[1.0, 1.0], [0.0, 1.0]])
_NOT_PSD = np.diag([1.0, -1.0])


def _value_with_left_povm(povm_left):
    rho = HermitianOperator(np.eye(4) / 4, SystemLayout((2, 2), 1))
    return mdiew_value(MdiewScenario.ideal(swap_witness()), rho, povm_left)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ExtensionSpec(np.ones(2), np.eye(2)), LayoutError,
         "cap_left must be 2x2, got (2,)"),
        (lambda: ExtensionSpec(1.0, np.eye(2)), LayoutError, "cap_left must be 1x1, got ()"),
        (lambda: ExtensionSpec(np.eye(2), np.ones((2, 3))), LayoutError,
         "cap_right must be 2x2, got (2, 3)"),
        (lambda: ExtensionSpec(_NOT_HERMITIAN, np.eye(2)), ValueError,
         f"cap_left {_SKEW_DEFECT}"),
        (lambda: ExtensionSpec(np.eye(2), _NOT_PSD), ValueError,
         f"cap_right {_NOT_PSD_AT} 1e-10"),
        (lambda: AbParams(a=_NOT_PSD), ValueError, f"a {_NOT_PSD_AT} 1e-10"),
        (lambda: AbParams(b=_NOT_PSD), ValueError, f"b {_NOT_PSD_AT} 1e-10"),
        (lambda: detection_values(AbParams(), _NOT_PSD), ValueError,
         f"cap {_NOT_PSD_AT} 1e-10"),
        (lambda: closed_form_values(AbParams(), _NOT_PSD), ValueError,
         f"cap {_NOT_PSD_AT} 1e-10"),
        (lambda: nontrivial_extension_exhibit(cap_right=_NOT_PSD), ValueError,
         f"cap {_NOT_PSD_AT} 1e-10"),
        (lambda: StateBasis((np.diag([2.0, -1.0]),)), ValueError,
         f"member 0 {_NOT_PSD_AT} 1e-09"),
        # trace 0 as well: the PSD check comes first
        (lambda: StateBasis((_NOT_PSD,)), ValueError, f"member 0 {_NOT_PSD_AT} 1e-09"),
        (lambda: extend_state(swap_witness(), ExtensionSpec(np.eye(2), np.eye(2))),
         ValueError, f"state to extend {_NOT_PSD_AT} 1e-09"),
        (lambda: HermitianOperator(_NOT_HERMITIAN, single_system(2)), NumericalError,
         f"operator {_SKEW_DEFECT}"),
        (lambda: _value_with_left_povm(np.triu(np.ones((4, 4)))), NumericalError,
         f"left POVM element {_SKEW_DEFECT}"),
    ],
    ids=[
        "cap-vector", "cap-scalar", "cap-not-square", "cap-not-hermitian", "cap-not-psd",
        "choi-a", "choi-b", "choi-detection-cap", "choi-closed-form-cap",
        "choi-exhibit-cap", "basis-member", "basis-member-not-psd-first", "extend-state",
        "operator", "povm-element",
    ],
)
def test_matrix_arguments_are_named_in_their_errors(call, error, message):
    # shape, Hermiticity and PSD each have one owner; the message names the argument
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_operator_cap_is_kept_as_given():
    # its layout, cut 0 included, is what extend echoes
    cap = HermitianOperator(np.eye(2), SystemLayout((2,), 0))
    spec = ExtensionSpec(cap, np.eye(3))
    assert spec.cap_left is cap
    assert spec.cap_right.layout == single_system(3)


def test_partial_trace_keeps_at_least_one_subsystem():
    with pytest.raises(LayoutError, match="^keep set must be nonempty$"):
        partial_trace(swap_witness(), keep=[])


def test_product_vector_requires_unit_factors():
    good = ProductVector((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    np.testing.assert_allclose(good.full(), [0.0, 1.0, 0.0, 0.0])
    assert good.dims == (2, 2)
    with pytest.raises(NumericalError):
        ProductVector((np.array([1.0, 1.0]), np.array([1.0, 0.0])))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ProductVector((np.ones(2),)), NumericalError,
         "factor 0 has norm 1.4142135623730951, expected 1"),
        (lambda: StateBasis((2 * np.eye(1),)), ValueError, "member 0 has trace 2.0, expected 1"),
    ],
    ids=["norm", "trace"],
)
def test_messages_print_plain_floats(call, error, message):
    # numpy scalars would print as np.float64(...)
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_kron_places_cut_between_operands():
    a = _random_hermitian((2,), 1)
    b = _random_hermitian((3,), 2)
    prod = kron(a, b)
    assert prod.layout == SystemLayout((2, 3), 1)
    np.testing.assert_array_equal(prod.mat, np.kron(a.mat, b.mat))


@pytest.mark.parametrize(
    "dims,subsystems",
    [((2, 2), None), ((2, 3, 2), (1,)), ((2, 2, 2, 2), (0, 3)), ((3, 3), (0,))],
)
def test_partial_transpose_matches_loop_oracle(dims, subsystems):
    op = _random_hermitian(dims, seed=sum(dims))
    out = partial_transpose(op, subsystems=subsystems)
    flagged = subsystems if subsystems is not None else tuple(
        range(op.layout.cut, len(dims))
    )
    expect = partial_transpose_loops(op.mat, dims, flagged)
    np.testing.assert_array_equal(out.mat, expect)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d1=st.integers(2, 3), d2=st.integers(2, 3))
def test_partial_transpose_involution_and_trace(seed, d1, d2):
    op = _random_hermitian((d1, d2), seed)
    once = partial_transpose(op)
    twice = partial_transpose(once)
    np.testing.assert_array_equal(twice.mat, op.mat)
    assert once.trace == pytest.approx(op.trace, abs=1e-12)


def test_transposed_entangled_projector_spectrum():
    # the maximally entangled projector flips to +-1/d under one-sided transpose
    for d in (2, 3):
        p = HermitianOperator(
            projector(maximally_entangled_vector(d)), SystemLayout((d, d), 1)
        )
        vals = eigh(partial_transpose(p))[0]
        assert vals[0] == pytest.approx(1.0 / d, abs=1e-12)
        assert vals[-1] == pytest.approx(-1.0 / d, abs=1e-12)


@pytest.mark.parametrize(
    "dims,keep", [((2, 3), (0,)), ((2, 3), (1,)), ((2, 2, 3), (0, 2)), ((2, 3), (0, 1))]
)
def test_partial_trace_matches_loop_oracle(dims, keep):
    op = _random_hermitian(dims, seed=7 * sum(dims))
    out = partial_trace(op, keep=keep)
    expect = partial_trace_loops(op.mat, dims, keep)
    np.testing.assert_allclose(out.mat, expect, atol=1e-13)
    assert out.trace == pytest.approx(op.trace, abs=1e-12)


def test_partial_trace_of_kron_factorizes():
    a = _random_hermitian((2,), 11)
    b = _random_hermitian((3,), 12)
    joint = kron(a, b)
    left = partial_trace(joint, keep=(0,))
    np.testing.assert_allclose(left.mat, a.mat * b.trace, atol=1e-13)


@pytest.mark.parametrize("side", [2, 3, 6, 9, 16, 36])
def test_eigh_descending_with_tight_residual(side):
    for seed in range(4):
        rng = np.random.default_rng(1000 * side + seed)
        g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        op = HermitianOperator((g + g.conj().T) / 2, single_system(side))
        vals, vecs = eigh(op)
        assert np.all(np.diff(vals) <= 1e-14)
        residual = np.linalg.norm(op.mat @ vecs - vecs * vals)
        assert residual <= 1e-10 * np.linalg.norm(op.mat)
        np.testing.assert_allclose(
            vecs.conj().T @ vecs, np.eye(side), atol=1e-12
        )


def test_is_psd_threshold():
    assert is_psd(HermitianOperator(np.eye(2), single_system(2)))
    dipped = HermitianOperator(np.diag([1.0, -5e-10]), single_system(2))
    assert is_psd(dipped, tol=1e-9)
    sunk = HermitianOperator(np.diag([1.0, -1e-8]), single_system(2))
    assert not is_psd(sunk, tol=1e-9)


def test_basis_projector_and_entangled_vector():
    e1 = basis_vector(3, 1)
    np.testing.assert_array_equal(e1, [0.0, 1.0, 0.0])
    p = projector(np.array([1.0, 1j]) / np.sqrt(2))
    np.testing.assert_allclose(p, p.conj().T)
    assert np.trace(p) == pytest.approx(1.0)
    np.testing.assert_allclose(p @ p, p, atol=1e-15)
    for d in (2, 3):
        v = maximally_entangled_vector(d)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(
            v.reshape(d, d), np.eye(d) / np.sqrt(d), atol=1e-15
        )
