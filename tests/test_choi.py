import numpy as np
import pytest

from entwit import (
    AbParams,
    HermitianOperator,
    LayoutError,
    SystemLayout,
    certify_indecomposable,
    choi_detected_ppt_state,
    closed_form_values,
    detection_values,
    eigh,
    expectation,
    is_psd,
    maximally_entangled_vector,
    nontrivial_extension_exhibit,
    partial_transpose,
    projector,
    random_psd,
    rho_abb,
    rho_abb_matrix,
    rng_from,
)
from entwit.choi import CLOSED_FORM_SCALE
import entwit.choi as choi_module
import entwit.extension as extension_module
import entwit.operators as operators_module
from oracle_utils import choi_detected_ppt_state_loops, choi_witness_loops, rho_abb_blocks

# frozen 9x9 reference, written out longhand from the defining recipe:
# +1 on each |i, i-1> diagonal slot, +2 on each |ii>, -1 on every |ii><jj|
CHOI_MATRIX = np.array(
    [
        [1, 0, 0, 0, -1, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0],
        [-1, 0, 0, 0, -1, 0, 0, 0, 1],
    ],
    dtype=complex,
)


def test_choi_witness_matches_frozen_matrix(choi):
    np.testing.assert_array_equal(choi.mat, CHOI_MATRIX)
    assert choi.layout == SystemLayout((3, 3), 1)


def test_choi_spectrum_and_extremal_vector(choi):
    vals, vecs = eigh(choi)
    np.testing.assert_allclose(
        vals, [2, 2, 1, 1, 1, 0, 0, 0, -1], atol=1e-10
    )
    psi = maximally_entangled_vector(3)
    assert abs(psi.conj() @ vecs[:, -1]) >= 1.0 - 1e-9


def test_choi_vanishes_on_a_computational_product(choi):
    e01 = np.zeros(9)
    e01[1] = 1.0
    rho = HermitianOperator(np.outer(e01, e01), SystemLayout((3, 3), 1))
    assert expectation(choi, rho) == 0.0


def test_choi_operators_equal_their_index_loops_exactly(choi):
    assert np.array_equal(choi.mat, choi_witness_loops())
    assert np.array_equal(choi_detected_ppt_state().mat, choi_detected_ppt_state_loops())


def test_rho_abb_matrix_equals_block_assembly_exactly():
    rng = np.random.default_rng(12)
    for _ in range(60):
        g = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        a, b = (m + m.conj().T for m in g)  # signed: indefinite in general
        assert np.array_equal(rho_abb_matrix(a, b), rho_abb_blocks(a, b))


def test_ab_params_validation():
    p = AbParams()
    np.testing.assert_array_equal(p.a, np.ones((2, 2)))
    np.testing.assert_array_equal(p.b, np.eye(2))
    with pytest.raises(ValueError):
        AbParams(a=np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        AbParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)))
    AbParams(a=random_psd(2, seed=1), b=random_psd(2, seed=2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AbParams(a=np.eye(3)), "a must be 2x2, got (3, 3)"),
        (lambda: AbParams(b=np.ones(2)), "b must be 2x2, got (2,)"),
        (lambda: rho_abb_matrix(np.ones((2, 3)), np.eye(2)), "a must be 2x2, got (2, 3)"),
        (lambda: rho_abb_matrix(np.eye(2), np.ones(3)), "b must be 2x2, got (3,)"),
        (lambda: detection_values(AbParams(), np.eye(3)), "cap must be 2x2, got (3, 3)"),
        (lambda: closed_form_values(AbParams(), [[1.0]]), "cap must be 2x2, got (1, 1)"),
    ],
    ids=["params-a", "params-b", "raw-a", "raw-b", "detection-cap", "closed-form-cap"],
)
def test_qubit_blocks_name_their_wrong_shape(call, message):
    with pytest.raises(LayoutError) as err:
        call()
    assert str(err.value) == message


def test_rho_abb_matrix_block_structure():
    rng = np.random.default_rng(4)
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a, b = ga @ ga.conj().T, gb @ gb.conj().T
    raw = rho_abb_matrix(a, b)
    assert raw.shape == (18, 18)
    assert np.trace(raw) == pytest.approx(3.0 * np.trace(a + b).real, abs=1e-12)
    # coherence term: block (i, j) is a at middle-row i, middle-column j
    blk = raw.reshape(3, 6, 3, 6)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            want = np.zeros((6, 6), dtype=complex)
            want[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = a
            np.testing.assert_allclose(blk[i, :, j, :], want, atol=1e-13)


def test_rho_abb_matrix_diagonal_blocks_cycle():
    rng = np.random.default_rng(9)
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a, b = ga @ ga.conj().T, gb @ gb.conj().T
    raw = rho_abb_matrix(a, b)
    blk = raw.reshape(3, 6, 3, 6)
    zero = np.zeros((2, 2))
    # diagonal block i places a at slot i and b at slot i-1 (cyclically)
    def slots(block):
        return [block[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] for k in range(3)]

    np.testing.assert_allclose(slots(blk[0, :, 0, :]), [a, zero, b], atol=1e-13)
    np.testing.assert_allclose(slots(blk[1, :, 1, :]), [b, a, zero], atol=1e-13)
    np.testing.assert_allclose(slots(blk[2, :, 2, :]), [zero, b, a], atol=1e-13)


def test_rho_abb_matrix_psd_iff_both_blocks_psd():
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        ha = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = (ha + ha.conj().T) / 2
        b = (hb + hb.conj().T) / 2
        want = (
            np.linalg.eigvalsh(a).min() >= -1e-9
            and np.linalg.eigvalsh(b).min() >= -1e-9
        )
        got = np.linalg.eigvalsh(rho_abb_matrix(a, b)).min() >= -1e-9
        assert got == want


def test_rho_abb_normalization_and_transposed_third_system():
    state = rho_abb(AbParams())
    assert state.trace == pytest.approx(1.0, abs=1e-12)
    assert state.layout == SystemLayout((3, 3, 2), 1)
    assert is_psd(state)
    assert is_psd(partial_transpose(state, subsystems=(2,)), tol=1e-10)


def test_detection_values_match_closed_forms_up_to_fixed_scale():
    assert CLOSED_FORM_SCALE == pytest.approx(1.0 / 3.0, abs=1e-15)
    for seed in range(20):
        params = AbParams(
            a=random_psd(2, rng_from(seed, 0)), b=random_psd(2, rng_from(seed, 1))
        )
        cap = random_psd(2, rng_from(seed, 2))
        ext, red = detection_values(params, cap)
        cext, cred = closed_form_values(params, cap)
        assert abs(ext - CLOSED_FORM_SCALE * cext) <= 1e-9 * max(1.0, abs(cext))
        assert abs(red - CLOSED_FORM_SCALE * cred) <= 1e-9 * max(1.0, abs(cred))


def test_identity_cap_adds_nothing():
    for seed in range(5):
        params = AbParams(
            a=random_psd(2, rng_from(seed, 5)), b=random_psd(2, rng_from(seed, 6))
        )
        ext, red = detection_values(params, np.eye(2))
        assert ext == pytest.approx(red, abs=1e-12)


def test_equal_blocks_escape_detection():
    a = random_psd(2, seed=13).mat
    params = AbParams(a=a, b=a)
    ext, red = detection_values(params, random_psd(2, seed=14))
    assert ext == pytest.approx(0.0, abs=1e-12)
    assert red == pytest.approx(0.0, abs=1e-12)


def test_exhibit_frozen_values():
    rep = nontrivial_extension_exhibit()
    assert rep.ext_value == pytest.approx(-0.5, abs=1e-12)
    assert rep.reduced_value == pytest.approx(0.0, abs=1e-10)
    assert rep.closed_ext == pytest.approx(-1.5, abs=1e-12)
    assert rep.closed_reduced == pytest.approx(0.0, abs=1e-10)
    assert rep.scale == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.state_psd
    assert rep.gamma_bprime_psd


def test_exhibit_checks_its_cap_once_and_builds_its_state_once(monkeypatch):
    # Every module holding the PSD owner is patched, so a cap check is
    # counted wherever it is made.
    cap_checks, builds = [], []
    psd_matrix, build = operators_module._psd_matrix, choi_module.rho_abb

    def counting_psd_matrix(M, n, what, tol):
        if what == "cap":
            cap_checks.append(what)
        return psd_matrix(M, n, what, tol)

    def counting_build(params):
        builds.append(params)
        return build(params)

    for module in (operators_module, choi_module, extension_module):
        if hasattr(module, "_psd_matrix"):
            monkeypatch.setattr(module, "_psd_matrix", counting_psd_matrix)
    monkeypatch.setattr(choi_module, "rho_abb", counting_build)
    rep = nontrivial_extension_exhibit()
    assert len(cap_checks) == 1 and len(builds) == 1
    np.testing.assert_array_equal(rep.params.a, np.ones((2, 2)))
    np.testing.assert_array_equal(rep.params.b, np.eye(2))
    np.testing.assert_array_equal(rep.cap_right, np.ones((2, 2)))
    assert rep[2:] == (-0.5, 0.0, -1.5, 0.0, 1.0 / 3.0, True, True)


def test_exhibit_rejects_flipped_weights():
    with pytest.raises(ValueError):
        nontrivial_extension_exhibit(AbParams(a=np.eye(2), b=np.ones((2, 2))))


def test_exhibit_threshold_scales_with_the_cap():
    # the extension value is linear in the cap, and so is the threshold it must beat
    for c in (1e-12, 1e-8, 1.0, 1e8):
        rep = nontrivial_extension_exhibit(cap_right=c * np.ones((2, 2)))
        assert rep.ext_value == pytest.approx(-c / 2, rel=1e-12)
    with pytest.raises(ValueError, match="not negative"):
        nontrivial_extension_exhibit(cap_right=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="not negative"):
        nontrivial_extension_exhibit(AbParams(a=np.eye(2), b=np.ones((2, 2))))


def test_closed_forms_are_real_at_any_cap_scale():
    # the imaginary-part guard is relative to the cap and the blocks, so a
    # cap the exhibit accepts at c = 1 passes at every c > 0
    params = AbParams()
    rng = np.random.default_rng(5)
    g = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    caps = [m @ m.conj().T for m in g]
    caps = [cap for cap in caps if closed_form_values(params, cap)[0] < 0]
    assert len(caps) > 80
    for cap in caps:
        ext = closed_form_values(params, cap)[0]
        for c in (1e-12, 1e-8, 1e-4, 1e4, 1e6, 1e8, 1e12):
            assert closed_form_values(params, c * cap)[0] == pytest.approx(c * ext)
        rep = nontrivial_extension_exhibit(params, 1e12 * cap)
        assert rep.ext_value == pytest.approx(CLOSED_FORM_SCALE * rep.closed_ext, rel=1e-9)


def test_exhibit_names_a_negative_value_that_misses_the_threshold():
    # -1e-7 is negative, just not below -1e-6 * CLOSED_FORM_SCALE * ||cap||_F
    with pytest.raises(ValueError) as info:
        nontrivial_extension_exhibit(AbParams(b=(1 - 1e-7) * np.ones((2, 2))))
    message = str(info.value)
    assert message.startswith("extension value -1e-07 is negative but not below -6.66667e-07:")
    assert "not negative" not in message


def test_detected_ppt_state(choi):
    rho = choi_detected_ppt_state()
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    assert is_psd(rho, tol=1e-12)
    assert is_psd(partial_transpose(rho), tol=1e-12)
    assert expectation(choi, rho) == pytest.approx(-1.0 / 7.0, abs=1e-12)
    assert certify_indecomposable(choi, rho)
