import json

import numpy as np
import pytest

import entwit.mdiew as mdiew_module
from entwit import (
    HermitianOperator,
    LayoutError,
    MdiewScenario,
    NumericalError,
    StateBasis,
    SystemLayout,
    choi_witness,
    expectation,
    ideal_projector,
    maximally_entangled_vector,
    mdiew_value,
    projector,
    random_density,
    random_povm_first_element,
    random_separable,
    random_unitary,
    rng_from,
    separable_nonnegativity_audit,
    swap_witness,
    tomographic_basis,
)
from integer_args import check_integer_case, integer_cases
from oracle_utils import (
    audit_trial_reference, decomposition_reference, joint_probability_loops,
)

# the three small measurement modes, and arbitrary effects embedded in
# spaces larger than both measurement spaces of choi
AUDIT_MODES = [
    ("ideal", None), ("arbitrary", None), ("misaligned", None), ("arbitrary", (10, 11)),
]

# the bundled fixtures, a complex rotation of choi, and two cap extensions
# (parties 6 x 6 and 4 x 6)
OPERATORS = ["choi", "swap", "rotated-choi", "capped-choi", "capped-swap"]


@pytest.fixture(scope="module")
def named(choi, swap, rotated_choi, capped_choi, capped_swap):
    return {
        "choi": choi, "swap": swap, "rotated-choi": rotated_choi,
        "capped-choi": capped_choi, "capped-swap": capped_swap,
    }


def _as_state(mat, dims):
    return HermitianOperator(mat, SystemLayout(dims, 1))


def test_tomographic_basis_is_informationally_complete():
    for d in (2, 3):
        basis = tomographic_basis(d)
        assert len(basis) == d * d
        stacked = np.stack([s.ravel() for s in basis.states])
        assert np.linalg.matrix_rank(stacked) == d * d
        for s in basis.states:
            assert np.trace(s).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(s).min() >= -1e-12


def test_state_basis_rejects_dependent_members():
    basis = tomographic_basis(2)
    dup = basis.states[:3] + (basis.states[0],)
    with pytest.raises(ValueError) as err:
        StateBasis(dup)
    assert "3" in str(err.value)


def test_state_basis_rejects_non_states():
    basis = list(tomographic_basis(2).states)
    basis[1] = basis[1] * 2.0
    with pytest.raises(Exception):
        StateBasis(tuple(basis))


def test_scenario_beta_residuals(choi, swap):
    for w in (choi, swap):
        d_a = w.layout.left_dim
        d_b = w.layout.right_dim
        bl, br = tomographic_basis(d_a), tomographic_basis(d_b)
        sc = MdiewScenario(w, bl, br)
        beta = sc.beta
        assert beta.dtype == np.float64
        assert sc.residual <= 1e-9
        with pytest.raises(ValueError):
            beta[0, 0] = 1.0


def test_decompose_product_operator_gives_indicator():
    bl = tomographic_basis(2)
    br = tomographic_basis(2)
    mat = np.kron(bl.states[2], br.states[3])
    op = HermitianOperator(mat, SystemLayout((2, 2), 1))
    beta = MdiewScenario(op, bl, br).beta
    want = np.zeros((4, 4))
    want[2, 3] = 1.0
    np.testing.assert_allclose(beta, want, atol=1e-10)


@pytest.mark.parametrize("name", OPERATORS)
def test_beta_matches_least_squares_oracle(name, named):
    w = named[name]
    bl, br = tomographic_basis(w.layout.left_dim), tomographic_basis(w.layout.right_dim)
    beta = MdiewScenario(w, bl, br).beta
    want = decomposition_reference(w.mat, bl.states, br.states)
    assert np.abs(beta - want).max() <= 1e-12 * np.linalg.norm(w.mat)


def _rotated_basis(d, seed):
    """U sigma U^H over the tomographic basis, for a Haar U: complete, but
    neither real nor made of the computational and Fourier projectors."""
    u = random_unitary(d, seed)
    return StateBasis(tuple(u @ s @ u.conj().T for s in tomographic_basis(d).states))


@pytest.mark.parametrize("name", ["choi", "swap", "rotated-choi", "capped-swap"])
def test_beta_on_rotated_bases_matches_least_squares_oracle(name, named):
    w = named[name]
    seed = OPERATORS.index(name)
    bl = _rotated_basis(w.layout.left_dim, rng_from(seed, 60))
    br = _rotated_basis(w.layout.right_dim, rng_from(seed, 61))
    sc = MdiewScenario(w, bl, br)
    want = decomposition_reference(w.mat, bl.states, br.states)
    assert np.abs(sc.beta - want).max() <= 1e-12 * np.linalg.norm(w.mat)
    assert sc.residual <= 1e-9 * np.linalg.norm(w.mat)


def test_decompose_dimension_mismatch(choi):
    with pytest.raises(Exception):
        MdiewScenario(choi, tomographic_basis(2), tomographic_basis(3))


@pytest.mark.parametrize("factor, message", [
    (1 + 1e-3j, "imaginary part"),  # beta picks up a phase
    (1 + 1e-6, "does not reconstruct"),  # beta is real but off by 2e-6
])
def test_scenario_guards_its_solve(choi, monkeypatch, factor, message):
    bl, br = tomographic_basis(3), tomographic_basis(3)
    solve = np.linalg.solve
    monkeypatch.setattr(
        mdiew_module.np.linalg, "solve", lambda a, b: factor * solve(a, b)
    )
    with pytest.raises(NumericalError, match=message):
        MdiewScenario(choi, bl, br)


def test_scenario_ideal_construction(swap):
    sc = MdiewScenario.ideal(swap)
    assert sc.party_dims == (2, 2)
    rho = _as_state(random_density(4, seed=3).mat, (2, 2))
    ideal = mdiew_value(sc, rho, ideal_projector(2), ideal_projector(2))
    assert mdiew_value(sc, rho) == ideal
    with pytest.raises(NumericalError):
        mdiew_value(sc, rho, np.eye(4) * 2.0)
    with pytest.raises(NumericalError):
        mdiew_value(sc, rho, None, np.triu(np.ones((4, 4))))


def test_scenario_realigns_the_witness_once(monkeypatch, capsys):
    from entwit.cli import main

    calls = []
    realign = mdiew_module._realign

    def counted(*args):
        calls.append(args)
        return realign(*args)

    monkeypatch.setattr(mdiew_module, "_realign", counted)
    assert main(["mdiew", "decompose", "choi", "--quiet"]) == 0
    assert len(calls) == 1
    doc = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    assert doc["residual"] == MdiewScenario.ideal(choi_witness()).residual


def _one_click(rho, sigma_s, sigma_t, e_l, e_r):
    """P(0,0 | s, t) for one pair of inputs, from one-member stacks."""
    stacks = (rho[None], sigma_s[None], sigma_t[None], e_l[None], e_r[None])
    return float(mdiew_module._click_table(*stacks)[0, 0, 0])


def test_joint_probability_matches_loop_oracle():
    rho = random_density(4, seed=21).mat
    basis = tomographic_basis(2)
    e_l = random_povm_first_element(4, seed=22).mat
    e_r = random_povm_first_element(4, seed=23).mat
    for s in basis.states[:3]:
        for t in basis.states[-3:]:
            lib = _one_click(rho, s, t, e_l, e_r)
            orc = joint_probability_loops(rho, s, t, e_l, e_r, 2, 2)
            assert lib == pytest.approx(orc, abs=1e-12)
            assert 0.0 <= lib <= 1.0


def test_joint_probability_extreme_elements():
    rho = random_density(4, seed=31).mat
    basis = tomographic_basis(2)
    s, t = basis.states[1], basis.states[2]
    assert _one_click(rho, s, t, np.eye(4), np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert _one_click(rho, s, t, np.zeros((4, 4)), np.eye(4)) == 0.0


def test_ideal_measurement_reproduces_witness_value(choi, swap):
    for w, n in ((choi, 6), (swap, 6)):
        sc = MdiewScenario.ideal(w)
        d = w.layout.left_dim
        for seed in range(n):
            rho = _as_state(random_density(d * d, rng_from(seed, 40)).mat, (d, d))
            got = mdiew_value(sc, rho)
            want = expectation(w, rho) / (d * d)
            assert got == pytest.approx(want, abs=1e-9)


def test_frozen_ideal_values(choi, swap):
    sc = MdiewScenario.ideal(choi)
    ent = _as_state(projector(maximally_entangled_vector(3)), (3, 3))
    got = mdiew_value(sc, ent)
    assert got == pytest.approx(-1.0 / 9.0, abs=1e-9)
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    sw = MdiewScenario.ideal(swap)
    got = mdiew_value(sw, _as_state(projector(singlet), (2, 2)))
    assert got == pytest.approx(-0.25, abs=1e-9)


@pytest.mark.parametrize("mode", ["ideal", "arbitrary", "misaligned"])
def test_separable_audit_passes(swap, mode):
    report = separable_nonnegativity_audit(
        MdiewScenario.ideal(swap), trials=40, seed=0, povm_mode=mode
    )
    assert report.passed
    assert report.failures == ()
    assert report.min_value >= -1e-9
    assert report.max_route_gap <= 1e-9


def test_separable_audit_choi_short(choi):
    report = separable_nonnegativity_audit(
        MdiewScenario.ideal(choi), trials=15, seed=1, povm_mode="misaligned"
    )
    assert report.passed


def test_separable_audit_embedded(swap):
    report = separable_nonnegativity_audit(
        MdiewScenario.ideal(swap),
        trials=10,
        seed=2,
        povm_mode="arbitrary",
        embed_dims=(5, 6),
    )
    assert report.passed
    assert report.embed_dims == (5, 6)


def test_separable_audit_is_deterministic(swap):
    sc = MdiewScenario.ideal(swap)
    r1 = separable_nonnegativity_audit(sc, trials=12, seed=5)
    r2 = separable_nonnegativity_audit(sc, trials=12, seed=5)
    assert r1 == r2


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_separable_audit_flags_sign_violations(scale):
    neg = HermitianOperator(-scale * np.eye(4), SystemLayout((2, 2), 1))
    report = separable_nonnegativity_audit(
        MdiewScenario.ideal(neg), trials=6, seed=0
    )
    assert not report.passed
    assert len(report.failures) > 0
    assert report.min_value < -1e-9 * scale


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6, 1e8])
@pytest.mark.parametrize("name", OPERATORS)
def test_decompose_and_audit_do_not_depend_on_scale(name, scale, named):
    op = named[name]
    scaled = HermitianOperator(scale * op.mat, op.layout)
    sc = MdiewScenario.ideal(scaled)
    assert sc.residual <= 1e-9 * np.linalg.norm(scaled.mat)
    report = separable_nonnegativity_audit(sc, trials=100, seed=3)
    assert report.passed, report.failures[:3]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300])
@pytest.mark.parametrize("name", ["choi", "swap", "capped-choi", "capped-swap"])
def test_decompose_and_audit_hold_at_extreme_scales(name, scale, named):
    # ||scale * op||_F under- or overflows in np.linalg.norm at these scales,
    # so the residual bound is taken from the unscaled operator
    op = named[name]
    sc = MdiewScenario.ideal(HermitianOperator(scale * op.mat, op.layout))
    assert sc.residual <= 1e-9 * scale * np.linalg.norm(op.mat)
    for mode in ("ideal", "arbitrary", "misaligned"):
        report = separable_nonnegativity_audit(sc, trials=30, seed=3, povm_mode=mode)
        assert report.passed, (mode, report.failures[:3])


def test_separable_audit_rejects_unknown_mode(swap):
    with pytest.raises(ValueError):
        separable_nonnegativity_audit(
            MdiewScenario.ideal(swap), trials=2, seed=0, povm_mode="psychic"
        )


@pytest.mark.parametrize("call, value, message", integer_cases({
    "trials": (
        lambda x: separable_nonnegativity_audit(MdiewScenario.ideal(swap_witness()), trials=x),
        "trials", 1,
    ),
    "tomographic_basis": (tomographic_basis, "dimension", 2),
    "ideal_projector": (ideal_projector, "dimension", 1),
}, own="trials"))
def test_audit_trials_are_checked_not_coerced(call, value, message):
    # so are the dimensions of the input states and the ideal measurement
    check_integer_case(call, value, message)


@pytest.mark.parametrize("embed_dims", [(16.9, 5.5), (16, 5.0), ("16", 5)])
def test_audit_embed_dims_are_checked_not_coerced(swap, embed_dims):
    with pytest.raises(LayoutError, match="embed dim must be an integer"):
        separable_nonnegativity_audit(
            MdiewScenario.ideal(swap), trials=2, embed_dims=embed_dims
        )


@pytest.mark.parametrize("mode", ["ideal", "misaligned"])
def test_separable_audit_embedding_needs_arbitrary_mode(swap, mode):
    # embedded elements are always drawn as arbitrary effects
    with pytest.raises(ValueError, match="arbitrary"):
        separable_nonnegativity_audit(
            MdiewScenario.ideal(swap), trials=2, povm_mode=mode, embed_dims=(9, 9)
        )


def _far_below(w):
    """W - 10 ||W||_F I: negative on every trial, so each one is a failure
    that carries its two route values."""
    shift = 10 * np.linalg.norm(w.mat)
    return MdiewScenario.ideal(HermitianOperator(w.mat - shift * np.eye(w.dim), w.layout))


@pytest.mark.parametrize("mode, embed", AUDIT_MODES)
@pytest.mark.parametrize("name, trials", [("choi", 2), ("swap", 6), ("rotated-choi", 1)])
def test_audit_values_match_per_trial_oracle(name, trials, mode, embed, named):
    # the rotated Choi witness is complex, so a conjugation slip shows
    w = named[name]
    shifted = _far_below(w)
    report = separable_nonnegativity_audit(shifted, trials, 11, mode, embed)
    assert [f.trial for f in report.failures] == list(range(trials))
    tol = 1e-12 * np.linalg.norm(shifted.witness.mat)
    for f in report.failures:
        direct, mixture = audit_trial_reference(shifted, 11, f.trial, mode, embed)
        assert abs(f.route_direct - direct) <= tol
        assert abs(f.route_mixture - mixture) <= tol
    plain = MdiewScenario.ideal(w)
    report = separable_nonnegativity_audit(plain, trials, 11, mode, embed)
    refs = [audit_trial_reference(plain, 11, t, mode, embed) for t in range(trials)]
    lows = [min(r) for r in refs]
    tol = 1e-12 * np.linalg.norm(w.mat)
    assert abs(report.min_value - min(lows)) <= tol
    assert abs(report.max_route_gap - max(abs(d - m) for d, m in refs)) <= tol
    assert report.worst_trial == int(np.argmin(lows))


@pytest.mark.parametrize("mode, embed", AUDIT_MODES)
@pytest.mark.parametrize("name", ["choi", "swap"])
def test_audit_trials_do_not_depend_on_their_chunk(name, mode, embed, named, monkeypatch):
    scenario = _far_below(named[name])
    full = separable_nonnegativity_audit(scenario, 40, 5, mode, embed)
    assert len(full.failures) == 40
    prefix = separable_nonnegativity_audit(scenario, 7, 5, mode, embed)
    assert prefix.failures == full.failures[:7]
    monkeypatch.setattr(mdiew_module, "AUDIT_CHUNK", 7)
    assert separable_nonnegativity_audit(scenario, 40, 5, mode, embed) == full


def test_mdiew_value_matches_loop_oracle_at_choi_size(choi):
    sc = MdiewScenario.ideal(choi)
    rng = rng_from(7, 0)
    rho = random_separable(SystemLayout((3, 3), 1), 3, rng).density()
    e_l = random_povm_first_element(9, rng).mat
    e_r = random_povm_first_element(9, rng).mat
    want = sum(
        sc.beta[s, t]
        * joint_probability_loops(rho.mat, sig_s, sig_t, e_l, e_r, 3, 3)
        for s, sig_s in enumerate(sc.basis_left.states)
        for t, sig_t in enumerate(sc.basis_right.states)
    )
    assert mdiew_value(sc, rho, e_l, e_r) == pytest.approx(want, abs=1e-12)


def test_separable_audit_choi_embedded(choi):
    report = separable_nonnegativity_audit(
        MdiewScenario.ideal(choi),
        trials=20,
        seed=3,
        povm_mode="arbitrary",
        embed_dims=(10, 11),
    )
    assert report.passed
    assert report.embed_dims == (10, 11)
    assert report.max_route_gap <= 1e-9
