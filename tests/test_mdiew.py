import json

import numpy as np
import pytest

import entwit.mdiew as mdiew_module
from entwit import (
    ExtensionSpec,
    HermitianOperator,
    LayoutError,
    MdiewScenario,
    NumericalError,
    StateBasis,
    SystemLayout,
    choi_detected_ppt_state,
    choi_witness,
    expectation,
    extend_state,
    extend_witness,
    ideal_projector,
    maximally_entangled_vector,
    mdiew_value,
    projector,
    random_density,
    rng_from,
    separable_nonnegativity_audit,
    swap_witness,
    tomographic_basis,
)
from entwit.cli import _caps_random, main
from integer_args import check_integer_case, integer_cases
from oracle_utils import (
    audit_trial_reference, decomposition_reference, draw_effect, draw_product,
    draw_separable, draw_unitary, joint_probability_loops, mixture_density,
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


@pytest.mark.parametrize("d", range(2, 7))
def test_tomographic_basis_is_one_frozen_stack_that_passes_the_full_check(d):
    # tomographic_basis skips StateBasis's checks; this pins what they prove:
    # the projectors in the documented order, bit for bit, and the checks pass
    eye = np.eye(d, dtype=complex)
    vecs = [eye[m] for m in range(d)]
    for m in range(d):
        for n in range(m + 1, d):
            vecs += [(eye[m] + eye[n]) / np.sqrt(2), (eye[m] + 1j * eye[n]) / np.sqrt(2)]
    states = tomographic_basis(d).states
    assert type(states) is np.ndarray and not states.flags.writeable
    assert states.tobytes() == np.array([projector(v) for v in vecs]).tobytes()
    checked = StateBasis(states).states
    assert checked.shape == (d * d, d, d) and not checked.flags.writeable
    assert checked.tobytes() == states.tobytes()


def test_ideal_scenario_checks_no_basis_member(monkeypatch, choi):
    calls = []
    psd_matrix = mdiew_module._psd_matrix

    def counting_psd_matrix(*args):
        calls.append(args[2])
        return psd_matrix(*args)

    monkeypatch.setattr(mdiew_module, "_psd_matrix", counting_psd_matrix)
    scenario = MdiewScenario.ideal(choi)
    assert calls == []
    assert [len(b) for b in (scenario.basis_left, scenario.basis_right)] == [9, 9]


def test_state_basis_rejects_dependent_members():
    basis = tomographic_basis(2)
    dup = tuple(basis.states[:3]) + (basis.states[0],)
    with pytest.raises(ValueError) as err:
        StateBasis(dup)
    assert "3" in str(err.value)


@pytest.mark.parametrize(
    "states, message",
    [((), "state basis is empty"), (tomographic_basis(2).states[:3],
                                    "need exactly 4 states for dimension 2, got 3")],
    ids=["empty", "too-few"],
)
def test_state_basis_needs_exactly_d_squared_states(states, message):
    with pytest.raises(ValueError) as err:
        StateBasis(states)
    assert str(err.value) == message


def test_state_basis_rejects_non_states():
    basis = list(tomographic_basis(2).states)
    basis[1] = basis[1] * 2.0
    with pytest.raises(Exception):
        StateBasis(tuple(basis))


@pytest.mark.parametrize(
    "states, message",
    [
        ((np.eye(2) / 2, np.ones(3)), "member 1 must be 2x2, got (3,)"),
        ((np.float64(1.0),), "member 0 must be 1x1, got ()"),
    ],
    ids=["wrong-shape", "scalar"],
)
def test_state_basis_names_a_member_of_the_wrong_shape(states, message):
    with pytest.raises(LayoutError) as err:
        StateBasis(states)
    assert str(err.value) == message


def test_scenario_beta_residuals(choi, swap):
    for w in (choi, swap):
        d_a, d_b = w.layout.parties
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
    bl, br = map(tomographic_basis, w.layout.parties)
    beta = MdiewScenario(w, bl, br).beta
    want = decomposition_reference(w.mat, bl.states, br.states)
    assert np.abs(beta - want).max() <= 1e-12 * np.linalg.norm(w.mat)


def _rotated_basis(d, rng):
    """U sigma U^H over the tomographic basis, for a Haar U: complete, but
    neither real nor made of the computational and Fourier projectors."""
    u = draw_unitary(d, rng)
    return StateBasis(tuple(u @ s @ u.conj().T for s in tomographic_basis(d).states))


@pytest.mark.parametrize("name", ["choi", "swap", "rotated-choi", "capped-swap"])
def test_beta_on_rotated_bases_matches_least_squares_oracle(name, named):
    w = named[name]
    seed = OPERATORS.index(name)
    d_a, d_b = w.layout.parties
    bl = _rotated_basis(d_a, rng_from(seed, 60))
    br = _rotated_basis(d_b, rng_from(seed, 61))
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
    assert sc.witness.layout.parties == (2, 2)
    rho = _as_state(random_density(4, seed=3).mat, (2, 2))
    ideal = mdiew_value(sc, rho, ideal_projector(2), ideal_projector(2))
    assert mdiew_value(sc, rho) == ideal
    with pytest.raises(NumericalError):
        mdiew_value(sc, rho, np.eye(4) * 2.0)
    with pytest.raises(NumericalError):
        mdiew_value(sc, rho, None, np.triu(np.ones((4, 4))))


def test_scenario_realigns_the_witness_once(monkeypatch, capsys):
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
    e_l = draw_effect(4, rng_from(22))
    e_r = draw_effect(4, rng_from(23))
    for s in basis.states[:3]:
        for t in basis.states[-3:]:
            lib = _one_click(rho, s, t, e_l, e_r)
            orc = joint_probability_loops(rho, s, t, e_l, e_r, 2, 2)
            assert lib == pytest.approx(orc, abs=1e-12)
            assert 0.0 <= lib <= 1.0


@pytest.mark.parametrize("scale, bad", [(2.0, "2.0"), (-1.0, "-1.0")], ids=["above", "below"])
def test_click_table_rejects_a_probability_outside_the_unit_interval(scale, bad):
    # an element outside 0 <= E <= I can click with "probability" 2 or -1;
    # the identity on the right keeps the value exact
    rho = random_density(4, seed=31).mat
    s = t = tomographic_basis(2).states[0]
    with pytest.raises(NumericalError) as err:
        _one_click(rho, s, t, scale * np.eye(4), np.eye(4))
    assert str(err.value) == f"probability {bad} outside [0, 1]"


def test_joint_probability_extreme_elements():
    rho = random_density(4, seed=31).mat
    basis = tomographic_basis(2)
    s, t = basis.states[1], basis.states[2]
    assert _one_click(rho, s, t, np.eye(4), np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert _one_click(rho, s, t, np.zeros((4, 4)), np.eye(4)) == 0.0


@pytest.mark.parametrize("side", ["left", "right"])
def test_mdiew_value_names_a_povm_element_of_the_wrong_shape(swap, side):
    scenario = MdiewScenario.ideal(swap)
    povms = {f"povm_{side}": np.eye(3)}
    with pytest.raises(LayoutError) as err:
        mdiew_value(scenario, _as_state(random_density(4, seed=0).mat, (2, 2)), **povms)
    assert str(err.value) == f"{side} POVM element must be 4x4, got (3, 3)"


def test_mdiew_value_rejects_a_state_of_other_parties(swap):
    rho = HermitianOperator(np.eye(9) / 9, SystemLayout((3, 3), 1))
    with pytest.raises(LayoutError) as err:
        mdiew_value(MdiewScenario.ideal(swap), rho)
    assert str(err.value) == "state parties (3, 3) do not match scenario (2, 2)"


def test_ideal_measurement_reproduces_witness_value(choi, swap):
    for w, n in ((choi, 6), (swap, 6)):
        sc = MdiewScenario.ideal(w)
        d = w.layout.parties[0]
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


def test_separable_audit_records_a_route_gap(swap, capsys, monkeypatch):
    # offset the mixture route by 1e-6 ||W||_F: no value goes negative, so
    # each trial fails on the gap alone, and the CLI reports a violation
    offset = 1e-6 * np.linalg.norm(swap.mat)
    mixture = mdiew_module._mixture_route_values
    monkeypatch.setattr(
        mdiew_module, "_mixture_route_values", lambda *args: mixture(*args) + offset
    )
    report = separable_nonnegativity_audit(MdiewScenario.ideal(swap), trials=5, seed=0)
    assert not report.passed
    assert [f.trial for f in report.failures] == list(range(5))
    for f in report.failures:
        assert f.reason.startswith("route gap ") and ";" not in f.reason
        assert f.route_mixture - f.route_direct == pytest.approx(offset, rel=1e-6)
    assert main(["mdiew", "audit", "swap", "--trials", "5", "--quiet"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


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


@pytest.mark.parametrize("embed_dims", [(16,), 16, (16, 16, 16)])
def test_audit_embed_dims_must_be_a_pair(swap, embed_dims):
    with pytest.raises(LayoutError) as err:
        separable_nonnegativity_audit(
            MdiewScenario.ideal(swap), trials=2, embed_dims=embed_dims
        )
    assert str(err.value) == f"embed dims must be a pair, got {embed_dims!r}"


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


@pytest.mark.parametrize("mode", ["ideal", "arbitrary", "misaligned"])
@pytest.mark.parametrize("name", ["choi", "rotated-choi"])
def test_mdiew_value_is_the_audit_direct_value(name, mode, named, monkeypatch):
    # mdiew_value on a trial's state and measurement elements is that trial's
    # direct value, bit for bit: both reach the click table the same way.
    # The shifted witness makes every trial a failure that carries its value.
    scenario = _far_below(named[name])
    click_table, stacks = mdiew_module._click_table, []

    def recording(*args):
        stacks.append(args)
        return click_table(*args)

    monkeypatch.setattr(mdiew_module, "_click_table", recording)
    report = separable_nonnegativity_audit(scenario, 6, 3, mode)
    monkeypatch.undo()
    (rho, _, _, e_l, e_r), = stacks
    assert len(report.failures) == len(rho) == 6
    layout = scenario.witness.layout
    for f in report.failures:
        state = HermitianOperator(rho[f.trial], layout)
        assert mdiew_value(scenario, state, e_l[f.trial], e_r[f.trial]) == f.route_direct


def test_mdiew_value_matches_loop_oracle_at_choi_size(choi):
    sc = MdiewScenario.ideal(choi)
    rng = rng_from(7, 0)
    layout = SystemLayout((3, 3), 1)
    rho = HermitianOperator(mixture_density(*draw_separable((3, 3), 3, rng)), layout)
    e_l = draw_effect(9, rng)
    e_r = draw_effect(9, rng)
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


# The paper's connection, checked as identities between the mdiew and the
# extension layers (Branciard, Rosset, Liang and Gisin, PRL 110, 060405
# (2013), for the MDI witness and its beta expansion).


def _product_basis(outer: StateBasis, inner: StateBasis) -> StateBasis:
    """{outer_i (x) inner_j}, i outer."""
    return StateBasis(tuple(np.kron(o, i) for o in outer.states for i in inner.states))


def _cap_basis(d: int) -> StateBasis:
    return StateBasis((np.ones((1, 1)),)) if d == 1 else tomographic_basis(d)


def _coefficients(cap: HermitianOperator, basis: StateBasis) -> np.ndarray:
    """c with sum_a c[a] tau_a = cap, real as cap and every tau_a are Hermitian."""
    c = np.linalg.solve(np.array(basis.states).reshape(len(basis), -1).T, cap.mat.ravel())
    assert np.abs(c.imag).max() <= 1e-12 * np.abs(c).max()
    return c.real


@pytest.mark.parametrize(
    "name, cap_dims", [("choi", (2, 2)), ("swap3", (2, 3)), ("choi", (3, 1))],
    ids=["choi-2x2", "swap3-2x3", "choi-3x1"],
)
def test_beta_of_a_cap_extension_factors(choi, name, cap_dims):
    # over the product inputs tau_a (x) sigma_s on A'A and sigma_t (x) tau_b
    # on BB', the extension's beta is c_l[a] beta[s, t] c_r[b]: the MDI
    # witness of an extension is that of W, weighted by the caps
    w = choi if name == "choi" else swap_witness(3)
    spec = _caps_random(cap_dims, 42)
    base = MdiewScenario.ideal(w)
    tau_l, tau_r = (_cap_basis(k) for k in cap_dims)
    extended = MdiewScenario(
        extend_witness(w, spec),
        _product_basis(tau_l, base.basis_left),
        _product_basis(base.basis_right, tau_r),
    )
    c_l, c_r = _coefficients(spec.cap_left, tau_l), _coefficients(spec.cap_right, tau_r)
    want = np.kron(np.kron(c_l[:, None], base.beta), c_r[None, :])
    assert np.abs(extended.beta - want).max() <= 1e-12 * np.abs(extended.beta).max()


def test_mdiew_value_of_a_cap_extension_factors(choi):
    # the ideal value is Tr(W~ rho~) / (d_A' d_A d_B d_B'), and the trace of
    # an extension on an extended state is the product of three traces
    rho = choi_detected_ppt_state()
    spec = _caps_random((2, 2), 42)
    kappa = ExtensionSpec(random_density(2, rng_from(3, 0)), random_density(2, rng_from(3, 1)))
    got = mdiew_value(MdiewScenario.ideal(extend_witness(choi, spec)), extend_state(rho, kappa))
    want = (
        np.trace(spec.cap_left.mat @ kappa.cap_left.mat).real
        * expectation(choi, rho)
        * np.trace(spec.cap_right.mat @ kappa.cap_right.mat).real
        / (2 * 3 * 3 * 2)
    )
    assert got == pytest.approx(want, rel=1e-12)


def _swap_factors(e: np.ndarray, d: int) -> np.ndarray:
    """The element with its two d-dimensional tensor factors exchanged."""
    return e.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def test_mixture_route_term_is_an_extension_evaluation(rotated_choi):
    # route (ii)'s term of one member (a, b) is W^T extended by the member's
    # projectors, evaluated through the extension layer on the measurement
    # pair, each element reordered to the extension's A'A and BB'; W is
    # complex, so a missing transpose shows, as does a missing reordering
    w = rotated_choi
    rng = rng_from(8, 0)
    a, b = draw_product((3, 3), rng)
    e_l, e_r = (draw_effect(9, rng) for _ in range(2))
    got = mdiew_module._mixture_route_values(
        w.mat, a[None, None], b[None, None], np.ones((1, 1)), e_l[None], e_r[None]
    )[0]
    transposed = HermitianOperator(w.mat.T, w.layout)
    extended = extend_witness(transposed, ExtensionSpec(projector(a), projector(b)))
    measured = np.kron(_swap_factors(e_l, 3), _swap_factors(e_r, 3))
    want = np.trace(measured @ extended.mat).real
    assert got == pytest.approx(want, rel=1e-12)
