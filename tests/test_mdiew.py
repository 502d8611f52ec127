import dataclasses
import json

import numpy as np
import pytest

from entwit import (
    HermitianOperator,
    MdiewScenario,
    NumericalError,
    StateBasis,
    SystemLayout,
    choi_witness,
    decompose_witness,
    expectation,
    ideal_projector,
    joint_probability,
    maximally_entangled_vector,
    mdiew_value,
    projector,
    random_density,
    random_povm_first_element,
    random_separable,
    reconstruction_residual,
    rng_from,
    separable_nonnegativity_audit,
    tomographic_basis,
)
from oracle_utils import joint_probability_loops


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


def test_decompose_witness_residuals(choi, swap):
    for w in (choi, swap):
        d_a = w.layout.left_dim
        d_b = w.layout.right_dim
        bl, br = tomographic_basis(d_a), tomographic_basis(d_b)
        beta = decompose_witness(w, bl, br)
        assert beta.dtype == np.float64
        assert reconstruction_residual(w, bl, br, beta) <= 1e-9
        with pytest.raises(ValueError):
            beta[0, 0] = 1.0


def test_decompose_product_operator_gives_indicator():
    bl = tomographic_basis(2)
    br = tomographic_basis(2)
    mat = np.kron(bl.states[2], br.states[3])
    op = HermitianOperator(mat, SystemLayout((2, 2), 1))
    beta = decompose_witness(op, bl, br)
    want = np.zeros((4, 4))
    want[2, 3] = 1.0
    np.testing.assert_allclose(beta, want, atol=1e-10)


def test_decompose_dimension_mismatch(choi):
    with pytest.raises(Exception):
        decompose_witness(choi, tomographic_basis(2), tomographic_basis(3))


def test_scenario_ideal_construction(swap):
    sc = MdiewScenario.ideal(swap)
    assert sc.party_dims == (2, 2)
    with pytest.raises(NumericalError):
        dataclasses.replace(sc, beta=sc.beta + 0.1)
    rho = _as_state(random_density(4, seed=3).mat, (2, 2))
    ideal = mdiew_value(sc, rho, ideal_projector(2), ideal_projector(2))
    assert mdiew_value(sc, rho) == ideal
    with pytest.raises(NumericalError):
        mdiew_value(sc, rho, np.eye(4) * 2.0)
    with pytest.raises(NumericalError):
        mdiew_value(sc, rho, None, np.triu(np.ones((4, 4))))


def test_scenario_solves_and_checks_beta_once(monkeypatch, capsys):
    import entwit.mdiew as mdiew
    from entwit.cli import main

    calls = {"basis": 0, "residual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mdiew, "_product_basis", counted("basis", mdiew._product_basis))
    monkeypatch.setattr(
        mdiew, "reconstruction_residual", counted("residual", reconstruction_residual)
    )
    assert main(["mdiew", "decompose", "choi", "--quiet"]) == 0
    assert calls["basis"] <= 2
    assert calls["residual"] == 1
    doc = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    sc = MdiewScenario.ideal(choi_witness())
    want = reconstruction_residual(sc.witness, sc.basis_left, sc.basis_right, sc.beta)
    assert sc.residual == want
    assert doc["residual"] == want


def test_joint_probability_matches_loop_oracle():
    rho = _as_state(random_density(4, seed=21).mat, (2, 2))
    basis = tomographic_basis(2)
    e_l = random_povm_first_element(4, seed=22).mat
    e_r = random_povm_first_element(4, seed=23).mat
    for s in basis.states[:3]:
        for t in basis.states[-3:]:
            lib = joint_probability(rho, s, t, e_l, e_r)
            orc = joint_probability_loops(rho.mat, s, t, e_l, e_r, 2, 2)
            assert lib == pytest.approx(orc, abs=1e-12)
            assert 0.0 <= lib <= 1.0


def test_joint_probability_extreme_elements():
    rho = _as_state(random_density(4, seed=31).mat, (2, 2))
    basis = tomographic_basis(2)
    s, t = basis.states[1], basis.states[2]
    assert joint_probability(rho, s, t, np.eye(4), np.eye(4)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert joint_probability(rho, s, t, np.zeros((4, 4)), np.eye(4)) == 0.0


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
@pytest.mark.parametrize("name", ["choi", "swap", "rotated-choi"])
def test_decompose_and_audit_do_not_depend_on_scale(name, scale, choi, swap, rotated_choi):
    op = {"choi": choi, "swap": swap, "rotated-choi": rotated_choi}[name]
    scaled = HermitianOperator(scale * op.mat, op.layout)
    sc = MdiewScenario.ideal(scaled)
    residual = reconstruction_residual(scaled, sc.basis_left, sc.basis_right, sc.beta)
    assert residual <= 1e-9 * np.linalg.norm(scaled.mat)
    report = separable_nonnegativity_audit(sc, trials=100, seed=3)
    assert report.passed, report.failures[:3]


def test_separable_audit_rejects_unknown_mode(swap):
    with pytest.raises(ValueError):
        separable_nonnegativity_audit(
            MdiewScenario.ideal(swap), trials=2, seed=0, povm_mode="psychic"
        )


def test_mdiew_value_matches_loop_oracle_at_choi_size(choi):
    sc = MdiewScenario.ideal(choi)
    rng = rng_from(7, 0)
    rho = random_separable(SystemLayout((3, 3), 1), 3, rng).density(cut=1)
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
