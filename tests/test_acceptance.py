"""Acceptance gate.

One test per numbered criterion; each prints a single PASS line when its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Tolerances are pinned to the contract values, not loosened.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from entwit import (
    AbParams,
    ExtensionSpec,
    HermitianOperator,
    MdiewScenario,
    SystemLayout,
    choi_detected_ppt_state,
    choi_witness,
    collect_zero_set,
    certify_indecomposable,
    eigh,
    expectation,
    extend_state,
    extend_witness,
    extended_zero_set,
    is_psd,
    maximally_entangled_vector,
    mdiew_value,
    min_product_expectation,
    nontrivial_extension_exhibit,
    partial_transpose,
    projector,
    random_psd,
    rho_abb,
    rng_from,
    separable_nonnegativity_audit,
    span_rank,
    swap_witness,
    tomographic_basis,
)
from entwit.choi import CLOSED_FORM_SCALE
from entwit.cli import main
from entwit.choi import _closed_forms, _detection_values
from oracle_utils import (
    draw_density, draw_separable, min_product_expectation_bloch, mixture_density,
)

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


def _ok(n, text):
    print(f"CRITERION {n:02d} PASS: {text}")


def _random_hermitian_22(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return HermitianOperator((g + g.conj().T) / 2, SystemLayout((2, 2), 1))


def test_criterion_01_choi_exactness():
    w = choi_witness()
    np.testing.assert_array_equal(w.mat, CHOI_MATRIX)
    vals, vecs = eigh(w)
    assert abs(vals[-1] - (-1.0)) <= 1e-10
    psi = maximally_entangled_vector(3)
    assert abs(psi.conj() @ vecs[:, -1]) >= 1.0 - 1e-9
    e01 = np.zeros(9)
    e01[1] = 1.0
    rho = HermitianOperator(np.outer(e01, e01), SystemLayout((3, 3), 1))
    assert expectation(w, rho) == 0.0
    _ok(1, "choi witness entries, extremal pair, and product zero are exact")


def test_criterion_02_product_minimum_certification():
    for w in (choi_witness(), swap_witness()):
        value = min_product_expectation(w, restarts=64, seed=0).best_value
        assert -1e-8 <= value <= 1e-6
    for seed in range(10):
        op = _random_hermitian_22(9000 + seed)
        fast = min_product_expectation(op, restarts=64, seed=seed).best_value
        slow = min_product_expectation_bloch(op.mat)
        assert abs(fast - slow) <= 1e-6
    _ok(2, "see-saw matches the product-state floor and the grid oracle")


def test_criterion_03_extension_preserves_witnesshood():
    witnesses = (choi_witness(), swap_witness())
    for seed in range(20):
        w = witnesses[seed % 2]
        rng = rng_from(seed, 77)
        d_l, d_r = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        spec = ExtensionSpec(
            random_psd(d_l, rng_from(seed, 78)), random_psd(d_r, rng_from(seed, 79))
        )
        ext = extend_witness(w, spec)
        value = min_product_expectation(ext, restarts=64, seed=seed).best_value
        assert value >= -1e-8
    _ok(3, "20 seeded cap extensions all stay nonnegative on products")


def test_criterion_04_indecomposability_transfer():
    w = choi_witness()
    rho = choi_detected_ppt_state()
    assert certify_indecomposable(w, rho)
    for seed in range(10):
        cap_l = random_psd(2, rng_from(seed, 80))
        cap_r = random_psd(2, rng_from(seed, 81))
        assert np.linalg.eigvalsh(cap_l.mat).min() > 0.0
        assert np.linalg.eigvalsh(cap_r.mat).min() > 0.0
        ext_w = extend_witness(w, ExtensionSpec(cap_l, cap_r))
        ext_s = extend_state(
            rho,
            ExtensionSpec(
                draw_density(2, rng_from(seed, 82)),
                draw_density(2, rng_from(seed, 83)),
            ),
        )
        assert certify_indecomposable(ext_w, ext_s)
    layout33 = SystemLayout((3, 3), 1)
    for trial in range(200):
        base = (
            rho
            if trial % 2 == 0
            else HermitianOperator(
                mixture_density(*draw_separable((3, 3), 3, rng_from(trial))), layout33
            )
        )
        spec = ExtensionSpec(
            draw_density(2, rng_from(trial, 84)),
            draw_density(2, rng_from(trial, 85)),
        )
        ext = extend_state(base, spec)
        assert is_psd(partial_transpose(ext), tol=1e-9)
    _ok(4, "extended pairs stay indecomposable; transposed extensions stay PSD")


def test_criterion_05_spanning_transfer():
    w = swap_witness()
    base = collect_zero_set(w, seed=0)
    assert base.span_rank == 4
    flipped = collect_zero_set(partial_transpose(w), seed=0)
    assert flipped.span_rank == 3
    for d_ap, d_bp in ((1, 2), (2, 2), (3, 2)):
        spec = ExtensionSpec(
            random_psd(d_ap, rng_from(d_ap, 86)), random_psd(d_bp, rng_from(d_bp, 87))
        )
        ext = extend_witness(w, spec)
        lifted = extended_zero_set(base, d_ap, d_bp)
        assert lifted.span_rank == 4 * d_ap * d_bp
        assert span_rank(lifted.vectors) == 4 * d_ap * d_bp
        for full in lifted.vectors:
            assert abs(np.real(full.conj() @ ext.mat @ full)) <= 1e-10
        gamma_ext = partial_transpose(ext)
        lifted_g = extended_zero_set(flipped, d_ap, d_bp)
        assert lifted_g.span_rank == 3 * d_ap * d_bp
        assert span_rank(lifted_g.vectors) == 3 * d_ap * d_bp
        for full in lifted_g.vectors:
            assert abs(np.real(full.conj() @ gamma_ext.mat @ full)) <= 1e-10
    _ok(5, "zero sets lift with multiplied ranks and stay exact zeros")


def test_criterion_06_extension_exhibit():
    rep = nontrivial_extension_exhibit()
    np.testing.assert_array_equal(rep.params.a, np.ones((2, 2)))
    np.testing.assert_array_equal(rep.params.b, np.eye(2))
    np.testing.assert_array_equal(rep.cap_right, np.ones((2, 2)))
    assert rep.ext_value < -1e-6
    assert abs(rep.reduced_value) <= 1e-10
    assert rep.state_psd
    for seed in range(200):
        params = AbParams(
            a=random_psd(2, rng_from(seed, 88)), b=random_psd(2, rng_from(seed, 89))
        )
        cap = random_psd(2, rng_from(seed, 90)).mat
        ext, red = _detection_values(cap, rho_abb(params))
        cext, cred = _closed_forms(params, cap)
        assert abs(ext - CLOSED_FORM_SCALE * cext) <= 1e-9 * max(1.0, abs(cext))
        assert abs(red - CLOSED_FORM_SCALE * cred) <= 1e-9 * max(1.0, abs(cred))
    _ok(6, "exhibit detects only through the extension; closed forms track")


def test_criterion_07_decomposition_residuals():
    for w in (choi_witness(), swap_witness()):
        d_a, d_b = w.layout.parties
        bl, br = tomographic_basis(d_a), tomographic_basis(d_b)
        beta = MdiewScenario(w, bl, br).beta
        assert beta.dtype == np.float64 and np.isrealobj(beta)
        recon = sum(
            beta[s, t] * np.kron(bl.states[s], br.states[t])
            for s in range(len(bl))
            for t in range(len(br))
        )
        assert np.linalg.norm(recon - w.mat) <= 1e-9
    _ok(7, "tomographic decompositions are real and reconstruct to 1e-9")


def test_criterion_08_ideal_identity():
    for w, n_states in ((choi_witness(), 100), (swap_witness(), 100)):
        sc = MdiewScenario.ideal(w)
        d = w.layout.parties[0]
        for seed in range(n_states):
            rho = HermitianOperator(
                draw_density(d * d, rng_from(seed, 91)), SystemLayout((d, d), 1)
            )
            got = mdiew_value(sc, rho)
            want = expectation(w, rho) / (d * d)
            assert abs(got - want) <= 1e-9
    ent = HermitianOperator(
        projector(maximally_entangled_vector(3)), SystemLayout((3, 3), 1)
    )
    got = mdiew_value(MdiewScenario.ideal(choi_witness()), ent)
    assert abs(got - (-1.0 / 9.0)) <= 1e-9
    _ok(8, "ideal-measurement values equal Tr(W rho)/(dA dB) everywhere tested")


def test_criterion_09_separable_safety():
    for w in (choi_witness(), swap_witness()):
        report = separable_nonnegativity_audit(
            MdiewScenario.ideal(w), trials=1000, seed=0, povm_mode="arbitrary"
        )
        assert report.passed
        assert report.min_value >= -1e-9
        assert report.max_route_gap <= 1e-9
        assert report.failures == ()
    _ok(9, "2000 arbitrary-measurement trials never dip below zero")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    commands = [
        ["certify", "choi", "--quiet"],
        ["certify", "identity", "--quiet"],
        ["extend", "swap", "--random-caps", "2", "2", "--quiet"],
        ["choi-demo", "--quiet"],
        ["mdiew", "decompose", "swap", "--quiet"],
        ["mdiew", "audit", "swap", "--trials", "6", "--quiet"],
    ]
    for argv in commands:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)
    args = [sys.executable, "-m", "entwit.cli", "mdiew", "audit", "choi",
            "--trials", "3", "--quiet"]
    runs = [subprocess.run(args, capture_output=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    _ok(10, "same-seed CLI reruns emit byte-identical JSON")
