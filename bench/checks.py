"""Output checks made apart from the program.

Every check compares a CLI document against numpy arithmetic written here, or
against a property the method must have; none compares against a stored copy
of an earlier output.  Each check function returns a list of
``(label, passed)`` pairs.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
BRUTE_TOL = 1e-4
AUDIT_TOL = 1e-9
IDEAL_PPT_VALUE = -1.0 / 63.0


# ---------------------------------------------------------------- operators


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from a phase-fixed QR of a complex Gaussian matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T


def random_effect(d: int, rng: np.random.Generator) -> np.ndarray:
    """A POVM element 0 <= E <= I: a Haar basis with uniform eigenvalues."""
    u = haar_unitary(d, rng)
    return (u * rng.uniform(0.0, 1.0, size=d)) @ u.conj().T


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def pairs_to_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def operator_doc(mat: np.ndarray, dims: tuple[int, ...], cut: int) -> dict:
    return {"dims": list(dims), "cut": cut, "data": matrix_to_pairs(mat)}


def load_fixture(root: Path, name: str) -> tuple[np.ndarray, tuple[int, ...]]:
    doc = json.loads((root / "src" / "entwit" / "fixtures" / f"{name}.json").read_text())
    mat = pairs_to_matrix(doc["data"])
    return (mat + mat.conj().T) / 2, tuple(doc["dims"])


def _close(a: float, b: float, scale: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, scale)


def brute_min_product_2x2(mat: np.ndarray, n_theta: int = 181) -> float:
    """Minimum of <a b|W|a b> over qubit pairs.

    A Bloch-angle grid over the first qubit; for each grid point the second
    qubit is minimized exactly by the closed-form lower eigenvalue of the
    reduced 2x2 operator, so no see-saw alternation is involved.
    """
    w4 = mat.reshape(2, 2, 2, 2)
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * n_theta, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    a = np.stack([np.cos(tt / 2).ravel(), (np.exp(1j * pp) * np.sin(tt / 2)).ravel()], 1)
    red = np.einsum("ni,ibkc,nk->nbc", a.conj(), w4, a)
    r00, r11, r01 = red[:, 0, 0].real, red[:, 1, 1].real, red[:, 0, 1]
    low = (r00 + r11 - np.sqrt((r00 - r11) ** 2 + 4 * np.abs(r01) ** 2)) / 2
    return float(low.min())


# ---------------------------------------------------------------- documents


def check_config(doc: dict, argv: list[str]) -> list[tuple[str, bool]]:
    cfg = doc.get("config", {})
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 42
    restarts = int(argv[argv.index("--restarts") + 1]) if "--restarts" in argv else 64
    return [("config echoes seed and restarts", cfg.get("seed") == seed
             and cfg.get("restarts") == restarts)]


def check_certify(doc: dict, expect: dict) -> list[tuple[str, bool]]:
    """``expect``: matrix (as given to the program), base (before any local
    rotation), dims, witness (expected verdict)."""
    mat, base = expect["matrix"], expect["base"]
    tol = doc["config"]["tol"]
    eigs = np.linalg.eigvalsh(mat)
    base_eigs = np.linalg.eigvalsh(base)
    scale = float(np.abs(base_eigs).max())
    dim = mat.shape[0]
    out = [
        ("min_eigenvalue equals eigvalsh of the input",
         _close(doc["min_eigenvalue"], eigs.min(), scale)),
        ("local rotation leaves the spectrum unchanged",
         bool(np.allclose(eigs, base_eigs, atol=REL_TOL * max(1.0, scale)))),
        ("verdict matches the expected witness-hood",
         doc["is_witness_numeric"] is expect["witness"]),
    ]
    neg = eigs[eigs < -tol]
    if neg.size:
        out.append(("detection_value is the mean negative eigenvalue",
                    doc["detection_value"] is not None
                    and _close(doc["detection_value"], neg.mean(), scale)))
    else:
        out.append(("no detection value without negative eigenvalues",
                    doc["detection_value"] is None))
    if expect["dims"] == (2, 2):
        brute = brute_min_product_2x2(mat)
        out.append(("min_product_value agrees with the brute-force minimum",
                    abs(doc["min_product_value"] - brute) <= BRUTE_TOL * max(1.0, scale)))
    span = doc["spanning"]
    if expect["witness"]:
        ok = span is not None and 0 <= span["rank"] <= dim and span["dim"] == dim
        if ok and expect.get("span_rank") is not None:
            ok = span["rank"] == expect["span_rank"]
        out.append(("zero-set rank within the dimension (and as expected)", ok))
    else:
        out.append(("no spanning analysis for a non-witness", span is None))
    return out


def check_extend(doc: dict, expect: dict) -> list[tuple[str, bool]]:
    """``expect``: matrix (the base witness), cap_dims, and caps (the pair
    written to the cap file, when there is one)."""
    w = expect["matrix"]
    tol = doc["config"]["tol"]
    cap_l = pairs_to_matrix(doc["cap_left"]["data"])
    cap_r = pairs_to_matrix(doc["cap_right"]["data"])
    ext = pairs_to_matrix(doc["extended"]["data"])
    built = np.kron(np.kron(cap_l, w), cap_r)
    scale = float(np.abs(built).max())
    lam = np.linalg.eigvalsh(w).min() * np.linalg.eigvalsh(cap_l).max() \
        * np.linalg.eigvalsh(cap_r).max()
    rec = doc["recertification"]
    out = [
        ("extended equals cap_left (x) W (x) cap_right",
         ext.shape == built.shape and float(np.abs(ext - built).max()) <= REL_TOL * max(1.0, scale)),
        ("extended min eigenvalue is lmin(W) lmax(cap_left) lmax(cap_right)",
         _close(rec["min_eigenvalue"], lam, scale)),
        ("extended min product value >= -tol", rec["min_product_value"] >= -tol),
        ("partial-transpose structure preserved", doc["gamma_structure_ok"] is True),
    ]
    if expect.get("caps") is not None:
        left, right = expect["caps"]
        out.append(("document caps equal the cap file",
                    np.allclose(cap_l, left, rtol=0, atol=REL_TOL * np.abs(left).max())
                    and np.allclose(cap_r, right, rtol=0, atol=REL_TOL * np.abs(right).max())))
    if expect.get("cap_dims") is not None:
        out.append(("caps have the requested dims",
                    (cap_l.shape[0], cap_r.shape[0]) == expect["cap_dims"]))
    return out


def check_audit(doc: dict, expect: dict) -> list[tuple[str, bool]]:
    """``expect``: trials, povm_mode, embed_dims (list or None)."""
    return [
        ("audit passed with no failures", doc["passed"] is True and doc["failures"] == []),
        ("audit ran the requested trials", doc["trials"] == expect["trials"]),
        ("audit echoes mode and embedding", doc["povm_mode"] == expect["povm_mode"]
         and doc["embed_dims"] == expect["embed_dims"]),
        ("audit min_value >= -1e-9", doc["min_value"] >= -AUDIT_TOL),
        ("audit max_route_gap <= 1e-9", doc["max_route_gap"] <= AUDIT_TOL),
    ]


CHECKS = {"certify": check_certify, "extend": check_extend, "audit": check_audit}


# ------------------------------------------------------------ MDI identities


def mdi_inputs(rng: np.random.Generator, d: int = 3, members: int = 3):
    """A separable two-qudit state and a pair of POVM elements on d^2."""
    weights = rng.dirichlet(np.ones(members))
    rho = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho += w * np.outer(v, v.conj())
    return rho, random_effect(d * d, rng), random_effect(d * d, rng)


def index_formula_value(beta, basis_l, basis_r, rho, e_l, e_r) -> float:
    """sum_st beta[s,t] Tr[(E_l (x) E_r) (sigma_s^T (x) rho (x) sigma_t^T)],
    with the state in the A' A B B' order, written as one index contraction."""
    d_a, d_b = basis_l.shape[1], basis_r.shape[1]
    el = e_l.reshape(d_a, d_a, d_a, d_a)      # [a', a, c', c]
    er = e_r.reshape(d_b, d_b, d_b, d_b)      # [b, b', d, d']
    r4 = rho.reshape(d_a, d_b, d_a, d_b)      # [c, d, a, b]
    val = np.einsum(
        "st,xayc,bwdz,sxy,cdab,twz->", beta, el, er, basis_l, r4, basis_r, optimize=True
    )
    return float(val.real)


def check_mdi_identities(entwit, w_choi: np.ndarray, rng: np.random.Generator):
    """The round's in-process MDI checks on the Choi witness.

    ``entwit`` is the program's package.  Returns the checks and a callable
    that repeats the checked ``mdiew_value`` call, for timing.
    """
    ops, mdiew = entwit.operators, entwit.mdiew
    layout = ops.SystemLayout((3, 3), 1)
    scenario = mdiew.MdiewScenario.ideal(ops.HermitianOperator(w_choi, layout))
    beta = np.asarray(scenario.beta)
    basis_l = np.array(scenario.basis_left.states)
    basis_r = np.array(scenario.basis_right.states)
    recon = np.einsum("st,sij,tkl->ikjl", beta, basis_l, basis_r).reshape(9, 9)
    rho, e_l, e_r = mdi_inputs(rng)
    state = ops.HermitianOperator(rho, layout)

    def direct_value() -> float:
        return mdiew.mdiew_value(scenario, state, e_l, e_r)

    value = direct_value()
    ref = index_formula_value(beta, basis_l, basis_r, rho, e_l, e_r)
    ppt = entwit.catalog.choi_detected_ppt_state()
    ideal = mdiew.mdiew_value(scenario, ppt)
    checks = [
        ("beta reconstructs the Choi witness",
         float(np.abs(recon - w_choi).max()) <= REL_TOL),
        ("mdiew_value matches the index-formula contraction", _close(value, ref, 1.0, 1e-10)),
        ("mdiew_value is nonnegative on a separable state", value >= -AUDIT_TOL),
        ("catalogued PPT state is a unit-trace PPT state",
         abs(np.trace(ppt.mat).real - 1) <= REL_TOL
         and np.linalg.eigvalsh(ppt.mat).min() >= -REL_TOL
         and np.linalg.eigvalsh(
             ppt.mat.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)).min() >= -REL_TOL),
        ("ideal value of choi on the PPT state is -1/63",
         abs(ideal - IDEAL_PPT_VALUE) <= 1e-12),
    ]
    return checks, direct_value
