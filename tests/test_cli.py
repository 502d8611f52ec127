import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from entwit import (
    AbParams,
    ExtensionSpec,
    HermitianOperator,
    MdiewScenario,
    NumericalError,
    ProductVector,
    StateBasis,
    SystemLayout,
    certify_witness,
    dump_operator,
    is_psd,
    mdiew_value,
    min_product_expectation,
    operator_from_dict,
    operator_to_dict,
    rng_from,
    separable_nonnegativity_audit,
    swap_witness,
    tomographic_basis,
)
from entwit.cli import main, resolve_operator
from oracle_utils import draw_unitary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_choi(capsys):
    code, out, err = run_cli(capsys, "certify", "choi", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "certify"
    assert doc["config"] == {"seed": 42, "restarts": 64, "tol": 1e-9}
    assert doc["is_witness_numeric"] is True
    assert doc["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)
    assert -1e-8 <= doc["min_product_value"] <= 1e-6
    assert doc["spanning"]["rank"] == 7
    assert doc["spanning"]["verdict"] == "not-found-at-budget"
    assert doc["nd_spanning"]["holds"] is False
    assert err == ""


def test_certify_swap_summary_on_stderr(capsys):
    code, out, err = run_cli(capsys, "certify", "swap")
    assert code == 0
    doc = json.loads(out)
    assert doc["spanning"]["verdict"] == "confirmed"
    assert "is witness (numeric): True" in err


@pytest.mark.parametrize(
    "argv",
    [("certify", "swap", "--restarts", "8"),
     ("extend", "swap", "--random-caps", "2", "2", "--restarts", "8")],
    ids=["certify", "extend"],
)
def test_restart_stops_are_summarized_on_stderr_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    line = next(x for x in err.splitlines() if x.startswith("see-saw restarts:"))
    counts = [int(word) for word in line.replace(",", " ").split() if word.isdigit()]
    settled, stalled, at_budget = counts[:3]
    assert settled + stalled + at_budget == 8
    assert "see-saw restarts" not in out and "settled" not in out


def test_restart_summary_counts_abandoned_restarts_apart_from_budget(capsys):
    code, _, err = run_cli(capsys, "certify", "choi")
    assert code == 0
    line = next(x for x in err.splitlines() if x.startswith("see-saw restarts:"))
    assert "0 settled, 47 stalled, 0 at budget, 17 abandoned;" in line


@pytest.mark.parametrize("name", ["choi", "swap", "identity", "capped-choi"])
def test_certify_reports_the_stops_the_seesaw_names(capsys, tmp_path, name, capped_choi):
    # stdout's converged flags and stderr's four counts are read off the
    # stop names of the same see-saw, never decoded apart from them
    if name == "capped-choi":
        name = str(tmp_path / "capped-choi.json")
        dump_operator(capped_choi, name)
    _, op = resolve_operator(name)
    stops = min_product_expectation(op, seed=42).stops
    code, out, err = run_cli(capsys, "certify", name)
    assert code == 0
    assert json.loads(out)["see_saw_converged"] == [s in ("settled", "stalled") for s in stops]
    line = next(x for x in err.splitlines() if x.startswith("see-saw restarts:"))
    counts = re.findall(r"(\d+) (settled|stalled|at budget|abandoned)", line)
    assert {word.removeprefix("at "): int(n) for n, word in counts} == {
        s: stops.count(s) for s in ("settled", "stalled", "budget", "abandoned")
    }


def test_certify_identity_is_not_a_witness(capsys):
    code, out, _ = run_cli(capsys, "certify", "identity", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_witness_numeric"] is False
    assert doc["detection_state"] is None
    assert doc["spanning"] is None
    assert "not applicable" in doc["note"]


def test_certify_unknown_operator(capsys):
    code, out, err = run_cli(capsys, "certify", "no_such_thing", "--quiet")
    assert code == 2
    assert out == ""
    assert "bundled" in err


def test_certify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run_cli(capsys, "certify", str(bad), "--quiet")
    assert code == 2
    assert "error" in err


def test_certify_detection_state_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "certify", "choi", "--quiet")
    assert code == 0
    doc = json.loads(out)
    op = operator_from_dict(doc["detection_state"])
    assert op.layout.dims == (3, 3)
    assert op.trace == pytest.approx(1.0, abs=1e-9)


def test_extend_with_cap_file(tmp_path, capsys):
    caps = {
        "cap_left": {"dims": [1], "cut": 1, "data": [[[1.0, 0.0]]]},
        "cap_right": {
            "dims": [2],
            "cut": 1,
            "data": [
                [[1.0, 0.0], [1.0, 0.0]],
                [[1.0, 0.0], [1.0, 0.0]],
            ],
        },
    }
    path = tmp_path / "caps.json"
    path.write_text(json.dumps(caps))
    code, out, _ = run_cli(capsys, "extend", "choi", "--caps", str(path), "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["extended"]["dims"] == [1, 3, 3, 2]
    assert doc["recertification"]["is_witness_numeric"] is True
    assert doc["recertification"]["min_product_value"] >= -1e-8
    assert doc["gamma_structure_ok"] is True


def test_extend_rejects_non_psd_cap(tmp_path, capsys):
    caps = {
        "cap_left": {
            "dims": [2],
            "cut": 1,
            "data": [
                [[1.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [-1.0, 0.0]],
            ],
        },
        "cap_right": {"dims": [1], "cut": 1, "data": [[[1.0, 0.0]]]},
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(caps))
    code, out, err = run_cli(capsys, "extend", "choi", "--caps", str(path), "--quiet")
    assert code == 2
    assert out == ""
    assert "positive semidefinite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_input_is_rejected(tmp_path, capsys, bad):
    # operator and cap files: exit 2, nothing on stdout
    doc = operator_to_dict(swap_witness())
    doc["data"][0][1][0] = bad
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(doc))
    cap = {"dims": [2], "cut": 1, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [bad, 0.0]]]}
    caps_path = tmp_path / "caps.json"
    caps_path.write_text(json.dumps({"cap_left": cap, "cap_right": cap}))
    for argv in (
        ("certify", op_path), ("extend", op_path, "--random-caps", "2", "2"),
        ("mdiew", "decompose", op_path), ("mdiew", "audit", op_path, "--trials", "5"),
        ("extend", "swap", "--caps", caps_path),
    ):
        code, out, err = run_cli(capsys, *map(str, argv), "--quiet")
        assert (code, out) == (2, ""), argv
        assert "finite" in err, argv
    # a tolerance must be finite and nonnegative, also where only the config echoes it
    for argv in (("certify", "swap"), ("mdiew", "decompose", "swap"), ("choi-demo",)):
        for tol in (bad, -1.0):
            code, out, err = run_cli(capsys, *argv, f"--tol={tol}", "--quiet")
            assert (code, out) == (2, "") and "tol must be finite" in err
    for tol in (bad, -1.0):
        with pytest.raises(ValueError):
            certify_witness(swap_witness(), tol=tol)
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=tol)
    # public constructors raise; is_psd is never True
    for m in (np.diag([bad, 1.0]), np.array([[1.0, bad], [bad, 1.0]])):
        assert not is_psd(m)
        with pytest.raises(NumericalError):
            HermitianOperator(m, SystemLayout((2,), 1))
        with pytest.raises((ValueError, NumericalError)):
            ExtensionSpec(m, np.eye(2))
        with pytest.raises(ValueError):
            AbParams(a=m)
        with pytest.raises(ValueError):
            StateBasis((m / 2,) + tomographic_basis(2).states[1:])
    e0 = np.array([1.0, 0.0])
    with pytest.raises(NumericalError):
        ProductVector((np.array([bad, 0.0]), e0))
    scenario = MdiewScenario.ideal(swap_witness())
    rho = HermitianOperator(np.eye(4) / 4, SystemLayout((2, 2), 1))
    povm = np.eye(4)
    povm[1, 2] = povm[2, 1] = bad
    with pytest.raises(NumericalError):
        mdiew_value(scenario, rho, povm)
    with pytest.raises(NumericalError):
        mdiew_value(scenario, rho, None, povm)


@pytest.mark.parametrize("key", ["cap_left", "cap_right"])
def test_input_errors_name_their_file_and_cap(tmp_path, capsys, key):
    cap = {"dims": [2], "cut": 1, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    bad = json.loads(json.dumps(cap))
    bad["data"][1][1][0] = np.nan
    caps_path = tmp_path / "caps.json"
    caps_path.write_text(json.dumps({"cap_left": cap, "cap_right": cap, key: bad}))
    code, out, err = run_cli(capsys, "extend", "swap", "--caps", str(caps_path))
    assert (code, out) == (2, "")
    assert err == f"error: cap file {str(caps_path)!r}, {key}: data: entries must be finite numbers\n"
    op_path = tmp_path / f"{key}.json"
    op_path.write_text(json.dumps(bad))
    code, out, err = run_cli(capsys, "certify", str(op_path))
    assert (code, out) == (2, "")
    assert err == f"error: {op_path}: data: entries must be finite numbers\n"
    # a file that is no JSON at all is named once, not twice
    op_path.write_text("not json")
    code, out, err = run_cli(capsys, "certify", str(op_path))
    assert (code, out) == (2, "") and err.startswith(f"error: {op_path} is not valid JSON: ")


@pytest.mark.parametrize(
    "dims, cut, message",
    [
        ([2.5, 2.9], 1.9, "subsystem dimension must be an integer, got 2.5"),
        (["2", "2"], True, "subsystem dimension must be an integer, got '2'"),
        ([2, 2], 1.5, "cut must be an integer, got 1.5"),
        ([True, 2], 1, "subsystem dimension must be an integer, got True"),
        (4, 1, "subsystem dimensions must be a list, got 4"),
        ([0, 2], 1, "subsystem dimension must be >= 1, got 0"),
        ([], 0, "number of subsystems must be >= 1, got 0"),
    ],
    ids=[
        "fractional", "string-and-bool", "fractional-cut", "bool-dim", "scalar-dims",
        "zero-dim", "no-dims",
    ],
)
def test_layout_integers_are_checked_not_coerced(tmp_path, capsys, dims, cut, message):
    # an operator or cap file whose dims or cut are no valid integers is an input error
    doc = dict(operator_to_dict(swap_witness()), dims=dims, cut=cut)
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", str(op_path))
    assert (code, out, err) == (2, "", f"error: {op_path}: {message}\n")
    cap = {"dims": [2], "cut": 1, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    bad = dict(cap, dims=dims[:1] if isinstance(dims, list) else dims, cut=cut)
    caps_path = tmp_path / "caps.json"
    caps_path.write_text(json.dumps({"cap_left": cap, "cap_right": bad}))
    code, out, err = run_cli(capsys, "extend", "swap", "--caps", str(caps_path))
    assert (code, out) == (2, "")
    assert err == f"error: cap file {str(caps_path)!r}, cap_right: {message}\n"


def test_invalid_cap_names_its_file_and_cap(tmp_path, capsys):
    # the cap reads fine but is no valid cap: the error names where it came from
    good = {"dims": [2], "cut": 1, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    bad = json.loads(json.dumps(good))
    bad["data"][1][1][0] = -1.0
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"cap_left": bad, "cap_right": good}))
    code, out, err = run_cli(capsys, "extend", "choi", "--caps", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cap file {str(path)!r}: cap_left is not positive semidefinite "
        "at relative tolerance 1e-10\n"
    )


def test_extend_echoes_a_cap_file_layout_as_given(tmp_path, capsys):
    # a single-system cap with cut 0 is valid, and its cut is printed unchanged
    eye = {"dims": [2], "cut": 0, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"cap_left": eye, "cap_right": dict(eye, cut=1)}))
    code, out, _ = run_cli(capsys, "extend", "swap", "--caps", str(path), "--quiet")
    doc = json.loads(out)
    assert code == 0
    assert (doc["cap_left"]["cut"], doc["cap_right"]["cut"]) == (0, 1)


def test_extend_rejects_wrong_cap_keys(tmp_path, capsys):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"left": 1}))
    code, _, err = run_cli(capsys, "extend", "choi", "--caps", str(path), "--quiet")
    assert code == 2
    assert "cap_left" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read cap file {path!r}: "),
        ("not json", "cap file {path!r} is not valid JSON: "),
    ],
    ids=["missing", "not-json"],
)
def test_extend_reports_unreadable_cap_files(tmp_path, capsys, content, message):
    path = tmp_path / "caps.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "extend", "swap", "--caps", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message.format(path=str(path)))
    assert err.count("\n") == 1


def test_extend_random_caps_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "extend", "swap", "--random-caps", "2", "2", "--quiet")
    code2, out2, _ = run_cli(capsys, "extend", "swap", "--random-caps", "2", "2", "--quiet")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["caps_source"] == "random(2, 2)"
    assert doc["extended"]["dims"] == [2, 2, 2, 2]


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
@pytest.mark.parametrize("name", ["choi", "swap", "rotated-choi"])
def test_extend_does_not_depend_on_scale(tmp_path, capsys, choi, swap, name, scale):
    """The caps' rounding defects, and a rotation's, grow with the scale of W;
    the rotated file is written without symmetrizing it."""
    op = {"choi": choi, "swap": swap, "rotated-choi": choi}[name]
    mat = scale * op.mat
    if name == "rotated-choi":
        rng = rng_from(7)
        u = np.kron(draw_unitary(3, rng), draw_unitary(3, rng))
        mat = u @ mat @ u.conj().T
    path = tmp_path / "scaled.json"
    dump_operator(HermitianOperator(mat, op.layout), path)
    argv = ("extend", str(path), "--random-caps", "2", "2", "--restarts", "16", "--quiet")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["recertification"]["is_witness_numeric"] is True
    assert doc["gamma_structure_ok"] is True


def test_extend_requires_a_cap_source(capsys):
    with pytest.raises(SystemExit) as err:
        main(["extend", "choi", "--quiet"])
    assert err.value.code == 2


def test_choi_demo(capsys):
    code, out, err = run_cli(capsys, "choi-demo")
    assert code == 0
    doc = json.loads(out)
    assert doc["ext_value"] == pytest.approx(-0.5, abs=1e-12)
    assert doc["reduced_value"] == pytest.approx(0.0, abs=1e-10)
    assert doc["closed_ext"] == pytest.approx(-1.5, abs=1e-12)
    assert doc["scale"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert doc["state_psd"] is True
    assert doc["gamma_bprime_psd"] is True
    assert "extension detects the state" in err


def test_mdiew_decompose(capsys):
    code, out, _ = run_cli(capsys, "mdiew", "decompose", "swap", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-9
    beta = np.array(doc["beta"])
    assert beta.shape == (4, 4)
    assert doc["party_dims"] == [2, 2]


def test_mdiew_audit_passes(capsys):
    code, out, _ = run_cli(
        capsys, "mdiew", "audit", "swap", "--trials", "8", "--quiet"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["failures"] == []
    assert doc["trials"] == 8
    assert doc["min_value"] >= -1e-9


def test_mdiew_audit_summary_names_worst_trial_and_gaps(capsys):
    code, out, err = run_cli(capsys, "mdiew", "audit", "swap", "--trials", "30")
    assert code == 0
    quiet_code, quiet_out, _ = run_cli(
        capsys, "mdiew", "audit", "swap", "--trials", "30", "--quiet"
    )
    assert (quiet_code, quiet_out) == (code, out)
    doc = json.loads(out)
    assert "worst_trial" not in doc and "median_route_gap" not in doc
    report = separable_nonnegativity_audit(MdiewScenario.ideal(swap_witness()), 30, 42)
    assert f"{doc['min_value']:+.12e}, at trial {report.worst_trial}" in err
    assert f"route gaps: median {report.median_route_gap:.3e}, max" in err


def test_mdiew_audit_detects_violations(tmp_path, capsys):
    neg = HermitianOperator(-np.eye(4), SystemLayout((2, 2), 1))
    path = tmp_path / "neg_op.json"
    dump_operator(neg, path)
    code, out, _ = run_cli(
        capsys, "mdiew", "audit", str(path), "--trials", "5", "--quiet"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert len(doc["failures"]) > 0


def test_mdiew_audit_embedded(capsys):
    code, out, _ = run_cli(
        capsys,
        "mdiew", "audit", "swap",
        "--trials", "4", "--povm-mode", "arbitrary",
        "--embed-dims", "5", "6", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["embed_dims"] == [5, 6]
    assert doc["passed"] is True


@pytest.mark.parametrize("mode", ["ideal", "misaligned"])
def test_mdiew_audit_embedding_needs_arbitrary_mode(capsys, mode):
    # embedded elements are always drawn arbitrary; another mode would be misreported
    code, out, err = run_cli(
        capsys, "mdiew", "audit", "swap", "--povm-mode", mode, "--embed-dims", "9", "9",
    )
    assert code == 2
    assert out == ""
    assert "arbitrary" in err


def test_mdiew_audit_embedding_must_hold_the_measurement_spaces(capsys):
    code, out, err = run_cli(
        capsys, "mdiew", "audit", "swap", "--embed-dims", "3", "4", "--trials", "2"
    )
    assert (code, out) == (2, "")
    assert err == "error: embed dims (3, 4) smaller than measurement spaces (4, 4)\n"


def test_cap_that_is_no_json_object_names_its_file_and_cap(tmp_path, capsys):
    cap = {"dims": [2], "cut": 1, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"cap_left": [1, 2], "cap_right": cap}))
    code, out, err = run_cli(capsys, "extend", "swap", "--caps", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cap file {str(path)!r}, cap_left: operator JSON must be an object, got list\n"
    )


def test_json_out_mirrors_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "certify", "swap", "--json-out", str(target), "--quiet"
    )
    assert code == 0
    assert target.read_text() == out


def test_failed_json_out_leaves_stdout_empty(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "certify", "swap", "--json-out", str(target), "--quiet"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not target.exists()


def test_seed_is_recorded_verbatim(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "swap", "--seed", "7", "--restarts", "12",
        "--tol", "1e-8", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"seed": 7, "restarts": 12, "tol": 1e-8}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["choi-demo", "--seed", "-5"], "seed must be >= 0, got -5"),
        (["mdiew", "decompose", "swap", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["mdiew", "audit", "swap", "--trials", "2", "--restarts", "0"],
         "restarts must be >= 1, got 0"),
        (["certify", "swap", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["choi-demo-seed", "decompose-seed", "audit-restarts", "certify-seed"],
)
def test_echoed_options_are_checked_for_every_command(capsys, argv, message):
    # every document echoes seed, restarts and tol, so a value out of range is
    # an input error even for a command that does not use it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_console_script_byte_identical():
    args = [sys.executable, "-m", "entwit.cli", "certify", "swap", "--quiet"]
    first = subprocess.run(args, capture_output=True, check=True)
    second = subprocess.run(args, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_unexpected_exception_exits_2_without_traceback(monkeypatch, capsys):
    import entwit.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_choi_demo", boom)
    code, out, err = run_cli(capsys, "choi-demo")
    assert code == 2
    assert out == ""
    assert err == "error: unexpected RuntimeError: boom\n"


# A fresh interpreter runs main(argv) and reports which entwit modules it
# loaded, and whether it loaded ``dataclasses`` (numpy does not) or
# ``numpy.ma``, which np.median imports on its first call (14-21 ms).
_LOADED_MODULES = """
import contextlib, io, json, sys
if sys.argv[1:]:
    import entwit.cli
    with contextlib.redirect_stdout(io.StringIO()):
        entwit.cli.main(sys.argv[1:])
else:
    import entwit
loaded = [m for m in sys.modules if m.startswith("entwit.") or m in ("dataclasses", "numpy.ma")]
print(json.dumps(sorted(loaded)))
"""

_NOT_FOR_MDIEW = {"entwit.witness", "entwit.choi", "entwit.catalog", "entwit.extension"}


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        ([], None),
        (["mdiew", "audit", "swap", "--trials", "5", "--quiet"], _NOT_FOR_MDIEW),
        (["mdiew", "decompose", "swap", "--quiet"], _NOT_FOR_MDIEW),
        (["certify", "swap", "--restarts", "4", "--quiet"],
         {"entwit.mdiew", "entwit.choi", "entwit.catalog", "entwit.extension"}),
        (["extend", "swap", "--random-caps", "2", "2", "--restarts", "4", "--quiet"],
         {"entwit.mdiew", "entwit.choi", "entwit.catalog"}),
        (["choi-demo", "--quiet"], {"entwit.mdiew", "entwit.catalog", "entwit.extension"}),
    ],
    ids=["import-entwit", "mdiew-audit", "mdiew-decompose", "certify", "extend", "choi-demo"],
)
def test_each_command_loads_only_its_own_layers(argv, not_loaded):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert loaded.isdisjoint({"dataclasses", "numpy.ma"})
    if not_loaded is None:
        assert loaded == set()
    else:
        assert "entwit.cli" in loaded
        assert loaded.isdisjoint(not_loaded), sorted(loaded & not_loaded)


def _buffered_env() -> dict:
    """The environment with block-buffered stdout, as a shell gives a child
    whose stdout is a pipe: output then waits in the buffer until the exit."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv, want_code",
    [
        (["mdiew", "audit", "swap", "--trials", "20"], 0),
        (["mdiew", "audit", "{neg}", "--trials", "5"], 1),
        (["mdiew", "audit", "swap", "--povm-mode", "ideal", "--embed-dims", "9", "9"], 2),
        # a document larger than a pipe buffer (64 KB)
        (["extend", "choi", "--random-caps", "2", "2", "--restarts", "4"], 0),
    ],
    ids=["passes", "violation", "input-error", "large-document"],
)
def test_entry_point_matches_main(tmp_path, capsys, argv, want_code):
    neg = tmp_path / "neg.json"
    dump_operator(HermitianOperator(-0.5 * np.eye(4), SystemLayout((2, 2), 1)), neg)
    argv = [a.format(neg=neg) for a in argv]
    in_process = tmp_path / "in_process.json"
    code, out, err = run_cli(capsys, *argv, "--json-out", str(in_process))
    child_out = tmp_path / "child.json"
    proc = subprocess.run(
        [sys.executable, "-m", "entwit.cli", *argv, "--json-out", str(child_out)],
        capture_output=True, env=_buffered_env(),
    )
    assert code == proc.returncode == want_code
    assert proc.stdout.decode() == out
    assert proc.stderr.decode() == err
    if want_code == 2:
        assert out == "" and not child_out.exists()
    else:
        assert child_out.read_bytes() == proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # the document outgrows the stdout buffer: the write inside main fails
        ["extend", "choi", "--random-caps", "2", "2", "--restarts", "4"],
        # the document stays in the buffer: only the flush before the exit fails
        ["mdiew", "audit", "swap", "--trials", "5"],
    ],
    ids=["large-document", "small-document"],
)
def test_entry_point_reports_a_closed_stdout_once(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "entwit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_buffered_env(),
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Broken pipe" in errors[0], err
    assert "Exception ignored" not in err
