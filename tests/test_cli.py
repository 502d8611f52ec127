import json
import subprocess
import sys

import numpy as np
import pytest

from entwit import (
    HermitianOperator,
    SystemLayout,
    dump_operator,
    operator_from_dict,
    operator_to_dict,
    random_unitary,
    rng_from,
)
from entwit.cli import main


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


def test_extend_rejects_wrong_cap_keys(tmp_path, capsys):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"left": 1}))
    code, _, err = run_cli(capsys, "extend", "choi", "--caps", str(path), "--quiet")
    assert code == 2
    assert "cap_left" in err


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
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
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
        "--trials", "4", "--povm-mode", "misaligned",
        "--embed-dims", "5", "6", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["embed_dims"] == [5, 6]
    assert doc["passed"] is True


def test_json_out_mirrors_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "certify", "swap", "--json-out", str(target), "--quiet"
    )
    assert code == 0
    assert target.read_text() == out


def test_seed_is_recorded_verbatim(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "swap", "--seed", "7", "--restarts", "12",
        "--tol", "1e-8", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"seed": 7, "restarts": 12, "tol": 1e-8}


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
