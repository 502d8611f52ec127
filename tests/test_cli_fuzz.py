"""CLI fuzz: a malformed operator or cap file is an input error, never a verdict.

hypothesis breaks one valid document per example -- the swap witness, or a
cap file for it -- in one way: a wrong JSON type for the whole document or
for ``dims``, ``cut`` or ``data``; a wrong nesting depth or shape of
``data``; one entry set to NaN, +-Inf, a huge or a tiny number, or a JSON
value that is no number; or the whole matrix scaled by a huge or a tiny
factor.  Each command must exit 0 or 2 with no traceback: exit 1 is kept
for property violations, and every document drawn here is either rejected
or still a witness (caps: still PSD).
"""
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entwit import operator_to_dict, swap_witness
from entwit.cli import main

SWAP = operator_to_dict(swap_witness())
CAPS = {
    "cap_left": {"dims": [2], "cut": 1, "data": [[[1, 0], [0.5, 0.5]], [[0.5, -0.5], [1, 0]]]},
    "cap_right": {"dims": [1], "cut": 1, "data": [[[2, 0]]]},
}
HUGE = st.floats(1e300, np.finfo(float).max)
TINY = st.floats(-1e-300, 1e-300)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(-1e3, 1e3) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
# JSON values that are no number, in place of one [re, im] part
NON_NUMBERS = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(0, 1), max_size=2)


def _reshaped(data: list, how: str) -> list:
    """``data`` one level too deep or too shallow, or short of a row, a column,
    an imaginary part or one entry of one row (ragged)."""
    return {
        "deeper": [data],
        "shallower": data[0],
        "pairs-nested": [[[pair] for pair in row] for row in data],
        "row-dropped": data[1:],
        "column-dropped": [row[1:] for row in data],
        "real-only": [[pair[:1] for pair in row] for row in data],
        "ragged": [data[0][1:]] + data[1:],
    }[how]


@st.composite
def broken_operators(draw, base: dict):
    doc = json.loads(json.dumps(base))
    n = len(doc["data"])
    kind = draw(st.sampled_from(["document", "dims", "cut", "data", "shape", "entry", "scale"]))
    if kind == "document":
        return draw(JSON_VALUES)
    if kind == "dims":  # never a layout of the same total dimension
        lists = st.lists(st.integers(-1, 5), max_size=4).filter(lambda d: np.prod(d) != n)
        doc["dims"] = draw(lists | JSON_VALUES)
    elif kind == "cut":
        doc["cut"] = draw(st.integers(-2, 4).filter(lambda c: c != base["cut"]) | JSON_VALUES)
    elif kind == "data":
        doc["data"] = draw(JSON_VALUES)
    elif kind == "shape":
        how = ["deeper", "shallower", "pairs-nested", "row-dropped", "column-dropped",
               "real-only", "ragged"]
        doc["data"] = _reshaped(doc["data"], draw(st.sampled_from(how)))
    elif kind == "entry":
        i, j, part = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
        diagonal_real = i == j and part == 0
        # a huge diagonal entry is positive and a tiny one stays off the real
        # diagonal, so the document stays a witness wherever it is Hermitian
        values = st.sampled_from([np.nan, np.inf, -np.inf]) | NON_NUMBERS
        values |= HUGE if diagonal_real else HUGE | HUGE.map(lambda x: -x)
        if not diagonal_real:
            values |= TINY
        doc["data"][i][j][part] = draw(values)
    else:
        c = draw(HUGE | st.floats(5e-324, 1e-300) | st.floats(1e-300, 1e300))
        doc["data"] = [[[c * x for x in pair] for pair in row] for row in doc["data"]]
    return doc


@st.composite
def broken_caps(draw):
    doc = json.loads(json.dumps(CAPS))
    kind = draw(st.sampled_from(["document", "keys", "cap_left", "cap_right"]))
    if kind == "document":
        return draw(JSON_VALUES)
    if kind == "keys":
        doc[draw(st.sampled_from(["extra", "cap_left", "cap_right"]))] = draw(JSON_VALUES)
        if draw(st.booleans()):
            del doc[draw(st.sampled_from(sorted(doc)))]
        return doc
    doc[kind] = draw(broken_operators(CAPS[kind]))
    return doc


def _run(capsys, *argv) -> None:
    code = main([*argv, "--quiet"])
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err


# the same examples on every run, so that Tier-1 is stable
_FUZZ = settings(
    max_examples=120, deadline=None, database=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@_FUZZ
@given(doc=broken_operators(SWAP))
def test_a_broken_operator_file_never_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    _run(capsys, "certify", str(path), "--restarts", "2")
    _run(capsys, "mdiew", "decompose", str(path))
    _run(capsys, "mdiew", "audit", str(path), "--trials", "3")


@_FUZZ
@given(doc=broken_caps())
def test_a_broken_cap_file_never_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "caps.json"
    path.write_text(json.dumps(doc))
    _run(capsys, "extend", "swap", "--caps", str(path), "--restarts", "2")
