import json

import numpy as np
import pytest

from entwit import (
    HermitianOperator,
    SerializationError,
    SpanningReport,
    SystemLayout,
    dump_operator,
    dumps_canonical,
    load_operator,
    matrix_from_json,
    matrix_to_json,
    operator_from_dict,
    operator_to_dict,
    to_jsonable,
)


def _random_op(dims, seed):
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianOperator((g + g.conj().T) / 2, SystemLayout(dims, 1))


def test_matrix_json_roundtrip_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(matrix_to_json(m))
    np.testing.assert_array_equal(back, m)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(SerializationError):
        matrix_from_json([[1.0, 2.0]])
    with pytest.raises(SerializationError):
        matrix_from_json([[[1.0]]])
    with pytest.raises(SerializationError):
        matrix_from_json("nope")


def test_operator_dict_roundtrip():
    op = _random_op((2, 3), seed=5)
    d = operator_to_dict(op)
    assert d["dims"] == [2, 3]
    assert d["cut"] == 1
    back = operator_from_dict(d)
    assert back.layout == op.layout
    np.testing.assert_allclose(back.mat, op.mat, atol=1e-15)


def test_operator_from_dict_validation():
    base = operator_to_dict(_random_op((2, 2), seed=1))
    bad = dict(base, dims=[2, 3])
    with pytest.raises(SerializationError):
        operator_from_dict(bad)
    with pytest.raises(SerializationError):
        operator_from_dict({"dims": [2, 2], "data": base["data"]})
    # visible Hermiticity defects are rejected, not silently repaired
    asym = dict(base)
    data = json.loads(json.dumps(base["data"]))
    data[0][1][0] += 1e-6
    asym["data"] = data
    with pytest.raises(SerializationError):
        operator_from_dict(asym)


def test_operator_from_dict_symmetrizes_tiny_defects():
    base = operator_to_dict(_random_op((2, 2), seed=2))
    data = json.loads(json.dumps(base["data"]))
    data[0][1][0] += 1e-12
    wobbly = dict(base, data=data)
    op = operator_from_dict(wobbly)
    np.testing.assert_array_equal(op.mat, op.mat.conj().T)


def test_dump_and_load_file(tmp_path):
    op = _random_op((3, 3), seed=7)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    back = load_operator(path)
    assert back.layout == op.layout
    np.testing.assert_allclose(back.mat, op.mat, atol=1e-15)
    with pytest.raises(SerializationError):
        load_operator(tmp_path / "missing.json")
    (tmp_path / "garbage.json").write_text("{not json")
    with pytest.raises(SerializationError):
        load_operator(tmp_path / "garbage.json")


def test_to_jsonable_handles_common_shapes():
    out = to_jsonable(
        {
            "z": 1 + 2j,
            "v": np.array([1.0 + 0j, 0.5j]),
            "m": np.eye(2, dtype=complex),
            "z0": np.array(1 + 2j),
            "z3": np.ones((2, 2, 2), complex),
            "r": np.array([1.0, 2.0]),
            "t": (1, 2),
            "s": SpanningReport(spanning=True, rank=4, dim=4, verdict="confirmed"),
        }
    )
    assert out["z"] == [1.0, 2.0]
    assert out["v"] == [[1.0, 0.0], [0.0, 0.5]]
    assert out["m"][0][0] == [1.0, 0.0]
    assert out["z0"] == [1.0, 2.0]
    assert out["z3"] == [[[[1.0, 0.0]] * 2] * 2] * 2
    assert out["r"] == [1.0, 2.0]
    assert out["t"] == [1, 2]
    assert out["s"] == {
        "spanning": True, "rank": 4, "dim": 4, "verdict": "confirmed", "note": ""
    }


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}
    assert a.index('"a"') < a.index('"b"')
