"""Operator JSON round-trips and canonical (byte-stable) report output.

Operator files carry ``{"dims": [...], "cut": k, "data": [[[re, im], ...]]}``
with ``data`` row-major over the total dimension.  Readers reject non-finite
entries and matrices whose Hermiticity defect exceeds 1e-9 of their largest
entry, and symmetrize the survivors, so text round-trips stay stable against
the tiny asymmetries decimal JSON introduces.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .operators import Array, HermitianOperator, SystemLayout, _check_hermitian, _Frozen

__all__ = [
    "SerializationError",
    "JSON_HERMITICITY_TOL",
    "matrix_to_json",
    "matrix_from_json",
    "operator_to_dict",
    "operator_from_dict",
    "dump_operator",
    "load_operator",
    "to_jsonable",
    "dumps_canonical",
]

JSON_HERMITICITY_TOL = 1e-9


class SerializationError(ValueError):
    """Malformed or inconsistent operator/report JSON."""


def matrix_to_json(mat: Array) -> list:
    """Nested [re, im] pairs, row-major, for an array of any shape."""
    m = np.asarray(mat, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def matrix_from_json(data: Any, context: str = "data") -> Array:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{context}: entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SerializationError(
            f"{context}: expected an NxMx2 nest of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise SerializationError(f"{context}: entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def operator_to_dict(op: HermitianOperator) -> dict:
    return {
        "dims": list(op.layout.dims),
        "cut": op.layout.cut,
        "data": matrix_to_json(op.mat),
    }


def operator_from_dict(d: Any) -> HermitianOperator:
    if not isinstance(d, dict):
        raise SerializationError(f"operator JSON must be an object, got {type(d).__name__}")
    missing = [k for k in ("dims", "cut", "data") if k not in d]
    if missing:
        raise SerializationError(f"operator JSON missing keys: {', '.join(missing)}")
    try:
        layout = SystemLayout(d["dims"], d["cut"])
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    mat = matrix_from_json(d["data"])
    n = layout.total_dim
    if mat.shape != (n, n):
        raise SerializationError(
            f"data is {mat.shape[0]}x{mat.shape[1]} but dims {list(layout.dims)} need {n}x{n}"
        )
    _check_hermitian(mat, JSON_HERMITICITY_TOL, SerializationError)
    return HermitianOperator((mat + mat.conj().T) / 2, layout)


def dump_operator(op: HermitianOperator, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(operator_to_dict(op)))


def _read_json(path: str | Path, what: str) -> Any:
    """The parsed JSON file at ``path``; ``what`` names it in error messages."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SerializationError(f"cannot read {what}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{what} is not valid JSON: {exc}") from exc


def load_operator(path: str | Path) -> HermitianOperator:
    """The operator in the file at ``path``; errors in its document name the file."""
    what = str(Path(path))
    doc = _read_json(path, what)
    try:
        return operator_from_dict(doc)
    except SerializationError as exc:
        raise SerializationError(f"{what}: {exc}") from exc


def to_jsonable(x: Any) -> Any:
    """Recursive plain-JSON view: records (named tuples) and value types to
    dicts of their fields, complex to [re, im]."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return float(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, HermitianOperator):
        return operator_to_dict(x)
    if isinstance(x, np.ndarray):
        return matrix_to_json(x) if np.iscomplexobj(x) else x.tolist()
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return {name: to_jsonable(v) for name, v in zip(x._fields, x)}
    if isinstance(x, _Frozen):
        return {name: to_jsonable(getattr(x, name)) for name in x.__slots__}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline at end."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"
