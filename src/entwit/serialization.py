"""Operator JSON round-trips and canonical (byte-stable) report output.

Operator files carry ``{"dims": [...], "cut": k, "data": [[[re, im], ...]]}``
with ``data`` row-major over the total dimension.  Readers reject matrices
whose Hermiticity defect exceeds 1e-9 of their largest entry and symmetrize
the survivors, so text round-trips stay stable against the tiny asymmetries
decimal JSON introduces.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from .operators import Array, HermitianOperator, ProductVector, SystemLayout

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
    """Nested [re, im] pairs, row-major."""
    m = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data: Any, context: str = "data") -> Array:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{context}: entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SerializationError(
            f"{context}: expected an NxMx2 nest of [re, im] pairs, got shape {arr.shape}"
        )
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
        dims = tuple(int(x) for x in d["dims"])
        cut = int(d["cut"])
    except (TypeError, ValueError) as exc:
        raise SerializationError("dims must be a list of ints and cut an int") from exc
    try:
        layout = SystemLayout(dims, cut)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    mat = matrix_from_json(d["data"])
    n = layout.total_dim
    if mat.shape != (n, n):
        raise SerializationError(
            f"data is {mat.shape[0]}x{mat.shape[1]} but dims {list(dims)} need {n}x{n}"
        )
    defect = np.abs(mat - mat.conj().T).max()
    if defect > JSON_HERMITICITY_TOL * np.abs(mat).max():
        raise SerializationError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{JSON_HERMITICITY_TOL:.0e} of the largest entry"
        )
    return HermitianOperator((mat + mat.conj().T) / 2, layout)


def dump_operator(op: HermitianOperator, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(operator_to_dict(op)))


def load_operator(path: str | Path) -> HermitianOperator:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SerializationError(f"cannot read {p}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{p} is not valid JSON: {exc}") from exc
    return operator_from_dict(payload)


def to_jsonable(x: Any) -> Any:
    """Recursive plain-JSON view: dataclasses to dicts, complex to [re, im]."""
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
    if isinstance(x, ProductVector):
        return {
            "factors": [
                [[float(z.real), float(z.imag)] for z in f] for f in x.factors
            ]
        }
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return matrix_to_json(x) if x.ndim == 2 else [
                [float(z.real), float(z.imag)] for z in x
            ]
        return x.tolist()
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: to_jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline at end."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"
