"""The benchmark's workloads: the CLI invocations of one round, and their inputs.

A run repeats whole rounds.  Round ``r`` of a run with workload seed ``s``
draws its rotations, caps and program seeds from the stream ``(s, r)``, so the
same seed gives the same inputs and every round has the same operations.

Every workload runs every command kind at least once per round, because every
end-to-end and per-layer metric must be measured on every workload.  The
commands a workload is about carry most of its time; the others are single
small probes, so that a change to one layer shows as "no change" on the
metrics of the layers it does not touch.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import haar_unitary, load_fixture, operator_doc, random_psd

WORKLOADS = ("certify", "audit", "audit-embedded")

CHOI_AUDIT_TRIALS = 20
SWAP_AUDIT_TRIALS = 150
EMBED_DIMS = (16, 16)
CHOI_EMBED_TRIALS = 8
SWAP_EMBED_TRIALS = 60
PROBE_AUDIT_TRIALS = 40
PROBE_EMBED_TRIALS = 4
PROBE_RESTARTS = 4


@dataclass
class Op:
    """One CLI invocation: its kind, its arguments after ``entwit``, and what
    the checks need to know about its inputs."""

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return self.expect.get("trials", 0)


class Inputs:
    """Writes the round's operator and cap files under ``work`` and draws
    program seeds; everything comes from ``numpy.random.default_rng``."""

    def __init__(self, root: Path, work: Path, seed: int, round_index: int):
        self.root = root
        self.dir = work / f"round{round_index}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([seed, round_index])
        self.fixtures = {name: load_fixture(root, name) for name in ("choi", "swap", "identity")}

    def seed(self) -> str:
        return str(int(self.rng.integers(1, 2**31 - 1)))

    def _write(self, name: str, doc: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path.relative_to(self.root))

    def rotated(self, name: str) -> tuple[str, np.ndarray]:
        """The fixture rotated by a local Haar unitary U_A (x) U_B, written out."""
        mat, dims = self.fixtures[name]
        u = np.kron(haar_unitary(dims[0], self.rng), haar_unitary(dims[1], self.rng))
        rot = u @ mat @ u.conj().T
        rot = (rot + rot.conj().T) / 2
        return self._write(f"rot-{name}.json", operator_doc(rot, dims, 1)), rot

    def caps(self, d_left: int, d_right: int) -> tuple[str, tuple[np.ndarray, np.ndarray]]:
        left, right = random_psd(d_left, self.rng), random_psd(d_right, self.rng)
        doc = {"cap_left": operator_doc(left, (d_left,), 1),
               "cap_right": operator_doc(right, (d_right,), 1)}
        return self._write(f"caps-{d_left}{d_right}.json", doc), (left, right)


def _certify(inp: Inputs, name: str, rotate: bool) -> Op:
    base, dims = inp.fixtures[name]
    expect = {"base": base, "dims": dims, "witness": name != "identity",
              "span_rank": 4 if name == "swap" else None}
    if not rotate:
        return Op("certify", ["certify", name], dict(expect, matrix=base))
    path, rot = inp.rotated(name)
    return Op("certify", ["certify", path, "--seed", inp.seed()], dict(expect, matrix=rot))


def _extend_random(inp: Inputs, name: str, dims: tuple[int, int], restarts: int | None) -> Op:
    argv = ["extend", name, "--random-caps", str(dims[0]), str(dims[1]), "--seed", inp.seed()]
    if restarts is not None:
        argv += ["--restarts", str(restarts)]
    return Op("extend", argv, {"matrix": inp.fixtures[name][0], "cap_dims": dims})


def _extend_file(inp: Inputs, name: str, dims: tuple[int, int]) -> Op:
    path, caps = inp.caps(*dims)
    return Op("extend", ["extend", name, "--caps", path, "--seed", inp.seed()],
              {"matrix": inp.fixtures[name][0], "caps": caps, "cap_dims": dims})


def _audit(inp: Inputs, name: str, trials: int, mode: str = "arbitrary",
           embed: tuple[int, int] | None = None) -> Op:
    argv = ["mdiew", "audit", name, "--trials", str(trials), "--povm-mode", mode,
            "--seed", inp.seed()]
    if embed is not None:
        argv += ["--embed-dims", str(embed[0]), str(embed[1])]
    return Op("audit", argv, {"trials": trials, "povm_mode": mode,
                              "embed_dims": None if embed is None else list(embed)})


def make_round(workload: str, root: Path, work: Path, seed: int, round_index: int) -> list[Op]:
    inp = Inputs(root, work, seed, round_index)
    if workload == "certify":
        return [
            _certify(inp, "choi", rotate=False),
            _certify(inp, "swap", rotate=False),
            _certify(inp, "identity", rotate=False),
            _certify(inp, "choi", rotate=True),
            _certify(inp, "swap", rotate=True),
            _extend_random(inp, "choi", (2, 2), None),
            _extend_file(inp, "swap", (3, 2)),
            _audit(inp, "swap", PROBE_AUDIT_TRIALS),
            _audit(inp, "swap", PROBE_EMBED_TRIALS, embed=EMBED_DIMS),
        ]
    probes = [
        _certify(inp, "swap", rotate=True),
        _extend_random(inp, "swap", (3, 2), PROBE_RESTARTS),
    ]
    if workload == "audit":
        return [
            _audit(inp, name, trials, mode)
            for name, trials in (("choi", CHOI_AUDIT_TRIALS), ("swap", SWAP_AUDIT_TRIALS))
            for mode in ("arbitrary", "misaligned", "ideal")
        ] + probes + [_audit(inp, "swap", PROBE_EMBED_TRIALS, embed=EMBED_DIMS)]
    if workload == "audit-embedded":
        return [
            _audit(inp, "choi", CHOI_EMBED_TRIALS, embed=EMBED_DIMS),
            _audit(inp, "swap", SWAP_EMBED_TRIALS, embed=EMBED_DIMS),
        ] + probes + [_audit(inp, "swap", PROBE_AUDIT_TRIALS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
