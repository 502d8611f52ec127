"""Command-line front end.

Subcommands
-----------
certify     numerically certify an operator as an entanglement witness
extend      tensor a witness with positive caps and re-certify the result
choi-demo   print the worked nontrivial-extension exhibit
mdiew       decompose a witness into input states, or audit nonnegativity

Every run emits one canonical JSON document on stdout (sorted keys, fixed
indentation, trailing newline) so that repeated runs with the same seed are
byte-identical.  Human-readable summaries go to stderr unless --quiet.
``--json-out PATH`` additionally writes the same document to a file.

Exit codes: 0 success, 1 property violation (an audit found a negative
separable value or a route mismatch), 2 input or validation error, or any
other failure (reported in one line, without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .choi import nontrivial_extension_exhibit
from .extension import ExtensionSpec, extend_witness, gamma_of_extension_check
from .mdiew import POVM_MODES, MdiewScenario, separable_nonnegativity_audit
from .operators import PSD_TOL, HermitianOperator, LayoutError, NumericalError
from .sampling import random_psd, rng_from
from .serialization import (
    SerializationError,
    dumps_canonical,
    load_operator,
    operator_from_dict,
    operator_to_dict,
)
from .witness import (
    DEFAULT_RESTARTS, VERDICT_CONFIRMED, VERDICT_NOT_FOUND, SeeSawReport,
    certify_witness, has_spanning_property, nd_spanning,
)

DEFAULT_SEED = 42

# Cap draws use a spawn key far above the see-saw restart indices so that a
# shared master seed never hands the same stream to two different consumers.
_CAP_STREAM = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility knobs, echoed verbatim into every output document."""

    seed: int = DEFAULT_SEED
    restarts: int = DEFAULT_RESTARTS
    tol: float = PSD_TOL


def _fixture_dir():
    return resources.files(__package__) / "fixtures"


def bundled_operator_names() -> tuple[str, ...]:
    """Names usable in place of a file path (``choi``, ``swap``, ...)."""
    return tuple(
        sorted(
            p.name[: -len(".json")]
            for p in _fixture_dir().iterdir()
            if p.name.endswith(".json")
        )
    )


def resolve_operator(token: str) -> tuple[str, HermitianOperator]:
    """Interpret an operator argument as a file path or a bundled name."""
    path = Path(token)
    if path.is_file():
        return token, load_operator(path)
    candidate = _fixture_dir() / f"{token}.json"
    if candidate.is_file():
        return token, operator_from_dict(json.loads(candidate.read_text()))
    raise SerializationError(
        f"{token!r} is neither a readable file nor one of the bundled "
        f"operators {', '.join(bundled_operator_names())}"
    )


def _emit(args, payload: dict, lines: list[str]) -> None:
    text = dumps_canonical(payload)
    sys.stdout.write(text)
    if args.json_out:
        Path(args.json_out).write_text(text)
    if not args.quiet:
        for line in lines:
            print(line, file=sys.stderr)


def _config(args) -> RunConfig:
    return RunConfig(seed=args.seed, restarts=args.restarts, tol=args.tol)


def _restart_summary(report: SeeSawReport) -> str:
    """How the see-saw restarts stopped, for the stderr summary."""
    settled, stopped = sum(report.settled), sum(report.converged)
    return (
        f"{settled} settled, {stopped - settled} stalled, "
        f"{report.restarts - stopped} at budget; iterations median "
        f"{np.median(report.iterations):g}, max {max(report.iterations)}"
    )


def cmd_certify(args) -> int:
    cfg = _config(args)
    label, op = resolve_operator(args.witness)
    cert = certify_witness(op, restarts=cfg.restarts, seed=cfg.seed, tol=cfg.tol)
    payload = {
        "command": "certify",
        "config": asdict(cfg),
        "witness": label,
        "is_witness_numeric": cert.is_witness_numeric,
        "min_eigenvalue": float(cert.min_eigenvalue),
        "min_product_value": float(cert.min_product.best_value),
        "see_saw_converged": cert.min_product.converged,
        "detection_value": None
        if cert.detection_value is None
        else float(cert.detection_value),
        "detection_state": None
        if cert.detection_state is None
        else operator_to_dict(cert.detection_state),
        "spanning": None,
        "nd_spanning": None,
    }
    lines = [
        f"operator: {label} (dim {op.layout.total_dim})",
        f"is witness (numeric): {cert.is_witness_numeric}",
        f"min eigenvalue:       {cert.min_eigenvalue:+.12e}",
        f"min product value:    {cert.min_product.best_value:+.12e}",
        f"see-saw restarts:     {_restart_summary(cert.min_product)}",
    ]
    if cert.is_witness_numeric:
        span = has_spanning_property(op, cert)
        nd = nd_spanning(op, span, seed=cfg.seed)
        nd_verdict = VERDICT_CONFIRMED if nd else VERDICT_NOT_FOUND
        payload["spanning"] = asdict(span)
        payload["nd_spanning"] = {"verdict": nd_verdict, "holds": nd}
        lines += [
            f"zero-set spanning:    {span.verdict} (rank {span.rank} of {span.dim})",
            f"two-sided spanning:   {nd_verdict}",
        ]
    else:
        payload["note"] = (
            "not certified as a witness at this budget; "
            "spanning analysis not applicable"
        )
        lines.append("spanning analysis:    not applicable")
    _emit(args, payload, lines)
    return 0


def _caps_from_file(path: str) -> ExtensionSpec:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SerializationError(f"cannot read cap file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"cap file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"cap_left", "cap_right"}:
        raise SerializationError(
            f"cap file {path!r} must be an object with exactly the keys "
            "'cap_left' and 'cap_right'"
        )
    return ExtensionSpec(
        cap_left=operator_from_dict(data["cap_left"]),
        cap_right=operator_from_dict(data["cap_right"]),
    )


def _caps_random(dims: tuple[int, int], seed: int) -> ExtensionSpec:
    d_left, d_right = dims
    if d_left < 1 or d_right < 1:
        raise ValueError(f"cap dimensions must be positive, got {dims}")
    return ExtensionSpec(
        cap_left=random_psd(d_left, rng_from(seed, _CAP_STREAM)),
        cap_right=random_psd(d_right, rng_from(seed, _CAP_STREAM + 1)),
    )


def cmd_extend(args) -> int:
    cfg = _config(args)
    label, op = resolve_operator(args.witness)
    if args.caps is not None:
        spec = _caps_from_file(args.caps)
        caps_source = args.caps
    else:
        spec = _caps_random(tuple(args.random_caps), cfg.seed)
        caps_source = f"random({args.random_caps[0]}, {args.random_caps[1]})"
    extended = extend_witness(op, spec)
    recert = certify_witness(
        extended, restarts=cfg.restarts, seed=cfg.seed, tol=cfg.tol
    )
    gamma_ok = gamma_of_extension_check(op, spec)
    payload = {
        "command": "extend",
        "config": asdict(cfg),
        "witness": label,
        "caps_source": caps_source,
        "cap_left": operator_to_dict(spec.cap_left),
        "cap_right": operator_to_dict(spec.cap_right),
        "extended": operator_to_dict(extended),
        "recertification": {
            "is_witness_numeric": recert.is_witness_numeric,
            "min_eigenvalue": float(recert.min_eigenvalue),
            "min_product_value": float(recert.min_product.best_value),
        },
        "gamma_structure_ok": gamma_ok,
    }
    dims = extended.layout.dims
    lines = [
        f"extended {label} by caps of dims {spec.dims} -> systems {dims}",
        f"re-certified as witness: {recert.is_witness_numeric}",
        f"min product value:       {recert.min_product.best_value:+.12e}",
        f"see-saw restarts:        {_restart_summary(recert.min_product)}",
        f"partial-transpose structure preserved: {gamma_ok}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_choi_demo(args) -> int:
    cfg = _config(args)
    report = nontrivial_extension_exhibit()
    payload = {
        "command": "choi-demo",
        "config": asdict(cfg),
        "a": [[report.params.a[i, j].real for j in range(2)] for i in range(2)],
        "b": [[report.params.b[i, j].real for j in range(2)] for i in range(2)],
        "cap_right": [[report.cap_right[i, j].real for j in range(2)] for i in range(2)],
        "ext_value": float(report.ext_value),
        "reduced_value": float(report.reduced_value),
        "closed_ext": float(report.closed_ext),
        "closed_reduced": float(report.closed_reduced),
        "scale": float(report.scale),
        "state_psd": report.state_psd,
        "gamma_bprime_psd": report.gamma_bprime_psd,
    }
    lines = [
        "nontrivial extension exhibit (three-party state, extended witness)",
        f"  {'extended value':<24}{report.ext_value:+.12f}",
        f"  {'reduced value':<24}{report.reduced_value:+.12f}",
        f"  {'closed-form extended':<24}{report.closed_ext:+.12f}",
        f"  {'closed-form reduced':<24}{report.closed_reduced:+.12f}",
        f"  {'scale (numeric/closed)':<24}{report.scale:+.12f}",
        f"  {'state PSD':<24}{report.state_psd}",
        f"  {'third-system PT PSD':<24}{report.gamma_bprime_psd}",
        "the extension detects the state although the reduced witness does not",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_mdiew_decompose(args) -> int:
    cfg = _config(args)
    label, op = resolve_operator(args.witness)
    scenario = MdiewScenario.ideal(op)
    payload = {
        "command": "mdiew-decompose",
        "config": asdict(cfg),
        "witness": label,
        "party_dims": list(scenario.party_dims),
        "basis_sizes": [len(scenario.basis_left), len(scenario.basis_right)],
        "beta": [[float(v) for v in row] for row in scenario.beta],
        "residual": scenario.residual,
    }
    lines = [
        f"decomposed {label} over tomographic product bases "
        f"{len(scenario.basis_left)} x {len(scenario.basis_right)}",
        f"reconstruction residual: {scenario.residual:.3e}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_mdiew_audit(args) -> int:
    cfg = _config(args)
    label, op = resolve_operator(args.witness)
    scenario = MdiewScenario.ideal(op)
    embed_dims = tuple(args.embed_dims) if args.embed_dims else None
    report = separable_nonnegativity_audit(
        scenario,
        trials=args.trials,
        seed=cfg.seed,
        povm_mode=args.povm_mode,
        embed_dims=embed_dims,
    )
    payload = {
        "command": "mdiew-audit",
        "config": asdict(cfg),
        "witness": label,
        "trials": report.trials,
        "povm_mode": report.povm_mode,
        "embed_dims": None if report.embed_dims is None else list(report.embed_dims),
        "min_value": float(report.min_value),
        "max_route_gap": float(report.max_route_gap),
        "failures": [
            {
                "trial": f.trial,
                "route_direct": float(f.route_direct),
                "route_mixture": float(f.route_mixture),
                "reason": f.reason,
            }
            for f in report.failures
        ],
        "passed": report.passed,
    }
    lines = [
        f"audited {label}: {report.trials} separable trials, "
        f"POVM mode {report.povm_mode!r}"
        + (f", embedded in dims {embed_dims}" if embed_dims else ""),
        f"minimum observed value: {report.min_value:+.12e}",
        f"largest route gap:      {report.max_route_gap:.3e}",
        f"failures: {len(report.failures)}",
    ]
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="master seed (default 42)"
    )
    parser.add_argument(
        "--restarts",
        type=int,
        default=DEFAULT_RESTARTS,
        help="see-saw restarts (default 64)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=PSD_TOL,
        help="certification tolerance, relative to ||W||_F (default 1e-9)",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", help="also write the JSON document to PATH"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwit",
        description="construct, extend, and numerically certify entanglement "
        "witnesses",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("certify", help="certify an operator as a witness")
    p.add_argument("witness", help="operator file, or a bundled name")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("extend", help="tensor a witness with positive caps")
    p.add_argument("witness", help="operator file, or a bundled name")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--caps",
        metavar="FILE",
        help="JSON file with keys 'cap_left' and 'cap_right'",
    )
    group.add_argument(
        "--random-caps",
        nargs=2,
        type=int,
        metavar=("DL", "DR"),
        help="draw seeded random positive caps of these dimensions",
    )
    _add_common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("choi-demo", help="worked nontrivial-extension exhibit")
    _add_common(p)
    p.set_defaults(func=cmd_choi_demo)

    p = sub.add_parser("mdiew", help="measurement-device-independent witnessing")
    msub = p.add_subparsers(dest="mdiew_command", required=True)

    m = msub.add_parser("decompose", help="solve for input-state coefficients")
    m.add_argument("witness", help="operator file, or a bundled name")
    _add_common(m)
    m.set_defaults(func=cmd_mdiew_decompose)

    m = msub.add_parser("audit", help="check nonnegativity on separable states")
    m.add_argument("witness", help="operator file, or a bundled name")
    m.add_argument(
        "--trials", type=int, default=1000, help="number of random trials"
    )
    m.add_argument(
        "--povm-mode",
        choices=POVM_MODES,
        default="arbitrary",
        help="how measurement elements are drawn",
    )
    m.add_argument(
        "--embed-dims",
        nargs=2,
        type=int,
        metavar=("DL", "DR"),
        help="draw POVM elements in larger spaces of these dimensions",
    )
    _add_common(m)
    m.set_defaults(func=cmd_mdiew_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        SerializationError, LayoutError, NumericalError, ValueError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for property violations
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
