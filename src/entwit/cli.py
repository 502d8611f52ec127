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

Each command imports the layers it runs when it runs, so that a short command
does not pay for loading the others.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .operators import PSD_TOL, HermitianOperator, NumericalError, _integer, _tolerance
from .sampling import DEFAULT_RESTARTS, POVM_MODES, random_psd, rng_from
from .serialization import (
    SerializationError,
    _read_json,
    dumps_canonical,
    load_operator,
    operator_from_dict,
)

if TYPE_CHECKING:
    from .extension import ExtensionSpec
    from .witness import SeeSawReport, WitnessCertificate

DEFAULT_SEED = 42

# Cap draws use a spawn key far above the see-saw restart indices so that a
# shared master seed never hands the same stream to two different consumers.
_CAP_STREAM = 1 << 20


def _fixture_dir() -> Path:
    return Path(__file__).with_name("fixtures")


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
    for path in (Path(token), _fixture_dir() / f"{token}.json"):
        if path.is_file():
            return token, load_operator(path)
    raise SerializationError(
        f"{token!r} is neither a readable file nor one of the bundled "
        f"operators {', '.join(bundled_operator_names())}"
    )


def _emit(args, payload: dict, lines: list[str]) -> None:
    text = dumps_canonical(payload)
    if args.json_out:  # first, so a failed mirror leaves stdout empty
        Path(args.json_out).write_text(text)
    sys.stdout.write(text)
    if not args.quiet:
        for line in lines:
            print(line, file=sys.stderr)


def _restart_summary(report: SeeSawReport) -> str:
    """How the see-saw restarts stopped, for the stderr summary."""
    count = report.stops.count
    return (
        f"{count('settled')} settled, {count('budget')} at budget, "
        f"{count('abandoned')} abandoned; "
        f"iterations median {np.median(report.iterations):g}, max {max(report.iterations)}"
    )


def _witness_fields(cert: WitnessCertificate) -> dict:
    """The verdict keys of ``certify``, which ``extend`` reports for the extension."""
    return {
        "is_witness_numeric": cert.is_witness_numeric,
        "min_eigenvalue": cert.min_eigenvalue,
        "min_product_value": cert.min_product.best_value,
    }


def cmd_certify(args) -> tuple[dict, list[str], int]:
    from .witness import _verdict, certify_witness, has_spanning_property

    op = args.operator
    cert = certify_witness(op, restarts=args.restarts, seed=args.seed, tol=args.tol)
    payload = {
        **_witness_fields(cert),
        "see_saw_converged": cert.min_product.converged,
        "detection_value": cert.detection_value,
        "detection_state": cert.detection_state,
        "spanning": None,
        "nd_spanning": None,
    }
    lines = [
        f"operator: {args.witness} (dim {op.layout.total_dim})",
        f"is witness (numeric): {cert.is_witness_numeric}",
        f"min eigenvalue:       {cert.min_eigenvalue:+.12e}",
        f"min product value:    {cert.min_product.best_value:+.12e}",
        f"see-saw restarts:     {_restart_summary(cert.min_product)}",
    ]
    if cert.is_witness_numeric:
        zeros = has_spanning_property(op, cert)
        verdict, nd_verdict = _verdict(zeros.spanning), _verdict(zeros.nd_spanning)
        payload["spanning"] = {
            "spanning": zeros.spanning, "rank": zeros.span_rank, "dim": zeros.dim,
            "verdict": verdict, "note": "" if zeros.spanning else "optimality not decided",
        }
        payload["nd_spanning"] = {"verdict": nd_verdict, "holds": zeros.nd_spanning}
        lines += [
            f"zero-set spanning:    {verdict} (rank {zeros.span_rank} of {zeros.dim})",
            f"two-sided spanning:   {nd_verdict}",
        ]
    else:
        payload["note"] = (
            "not certified as a witness at this budget; "
            "spanning analysis not applicable"
        )
        lines.append("spanning analysis:    not applicable")
    return payload, lines, 0


def _caps_from_file(path: str) -> ExtensionSpec:
    from .extension import ExtensionSpec

    data = _read_json(path, f"cap file {path!r}")
    if not isinstance(data, dict) or set(data) != {"cap_left", "cap_right"}:
        raise SerializationError(
            f"cap file {path!r} must be an object with exactly the keys "
            "'cap_left' and 'cap_right'"
        )
    caps = {}
    for key in ("cap_left", "cap_right"):
        try:
            caps[key] = operator_from_dict(data[key])
        except SerializationError as exc:
            raise SerializationError(f"cap file {path!r}, {key}: {exc}") from exc
    try:
        return ExtensionSpec(**caps)
    except ValueError as exc:  # the message names the cap
        raise ValueError(f"cap file {path!r}: {exc}") from exc


def _caps_random(dims: tuple[int, int], seed: int) -> ExtensionSpec:
    from .extension import ExtensionSpec

    return ExtensionSpec(
        cap_left=random_psd(dims[0], rng_from(seed, _CAP_STREAM)),
        cap_right=random_psd(dims[1], rng_from(seed, _CAP_STREAM + 1)),
    )


def cmd_extend(args) -> tuple[dict, list[str], int]:
    from .extension import extend_witness
    from .witness import certify_witness

    if args.caps is not None:
        spec = _caps_from_file(args.caps)
        caps_source = args.caps
    else:
        spec = _caps_random(tuple(args.random_caps), args.seed)
        caps_source = f"random({args.random_caps[0]}, {args.random_caps[1]})"
    try:
        extended = extend_witness(args.operator, spec)
    except NumericalError as exc:  # caps whose extension overflows
        raise NumericalError(f"extension of {args.witness!r} by caps {caps_source!r}: {exc}") from exc
    recert = certify_witness(
        extended, restarts=args.restarts, seed=args.seed, tol=args.tol
    )
    payload = {
        "caps_source": caps_source,
        "cap_left": spec.cap_left,
        "cap_right": spec.cap_right,
        "extended": extended,
        "recertification": _witness_fields(recert),
        # exact: Gamma(cap_l (x) W (x) cap_r) = cap_l (x) Gamma(W) (x) cap_r^T
        "gamma_structure_ok": True,
    }
    dims = extended.layout.dims
    lines = [
        f"extended {args.witness} by caps of dims {spec.dims} -> systems {dims}",
        f"re-certified as witness: {recert.is_witness_numeric}",
        f"min product value:       {recert.min_product.best_value:+.12e}",
        f"see-saw restarts:        {_restart_summary(recert.min_product)}",
    ]
    return payload, lines, 0


def cmd_choi_demo(args) -> tuple[dict, list[str], int]:
    from .choi import CLOSED_FORM_SCALE, nontrivial_extension_exhibit

    report = nontrivial_extension_exhibit()
    payload = {
        "a": report.params.a.real,
        "b": report.params.b.real,
        "cap_right": report.cap_right.real,
        "ext_value": report.ext_value,
        "reduced_value": report.reduced_value,
        "closed_ext": report.closed_ext,
        "closed_reduced": report.closed_reduced,
        "scale": CLOSED_FORM_SCALE,
        "state_psd": report.state_psd,
        "gamma_bprime_psd": report.gamma_bprime_psd,
    }
    lines = [
        "nontrivial extension exhibit (three-party state, extended witness)",
        f"  {'extended value':<24}{report.ext_value:+.12f}",
        f"  {'reduced value':<24}{report.reduced_value:+.12f}",
        f"  {'closed-form extended':<24}{report.closed_ext:+.12f}",
        f"  {'closed-form reduced':<24}{report.closed_reduced:+.12f}",
        f"  {'scale (numeric/closed)':<24}{CLOSED_FORM_SCALE:+.12f}",
        f"  {'state PSD':<24}{report.state_psd}",
        f"  {'third-system PT PSD':<24}{report.gamma_bprime_psd}",
        "the extension detects the state although the reduced witness does not",
    ]
    return payload, lines, 0


def cmd_mdiew_decompose(args) -> tuple[dict, list[str], int]:
    from .mdiew import MdiewScenario

    scenario = MdiewScenario.ideal(args.operator)
    payload = {
        "party_dims": scenario.witness.layout.parties,
        "basis_sizes": [len(scenario.basis_left), len(scenario.basis_right)],
        "beta": scenario.beta,
        "residual": scenario.residual,
    }
    lines = [
        f"decomposed {args.witness} over tomographic product bases "
        f"{len(scenario.basis_left)} x {len(scenario.basis_right)}",
        f"reconstruction residual: {scenario.residual:.3e}",
    ]
    return payload, lines, 0


def cmd_mdiew_audit(args) -> tuple[dict, list[str], int]:
    from .mdiew import MdiewScenario, separable_nonnegativity_audit

    scenario = MdiewScenario.ideal(args.operator)
    embed_dims = tuple(args.embed_dims) if args.embed_dims else None
    report = separable_nonnegativity_audit(
        scenario,
        trials=args.trials,
        seed=args.seed,
        povm_mode=args.povm_mode,
        embed_dims=embed_dims,
    )
    payload = {
        "trials": report.trials,
        "povm_mode": report.povm_mode,
        "embed_dims": report.embed_dims,
        "min_value": report.min_value,
        "max_route_gap": report.max_route_gap,
        "failures": report.failures,
        "passed": report.passed,
    }
    lines = [
        f"audited {args.witness}: {report.trials} separable trials, "
        f"POVM mode {report.povm_mode!r}"
        + (f", embedded in dims {embed_dims}" if embed_dims else ""),
        f"minimum observed value: {report.min_value:+.12e}, "
        f"at trial {report.worst_trial}",
        f"route gaps: median {report.median_route_gap:.3e}, "
        f"max {report.max_route_gap:.3e}",
        f"failures: {len(report.failures)}",
    ]
    return payload, lines, 0 if report.passed else 1


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
    p.set_defaults(command="certify", func=cmd_certify)

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
    p.set_defaults(command="extend", func=cmd_extend)

    p = sub.add_parser("choi-demo", help="worked nontrivial-extension exhibit")
    _add_common(p)
    p.set_defaults(command="choi-demo", func=cmd_choi_demo)

    p = sub.add_parser("mdiew", help="measurement-device-independent witnessing")
    msub = p.add_subparsers(dest="mdiew_command", required=True)

    m = msub.add_parser("decompose", help="solve for input-state coefficients")
    m.add_argument("witness", help="operator file, or a bundled name")
    _add_common(m)
    m.set_defaults(command="mdiew-decompose", func=cmd_mdiew_decompose)

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
    m.set_defaults(command="mdiew-audit", func=cmd_mdiew_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and emit its document.

    The options every document echoes are checked here, once, and the operand
    is resolved into ``args.operator``.  A command only computes: it returns
    its own keys, its stderr lines and its exit code, and the shared header
    ("command", "config", "witness") is added to the keys here.
    """
    args = build_parser().parse_args(argv)
    try:
        _tolerance(args.tol)
        _integer(args.seed, "seed", 0)
        _integer(args.restarts, "restarts", 1)
        header = {
            "command": args.command,
            "config": {"seed": args.seed, "restarts": args.restarts, "tol": args.tol},
        }
        if "witness" in args:  # the operand of every command but choi-demo
            header["witness"], args.operator = resolve_operator(args.witness)
        payload, lines, code = args.func(args)
        _emit(args, header | payload, lines)
        return code
    except (ValueError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for property violations
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry point of ``python -m entwit.cli`` and the ``entwit`` script.

    Exits with the code of ``main()`` through ``os._exit``, after flushing
    stdout and stderr: tearing the interpreter down (every module numpy and
    entwit loaded) would take longer than a short command's own work.  An
    output the reader no longer takes is an error, exit 2, reported once.
    ``main`` itself leaves the process alone, because tests and in-process
    replays call it many times in one process.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # main has not reported an error yet
            print(f"error: {exc}", file=sys.stderr)
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
