"""Command-line entry point: verification suites, induced structures, spectra.

Exit status 0 means every check in the invoked suite passed, 1 that some
clause failed (the report is still written), 2 that the input was malformed.
Reports are deterministic: identical configuration yields byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Presentation, RewriteBudgetExceeded, critical_pairs
from .catalog import GoldenMismatch, SpaceBundle, build_r4, build_s3, build_space, build_t2, verify_space
from .hypersurface import HypersurfaceError
from .reports import Report, write_report_atomic
from .spectrum import check_scan_arguments, spectrum_scan
from .spin import dirac
from .tensors import SPINOR_RANK, TensorElement

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2

CATALOG_NAMES = ("r4", "s3", "t2")


def _emit(payload: dict, args) -> None:
    if args.out:
        write_report_atomic(payload, args.out)
    elif args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_text(payload)


def _print_text(payload: dict) -> None:
    if "clauses" in payload:
        print(f"{payload.get('subject', 'report')}: "
              f"{'PASS' if payload.get('pass') else 'FAIL'}")
        for clause in payload["clauses"]:
            mark = "ok " if clause["pass"] else "FAIL"
            print(f"  [{mark}] {clause['clause']}")
    elif "eigenvalues" in payload:
        print(f"theta={payload['theta']} mmax={payload['mmax']} "
              f"max_deviation={payload['max_deviation']:.3e} "
              f"certificate={'PASS' if payload['certificate']['pass'] else 'FAIL'}")
        for entry in payload["eigenvalues"]:
            print(f"  {entry['value']:+.9f}  (m={entry['m']}, n={entry['n']}, "
                  f"dev={entry['deviation']:.2e})")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _unique_members(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated name raises ValueError.

    json.load alone keeps the last of two members with one name, so the
    first would be read as if it were not in the file.
    """
    members = {}
    for name, value in pairs:
        if name in members:
            raise ValueError(f"JSON object repeats the member {name!r}")
        members[name] = value
    return members


def _verify_user_presentation(path: str) -> Report:
    """Algebra-level checks for a user presentation file: every critical pair resolves."""
    with open(path) as handle:
        p = Presentation.from_json(json.load(handle, object_pairs_hook=_unique_members))
    report = Report(subject=f"presentation:{p.name or path}")
    report.family("critical_pairs", critical_pairs(p))
    return report


def _cmd_verify(args) -> int:
    if args.presentation:
        report = _verify_user_presentation(args.presentation)
        _emit(report.to_json(), args)
        return EXIT_OK if report.all_passed else EXIT_FAILED
    # verify_space re-runs the full suites, so skip the in-build duplicates
    bundle = build_space(args.space, check=False)
    report = verify_space(bundle)
    _emit(report.to_json(), args)
    return EXIT_OK if report.all_passed else EXIT_FAILED


def _basis_values_json(values: dict) -> dict:
    """An extensional map or connection as JSON, keyed by printed basis word."""
    return {repr(w): v.to_json() for w, v in sorted(values.items(), key=lambda t: t[0])}


def _structures_payload(bundle: SpaceBundle) -> dict:
    structures = bundle.structures
    canon = structures.calculus.canon
    payload: dict = {"space": bundle.name}
    payload["metric"] = {
        "g_element": canon(structures.metric.g_element).to_json(),
        "g_inverse": _basis_values_json(structures.metric.g_inv.images),
    }
    # the induced connection stores unprojected representatives; print each class canonically
    payload["connection"] = _basis_values_json({w: canon(v) for w, v in structures.connection.values.items()})
    payload["sigma"] = _basis_values_json(structures.connection.sigma.images)
    payload["gamma"] = _basis_values_json(structures.spin.gamma.images)
    payload["spin_connection"] = _basis_values_json(structures.spin.spin_connection.values)
    payload["nu"] = bundle.hypersurface.nu_q.to_json()
    payload["certificate"] = bundle.hypersurface.certificate.to_report(
        bundle.name
    ).to_json()
    return payload


def _cmd_induce(args) -> int:
    bundle = build_space(args.space)
    payload = {"space": args.space, "pass": True}
    if args.emit_structures:
        payload.update(_structures_payload(bundle))
    _emit(payload, args)
    return EXIT_OK


def _cmd_dirac(args) -> int:
    bundle = build_space(args.space)
    p = bundle.presentation
    payload = {"space": args.space, "basis_dirac": {}}
    for alpha in range(SPINOR_RANK):
        value = dirac(bundle.structures.spin, TensorElement.basis(p, (), alpha))
        payload["basis_dirac"][f"e{alpha + 1}"] = value.to_json()
    _emit(payload, args)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    check_scan_arguments(args.mmax, args.theta)
    bundle = build_space(args.space)
    report = spectrum_scan(bundle, args.mmax, args.theta)
    _emit(report.to_json(), args)
    return EXIT_OK if report.all_passed else EXIT_FAILED


def _cmd_report_all(args) -> int:
    check_scan_arguments(args.mmax, args.theta)
    payload = {"spaces": {}}
    status = EXIT_OK
    bundles: dict[str, SpaceBundle] = {}
    for name in CATALOG_NAMES:
        # s3 and t2 are each induced from the bundle just built and verified
        if name == "r4":
            bundles[name] = build_r4()
        elif name == "s3":
            bundles[name] = build_s3(check=False, r4=bundles["r4"])
        else:
            bundles[name] = build_t2(check=False, s3=bundles["s3"])
        report = verify_space(bundles[name])
        payload["spaces"][name] = report.to_json()
        if not report.all_passed:
            status = EXIT_FAILED
    scan = spectrum_scan(bundles["t2"], args.mmax, args.theta)
    payload["spectrum"] = scan.to_json()
    if not scan.all_passed:
        status = EXIT_FAILED
    _emit(payload, args)
    return status


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgdirac",
        description="verify and explore the catalog of quasi-commutative spin geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, spaces=CATALOG_NAMES):
        if spaces:
            sp.add_argument("space", choices=spaces, nargs="?", default=spaces[0])
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the report to this path")

    sp = sub.add_parser("verify", help="run the axiom suite for a space or presentation file")
    add_common(sp)
    sp.add_argument("--presentation", default=None, help="user presentation JSON file")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("induce", help="run the hypersurface induction and its build-time checks")
    add_common(sp, ("s3", "t2"))
    sp.add_argument("--emit-structures", action="store_true")
    sp.set_defaults(func=_cmd_induce)

    sp = sub.add_parser("dirac", help="emit the Dirac operator on basis spinors")
    add_common(sp)
    sp.set_defaults(func=_cmd_dirac)

    sp = sub.add_parser("spectrum", help="certified torus spectrum against the closed form")
    add_common(sp, ("t2",))
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--mmax", type=int, default=2)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("report-all", help="full verification and spectrum report")
    add_common(sp, ())
    sp.add_argument("--theta", type=float, default=0.7)
    sp.add_argument("--mmax", type=int, default=2)
    sp.set_defaults(func=_cmd_report_all)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GoldenMismatch, HypersurfaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    # malformed input; PresentationError and json.JSONDecodeError are ValueErrors
    except (OSError, KeyError, ValueError, RewriteBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
