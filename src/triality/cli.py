"""Command-line front end: verification suites, invariant evaluation, the
order-3 action on user-supplied elements, fixed-subalgebra data, and raw
structure dumps. All machine output is canonical JSON (sorted keys, two-space
indent) so identical invocations are byte-identical.

Exit codes: 0 all checks passed / command succeeded, 1 check failure or
invalid input data, 2 usage error (bad flags, unreadable file, malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import automorphisms, invariants, octonion, so8
from .exact import format_rational
from .verify import SUITES, RunConfig, build_report, report_passed


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triality",
        description="Exact verification toolkit for the order-3 symmetry of so(8).")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--samples", type=_int_at_least(1), default=100,
                        help="random samples per sampled check (default 100)")
    verify.add_argument("--seed", type=_int_at_least(0), default=42,
                        help="base seed for all sampling (default 42)")
    verify.add_argument("--bound", type=_int_at_least(1), default=9,
                        help="coefficient bound for random elements (default 9)")
    verify.add_argument("--suite", choices=SUITES, default=None,
                        help="restrict to one suite")
    verify.add_argument("--corrupt-constant", action="store_true",
                        help="flip one sign in the 4x4 block constant "
                             "(negative-control self-test; must fail)")
    verify.add_argument("--json", action="store_true", help="emit the JSON report")

    evaluate = sub.add_parser("eval", help="evaluate invariants of an element")
    evaluate.add_argument("--input", required=True, help="JSON file with the element")
    evaluate.add_argument("--json", action="store_true", help="emit JSON")

    sigma_cmd = sub.add_parser("sigma", help="apply the order-3 automorphism")
    sigma_cmd.add_argument("--input", required=True, help="JSON file with the element")
    sigma_cmd.add_argument("--power", type=_int_at_least(0), default=1,
                           help="how many times to apply it (reduced mod 3)")
    sigma_cmd.add_argument("--json", action="store_true", help="emit JSON")

    fixed = sub.add_parser("fixed", help="fixed subalgebras and their identification")
    fixed.add_argument("--json", action="store_true", help="emit JSON")

    dump = sub.add_parser("dump", help="dump structure data (tables, bases, matrices)")
    dump.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def _read_element(path: str) -> so8.So8Element:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed JSON in {path}: {exc}")
    try:
        return so8.So8Element.from_json(obj)
    except ValueError as exc:
        raise _DataError(f"invalid element in {path}: {exc}")


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    cfg = RunConfig(samples=args.samples, seed=args.seed, bound=args.bound,
                    suite=args.suite, corrupt_constant=args.corrupt_constant)
    checks = build_report(cfg)
    passed = report_passed(checks)
    payload = {"command": "verify", "config": cfg.to_json(),
               "status": "pass" if passed else "fail", "checks": checks}
    lines = []
    for entry in checks:
        status = entry["status"]
        label = {"pass": "PASS", "fail": "FAIL",
                 "discrepancy-confirmed": "INFO"}.get(status, status.upper())
        extra = ""
        if "samples" in entry:
            extra = f" (samples={entry['samples']})"
        elif "pairs_checked" in entry:
            extra = f" (pairs={entry['pairs_checked']})"
        lines.append(f"{label} {entry['check_id']}{extra}")
    n_fail = sum(1 for e in checks if e["status"] == "fail")
    n_info = sum(1 for e in checks if e["status"] == "discrepancy-confirmed")
    lines.append(f"{len(checks) - n_fail - n_info} checks passed, {n_fail} failed, "
                 f"{n_info} informational")
    return (0 if passed else 1), payload, lines


def _values_of(element: so8.So8Element) -> dict:
    v = invariants.invariant_vector(element)
    e = invariants.spectral_coefficients(element)
    out = v.to_json()
    out.update(e.to_json())
    return out


def _cmd_eval(args) -> tuple[int, dict, list[str]]:
    element = _read_element(args.input)
    values = _values_of(element)
    payload = {"command": "eval", "values": values}
    lines = [f"{key} = {values[key]}" for key in
             ("p1", "p2", "p3", "pf", "e1", "e2", "e3", "e4")]
    return 0, payload, lines


def _cmd_sigma(args) -> tuple[int, dict, list[str]]:
    element = _read_element(args.input)
    effective = args.power % 3
    image = automorphisms.TrialityMap.standard().apply_power(element, args.power)
    payload = {
        "command": "sigma",
        "power": args.power,
        "effective_power": effective,
        "input": element.to_json("both"),
        "output": image.to_json("both"),
        "invariants_before": invariants.invariant_vector(element).to_json(),
        "invariants_after": invariants.invariant_vector(image).to_json(),
    }
    lines = [f"power {args.power} (mod 3: {effective})",
             "output coeffs: " + " ".join(payload["output"]["coeffs"]),
             "invariants before: " + json.dumps(payload["invariants_before"], sort_keys=True),
             "invariants after:  " + json.dumps(payload["invariants_after"], sort_keys=True)]
    return 0, payload, lines


def _subalgebra_payload(sub: automorphisms.FixedSubalgebra) -> dict:
    structure = automorphisms.identify_fixed_algebra(sub)
    return {
        "tag": sub.tag,
        "dim": structure["dim"],
        "killing_nondegenerate": structure["killing_nondegenerate"],
        "rank": structure["rank"],
        "basis_coeffs": [[format_rational(c) for c in b.coeffs] for b in sub.basis],
    }


def _cmd_fixed(args) -> tuple[int, dict, list[str]]:
    g2 = _subalgebra_payload(automorphisms.g2_fixed_subalgebra())
    so7 = _subalgebra_payload(automorphisms.so7_fixed_subalgebra())
    payload = {"command": "fixed", "order3_fixed": g2, "involution_fixed": so7}
    lines = []
    for name, data in (("order-3 fixed subalgebra", g2),
                       ("involution fixed subalgebra", so7)):
        lines.append(f"{name}: dim {data['dim']}, rank {data['rank']}, "
                     f"killing nondegenerate: {data['killing_nondegenerate']}")
    return 0, payload, lines


def _cmd_dump(args) -> tuple[int, dict, list[str]]:
    quads = so8.quadruples()
    g2 = automorphisms.g2_fixed_subalgebra()
    so7 = automorphisms.so7_fixed_subalgebra()
    tmap = automorphisms.TrialityMap.standard()
    payload = {
        "command": "dump",
        "octonion_table": octonion.multiplication_table_symbols(),
        "fano_lines": [list(line) for line in octonion.FANO_LINES],
        "generators": [g.label for g in so8.GENERATORS],
        "quadruples": [{"index": q.index,
                        "generators": [g.label for g in q.generators],
                        "signs": list(q.signs)} for q in quads],
        "order3_block": tmap.block.to_json(),
        "order3_full": tmap.full.to_json(),
        "t_matrix": invariants.t_matrix(1).to_json(),
        "t_matrix_squared": invariants.t_matrix(2).to_json(),
        "g2_basis": [[format_rational(c) for c in b.coeffs] for b in g2.basis],
        "so7_basis": [[format_rational(c) for c in b.coeffs] for b in so7.basis],
    }
    lines = [
        "fano lines: " + ", ".join(str(tuple(line)) for line in octonion.FANO_LINES),
        "generators: " + " ".join(payload["generators"]),
        "quadruples: " + "; ".join(
            f"i={q['index']}: " + " ".join(q["generators"]) for q in payload["quadruples"]),
        f"order-3 fixed basis: {len(payload['g2_basis'])} elements",
        f"involution fixed basis: {len(payload['so7_basis'])} elements",
        "use --json for the full tables",
    ]
    return 0, payload, lines


_DISPATCH = {
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "sigma": _cmd_sigma,
    "fixed": _cmd_fixed,
    "dump": _cmd_dump,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
