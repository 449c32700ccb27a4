"""Command-line reporting over .dtarget files.

Exit codes: 0 = success / property verified, 1 = negative verdict (a check
failed honestly), 2 = unusable input, 3 = an internal identity or an
expected-impossible outcome (a prime target, a broken charge identity),
4 = internal error (any other exception; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .coloring import DEFAULT_COLOUR_CAP, edge_colour, verify_colouring
from .config import is_prime
from .corpus import CorpusSpec, FIXTURE_NAMES, build_corpus
from .cuts import DEFAULT_CUT_CAP, is_oddly_connected, min_odd_cut
from .discharge import charge_report
from .errors import (
    BadColouring,
    DTargetError,
    EulerViolation,
    IdentityViolation,
    MismatchedD,
    ParseError,
)
from .planar import DTarget, parse_dtarget, serialize_dtarget, validate
from .switching import is_smaller, score_sequence, switch_path, switch_square

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4


@dataclass
class Report:
    command: str
    input_path: str | None
    sha256: str | None
    verdict: str
    exit_code: int
    details: dict
    text_lines: list[str]


def _frac(v) -> str:
    """Serialize a (half-)integral charge as a 'p/2' string."""
    doubled = Fraction(v) * 2
    if doubled.denominator != 1:
        raise IdentityViolation(f"charge {v} is not half-integral")
    return f"{doubled.numerator}/2"


def _load_target(args) -> tuple[DTarget, str, str]:
    data = Path(args.input).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    t = parse_dtarget(data.decode("utf-8"))
    if args.d is not None and t.d != args.d:
        raise MismatchedD(f"input has d = {t.d}, expected d = {args.d}")
    return t, args.input, digest


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _require_target(t: DTarget) -> None:
    """Refuse input whose degree sums are not all d or whose faces fail the
    Euler check; connectivity is not needed, so it is not computed."""
    refusal = f"not a d-target with d = {t.d}: "
    off = [v for v in range(t.vertex_count) if t.degree_sum(v) != t.d]
    if off:
        raise DTargetError(refusal + f"degree sum is not {t.d} at vertices {off}")
    try:
        t.graph.faces
    except EulerViolation:
        raise DTargetError(refusal + "Euler check fails") from None


def cmd_check(args) -> Report:
    t, path, digest = _load_target(args)
    rep = validate(t)
    regions = len(t.graph.faces) if rep.euler_ok else None
    details: dict = {
        "d": t.d,
        "vertices": t.vertex_count,
        "edges": len(t.graph.edges),
        "regions": regions,
        "degree_ok": rep.degree_ok,
        "euler_ok": rep.euler_ok,
        "connectivity_level": rep.connectivity_level,
        "violations": [list(v) if isinstance(v, tuple) else v for v in rep.violations],
    }
    lines = [
        f"d = {t.d}, {t.vertex_count} vertices, {len(t.graph.edges)} edges, "
        + (f"{regions} regions" if rep.euler_ok else "no regions traced"),
        f"degree sums: {'ok' if rep.degree_ok else 'VIOLATED'}",
        f"planarity (Euler): {'ok' if rep.euler_ok else 'VIOLATED'}",
        f"connectivity level: {rep.connectivity_level}",
    ]
    oddly = False
    if rep.degree_ok and rep.euler_ok:
        try:
            witness = min_odd_cut(t, cap=args.cap)
            oddly = witness.value >= t.d
            details["min_odd_cut"] = {"X": list(witness.X), "value": witness.value}
            lines.append(
                f"minimum odd cut: X={list(witness.X)} value={witness.value} "
                f"({'>=' if oddly else '<'} d={t.d})"
            )
        except DTargetError as exc:
            details["min_odd_cut"] = None
            lines.append(f"odd cut check unavailable: {exc}")
    details["oddly_connected"] = oddly
    ok = rep.degree_ok and rep.euler_ok and oddly
    verdict = "valid oddly-connected target" if ok else "violations found"
    return Report(
        "check", path, digest, verdict, EXIT_OK if ok else EXIT_NEGATIVE, details, lines
    )


def cmd_classify(args) -> Report:
    t, path, digest = _load_target(args)
    _require_target(t)
    verdict = is_prime(t, cap=args.cap)
    if verdict.is_prime:
        return Report(
            "classify",
            path,
            digest,
            "PRIME (no witness found; expected impossible)",
            EXIT_VIOLATION,
            {"prime": True, "witness": None},
            ["no structural failure and no pattern match was found"],
        )
    w = verdict.witness
    return Report(
        "classify",
        path,
        digest,
        f"not prime: {verdict.witness_kind}",
        EXIT_NEGATIVE,
        {"prime": False, "witness": w.payload()},
        [f"witness: {w.text()}"],
    )


def cmd_discharge(args) -> Report:
    t, path, digest = _load_target(args)
    _require_target(t)
    report = charge_report(t)
    region_rows = []
    lines = ["region  len  class                alpha  beta   gamma  total"]
    for rc in report.regions:
        region_rows.append(
            {
                "id": rc.region_id,
                "class": rc.region_class.value,
                "length": rc.length,
                "alpha": rc.alpha,
                "beta": _frac(rc.beta),
                "gamma": _frac(rc.gamma),
                "total": _frac(rc.total),
            }
        )
        lines.append(
            f"{rc.region_id:>6}  {rc.length:>3}  {rc.region_class.value:<19}"
            f"  {rc.alpha:>5}  {str(rc.beta):>5}  {str(rc.gamma):>5}  {str(rc.total):>5}"
        )
    lines.append(
        f"totals: alpha={report.alpha_total} beta={report.beta_total} "
        f"gamma={report.gamma_total} grand={report.grand_total}"
    )
    positive = [rc for rc in report.regions if rc.total > 0]
    lines.append(
        "positive regions: "
        + (", ".join(f"{rc.region_id} ({rc.total})" for rc in positive) or "none")
    )
    beta_rows = []
    for bt in report.beta_traces:
        if bt.rule is None:
            continue
        beta_rows.append(
            {
                "edge": list(bt.edge),
                "rule": bt.rule,
                "big": bt.big_region,
                "small": bt.small_region,
                "value": _frac(bt.value),
            }
        )
        if bt.value != 0:
            lines.append(
                f"beta  {bt.edge}: rule {bt.rule}, big {bt.big_region} "
                f"<- small {bt.small_region}, value {bt.value}"
            )
    gamma_rows = []
    for gt in report.gamma_traces:
        if gt.rule is None:
            continue
        gamma_rows.append(
            {
                "edge": list(gt.edge),
                "rule": gt.rule,
                "receiver": gt.receiver_region,
                "tough": gt.tough_region,
                "value": _frac(gt.value),
            }
        )
        if gt.value != 0:
            lines.append(
                f"gamma {gt.edge}: rule {gt.rule}, receiver {gt.receiver_region} "
                f"<- tough {gt.tough_region}, value {gt.value}"
            )
    details = {
        "regions": region_rows,
        "totals": {
            "alpha": report.alpha_total,
            "beta": _frac(report.beta_total),
            "gamma": _frac(report.gamma_total),
            "grand": _frac(report.grand_total),
        },
        "positive_regions": [rc.region_id for rc in positive],
        "beta_traces": beta_rows,
        "gamma_traces": gamma_rows,
    }
    return Report(
        "discharge",
        path,
        digest,
        "charge identities verified (total 16)",
        EXIT_OK,
        details,
        lines,
    )


def cmd_colour(args) -> Report:
    t, path, digest = _load_target(args)
    colouring = edge_colour(t, cap=args.cap)
    if colouring is None:
        return Report(
            "colour",
            path,
            digest,
            "not colourable",
            EXIT_NEGATIVE,
            {"colourable": False},
            [f"no decomposition into {t.d} perfect matchings exists"],
        )
    if not verify_colouring(t, colouring):
        raise BadColouring("produced colouring failed verification")
    grouped: dict[tuple, int] = {}
    for matching in colouring.matchings:
        grouped[matching] = grouped.get(matching, 0) + 1
    lines = [f"colourable: {t.d} perfect matchings (with repetition)"]
    matching_rows = []
    for matching, count in sorted(grouped.items()):
        matching_rows.append(
            {"edges": [list(e) for e in matching], "multiplicity": count}
        )
        lines.append(f"  x{count}  {list(matching)}")
    return Report(
        "colour",
        path,
        digest,
        "colourable",
        EXIT_OK,
        {"colourable": True, "matchings": matching_rows},
        lines,
    )


def cmd_switch(args) -> Report:
    t, path, digest = _load_target(args)
    _require_target(t)
    a, b, c, d_ = args.vertices
    if args.path:
        result = switch_path(t, a, b, c, d_)
        operation = "path"
    else:
        result = switch_square(t, a, b, c, d_)
        operation = "square"
    smaller = is_smaller(result, t)
    serialized = serialize_dtarget(result)
    details = {
        "operation": operation,
        "vertices": [a, b, c, d_],
        "smaller": smaller,
        "score_before": list(score_sequence(t)),
        "score_after": list(score_sequence(result)),
        "result": serialized,
    }
    lines = [
        f"{operation} switch on ({a}, {b}, {c}, {d_})",
        f"score before: {score_sequence(t)}",
        f"score after:  {score_sequence(result)}",
        f"strictly smaller: {'yes' if smaller else 'no'}",
        "result:",
        *("  " + line for line in serialized.rstrip("\n").split("\n")),
    ]
    return Report(
        "switch",
        path,
        digest,
        f"{operation} switch applied",
        EXIT_OK,
        details,
        lines,
    )


def cmd_scan(args) -> Report:
    bases = tuple(args.bases.split(",")) if args.bases else FIXTURE_NAMES
    spec = CorpusSpec(
        bases=bases,
        max_vertices=args.max_vertices,
        limit_per_base=args.limit_per_base,
        cut_cap=args.cap,
    )
    items = build_corpus(spec)
    primes: list[str] = []
    colour_mismatches: list[str] = []
    per_base: dict[str, int] = {}
    for item in items:
        base = item.name.split("/")[0]
        per_base[base] = per_base.get(base, 0) + 1
        verdict = is_prime(item.target, cap=args.cap)
        if verdict.is_prime:
            primes.append(item.name)
        colouring = edge_colour(item.target)
        if colouring is None:
            colour_mismatches.append(item.name)
        elif not verify_colouring(item.target, colouring):
            colour_mismatches.append(item.name)
    ok = not primes and not colour_mismatches
    verdict = (
        f"scanned {len(items)} targets: {len(primes)} prime, "
        f"{len(colour_mismatches)} uncolourable-but-oddly-connected"
    )
    lines = [f"  {base}: {count} targets" for base, count in sorted(per_base.items())]
    if primes:
        lines += [f"  PRIME: {name}" for name in primes]
    if colour_mismatches:
        lines += [f"  UNCOLOURABLE: {name}" for name in colour_mismatches]
    details = {
        "items": len(items),
        "per_base": per_base,
        "prime": primes,
        "uncolourable": colour_mismatches,
    }
    return Report(
        "scan", None, None, verdict, EXIT_OK if ok else EXIT_VIOLATION, details, lines
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _render(report: Report, fmt: str) -> str:
    if fmt == "machine":
        payload = {
            "command": report.command,
            "input": (
                {"path": report.input_path, "sha256": report.sha256}
                if report.input_path
                else None
            ),
            "verdict": report.verdict,
            "exit_code": report.exit_code,
            "details": report.details,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"{report.command}: {report.verdict}"] + report.text_lines
    return "\n".join(lines)


def _add_common(sub, with_input=True):
    if with_input:
        sub.add_argument("input", help="path to a .dtarget file")
    sub.add_argument(
        "--format", choices=("text", "machine"), default="text", help="output format"
    )
    sub.add_argument("--d", type=int, default=None, help="require this d value")
    sub.add_argument("--out", default=None, help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtargets",
        description="checks, pattern detection, charging, colouring, and "
        "switching for planar multigraph targets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="validate structure and odd cuts")
    _add_common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CUT_CAP, help="cut vertex cap")
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("classify", help="search for a non-primality witness")
    _add_common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CUT_CAP, help="cut vertex cap")
    p.set_defaults(handler=cmd_classify)

    p = subs.add_parser("discharge", help="per-region charge report")
    _add_common(p)
    p.set_defaults(handler=cmd_discharge)

    p = subs.add_parser("colour", help="decompose into d perfect matchings")
    _add_common(p)
    p.add_argument(
        "--cap", type=int, default=DEFAULT_COLOUR_CAP, help="colouring vertex cap"
    )
    p.set_defaults(handler=cmd_colour)

    p = subs.add_parser("switch", help="apply a square or path switch")
    _add_common(p)
    p.add_argument("vertices", type=int, nargs=4, help="four cycle/path vertices")
    p.add_argument(
        "--path",
        action="store_true",
        help="treat the vertices as a path x u v y instead of a four-cycle",
    )
    p.set_defaults(handler=cmd_switch)

    p = subs.add_parser("scan", help="sweep the bundled corpus for contradictions")
    _add_common(p, with_input=False)
    p.add_argument("--cap", type=int, default=DEFAULT_CUT_CAP, help="cut vertex cap")
    p.add_argument("--max-vertices", type=int, default=12)
    p.add_argument("--limit-per-base", type=int, default=48)
    p.add_argument("--bases", default=None, help="comma-separated base names")
    p.set_defaults(handler=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IdentityViolation, BadColouring) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except DTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    rendered = _render(report, args.format)
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
