"""Command-line reporting over .dtarget files.

One table builds every subcommand, and ``main`` makes one call for all of
them, ``handler(target, args)``: it reads, hashes and parses the input once,
applies ``--d`` and passes the target (``scan`` reads the bundled corpus and
gets None).  A command returns only its verdict, exit code, details and text
lines; ``main`` renders them with the command's name, input path and sha256.

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
from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction
from pathlib import Path

from .coloring import edge_colour, verify_colouring
from .config import is_prime
from .corpus import FIXTURE_NAMES, build_corpus
from .cuts import min_odd_cut
from .discharge import charge_report
from .errors import (
    BadColouring,
    DTargetError,
    IdentityViolation,
    MismatchedD,
    OddVertexCount,
)
from .planar import DTarget, parse_dtarget, require_target, serialize_dtarget, validate
from .switching import score_sequence, score_smaller, switch_path, switch_square

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4


@dataclass
class Report:
    """What a command decided; ``main`` adds the command's name and input."""

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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(t: DTarget, args) -> Report:
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
        "violations": [list(v) for v in rep.violations],
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
            witness = min_odd_cut(t)
            oddly = witness.value >= t.d
            details["min_odd_cut"] = {"X": list(witness.X), "value": witness.value}
            lines.append(
                f"minimum odd cut: X={list(witness.X)} value={witness.value} "
                f"({'>=' if oddly else '<'} d={t.d})"
            )
        except OddVertexCount as exc:  # V itself is an odd set with cut 0
            details["min_odd_cut"] = None
            lines.append(f"odd cut check unavailable: {exc}")
    details["oddly_connected"] = oddly
    ok = rep.degree_ok and rep.euler_ok and oddly
    verdict = "valid oddly-connected target" if ok else "violations found"
    return Report(verdict, EXIT_OK if ok else EXIT_NEGATIVE, details, lines)


def cmd_classify(t: DTarget, args) -> Report:
    verdict = is_prime(t)
    if verdict.is_prime:
        return Report(
            "PRIME (no witness found; expected impossible)",
            EXIT_VIOLATION,
            {"prime": True, "witness": None},
            ["no structural failure and no pattern match was found"],
        )
    w = verdict.witness
    return Report(
        f"not prime: {verdict.witness_kind}",
        EXIT_NEGATIVE,
        {"prime": False, "witness": w.payload()},
        [f"witness: {w.text()}"],
    )


def cmd_discharge(t: DTarget, args) -> Report:
    require_target(t)
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
    trace_rows: dict[str, list] = {}
    for family, traces, to, source in (
        ("beta", report.beta_traces, "big", "small"),
        ("gamma", report.gamma_traces, "receiver", "tough"),
    ):
        rows = trace_rows[f"{family}_traces"] = []
        for edge, rule, to_id, source_id, value in map(astuple, traces):
            if rule is None:
                continue
            rows.append(
                {"edge": list(edge), "rule": rule, to: to_id, source: source_id,
                 "value": _frac(value)}
            )
            if value != 0:
                lines.append(
                    f"{family:<5} {edge}: rule {rule}, {to} {to_id} "
                    f"<- {source} {source_id}, value {value}"
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
        **trace_rows,
    }
    return Report("charge identities verified (total 16)", EXIT_OK, details, lines)


def cmd_colour(t: DTarget, args) -> Report:
    reason = f"no decomposition into {t.d} perfect matchings exists"
    try:
        colouring = edge_colour(t)
    except OddVertexCount as exc:  # V itself is an odd set with cut 0
        colouring, reason = None, str(exc)
    if colouring is None:
        return Report("not colourable", EXIT_NEGATIVE, {"colourable": False}, [reason])
    if not verify_colouring(t, colouring):
        raise BadColouring("produced colouring failed verification")
    lines = [f"colourable: {t.d} perfect matchings (with repetition)"]
    rows = []
    for matching, count in sorted(Counter(colouring.matchings).items()):
        rows.append({"edges": [list(e) for e in matching], "multiplicity": count})
        lines.append(f"  x{count}  {list(matching)}")
    return Report("colourable", EXIT_OK, {"colourable": True, "matchings": rows}, lines)


def cmd_switch(t: DTarget, args) -> Report:
    require_target(t)
    operation = "path" if args.path else "square"
    result = (switch_path if args.path else switch_square)(t, *args.vertices)
    before, after = score_sequence(t), score_sequence(result)
    smaller = score_smaller(result.vertex_count, after, t.vertex_count, before)
    serialized = serialize_dtarget(result)
    details = {
        "operation": operation,
        "vertices": list(args.vertices),
        "smaller": smaller,
        "score_before": list(before),
        "score_after": list(after),
        "result": serialized,
    }
    lines = [
        f"{operation} switch on {tuple(args.vertices)}",
        f"score before: {before}",
        f"score after:  {after}",
        f"strictly smaller: {'yes' if smaller else 'no'}",
        "result:",
        *("  " + line for line in serialized.rstrip("\n").split("\n")),
    ]
    return Report(f"{operation} switch applied", EXIT_OK, details, lines)


def cmd_scan(t: None, args) -> Report:
    if args.limit_per_base < 1:
        raise DTargetError(f"--limit-per-base {args.limit_per_base} is below 1")
    if args.d not in (None, 8):
        raise MismatchedD(f"the corpus has d = 8, expected d = {args.d}")
    bases = FIXTURE_NAMES if args.bases is None else tuple(args.bases.split(","))
    items = build_corpus(bases, args.limit_per_base)
    primes: list[str] = []
    colour_mismatches: list[str] = []
    per_base: dict[str, int] = {}
    for item in items:
        base = item.name.split("/")[0]
        per_base[base] = per_base.get(base, 0) + 1
        verdict = is_prime(item.target)
        if verdict.is_prime:
            primes.append(item.name)
        colouring = edge_colour(item.target)
        if colouring is None or not verify_colouring(item.target, colouring):
            colour_mismatches.append(item.name)
    ok = not primes and not colour_mismatches
    verdict = (
        f"scanned {len(items)} targets: {len(primes)} prime, "
        f"{len(colour_mismatches)} uncolourable-but-oddly-connected"
    )
    lines = [f"  {base}: {count} targets" for base, count in sorted(per_base.items())]
    lines += [f"  PRIME: {name}" for name in primes]
    lines += [f"  UNCOLOURABLE: {name}" for name in colour_mismatches]
    details = {
        "items": len(items),
        "per_base": per_base,
        "prime": primes,
        "uncolourable": colour_mismatches,
    }
    return Report(verdict, EXIT_OK if ok else EXIT_VIOLATION, details, lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _render(command: str, source: dict | None, report: Report, fmt: str) -> str:
    if fmt == "machine":
        payload = {
            "command": command,
            "input": source,
            "verdict": report.verdict,
            "exit_code": report.exit_code,
            "details": report.details,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join([f"{command}: {report.verdict}", *report.text_lines])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtargets",
        description="checks, pattern detection, charging, colouring, and "
        "switching for planar multigraph targets",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, help_text, handler in (
        ("check", "validate structure and odd cuts", cmd_check),
        ("classify", "search for a non-primality witness", cmd_classify),
        ("discharge", "per-region charge report", cmd_discharge),
        ("colour", "decompose into d perfect matchings", cmd_colour),
        ("switch", "apply a square or path switch", cmd_switch),
        ("scan", "sweep the bundled corpus for contradictions", cmd_scan),
    ):
        sub = parsers[name] = subs.add_parser(name, help=help_text)
        if name != "scan":
            sub.add_argument("input", help="path to a .dtarget file")
        sub.add_argument(
            "--format", choices=("text", "machine"), default="text", help="output format"
        )
        sub.add_argument("--d", type=int, help="require this d value")
        sub.add_argument("--out", help="also write the report to this file")
        sub.set_defaults(handler=handler)
    parsers["switch"].add_argument(
        "vertices", type=int, nargs=4, help="four cycle/path vertices"
    )
    parsers["switch"].add_argument(
        "--path",
        action="store_true",
        help="treat the vertices as a path x u v y instead of a four-cycle",
    )
    parsers["scan"].add_argument("--limit-per-base", type=int, default=48)
    parsers["scan"].add_argument("--bases", help="comma-separated base names")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = t = None
        if "input" in args:
            data = Path(args.input).read_bytes()
            source = {"path": args.input, "sha256": hashlib.sha256(data).hexdigest()}
            t = parse_dtarget(data.decode("utf-8"))
            if args.d is not None and t.d != args.d:
                raise MismatchedD(f"input has d = {t.d}, expected d = {args.d}")
        report = args.handler(t, args)
        rendered = _render(args.command, source, report, args.format)
        if args.out:
            Path(args.out).write_text(rendered + "\n")
    except (IdentityViolation, BadColouring) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (DTargetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    print(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
