"""Command-line front end.

Subcommands: check-lattice, lift, corpus, quad.  Reports are printed as
human-readable text or JSON (``--format json``); the JSON schema is the
stable contract for test harnesses.  Exit codes: 0 all requested checks
passed, 1 a check failed, 2 usage or load error, 3 a certainty-backed
oracle check failed (a bug, never an acceptable result).

Everything is deterministic, and no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from math import inf

from . import __version__
from .lattice import ENUM_CAP, enumerate_lattice_classes, lattice_to_dict, load_lattice, verify_lattice
from .lifting import analyze_wire, enumerate_wires, lift, sweep_lattice
from .natquad import QuadOrder, division_closure_check, norm_image, s_wire_check
from .verdicts import LoadError, TheoremViolation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3


def _violations_json(verdict) -> list:
    return [{"law": v.law, "witness": list(v.witness), "detail": v.detail} for v in verdict.violations]


# ----- check-lattice ---------------------------------------------------


def _cmd_check_lattice(args, stats: dict) -> tuple[dict, int]:
    lat = load_lattice(args.path)
    verdict = verify_lattice(lat)
    results = {
        "path": args.path,
        "elements": list(lat.names),
        "passed": verdict.passed,
        "violations": _violations_json(verdict),
    }
    return results, EXIT_PASS if verdict.passed else EXIT_FAIL


# ----- lift ------------------------------------------------------------


def _wire_entry(lat, report) -> dict:
    result = lift(lat, report.subset)
    if result.ideal_system != report.is_m_wire:
        raise TheoremViolation(
            f"ideal-system verdict disagrees with the M-wire verdict for "
            f"{{{','.join(lat.subset_names(report.subset))}}}")
    return {
        "wire": list(lat.subset_names(report.subset)),
        "is_m_wire": report.is_m_wire,
        "m_witness": [lat.names[i] for i in report.m_witness] if report.m_witness else None,
        "ideal_count": len(result.ideal_lattice.ideals),
        "ideals": [list(m) for m in result.ideal_members()],
        "certified": True,  # lift raises rather than return an uncertified result
        "weak_ideal_system": True,  # and rather than return a map that is not weak
        "ideal_system": result.ideal_system,
    }


def _cmd_lift(args, stats: dict) -> tuple[dict, int]:
    lat = load_lattice(args.path)
    verdict = verify_lattice(lat)
    if not verdict.passed:
        return {"path": args.path, "passed": False, "violations": _violations_json(verdict)}, EXIT_FAIL
    if args.wire is not None:
        subset = 0
        for name in args.wire.split(","):
            subset |= 1 << lat.index(name.strip())
        report = analyze_wire(lat, subset)
        if not report.is_wire:
            results = {
                "path": args.path,
                "wire": list(lat.subset_names(subset)),
                "is_wire": False,
                "contains_one": report.contains_one,
                "contains_zero": report.contains_zero,
                "mult_closed": report.mult_closed,
                "generates": report.generates,
            }
            return results, EXIT_FAIL
        entries = [_wire_entry(lat, report)]
    else:
        entries = [_wire_entry(lat, rep) for rep in enumerate_wires(lat)
                   if rep.is_m_wire or not args.m_wires_only]
    results = {"path": args.path, "wires": entries, "wire_count": len(entries)}
    if args.m_wires_only and not entries:
        results["note"] = "no M-wires"
    return results, EXIT_PASS


# ----- corpus ----------------------------------------------------------


def _cmd_corpus(args, stats: dict) -> tuple[dict, int]:
    """Sweep one lattice per isomorphism class; every verdict is invariant
    under relabelling, so each class counts for its kept copies.

    Per size, the labelled stream is each class's orbit in turn, and the
    limit keeps its first lattices: a class counts for its copies among
    them, and the sweep stops at the class that reaches the limit."""
    if not 1 <= args.max_n <= ENUM_CAP:
        raise LoadError(f"--max-n must be between 1 and {ENUM_CAP}")
    if args.limit is not None and args.limit < 1:
        raise LoadError("--limit must be at least 1")
    violations = []
    classes, sizes = stats["classes"], stats["sizes"] = {}, {}
    for n in range(1, args.max_n + 1):
        started, left = time.perf_counter(), args.limit or inf
        row = sizes[n] = dict.fromkeys(("lattices", "wires", "m_wires", "violating"), 0)
        classes[n] = 0
        for lat, orbit in enumerate_lattice_classes(n):
            sweep = sweep_lattice(lat)
            kept = min(orbit, left)
            classes[n] += 1
            row["lattices"] += kept
            row["wires"] += kept * sweep.wires
            row["m_wires"] += kept * sweep.m_wires
            if not sweep.ok:
                row["violating"] += kept
                # with its document, so the violation replays through ``latlift lift``
                violations.append({"elements": lat.n, "orbit": orbit, **vars(sweep),
                                   "lattice": lattice_to_dict(lat)})
            left -= kept
            if not left:
                break
        row["elapsed_s"] = round(time.perf_counter() - started, 6)
    results = {"max_n": args.max_n, "limit": args.limit, "violations": violations}
    for key in ("lattices", "wires", "m_wires"):
        results[key] = sum(row[key] for row in sizes.values())
    return results, EXIT_ORACLE if violations else EXIT_PASS


# ----- quad ------------------------------------------------------------


def _cmd_quad(args, stats: dict) -> tuple[dict, int]:
    try:
        return _quad(QuadOrder(args.d), args)
    except (MemoryError, OverflowError):  # a table too large to allocate, or to index
        bound = args.search_bound if args.check == "s-wire" else args.bound
        raise LoadError(f"bound {bound} is too large: its norm table does not fit in memory") from None


def _quad(order: QuadOrder, args) -> tuple[dict, int]:
    base = {"d": args.d, "check": args.check}
    if args.check == "norms":
        values = norm_image(order, args.bound)
        results = base | {"bound": args.bound, "count": len(values), "values": list(values)}
        return results, EXIT_PASS
    if args.check == "s-wire":
        report = s_wire_check(order, args.prime_bound, args.search_bound)
        results = base | {
            "prime_bound": args.prime_bound,
            "search_bound": args.search_bound,
            "primes": [{"p": v.p, "kind": v.kind,
                        "pair": list(v.pair) if v.pair else None,
                        "rep": list(v.rep) if v.rep else None}
                       for v in report.verdicts],
            "unresolved": list(report.unresolved),
        }
        return results, EXIT_PASS if report.ok else EXIT_FAIL
    # division-closure and verdict read one report: "closed", or the M-wire verdict
    report = division_closure_check(order, args.bound)
    key, value = ("closed", report.closed) if args.check == "division-closure" else ("verdict", report.verdict)
    results = base | {"bound": args.bound, key: value,
                      "counterexample": list(report.counterexample) if report.counterexample else None}
    return results, EXIT_PASS if report.closed else EXIT_FAIL


# ----- rendering -------------------------------------------------------


def _render_text(report: dict) -> str:
    command, results = report["command"], report["results"]
    lines = [f"latlift {report['version']} :: {command}"]
    if command in ("check-lattice", "lift"):  # both report the lattice verdict of one file
        lines.append(f"file: {results['path']}")
        if "elements" in results:
            lines.append(f"elements: {','.join(results['elements'])}")
        for v in results.get("violations", []):
            lines.append(f"violation: {v['law']} at ({','.join(map(str, v['witness']))}) {v['detail']}".rstrip())
    if command == "lift":
        for entry in results.get("wires", []):
            lines.append(f"wire {{{','.join(entry['wire'])}}}: "
                         f"{'M-wire' if entry['is_m_wire'] else 'wire'}, "
                         f"{entry['ideal_count']} ideals, "
                         f"{'ideal system' if entry['ideal_system'] else 'weak ideal system'}, "
                         f"certified={entry['certified']}")
            for ideal in entry["ideals"]:
                lines.append(f"  ideal {{{','.join(ideal)}}}")
            if entry["m_witness"]:
                s, t, a = entry["m_witness"]
                lines.append(f"  (M) fails at s={s} t={t} a={a}")
        if "note" in results:
            lines.append(results["note"])
        if results.get("is_wire") is False:
            lines.append(f"not a wire: {{{','.join(results['wire'])}}}")
    elif command == "corpus":
        lines.append(f"lattices: {results['lattices']}  wires: {results['wires']}  "
                     f"m-wires: {results['m_wires']}")
        for v in results["violations"]:
            lines.append(f"VIOLATION: {v}")
    elif command == "quad":
        for key in ("d", "check", "bound", "prime_bound", "search_bound",
                    "verdict", "closed", "counterexample", "count", "unresolved"):
            if key in results and results[key] is not None:
                lines.append(f"{key}: {results[key]}")
        if "values" in results:
            shown = results["values"][:25]
            suffix = " ..." if len(results["values"]) > 25 else ""
            lines.append(f"values: {shown}{suffix}")
        for entry in results.get("primes", []):
            detail = entry["pair"] or entry["rep"] or ""
            lines.append(f"p={entry['p']:>4}  {entry['kind']}  {detail}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'} "
                 f"({report['stats']['elapsed_s']:.3f}s, exit {report['exit_code']})")
    return "\n".join(lines)


DISPATCH = {
    "check-lattice": _cmd_check_lattice,
    "lift": _cmd_lift,
    "corpus": _cmd_corpus,
    "quad": _cmd_quad,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors take one ``error:`` line, like every usage error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    ``parse_args`` reads the parser without changing it and gives each call
    a fresh namespace, so ``main`` can run any number of times in one
    process.  Its ``commands`` maps each subcommand name to its parser."""
    parser = _Parser(
        prog="latlift",
        description="verify finite multiplicative lattices, lift wires to weak ideal "
                    "systems, and run quadratic-norm experiments on the divisibility lattice")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check-lattice", parents=[common],
                           help="verify the axioms of a lattice file")
    check.add_argument("path")

    lift_p = sub.add_parser("lift", parents=[common],
                            help="lift wires of a lattice file to weak ideal systems")
    lift_p.add_argument("path")
    group = lift_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--wire", help="comma-separated element names")
    group.add_argument("--all-wires", action="store_true")
    group.add_argument("--m-wires-only", action="store_true")

    corpus = sub.add_parser("corpus", parents=[common],
                            help="sweep the enumerated lattice corpus through every oracle")
    corpus.add_argument("--max-n", type=int, default=4)
    corpus.add_argument("--limit", type=int, default=None,
                        help="cap on labelled lattices per carrier size")

    quad = sub.add_parser("quad", parents=[common],
                          help="quadratic-order norm experiments")
    quad.add_argument("check", choices=("norms", "division-closure", "s-wire", "verdict"))
    quad.add_argument("--d", type=int, required=True)
    quad.add_argument("--bound", type=int, default=10000)
    quad.add_argument("--prime-bound", type=int, default=200)
    quad.add_argument("--search-bound", type=int, default=100000)
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass when argv starts with
    a subcommand: the top-level pass would only hand the rest to that
    subcommand's parser, after classifying every string once more.  At a
    string "--=..." that classification names only --help and --version as
    the options it could match; the subcommand's parser names its own."""
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    stats: dict = {}
    try:
        results, code = DISPATCH[args.command](args, stats)
    except ValueError as exc:  # a LoadError, a bad option, or an input past a cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoremViolation as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    report = {
        "command": args.command,
        "options": {k: v for k, v in vars(args).items() if k not in ("command", "format")},
        "passed": code == EXIT_PASS,
        "exit_code": code,
        "version": __version__,
        "results": results,
        "stats": {"elapsed_s": round(time.perf_counter() - started, 6), **stats},
    }
    try:
        if args.format == "json":
            # one line: with no indent, json takes its C encoder
            print(json.dumps(report, sort_keys=True))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (say, `| head`): as the Python docs advise, point
        # stdout at devnull so that the final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError):  # a stdout without a descriptor
            sys.stdout = None  # nothing left to flush
        finally:
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
