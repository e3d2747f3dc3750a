"""Command-line front end.

Subcommands: check-lattice, lift, corpus, quad.  Reports are printed as
human-readable text or JSON (``--format json``); the JSON schema is the
stable contract for test harnesses.  Exit codes: 0 all requested checks
passed, 1 a check failed, 2 usage or load error, 3 a certainty-backed
oracle check failed (a bug, never an acceptable result).

Everything is deterministic; the only environment variable honoured is
LATLIFT_THREADS, which parallelizes the corpus sweep across processes
(at most one per CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import cache

from . import __version__
from .lattice import ENUM_CAP, enumerate_small_lattices, lattice_to_dict, load_lattice, verify_lattice
from .lifting import (
    WIRE_ENUM_CAP,
    WireError,
    analyze_wire,
    enumerate_wires,
    lift,
    sweep_lattice,
    verify_m_witness,
)
from .monoid import POWERSET_CAP, verify_ideal_system
from .natquad import (
    M_WIRE_CONSISTENT,
    QuadOrder,
    division_closure_check,
    m_wire_verdict,
    norm_image,
    s_wire_check,
)
from .verdicts import LoadError, TheoremViolation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3


@dataclass
class RunReport:
    command: str
    options: dict
    passed: bool
    exit_code: int
    elapsed_s: float
    version: str
    results: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "options": self.options,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "version": self.version,
            "results": self.results,
            "stats": {"elapsed_s": self.elapsed_s},
        }


def _violations_json(verdict) -> list:
    return [{"law": v.law, "witness": list(map(_plain, v.witness)), "detail": v.detail}
            for v in verdict.violations]


def _plain(x):
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


# ----- check-lattice ---------------------------------------------------


def _cmd_check_lattice(args) -> tuple[dict, bool, int]:
    lat = load_lattice(args.path)
    verdict = verify_lattice(lat)
    results = {
        "path": args.path,
        "elements": list(lat.names),
        "passed": verdict.passed,
        "violations": _violations_json(verdict),
    }
    return results, verdict.passed, EXIT_PASS if verdict.passed else EXIT_FAIL


# ----- lift ------------------------------------------------------------


def _wire_entry(lat, report) -> dict:
    if report.m_witness is not None and not verify_m_witness(lat, report.subset, report.m_witness):
        raise TheoremViolation("(M) witness failed re-verification")
    result = lift(lat, report.subset)
    ideal_ok = verify_ideal_system(result.system).passed
    if ideal_ok != report.is_m_wire:
        raise TheoremViolation(
            f"ideal-system verdict disagrees with the M-wire verdict for "
            f"{{{','.join(lat.subset_names(report.subset))}}}")
    witness = report.witness_names()
    return {
        "wire": list(lat.subset_names(report.subset)),
        "is_m_wire": report.is_m_wire,
        "m_witness": list(witness) if witness else None,
        "ideal_count": len(result.ideal_lattice.ideals),
        "ideals": [list(m) for m in result.ideal_members()],
        "certified": result.certified,
        "weak_ideal_system": result.system.weak_verdict.passed,
        "ideal_system": ideal_ok,
    }


def _cmd_lift(args) -> tuple[dict, bool, int]:
    lat = load_lattice(args.path)
    verdict = verify_lattice(lat)
    if not verdict.passed:
        return ({"path": args.path, "passed": False,
                 "violations": _violations_json(verdict)}, False, EXIT_FAIL)
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
            return results, False, EXIT_FAIL
        if subset.bit_count() > POWERSET_CAP:
            raise LoadError(f"wire size {subset.bit_count()} exceeds powerset cap {POWERSET_CAP}")
        entries = [_wire_entry(lat, report)]
    elif lat.n > WIRE_ENUM_CAP:
        raise LoadError(f"carrier size {lat.n} exceeds wire enumeration cap {WIRE_ENUM_CAP}")
    else:
        reports = enumerate_wires(lat, m_only=args.m_wires_only)
        entries = [_wire_entry(lat, rep) for rep in reports]
    results = {"path": args.path, "wires": entries, "wire_count": len(entries)}
    if args.m_wires_only and not entries:
        results["note"] = "no M-wires"
    return results, True, EXIT_PASS


# ----- corpus ----------------------------------------------------------


def _corpus_entry(lat) -> tuple[dict, bool]:
    """The report entry of one lattice, and whether all three sweeps are ok.

    The entry of a lattice that is not ok also carries its document, so a
    violation can be replayed with ``latlift lift``."""
    reports = equivalence, liftability, embedding = sweep_lattice(lat)
    entry = {
        "elements": lat.n,
        "wires": equivalence.wires_checked,
        "m_wires": equivalence.m_wires,
        "equivalence_violations": [list(map(_plain, v)) for v in equivalence.violations],
        "finitary_all": equivalence.finitary_all,
        "all_compact": equivalence.all_compact,
        "liftability_findings": list(liftability.findings)
        + ([] if liftability.lift_full_certified else ["full-carrier lift not certified"]),
        "embedding_ok": embedding.ok,
    }
    ok = all(report.ok for report in reports)
    if not ok:
        entry["lattice"] = lattice_to_dict(lat)
    return entry, ok


def corpus_threads(value: str | None) -> int:
    """Worker count from a LATLIFT_THREADS value: unset means 1, and values
    above the CPU count are clamped to it."""
    if value is None:
        return 1
    try:
        threads = int(value)
    except ValueError:
        raise LoadError(f"LATLIFT_THREADS must be a positive integer, got {value!r}") from None
    if threads < 1:
        raise LoadError(f"LATLIFT_THREADS must be a positive integer, got {value!r}")
    return min(threads, os.cpu_count() or 1)


def _cmd_corpus(args) -> tuple[dict, bool, int]:
    if not 1 <= args.max_n <= ENUM_CAP:
        raise LoadError(f"--max-n must be between 1 and {ENUM_CAP}")
    if args.limit is not None and args.limit < 1:
        raise LoadError("--limit must be at least 1")
    threads = corpus_threads(os.environ.get("LATLIFT_THREADS"))
    lattices = []
    for n in range(1, args.max_n + 1):
        lattices.extend(enumerate_small_lattices(n, limit=args.limit))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            swept = list(pool.map(_corpus_entry, lattices, chunksize=8))
    else:
        swept = [_corpus_entry(lat) for lat in lattices]
    entries = [entry for entry, _ in swept]
    violations = [entry for entry, ok in swept if not ok]
    results = {
        "max_n": args.max_n,
        "limit": args.limit,
        "lattices": len(entries),
        "wires": sum(e["wires"] for e in entries),
        "m_wires": sum(e["m_wires"] for e in entries),
        "violations": violations,
    }
    if violations:
        return results, False, EXIT_ORACLE
    return results, True, EXIT_PASS


# ----- quad ------------------------------------------------------------


def _cmd_quad(args) -> tuple[dict, bool, int]:
    # natquad rejects an inadmissible d or an out-of-range bound with ValueError
    try:
        return _quad(QuadOrder(args.d), args)
    except ValueError as exc:
        raise LoadError(str(exc)) from None
    except MemoryError:
        bound = args.search_bound if args.check == "s-wire" else args.bound
        raise LoadError(f"bound {bound} is too large: its norm table does not fit in memory") from None


def _quad(order: QuadOrder, args) -> tuple[dict, bool, int]:
    base = {"d": args.d, "check": args.check}
    if args.check == "norms":
        values = norm_image(order, args.bound)
        results = base | {"bound": args.bound, "count": len(values), "values": list(values)}
        return results, True, EXIT_PASS
    if args.check == "division-closure":
        report = division_closure_check(order, args.bound)
        results = base | {"bound": args.bound, "closed": report.closed,
                          "counterexample": list(report.counterexample) if report.counterexample else None}
        return results, report.closed, EXIT_PASS if report.closed else EXIT_FAIL
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
        return results, report.ok, EXIT_PASS if report.ok else EXIT_FAIL
    report = m_wire_verdict(order, args.bound)
    results = base | {"bound": args.bound, "verdict": report.verdict,
                      "counterexample": list(report.counterexample) if report.counterexample else None}
    consistent = report.verdict == M_WIRE_CONSISTENT
    return results, consistent, EXIT_PASS if consistent else EXIT_FAIL


# ----- rendering -------------------------------------------------------


def _render_text(report: RunReport) -> str:
    lines = [f"latlift {report.version} :: {report.command}"]
    results = report.results
    if report.command in ("check-lattice", "lift"):  # both report the lattice verdict of one file
        lines.append(f"file: {results['path']}")
        if "elements" in results:
            lines.append(f"elements: {','.join(results['elements'])}")
        for v in results.get("violations", []):
            lines.append(f"violation: {v['law']} at ({','.join(map(str, v['witness']))}) {v['detail']}")
    if report.command == "lift":
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
    elif report.command == "corpus":
        lines.append(f"lattices: {results['lattices']}  wires: {results['wires']}  "
                     f"m-wires: {results['m_wires']}")
        for v in results["violations"]:
            lines.append(f"VIOLATION: {v}")
    elif report.command == "quad":
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
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'} "
                 f"({report.elapsed_s:.3f}s, exit {report.exit_code})")
    return "\n".join(lines)


DISPATCH = {
    "check-lattice": _cmd_check_lattice,
    "lift": _cmd_lift,
    "corpus": _cmd_corpus,
    "quad": _cmd_quad,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    ``parse_args`` reads the parser without changing it and gives each call
    a fresh namespace, so ``main`` can run any number of times in one
    process."""
    parser = argparse.ArgumentParser(
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
                        help="cap on lattices per carrier size")

    quad = sub.add_parser("quad", parents=[common],
                          help="quadratic-order norm experiments")
    quad.add_argument("check", choices=("norms", "division-closure", "s-wire", "verdict"))
    quad.add_argument("--d", type=int, required=True)
    quad.add_argument("--bound", type=int, default=10000)
    quad.add_argument("--prime-bound", type=int, default=200)
    quad.add_argument("--search-bound", type=int, default=100000)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        results, passed, code = DISPATCH[args.command](args)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except TheoremViolation as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    options = {k: v for k, v in vars(args).items() if k not in ("command", "format")}
    report = RunReport(
        command=args.command,
        options=options,
        passed=passed,
        exit_code=code,
        elapsed_s=round(time.perf_counter() - started, 6),
        version=__version__,
        results=results,
    )
    try:
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (say, `| head`): as the Python docs advise, point
        # stdout at devnull so that the final flush cannot fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError):  # a stdout without a descriptor
            sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
