"""Outside-in tracer for latlift.

The tracer wraps public functions of latlift from outside the package.  A
wrapper is installed on every module namespace that binds the traced name
(``latlift`` and each of its modules), so calls across modules, such as
``lift -> verify_weak_ideal_system``, and calls through a module's own
imports, such as ``build_ideal_lattice -> verify_lattice``, are both seen.

Each call of a wrapped function is a span: name, start, end, parent span,
op id and pass number.  For a generator the span is one ``next()``.  Spans
are kept in memory and written out at the end of the run.  Hot primitives
(``subset_product``, ``FiniteLattice.join_of``) get counters only.

A span's self time is its duration minus the durations of its direct
children; spans nest and run on one thread, so the children never overlap.
To print self times from a span dump:

    python3 bench/tracer.py bench/.work/spans-<workload>.json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

NAMESPACES = ("latlift", "latlift.cli", "latlift.lattice", "latlift.lifting",
              "latlift.monoid", "latlift.natquad")


# ----- hooks: per-call work counters, run after the span has closed -----

def _lift(tr, result, lat, subset):
    tr.note_key("lifting.lift", (lat, subset))


def _weak(tr, result, r):
    tr.note_key("monoid.verify_weak_ideal_system", r)
    tr.counts["monoid.verify_weak_ideal_system.table_slots"] += len(r.table)


def _ideal_lattice(tr, result, r):
    tr.counts["monoid.build_ideal_lattice.ideals"] += len(result.ideals)


def _norm_image(tr, result, q, bound):
    tr.note_key("natquad.norm_image", (q.d, bound))
    tr.counts["natquad.norm_image.values"] += len(result)


def _division(tr, result, q, bound):
    tr.counts["natquad.division_closure_check.closed"] += result.closed


def _s_wire(tr, result, q, prime_bound, search_bound):
    tr.counts["natquad.s_wire_check.primes"] += len(result.verdicts)
    tr.counts["natquad.s_wire_check.gcd_generated"] += sum(
        v.kind == "gcd_generated" for v in result.verdicts)


def _wires_start(tr, lat, *args, **kwargs):
    tr.counts["lifting.enumerate_wires.subsets_scanned"] += 1 << max(lat.n - 2, 0)


def _yielded(name):
    def hook(tr, item):
        tr.counts[name + ".yielded"] += 1
    return hook


# (layer.name, defining module, attribute, kind, hook)
TARGETS = (
    ("cli.main", "latlift.cli", "main", "span", None),
    ("lattice.enumerate_small_lattices", "latlift.lattice", "enumerate_small_lattices", "gen",
     (None, _yielded("lattice.enumerate_small_lattices"))),
    ("lattice.load_lattice", "latlift.lattice", "load_lattice", "span", None),
    ("lattice.verify_lattice", "latlift.lattice", "verify_lattice", "span", None),
    ("lattice.classify_element", "latlift.lattice", "classify_element", "span", None),
    ("lattice.join_of", "latlift.lattice", "FiniteLattice.join_of", "count", None),
    ("lifting.enumerate_wires", "latlift.lifting", "enumerate_wires", "gen",
     (_wires_start, _yielded("lifting.enumerate_wires"))),
    ("lifting.analyze_wire", "latlift.lifting", "analyze_wire", "span", None),
    ("lifting.lift", "latlift.lifting", "lift", "span", _lift),
    ("lifting.check_m_wire_ideal_equivalence", "latlift.lifting",
     "check_m_wire_ideal_equivalence", "span", None),
    ("lifting.check_liftability", "latlift.lifting", "check_liftability", "span", None),
    ("lifting.check_finitary_embedding", "latlift.lifting", "check_finitary_embedding", "span", None),
    ("monoid.verify_weak_ideal_system", "latlift.monoid", "verify_weak_ideal_system", "span", _weak),
    ("monoid.verify_ideal_system", "latlift.monoid", "verify_ideal_system", "span", None),
    ("monoid.verify_finitary", "latlift.monoid", "verify_finitary", "span", None),
    ("monoid.build_ideal_lattice", "latlift.monoid", "build_ideal_lattice", "span", _ideal_lattice),
    ("monoid.subset_product", "latlift.monoid", "subset_product", "count", None),
    ("natquad.norm_image", "latlift.natquad", "norm_image", "span", _norm_image),
    ("natquad.division_closure_check", "latlift.natquad", "division_closure_check", "span", _division),
    ("natquad.norm_witness", "latlift.natquad", "norm_witness", "span", None),
    ("natquad.s_wire_check", "latlift.natquad", "s_wire_check", "span", _s_wire),
)

# Per-pass statistics reported for each traced name, besides the counters
# the hooks fill in.
SPAN_STATS = {
    "cli.main": ("calls", "self_s"),
    "lattice.enumerate_small_lattices": ("self_s",),
    "lattice.load_lattice": ("self_s",),
    "lattice.verify_lattice": ("calls", "self_s"),
    "lattice.classify_element": ("self_s",),
    "lifting.enumerate_wires": ("self_s",),
    "lifting.analyze_wire": ("calls", "self_s"),
    "lifting.lift": ("calls", "distinct", "self_s"),
    "lifting.check_m_wire_ideal_equivalence": ("self_s",),
    "lifting.check_liftability": ("self_s",),
    "lifting.check_finitary_embedding": ("self_s",),
    "monoid.verify_weak_ideal_system": ("calls", "distinct", "self_s"),
    "monoid.verify_ideal_system": ("self_s",),
    "monoid.verify_finitary": ("self_s",),
    "monoid.build_ideal_lattice": ("calls", "self_s"),
    "natquad.norm_image": ("calls", "self_s"),
    "natquad.division_closure_check": ("calls", "self_s"),
    "natquad.norm_witness": ("calls", "self_s"),
    "natquad.s_wire_check": ("self_s",),
}
COUNTERS = (
    "lattice.enumerate_small_lattices.yielded",
    "lattice.join_of.calls",
    "lifting.enumerate_wires.subsets_scanned",
    "lifting.enumerate_wires.yielded",
    "monoid.verify_weak_ideal_system.table_slots",
    "monoid.build_ideal_lattice.ideals",
    "monoid.subset_product.calls",
    "natquad.norm_image.values",
    "natquad.norm_image.repeat_keys",
    "natquad.division_closure_check.closed",
    "natquad.s_wire_check.primes",
    "natquad.s_wire_check.gcd_generated",
)
RATIOS = (  # name: (numerator, denominator)
    ("lifting.enumerate_wires.yield_ratio",
     "lifting.enumerate_wires.yielded", "lifting.enumerate_wires.subsets_scanned"),
    ("lifting.lift.repeat_ratio", "lifting.lift.calls", "lifting.lift.distinct"),
    ("monoid.verify_weak_ideal_system.repeat_ratio",
     "monoid.verify_weak_ideal_system.calls", "monoid.verify_weak_ideal_system.distinct"),
)


class Tracer:
    """Spans and counters for one traced run; ``install`` patches latlift,
    ``uninstall`` puts every original back."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, pass]
        self.stack: list[int] = []
        self.op = 0
        self.pass_no = 0
        self.counts: Counter = Counter()
        self.pass_keys: dict[str, set] = defaultdict(set)
        self.run_keys: dict[str, set] = defaultdict(set)
        self._pass_start = 0
        self._undo: list[tuple[object, str, object]] = []

    # ----- recording -------------------------------------------------

    def note_key(self, name: str, key) -> None:
        """Count distinct argument keys per pass, and calls whose key was
        already seen earlier in the traced run (a cache could serve them)."""
        if key in self.run_keys[name]:
            self.counts[name + ".repeat_keys"] += 1
        self.run_keys[name].add(key)
        self.pass_keys[name].add(key)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, self.pass_no]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn):
        """Run fn() inside a span of its own (the benchmark's op span)."""
        rec = self._open(name)
        try:
            return fn()
        finally:
            self._close(rec)

    def _span(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result
        return wrapper

    def _gen(self, name: str, fn, hooks):
        on_start, on_yield = hooks

        def iterate(it):
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                on_yield(self, item)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_start is not None:
                on_start(self, *args, **kwargs)
            return iterate(fn(*args, **kwargs))
        return wrapper

    def _count(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ----- patching --------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in NAMESPACES]
        for name, home, attr, kind, hook in TARGETS:
            owner = importlib.import_module(home)
            targets = modules
            if "." in attr:  # a method: patch the class that defines it
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            original = vars(owner)[attr]
            if kind == "span":
                wrapper = self._span(name, original, hook)
            elif kind == "gen":
                wrapper = self._gen(name, original, hook)
            else:
                wrapper = self._count(name, original)
            for target in targets:
                if vars(target).get(attr) is original:
                    setattr(target, attr, wrapper)
                    self._undo.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # ----- per-pass metrics ------------------------------------------

    def begin_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.pass_keys.clear()

    def end_pass(self) -> dict[str, float]:
        """Every per-layer statistic of the pass that just ended, by name;
        a name whose code did not run in the pass reads 0."""
        calls, self_s = self_times(self.spans, self._pass_start)
        out: dict[str, float] = {}
        for name, stats in SPAN_STATS.items():
            for stat in stats:
                if stat == "calls":
                    out[f"{name}.calls"] = calls[name]
                elif stat == "distinct":
                    out[f"{name}.distinct"] = len(self.pass_keys.get(name, ()))
                else:
                    out[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        for name, num, den in RATIOS:
            out[name] = out[num] / out[den] if out[den] else 0.0
        return out

    def dump(self, path, meta: dict) -> None:
        columns = ["name", "start", "end", "parent", "op", "pass"]
        with open(path, "w") as fh:
            json.dump(meta | {"columns": columns, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list, first: int = 0) -> tuple[Counter, Counter]:
    """Calls and self seconds per span name over spans[first:]; parents
    are indices into spans."""
    child = Counter()
    for name, start, end, parent, *_ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    calls, self_s = Counter(), Counter()
    for idx in range(first, len(spans)):
        name, start, end = spans[idx][:3]
        calls[name] += 1
        self_s[name] += end - start - child[idx]
    return calls, self_s


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/tracer.py SPAN_DUMP.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        dump = json.load(fh)
    calls, self_s = self_times(dump["spans"])
    passes = len({span[5] for span in dump["spans"]}) or 1
    print(f"{dump.get('workload')} seed {dump.get('seed')}: {len(dump['spans'])} spans "
          f"over {passes} traced passes; per pass:")
    print(f"{'span':45} {'calls':>10} {'self_s':>10}")
    for name, total in self_s.most_common():
        print(f"{name:45} {calls[name] / passes:10.0f} {total / passes:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
