"""The benchmark's four workloads and the checks on their outputs.

A workload is built once per set-up from the imported ``latlift`` package,
the seed and a scratch directory, and then runs whole passes.  Every op
goes through ``Recorder.op``, or ``Recorder.cli`` for an in-process CLI
call, which time it; the output checks run outside the timed region and
count failures through ``Recorder.check`` and ``Recorder.fail``.  Checks read only the fields
they name, so the ``elapsed_s`` field of CLI JSON never matters.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
POOL_PATH = BENCH / "lift_n6_pool.json"

# Euler's 65 idoneal numbers (OEIS A000926).  The bounded division-closure
# verdict on x^2 + D y^2 reads "closed" exactly for these D.
IDONEAL = frozenset((
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28, 30, 33, 37, 40,
    42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105, 112, 120, 130, 133, 165, 168,
    177, 190, 210, 232, 240, 253, 273, 280, 312, 330, 345, 357, 385, 408, 462, 520, 760,
    840, 1320, 1365, 1848))


class SetupError(Exception):
    """The workload's inputs failed their self-check."""


def _results(text: str) -> dict:
    return json.loads(text)["results"]


class CorpusN5:
    """``latlift corpus --max-n 5 --format json``: the north-star census."""

    ARGV = ["corpus", "--max-n", "5", "--format", "json"]
    TOTALS = {"lattices": 164, "wires": 176, "m_wires": 79, "violations": []}

    def __init__(self, latlift, seed: int, workdir: Path) -> None:
        self.latlift = latlift

    def run_pass(self, rec, pass_no: int) -> None:
        ok, out = rec.cli(self.latlift, self.ARGV)
        if ok:
            rec.check(self._check, *out)

    def _check(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"corpus exited {code}"
        results = _results(text)
        got = {key: results[key] for key in self.TOTALS}
        return None if got == self.TOTALS else f"corpus totals {got}, expected {self.TOTALS}"


class LiftN6:
    """``latlift lift <doc> --all-wires --format json`` over a seed-drawn
    sample of the committed n=6 document pool.

    The sample is systematic: the pool is ranked by the cost of lifting
    every wire, sum of 4^|H| (the pair scan in ``build_ideal_lattice``),
    cut into SAMPLE equal runs, and the seed picks one document from each.
    Every seed thus draws different documents with the same cost profile,
    so the seed moves neither the work per pass nor its percentiles.
    """

    SAMPLE = 120

    def __init__(self, latlift, seed: int, workdir: Path) -> None:
        self.latlift = latlift
        pool = json.loads(POOL_PATH.read_text())["docs"]
        for entry in pool:
            lat = latlift.lattice_from_dict(entry["doc"])
            if not latlift.verify_lattice(lat).passed:
                raise SetupError(f"pool lattice {entry['index']} fails verify_lattice")
        ranked = sorted(pool, key=lambda e: (sum(4 ** m for m in e["wire_sizes"]), e["index"]))
        cuts = [len(ranked) * i // self.SAMPLE for i in range(self.SAMPLE + 1)]
        rng = random.Random(seed)
        picked = [rng.choice(ranked[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        rng.shuffle(picked)
        self.docs = []
        for entry in picked:
            path = workdir / f"lattice-{entry['index']}.json"
            path.write_text(json.dumps(entry["doc"]))
            self.docs.append((str(path), entry["wire_count"], entry["m_wire_count"]))

    def run_pass(self, rec, pass_no: int) -> None:
        for path, wire_count, m_wire_count in self.docs:
            argv = ["lift", path, "--all-wires", "--format", "json"]
            ok, out = rec.cli(self.latlift, argv)
            if ok:
                rec.check(self._check, path, *out, wire_count, m_wire_count)

    @staticmethod
    def _check(path: str, code: int, text: str, wire_count: int, m_wire_count: int) -> str | None:
        if code != 0:
            return f"lift {path}: exit {code}"
        results = _results(text)
        wires = results["wires"]
        if results["wire_count"] != wire_count or len(wires) != wire_count:
            return f"lift {path}: wire_count {results['wire_count']}, expected {wire_count}"
        if sum(w["is_m_wire"] for w in wires) != m_wire_count:
            return f"lift {path}: M-wire count differs from the pinned {m_wire_count}"
        for w in wires:
            if w["certified"] is not True or w["ideal_system"] != w["is_m_wire"]:
                return (f"lift {path}: wire {w['wire']}: certified={w['certified']} "
                        f"ideal_system={w['ideal_system']}")
        return None


class WiresN6:
    """The library census of labelled n=6 lattices and their wires; there is
    no CLI command for it.  An op advances ``enumerate_small_lattices(6)``
    by one lattice and lists that lattice's wires; the op that finds the
    enumerator exhausted is timed too, since it finishes the search."""

    TOTALS = (2896, 3440, 772)  # lattices, wires, M-wires

    def __init__(self, latlift, seed: int, workdir: Path) -> None:
        self.latlift = latlift

    @staticmethod
    def _step(latlift, lattices):
        lat = next(lattices, None)
        if lat is None:
            return None
        reports = list(latlift.enumerate_wires(lat))
        return len(reports), sum(r.is_m_wire for r in reports)

    def run_pass(self, rec, pass_no: int) -> None:
        lattices = self.latlift.enumerate_small_lattices(6)
        base_lattices = rec.base.enumerate_small_lattices(6) if rec.paired else None
        found, wires, m_wires = 0, 0, 0
        while True:
            ok, out = rec.op(lambda: self._step(self.latlift, lattices),
                             lambda: self._step(rec.base, base_lattices))
            if not ok or out is None:
                break
            found += 1
            wires += out[0]
            m_wires += out[1]
        if (found, wires, m_wires) != self.TOTALS:
            rec.fail_pass(f"census {(found, wires, m_wires)}, expected {self.TOTALS}")


def _squarefree(n: int) -> bool:
    return all(n % (k * k) for k in range(2, int(n ** 0.5) + 1))


class Quad:
    """``latlift quad verdict`` for every admissible D below D_LIMIT, in a
    seed-shuffled order, plus ``quad s-wire`` on a few D at fixed, evenly
    spaced slots.

    Admissible means the CLI accepts d = -D: D squarefree and d = 2 or 3
    mod 4.  Every op must build its norm image cold, as a CLI process does,
    so bounds are offset by the pass number: no (d, bound) key repeats in
    the run, the package's norm-image cache never serves an op, and the
    tracer can check that with ``natquad.norm_image.repeat_keys``.
    The s-wire slots are more than the cache size (32) apart, so the cache
    holds at most one of their large images and peak memory does not
    depend on the seed.
    """

    D_LIMIT = 300
    S_WIRE_D = (5, 17)
    PRIME_BOUND = 2000
    SEARCH_BOUND = 1_000_000

    def __init__(self, latlift, seed: int, workdir: Path) -> None:
        self.latlift = latlift
        self.order = [("verdict", D) for D in range(1, self.D_LIMIT)
                      if D % 4 in (1, 2) and _squarefree(D)]
        random.Random(seed).shuffle(self.order)
        gap = len(self.order) // len(self.S_WIRE_D)
        for slot, D in enumerate(self.S_WIRE_D):
            self.order.insert(slot * (gap + 1), ("s-wire", D))

    def run_pass(self, rec, pass_no: int) -> None:
        for kind, D in self.order:
            if kind == "verdict":
                argv = ["quad", "verdict", "--d", str(-D),
                        "--bound", str(max(200_000, 50 * D) + pass_no), "--format", "json"]
            else:
                argv = ["quad", "s-wire", "--d", str(-D), "--prime-bound", str(self.PRIME_BOUND),
                        "--search-bound", str(self.SEARCH_BOUND + pass_no), "--format", "json"]
            ok, out = rec.cli(self.latlift, argv)
            if ok:
                rec.check(self._check_verdict if kind == "verdict" else self._check_s_wire, D, *out)

    @staticmethod
    def _check_verdict(D: int, code: int, text: str) -> str | None:
        closed = D in IDONEAL
        if code != (0 if closed else 1):
            return f"quad verdict D={D}: exit {code}"
        results = _results(text)
        example = results["counterexample"]
        if closed != (example is None) or closed != results["verdict"].startswith("CONSISTENT"):
            return f"quad verdict D={D}: {results['verdict']}, but D is {'' if closed else 'not '}idoneal"
        if example is not None:
            n, m, quotient = example
            if m % n or m // n != quotient:
                return f"quad verdict D={D}: counterexample {example} is not a divisor pair"
        if D == 17 and example != [9, 18, 2]:
            return f"quad verdict D=17: counterexample {example}, expected [9, 18, 2]"
        return None

    @staticmethod
    def _check_s_wire(D: int, code: int, text: str) -> str | None:
        if code != 0:
            return f"quad s-wire D={D}: exit {code}"
        unresolved = _results(text)["unresolved"]
        return f"quad s-wire D={D}: unresolved primes {unresolved}" if unresolved else None


WORKLOADS = {
    "corpus-n5": CorpusN5,
    "lift-n6": LiftN6,
    "wires-n6": WiresN6,
    "quad": Quad,
}
