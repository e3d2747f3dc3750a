"""latlift benchmark: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload lift-n6 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --seed 1 --seconds 55       # every workload in turn

One process, one thread, ops back to back.  latlift is imported from
``src/`` of the checkout this file sits in; ``LATLIFT_THREADS`` is removed
from the environment first.  The run repeats whole passes over the
workload until ``--seconds`` have gone by.  Each pass starts with a fresh
set-up: latlift is dropped from ``sys.modules`` and imported again, and the
workload's inputs are generated again, three times over; ``setup_s`` is the
median set-up time.

The end-to-end timings are relative to a baseline: ``bench/baseline`` holds
latlift as it was when the benchmark was written, imported as
``latlift_base``.  After one warm-up pass, every op is run twice, by latlift
and by the baseline, back to back and in alternating order, on the same
input.  On a shared host other tenants slow every instruction down by up to
1.5x, for stretches from under a second to minutes; both halves of a pair
are slowed alike, so the ratio of their times keeps what the code under
test changed and drops most of what the host did.  ``wall_rel`` and
``cpu_rel`` are the run's total op time over the baseline's and
``op_p50_rel`` the median over ops of an op's time over its baseline
twin's; each reads about 1.0 for code as fast as the baseline and below 1.0
for faster code.

With ``--trace 1`` the run spends the first half of its time untraced and
the second half under the outside-in tracer (bench/tracer.py); it reports
the per-layer metrics, medians over traced passes, and writes the spans to
bench/.work/spans-<workload>.json.  The baseline does not run.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"
WORK = BENCH / ".work"


class Recorder:
    """Timings and failures of the passes of one phase (untraced or traced).

    ``make_workload`` imports latlift fresh and builds the workload; it is
    called before every pass and times the set-up.  When
    ``paired`` is set, every op is paired with the same op run by the
    baseline package, which ``make_workload`` imports fresh too.
    """

    def __init__(self, make_workload, tracer=None) -> None:
        self.make_workload = make_workload
        self.tracer = tracer
        self.paired = False
        self.base = None  # the baseline package of the current pass, when paired
        self.ops: list[tuple[float, float]] = []  # (wall, cpu) of every op
        self.base_ops: list[tuple[float, float]] = []  # the baseline half of each pair
        self.setup_s: list[float] = []
        self.pass_wall: list[float] = []
        self.pass_bytes: list[int] = []  # CLI output per pass
        self.layer_passes: list[dict] = []  # tracer statistics, one dict per pass
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._wall = 0.0
        self._bytes = self._pass_ops = self._pass_failed = 0

    def clear_timings(self) -> None:
        """Forget the timings so far (a warm-up); failures stay counted."""
        self.ops, self.base_ops, self.setup_s, self.pass_wall = [], [], [], []

    def op(self, fn, base_fn):
        """Time one op; returns (True, output), or (False, None) if it raised.
        When the recorder is paired, ``base_fn`` runs the same op on the
        baseline package, before ``fn`` on odd ops and after it on even ones."""
        self.attempted += 1
        self._pass_ops += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.attempted
        base_first = self.paired and self.attempted % 2 == 1
        if base_first:
            self.base_ops.append(_timed(base_fn)[0])
        try:
            timing, out = _timed(fn if tracer is None else lambda: tracer.call("op", fn))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            timing, out = None, exc
        if self.paired and not base_first:
            self.base_ops.append(_timed(base_fn)[0])
        if timing is None:
            if self.paired:
                self.base_ops.pop()
            self.fail(f"raised {out!r}")
            return False, None
        self.ops.append(timing)
        self._wall += timing[0]
        return True, out

    def cli(self, latlift, argv: list[str]):
        """Time one in-process CLI call, ``latlift.cli.main(argv)``, looked up
        at call time so the tracer's wrapper is used when installed; returns
        (True, (exit code, stdout)), or (False, None) if it raised."""
        ok, out = self.op(lambda: _run_cli(latlift, argv), lambda: _run_cli(self.base, argv))
        if ok:
            self._bytes += len(out[1].encode())
        return ok, out

    def check(self, check, *args) -> None:
        """Run an output check on the op just run; a reason it returns, or
        output too malformed to check, counts the op as failed."""
        try:
            reason = check(*args)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        """Count the op just run as failed."""
        self.failed += 1
        self._pass_failed += 1
        self.reasons.append(reason)

    def fail_pass(self, reason: str) -> None:
        """Count every op of the current pass as failed."""
        self.failed += self._pass_ops - self._pass_failed
        self._pass_failed = self._pass_ops
        self.reasons.append(reason)

    def run_passes(self, first_pass: int, until: float) -> int:
        """Set up and run whole passes, at least one, while the last pass
        would still end by perf_counter() == until; returns the next pass
        number."""
        pass_no = first_pass
        while True:
            started = time.perf_counter()
            workload, setup_s, self.base = self.make_workload(self.paired)
            self.setup_s += setup_s
            gc.collect()
            self._wall = 0.0
            self._bytes = self._pass_ops = self._pass_failed = 0
            if self.tracer is None:
                workload.run_pass(self, pass_no)
            else:
                self.tracer.install()
                self.tracer.begin_pass(pass_no)
                try:
                    workload.run_pass(self, pass_no)
                finally:
                    self.tracer.uninstall()
                self.layer_passes.append(self.tracer.end_pass())
            workload = self.base = None
            self.pass_wall.append(self._wall)
            self.pass_bytes.append(self._bytes)
            pass_no += 1
            now = time.perf_counter()
            if now + (now - started) > until:
                return pass_no


def _timed(fn):
    """Run fn; returns ((wall seconds, CPU seconds), its result)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    out = fn()
    return (time.perf_counter() - wall0, time.process_time() - cpu0), out


def _run_cli(latlift, argv: list[str]):
    """``latlift.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = latlift.cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors by exiting
            code = exc.code
    return code, buf.getvalue()


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _drop_modules(package: str) -> None:
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]


SETUPS_PER_PASS = 3  # set-up is short and noisy; time it more often than the passes


def workload_factory(workload_cls, seed: int, workdir: Path):
    """Set-up: drop any imported latlift, import it again from SRC and build
    the workload, SETUPS_PER_PASS times.  Returns a callable taking
    ``paired`` and giving (the last workload, the set-up times in seconds,
    the baseline package, freshly imported, or None)."""
    def make(paired: bool):
        _drop_modules("latlift_base")
        elapsed = []
        for _ in range(SETUPS_PER_PASS):
            _drop_modules("latlift")
            gc.collect()
            started = time.perf_counter()
            latlift = importlib.import_module("latlift")
            importlib.import_module("latlift.cli")
            workload = workload_cls(latlift, seed, workdir)
            elapsed.append(time.perf_counter() - started)
        if not Path(latlift.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"latlift was imported from {latlift.__file__}, not from {SRC}")
        base = None
        if paired:
            base = importlib.import_module("latlift_base")
            importlib.import_module("latlift_base.cli")
        return workload, elapsed, base
    return make


def run_untraced(make_workload, seconds: int) -> tuple[Recorder, dict]:
    """One warm-up pass of latlift alone, which also sets peak_rss_mb, then
    paired passes for the rest of the run."""
    until = time.perf_counter() + seconds
    rec = Recorder(make_workload)
    rec.run_passes(0, 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    warmup_setup_s = rec.setup_s
    rec.clear_timings()
    rec.paired = True
    rec.run_passes(1, until)
    setup_s = warmup_setup_s + rec.setup_s

    def ratio(pick) -> float:
        return pick(rec.ops) / pick(rec.base_ops)

    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_rel": ratio(lambda ops: sum(w for w, _ in ops)),
        "cpu_rel": ratio(lambda ops: sum(c for _, c in ops)),
        "op_p50_rel": statistics.median(a / b for (a, _), (b, _) in zip(rec.ops, rec.base_ops)),
        "peak_rss_mb": peak_rss_mb,
    }
    walls = [w for w, _ in rec.ops]
    base_walls = [w for w, _ in rec.base_ops]
    print(f"1 warm-up pass and {len(rec.pass_wall)} paired passes of "
          f"{len(rec.ops) // len(rec.pass_wall)} ops; op percentiles are over all "
          f"{len(rec.ops)} paired ops; ops_failed_frac {rec.failed / rec.attempted}")
    print("pass wall_s: " + " ".join(f"{w:.3f}" for w in rec.pass_wall))
    print(f"latlift  wall_s {sum(walls):.3f} op_p50_ms {1000 * _percentile(walls, 50):.3f} "
          f"op_p90_ms {1000 * _percentile(walls, 90):.3f}")
    print(f"baseline wall_s {sum(base_walls):.3f} op_p50_ms {1000 * _percentile(base_walls, 50):.3f} "
          f"op_p90_ms {1000 * _percentile(base_walls, 90):.3f}")
    return rec, metrics


def run_traced(make_workload, seconds: int, name: str, seed: int) -> tuple[list[Recorder], dict, str | None]:
    from tracer import Tracer

    started = time.perf_counter()
    plain = Recorder(make_workload)
    next_pass = plain.run_passes(0, started + seconds / 2)
    traced = Recorder(make_workload, Tracer())
    traced.run_passes(next_pass, started + seconds)
    # median_low keeps every figure one that a pass produced
    metrics = {key: statistics.median_low(p[key] for p in traced.layer_passes)
               for key in traced.layer_passes[0]}
    metrics["cli.output_bytes"] = statistics.median_low(traced.pass_bytes)
    metrics["trace.overhead_frac"] = min(traced.pass_wall) / min(plain.pass_wall) - 1
    dump = WORK / f"spans-{name}.json"
    traced.tracer.dump(dump, {"workload": name, "seed": seed})
    print(f"{len(plain.pass_wall)} untraced and {len(traced.pass_wall)} traced passes; spans in {dump}")
    for label, rec in (("untraced", plain), ("traced", traced)):
        print(f"{label} pass wall_s: " + " ".join(f"{w:.3f}" for w in rec.pass_wall))
    problem = None
    if name == "quad" and any(p["natquad.norm_image.repeat_keys"] for p in traced.layer_passes):
        problem = "a norm-image key repeated, so the norm-image cache could serve an op"
    return [plain, traced], metrics, problem


def run_one(args) -> int:
    from workloads import WORKLOADS

    os.environ.pop("LATLIFT_THREADS", None)
    if not (SRC / "latlift" / "__init__.py").is_file():
        print(f"error: no latlift sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [str(SRC), str(BASELINE)]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        make_workload = workload_factory(WORKLOADS[args.workload], args.seed, Path(tmp))
        if args.trace:
            recorders, values, problem = run_traced(make_workload, args.seconds, args.workload, args.seed)
        else:
            rec, values = run_untraced(make_workload, args.seconds)
            recorders, problem = [rec], None
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    for reason in [reason for r in recorders for reason in r.reasons][:10]:
        print(f"FAILED: {reason}")
    if problem:
        print(f"FAILED: {problem}")
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}, "
          f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    for m in wanted:
        print(f"{m['name']:50} {values[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and pass its output through."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print(f"== {name}", *lines[:-1], sep="\n")
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
