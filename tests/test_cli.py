import argparse
import ast
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
from functools import cache
from itertools import accumulate
from pathlib import Path

import pytest

import latlift
from latlift import cli, lattice, lifting, monoid, natquad
from latlift.cli import main

from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    # the schema round-trips
    assert json.loads(json.dumps(report)) == report
    assert report["exit_code"] == code
    assert report["passed"] == (code == 0)
    return code, report


def test_check_lattice_pass(capsys):
    code, report = run_json(capsys, "check-lattice", fixture_path("l6.json"))
    assert code == 0
    assert report["results"]["violations"] == []


def test_check_lattice_fail(capsys):
    code, report = run_json(capsys, "check-lattice", fixture_path("l6_broken.json"))
    assert code == 1
    laws = {v["law"] for v in report["results"]["violations"]}
    assert "distributivity" in laws or "annihilation" in laws


def test_check_lattice_missing_file(capsys):
    assert main(["check-lattice", fixture_path("nope.json")]) == 2


@pytest.mark.parametrize("content", [
    b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit of the JSON decoder
    b'{"elements": ["\xff"]}',  # not UTF-8
], ids=["nested", "not-utf8"])
@pytest.mark.parametrize("command", [["check-lattice"], ["lift", "--all-wires"]], ids=["check-lattice", "lift"])
def test_unreadable_json_is_one_line_usage_error(capsys, tmp_path, command, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err


@pytest.mark.parametrize("mul", [5, None])
def test_check_lattice_malformed_mul_is_usage_error(capsys, tmp_path, mul):
    doc = json.loads(Path(fixture_path("l6.json")).read_text()) | {"mul": mul}
    path = tmp_path / "bad_mul.json"
    path.write_text(json.dumps(doc))
    assert main(["check-lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'mul' must be a list") and captured.err.count("\n") == 1


def test_lift_named_wire(capsys):
    code, report = run_json(capsys, "lift", fixture_path("l6.json"), "--wire", "0,a,b,c,1")
    assert code == 0
    entry = report["results"]["wires"][0]
    assert entry["ideal_count"] == 6
    assert entry["certified"] and entry["weak_ideal_system"] and not entry["ideal_system"]
    assert not entry["is_m_wire"]
    assert entry["m_witness"] == ["a", "b", "1"]
    ideals = {frozenset(i) for i in entry["ideals"]}
    assert frozenset(["0", "a", "b", "c"]) in ideals


def test_lift_non_wire_exits_nonzero(capsys):
    code, report = run_json(capsys, "lift", fixture_path("l6.json"), "--wire", "0,a,1")
    assert code == 1
    assert report["results"]["is_wire"] is False
    assert report["results"]["generates"] is False


def test_lift_unknown_wire_element_is_usage_error(capsys):
    assert main(["lift", fixture_path("l6.json"), "--wire", "0,zz,1"]) == 2


def test_lift_m_wires_only_empty(capsys):
    code, report = run_json(capsys, "lift", fixture_path("l6.json"), "--m-wires-only")
    assert code == 0
    assert report["results"]["wires"] == []
    assert report["results"]["note"] == "no M-wires"


def test_lift_all_wires_two(capsys):
    code, report = run_json(capsys, "lift", fixture_path("two.json"), "--all-wires")
    assert code == 0
    assert report["results"]["wire_count"] == 1
    entry = report["results"]["wires"][0]
    assert entry["is_m_wire"] and entry["ideal_system"]


def _chain_document(n):
    """A chain of n elements with the meet as product."""
    names = ["0", *(f"e{k}" for k in range(1, n - 1)), "1"]
    inner = names[1:-1]
    return {
        "elements": names,
        "order": {"covers": [[a, b] for a, b in zip(names, names[1:])]},
        "mul": [[a, b, inner[min(i, j)]] for i, a in enumerate(inner) for j, b in enumerate(inner) if i <= j],
        "top": "1",
        "bot": "0",
    }


@pytest.mark.parametrize("n, option", [
    (17, ["--all-wires"]),
    (17, ["--m-wires-only"]),
    (18, ["--wire", ",".join(_chain_document(18)["elements"])]),
])
def test_lift_past_a_cap_is_usage_error(capsys, tmp_path, n, option):
    path = tmp_path / f"chain{n}.json"
    path.write_text(json.dumps(_chain_document(n)))
    assert main(["check-lattice", str(path)]) == 0
    capsys.readouterr()
    assert main(["lift", str(path), *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exceeds" in captured.err


def test_lift_all_wires_on_a_seven_element_chain(capsys, tmp_path):
    # wires are enumerated up to the lift's powerset cap; in a chain every
    # element is join-irreducible, so the full carrier is its only wire
    path = tmp_path / "chain7.json"
    path.write_text(json.dumps(_chain_document(7)))
    code, report = run_json(capsys, "lift", str(path), "--all-wires")
    assert code == 0
    (entry,) = report["results"]["wires"]
    assert entry["is_m_wire"] and entry["ideal_system"] and entry["ideal_count"] == 7


@pytest.mark.parametrize("argv", [
    ["corpus", "--max-n", "abc"],
    ["quad", "verdict", "--d", "-5", "--bound", "1e5"],
    ["quad", "verdict"],
    ["no-such-command"],
    ["lift", fixture_path("l6.json")],
])
def test_argparse_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        main([flag])
    assert exit_.value.code == 0
    assert capsys.readouterr().out


def test_corpus_small(capsys):
    code, report = run_json(capsys, "corpus", "--max-n", "3")
    assert code == 0
    assert report["results"]["lattices"] == 4
    assert report["results"]["violations"] == []


def test_corpus_limit_caps_each_size(capsys):
    code, report = run_json(capsys, "corpus", "--max-n", "4", "--limit", "5")
    assert code == 0
    assert report["results"]["lattices"] == 1 + 1 + 2 + 5


def test_corpus_bad_max_n(capsys):
    assert main(["corpus", "--max-n", "9"]) == 2


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_corpus_limit_below_one_is_usage_error(capsys, limit):
    assert main(["corpus", "--max-n", "3", "--limit", limit]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _count_calls(monkeypatch, module, name, keys):
    """Wrap ``name`` wherever latlift binds it, recording each call's arguments."""
    original = getattr(module, name)

    def wrapper(*args):
        keys.append(args)
        return original(*args)

    for namespace in (latlift, cli, lattice, lifting, monoid):
        if vars(namespace).get(name) is original:
            monkeypatch.setattr(namespace, name, wrapper)


def test_corpus_lifts_each_wire_once(capsys, monkeypatch):
    # the corpus lifts each wire of each class representative once, and
    # the labelled total counts every copy of the class
    representative_wires = sum(len(list(latlift.enumerate_wires(lat)))
                               for n in range(1, 5) for lat, _ in latlift.enumerate_lattice_classes(n))
    assert representative_wires == 11
    lifts, weak, scans = [], [], []
    _count_calls(monkeypatch, lifting, "lift", lifts)
    _count_calls(monkeypatch, monoid, "verify_weak_ideal_system", weak)
    _count_calls(monkeypatch, monoid, "_scan_laws", scans)
    code, report = run_json(capsys, "corpus", "--max-n", "4")
    assert code == 0
    assert report["results"]["wires"] == 17
    assert len(lifts) == len(set(lifts)) == representative_wires
    tables = {(r.monoid, r.table) for (r,) in weak}
    assert len(weak) == len(tables) == representative_wires
    # ClosureMap.laws is each map's one cache: one law walk per wire
    assert len(scans) == len({(r.monoid, r.table) for (r,) in scans}) == representative_wires


def test_corpus_checks_each_lift_for_an_ideal_system_once(capsys, monkeypatch):
    lifts, ideal = [], []
    _count_calls(monkeypatch, lifting, "lift", lifts)
    _count_calls(monkeypatch, monoid, "verify_ideal_system", ideal)
    code, _ = run_json(capsys, "corpus", "--max-n", "5")
    assert code == 0
    assert len(ideal) == len(lifts) == 40


@pytest.mark.parametrize("max_n, lifts", [(5, 40), (6, 198)])
def test_corpus_scans_each_closure_map_once(capsys, monkeypatch, max_n, lifts):
    # every closure-map law is read from one law scan per lifted map
    scans = []
    _count_calls(monkeypatch, monoid, "_scan_laws", scans)
    assert main(["corpus", "--max-n", str(max_n)]) == 0
    capsys.readouterr()
    assert len(scans) == len({id(r) for (r,) in scans}) == lifts


def test_corpus_certifies_m_witnesses(capsys, monkeypatch):
    monkeypatch.setattr(lifting, "verify_m_witness", lambda lat, subset, witness: False)
    assert main(["corpus", "--max-n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle violation: (M) witness failed re-verification\n"


def test_corpus_limit_keeps_the_first_labelled_copies(capsys):
    # the labelled n = 4 stream runs through the classes' orbits in
    # enumeration order, each 2 copies long but the last; --limit 5 keeps
    # both copies of the first two classes and one of the third, whose
    # lattices have one wire each and no M-wire in the first two classes
    orbits = [orbit for _, orbit in latlift.enumerate_lattice_classes(4)]
    assert orbits == [2, 2, 2, 2, 2, 2, 1]
    code, limited = run_json(capsys, "corpus", "--max-n", "4", "--limit", "5")
    assert code == 0
    results = limited["results"]
    assert (results["lattices"], results["wires"], results["m_wires"]) == (1 + 1 + 2 + 5, 4 + 5, 4 + 1)
    assert limited["stats"]["classes"] == {"1": 1, "2": 1, "3": 2, "4": 3}
    assert limited["stats"]["sizes"]["4"]["lattices"] == 2 + 2 + 1
    _, unlimited = run_json(capsys, "corpus", "--max-n", "4")
    for limit in (13, 14, 1000):
        _, report = run_json(capsys, "corpus", "--max-n", "4", "--limit", str(limit))
        assert report["options"] == unlimited["options"] | {"limit": limit}
        assert report["results"] == unlimited["results"] | {"limit": limit}
        assert report["stats"]["classes"] == unlimited["stats"]["classes"]


@pytest.mark.parametrize("n", [4, 5])
def test_corpus_limit_counts_the_first_labelled_copies(capsys, monkeypatch, n):
    # a class is swept while fewer copies than the limit come before it,
    # and the size counts the first min(limit, total) labelled lattices;
    # each class is swept once across the runs, as only the limit varies
    monkeypatch.setattr(cli, "sweep_lattice", cache(cli.sweep_lattice))
    before = [0, *accumulate(orbit for _, orbit in latlift.enumerate_lattice_classes(n))]
    total = before.pop()
    for limit in range(1, total + 2):
        _, report = run_json(capsys, "corpus", "--max-n", str(n), "--limit", str(limit))
        assert report["stats"]["sizes"][str(n)]["lattices"] == min(limit, total)
        assert report["stats"]["classes"][str(n)] == sum(copies < limit for copies in before)


def test_corpus_sizes_sum_to_the_results(capsys):
    code, report = run_json(capsys, "corpus", "--max-n", "5")
    assert code == 0
    sizes = report["stats"]["sizes"]
    assert [(n, row["lattices"], row["violating"]) for n, row in sizes.items()] == [
        ("1", 1, 0), ("2", 1, 0), ("3", 2, 0), ("4", 13, 0), ("5", 147, 0)]
    for key in ("lattices", "wires", "m_wires"):
        assert sum(row[key] for row in sizes.values()) == report["results"][key]


def test_corpus_derives_the_lower_sets_once_per_bound_search(capsys, monkeypatch):
    # a FiniteLattice hands its cached lower sets to the bound search, so
    # the only other lower-set derivations are the enumerator's, one per
    # order it searches
    calls = {"_down_sets": 0, "_bounds": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(lattice, name, counting(name, getattr(lattice, name)))
    assert main(["corpus", "--max-n", "5"]) == 0
    capsys.readouterr()
    assert calls == {"_down_sets": 111, "_bounds": 111}


def test_corpus_makes_one_m_scan_per_wire(capsys, monkeypatch, l6):
    # lift checks only the four wire conditions and the liftability check
    # reads the principal-element wire's report from the sweep's wires, so
    # (M) is scanned once per wire of a class representative (40 at n <= 5),
    # and its witness is re-checked once per wire that fails it; the order
    # classes apply each relabelling once, up to the first smaller image
    scans, witnesses, relabellings = [], [], []
    _count_calls(monkeypatch, lifting, "_m_condition", scans)
    _count_calls(monkeypatch, lifting, "verify_m_witness", witnesses)
    _count_calls(monkeypatch, lattice, "_relabel_up", relabellings)
    assert main(["corpus", "--max-n", "5"]) == 0
    capsys.readouterr()
    assert (len(scans), len(witnesses)) == (40, 18)
    assert len(relabellings) <= 110
    scans.clear()
    lifting.lift(l6, l6.full)
    assert scans == []


def _sweep_finitary_fails(monkeypatch):
    """Make every lift read as not finitary."""
    monkeypatch.setattr(lifting, "verify_finitary", lambda r: monoid.Verdict(False))
    return "finitary_all"


def _sweep_compactness_fails(monkeypatch):
    classify = lifting.classify_element
    monkeypatch.setattr(lifting, "classify_element",
                        lambda lat, x: dataclasses.replace(classify(lat, x), compact=False))
    return "all_compact"


@pytest.mark.parametrize("break_sweep", [_sweep_finitary_fails, _sweep_compactness_fails])
def test_corpus_counts_failed_finitary_and_compactness_checks(capsys, monkeypatch, break_sweep):
    key = break_sweep(monkeypatch)
    code, report = run_json(capsys, "corpus", "--max-n", "3")
    assert code == 3
    violations = report["results"]["violations"]
    assert len(violations) == report["results"]["lattices"] == 4
    assert all(entry[key] is False and entry["equivalence_violations"] == [] for entry in violations)
    # the entry is the sweep's report between the class and its document,
    # in the report's field order (which the JSON output sorts away)
    keys = ["elements", "orbit", *(field.name for field in dataclasses.fields(lifting.SweepReport)), "lattice"]
    assert all(set(entry) == set(keys) for entry in violations)
    results, _ = cli.DISPATCH["corpus"](cli.build_parser().parse_args(["corpus", "--max-n", "3"]), {})
    assert [list(entry) for entry in results["violations"]] == [keys] * 4


def test_corpus_text_prints_one_violation_line_per_failing_class(capsys, monkeypatch):
    _sweep_finitary_fails(monkeypatch)
    code, out = run(capsys, "corpus", "--max-n", "3")
    assert code == 3
    lines = [line for line in out.splitlines() if line.startswith("VIOLATION: ")]
    assert len(lines) == 4
    assert all(ast.literal_eval(line.removeprefix("VIOLATION: "))["finitary_all"] is False for line in lines)


def test_corpus_violation_replays_through_lift(capsys, monkeypatch, tmp_path):
    # every lift reads as not an ideal system, so each lattice with an
    # M-wire is a violation, and lift must reproduce it from the document
    never_ideal = lambda r: monoid.Verdict(False)
    monkeypatch.setattr(lifting, "verify_ideal_system", never_ideal)
    code, report = run_json(capsys, "corpus", "--max-n", "4")
    assert code == 3
    violations = report["results"]["violations"]
    assert violations and all(entry["equivalence_violations"] for entry in violations)
    assert sum(row["violating"] for row in report["stats"]["sizes"].values()) == sum(
        entry["orbit"] for entry in violations) > len(violations)
    for k, entry in enumerate(violations):
        doc = tmp_path / f"violation{k}.json"
        doc.write_text(json.dumps(entry["lattice"]))
        assert main(["lift", str(doc), "--all-wires"]) == 3
        assert capsys.readouterr().err.startswith("oracle violation: ideal-system verdict disagrees")
    monkeypatch.undo()
    for k, entry in enumerate(violations):
        code, replayed = run_json(capsys, "lift", str(tmp_path / f"violation{k}.json"), "--all-wires")
        wires = replayed["results"]["wires"]
        assert code == 0 and len(wires) == entry["wires"]
        assert sum(w["is_m_wire"] for w in wires) == entry["m_wires"]
        assert sorted(w["wire"] for w in wires if w["is_m_wire"]) == sorted(
            names for names, is_m_wire, _ in entry["equivalence_violations"] if is_m_wire)


def _load_by_path(*parts):
    """Import a file of the repository outside the package, by its path."""
    spec = importlib.util.spec_from_file_location(
        parts[-1].removesuffix(".py"), Path(__file__).resolve().parent.parent.joinpath(*parts))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("break_sweep", [_sweep_finitary_fails, _sweep_compactness_fails])
def test_corpus_sweep_script_counts_failed_finitary_and_compactness_checks(capsys, monkeypatch,
                                                                           break_sweep):
    script = _load_by_path("scripts", "corpus_sweep.py")
    assert script.sweep(3, None) == 0
    break_sweep(monkeypatch)
    assert script.sweep(3, None) == 1
    assert capsys.readouterr().out.endswith("4 lattices with violations\n")


@pytest.mark.parametrize("argv", [["7"], ["4", "0"], ["4", "-1"], ["abc"]])
def test_corpus_sweep_script_usage_error_is_one_line(argv):
    script = Path(__file__).resolve().parent.parent / "scripts" / "corpus_sweep.py"
    proc = subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_every_traced_name_resolves():
    # the benchmark tracer looks each target up as it installs, so a traced
    # name removed from latlift fails every traced run
    tracer = _load_by_path("bench", "tracer.py")
    for name, home, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(home)
        *classes, attr = attr.split(".")
        for cls in classes:
            owner = vars(owner)[cls]
        assert attr in vars(owner), name


def test_quad_division_closure_counterexample(capsys):
    code, report = run_json(capsys, "quad", "division-closure", "--d", "-17", "--bound", "50")
    assert code == 1
    assert report["results"]["counterexample"] == [9, 18, 2]


def test_quad_verdict_consistent(capsys):
    code, report = run_json(capsys, "quad", "verdict", "--d", "-5", "--bound", "2000")
    assert code == 0
    assert report["results"]["verdict"] == "CONSISTENT-WITH-M-WIRE-UP-TO-BOUND"


def test_quad_norms(capsys):
    code, report = run_json(capsys, "quad", "norms", "--d", "-5", "--bound", "30")
    assert code == 0
    assert report["results"]["values"][:6] == [1, 4, 5, 6, 9, 14]


def test_quad_s_wire(capsys):
    code, report = run_json(capsys, "quad", "s-wire", "--d", "-5",
                            "--prime-bound", "50", "--search-bound", "100000")
    assert code == 0
    assert report["results"]["unresolved"] == []


@pytest.mark.parametrize("argv", [
    ["verdict", "--d", "-5", "--bound", "10000"],
    ["division-closure", "--d", "-5", "--bound", "10000"],
    ["s-wire", "--d", "-5", "--prime-bound", "30", "--search-bound", "10000"],
])
def test_quad_failed_reverification_is_oracle_exit(capsys, monkeypatch, argv):
    real_table = natquad._norm_table

    def table_with_a_non_norm(d, bound):
        table = bytearray(real_table(d, bound))
        table[2] = 1  # 2 is not of the form a^2 + 5 b^2
        return bytes(table)

    monkeypatch.setattr(natquad, "_norm_table", table_with_a_non_norm)
    assert main(["quad", *argv, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle violation: ") and captured.err.count("\n") == 1


HUGE_BOUND = "10000000000000"


@pytest.mark.parametrize("argv", [
    ["norms", "--bound", HUGE_BOUND],
    ["division-closure", "--bound", HUGE_BOUND],
    ["verdict", "--bound", HUGE_BOUND],
    ["s-wire", "--search-bound", HUGE_BOUND],
])
def test_quad_table_too_large_to_allocate_is_usage_error(capsys, monkeypatch, argv):
    def out_of_memory(d, bound):
        raise MemoryError

    monkeypatch.setattr(natquad, "_norm_table", out_of_memory)
    assert main(["quad", *argv, "--d", "-5", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bound {HUGE_BOUND} ") and captured.err.count("\n") == 1


def test_quad_prime_bound_too_large_to_sieve_is_usage_error(capsys):
    # no address space holds a sieve of 2^62 bytes, so its allocation fails
    # at once and touches no memory
    bound = str(2 ** 62)
    assert main(["quad", "s-wire", "--d", "-5", "--prime-bound", bound, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: prime bound {bound} ") and captured.err.count("\n") == 1


def test_quad_s_wire_builds_only_the_table_it_reads(capsys):
    # every prime up to 200 resolves in the first 2^16 values, so a search
    # bound far beyond memory needs no larger table
    code, report = run_json(capsys, "quad", "s-wire", "--d", "-5", "--search-bound", HUGE_BOUND)
    assert code == 0
    assert report["results"]["search_bound"] == int(HUGE_BOUND)
    assert report["results"]["unresolved"] == []


def test_quad_verdict_with_a_counterexample_builds_only_the_prefix_table(capsys):
    # (9, 18, 2) lies within the first 16 |d| values, so a bound far beyond
    # memory needs no full table
    code, report = run_json(capsys, "quad", "verdict", "--d", "-17", "--bound", HUGE_BOUND)
    assert code == 1
    assert report["results"]["bound"] == int(HUGE_BOUND)
    assert report["results"]["counterexample"] == [9, 18, 2]


def test_quad_verdict_with_a_counterexample_beyond_the_prefix_doubles_it(capsys):
    # (2209, 227527, 103) lies at 20.1 |d|, within the doubled prefix of
    # 32 |d| values, so a bound far beyond memory needs no full table
    code, report = run_json(capsys, "quad", "verdict", "--d", "-11302", "--bound", HUGE_BOUND)
    assert code == 1
    assert report["results"]["counterexample"] == [2209, 227527, 103]


@pytest.mark.parametrize("d", ["-5", "-1365", "-1"])
def test_quad_verdict_of_a_closed_image_builds_only_the_prefix_table(capsys, d):
    # an idoneal |d| is closed from its reduced forms and cross-checked in
    # the first 16 |d| values, so a bound far beyond memory needs no table
    code, report = run_json(capsys, "quad", "verdict", "--d", d, "--bound", HUGE_BOUND)
    assert code == 0
    assert report["results"]["verdict"] == "CONSISTENT-WITH-M-WIRE-UP-TO-BOUND"
    assert report["results"]["counterexample"] is None


@pytest.mark.parametrize("argv", [
    ["quad", "verdict", "--d", "-17", "--bound", "2000"],
    ["check-lattice", fixture_path("l6_broken.json")],
])
def test_json_payload_is_reproducible_without_stats(capsys, argv):
    payloads = []
    for _ in range(2):
        code, report = run_json(capsys, *argv)
        assert "elapsed_s" not in report
        assert isinstance(report.pop("stats")["elapsed_s"], float)
        payloads.append(json.dumps(report, indent=2, sort_keys=True).encode())
    assert payloads[0] == payloads[1]


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, expected", [
    (["quad", "norms", "--d", "-5", "--bound", "30"], 0),
    (["quad", "division-closure", "--d", "-17", "--bound", "50", "--format", "json"], 1),
])
@pytest.mark.filterwarnings("error")  # an unclosed devnull fails the test
def test_closed_stdout_keeps_the_verdict_exit_code(monkeypatch, argv, expected):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == expected


@pytest.mark.filterwarnings("error")
def test_closed_pipe_on_a_descriptor_leaves_no_descriptor_open(monkeypatch):
    # the lowest free descriptor, reused by the next open unless main leaks one
    probe = os.open(os.devnull, os.O_RDONLY)
    os.close(probe)
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["quad", "norms", "--d", "-5", "--bound", "30"]) == 0
    after = os.open(os.devnull, os.O_RDONLY)
    os.close(after)
    assert after == probe


def test_closed_pipe_gives_no_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "latlift.cli", "quad", "norms", "--d", "-5",
         "--bound", "200000", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()  # the one-line report is far larger than a pipe buffer
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_quad_invalid_d(capsys):
    assert main(["quad", "verdict", "--d", "-4"]) == 2


@pytest.mark.parametrize("check", ["s-wire", "norms", "verdict"])
def test_quad_huge_d_is_usage_error_before_the_squarefree_test(capsys, check):
    # trial division up to sqrt(10^30) would never finish
    assert main(["quad", check, "--d", str(-(10**30 + 2))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |d| must be at most ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["division-closure", "--d", "-17", "--bound", "5"],
    ["verdict", "--d", "-17", "--bound", "3"],
    ["norms", "--d", "-5", "--bound", "0"],
    ["s-wire", "--d", "-5", "--prime-bound", "1"],
    ["s-wire", "--d", "-5", "--search-bound", "0"],
])
def test_quad_bad_bound_is_usage_error(capsys, argv):
    assert main(["quad", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # each s-wire bound is named in its own message
    s_wire_messages = {"--prime-bound": "error: prime bound must be at least 2\n",
                       "--search-bound": "error: search bound must be positive\n"}
    if argv[0] == "s-wire":
        assert captured.err == s_wire_messages[argv[-2]]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


PARSE_CASES = [
    ["check-lattice", "l6.json"],
    ["check-lattice", "l6.json", "--format", "json"],
    ["lift", "l6.json", "--wire", "0,a,b,c,1"],
    ["lift", "l6.json", "--w", "0,1"],
    ["lift", "l6.json", "--all-wires", "--format=json"],
    ["lift", "l6.json", "--m-wires-only"],
    ["lift", "l6.json", "--wire", "0,1", "--all-wires"],
    ["lift", "l6.json"],
    ["corpus"],
    ["corpus", "--max", "3", "--limit", "-1"],
    ["corpus", "--max-n=5", "--format", "json", "--format", "text"],
    ["corpus", "--max-n", "abc"],
    ["quad", "verdict", "--d=-17"],
    ["quad", "verdict", "--d", "-17", "--bo", "50", "--format", "json"],
    ["quad", "s-wire", "--d", "-5", "--prime", "10", "--search-bound=-20"],
    ["quad", "norms", "--d", "-5", "--d", "-6"],
    ["quad", "--d", "-5", "--", "verdict"],
    ["quad", "verdict", "--", "--d", "-5"],
    ["quad", "verdict", "--d", "-5", "extra"],
    ["quad", "verdict", "--d", "-5", "--version"],
    ["quad", "verdict", "--d", "-5", "-h"],
    ["lift", "--help"],
    ["quad", "verdict"],
    ["quad", "verdict", "--d"],
    ["quad", "verdict", "--d", "-5", "--bound", "1e5"],
    ["quad", "nope", "--d", "-5"],
    ["quad", "norms", "--d", "-5", "--format", "xml"],
    ["check-lattice"],
    ["no-such-command"],
    [],
    ["--version"],
    ["--help"],
    ["--format", "json", "corpus"],
    ["quad", "verdict", "--d", "-5", "--=1"],
    ["corpus", "--", "--=x"],
]


def _parse_outcome(capsys, parse, argv):
    """What one parse gives: its namespace in order, or its exit code and output."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        return ("exit", exc.code, *capsys.readouterr())
    return ("parsed", list(vars(args).items()), *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_main_parses_like_the_full_parser(capsys, monkeypatch, argv):
    parser = cli.build_parser()
    expected = _parse_outcome(capsys, parser.parse_args, argv)
    full = []  # argv that reach the top-level pass

    def top_level(args):
        full.append(args)
        return argparse.ArgumentParser.parse_args(parser, args)

    monkeypatch.setattr(parser, "parse_args", top_level)
    assert _parse_outcome(capsys, cli._parse, argv) == expected
    # only argv that do not start with a command, or that hold "--=...", take it
    one_pass = bool(argv) and argv[0] in ("check-lattice", "lift", "corpus", "quad")
    assert bool(full) == (not one_pass or any(a.startswith("--=") for a in argv))


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main parses with one parser per process: no default, option or
    # group choice of an earlier call, and no failed parse, reaches the next
    parser = cli.build_parser()
    code, report = run_json(capsys, "quad", "verdict", "--d", "-5", "--bound", "50")
    assert code == 0 and report["options"]["bound"] == 50
    code, report = run_json(capsys, "quad", "norms", "--d", "-5")
    assert code == 0 and report["options"]["bound"] == 10000
    code, report = run_json(capsys, "lift", fixture_path("l6.json"), "--wire", "0,a,b,c,1")
    assert code == 0 and report["options"]["wire"] == "0,a,b,c,1"
    code, report = run_json(capsys, "lift", fixture_path("two.json"), "--all-wires")
    assert code == 0 and report["results"]["wire_count"] == 1
    assert report["options"] == {"path": fixture_path("two.json"), "wire": None,
                                 "all_wires": True, "m_wires_only": False}
    with pytest.raises(SystemExit) as exc:
        main(["lift", fixture_path("two.json"), "--wire", "0,1", "--all-wires"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    code, report = run_json(capsys, "lift", fixture_path("l6.json"), "--m-wires-only")
    assert code == 0 and report["results"]["note"] == "no M-wires"
    assert report["options"]["wire"] is None and not report["options"]["all_wires"]
    assert cli.build_parser() is parser


def test_text_format_smoke(capsys):
    code, out = run(capsys, "lift", fixture_path("l6.json"), "--wire", "0,a,b,c,1")
    assert code == 0
    assert "6 ideals" in out and "PASS" in out


@pytest.mark.parametrize("argv, lines", [
    (["lift", fixture_path("l6.json"), "--wire", "0,a,1"],
     [f"file: {fixture_path('l6.json')}", "not a wire: {0,a,1}"]),
    (["lift", fixture_path("l6.json"), "--m-wires-only"],
     [f"file: {fixture_path('l6.json')}", "no M-wires"]),
    (["quad", "s-wire", "--d", "-5", "--prime-bound", "12", "--search-bound", "1000"],
     ["d: -5", "check: s-wire", "prime_bound: 12", "search_bound: 1000", "unresolved: []",
      "p=   2  gcd_generated  [4, 6]", "p=   3  gcd_generated  [6, 9]", "p=   5  norm  [0, 1]",
      "p=   7  gcd_generated  [14, 21]", "p=  11  inert  "]),
], ids=["not-a-wire", "no-m-wires", "s-wire"])
def test_text_report_lines(capsys, argv, lines):
    _, out = run(capsys, *argv)
    assert out.splitlines()[1:-1] == lines


def test_text_lift_of_a_non_lattice_names_the_file_and_violations(capsys):
    path = fixture_path("l6_broken.json")
    code, out = run(capsys, "lift", path, "--all-wires")
    lines = out.splitlines()
    assert code == 1
    assert lines[1:-1] == [
        f"file: {path}",
        "violation: associativity at (a,a,d) ",
        "violation: distributivity at (a,b,c) a(b v c) != ab v ac",
    ]
    assert lines[-1].startswith("result: FAIL (") and lines[-1].endswith(", exit 1)")
