"""Pin the exact JSON payloads of the CLI on the lattice fixtures, the
n <= 5 census and four quad checks: every key, value and list order, the
``stats`` block aside.

The golden files in ``tests/golden/`` hold ``--format json`` reports with
``stats`` dropped, written as ``json.dumps(report, indent=2,
sort_keys=True)``.  Fixture paths are given relative to the repository
root because the payload echoes them.
"""

import json
from pathlib import Path

import pytest

from latlift.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LATTICES = ("chain3", "chain3_nil", "l6", "l6_broken", "two")

CASES = {
    **{f"check-lattice_{name}": ["check-lattice", f"fixtures/{name}.json"] for name in LATTICES},
    **{f"lift-all-wires_{name}": ["lift", f"fixtures/{name}.json", "--all-wires"] for name in LATTICES},
    "corpus_max-n-5": ["corpus", "--max-n", "5"],
    "quad-verdict_d-17_bound-200000": ["quad", "verdict", "--d", "-17", "--bound", "200000"],
    "quad-division-closure_d-5_bound-200000": ["quad", "division-closure", "--d", "-5", "--bound", "200000"],
    "quad-s-wire_d-17_prime-bound-200_search-bound-100000":
        ["quad", "s-wire", "--d", "-17", "--prime-bound", "200", "--search-bound", "100000"],
    "quad-norms_d-6_bound-100": ["quad", "norms", "--d", "-6", "--bound", "100"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    code = main([*CASES[name], "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    del report["stats"]
    golden = (GOLDEN / f"{name}.json").read_text()
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden
    assert code == report["exit_code"]
