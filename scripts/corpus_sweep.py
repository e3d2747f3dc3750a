#!/usr/bin/env python3
"""Sweep the lattice corpus, one lattice per isomorphism class, and tabulate
per-size statistics.  Every verdict is invariant under relabelling, so the
labelled lattices, wires, M-wires and violating lattices are the classes'
counts weighted by the copies of each class that the limit keeps.

Usage: python scripts/corpus_sweep.py [max_n] [limit_per_n]
"""

import sys
import time

from latlift import enumerate_lattice_classes, sweep_lattice


def sweep(max_n: int, limit: int | None) -> int:
    bad = 0
    print(f"{'n':>2} {'classes':>8} {'lattices':>9} {'wires':>6} {'m-wires':>8} {'violations':>11} {'secs':>7}")
    for n in range(1, max_n + 1):
        started = time.perf_counter()
        classes = lattices = wires = m_wires = violations = 0
        for lat, _, kept in enumerate_lattice_classes(n, limit):
            classes += 1
            lattices += kept
            reports = equivalence, _, _ = sweep_lattice(lat)
            wires += kept * equivalence.wires_checked
            m_wires += kept * equivalence.m_wires
            if not all(report.ok for report in reports):
                violations += kept
        bad += violations
        print(f"{n:>2} {classes:>8} {lattices:>9} {wires:>6} {m_wires:>8} {violations:>11} "
              f"{time.perf_counter() - started:>7.2f}")
    print("all clean" if bad == 0 else f"{bad} lattices with violations")
    return 1 if bad else 0


if __name__ == "__main__":
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    limit = int(sys.argv[2]) if len(sys.argv) > 2 else None
    sys.exit(sweep(max_n, limit))
