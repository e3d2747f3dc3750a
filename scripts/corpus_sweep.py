#!/usr/bin/env python3
"""Run ``latlift corpus`` and tabulate its per-size statistics: classes
swept, labelled lattices, wires, M-wires, violating lattices and seconds.

Exit 0 when every lattice is clean and 1 when some lattice violates;
otherwise the CLI's exit code, with its one-line error on stderr (2 for a
usage error, such as a max_n outside 1..6 or a limit below 1).

Usage: python scripts/corpus_sweep.py [max_n] [limit_per_n]
"""

import contextlib
import io
import json
import sys

from latlift.cli import main


def sweep(max_n=5, limit=None) -> int:
    argv = ["corpus", "--max-n", str(max_n), "--format", "json"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if not out.getvalue():  # the CLI stopped before its report
        return code
    stats = json.loads(out.getvalue())["stats"]
    print(f"{'n':>2} {'classes':>8} {'lattices':>9} {'wires':>6} {'m-wires':>8} {'violations':>11} {'secs':>7}")
    for n, row in stats["sizes"].items():
        print(f"{n:>2} {stats['classes'][n]:>8} {row['lattices']:>9} {row['wires']:>6} {row['m_wires']:>8} "
              f"{row['violating']:>11} {row['elapsed_s']:>7.2f}")
    bad = sum(row["violating"] for row in stats["sizes"].values())
    print("all clean" if bad == 0 else f"{bad} lattices with violations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(sweep(*sys.argv[1:3]))
