"""Draw the lift-n6 document pool and write it to bench/lift_n6_pool.json.

The pool is data, committed once, so that a later change to the order in
which latlift enumerates lattices cannot silently change the workload.
It was drawn as follows (and running this script again at the same code
reproduces the file byte for byte):

1. enumerate every labelled multiplicative lattice on 6 elements with
   ``latlift.enumerate_small_lattices(6)`` (2896 of them);
2. pick POOL_SIZE of their positions with ``random.Random(POOL_SEED)``;
3. write each picked lattice with this file's own lattice -> document
   writer and check that ``latlift.lattice_from_dict`` reads it back to an
   equal lattice;
4. pin its wire count, M-wire count and wire sizes from
   ``latlift.enumerate_wires``.

Usage: python3 bench/make_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
POOL_PATH = BENCH / "lift_n6_pool.json"
POOL_SEED = 2024
POOL_SIZE = 512
CARRIER = 6


def lattice_to_doc(lat) -> dict:
    """JSON document of a lattice in the format ``lattice_from_dict`` reads:
    Hasse covers for the order, and the products of inner elements (those
    with top or bot are implied by identity and annihilation)."""
    names, n = lat.names, lat.n
    covers = [[names[i], names[j]] for i in range(n) for j in range(n)
              if i != j and lat.le(i, j)
              and not any(k not in (i, j) and lat.le(i, k) and lat.le(k, j) for k in range(n))]
    inner = [x for x in range(n) if x not in (lat.bot, lat.top)]
    mul = [[names[x], names[y], names[lat.mul[x][y]]] for x in inner for y in inner if x <= y]
    return {"elements": list(names), "bot": names[lat.bot], "top": names[lat.top],
            "order": {"covers": covers}, "mul": mul}


def draw_pool(latlift) -> dict:
    lattices = list(latlift.enumerate_small_lattices(CARRIER))
    picked = sorted(random.Random(POOL_SEED).sample(range(len(lattices)), POOL_SIZE))
    docs = []
    for index in picked:
        lat = lattices[index]
        doc = lattice_to_doc(lat)
        if latlift.lattice_from_dict(doc) != lat:
            raise SystemExit(f"document of lattice {index} does not read back to the same lattice")
        reports = list(latlift.enumerate_wires(lat))
        docs.append({"index": index, "wire_count": len(reports),
                     "m_wire_count": sum(r.is_m_wire for r in reports),
                     "wire_sizes": [bin(r.subset).count("1") for r in reports], "doc": doc})
    return {
        "drawn": (f"positions {POOL_SIZE} of the {len(lattices)} lattices yielded by "
                  f"latlift.enumerate_small_lattices({CARRIER}), chosen by "
                  f"random.Random({POOL_SEED}).sample, ascending; wire counts and sizes "
                  f"from latlift.enumerate_wires; written by bench/make_pool.py"),
        "docs": docs,
    }


def main() -> None:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import latlift

    pool = draw_pool(latlift)
    lines = ",\n".join("  " + json.dumps(entry, separators=(",", ":")) for entry in pool["docs"])
    POOL_PATH.write_text(f'{{"drawn": {json.dumps(pool["drawn"])},\n"docs": [\n{lines}\n]}}\n')
    print(f"wrote {len(pool['docs'])} documents to {POOL_PATH}")


if __name__ == "__main__":
    main()
