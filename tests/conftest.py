from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from latlift import (
    ClosureMap,
    FiniteLattice,
    FiniteMonoid,
    analyze_wire,
    classify_element,
    enumerate_wires,
    is_domain,
    load_lattice,
)
from latlift.bitset import bits, mask_from
from latlift.lattice import _relabel_mul, _relabel_up, _relabellings
from latlift.monoid import _multiples

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def l6():
    return load_lattice(FIXTURES / "l6.json")


@pytest.fixture(scope="session")
def two():
    return load_lattice(FIXTURES / "two.json")


@pytest.fixture(scope="session")
def chain3():
    return load_lattice(FIXTURES / "chain3.json")


@pytest.fixture(scope="session")
def chain3_nil():
    return load_lattice(FIXTURES / "chain3_nil.json")


@pytest.fixture(scope="session")
def m3():
    return FiniteMonoid(("0", "x", "1"), ((0, 0, 0), (0, 1, 1), (0, 1, 2)), 2, 0)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def constant_closure(mon):
    """X -> H for every X (the coarsest closure)."""
    return ClosureMap(mon, (mon.full,) * (1 << mon.n))


def multiples_closure(mon):
    """X -> X*H, the set of all multiples of members of X."""
    return ClosureMap(mon, _multiples(mon))


def non_lattices():
    """Four carriers that are not lattices, for the tests of the lattice gate.

    loop: a and 1 lie below each other, so the order is not antisymmetric
    although every bound search finds an answer; vee: a and b have a meet
    but no join; wedge: every join exists, but a and b have no meet;
    misdeclared: the chain 0 < 1 with top declared as 0, so the declared
    top is not the greatest element although the order is a lattice."""
    loop = FiniteLattice(("0", "a", "1"), (0b001, 0b111, 0b111),
                         ((2, 0, 2), (0, 1, 1), (2, 0, 1)), 0, 2)
    vee = FiniteLattice(("0", "a", "b"), (0b111, 0b010, 0b100),
                        ((0, 0, 0), (0, 1, 0), (0, 0, 2)), 0, 1)
    wedge = FiniteLattice(("a", "b", "1"), (0b101, 0b110, 0b100),
                          ((0, 0, 0), (0, 1, 1), (0, 1, 2)), 0, 2)
    misdeclared = FiniteLattice(("0", "1"), (0b11, 0b10), ((0, 0), (0, 1)), 0, 0)
    return loop, vee, wedge, misdeclared


def canonical_form(lat):
    """(up, mul) of the least relabelling of lat that puts bot at 0 and top
    at n-1, least as a pair of tuples: equal exactly for isomorphic
    lattices, whatever the positions of their bot and top.

    Permutation search over the inner elements, so capped at 7 elements.
    """
    if lat.n > 7:
        raise ValueError("canonical form is capped at 7 elements")
    return min((_relabel_up(lat.up, old, new), _relabel_mul(lat.mul, old, new))
               for old, new in _relabellings(lat.bot, lat.top, lat.n))


def product_lattice(first, second):
    """first x second with the componentwise order and product: element
    (i, j) has index i * second.n + j and name "(x,y)"."""
    n2 = second.n
    pairs = [(i, j) for i in range(first.n) for j in range(n2)]
    return FiniteLattice(
        tuple(f"({first.names[i]},{second.names[j]})" for i, j in pairs),
        tuple(mask_from(k * n2 + l for k in bits(first.up[i]) for l in bits(second.up[j])) for i, j in pairs),
        tuple(tuple(first.mul[i][k] * n2 + second.mul[j][l] for k, l in pairs) for i, j in pairs),
        first.bot * n2 + second.bot, first.top * n2 + second.top)


def down_set_lattice(below):
    """The down-sets of a poset, ordered by inclusion, with meet
    (intersection) as the product.  below[i] is the mask of the points at
    or below point i.  The down-sets are indexed ascending by mask, so the
    empty one is bot and the whole poset top; each is named "{i,j,...}"."""
    downs = [d for d in range(1 << len(below)) if all(below[i] & ~d == 0 for i in bits(d))]
    index = {d: k for k, d in enumerate(downs)}
    return FiniteLattice(
        tuple("{" + ",".join(map(str, bits(d))) + "}" for d in downs),
        tuple(mask_from(k for k, e in enumerate(downs) if d & ~e == 0) for d in downs),
        tuple(tuple(index[d & e] for e in downs) for d in downs),
        0, len(downs) - 1)


def ideal_lattice_of_zn(n):
    """The ideals of Z/nZ.  Element "d", for each divisor d of n in
    ascending order, is the ideal (d): (d) <= (e) exactly when e | d, and
    (d)(e) = (gcd(de, n)).  So (1) is top and (n) = 0 is bot."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return FiniteLattice(
        tuple(map(str, divisors)),
        tuple(mask_from(j for j, e in enumerate(divisors) if d % e == 0) for d in divisors),
        tuple(tuple(divisors.index(gcd(d * e, n)) for e in divisors) for d in divisors),
        len(divisors) - 1, 0)


def liftability_facts(lat):
    """The facts the liftability implications read, from public functions:
    the meet principal, weak meet principal and principal element names,
    whether an M-wire exists, whether the lattice is a domain, and whether
    the meet principal respectively principal elements generate.  bot and
    top are always meet principal and principal, so adjoining them leaves
    the generation verdict of analyze_wire unchanged."""
    flags = [classify_element(lat, x) for x in range(lat.n)]
    mp, wmp, p = (mask_from(x for x in range(lat.n) if getattr(flags[x], flag))
                  for flag in ("meet_principal", "weak_meet_principal", "principal"))
    bounds = (1 << lat.bot) | (1 << lat.top)
    return SimpleNamespace(
        meet_principal=lat.subset_names(mp),
        weak_meet_principal=lat.subset_names(wmp),
        principal=lat.subset_names(p),
        m_wire_exists=any(report.is_m_wire for report in enumerate_wires(lat)),
        domain=is_domain(lat),
        mp_generates=analyze_wire(lat, mp | bounds).generates,
        p_generates=analyze_wire(lat, p | bounds).generates)
