"""The (P)/(U) scans of the pair oracle against the full 4^m pair scan.

``_check_product_interchange`` decides r(XY) = r(r(X)r(Y)) through two
m*2^m scans; its docstring proves that a table passing both also passes
the full scan over all pairs, for any table over a commutative monoid.
The converse does not hold on arbitrary tables (a table can pass the full
scan and fail (P) or (U)), so the property tested here is the implication,
plus agreement on every lifted wire, where both pass.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlift import ClosureMap, FiniteMonoid, TheoremViolation, enumerate_small_lattices, enumerate_wires, lift
from latlift.monoid import _check_product_interchange, subset_product


def full_pair_scan(r):
    """r(XY) = r(r(X)r(Y)) over every pair, the way build_ideal_lattice
    checked it before the reduced scans."""
    mon, table = r.monoid, r.table
    size = len(table)
    return all(table[subset_product(mon, x, y)] == table[subset_product(mon, table[x], table[y])]
               for x in range(size) for y in range(x, size))


def reduced_scans_pass(r):
    try:
        _check_product_interchange(r)
    except TheoremViolation:
        return False
    return True


@lru_cache(maxsize=None)
def lifted_systems():
    return tuple(lift(lat, rep.subset).system
                 for n in range(1, 6) for lat in enumerate_small_lattices(n)
                 for rep in enumerate_wires(lat))


def test_both_scans_pass_on_every_lifted_wire():
    systems = lifted_systems()
    assert len(systems) == 176
    for r in systems:
        assert reduced_scans_pass(r) and full_pair_scan(r)


@st.composite
def tables(draw):
    """A lifted monoid (up to 5 elements) with a table that is random,
    a closure onto a random intersection-closed family, or a lifted table
    with a few entries changed."""
    base = draw(st.sampled_from(lifted_systems()))
    mon, size = base.monoid, len(base.table)
    entry = st.integers(0, mon.full)
    kind = draw(st.sampled_from(("random", "moore", "perturbed")))
    if kind == "random":
        table = draw(st.lists(entry, min_size=size, max_size=size))
    elif kind == "moore":
        family = draw(st.lists(entry, max_size=6)) + [mon.full]
        table = [0] * size
        for x in range(size):
            closed = mon.full
            for v in family:
                if x & ~v == 0:
                    closed &= v
            table[x] = closed
    else:
        table = list(base.table)
        for x, v in draw(st.lists(st.tuples(st.integers(0, size - 1), entry), min_size=1, max_size=3)):
            table[x] = v
    return ClosureMap(mon, tuple(table))


@settings(max_examples=400, deadline=None)
@given(tables())
def test_reduced_scans_imply_the_full_scan(r):
    if reduced_scans_pass(r):
        assert full_pair_scan(r)


def chain_monoid(n):
    """The n-element chain under min, with n-1 as one and 0 as zero."""
    return FiniteMonoid(tuple(map(str, range(n))),
                        tuple(tuple(min(i, j) for j in range(n)) for i in range(n)), n - 1, 0)


def test_pair_oracle_raises_on_a_ten_element_table_that_breaks_u():
    # the identity map except r({5}) = {5, 6}: (P) holds, since for c < 5
    # both {5}c and r({5})c are {c}, and otherwise both close to {5, 6};
    # but r({0, 5}) = {0, 5} while r(r({5}) | {0}) = r({0, 5, 6}) = {0, 5, 6}
    mon = chain_monoid(10)
    table = list(range(1 << 10))
    table[1 << 5] = 1 << 5 | 1 << 6
    with pytest.raises(TheoremViolation, match=r"^\(U\) .* at X=\('5',\) b=0$"):
        _check_product_interchange(ClosureMap(mon, tuple(table)))


def test_pair_oracle_names_p_on_a_table_that_breaks_it():
    # the identity map except r({2}) = {0, 2} on the 3-chain under min:
    # r({2} * {1}) = r({1}) = {1} but r(r({2}) * {1}) = r({0, 1}) = {0, 1}
    table = list(range(8))
    table[0b100] = 0b101
    with pytest.raises(TheoremViolation, match=r"^\(P\) .* at X=\('2',\) c=1$"):
        _check_product_interchange(ClosureMap(chain_monoid(3), tuple(table)))
