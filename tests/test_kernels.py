"""The table kernels of the corpus path against the definitions they replace.

Each kernel reads precomputed rows or columns instead of evaluating its
definition element by element.  Every property here runs over every
labelled lattice with at most five elements, and over each wire's lift
(176 lifts); the lower sets and relabellings run over every lattice order
up to n = 6, the law scan also over the pair oracle's random tables, and
the law scan and the powerset tables also over a 16-element lift, at the
powerset cap.
``_order_classes`` has its reference in test_census.py.
"""

from functools import cache, reduce
from operator import or_

import pytest
from hypothesis import given, settings

from latlift import (
    TheoremViolation,
    Verdict,
    Violation,
    analyze_wire,
    enumerate_small_lattices,
    enumerate_wires,
    lift,
    subset_product,
    verify_ideal_system,
    verify_weak_ideal_system,
)
from latlift.bitset import bits, mask_from
from latlift.lattice import _down_sets, _lattice_orders, _relabel_up, _relabellings, _residuals
from latlift.lifting import _generates, _m_condition
from latlift.monoid import _check_product_interchange, _multiples
from latlift.verdicts import _Recorder

from conftest import product_lattice
from test_lifting import BOOLEAN4
from test_pair_oracle import tables


@cache
def lattices():
    return tuple(lat for n in range(1, 6) for lat in enumerate_small_lattices(n))


@cache
def lifts():
    return tuple((lat, report, lift(lat, report.subset))
                 for lat in lattices() for report in enumerate_wires(lat))


def test_the_corpora_are_complete():
    assert (len(lattices()), len(lifts())) == (164, 176)


def test_multiples_match_the_column_unions():
    # X*H = the union over c in H of c*X
    for _, _, result in lifts() + lifts_at_the_cap():
        mon = result.system.monoid
        assert _multiples(mon) == tuple(reduce(or_, column) for column in zip(*mon.element_maps))


def test_ideal_products_match_the_closed_subset_products():
    for _, _, result in lifts():
        r, il = result.system, result.ideal_lattice
        ideals, mul = il.ideals, il.lattice.mul
        for i, vi in enumerate(ideals):
            for j, vj in enumerate(ideals):
                assert ideals[mul[i][j]] == r.table[subset_product(r.monoid, vi, vj)]


def test_residual_columns_match_the_residuals():
    # on the enumerated lattices and on every lift's ideal lattice
    for lat in lattices() + tuple(result.ideal_lattice.lattice for _, _, result in lifts()):
        for x in range(lat.n):
            assert _residuals(lat, x) == [lat.residual(a, x) for a in range(lat.n)]


def test_generation_matches_the_joins_below_each_element():
    # a subset generates exactly when it holds every join-irreducible
    # element, so no join is taken per subset
    for lat in lattices():
        for mask in range(1 << lat.n):
            by_joins = all(lat.join_of(mask & down) == x for x, down in enumerate(lat.downs))
            assert _generates(lat, mask) == by_joins


def m_condition_by_definition(lat, elems):
    """The (M) scan with the preimage mask of t built for every (s, t)."""
    for s in elems:
        for t in elems:
            row = lat.mul[t]
            hits = mask_from(u for u in elems if row[u] == s)
            for a in range(lat.n):
                if lat.le(s, row[a]) and not hits & lat.downs[a]:
                    return False, (s, t, a)
    return True, None


def test_m_condition_matches_the_definition():
    for lat, report, _ in lifts():
        elems = list(bits(report.subset))
        assert _m_condition(lat, elems) == m_condition_by_definition(lat, elems)


def test_lower_sets_and_relabellings_match_the_bit_definitions():
    for n in range(1, 7):
        moves = _relabellings(0, n - 1, n)
        for up in _lattice_orders(n):
            assert _down_sets(up) == tuple(mask_from(i for i in range(n) if up[i] >> j & 1) for j in range(n))
            for old, new in moves:
                assert _relabel_up(up, old, new) == tuple(mask_from(new[j] for j in bits(up[i])) for i in old)


def weak_verdict_by_loops(r):
    """verify_weak_ideal_system before the law scan: its per-X loop, then
    the (s4) loop over c and then X."""
    mon, table = r.monoid, r.table
    record = _Recorder()
    multiples = _multiples(mon)
    sn = mon.subset_names
    for x in range(len(table)):
        tx = table[x]
        if x & ~tx:
            record("extensivity", (sn(x),), "X is not contained in r(X)")
        if multiples[x] & ~tx:
            record("s1", (sn(x),), "X*H is not contained in r(X)")
        if table[tx] != tx:
            record("s3", (sn(x),), "r is not idempotent")
        for i in range(mon.n):
            bit = 1 << i
            if not x & bit and tx & ~table[x | bit]:
                record("s2", (sn(x), sn(x | bit)), "r is not monotone")
                break
    for c, cmap in enumerate(mon.element_maps):
        for x in range(len(table)):
            if cmap[table[x]] & ~table[cmap[x]]:
                record("s4", (mon.names[c], sn(x)), "c*r(X) is not contained in r(c*X)")
                return record.verdict()
    return record.verdict()


def equality_by_loop(r):
    """The loop of verify_ideal_system before the law scan."""
    mon, table = r.monoid, r.table
    for c, cmap in enumerate(mon.element_maps):
        for x in range(len(table)):
            if cmap[table[x]] != table[cmap[x]]:
                return Verdict(False, (Violation(
                    "s4-equality", (mon.names[c], mon.subset_names(x)), "c*r(X) != r(c*X)"),))
    return Verdict(True)


def product_interchange_by_loops(r):
    """_check_product_interchange before the law scan: the message of the
    (P) or (U) failure it raises, or None."""
    mon, table = r.monoid, r.table
    for c, cmap in enumerate(mon.element_maps):
        closed = [table[xc] for xc in cmap]  # closed[X] = r(Xc)
        for x, rx in enumerate(table):
            if closed[rx] != closed[x]:
                return f"(P) r(Xc) != r(r(X)c) at X={mon.subset_names(x)} c={mon.names[c]}"
    for b in range(mon.n):
        bit = 1 << b
        for x, rx in enumerate(table):
            if table[rx | bit] != table[x | bit]:
                return f"(U) r(X|{{b}}) != r(r(X)|{{b}}) at X={mon.subset_names(x)} b={mon.names[b]}"
    return None


def assert_law_scan_matches_the_loops(r):
    # whole verdicts: laws, witnesses, details and their order
    assert verify_weak_ideal_system(r) == weak_verdict_by_loops(r)
    if verify_weak_ideal_system(r).passed:
        assert verify_ideal_system(r) == equality_by_loop(r)
    else:
        with pytest.raises(ValueError, match="^not a weak ideal system: "):
            verify_ideal_system(r)
    try:
        _check_product_interchange(r)
    except TheoremViolation as caught:
        assert str(caught) == product_interchange_by_loops(r)
    else:
        assert product_interchange_by_loops(r) is None


def test_law_scan_matches_the_loops_on_every_lift():
    # the 176 corpus lifts and the 16-element lift at the powerset cap
    for _, _, result in lifts() + lifts_at_the_cap():
        assert_law_scan_matches_the_loops(result.system)


@settings(max_examples=400, deadline=None)
@given(tables())
def test_law_scan_matches_the_loops_on_random_tables(r):
    assert_law_scan_matches_the_loops(r)


@cache
def lifts_at_the_cap():
    """The lift of the whole carrier of BOOLEAN4 x BOOLEAN4, which has 16 elements."""
    square = product_lattice(BOOLEAN4, BOOLEAN4)
    return ((square, analyze_wire(square, square.full), lift(square, square.full)),)


def test_element_maps_match_the_product_sets():
    for _, _, result in lifts() + lifts_at_the_cap():
        mon = result.system.monoid
        members = [list(bits(x)) for x in range(1 << mon.n)]
        for row, cmap in zip(mon.mul, mon.element_maps):
            assert cmap == tuple(mask_from(row[x] for x in xs) for xs in members)


def test_lift_tables_match_the_joins():
    # r(X) = cut[joins[X]] with cut[y] = H intersect [0, y], and y is the
    # join of cut[y] on a wire, so the table equals the cuts of join_of
    # exactly when the lift's joins table equals join_of
    for lat, report, result in lifts() + lifts_at_the_cap():
        elems = list(bits(report.subset))
        cut = [mask_from(k for k, e in enumerate(elems) if down >> e & 1) for down in lat.downs]
        assert result.system.table == tuple(
            cut[lat.join_of(mask_from(elems[k] for k in bits(x)))] for x in range(1 << len(elems)))
