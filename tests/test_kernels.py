"""The table kernels of the corpus path against the definitions they replace.

Each kernel reads precomputed rows or columns instead of evaluating its
definition element by element.  Every property here runs over every
labelled lattice with at most five elements, and over each wire's lift
(176 lifts); the lower sets and relabellings run over every lattice order
up to n = 6.  ``_order_classes`` has its reference in test_census.py.
"""

from functools import cache, reduce
from operator import or_

from latlift import enumerate_small_lattices, enumerate_wires, lift, subset_product
from latlift.bitset import bits, mask_from
from latlift.lattice import _down_sets, _lattice_orders, _relabel_up, _relabellings, _residuals
from latlift.lifting import _generates, _m_condition
from latlift.monoid import _multiples


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
    for _, _, result in lifts():
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
