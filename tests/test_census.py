"""The census by isomorphism class against the labelled enumerator.

The corpus sweeps one lattice per class and weights its counts by the
class's orbit.  That is sound only because every verdict it reports is
invariant under relabelling, which the first test checks on random
relabellings that move bot and top too.
"""

from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlift import (
    FiniteLattice,
    classify_element,
    enumerate_lattice_classes,
    enumerate_small_lattices,
    enumerate_wires,
    lift,
    sweep_lattice,
    verify_ideal_system,
    verify_lattice,
)
from latlift.bitset import bits, mask_from
from latlift.lattice import _lattice_orders, _order_classes, _relabel_up, _relabellings

from conftest import canonical_form, down_set_lattice
from test_lifting import posets

CLASSES = {1: 1, 2: 1, 3: 2, 4: 7, 5: 26}
ORDER_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}  # OEIS A006966


@cache
def labelled(n):
    return tuple(enumerate_small_lattices(n))


def relabelled(lat, perm):
    """lat with element i renamed to index perm[i]; names travel with their
    elements, so name-level answers must not change."""
    n = lat.n
    old = [0] * n
    for i, k in enumerate(perm):
        old[k] = i
    return FiniteLattice(
        tuple(lat.names[i] for i in old),
        tuple(mask_from(perm[j] for j in bits(lat.up[i])) for i in old),
        tuple(tuple(perm[lat.mul[i][j]] for j in old) for i in old),
        perm[lat.bot], perm[lat.top])


def verdicts(lat):
    """Every verdict the corpus reads, keyed by element names."""
    wires = {}
    for report in enumerate_wires(lat):
        result = lift(lat, report.subset)
        wires[frozenset(lat.subset_names(report.subset))] = (
            report.is_m_wire, verify_ideal_system(result.system).passed)
    sweep = sweep_lattice(lat)
    return {
        "wires": wires,
        "flags": {classify_element(lat, x) for x in range(lat.n)},
        # the violating wires' names are listed in label order, so only their count
        "sweep": (sweep.wires, sweep.m_wires, len(sweep.equivalence_violations),
                  sweep.finitary_all, sweep.all_compact, sweep.liftability_findings),
        "canonical_form": canonical_form(lat),
    }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_verdicts_are_invariant_under_relabelling(data):
    # a census lattice, or the down-set lattice of a poset (at most 7
    # elements, the cap of canonical_form)
    lat = data.draw(st.one_of(
        st.integers(1, 5).flatmap(lambda n: st.sampled_from(labelled(n))),
        posets().map(down_set_lattice).filter(lambda lat: lat.n <= 7)), label="lattice")
    perm = data.draw(st.permutations(range(lat.n)), label="perm")
    moved = relabelled(lat, perm)
    assert verify_lattice(moved).passed and (moved.bot, moved.top) == (perm[lat.bot], perm[lat.top])
    assert verdicts(moved) == verdicts(lat)


def test_class_and_order_class_counts():
    assert {n: len(list(enumerate_lattice_classes(n))) for n in CLASSES} == CLASSES
    assert {n: len(list(_order_classes(n))) for n in ORDER_CLASSES} == ORDER_CLASSES


def order_classes_by_all_images(n):
    """_order_classes by the definition: each order relabelled under every
    inner permutation, kept when it is the least image."""
    moves = _relabellings(0, n - 1, n)
    for up in _lattice_orders(n):
        images = [_relabel_up(up, old, new) for old, new in moves]
        if min(images) == up:
            yield up, [move for move, image in zip(moves, images) if image == up]


def test_order_classes_match_the_all_images_reference():
    for n in ORDER_CLASSES:
        assert list(_order_classes(n)) == list(order_classes_by_all_images(n))


@pytest.mark.parametrize("n", sorted(CLASSES))
def test_classes_partition_the_labelled_lattices(n):
    classes = list(enumerate_lattice_classes(n))
    # each representative is its class's canonical labelling
    forms = {(lat.up, lat.mul): orbit for lat, orbit in classes}
    assert len(forms) == len(classes)
    assert all(canonical_form(lat) == (lat.up, lat.mul) for lat, _ in classes)
    assert Counter(canonical_form(lat) for lat in labelled(n)) == forms


def test_orbit_weighted_census_matches_the_labelled_one():
    by_class = by_label = (0, 0, 0)
    for n in CLASSES:
        for lat, orbit in enumerate_lattice_classes(n):
            reports = list(enumerate_wires(lat))
            by_class = tuple(a + orbit * b for a, b in
                             zip(by_class, (1, len(reports), sum(r.is_m_wire for r in reports))))
        for lat in labelled(n):
            reports = list(enumerate_wires(lat))
            by_label = tuple(a + b for a, b in zip(by_label, (1, len(reports), sum(r.is_m_wire for r in reports))))
    assert by_class == by_label == (164, 176, 79)


def test_canonical_form_is_capped_at_seven_elements():
    def chain(n):
        return FiniteLattice(tuple(map(str, range(n))), tuple((1 << n) - (1 << i) for i in range(n)),
                             tuple(tuple(min(i, j) for j in range(n)) for i in range(n)), 0, n - 1)

    assert canonical_form(chain(7)) == canonical_form(relabelled(chain(7), (6, 3, 1, 5, 2, 4, 0)))
    with pytest.raises(ValueError):
        canonical_form(chain(8))
