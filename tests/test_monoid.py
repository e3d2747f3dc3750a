import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlift import (
    ClosureMap,
    FiniteLattice,
    FiniteMonoid,
    LoadError,
    TheoremViolation,
    Verdict,
    build_ideal_lattice,
    enumerate_lattice_classes,
    enumerate_small_lattices,
    enumerate_wires,
    lift,
    subset_product,
    verify_finitary,
    verify_ideal_system,
    verify_lattice,
    verify_weak_ideal_system,
)
from latlift.bitset import bits, mask_from

from conftest import constant_closure, multiples_closure


@pytest.mark.parametrize("names, mul, one, message", [
    (("0", "0"), ((0, 0), (0, 1)), 1, "element names are not distinct"),
    (("0", "1"), ((0, 0),), 1, "multiplication table dimensions"),
    (("0", "1"), ((0, 0), (0, 2)), 1, "unknown index"),
    (("0", "1"), ((0, 0), (0, 1)), 2, "one/zero index out of range"),
])
def test_lattice_and_monoid_share_the_shape_check(names, mul, one, message):
    with pytest.raises(LoadError, match=message):
        FiniteMonoid(names, mul, one, 0)
    with pytest.raises(LoadError, match=message):
        FiniteLattice(names, (0b11, 0b10), mul, 0, one)


CHAIN17 = FiniteMonoid(tuple(map(str, range(17))),
                       tuple(tuple(min(i, j) for j in range(17)) for i in range(17)), 16, 0)


@pytest.mark.parametrize("error, build, message", [
    (LoadError, lambda: FiniteLattice((), (), (), 0, 0), "carrier size 0 outside 1..64"),
    (LoadError, lambda: FiniteLattice(("0", "1"), (0b11,), ((0, 0), (0, 1)), 0, 1),
     "order table dimensions do not match the carrier"),
    (LoadError, lambda: FiniteLattice(("0", "1"), (0b111, 0b10), ((0, 0), (0, 1)), 0, 1),
     "order mask references an unknown element"),
    (LoadError, lambda: FiniteMonoid((), (), 0, 0), "monoid carrier is empty"),
    (ValueError, lambda: ClosureMap(CHAIN17, ()), "carrier size 17 exceeds powerset cap 16"),
    (ValueError, lambda: next(enumerate_lattice_classes(7)), "enumeration is capped at 6 elements"),
])
def test_constructors_reject_carriers_outside_their_caps(error, build, message):
    with pytest.raises(error, match=message):
        build()


def test_subset_product(m3):
    x_and_one = mask_from((1, 2))
    assert subset_product(m3, x_and_one, x_and_one) == mask_from((1, 2))
    assert subset_product(m3, 1 << 0, m3.full) == 1 << 0
    assert subset_product(m3, 0, m3.full) == 0


def brute_subset_product(mon, xm, ym):
    return mask_from(mon.mul[x][y] for x in bits(xm) for y in bits(ym))


def test_subset_product_agrees_with_pairwise_definition(m3):
    monoids = [m3] + [lift(lat, rep.subset).system.monoid
                      for n in range(1, 6) for lat in enumerate_small_lattices(n)
                      for rep in enumerate_wires(lat)]
    for mon in monoids:
        size = 1 << mon.n
        for x in range(size):
            for y in range(size):
                assert subset_product(mon, x, y) == brute_subset_product(mon, x, y)


def test_subset_product_above_the_powerset_cap_raises():
    # the 17-element chain under min has no element maps, and so no product
    with pytest.raises(ValueError, match="exceeds powerset cap 16"):
        subset_product(CHAIN17, 1, 1)


def test_multiples_closure_is_weak_system(m3):
    r = multiples_closure(m3)
    verdict = verify_weak_ideal_system(r)
    assert verdict.passed
    # idempotency holds because H*H = H when the identity is present
    for x in range(1 << m3.n):
        assert r.table[r.table[x]] == r.table[x]


def test_constant_closure_weak_but_not_ideal(m3):
    r = constant_closure(m3)
    assert verify_weak_ideal_system(r).passed
    verdict = verify_ideal_system(r)
    assert not verdict.passed
    # witness: c = 0 sends the full ideal to {0}, but r(0*X) is still H
    assert verdict.violations[0].law == "s4-equality"


def test_verify_ideal_system_rejects_non_weak(m3):
    table = [0] * (1 << m3.n)  # constant-empty map is not extensive
    r = ClosureMap(m3, tuple(table))
    assert not verify_weak_ideal_system(r).passed
    with pytest.raises(ValueError):
        verify_ideal_system(r)
    with pytest.raises(ValueError):
        verify_finitary(r)
    with pytest.raises(ValueError):
        build_ideal_lattice(r)


def test_weak_verdict_names_broken_axiom(m3):
    size = 1 << m3.n
    # extensive and monotone but not idempotent: close adds x once
    table = []
    for mask in range(size):
        out = mask
        if mask and not mask >> 1 & 1:
            out |= 1 << 0
        table.append(out)
    r = ClosureMap(m3, tuple(table))
    verdict = verify_weak_ideal_system(r)
    assert not verdict.passed
    assert "s3" in verdict.laws or "s1" in verdict.laws


def test_closure_map_shape_validation(m3):
    with pytest.raises(LoadError):
        ClosureMap(m3, (0,) * 3)
    with pytest.raises(LoadError):
        ClosureMap(m3, (1 << 7,) * (1 << m3.n))


def test_build_ideal_lattice_constant(m3):
    il = build_ideal_lattice(constant_closure(m3))
    assert len(il.ideals) == 1
    assert il.lattice.bot == il.lattice.top


def test_build_ideal_lattice_two_chain(two):
    res = lift(two, two.full)
    il = res.ideal_lattice
    assert len(il.ideals) == 2
    assert il.members(0) == ("0",)
    assert il.members(1) == ("0", "1")


def test_ideal_lattice_verifies_and_has_bounds(l6):
    h = mask_from(l6.index(n) for n in ("0", "a", "b", "c", "1"))
    il = lift(l6, h).ideal_lattice
    assert verify_lattice(il.lattice).passed
    lat = il.lattice
    # H is the multiplicative identity, the closure of {} the annihilator
    for i in range(lat.n):
        assert lat.mul[lat.top][i] == i
        assert lat.mul[lat.bot][i] == lat.bot


def test_intersections_of_ideals_stay_ideals(l6, m3):
    h = mask_from(l6.index(n) for n in ("0", "a", "b", "c", "1"))
    for r in (lift(l6, h).system, multiples_closure(m3)):
        ideals = set(r.ideals())
        for a in ideals:
            for b in ideals:
                assert a & b in ideals


def test_product_closure_interchange(l6, m3):
    # r(XY) == r(r(X) r(Y)) over the full powerset
    h = mask_from(l6.index(n) for n in ("0", "a", "b", "c", "1"))
    for r in (lift(l6, h).system, multiples_closure(m3), constant_closure(m3)):
        mon, t = r.monoid, r.table
        for x in range(1 << mon.n):
            for y in range(x, 1 << mon.n):
                assert t[subset_product(mon, x, y)] == t[subset_product(mon, t[x], t[y])]


def test_finitary_degenerate_on_finite_carriers(l6, m3):
    h = mask_from(l6.index(n) for n in ("0", "a", "b", "c", "1"))
    for r in (lift(l6, h).system, multiples_closure(m3), constant_closure(m3)):
        verdict = verify_finitary(r)
        assert verdict.passed


def finitary_by_recurrence(r):
    """(s5) as a scan, the way verify_finitary decided it before it read the
    weak verdict: acc[X] is r(X) joined with acc of each maximal proper
    subset of X, and (s5) fails where acc[X] != r(X)."""
    verdict = r.weak_verdict
    if not verdict.passed:
        raise ValueError("not a weak ideal system: " + ", ".join(verdict.laws))
    return Verdict(recurrence_passes(r.table))


def recurrence_passes(table):
    acc = list(table)
    for x in range(len(table)):
        for i in bits(x):
            acc[x] |= acc[x & ~(1 << i)]
        if acc[x] != table[x]:
            return False
    return True


def finitary_outcome(check, r):
    try:
        return check(r).passed
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500)
@given(st.lists(st.integers(0, 7), min_size=8, max_size=8))
def test_finitary_matches_the_recurrence_on_random_maps(m3, table):
    r = ClosureMap(m3, tuple(table))
    assert finitary_outcome(verify_finitary, r) == finitary_outcome(finitary_by_recurrence, r)
    # the reduction in verify_finitary's docstring, on any map at all: the
    # recurrence fails exactly where the single-element (s2) scan does
    assert recurrence_passes(r.table) == ("s2" not in verify_weak_ideal_system(r).laws)


def test_finitary_matches_the_recurrence_on_lifted_wires():
    for n in range(1, 5):
        for lat in enumerate_small_lattices(n):
            for rep in enumerate_wires(lat):
                r = lift(lat, rep.subset).system
                assert finitary_outcome(verify_finitary, r) is True
                assert finitary_outcome(finitary_by_recurrence, r) is True


def test_build_rejects_broken_meet_closure(m3):
    # hand-built map whose image is not intersection-closed: closed sets
    # {0}, {x} but not {}; the map is not a weak ideal system, so a passing
    # verdict is planted to reach the check
    size = 1 << m3.n
    table = list(range(size))
    table[0] = 1 << 1
    r = ClosureMap(m3, tuple(table))
    r.__dict__["weak_verdict"] = Verdict(True)
    with pytest.raises(TheoremViolation,
                       match=r"^intersection of r-ideals escaped the image: \('0',\) and \('x',\)$"):
        build_ideal_lattice(r)


def test_build_rejects_an_image_without_h(m3):
    # every subset goes to {}, with a passing verdict planted
    r = ClosureMap(m3, (0,) * (1 << m3.n))
    r.__dict__["weak_verdict"] = Verdict(True)
    with pytest.raises(TheoremViolation, match=r"^r\(H\) must be H for an extensive map$"):
        build_ideal_lattice(r)


def test_build_rejects_ideals_that_are_not_a_multiplicative_lattice(m3):
    # the image {}, {0}, H is a chain, but r({0}) = {}, so the product of H
    # and {0} closes to {} and H is no unit; a passing verdict is planted
    # to reach the check
    r = ClosureMap(m3, (0, 0, 0, 0, 0, 0, 1, 7))
    r.__dict__["weak_verdict"] = Verdict(True)
    with pytest.raises(TheoremViolation, match="^r-ideals do not form a multiplicative lattice: "
                                               "Violation\\(law='identity'"):
        build_ideal_lattice(r)


def test_build_rejects_a_join_that_differs_from_closing_the_union(m3):
    # the image {}, {x}, {0, x, 1} of this map is a chain, so the join of
    # {} and {x} is {x}, but r({} | {x}) = r({x}) = {}; the map is not a
    # weak ideal system, so a passing verdict is planted to reach the check
    r = ClosureMap(m3, (0, 0, 0, 2, 7, 2, 7, 7))
    r.__dict__["weak_verdict"] = Verdict(True)
    with pytest.raises(TheoremViolation, match="^join of ideals differs from closing the union$"):
        build_ideal_lattice(r)


@pytest.mark.parametrize("table, message", [
    # r({x}) = {x} but r({1}) = {}: the principal closures of x and 1
    # multiply to {}, while x 1 = x
    ((0, 0, 2, 2, 0, 0, 0, 7), "principal closures are not closed under products"),
    # every proper subset goes to {}, so no principal closure reaches H
    ((0, 0, 0, 0, 0, 0, 0, 7), "principal closures fail to generate the ideal lattice"),
])
def test_build_rejects_principal_closures_that_break_the_ideal_lattice(m3, table, message):
    # on a weak ideal system the principal closures generate, by
    # extensivity and (s2), and multiply as the elements do, by (P) and (U);
    # so an empty law walk is planted, passing the weak verdict and the
    # product interchange together
    r = ClosureMap(m3, table)
    r.__dict__["laws"] = {}
    with pytest.raises(TheoremViolation, match=f"^{message}$"):
        build_ideal_lattice(r)
