from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latlift import (
    ClosureMap,
    FiniteLattice,
    LatticeWork,
    TheoremViolation,
    WireError,
    analyze_wire,
    build_ideal_lattice,
    check_finitary_embedding,
    check_liftability,
    check_m_wire_ideal_equivalence,
    classify_element,
    enumerate_lattice_classes,
    enumerate_small_lattices,
    enumerate_wires,
    lift,
    load_lattice,
    sweep_lattice,
    verify_finitary,
    verify_ideal_system,
    verify_lattice,
    verify_weak_ideal_system,
)
from latlift import lifting
from latlift.bitset import bits, mask_from
from latlift.cli import main
from latlift.lifting import _certify_isomorphism, verify_m_witness

from conftest import FIXTURES, down_set_lattice, ideal_lattice_of_zn, liftability_facts, non_lattices, product_lattice

L6_IDEALS = {
    frozenset("0"),
    frozenset("0a"),
    frozenset("0ab"),
    frozenset("0ac"),
    frozenset("0abc"),
    frozenset("0abc1"),
}


def wire_mask(lat, names):
    return mask_from(lat.index(n) for n in names)


def test_analyze_wire_l6(l6):
    h = wire_mask(l6, "0abc1")
    rep = analyze_wire(l6, h)
    assert rep.is_wire and rep.contains_one and rep.contains_zero
    assert rep.mult_closed and rep.generates
    assert not rep.is_m_wire
    assert tuple(l6.names[i] for i in rep.m_witness) == ("a", "b", "1")
    assert verify_m_witness(l6, h, rep.m_witness)


def test_analyze_wire_full_carrier(l6, two, chain3):
    for lat in (l6, two, chain3):
        assert analyze_wire(lat, lat.full).is_wire


def test_analyze_wire_generation_failure(l6):
    rep = analyze_wire(l6, wire_mask(l6, "0a1"))
    assert not rep.generates and not rep.is_wire
    # b is join-irreducible, so it is only generated by itself
    b = l6.index("b")
    assert l6.join_of(wire_mask(l6, "0a1") & l6.downs[b]) == l6.index("a")


def test_wirereport_invariants_over_all_subsets(l6):
    for subset in range(1 << l6.n):
        rep = analyze_wire(l6, subset)
        assert rep.is_wire == (rep.contains_one and rep.contains_zero
                               and rep.mult_closed and rep.generates)
        assert (rep.m_witness is not None) == (rep.is_wire and not rep.is_m_wire)
        if rep.is_m_wire:
            assert rep.is_wire


def test_enumerate_wires_l6(l6):
    wires = [rep.subset for rep in enumerate_wires(l6)]
    assert wires == [wire_mask(l6, "0abc1"), l6.full]
    assert [rep for rep in enumerate_wires(l6) if rep.is_m_wire] == []


def test_enumerate_wires_two(two):
    wires = list(enumerate_wires(two))
    assert len(wires) == 1
    assert wires[0].is_m_wire


def test_lift_l6_reproduces_ideals(l6):
    res = lift(l6, wire_mask(l6, "0abc1"))
    assert {frozenset(m) for m in res.ideal_members()} == L6_IDEALS
    assert verify_weak_ideal_system(res.system).passed
    assert not verify_ideal_system(res.system).passed


def test_lift_full_carrier_is_interval_map(l6):
    res = lift(l6, l6.full)
    # g sends y to its whole lower set
    for y in range(l6.n):
        ideal = res.ideal_lattice.ideals[res.iso_g[y]]
        assert ideal == l6.downs[y]


def test_lift_chain3_gives_ideal_system(chain3):
    res = lift(chain3, chain3.full)
    assert verify_ideal_system(res.system).passed
    rep = analyze_wire(chain3, chain3.full)
    assert rep.is_m_wire


def test_lift_rejects_non_wire(l6):
    with pytest.raises(WireError):
        lift(l6, wire_mask(l6, "0a1"))


WIRE_CONDITIONS = ("missing top", "missing bot", "not multiplicatively closed",
                   "does not generate the lattice")


def failed_wire_conditions(lat, subset):
    """The wire conditions analyze_wire finds failed, in the WireError's order."""
    report = analyze_wire(lat, subset)
    held = (report.contains_one, report.contains_zero, report.mult_closed, report.generates)
    return [name for name, ok in zip(WIRE_CONDITIONS, held) if not ok]


def small(names, up, mul):
    return FiniteLattice(tuple(names), up, mul, 0, len(names) - 1)


# 0 < a, b < 1 with idempotent a and b: {0, a, b} lacks only the top
BOOLEAN4 = small("0ab1", (15, 10, 12, 8), ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)))
# 0 < a, d < b < c < 1 with c*c = b and every other inner product 0:
# {0, a, c, d, 1} generates (b = a v d) but c*c falls outside it
SQUARE_ESCAPES = small("0abcd1", (63, 46, 44, 40, 60, 32),
                       ((0,) * 6, (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2),
                        (0, 0, 0, 2, 0, 3), (0, 0, 0, 0, 0, 4), (0, 1, 2, 3, 4, 5)))


def test_wire_error_names_each_failed_condition(l6, two, chain3_nil):
    cases = [
        (BOOLEAN4, "0ab", "subset {0,a,b} is not a wire: missing top"),
        (two, "1", "subset {1} is not a wire: missing bot"),
        (SQUARE_ESCAPES, "0acd1", "subset {0,a,c,d,1} is not a wire: not multiplicatively closed"),
        (l6, "0a1", "subset {0,a,1} is not a wire: does not generate the lattice"),
        (chain3_nil, "x", "subset {x} is not a wire: missing top; missing bot; "
                          "not multiplicatively closed; does not generate the lattice"),
    ]
    for lat, subset, message in cases:
        assert verify_lattice(lat).passed
        with pytest.raises(WireError) as caught:
            lift(lat, wire_mask(lat, subset))
        assert str(caught.value) == message


def test_wire_error_lists_exactly_the_failed_conditions(l6, two, chain3, chain3_nil):
    # every subset of every lattice with at most 4 elements and of the
    # fixtures: lift succeeds on the wires and names every failed
    # condition of the others, and nothing else
    lattices = [l6, two, chain3, chain3_nil, BOOLEAN4, SQUARE_ESCAPES]
    lattices += [lat for n in range(1, 5) for lat in enumerate_small_lattices(n)]
    for lat in lattices:
        for subset in range(1 << lat.n):
            failed = failed_wire_conditions(lat, subset)
            if not failed:
                lift(lat, subset)
                continue
            with pytest.raises(WireError) as caught:
                lift(lat, subset)
            names = ",".join(lat.subset_names(subset))
            assert str(caught.value) == f"subset {{{names}}} is not a wire: " + "; ".join(failed)


def test_lift_checks_the_subset_then_the_wire_then_the_cap(l6):
    with pytest.raises(ValueError, match="^subset lies outside the carrier$"):
        lift(l6, 1 << l6.n)
    big = chain(18)
    with pytest.raises(WireError, match="missing bot$"):
        lift(big, big.full & ~(1 << big.bot))  # 17 members, past the cap
    with pytest.raises(ValueError, match="^wire size 18 exceeds powerset cap 16$"):
        lift(big, big.full)


def test_lift_rejects_a_non_lattice():
    for carrier in non_lattices():
        with pytest.raises(ValueError, match="^carrier is not a lattice$"):
            lift(carrier, carrier.full)


def test_generation_identity_for_wires(l6):
    # join(H n [0, join(X)]) == join(X) for every X inside a wire
    for rep in enumerate_wires(l6):
        h = rep.subset
        members = list(bits(h))
        for pick in range(1 << len(members)):
            x = mask_from(members[i] for i in bits(pick))
            v = l6.join_of(x)
            assert l6.join_of(h & l6.downs[v]) == v


def test_products_shrink_below_factors(l6, chain3):
    # h*x <= x whenever h <= top, by join distributivity
    for lat in (l6, chain3):
        for h in range(lat.n):
            for x in range(lat.n):
                assert lat.le(lat.mul[h][x], x)


def test_iso_maps_are_monotone_both_ways(l6):
    res = lift(l6, wire_mask(l6, "0abc1"))
    il = res.ideal_lattice
    k = len(il.ideals)
    for i in range(k):
        for j in range(k):
            inc = il.ideals[i] & ~il.ideals[j] == 0
            assert inc == l6.le(res.iso_f[i], res.iso_f[j])
    for x in range(l6.n):
        for y in range(l6.n):
            if l6.le(x, y):
                gi, gj = res.iso_g[x], res.iso_g[y]
                assert il.ideals[gi] & ~il.ideals[gj] == 0


def test_certificate_rejects_maps_with_two_entries_swapped(l6, chain3):
    for lat, names in ((l6, "0abc1"), (l6, "0abc1d"), (chain3, "0x1")):
        res = lift(lat, wire_mask(lat, names))
        il, f, g = res.ideal_lattice, res.iso_f, res.iso_g
        _certify_isomorphism(lat, il, f, g)
        for i in range(len(f)):
            for j in range(i + 1, len(f)):
                swapped = list(f)
                swapped[i], swapped[j] = f[j], f[i]
                with pytest.raises(TheoremViolation):
                    _certify_isomorphism(lat, il, tuple(swapped), g)
                swapped = list(g)
                swapped[i], swapped[j] = g[j], g[i]
                with pytest.raises(TheoremViolation):
                    _certify_isomorphism(lat, il, f, tuple(swapped))


def test_certificate_rejects_f_o_g_off_the_identity(chain3, two):
    # f and g are inverse on the two ideals of two's lift, but f o g sends
    # chain3's middle element x to 0
    il = lift(two, two.full).ideal_lattice
    with pytest.raises(TheoremViolation, match="f o g is not the identity on the lattice"):
        _certify_isomorphism(chain3, il, (0, 2), (0, 0, 1))


def test_certificate_rejects_a_product_automorphism_that_breaks_the_order():
    # the chain 0 < a < b < 1 on which every product of two non-top elements
    # is 0: swapping a and b keeps the product but not the order
    chain4 = FiniteLattice(("0", "a", "b", "1"), (0b1111, 0b1110, 0b1100, 0b1000),
                           tuple(tuple(y if x == 3 else x if y == 3 else 0 for y in range(4))
                                 for x in range(4)), 0, 3)
    assert verify_lattice(chain4).passed
    res = lift(chain4, chain4.full)
    swap = (0, 2, 1, 3)
    f = tuple(swap[y] for y in res.iso_f)
    g = tuple(res.iso_g[swap[y]] for y in range(4))
    with pytest.raises(TheoremViolation, match="f does not preserve and reflect the order"):
        _certify_isomorphism(chain4, res.ideal_lattice, f, g)


def test_lift_reraises_a_failed_certificate_on_a_multiplicative_lattice(l6, monkeypatch, capsys):
    def fail(lat, il, f, g):
        raise TheoremViolation("f is not multiplicative")
    monkeypatch.setattr(lifting, "_certify_isomorphism", fail)
    with pytest.raises(TheoremViolation, match="f is not multiplicative"):
        lift(l6, l6.full)
    assert main(["lift", str(FIXTURES / "l6.json"), "--all-wires"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle violation: f is not multiplicative\n"


def test_lift_rejects_a_cut_outside_the_ideal_lattice(l6, monkeypatch):
    # an ideal lattice that misses its largest ideal, H itself, is planted
    build = lifting.build_ideal_lattice
    monkeypatch.setattr(lifting, "build_ideal_lattice", lambda r: replace(il := build(r), ideals=il.ideals[:-1]))
    with pytest.raises(TheoremViolation, match=r"^H intersect \[0,1\] is not an r-ideal$"):
        lift(l6, l6.full)


def test_equivalence_l6(l6):
    assert check_m_wire_ideal_equivalence(LatticeWork(l6)) == ()
    rep = sweep_lattice(l6)
    assert rep.equivalence_violations == ()
    assert rep.wires == 2
    assert rep.m_wires == 0


def test_equivalence_two(two):
    assert check_m_wire_ideal_equivalence(LatticeWork(two)) == ()
    rep = sweep_lattice(two)
    assert rep.ok and rep.wires == 1 and rep.m_wires == 1


def test_equivalence_small_corpus():
    for n in (1, 2, 3):
        for lat in enumerate_small_lattices(n):
            assert check_m_wire_ideal_equivalence(LatticeWork(lat)) == ()


def test_sweep_matches_separate_checks(l6, chain3_nil):
    lattices = [l6, chain3_nil] + [lat for n in range(1, 5) for lat in enumerate_small_lattices(n)]
    for lat in lattices:
        rep = sweep_lattice(lat)
        wires = list(enumerate_wires(lat))
        assert (rep.wires, rep.m_wires) == (len(wires), sum(report.is_m_wire for report in wires))
        assert rep.equivalence_violations == check_m_wire_ideal_equivalence(LatticeWork(lat))
        assert rep.liftability_findings == check_liftability(LatticeWork(lat))
        assert (rep.finitary_all, rep.all_compact) == check_finitary_embedding(LatticeWork(lat))
        assert rep.ok
        # the test helper adjoins the bounds before asking analyze_wire;
        # check_liftability asks about the plain element sets
        facts = liftability_facts(lat)
        for names, generates in ((facts.meet_principal, facts.mp_generates),
                                 (facts.principal, facts.p_generates)):
            assert generates == lifting._generates(lat, mask_from(map(lat.index, names)))


def test_liftability_l6(l6):
    assert check_liftability(LatticeWork(l6)) == ()
    rep = liftability_facts(l6)
    assert not rep.m_wire_exists
    assert rep.weak_meet_principal == ("0", "a", "1")
    assert set(rep.meet_principal) <= set(rep.weak_meet_principal)
    assert not rep.mp_generates


def test_liftability_chain3(chain3):
    assert check_liftability(LatticeWork(chain3)) == ()
    rep = liftability_facts(chain3)
    # the full carrier is an M-wire, and the meet principal elements are
    # exactly the carrier, so the generation implication is non-vacuous
    assert rep.m_wire_exists
    assert rep.meet_principal == ("0", "x", "1")
    assert rep.mp_generates
    # x fails the join-principal identity at (a, b) = (x, bot), so the
    # principal set cannot generate and the domain clause is vacuous
    flags = classify_element(chain3, chain3.index("x"))
    assert flags.meet_principal and not flags.join_principal
    assert rep.principal == ("0", "1")
    assert rep.domain and not rep.p_generates


def test_chain3_join_principal_witness(chain3):
    x = chain3.index("x")
    lhs = chain3.join(x, chain3.residual(chain3.bot, x))
    rhs = chain3.residual(chain3.join(chain3.mul[x][x], chain3.bot), x)
    assert lhs == x and rhs == chain3.top and lhs != rhs


def test_liftability_two_nonvacuous(two):
    assert check_liftability(LatticeWork(two)) == ()
    rep = liftability_facts(two)
    assert rep.m_wire_exists
    assert rep.domain and rep.p_generates
    assert rep.principal == ("0", "1")


def test_liftability_reports_meet_principal_elements_that_do_not_generate(chain3):
    # chain3's full carrier is an M-wire; flags with no meet principal
    # element are planted
    work = LatticeWork(chain3)
    work.__dict__["flags"] = tuple(replace(flags, meet_principal=False) for flags in work.flags)
    assert check_liftability(work) == ("an M-wire exists but the meet principal elements do not generate",)


def test_liftability_reports_a_principal_element_wire_that_fails(two):
    # two is a domain generated by its principal elements 0 and 1, whose
    # wire is the full carrier, an M-wire lifting to an ideal system; each
    # case plants the sweep's wires or lift so that one step fails
    work = LatticeWork(two)
    work.__dict__["wires"] = ()
    assert check_liftability(work) == ("principal elements are not closed under multiplication",)
    work = LatticeWork(two)
    work.__dict__["wires"] = tuple(replace(report, is_m_wire=False) for report in work.wires)
    assert check_liftability(work) == ("the principal-element wire is not an M-wire",)
    work = LatticeWork(two)
    work._lifts[two.full] = replace(work.lift(two.full), ideal_system=False)
    assert check_liftability(work) == ("the principal-element wire lifts to a weak but not an ideal system",)


def test_nilpotent_singleton_is_principal_but_no_domain(chain3_nil):
    flags = classify_element(chain3_nil, chain3_nil.index("x"))
    assert flags.principal
    assert check_liftability(LatticeWork(chain3_nil)) == ()
    rep = liftability_facts(chain3_nil)
    assert rep.p_generates and not rep.domain


@pytest.mark.parametrize("check", [verify_finitary, verify_ideal_system, build_ideal_lattice])
def test_non_weak_maps_are_rejected_with_value_error(m3, check):
    r = ClosureMap(m3, (0,) * (1 << m3.n))  # X is not within r(X) = {}
    with pytest.raises(ValueError, match="^not a weak ideal system: extensivity"):
        check(r)


def test_finitary_embedding(l6, two, chain3, chain3_nil):
    for lat in (l6, two, chain3, chain3_nil):
        assert check_finitary_embedding(LatticeWork(lat)) == (True, True)


def test_m_witness_recheck_rejects_fake(l6):
    h = wire_mask(l6, "0abc1")
    # the top element satisfies (M) trivially at (top, top, top)
    assert not verify_m_witness(l6, h, (l6.top, l6.top, l6.top))


def test_m_witness_recheck_rejects_members_outside_the_wire(l6):
    # (M) quantifies over s, t in H only: d lies outside {0, a, b, c, 1},
    # and no u in H has d*u = a, yet (a, d, 1) is no failure of (M)
    h = wire_mask(l6, "0abc1")
    assert not verify_m_witness(l6, h, tuple(map(l6.index, "ad1")))
    n = l6.n
    accepted = [(s, t, a) for s in range(n) for t in range(n) for a in range(n) if verify_m_witness(l6, h, (s, t, a))]
    assert accepted and all(h >> s & 1 and h >> t & 1 for s, t, _ in accepted)


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1 with meet as multiplication."""
    return FiniteLattice(tuple(map(str, range(n))),
                         tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)),
                         tuple(tuple(min(i, j) for j in range(n)) for i in range(n)), 0, n - 1)


def test_m_condition_factorizes_over_products():
    # H1 x H2 is a wire of L1 x L2, M(H1 x H2) holds iff M(H1) and M(H2)
    # hold, and a factor's (M) witness (s, t, a) fails in the product as
    # ((s, 1), (t, 1), (a, 1)), or ((1, s), (1, t), (1, a)) for the second
    factors = [(lat, report) for n in (2, 3, 4) for lat, _ in enumerate_lattice_classes(n)
               for report in enumerate_wires(lat)]
    failing = 0
    for first, h1 in factors:
        for second, h2 in factors:
            product = product_lattice(first, second)
            assert verify_lattice(product).passed
            n2 = second.n
            report = analyze_wire(product, mask_from(s * n2 + t for s in bits(h1.subset) for t in bits(h2.subset)))
            assert report.is_wire
            assert report.is_m_wire == (h1.is_m_wire and h2.is_m_wire)
            failing += not report.is_m_wire
            for witness, embed in ((h1.m_witness, lambda x: x * n2 + second.top),
                                   (h2.m_witness, lambda x: first.top * n2 + x)):
                if witness is not None:
                    assert verify_m_witness(product, report.subset, tuple(map(embed, witness)))
    assert (len(factors) ** 2, failing) == (100, 36)


def lift_product_wires(cap):
    """Lift H1 x H2 on L1 x L2 for every unordered pair of the class
    representatives with 2-4 elements and every pair of their wires with
    |H1| |H2| <= cap; return (lifts, M-wires).

    Each lift has |L1| |L2| ideals, as its ideal lattice is isomorphic to
    L1 x L2, and is an ideal system exactly when H1 and H2 are M-wires."""
    representatives = [lat for n in (2, 3, 4) for lat, _ in enumerate_lattice_classes(n)]
    lifts = m_wires = 0
    for first, second in combinations_with_replacement(representatives, 2):
        product, n2 = product_lattice(first, second), second.n
        for h1 in enumerate_wires(first):
            for h2 in enumerate_wires(second):
                if len(list(bits(h1.subset))) * len(list(bits(h2.subset))) > cap:
                    continue
                subset = mask_from(s * n2 + t for s in bits(h1.subset) for t in bits(h2.subset))
                result = lift(product, subset)
                is_m_wire = h1.is_m_wire and h2.is_m_wire
                assert len(result.ideal_lattice.ideals) == first.n * n2
                assert analyze_wire(product, subset).is_m_wire == result.ideal_system == is_m_wire
                lifts += 1
                m_wires += is_m_wire
    return lifts, m_wires


def test_lifts_on_products_count_ideals_and_factorize_the_ideal_system():
    assert lift_product_wires(12) == (27, 21)


@pytest.mark.parametrize("n", [12, 30, 36, 60, 72, 90, 210, 360, 420, 2310])
def test_ideal_lattices_of_z_mod_n_lift_to_ideal_systems(n):
    # Z/nZ is a principal ideal ring, so its ideal lattice is a Noether
    # lattice whose elements are all principal (Dilworth 1962); the
    # submonoid generated by its join-irreducibles and both bounds, and the
    # whole carrier where it fits the powerset cap, are M-wires
    lat = ideal_lattice_of_zn(n)
    assert verify_lattice(lat).passed
    assert all(classify_element(lat, x).principal for x in range(lat.n))
    wire = (1 << lat.bot) | (1 << lat.top) | mask_from(
        x for x in range(lat.n) if x != lat.bot and lat.join_of(lat.downs[x] & ~(1 << x)) != x)
    while (grown := wire | mask_from(lat.mul[s][t] for s in bits(wire) for t in bits(wire))) != wire:
        wire = grown
    for subset in [wire] + [lat.full] * (lat.n <= 16):
        assert analyze_wire(lat, subset).is_m_wire and lift(lat, subset).ideal_system


@st.composite
def posets(draw):
    """The below-masks of a poset on 1-5 points: each i < j is drawn, in
    order of j, and closed under transitivity as it is added."""
    below = [1 << j for j in range(draw(st.integers(1, 5)))]
    for j in range(len(below)):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= below[i]
    return below


def lift_down_set_wires(below):
    """Lift every wire of the down-set lattice of the poset with below-masks
    below; return (elements, wires).

    Meet distributes over join, so the down-sets form a multiplicative
    lattice under meet; every wire H is an M-wire, as s <= t*a = t meet a
    gives u = s, in H and below a, with t*u = s; so by the theorem every
    lift is an ideal system."""
    lat = down_set_lattice(below)
    assert verify_lattice(lat).passed
    wires = 0
    for report in enumerate_wires(lat):
        assert report.is_m_wire and lift(lat, report.subset).ideal_system
        wires += 1
    return lat.n, wires


@settings(max_examples=40, deadline=None)
@given(posets())
def test_down_set_lattices_lift_every_wire_to_an_ideal_system(below):
    assume(down_set_lattice(below).n <= 12)
    lift_down_set_wires(below)


def test_wire_cap_enforced():
    with pytest.raises(ValueError, match="powerset cap"):
        list(enumerate_wires(chain(17)))


def test_analyze_wire_certifies_its_m_witness(l6, two, monkeypatch):
    monkeypatch.setattr(lifting, "verify_m_witness", lambda lat, subset, witness: False)
    assert analyze_wire(two, two.full).is_m_wire  # an M-wire has no witness to recheck
    with pytest.raises(TheoremViolation, match="witness failed re-verification"):
        analyze_wire(l6, wire_mask(l6, "0abc1"))


def test_lift_of_a_non_multiplicative_product_is_bad_input():
    # l6_broken is a lattice whose product is neither associative nor
    # distributive; a failed certificate there is bad input, not a bug
    lat = load_lattice(FIXTURES / "l6_broken.json")
    for run in (lambda: lift(lat, lat.full), lambda: sweep_lattice(lat)):
        with pytest.raises(ValueError, match="^carrier is not a multiplicative lattice: associativity fails$"):
            run()


def test_lift_beyond_the_pair_sanity_cap():
    # a 10-element carrier: the r(XY) = r(r(X)r(Y)) oracle, once capped at 8
    # elements, now runs on every carrier with every other certificate
    lat = chain(10)
    assert verify_lattice(lat).passed
    result = lift(lat, lat.full)
    assert len(result.ideal_lattice.ideals) == 10


def m_condition_by_box_scan(lat, subset):
    """(M) as it was scanned before the preimage masks: for each s, t, a
    with s <= t*a, look for some u in H below a with t*u = s."""
    for s in bits(subset):
        for t in bits(subset):
            row = lat.mul[t]
            for a in range(lat.n):
                if lat.le(s, row[a]):
                    if not any(row[u] == s for u in bits(subset & lat.downs[a])):
                        return False, (s, t, a)
    return True, None


def test_m_condition_matches_the_box_scan():
    for n in range(1, 6):
        for lat in enumerate_small_lattices(n):
            for subset in range(1 << n):
                rep = analyze_wire(lat, subset)
                if rep.is_wire:
                    assert (rep.is_m_wire, rep.m_witness) == m_condition_by_box_scan(lat, subset)


def test_lift_table_is_the_join_cut_on_every_wire():
    # r(X) = H intersect [0, join(X)], with join(X) folded by join_of
    for n in range(1, 6):
        for lat in enumerate_small_lattices(n):
            for rep in enumerate_wires(lat):
                elems = list(bits(rep.subset))
                table = lift(lat, rep.subset).system.table
                for sm, closed in enumerate(table):
                    cut = rep.subset & lat.downs[lat.join_of(mask_from(elems[i] for i in bits(sm)))]
                    assert closed == mask_from(k for k, e in enumerate(elems) if cut >> e & 1)
