import pytest

from latlift import (
    ClosureMap,
    FiniteLattice,
    LatticeWork,
    WireError,
    analyze_wire,
    build_ideal_lattice,
    check_finitary_embedding,
    check_liftability,
    check_m_wire_ideal_equivalence,
    classify_element,
    enumerate_small_lattices,
    enumerate_wires,
    finitary_closure,
    lift,
    sweep_lattice,
    verify_finitary,
    verify_ideal_system,
    verify_lattice,
    verify_weak_ideal_system,
)
from latlift.bitset import bits, mask_from
from latlift.lifting import verify_m_witness

from conftest import non_lattices

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
    assert rep.witness_names() == ("a", "b", "1")
    assert verify_m_witness(l6, h, rep.m_witness)


def test_analyze_wire_full_carrier(l6, two, chain3):
    for lat in (l6, two, chain3):
        assert analyze_wire(lat, lat.full).is_wire


def test_analyze_wire_generation_failure(l6):
    rep = analyze_wire(l6, wire_mask(l6, "0a1"))
    assert not rep.generates and not rep.is_wire
    # b is join-irreducible, so it is only generated by itself
    b = l6.index("b")
    assert l6.join_of(wire_mask(l6, "0a1") & l6.down(b)) == l6.index("a")


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
    assert list(enumerate_wires(l6, m_only=True)) == []


def test_enumerate_wires_two(two):
    wires = list(enumerate_wires(two))
    assert len(wires) == 1
    assert wires[0].is_m_wire


def test_lift_l6_reproduces_ideals(l6):
    res = lift(l6, wire_mask(l6, "0abc1"))
    assert {frozenset(m) for m in res.ideal_members()} == L6_IDEALS
    assert res.certified
    assert verify_weak_ideal_system(res.system).passed
    assert not verify_ideal_system(res.system).passed


def test_lift_full_carrier_is_interval_map(l6):
    res = lift(l6, l6.full)
    assert res.certified
    # g sends y to its whole lower set
    for y in range(l6.n):
        ideal = res.ideal_lattice.ideals[res.iso_g[y]]
        assert ideal == l6.down(y)


def test_lift_chain3_gives_ideal_system(chain3):
    res = lift(chain3, chain3.full)
    assert verify_ideal_system(res.system).passed
    rep = analyze_wire(chain3, chain3.full)
    assert rep.is_m_wire


def test_lift_rejects_non_wire(l6):
    with pytest.raises(WireError):
        lift(l6, wire_mask(l6, "0a1"))


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
            assert l6.join_of(h & l6.down(v)) == v


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


def test_equivalence_l6(l6):
    rep = check_m_wire_ideal_equivalence(l6)
    assert rep.ok
    assert rep.wires_checked == 2
    assert rep.m_wires == 0


def test_equivalence_two(two):
    rep = check_m_wire_ideal_equivalence(two)
    assert rep.ok and rep.wires_checked == 1 and rep.m_wires == 1


def test_equivalence_small_corpus():
    for n in (1, 2, 3):
        for lat in enumerate_small_lattices(n):
            assert check_m_wire_ideal_equivalence(lat).ok


def test_sweep_matches_separate_checks(l6, chain3_nil):
    lattices = [l6, chain3_nil] + [lat for n in range(1, 5) for lat in enumerate_small_lattices(n)]
    for lat in lattices:
        equivalence, liftability, embedding = sweep_lattice(lat)
        assert equivalence == check_m_wire_ideal_equivalence(lat)
        assert liftability == check_liftability(lat)
        assert embedding == check_finitary_embedding(lat)
        assert equivalence.ok and liftability.ok and embedding.ok


def test_shared_work_must_match_the_lattice(l6, two):
    work = LatticeWork(l6)
    with pytest.raises(ValueError):
        check_m_wire_ideal_equivalence(two, work=work)
    with pytest.raises(ValueError):
        check_liftability(two, work=work)
    with pytest.raises(ValueError):
        check_finitary_embedding(two, work=work)


def test_liftability_l6(l6):
    rep = check_liftability(l6)
    assert rep.ok and rep.lift_full_certified
    assert not rep.m_wire_exists
    assert rep.weak_meet_principal == ("0", "a", "1")
    assert set(rep.meet_principal) <= set(rep.weak_meet_principal)
    assert not rep.mp_generates


def test_liftability_chain3(chain3):
    rep = check_liftability(chain3)
    assert rep.ok
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
    rep = check_liftability(two)
    assert rep.ok and rep.m_wire_exists
    assert rep.domain and rep.p_generates
    assert rep.principal == ("0", "1")


def test_nilpotent_singleton_is_principal_but_no_domain(chain3_nil):
    flags = classify_element(chain3_nil, chain3_nil.index("x"))
    assert flags.principal
    rep = check_liftability(chain3_nil)
    assert rep.ok and rep.p_generates and not rep.domain


def test_finitary_closure_identity(l6, chain3):
    for lat, names in ((l6, "0abc1"), (chain3, "0x1")):
        res = lift(lat, mask_from(lat.index(n) for n in names))
        rs = finitary_closure(res.system)
        assert rs.table == res.system.table
        assert verify_weak_ideal_system(rs).passed
        assert verify_finitary(rs).passed


def test_finitary_closure_of_constant_map(m3):
    from latlift import constant_closure

    r = constant_closure(m3)
    assert finitary_closure(r).table == r.table


@pytest.mark.parametrize("check", [
    verify_finitary, verify_ideal_system, build_ideal_lattice, finitary_closure])
def test_non_weak_maps_are_rejected_with_value_error(m3, check):
    r = ClosureMap(m3, (0,) * (1 << m3.n))  # X is not within r(X) = {}
    with pytest.raises(ValueError, match="^not a weak ideal system: extensivity"):
        check(r)


def test_finitary_embedding(l6, two, chain3, chain3_nil):
    for lat in (l6, two, chain3, chain3_nil):
        rep = check_finitary_embedding(lat)
        assert rep.ok and rep.closure_unchanged and rep.embedding_certified


def test_m_witness_recheck_rejects_fake(l6):
    h = wire_mask(l6, "0abc1")
    # the top element satisfies (M) trivially at (top, top, top)
    assert not verify_m_witness(l6, h, (l6.top, l6.top, l6.top))


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1 with meet as multiplication."""
    return FiniteLattice(tuple(map(str, range(n))),
                         tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)),
                         tuple(tuple(min(i, j) for j in range(n)) for i in range(n)), 0, n - 1)


def test_wire_cap_enforced():
    with pytest.raises(ValueError, match="wire enumeration cap"):
        list(enumerate_wires(chain(7)))


def test_lift_beyond_the_pair_sanity_cap():
    # a 10-element carrier: the r(XY) = r(r(X)r(Y)) oracle, once capped at 8
    # elements, now runs on every carrier with every other certificate
    lat = chain(10)
    assert verify_lattice(lat).passed
    result = lift(lat, lat.full)
    assert result.certified and len(result.ideal_lattice.ideals) == 10


def m_condition_by_box_scan(lat, subset):
    """(M) as it was scanned before the preimage masks: for each s, t, a
    with s <= t*a, look for some u in H below a with t*u = s."""
    for s in bits(subset):
        for t in bits(subset):
            row = lat.mul[t]
            for a in range(lat.n):
                if lat.le(s, row[a]):
                    if not any(row[u] == s for u in bits(subset & lat.down(a))):
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
                    cut = rep.subset & lat.down(lat.join_of(mask_from(elems[i] for i in bits(sm))))
                    assert closed == mask_from(k for k, e in enumerate(elems) if cut >> e & 1)
