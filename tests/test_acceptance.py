"""Acceptance suite: one test per criterion, one printed verdict line each.

The corpus used by criteria 2-5 and 9 is every multiplicative lattice on
up to four elements plus the n = 5 stratum, which the enumerator exhausts
at 147 lattices (the whole population, so the sweep is a census rather
than a sample).
"""

import time
from math import gcd

from latlift import (
    LatticeWork,
    QuadOrder,
    check_finitary_embedding,
    check_liftability,
    check_m_wire_ideal_equivalence,
    division_closure_check,
    enumerate_small_lattices,
    enumerate_wires,
    is_norm,
    lift,
    load_lattice,
    s_wire_check,
    verify_ideal_system,
    verify_weak_ideal_system,
)
from latlift.bitset import mask_from
from latlift.natquad import nat_residual

from conftest import FIXTURES, liftability_facts

N5_POPULATION = 147

_corpus_cache = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        lattices = []
        for n in (1, 2, 3, 4):
            lattices.extend(enumerate_small_lattices(n))
        five = list(enumerate_small_lattices(5))
        _corpus_cache = (lattices, five)
    return _corpus_cache


def announce(number, name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_worked_example():
    def body():
        started = time.perf_counter()
        l6 = load_lattice(FIXTURES / "l6.json")
        h = mask_from(l6.index(n) for n in ("0", "a", "b", "c", "1"))
        result = lift(l6, h)
        ideals = {frozenset(m) for m in result.ideal_members()}
        assert ideals == {
            frozenset("0"),
            frozenset("0a"),
            frozenset("0ab"),
            frozenset("0ac"),
            frozenset("0abc"),
            frozenset("0abc1"),
        }
        assert verify_weak_ideal_system(result.system).passed
        assert not verify_ideal_system(result.system).passed
        assert time.perf_counter() - started < 1.0

    announce(1, "worked example", body)


def test_criterion_2_lifting_oracle():
    def body():
        started = time.perf_counter()
        small, five = corpus()
        assert len(five) == N5_POPULATION  # enumeration exhausts the stratum
        wires = 0
        for lat in small + five:
            for rep in enumerate_wires(lat):
                wires += 1
                lift(lat, rep.subset)  # raises unless certified
        assert wires > 0
        assert time.perf_counter() - started < 60.0

    announce(2, "lifting oracle over the corpus", body)


def test_criterion_3_equivalence_oracle():
    def body():
        small, five = corpus()
        for lat in small + five:
            assert check_m_wire_ideal_equivalence(LatticeWork(lat)) == ()

    announce(3, "ideal-system/M-wire equivalence", body)


def test_criterion_4_liftability_checks():
    def body():
        small, five = corpus()
        for lat in small + five:
            assert check_liftability(LatticeWork(lat)) == ()
        report = liftability_facts(load_lattice(FIXTURES / "l6.json"))
        assert report.weak_meet_principal == ("0", "a", "1")
        assert set(report.meet_principal) <= {"0", "a", "1"}
        assert not report.mp_generates
        assert not report.m_wire_exists  # contrapositive of the implication

    announce(4, "liftability checks", body)


def test_criterion_5_finitary_embedding():
    def body():
        small, five = corpus()
        for lat in small + five:
            finitary_all, all_compact = check_finitary_embedding(LatticeWork(lat))
            assert finitary_all and all_compact

    announce(5, "finitary closure embedding", body)


def test_criterion_6_quadratic_negative():
    def body():
        started = time.perf_counter()
        q = QuadOrder(-17)
        report = division_closure_check(q, 50)
        assert not report.closed
        # smallest counterexample in (divisor, multiple) order; 42/21 = 2 is
        # a larger instance of the same failure and is re-verified below
        assert report.counterexample == (9, 18, 2)
        n, m, quotient = report.counterexample
        assert is_norm(q, n) and is_norm(q, m)
        assert m % n == 0 and m // n == quotient and not is_norm(q, quotient)
        assert q.norm(5, 1) == 42
        assert q.norm(2, 1) == 21
        assert not is_norm(q, 2)
        assert 42 % 21 == 0 and 42 // 21 == 2  # the primitive-witness instance
        assert is_norm(q, 21) and is_norm(q, 42)
        assert time.perf_counter() - started < 1.0

    announce(6, "quadratic negative case d=-17", body)


def test_criterion_7_quadratic_positive():
    def body():
        started = time.perf_counter()
        report = division_closure_check(QuadOrder(-5), 10_000)
        assert report.closed and report.counterexample is None
        assert time.perf_counter() - started < 10.0

    announce(7, "quadratic positive case d=-5", body)


def test_criterion_8_s_generation():
    def body():
        started = time.perf_counter()
        for d in (-5, -17):
            q = QuadOrder(d)
            report = s_wire_check(q, 200, 100_000)
            assert report.unresolved == ()
            for verdict in report.verdicts:
                if verdict.kind == "gcd_generated":
                    w1, w2 = verdict.pair
                    assert gcd(w1, w2) == verdict.p
                    assert is_norm(q, w1) and is_norm(q, w2)
                elif verdict.kind == "norm":
                    assert q.norm(*verdict.rep) == verdict.p
        assert time.perf_counter() - started < 30.0

    announce(8, "S-generation evidence", body)


def test_criterion_9_residual_adjunction():
    def body():
        small, five = corpus()
        for lat in small + five:
            for a in range(lat.n):
                for b in range(lat.n):
                    r = lat.residual(a, b)
                    for y in range(lat.n):
                        assert lat.le(lat.mul[b][y], a) == lat.le(y, r)
        for a in range(0, 201):
            for b in range(0, 201):
                qualifying = []
                for y in range(0, 2 * max(a, 1) + 1):
                    t = b * y
                    if (t % a == 0) if a else (t == 0):
                        qualifying.append(y)
                assert nat_residual(a, b) == gcd(*qualifying)

    announce(9, "residual adjunction", body)
