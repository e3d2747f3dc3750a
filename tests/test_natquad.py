from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latlift import (
    QuadOrder,
    division_closure_check,
    is_inert,
    is_norm,
    m_wire_verdict,
    nat_join,
    nat_meet,
    nat_residual,
    norm,
    norm_image,
    norm_witness,
    s_wire_check,
)
from latlift.natquad import (
    M_WIRE_CONSISTENT,
    NOT_M_WIRE,
    _gcd_pair,
    _norm_table,
    _squarefree,
    compose_norm_witnesses,
    is_prime,
    primes_upto,
)

# the D = -d below 500 that QuadOrder accepts
ADMISSIBLE = [D for D in range(1, 500) if D % 4 in (1, 2) and _squarefree(D)]

# Euler's 65 idoneal numbers (Cox, Primes of the form x^2 + ny^2, section 3)
IDONEAL = frozenset((
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28, 30, 33, 37, 40,
    42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105, 112, 120, 130, 133, 165, 168,
    177, 190, 210, 232, 240, 253, 273, 280, 312, 330, 345, 357, 385, 408, 462, 520, 760,
    840, 1320, 1365, 1848))


# Definitional oracle: the residual is the gcd of all y with a | b*y,
# scanned over a bounded range (two multiples of the answer suffice).

def residual_by_scan(a, b, ybound):
    qualifying = []
    for y in range(ybound + 1):
        t = b * y
        if (t % a == 0) if a else (t == 0):
            qualifying.append(y)
    return nat_join(qualifying)


def test_nat_join_meet_examples():
    assert nat_join((4, 6)) == 2
    assert nat_join(()) == 0
    assert nat_meet(()) == 1
    assert nat_meet((4, 6)) == 12
    assert nat_join((7,)) == 7


def test_nat_residual_examples():
    assert nat_residual(12, 8) == 3 == residual_by_scan(12, 8, 100)
    assert nat_residual(5, 0) == 1
    assert nat_residual(0, 7) == 0
    assert nat_residual(0, 0) == 1
    with pytest.raises(ValueError):
        nat_residual(-1, 2)


def test_nat_residual_closed_form_vs_scan_small():
    for a in range(0, 61):
        for b in range(0, 61):
            assert nat_residual(a, b) == residual_by_scan(a, b, 2 * max(a, 1))


def test_nat_residual_adjunction():
    for a in range(1, 61):
        for b in range(0, 61):
            r = nat_residual(a, b)
            for y in range(0, 61):
                assert (b * y % a == 0) == (y % r == 0 if r else y == 0)


@settings(max_examples=200)
@given(st.integers(0, 5000), st.integers(0, 5000))
def test_nat_residual_closed_form_vs_scan_random(a, b):
    assert nat_residual(a, b) == residual_by_scan(a, b, 2 * max(a, 1))


def test_quad_order_validation():
    QuadOrder(-5)
    QuadOrder(-17)
    QuadOrder(-1)   # -1 is 3 mod 4, so the Gaussian integers qualify
    QuadOrder(-2)
    QuadOrder(-6)
    for d in (-4, -7, -3, 0, 5, -9, -12):
        with pytest.raises(ValueError):
            QuadOrder(d)


def test_norm_values():
    q = QuadOrder(-17)
    assert norm(q, 5, 1) == 42
    assert norm(q, 2, 1) == 21
    assert norm(q, 1, 0) == 1
    assert norm(QuadOrder(-5), 0, 1) == 5


def test_is_norm_and_witness():
    q17, q5 = QuadOrder(-17), QuadOrder(-5)
    assert not is_norm(q17, 2)
    assert norm_witness(q5, 21) == (4, 1)
    assert norm(q5, 4, 1) == 21
    assert norm_witness(q5, 0) == (0, 0)
    assert norm_witness(q5, -3) is None
    assert norm_witness(q5, 7) is None


def test_norm_image_small():
    q = QuadOrder(-17)
    assert norm_image(q, 50) == (1, 4, 9, 16, 17, 18, 21, 25, 26, 33, 36, 42, 49)
    with pytest.raises(ValueError):
        norm_image(q, 0)


@settings(max_examples=150)
@given(st.sampled_from([-1, -2, -5, -6, -17]),
       st.integers(0, 12), st.integers(0, 6), st.integers(0, 12), st.integers(0, 6))
def test_norm_multiplicativity_via_composition(d, a, b, c, e):
    q = QuadOrder(d)
    m, n = norm(q, a, b), norm(q, c, e)
    u, v = compose_norm_witnesses(q, (a, b), (c, e))
    assert norm(q, u, v) == m * n
    assert is_norm(q, m * n)


def test_primes_helpers():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)


def test_is_inert():
    q5 = QuadOrder(-5)
    assert is_inert(q5, 11)
    assert is_inert(q5, 13)
    assert not is_inert(q5, 3)
    assert not is_inert(q5, 5)   # ramified
    assert not is_inert(q5, 2)   # divides the discriminant
    with pytest.raises(ValueError):
        is_inert(q5, 9)


def test_division_closure_negative_case():
    report = division_closure_check(QuadOrder(-17), 50)
    assert not report.closed
    # smallest by (divisor, multiple): 9 = 3^2 and 18 = 1 + 17 are norms,
    # their quotient 2 is not
    assert report.counterexample == (9, 18, 2)
    n, m, quotient = report.counterexample
    q = QuadOrder(-17)
    assert is_norm(q, n) and is_norm(q, m) and m % n == 0 and not is_norm(q, quotient)


def test_division_closure_positive_cases():
    assert division_closure_check(QuadOrder(-5), 2000).closed
    assert division_closure_check(QuadOrder(-1), 2000).closed
    assert division_closure_check(QuadOrder(-6), 2000).closed


def test_division_closure_bound_guard():
    with pytest.raises(ValueError):
        division_closure_check(QuadOrder(-17), 10)


def test_m_wire_verdicts():
    assert m_wire_verdict(QuadOrder(-17), 50).verdict == NOT_M_WIRE
    assert m_wire_verdict(QuadOrder(-17), 50).counterexample == (9, 18, 2)
    assert m_wire_verdict(QuadOrder(-5), 2000).verdict == M_WIRE_CONSISTENT
    assert m_wire_verdict(QuadOrder(-6), 2000).verdict == M_WIRE_CONSISTENT


def test_s_wire_small_run():
    report = s_wire_check(QuadOrder(-5), 30, 10000)
    kinds = {v.p: v for v in report.verdicts}
    assert report.ok
    assert kinds[2].kind == "gcd_generated" and kinds[2].pair == (4, 6)
    assert kinds[3].kind == "gcd_generated" and kinds[3].pair == (6, 9)
    assert kinds[5].kind == "norm" and kinds[5].rep == (0, 1)
    assert kinds[7].kind == "gcd_generated" and kinds[7].pair == (14, 21)
    assert kinds[11].kind == "inert"
    assert kinds[13].kind == "inert"
    assert kinds[23].kind == "gcd_generated" and kinds[23].pair == (46, 69)
    assert kinds[29].kind == "norm"
    for v in report.verdicts:
        if v.kind == "gcd_generated":
            w1, w2 = v.pair
            assert gcd(w1, w2) == v.p
            assert is_norm(QuadOrder(-5), w1) and is_norm(QuadOrder(-5), w2)


def test_s_wire_reports_unresolved_instead_of_dropping():
    # a tiny search bound cannot resolve most split primes
    report = s_wire_check(QuadOrder(-17), 30, 20)
    assert not report.ok
    assert 3 in report.unresolved  # 9 and 18 share more than a factor of 3
    assert len(report.verdicts) == len(primes_upto(30))


# ----- the membership-table kernels against their definitions ----------


def norm_values_by_double_loop(D, bound):
    values = set()
    b = 0
    while D * b * b <= bound:
        a = 0
        while a * a + D * b * b <= bound:
            values.add(a * a + D * b * b)
            a += 1
        b += 1
    values.discard(0)
    return values


def division_counterexample_by_scan(members, bound):
    for n in sorted(members):
        for m in range(2 * n, bound + 1, n):
            if m in members and (m // n) not in members:
                return (n, m, m // n)
    return None


def gcd_pair_by_filter(p, image):
    multiples = [v for v in image if v % p == 0]
    best = None
    for i, m1 in enumerate(multiples):
        if best is not None and m1 * m1 >= best[0]:
            break
        for m2 in multiples[i:]:
            prod = m1 * m2
            if best is not None and prod >= best[0]:
                break
            if gcd(m1, m2) == p:
                best = (prod, m1, m2)
                break
    return (best[1], best[2]) if best else None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(1, 5000))
def test_norm_table_matches_double_loop(D, bound):
    table = _norm_table(-D, bound)
    values = norm_values_by_double_loop(D, bound)
    assert len(table) == bound + 1 and set(table) <= {0, 1}
    assert {v for v, flag in enumerate(table) if flag} == values
    assert norm_image(QuadOrder(-D), bound) == tuple(sorted(values))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(ADMISSIBLE), st.sampled_from(sorted(IDONEAL & set(ADMISSIBLE)))),
       st.integers(1, 5000))
@example(41, 50)  # k = 2 hits first, at n = 25; the least n, 9, comes with k = 5
@example(14, 21)  # the counterexample (9, 18, 2) has its divisor above sqrt(21)
@example(17, 81)  # a perfect-square bound: the divisor 9 is the split itself
@example(26, 36)  # a perfect-square bound with the divisor 9 above the split
@example(17, 64)  # the divisor 9 is the first one above the split
@example(1, 2)  # split == bound // 2 == 1: neither scan has a divisor
@example(2, 3)
def test_division_closure_matches_pairwise_scan(D, bound):
    assume(bound >= D)
    expected = division_counterexample_by_scan(norm_values_by_double_loop(D, bound), bound)
    report = division_closure_check(QuadOrder(-D), bound)
    assert report.closed == (expected is None)
    assert report.counterexample == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(1, 5000), st.sampled_from(primes_upto(100)))
@example(5, 6, 2)  # the minimal pair (4, 6) ends at the bound itself
@example(17, 20, 3)  # no pair: 9 and 18 share more than a factor of 3
@example(17, 5000, 107)  # a prime above 100: (321, 749)
@example(5, 5000, 101)  # 101 is itself a norm: the pair (101, 101)
def test_gcd_pair_matches_image_filter(D, bound, p):
    image = tuple(sorted(norm_values_by_double_loop(D, bound)))
    assert _gcd_pair(p, _norm_table(-D, bound)) == gcd_pair_by_filter(p, image)


# ----- the verdicts of the benchmark's quad workload -------------------


def test_quad_workload_verdicts_follow_idoneal_numbers():
    for D in ADMISSIBLE:
        if D >= 300:
            break
        report = m_wire_verdict(QuadOrder(-D), max(200_000, 50 * D))
        assert (report.verdict == M_WIRE_CONSISTENT) == (D in IDONEAL), D
        if D == 17:
            assert report.counterexample == (9, 18, 2)


@pytest.mark.parametrize("d", [-5, -17])
def test_quad_workload_s_wire_resolves_every_prime(d):
    report = s_wire_check(QuadOrder(d), 2000, 1_000_000)
    assert report.ok and report.unresolved == ()
    assert len(report.verdicts) == len(primes_upto(2000))
