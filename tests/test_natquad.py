from math import gcd, isqrt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latlift import (
    QuadOrder,
    TheoremViolation,
    division_closure_check,
    is_inert,
    is_norm,
    nat_residual,
    norm_image,
    norm_witness,
    reduced_forms,
    s_wire_check,
)
from latlift import natquad
from latlift.cli import main
from latlift.natquad import (
    M_WIRE_CONSISTENT,
    NOT_M_WIRE,
    _all_ambiguous,
    _bounded_pair,
    _gcd_pair,
    _norm_table,
    _squarefree,
    is_prime,
    primes_upto,
)

# the D = -d below 500 that QuadOrder accepts
ADMISSIBLE = [D for D in range(1, 500) if D % 4 in (1, 2) and _squarefree(D)]
ADMISSIBLE_BELOW_2000 = [D for D in range(1, 2000) if D % 4 in (1, 2) and _squarefree(D)]

# Euler's 65 idoneal numbers (Cox, Primes of the form x^2 + ny^2, section 3)
IDONEAL = frozenset((
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28, 30, 33, 37, 40,
    42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105, 112, 120, 130, 133, 165, 168,
    177, 190, 210, 232, 240, 253, 273, 280, 312, 330, 345, 357, 385, 408, 462, 520, 760,
    840, 1320, 1365, 1848))

# the admissible idoneal D below 2000: the D < 2000 whose norm image is closed
CLOSED = [D for D in ADMISSIBLE_BELOW_2000 if D in IDONEAL]


# Definitional oracle: the residual is the gcd of all y with a | b*y,
# scanned over a bounded range (two multiples of the answer suffice).

def residual_by_scan(a, b, ybound):
    qualifying = []
    for y in range(ybound + 1):
        t = b * y
        if (t % a == 0) if a else (t == 0):
            qualifying.append(y)
    return gcd(*qualifying)  # the join of the divisibility lattice


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


def test_quad_order_caps_d_before_the_squarefree_test():
    QuadOrder(-(10**12 + 2))  # squarefree, and the largest |d| accepted
    for d in (-(10**12 + 6), -(10**30 + 2)):  # both squarefree would pass every other test
        with pytest.raises(ValueError, match=r"^\|d\| must be at most 1000000000002$"):
            QuadOrder(d)


def test_norm_values():
    q = QuadOrder(-17)
    assert q.norm(5, 1) == 42
    assert q.norm(2, 1) == 21
    assert q.norm(1, 0) == 1
    assert QuadOrder(-5).norm(0, 1) == 5


def test_is_norm_and_witness():
    q17, q5 = QuadOrder(-17), QuadOrder(-5)
    assert not is_norm(q17, 2)
    assert norm_witness(q5, 21) == (4, 1)
    assert q5.norm(4, 1) == 21
    assert norm_witness(q5, 0) == (0, 0)
    assert norm_witness(q5, -3) is None
    assert norm_witness(q5, 7) is None


def test_norm_image_small():
    q = QuadOrder(-17)
    assert norm_image(q, 50) == (1, 4, 9, 16, 17, 18, 21, 25, 26, 33, 36, 42, 49)
    with pytest.raises(ValueError):
        norm_image(q, 0)


def compose_norm_witnesses(q, u, v):
    """Witness for the product of two norms:
    (a^2 + D b^2)(c^2 + D e^2) = (ac - D be)^2 + D (ae + bc)^2."""
    a, b = u
    c, e = v
    return (abs(a * c - q.D * b * e), abs(a * e + b * c))


@settings(max_examples=150)
@given(st.sampled_from([-1, -2, -5, -6, -17]),
       st.integers(0, 12), st.integers(0, 6), st.integers(0, 12), st.integers(0, 6))
def test_norm_multiplicativity_via_composition(d, a, b, c, e):
    q = QuadOrder(d)
    m, n = q.norm(a, b), q.norm(c, e)
    u, v = compose_norm_witnesses(q, (a, b), (c, e))
    assert q.norm(u, v) == m * n
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
    assert division_closure_check(QuadOrder(-17), 50).verdict == NOT_M_WIRE
    assert division_closure_check(QuadOrder(-17), 50).counterexample == (9, 18, 2)
    assert division_closure_check(QuadOrder(-5), 2000).verdict == M_WIRE_CONSISTENT
    assert division_closure_check(QuadOrder(-6), 2000).verdict == M_WIRE_CONSISTENT


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
# bounds at and around powers of 4, for D = 1 and 2 (mod 4), where a norm
# 4k comes only from a and b both even, so k is a norm too
@example(1, 1)
@example(2, 1)
@example(1, 3)  # below the first multiple of 4
@example(2, 3)
@example(1, 4)
@example(2, 4)
@example(1, 5)
@example(2, 5)
@example(1, 15)
@example(2, 15)
@example(1, 16)  # the norm 16 = 4 * 4, whose k = 4 is a multiple of 4 again
@example(2, 16)
@example(1, 17)
@example(2, 17)
@example(1, 64)
@example(2, 64)
@example(1, 256)
@example(2, 256)
@example(1, 1024)
@example(2, 1024)
@example(1, 4096)
@example(2, 4096)
def test_norm_table_matches_double_loop(D, bound):
    table = _norm_table(-D, bound)
    values = norm_values_by_double_loop(D, bound)
    assert len(table) == bound + 1 and set(table) <= {0, 1}
    assert {v for v, flag in enumerate(table) if flag} == values
    assert norm_image(QuadOrder(-D), bound) == tuple(sorted(values))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(0, 3000), st.integers(0, 3000))
@example(17, 5, 300)  # the first reach below |d|: the rows b >= 1 are all new
@example(17, 300, 0)  # r1 = r2: a copy, nothing to mark
@example(17, 299, 1)  # r2 = r1 + 1
@example(1, 1, 1)  # the s-wire table's first growth, reach 1 to 2
@example(2, 0, 3000)  # from the table of reach 0, the value 0 alone
def test_norm_table_extension_matches_fresh_table(D, r1, extra):
    r2 = r1 + extra
    small = _norm_table(-D, r1)
    grown = _norm_table(-D, r2, small)
    assert grown is not small and grown == _norm_table(-D, r2)
    assert {v for v, flag in enumerate(grown) if flag} == norm_values_by_double_loop(D, r2)
    assert small == _norm_table(-D, r1)  # the table extended from is left as it was


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(ADMISSIBLE), st.sampled_from(sorted(IDONEAL & set(ADMISSIBLE)))),
       st.integers(1, 5000))
@example(41, 50)  # split == bound // 2 == 25: the first scan alone finds (9, 45, 5)
@example(14, 21)  # the divisor of (9, 18, 2) is just below split == bound // 2 == 10
@example(17, 81)  # a perfect-square bound: split 4 * 9 = 36, just below bound // 2 = 40
@example(26, 36)  # a perfect-square bound where bound // 2 = 18 is below 4 * 6 = 24
@example(17, 64)  # 4 * isqrt(bound) == bound // 2 == 32: both give the split
@example(1, 2)  # split == bound // 2 == 1: neither scan has a divisor
@example(2, 3)
# D = 1 and 2, closed from their reduced forms, at the edge bounds where
# split == bound // 2
@example(1, 1)
@example(1, 3)
@example(2, 2)
@example(1, 64)  # the last bound with split == bound // 2 (== 4 * isqrt(bound))
@example(2, 64)
# The least divisor of a counterexample is never a multiple of 4 (a norm
# divisible by 4 has a and b even, so (n/4, m/4, k) would come first), so
# only a split of bound // 2, never 4 * isqrt(bound), can be that divisor.
@example(17, 19)  # the divisor of (9, 18, 2) is split == bound // 2 == 9 itself
@example(73, 144)  # (49, 98, 2): the divisor is the first one above split 48
@example(1590, 1734)  # k = 6 hits first, at n = 289; the least n, 169, comes with k = 10
@example(2, 5000)  # 2 is the first norm: the prefix ends at bound // 2 and 4, 6, 8, ... are skipped
@example(34, 50)  # (25, 50, 2) comes after the skipped 16 = 4 * 4
@example(322, 1352)  # (169, 338, 2): the skipped quotient 8 = 4 * 2 hits at 169 too
@example(17, 18)  # (9, 18, 2): the quotient 2 is bound // 9, the last one a divisor >= 9 can reach
@example(9373, 27869)  # k = 14 hits at n = 841 and the later k = 29 at 961: the first stays
# the quotient of the least pair is a split prime and its divisor lies
# above split: 17 splits for D = 1138 and 13 for D = 1257
@example(1138, 5000)  # (289, 4913, 17): n = 289 above split 280
@example(1257, 3771)  # (289, 3757, 13)
# (169, 2873, 17) has the largest multiple over D of all D < 2000; from the
# full table at bound 16 D - 1 and 16 D, from the prefix table at 16 D + 1
@example(298, 16 * 298 - 1)
@example(298, 16 * 298)
@example(298, 16 * 298 + 1)
def test_division_closure_matches_pairwise_scan(D, bound):
    assume(bound >= D)
    expected = division_counterexample_by_scan(norm_values_by_double_loop(D, bound), bound)
    report = division_closure_check(QuadOrder(-D), bound)
    assert report.closed == (expected is None)
    assert report.counterexample == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(1, 5000))
# the least divisor lies above split, so the quotient scan finds the pair
@example(73, 144)  # (49, 98, 2) above split 48
@example(1138, 5000)  # (289, 4913, 17) above split 280
@example(1257, 3771)  # (289, 3757, 13) above split 244
@example(1590, 1734)  # k = 6 hits at 289 first, the least n = 169 with k = 10 later
@example(9373, 27869)  # k = 14 hits at 841 and the later k = 29 at 961: the first stays
def test_bounded_scan_matches_pairwise_scan(D, bound):
    # the bounded scan alone, the reference of the exact stage's cross-check
    expected = division_counterexample_by_scan(norm_values_by_double_loop(D, bound), bound)
    pair = _bounded_pair(-D, _norm_table(-D, bound))
    assert (pair and (pair[0], pair[0] * pair[1], pair[1])) == expected


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(1, 5000), st.sampled_from([1, 2, 4, 8]))
# n1 = 169 has no hit up to 2682; the doubled table is the full one, with
# 2873 = 17 * 169
@example(298, 5000, 9)
@example(298, 5000, 1)  # n1 = 169 > reach // 2 = 149: no divisor can hit before the prefix doubles
# n1 = 121 has no hit up to 1348, where (169, 338, 2) would; the doubled
# prefix of 2696 values holds (121, 1573, 13)
@example(337, 5000, 4)
def test_division_closure_prefix_doubles_up_to_the_full_table(D, bound, factor):
    assume(bound >= D)
    expected = division_counterexample_by_scan(norm_values_by_double_loop(D, bound), bound)
    with mock.patch.object(natquad, "_PREFIX_FACTOR", factor):
        report = division_closure_check(QuadOrder(-D), bound)
    assert report.counterexample == expected


def test_square_of_a_ramified_inert_or_2_prime_never_divides_a_failing_pair():
    # the lemma of division_closure_check: for p = 2, p | D or p inert,
    # p^2 k a norm makes k a norm
    checked = 0
    for D in ADMISSIBLE:
        if D >= 300:
            break
        q = QuadOrder(-D)
        norms = norm_values_by_double_loop(D, 20_000)
        for p in primes_upto(50):
            if p == 2 or D % p == 0 or is_inert(q, p):
                for v in norms:
                    if v % (p * p) == 0:
                        assert v // (p * p) in norms, (D, p, v)
                        checked += 1
    assert checked == 78_960
    # the hypothesis is needed: 3 splits for D = 17, and (9, 18, 2) fails
    q = QuadOrder(-17)
    assert not is_inert(q, 3) and 17 % 3 != 0
    assert is_norm(q, 9) and is_norm(q, 18) and not is_norm(q, 2)


def s_members(D, bound):
    """S within [1, bound]: the norms times the products of inert primes,
    each p inert by Euler's criterion, (-D)^((p-1)/2) = -1 (mod p)."""
    member = bytearray(bound + 1)
    for v in norm_values_by_double_loop(D, bound):
        member[v] = 1
    for p in primes_upto(bound):
        if p > 2 and pow(-D, (p - 1) // 2, p) == p - 1:
            for v in range(1, bound // p + 1):
                if member[v]:
                    member[v * p] = 1  # ascending v, so the powers of p come in too
    return {v for v, flag in enumerate(member) if flag}


def test_m_for_s_reduces_to_division_closure_of_the_norm_image():
    # the README's reduction: the least pair (t, s, s/t) with t | s both in
    # S and s/t not in S is the norm image's least counterexample
    ds = [D for D in ADMISSIBLE if D < 300]
    assert len(ds) == 120
    closed = 0
    for D in ds:
        report = division_closure_check(QuadOrder(-D), 20_000)
        assert division_counterexample_by_scan(s_members(D, 20_000), 20_000) == report.counterexample, D
        closed += report.closed
    assert closed == 28


def test_division_closure_doubles_the_prefix_until_it_answers(monkeypatch):
    # the least hit of D = 11302, (2209, 227527, 103), lies at 20.1 D: beyond
    # the prefix of 16 D values, within the doubled one of 32 D
    sizes = []
    build = natquad._norm_table
    monkeypatch.setattr(natquad, "_norm_table",
                        lambda d, bound, table=None: sizes.append(bound) or build(d, bound, table))
    report = division_closure_check(QuadOrder(-11302), 600_000)
    assert sizes == [16 * 11302, 32 * 11302]
    pair = _bounded_pair(-11302, build(-11302, 600_000))
    assert report.counterexample == (pair[0], pair[0] * pair[1], pair[1]) == (2209, 227527, 103)


def test_division_closure_of_a_closed_image_builds_no_large_table(monkeypatch):
    # a closed D is decided from its reduced forms and cross-checked in the
    # prefix table of 16 D values: no larger table at any bound
    sizes = []
    build = natquad._norm_table
    monkeypatch.setattr(natquad, "_norm_table",
                        lambda d, bound, table=None: sizes.append(bound) or build(d, bound, table))
    assert len(CLOSED) == 34
    for D in CLOSED:
        for bound in (max(200_000, 50 * D), 10**10):
            sizes.clear()
            assert division_closure_check(QuadOrder(-D), bound).verdict == M_WIRE_CONSISTENT
            assert max(sizes) <= natquad._PREFIX_FACTOR * D, (D, bound, sizes)


def test_division_closure_consults_the_exact_step_only_without_a_prefix_hit(monkeypatch):
    # every D < 2000 builds the one table of 16 D values; the open D are
    # answered by n1 there, and only the closed D walk their reduced forms
    sizes, decided = [], []
    build, exact = natquad._norm_table, natquad._all_ambiguous
    monkeypatch.setattr(natquad, "_norm_table",
                        lambda d, bound, table=None: sizes.append(bound) or build(d, bound, table))
    monkeypatch.setattr(natquad, "_all_ambiguous", lambda D: decided.append(D) or exact(D))
    for D in ADMISSIBLE_BELOW_2000:
        sizes.clear()
        decided.clear()
        report = division_closure_check(QuadOrder(-D), max(200_000, 50 * D))
        assert report.closed == (D in CLOSED), D
        assert sizes == [natquad._PREFIX_FACTOR * D], (D, sizes)
        assert decided == ([D] if report.closed else []), (D, decided)
    assert len(ADMISSIBLE_BELOW_2000) - len(CLOSED) == 773


# ----- reduced forms and the exact closed verdict ----------------------


def reduced_forms_by_loops(D):
    # the textbook conditions over a box: |b| <= a <= c gives 3 a^2 <= 4 D,
    # and a c = D + b^2 / 4 <= D + a^2 / 4 bounds c
    forms = []
    for a in range(1, isqrt(4 * D // 3) + 1):
        for b in range(-a, a + 1):
            for c in range(a, D // a + a + 1):
                if (b * b - 4 * a * c == -4 * D and abs(b) <= a <= c
                        and (b >= 0 or abs(b) != a and a != c)):
                    forms.append((a, b, c))
    return forms


def test_reduced_forms_match_the_textbook_conditions():
    for D in ADMISSIBLE:
        assert list(reduced_forms(D)) == reduced_forms_by_loops(D), D
    assert list(reduced_forms(5)) == [(1, 0, 5), (2, 2, 3)]
    assert list(reduced_forms(17)) == [(1, 0, 17), (2, 2, 9), (3, -2, 6), (3, 2, 6)]


def test_all_ambiguous_exactly_at_the_idoneal_numbers():
    assert [D for D in ADMISSIBLE_BELOW_2000 if _all_ambiguous(D)] == CLOSED
    assert len(CLOSED) == 34
    # the bounded scan, called without the exact step, agrees at full size
    for D in CLOSED:
        assert _bounded_pair(-D, _norm_table(-D, max(200_000, 50 * D))) is None, D


def test_exact_closed_verdict_is_cross_checked(monkeypatch, capsys):
    # a mutant exact step that calls D = 17 closed; 200 is below 16 * 17, so
    # n1 is not tested, the mutant is consulted, and the cross-check finds
    # (9, 18, 2)
    assert _bounded_pair(-17, _norm_table(-17, 200)) == (9, 2)
    monkeypatch.setattr(natquad, "_all_ambiguous", lambda D: True)
    with pytest.raises(TheoremViolation, match="scan up to 200 refutes the exact closed verdict"):
        division_closure_check(QuadOrder(-17), 200)
    assert main(["quad", "verdict", "--d", "-17", "--bound", "200"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle violation: ") and captured.err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(1, 5000), st.sampled_from(primes_upto(100)))
@example(5, 6, 2)  # the minimal pair (4, 6) ends at the bound itself
@example(17, 20, 3)  # no pair: 9 and 18 share more than a factor of 3
@example(17, 5000, 107)  # a prime above 100: (321, 749)
@example(5, 5000, 101)  # 101 is itself a norm: the pair (101, 101)
def test_gcd_pair_matches_image_filter(D, bound, p):
    image = tuple(sorted(norm_values_by_double_loop(D, bound)))
    assert _gcd_pair(p, _norm_table(-D, bound)) == gcd_pair_by_filter(p, image)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(2, 300), st.integers(1, 200_000))
@example(214, 619, 100_000)  # 619 pairs as (1238, 66233): past 2^16, the last growth is to search_bound
@example(214, 619, 66_000)  # no pair for 619: the table grows to search_bound
@example(17, 30, 20)  # search_bound is not a power of 2: the last table is of 20 values
# 113 finds (6441, 7910) in a table of 8192, a product above 113 * 8192,
# and the grown table holds the smaller (1695, 8362)
@example(854, 113, 20_000)
def test_s_wire_grown_table_matches_full_table(D, prime_bound, search_bound):
    q = QuadOrder(-D)
    table = _norm_table(-D, search_bound)
    verdicts = s_wire_check(q, prime_bound, search_bound).verdicts
    for v in verdicts:
        if is_inert(q, v.p):
            assert v.kind == "inert"
        elif is_norm(q, v.p):
            assert v.kind == "norm"
        else:
            pair = _gcd_pair(v.p, table)
            assert (v.kind, v.pair) == (("unresolved", None) if pair is None else ("gcd_generated", pair))


def test_s_wire_check_reverifies_norm_witnesses(monkeypatch, capsys):
    # the representation (0, 1), of norm 5, for every prime: p = 2 fails it
    monkeypatch.setattr(natquad, "norm_witness", lambda q, n: (0, 1))
    with pytest.raises(TheoremViolation, match="norm witness failed re-verification"):
        s_wire_check(QuadOrder(-5), 10, 100)
    assert main(["quad", "s-wire", "--d", "-5", "--prime-bound", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle violation: norm witness failed re-verification\n"


# ----- the verdicts of the benchmark's quad workload -------------------


def test_quad_workload_verdicts_follow_idoneal_numbers():
    for D in ADMISSIBLE:
        if D >= 300:
            break
        report = division_closure_check(QuadOrder(-D), max(200_000, 50 * D))
        assert (report.verdict == M_WIRE_CONSISTENT) == (D in IDONEAL), D
        if D == 17:
            assert report.counterexample == (9, 18, 2)


@pytest.mark.parametrize("d, gcd_generated, last_reach", [(-5, 80, 1 << 14), (-17, 119, 1 << 16)],
                         ids=["-5", "-17"])
def test_quad_workload_s_wire_resolves_every_prime(monkeypatch, d, gcd_generated, last_reach):
    # the benchmark's search bound is 10^6 plus the pass number; the table
    # doubles from reach 1 until every gcd pair is certified, far below it
    sizes = []
    build = natquad._norm_table
    monkeypatch.setattr(natquad, "_norm_table",
                        lambda d, bound, table=None: sizes.append(bound) or build(d, bound, table))
    report = s_wire_check(QuadOrder(d), 2000, 10**6 + 1)
    assert sizes == [1 << k for k in range(last_reach.bit_length())]
    assert report.ok and report.unresolved == ()
    assert len(report.verdicts) == len(primes_upto(2000))
    assert sum(v.kind == "gcd_generated" for v in report.verdicts) == gcd_generated
