"""The divisibility lattice on the naturals and quadratic-order norms.

The naturals form a multiplicative lattice under a <= b iff b divides a:
join is gcd, meet is lcm, top is 1 and bot is 0, with ordinary integer
multiplication.  For an imaginary quadratic order Z[sqrt(d)] (d < 0,
squarefree, d = 2 or 3 mod 4) the norm values a^2 + |d| b^2 together with
the inert primes generate a multiplicatively closed subset S of this
lattice.  Whether S satisfies the wire condition (M) reduces to whether
the norm image is closed under division, which is decidable up to a bound;
the checks below report exactly that, with every witness re-verified
before it is returned.

The norm image, the division-closure scan and the gcd search of the s-wire
check all read a membership table cached per (d, bound): a ``bytes`` object
whose byte v is 1 exactly when v is a nonzero norm.  The division-closure
scan walks the norm-free divisors up to 4 sqrt(bound) and, for the larger
divisors, the norm-free quotients up to sqrt(bound) / 4: one big-int AND
each.  The s-wire check grows its table from 2^16 values only while an
answer may lie beyond it.  The re-verification of each witness never reads
the table.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, tee
from math import gcd, isqrt, lcm
from typing import Iterable

from .verdicts import TheoremViolation

NOT_M_WIRE = "NOT-M-WIRE"
M_WIRE_CONSISTENT = "CONSISTENT-WITH-M-WIRE-UP-TO-BOUND"

# Swaps the bytes 0 and 1: the table's complement, "v is not a norm".
_SWAP = bytes.maketrans(b"\0\1", b"\1\0")

# Size of the first table of s_wire_check, which grows it on demand.
_FIRST_REACH = 1 << 16


# ----- the divisibility lattice ----------------------------------------


def nat_join(values: Iterable[int]) -> int:
    """Join in the divisibility order: gcd.  The empty join is 0 (bot)."""
    return gcd(*values)


def nat_meet(values: Iterable[int]) -> int:
    """Meet in the divisibility order: lcm.  The empty meet is 1 (top)."""
    return lcm(*values)


def nat_residual(a: int, b: int) -> int:
    """(a : b) in the divisibility lattice: the gcd of all y with a | b*y.

    Closed form a // gcd(a, b), validated against the definitional scan in
    the test suite.  The qualifying set for (0, 0) is all of the naturals,
    whose join is 1 (top); b = 0 with a > 0 also gives 1 since a | 0.
    """
    if a < 0 or b < 0:
        raise ValueError("naturals only")
    if a == 0 and b == 0:
        return 1
    return a // gcd(a, b)


# ----- quadratic orders ------------------------------------------------


@dataclass(frozen=True)
class QuadOrder:
    """Parameters of Z[sqrt(d)] with the positive definite norm a^2 + |d| b^2.

    Only d < 0, squarefree, d = 2 or 3 (mod 4) is accepted: positive d
    makes the norm image unbounded per value, and d = 1 (mod 4) changes
    the ring of integers away from Z[sqrt(d)].
    """

    d: int

    def __post_init__(self) -> None:
        if self.d >= 0:
            raise ValueError("d must be negative")
        if self.d % 4 not in (2, 3):
            raise ValueError("d must be 2 or 3 mod 4")
        if not _squarefree(-self.d):
            raise ValueError("d must be squarefree")

    @property
    def D(self) -> int:
        return -self.d

    def norm(self, a: int, b: int) -> int:
        return a * a + self.D * b * b


def _squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def norm(q: QuadOrder, a: int, b: int) -> int:
    return q.norm(a, b)


def norm_witness(q: QuadOrder, n: int) -> tuple[int, int] | None:
    """An (a, b) with a^2 + |d| b^2 = n, scanning b upward, or None."""
    if n < 0:
        return None
    b = 0
    while q.D * b * b <= n:
        rem = n - q.D * b * b
        a = isqrt(rem)
        if a * a == rem:
            return (a, b)
        b += 1
    return None


def is_norm(q: QuadOrder, n: int) -> bool:
    return norm_witness(q, n) is not None


@lru_cache(maxsize=32)
def _norm_table(d: int, bound: int) -> bytes:
    """Byte v (0 <= v <= bound) is 1 iff v > 0 and v = a^2 + |d| b^2; each
    row b marks |d| b^2 + a^2 for the precomputed squares a^2 that fit."""
    table = bytearray(bound + 1)
    squares = [a * a for a in range(isqrt(bound) + 1)]
    for b in range(isqrt(bound // -d) + 1):
        base = -d * b * b
        for square in squares[:isqrt(bound - base) + 1]:
            table[base + square] = 1
    table[0] = 0
    return bytes(table)


def norm_image(q: QuadOrder, bound: int) -> tuple[int, ...]:
    """Sorted distinct norm values in [1, bound], read off the cached table."""
    if bound < 1:
        raise ValueError("bound must be positive")
    return tuple(compress(range(bound + 1), _norm_table(q.d, bound)))


# ----- primes ----------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray((1,)) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def is_inert(q: QuadOrder, p: int) -> bool:
    """Whether p stays prime in Z[sqrt(d)].

    Equivalent to the Kronecker symbol (4d | p) being -1: 2 always divides
    the discriminant 4d here (symbol 0), primes dividing d ramify (symbol
    0), and for the remaining odd primes the symbol is the Legendre symbol
    (d | p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 or q.D % p == 0:
        return False
    return _legendre(q.d % p, p) == -1


# ----- division closure and the wire checks ----------------------------


@dataclass(frozen=True)
class DivisionClosureReport:
    """Outcome of the bounded division-closure scan of the norm image.

    ``counterexample`` is the smallest failing pair (n, m, m // n) in
    lexicographic (divisor, multiple) order, or None when the image is
    closed up to the bound.
    """

    d: int
    bound: int
    closed: bool
    counterexample: tuple[int, int, int] | None


def division_closure_check(q: QuadOrder, bound: int) -> DivisionClosureReport:
    """Scan the norm image up to bound for nested values whose quotient is
    not a norm.

    The divisors split at split = min(4 isqrt(bound), bound // 2).  A value
    v is norm-free when no norm a with 2 <= a < v divides it.  For each
    norm-free norm 2 <= n <= split, ascending, the set bits of
    (table[k*n] and not table[k]) over k = 2..bound//n are one big-int AND
    whose lowest bit is the smallest quotient k, so the first hit is the
    lexicographically smallest counterexample.  Larger divisors have
    quotients k <= bound // (split + 1): for each norm-free non-norm k,
    ascending, the lowest set bit of (table[n] and table[k*n]) over
    n = split+1..bound//k is the smallest n for that k; the least n wins,
    the smaller k on a tie.  The counterexample is re-verified
    arithmetically, without the table, before being returned.

    Any split in [1, bound // 2] gives the same counterexample: a pair with
    n > split has k <= bound // (split + 1).  Norms are sparse among small n
    and non-norms dense among small k, so the split sits above sqrt(bound)
    (scan time over the benchmark's 120 D for split = c isqrt(bound),
    c = 1, 2, 4, 8, 16, before the skips below: 0.189, 0.169, 0.158, 0.164,
    0.160 s; Python 3.11.7, 2 cores).

    Only norm-free divisors can be least.  Norms are closed under
    multiplication.  Let (n, k) be a counterexample, n = a w, a >= 2 a norm,
    w >= 2.  If w is no norm, (a, w) is a counterexample; if w and wk are
    norms, (w, k) is one; else (a, wk) is one.  Each has a smaller divisor
    and a multiple at most kn.  The least norm a >= 2 dividing n is
    norm-free, so zeroing the multiples of each divisor as it is scanned
    clears every such n in time; a first scan without a hit leaves set
    exactly the values up to split that no norm >= 2 divides.

    Only norm-free quotients can win.  Let (n, k) be a hit of the second
    scan, k = k1 k2, k1 >= 2 a norm.  Then k1 <= k <= bound // (split + 1)
    <= split, and no counterexample has a divisor up to split, so
    (k1, k2 n) is none: with kn a norm, k2 n is one.  k2 is no norm and
    not 1 (else k would be a norm), so (n, k2) is a hit with the same n
    and a smaller k.

    "k is not a norm" over k = 2..bound//first (first is the least norm
    >= 2, so no divisor has a larger quotient) and the table over
    n = split+1..bound//2 are each converted to a big int once.  & of two
    non-negative ints walks the shorter one, so ANDing a strided slice
    with a whole prefix costs no more than with the matching part.
    """
    if bound < q.D:
        raise ValueError("bound must be at least |d|")
    table = _norm_table(q.d, bound)
    half = bound // 2
    split = min(4 * isqrt(bound), half)
    first = max(table.find(1, 2), 2)  # 2 when no norm lies in [2, bound]
    missing = int.from_bytes(table[2:bound // first + 1].translate(_SWAP), "little")
    free = bytearray(b"\1") * (split + 1)  # no norm >= 2 scanned so far divides v
    best: tuple[int, int] | None = None
    for n in compress(range(2, split + 1), table[2:split + 1]):
        if not free[n]:
            continue
        hits = int.from_bytes(table[2 * n::n], "little") & missing
        if hits:
            best = (n, 2 + ((hits & -hits).bit_length() - 1) // 8)
            break
        free[n::n] = bytes(split // n)
    if best is None:
        low = split + 1
        top = bound // low
        upper = int.from_bytes(table[low:half + 1], "little")
        for k in compress(range(2, top + 1), free[2:top + 1]):
            high = bound // k if best is None else min(bound // k, best[0] - 1)
            hits = upper & int.from_bytes(table[k * low:k * high + 1:k], "little")
            if hits:
                best = (low + ((hits & -hits).bit_length() - 1) // 8, k)
    if best is None:
        return DivisionClosureReport(q.d, bound, True, None)
    n, quotient = best
    m = quotient * n
    if (norm_witness(q, n) is None or norm_witness(q, m) is None
            or m % n != 0 or is_norm(q, quotient)):
        raise TheoremViolation("division counterexample failed re-verification")
    return DivisionClosureReport(q.d, bound, False, (n, m, quotient))


@dataclass(frozen=True)
class MWireVerdict:
    """Bounded verdict on whether S can be an M-wire of the divisibility
    lattice.  Positive verdicts are evidence up to the bound only; the
    negative verdict carries a verified counterexample."""

    d: int
    bound: int
    verdict: str
    counterexample: tuple[int, int, int] | None


def m_wire_verdict(q: QuadOrder, bound: int) -> MWireVerdict:
    report = division_closure_check(q, bound)
    if report.closed:
        return MWireVerdict(q.d, bound, M_WIRE_CONSISTENT, None)
    return MWireVerdict(q.d, bound, NOT_M_WIRE, report.counterexample)


@dataclass(frozen=True)
class PrimeVerdict:
    """Classification of one rational prime against S.

    kind is one of 'inert', 'norm', 'gcd_generated', 'unresolved'.  For
    gcd_generated, ``pair`` holds two norm values whose gcd is exactly p;
    for norm, ``rep`` holds an (a, b) with p = a^2 + |d| b^2.
    """

    p: int
    kind: str
    pair: tuple[int, int] | None = None
    rep: tuple[int, int] | None = None


@dataclass(frozen=True)
class SGenReport:
    d: int
    prime_bound: int
    search_bound: int
    verdicts: tuple[PrimeVerdict, ...]

    @property
    def unresolved(self) -> tuple[int, ...]:
        return tuple(v.p for v in self.verdicts if v.kind == "unresolved")

    @property
    def ok(self) -> bool:
        return not self.unresolved


def _gcd_pair(p: int, table: bytes) -> tuple[int, int] | None:
    """Pair of norm values in the table with gcd exactly p and minimal product.

    Rows are scanned ascending with product cutoffs, so the first hit per
    row is row-minimal and the retained pair is the global minimum (ties
    broken toward the smaller first member).  The multiples of p are pulled
    off the table lazily, only as far as the cutoffs reach.
    """
    multiples = tee(compress(range(p, len(table), p), table[p::p]), 1)[0]
    best: tuple[int, int, int] | None = None
    for m1 in multiples:
        if best is not None and m1 * m1 >= best[0]:
            break
        for m2 in chain((m1,), copy(multiples)):
            prod = m1 * m2
            if best is not None and prod >= best[0]:
                break
            if gcd(m1, m2) == p:
                best = (prod, m1, m2)
                break
    return (best[1], best[2]) if best else None


def s_wire_check(q: QuadOrder, prime_bound: int, search_bound: int) -> SGenReport:
    """Classify every prime up to prime_bound against S.

    Inert primes belong to S by construction and norm values are norms;
    any other prime must be recovered as the gcd of two norm values found
    within search_bound.  Primes that cannot be resolved are reported as
    unresolved rather than dropped.  Witnesses are re-verified before the
    report is assembled.

    The table grows on demand from reach = min(search_bound, _FIRST_REACH)
    while a prime has no pair or its pair's product P exceeds p * reach.
    That is exact: a multiple of p is at least p, so a pair with a member
    above reach has product above p * reach >= P and cannot beat or tie.
    reach doubles up to search_bound / 2, then jumps to search_bound, so the
    earlier tables sum to less than search_bound and an unresolved prime
    costs under two full-size builds.  Grown tables bypass the cache, so it
    never holds the series.  For D = 5 and 17 and the primes up to 2000,
    P / p is at most 11,922 and 41,979: no table grows.
    """
    if prime_bound < 2 or search_bound < 1:
        raise ValueError("bounds must be positive")
    reach = min(search_bound, _FIRST_REACH)
    table = _norm_table(q.d, reach)
    verdicts = []
    for p in primes_upto(prime_bound):
        if is_inert(q, p):
            verdicts.append(PrimeVerdict(p, "inert"))
            continue
        rep = norm_witness(q, p)
        if rep is not None:
            if q.norm(*rep) != p:
                raise TheoremViolation("norm witness failed re-verification")
            verdicts.append(PrimeVerdict(p, "norm", rep=rep))
            continue
        pair = _gcd_pair(p, table)
        while reach < search_bound and (pair is None or pair[0] * pair[1] // p > reach):
            reach = search_bound if 4 * reach > search_bound else 2 * reach
            table = _norm_table.__wrapped__(q.d, reach)
            pair = _gcd_pair(p, table)
        if pair is None:
            verdicts.append(PrimeVerdict(p, "unresolved"))
            continue
        w1, w2 = pair
        if gcd(w1, w2) != p or not is_norm(q, w1) or not is_norm(q, w2):
            raise TheoremViolation("gcd witness failed re-verification")
        verdicts.append(PrimeVerdict(p, "gcd_generated", pair=pair))
    return SGenReport(q.d, prime_bound, search_bound, tuple(verdicts))


def compose_norm_witnesses(q: QuadOrder, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Witness for the product of two norms:
    (a^2 + D b^2)(c^2 + D e^2) = (ac - D be)^2 + D (ae + bc)^2."""
    a, b = u
    c, e = v
    return (abs(a * c - q.D * b * e), abs(a * e + b * c))
