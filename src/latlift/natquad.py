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

The norm image, the division-closure check and the s-wire check each read
a membership table that _norm_table builds or extends; the growth of the
division-closure table and its proofs are in division_closure_check, the
growth of the s-wire table in s_wire_check.  The re-verification of each
witness never reads the table.
"""

from __future__ import annotations

from copy import copy
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, compress, tee
from math import gcd, isqrt

from .verdicts import TheoremViolation

NOT_M_WIRE = "NOT-M-WIRE"
M_WIRE_CONSISTENT = "CONSISTENT-WITH-M-WIRE-UP-TO-BOUND"

# Swaps the bytes 0 and 1: the table's complement, "v is not a norm".
_SWAP = bytes.maketrans(b"\0\1", b"\1\0")

# Size of the prefix table of division_closure_check, in multiples of |d|.
_PREFIX_FACTOR = 16

# The largest |d| accepted: QuadOrder tests squarefreeness by trial division
# up to sqrt(|d|), which takes about 0.3 s at |d| = 10^12 + 2.
_D_CAP = 10**12 + 2


# ----- the divisibility lattice ----------------------------------------


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
    the ring of integers away from Z[sqrt(d)].  |d| is capped at _D_CAP.
    """

    d: int

    def __post_init__(self) -> None:
        if self.d >= 0:
            raise ValueError("d must be negative")
        if -self.d > _D_CAP:
            raise ValueError(f"|d| must be at most {_D_CAP}")
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


def norm_witness(q: QuadOrder, n: int) -> tuple[int, int] | None:
    """An (a, b) with a^2 + |d| b^2 = n, scanning b upward, or None."""
    if n < 0:
        return None
    D = q.D
    b = 0
    while D * b * b <= n:
        rem = n - D * b * b
        a = isqrt(rem)
        if a * a == rem:
            return (a, b)
        b += 1
    return None


def is_norm(q: QuadOrder, n: int) -> bool:
    return norm_witness(q, n) is not None


def _norm_table(d: int, bound: int, table: bytearray | None = None) -> bytearray:
    """Byte v (0 <= v <= bound) is 1 iff v > 0 and v = a^2 + |d| b^2: each
    row b marks |d| b^2 + a^2 for the precomputed squares a^2 that fit.  A
    table of smaller reach is copied into the new array, never resized (a
    memoryview may export it), and the rows mark only the values past it."""
    grown, reach = bytearray(bound + 1), 0
    if table is not None:
        reach = len(table) - 1
        grown[:reach + 1] = table
    squares = [a * a for a in range(isqrt(bound) + 1)]
    for b in range(isqrt(bound // -d) + 1):
        base = -d * b * b
        first = isqrt(reach - base) + 1 if base <= reach else 0
        for square in squares[first:isqrt(bound - base) + 1]:
            grown[base + square] = 1
    return grown


def norm_image(q: QuadOrder, bound: int) -> tuple[int, ...]:
    """Sorted distinct norm values in [1, bound], read off the norm table."""
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
    """The primes up to n, from a sieve of n + 1 bytes; a sieve too large for
    memory raises ValueError."""
    if n < 2:
        return []
    try:
        composite = bytearray(n + 1)
        composite[:2] = b"\1\1"
        for i in range(2, isqrt(n) + 1):
            if not composite[i]:
                composite[i * i::i] = b"\1" * len(range(i * i, n + 1, i))
        return list(compress(range(n + 1), composite.translate(_SWAP)))
    except (MemoryError, OverflowError):
        raise ValueError(f"prime bound {n} is too large: its sieve does not fit in memory") from None


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
    return _inert(q, p)


def _inert(q: QuadOrder, p: int) -> bool:
    """is_inert for a p already known to be prime."""
    return p != 2 and q.D % p != 0 and _legendre(q.d, p) == -1


# ----- reduced forms ---------------------------------------------------


def reduced_forms(D: int) -> Iterator[tuple[int, int, int]]:
    """The reduced forms (a, b, c) of discriminant b^2 - 4ac = -4D, in
    ascending a, then b: |b| <= a <= c, with b >= 0 when |b| = a or a = c.

    b is even, b = 2h, so c = (h^2 + D) / a; |b| <= a <= c gives
    4D = 4ac - b^2 >= 3a^2, which ends the walk over a.  For the D that
    QuadOrder accepts (squarefree, 1 or 2 mod 4) every form of discriminant
    -4D is primitive, and each class of forms holds exactly one reduced form.
    """
    a = 1
    while 3 * a * a <= 4 * D:
        for h in range(-((a - 1) // 2), a // 2 + 1):
            c, r = divmod(h * h + D, a)
            if r == 0 and (c > a or c == a and h >= 0):
                yield a, 2 * h, c
        a += 1


def _all_ambiguous(D: int) -> bool:
    """Whether every reduced form of discriminant -4D is ambiguous (b = 0,
    b = a or a = c), that is, whether the class group has exponent at most
    2; the walk stops at the first form that is not."""
    return all(b == 0 or b == a or a == c for a, b, c in reduced_forms(D))


# ----- division closure and the wire checks ----------------------------


@dataclass(frozen=True)
class DivisionClosureReport:
    """Outcome of the bounded division-closure scan of the norm image.

    ``counterexample`` is the smallest failing pair (n, m, m // n) in
    lexicographic (divisor, multiple) order, or None when the image is
    closed up to the bound.
    """

    closed: bool
    counterexample: tuple[int, int, int] | None

    @property
    def verdict(self) -> str:
        """The bounded verdict on whether S can be an M-wire of the
        divisibility lattice: a closed image is evidence up to the bound
        only, a counterexample refutes (M)."""
        return M_WIRE_CONSISTENT if self.closed else NOT_M_WIRE


def _divisors(d: int, table: bytearray, split: int, free: bytearray) -> Iterator[int]:
    """The norm-free norms 2 <= n <= split of table, ascending, but the p^2
    that division_closure_check skips; the multiples of every norm-free norm
    are cleared from ``free`` (split + 1 bytes, all set) as the walk passes it."""
    for n in compress(range(2, split + 1), table[2:split + 1]):
        if free[n]:
            root = isqrt(n)
            if root * root != n or root > 2 and _legendre(d, root) == 1:
                yield n
            free[n::n] = bytes(split // n)


def _first_hit(table: bytearray, divisors: list[int]) -> tuple[int, int] | None:
    """The first of the ascending divisors n with a k >= 2 such that k n is a
    norm of table and k is not, with its least k, or None: one AND each with
    "k is not a norm" up to (len(table) - 1) // divisors[0], one big int."""
    if not divisors:
        return None
    missing = int.from_bytes(table[2:(len(table) - 1) // divisors[0] + 1].translate(_SWAP), "little")
    for n in divisors:
        hits = int.from_bytes(table[2 * n::n], "little") & missing
        if hits:
            return n, 2 + ((hits & -hits).bit_length() - 1) // 8
    return None


def _bounded_pair(d: int, table: bytearray) -> tuple[int, int] | None:
    """(n, k) of the least counterexample in the norm table of d by the two
    scans of division_closure_check, or None; the bound is len(table) - 1."""
    bound = len(table) - 1
    half = bound // 2
    split = min(4 * isqrt(bound), half)
    free = bytearray(b"\1") * (split + 1)
    if hit := _first_hit(table, list(_divisors(d, table, split, free))):
        return hit
    best = None
    low = split + 1
    top = bound // low
    upper = int.from_bytes(table[low:half + 1], "little")
    for k in compress(range(2, top + 1), free[2:top + 1]):
        high = bound // k if best is None else min(bound // k, best[0] - 1)
        hits = upper & int.from_bytes(table[k * low:k * high + 1:k], "little")
        if hits:
            best = (low + ((hits & -hits).bit_length() - 1) // 8, k)
    return best


def _least_pair(q: QuadOrder, bound: int) -> tuple[int, int] | None:
    """(n, k) of the least counterexample of division_closure_check, or None."""
    reach = min(bound, _PREFIX_FACTOR * q.D)
    table = _norm_table(q.d, reach)
    while True:
        if reach < bound:
            half = reach // 2
            n1 = next(_divisors(q.d, table, half, bytearray(b"\1") * (half + 1)), None)
            if n1 is not None and (hit := _first_hit(table, [n1])):
                return hit
        if _all_ambiguous(q.D):
            if _bounded_pair(q.d, table) is not None:
                raise TheoremViolation(
                    f"the bounded scan up to {reach} refutes the exact closed verdict for d = {q.d}")
            return None
        if reach == bound:
            return _bounded_pair(q.d, table)
        reach = min(2 * reach, bound)
        table = _norm_table(q.d, reach, table)


def division_closure_check(q: QuadOrder, bound: int) -> DivisionClosureReport:
    """Scan the norm image up to bound for nested values whose quotient is
    not a norm.

    One loop decides (_least_pair).  It starts at reach = min(bound,
    _PREFIX_FACTOR |d|), and each pass builds the table of reach values
    once.  Below bound, n1 is tested there (Prefix, below), which answers
    most D.  Next the reduced forms are consulted: when they call the image
    closed (Exact closed verdict), the bounded scan on this table
    cross-checks them.  At bound, the bounded scan runs on the table of
    (d, bound); below it, reach = min(2 reach, bound) and the loop repeats.
    The counterexample is re-verified arithmetically, without the table,
    before being returned.

    Bounded scan (_bounded_pair): the divisors split at split =
    min(4 isqrt(bound), bound // 2).  A value v is norm-free when no norm a
    with 2 <= a < v divides it.  For each norm-free norm 2 <= n <= split,
    ascending, the set bits of (table[k*n] and not table[k]) over
    k = 2..bound//n are one big-int AND whose lowest bit is the smallest
    quotient k, so the first hit is the lexicographically smallest
    counterexample.  Larger divisors have quotients k <= bound // (split + 1):
    for each norm-free non-norm k, ascending, the lowest set bit of
    (table[n] and table[k*n]) over n = split+1..bound//k is the smallest n
    for that k; the least n wins, the smaller k on a tie.

    Any split in [1, bound // 2] gives the same counterexample: a pair with
    n > split has k <= bound // (split + 1).  Norms are sparse among small n
    and non-norms dense among small k, so the split sits above sqrt(bound).
    On the benchmark the scan runs only as the cross-check of the 28
    idoneal D < 300, on their prefix tables of 16 D values, where no
    divisor hits: a pass over the 28 took 0.46, 0.38, 0.44, 0.59 and 0.90 ms
    for split = c isqrt(bound), c = 1, 2, 4, 8, 16, and 1.10 ms for one scan
    to bound // 2 (medians of 31; Python 3.11.7, 2 cores).

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

    Lemma: let p be prime with p = 2, p | D or (-D | p) = -1 (p inert).
    If p^2 k = a^2 + D b^2, then p | a and p | b, so k = (a/p)^2 + D (b/p)^2
    is a norm and p^2 is never the divisor of a counterexample.  p = 2:
    D = 1 or 2 (mod 4) leaves a^2 + D b^2 = 0 (mod 4) only for a and b even.
    p | D: p | a, so p^2 | D b^2, and p | b as D is squarefree.  p inert:
    p | b, else -D = (a/b)^2 (mod p); then p | a.  A norm-free square r^2
    has r prime (s^2 divides it for each s | r), so the first scan skips a
    norm-free n = r^2 with r = 2 or (d | r) != 1.  A split r is not covered:
    D = 17, r = 3 gives (9, 18, 2).  n1, the least divisor the scan does not
    skip, is 2 for D = 1 and 2, D for D = 5 and 6, and at least 9 above, as
    4 is skipped.

    Prefix: the first table, of reach values, usually decides.  The least
    counterexample has a norm-free divisor, and the norm-free norms below
    n1 all are skipped squares, which never fail: if n1 <= reach // 2 has a
    least hit k with k n1 <= reach, (n1, k n1, k) is the least
    counterexample at every bound >= reach.

    Exact closed verdict: when n1 does not answer, the image is closed at
    every bound if every reduced form of discriminant -4D (D = |d|) is
    ambiguous: b = 0, b = a or a = c (reduced_forms).  The bounded scan at
    reach, on the same table, must then find no pair, or the check raises
    TheoremViolation.  Proof: every class holds one reduced form, and the
    inverse of the class of (a, b, c) is that of (a, -b, c).  For an
    ambiguous form the two are equivalent; otherwise (a, -b, c) is reduced
    and different.  So every form is ambiguous
    exactly when the class group has exponent at most 2, which holds
    exactly for Euler's idoneal numbers (Cox, Primes of the form
    x^2 + ny^2, sections 2-3).  For squarefree D = 1, 2 (mod 4), Z[sqrt(d)]
    is the maximal order of discriminant -4D.  Let n | m be norms and
    k = m / n.  Every inert prime divides both norms to an even power, so
    it divides k to an even power, and k is the norm of some ideal.  All
    ideals of norm k lie in one class c(k): ramified and inert primes each
    have a unique ideal above them, and for a split p = P P',
    [P'] = [P]^-1 = [P] when the exponent is at most 2.  This covers
    quotients that share a factor with 4D.  c is multiplicative in k, and
    trivial for the norms m and n: (alpha) with N(alpha) = m is a principal
    ideal of norm m.  So c(k) = c(m) c(n)^-1 is trivial: some principal
    (gamma) has N(gamma) = k, and k is a norm.  Only this direction is
    used; a D with a form that is not ambiguous gets the doubled tables,
    each consulting the forms again, then the bounded scan at bound.

    At bound max(200000, 50 D) each of the 773 D < 2000 with a
    counterexample has its multiple below 9.7 D (D = 298: (169, 2873, 17)),
    so the prefix answers it, and the 34 closed D are idoneal, decided from
    their reduced forms and cross-checked in the prefix table: no D < 2000
    builds a table beyond 16 D.  Deciding the forms of all 807 D takes
    about 0.01 s, and at most about 4 ms for one admissible D < 2 10^5
    (Python 3.11.7, 2 cores).  Of the 8105 admissible D < 20000 only
    D = 11302 doubles its prefix: (2209, 227527, 103) lies at 20.1 D.

    The "not a norm" prefix, up to bound // n for the first divisor n, and
    the table over n = split+1..bound//2 are each converted to a big int
    once.  & of two non-negative ints walks the shorter one, so ANDing a
    strided slice with a whole prefix costs no more than with the matching
    part.
    """
    if bound < q.D:
        raise ValueError("bound must be at least |d|")
    best = _least_pair(q, bound)
    if best is None:
        return DivisionClosureReport(True, None)
    n, quotient = best
    m = quotient * n
    if (norm_witness(q, n) is None or norm_witness(q, m) is None
            or m % n != 0 or is_norm(q, quotient)):
        raise TheoremViolation("division counterexample failed re-verification")
    return DivisionClosureReport(False, (n, m, quotient))


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
    verdicts: tuple[PrimeVerdict, ...]

    @property
    def unresolved(self) -> tuple[int, ...]:
        return tuple(v.p for v in self.verdicts if v.kind == "unresolved")

    @property
    def ok(self) -> bool:
        return not self.unresolved


def _gcd_pair(p: int, table: bytearray) -> tuple[int, int] | None:
    """Pair of norm values in the table with gcd exactly p and minimal product.

    Rows are scanned ascending with product cutoffs, so the first hit per
    row is row-minimal and the retained pair is the global minimum (ties
    broken toward the smaller first member).  The multiples of p are pulled
    off the table lazily, only as far as the cutoffs reach.
    """
    multiples = tee(compress(range(p, len(table), p), memoryview(table)[p::p]), 1)[0]
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

    The table starts at reach 1 and grows to reach = min(2 reach,
    search_bound) while a prime has no pair or its pair's product P exceeds
    p * reach.  That is exact: a pair with a member above reach has product
    above p * reach >= P, as its other member is at least p.  D = 5 and 17
    end at 16,384 and 65,536 values for the primes up to 2000.

    "unresolved" only ever means that search_bound was too small.  A prime
    p that is neither inert nor a norm splits or ramifies, so p = N(P) for
    a prime ideal P, which is not principal, else p would be a norm.  The
    class of P^-1 holds prime ideals Q1 and Q2 of prime norms q1 != q2,
    both other than p (Weber's theorem: every primitive form represents
    infinitely many primes).  P Q1 and P Q2 are then principal, so p q1 and
    p q2 are norm values, and their gcd is p.
    """
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    if search_bound < 1:
        raise ValueError("search bound must be positive")
    reach, table = 1, _norm_table(q.d, 1)
    verdicts = []
    for p in primes_upto(prime_bound):
        if _inert(q, p):
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
            reach = min(2 * reach, search_bound)
            table = _norm_table(q.d, reach, table)
            pair = _gcd_pair(p, table)
        if pair is None:
            verdicts.append(PrimeVerdict(p, "unresolved"))
            continue
        w1, w2 = pair
        if gcd(w1, w2) != p or not is_norm(q, w1) or not is_norm(q, w2):
            raise TheoremViolation("gcd witness failed re-verification")
        verdicts.append(PrimeVerdict(p, "gcd_generated", pair=pair))
    return SGenReport(tuple(verdicts))
