"""Finite commutative monoids with zero and closure maps on their powersets.

A closure map assigns to every subset X of the carrier a subset r(X).  The
verifiers below decide whether such a map is a weak ideal system

    (s1)  X*H is contained in r(X)
    (s2)  X within Y implies r(X) within r(Y)
    (s3)  r(r(X)) = r(X)
    (s4)  c*r(X) is contained in r(c*X)

an ideal system (equality in (s4)), and finitary (s5: r is the union of
the closures of the finite subsets, which is degenerate here since every
subset of a finite carrier is finite).  The family of all r-ideals, i.e.
the image of r, assembles into a multiplicative lattice with intersection
as meet, close-the-union as join and close-the-product as multiplication;
:func:`build_ideal_lattice` constructs it and asserts that theorem-backed
facts actually hold, raising TheoremViolation otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitset import bits, mask_from
from .lattice import FiniteLattice, _Carrier, verify_lattice
from .verdicts import LoadError, TheoremViolation, Verdict, Violation, _Recorder

# Closure maps are stored extensionally (one entry per subset), so the
# axiom checks are loops over 2^m table slots.
POWERSET_CAP = 16

# The laws of ClosureMap.laws that a weak ideal system need not satisfy.
_BEYOND_WEAK = ("s4-equality", "P", "U")


@dataclass(frozen=True)
class FiniteMonoid(_Carrier):
    """Commutative monoid with identity ``one`` and absorbing ``zero``."""

    names: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]
    one: int
    zero: int

    def __post_init__(self) -> None:
        if not self.names:
            raise LoadError("monoid carrier is empty")
        self._check_shape(self.one, self.zero)

    @cached_property
    def element_maps(self) -> tuple[tuple[int, ...], ...]:
        """``element_maps[c][X]`` is the product set c*X, for every element c
        and every subset X of the carrier (both as bitmasks).

        Built on first use by doubling: the subsets holding element i are
        those without it plus {i}, so c*(X + {i}) = c*X + {c*i}.
        """
        if self.n > POWERSET_CAP:
            raise ValueError(f"carrier size {self.n} exceeds powerset cap {POWERSET_CAP}")
        maps = []
        for row in self.mul:
            cmap = [0]
            for product in row:
                bit = 1 << product
                cmap += [v | bit for v in cmap]
            maps.append(tuple(cmap))
        return tuple(maps)


def subset_product(mon: FiniteMonoid, xm: int, ym: int) -> int:
    """Elementwise product set {x*y : x in X, y in Y} as a bitmask, the
    union of the element maps x*Y over x in X; a carrier above
    POWERSET_CAP has no element maps and raises ValueError."""
    out, maps = 0, mon.element_maps
    for x in bits(xm):
        out |= maps[x][ym]
    return out


@dataclass(frozen=True)
class ClosureMap:
    """Extensional map from every subset of the carrier to a subset."""

    monoid: FiniteMonoid
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.monoid.n
        if m > POWERSET_CAP:
            raise ValueError(f"carrier size {m} exceeds powerset cap {POWERSET_CAP}")
        if len(self.table) != 1 << m:
            raise LoadError("closure table must cover the whole powerset")
        if min(self.table) < 0 or max(self.table) > self.monoid.full:
            raise LoadError("closure table references an unknown element")

    def ideals(self) -> tuple[int, ...]:
        """Distinct image subsets, ascending by bitmask."""
        return tuple(sorted(set(self.table)))

    @cached_property
    def laws(self) -> dict[str, Violation]:
        """:func:`_scan_laws` of this map, run on first use (read only): the
        map's one cache, which every verifier below reads."""
        return _scan_laws(self)


def _scan_laws(r: ClosureMap) -> dict[str, Violation]:
    """Law -> its first violation, for every closure-map law that fails, in
    one walk over X and, for each X, every element e, reading r(X | {e})
    and the product e*X at each step.

    The per-X laws (extensivity, s1, s3; then s2, where r(X) within
    r(X | {e})) keep their first failure in the walk's order, X and then
    e.  For a = e*r(X) and b = r(e*X), (s4) a within b, its equality
    a = b and (P) r(a) = b, and (U) r(r(X) | {e}) = r(X | {e}), keep their
    least failing (e, X), e first: the walk meets each e's least X first,
    so a witness is replaced only when a smaller e fails.  The per-X laws
    come first, in first-failure order, then s4, s4-equality, P and U.
    """
    mon, table = r.monoid, r.table
    m, multiples, record, sn = mon.n, _multiples(mon), _Recorder(), mon.subset_names
    rows = [(e, 1 << e, cmap) for e, cmap in enumerate(mon.element_maps)]
    s4 = equality = p = u = m  # each pair law's least failing e, or m
    s4x = equality_x = px = ux = 0
    for x, tx in enumerate(table):
        if x & ~tx:
            record("extensivity", (sn(x),), "X is not contained in r(X)")
        if multiples[x] & ~tx:
            record("s1", (sn(x),), "X*H is not contained in r(X)")
        if table[tx] != tx:
            record("s3", (sn(x),), "r is not idempotent")
        for e, bit, cmap in rows:
            rxe = table[x | bit]
            if tx & ~rxe:  # never when e is in X
                record("s2", (sn(x), sn(x | bit)), "r is not monotone")
            if table[tx | bit] != rxe and e < u:
                u, ux = e, x
            a, b = cmap[tx], table[cmap[x]]
            if a != b:
                if e < equality:
                    equality, equality_x = e, x
                if a & ~b and e < s4:
                    s4, s4x = e, x
            if table[a] != b and e < p:
                p, px = e, x
    for law, e, x, detail in (("s4", s4, s4x, "c*r(X) is not contained in r(c*X)"),
                              ("s4-equality", equality, equality_x, "c*r(X) != r(c*X)"),
                              ("P", p, px, "r(Xc) != r(r(X)c)"), ("U", u, ux, "r(X|{b}) != r(r(X)|{b})")):
        if e < m:
            record(law, (mon.names[e], sn(x)), detail)
    return record


def _require_weak(r: ClosureMap) -> None:
    if failed := [law for law in r.laws if law not in _BEYOND_WEAK]:
        raise ValueError("not a weak ideal system: " + ", ".join(failed))


def _multiples(mon: FiniteMonoid) -> tuple[int, ...]:
    # X*H = the union of the rows x*H over x in X, built by doubling
    multiples = [0]
    for cmap in mon.element_maps:
        row = cmap[-1]
        multiples += [v | row for v in multiples]
    return tuple(multiples)


def verify_weak_ideal_system(r: ClosureMap) -> Verdict:
    """Check (s1)-(s4) over the whole powerset, one witness per axiom,
    read from the map's :attr:`ClosureMap.laws`.

    Monotonicity (s2) is decided through single-element extensions, which
    is equivalent on a finite powerset and keeps the scan linear in the
    table.  X within r(X) follows from (s1) since the identity is in H; it
    is still asserted separately so a broken table names the cheapest law.
    """
    violations = tuple(v for law, v in r.laws.items() if law not in _BEYOND_WEAK)
    return Verdict(not violations, violations)


def verify_ideal_system(r: ClosureMap) -> Verdict:
    """Equality form of (s4): c*r(X) = r(c*X) for all c and X, read from
    the map's :attr:`ClosureMap.laws`.

    Rejects maps that are not weak ideal systems; run the weak check first.
    """
    _require_weak(r)
    if failed := r.laws.get("s4-equality"):
        return Verdict(False, (failed,))
    return Verdict(True)


def verify_finitary(r: ClosureMap) -> Verdict:
    """(s5) literally: r(X) must equal the union of r(Z) over finite Z within X.

    Every subset of a finite carrier is finite, so that union holds r(X) and
    exceeds it exactly when r(Z) is not within r(X) for some Z within X;
    walking down maximal proper subsets, exactly when r(X minus {i}) is not
    within r(X) for some member i.  That is the single-element (s2) step of
    :func:`_scan_laws`, so a weak ideal system passes without a second
    scan, and any other map is rejected with ValueError.
    """
    _require_weak(r)
    return Verdict(True)


@dataclass(frozen=True)
class IdealLattice:
    """All r-ideals of a closure map, assembled as a multiplicative lattice."""

    monoid: FiniteMonoid
    ideals: tuple[int, ...]
    lattice: FiniteLattice

    def members(self, k: int) -> tuple[str, ...]:
        return self.monoid.subset_names(self.ideals[k])


def build_ideal_lattice(r: ClosureMap) -> IdealLattice:
    """Collect the image of r and order it by inclusion.

    Meet is intersection, join closes the union, multiplication closes the
    elementwise product.  All facts that must hold for a verified weak
    ideal system (meet-closedness of the image, the lattice axioms, the
    generating submonoid of principal closures) are asserted here and
    raise TheoremViolation when broken: such a failure means the map or
    this code is buggy, not that the input was merely uninteresting.
    """
    _require_weak(r)
    mon, table = r.monoid, r.table
    full = mon.full
    ideals = r.ideals()
    pos = {v: k for k, v in enumerate(ideals)}
    k = len(ideals)
    if table[full] != full:
        raise TheoremViolation("r(H) must be H for an extensive map")

    for i in range(k):
        for j in range(i + 1, k):
            if ideals[i] & ideals[j] not in pos:
                raise TheoremViolation(
                    "intersection of r-ideals escaped the image: "
                    f"{mon.subset_names(ideals[i])} and {mon.subset_names(ideals[j])}")

    up = [mask_from(j for j, vj in enumerate(ideals) if vi & ~vj == 0) for vi in ideals]
    mul_rows = [tuple(pos[table[subset_product(mon, vi, vj)]] for vj in ideals) for vi in ideals]
    names = tuple("{" + ",".join(mon.subset_names(v)) + "}" for v in ideals)
    lat = FiniteLattice(names, tuple(up), tuple(mul_rows), pos[table[0]], pos[full])

    verdict = verify_lattice(lat)
    if not verdict.passed:
        raise TheoremViolation(
            f"r-ideals do not form a multiplicative lattice: {verdict.violations[0]}")
    join2 = lat._tables[0]
    for i in range(k):
        for j in range(i, k):
            if join2[i][j] != pos[table[ideals[i] | ideals[j]]]:
                raise TheoremViolation("join of ideals differs from closing the union")
    _check_product_interchange(r)
    # principal closures form a generating submonoid (all elements of a
    # finite ideal family are compact, so the finitary clause is automatic);
    # r(r(a)r(b)) is the ideal product of the principal closures r(a), r(b)
    principal = [pos[table[1 << a]] for a in range(mon.n)]
    for a, pa in enumerate(principal):
        for b, pb in enumerate(principal):
            if mul_rows[pa][pb] != principal[mon.mul[a][b]]:
                raise TheoremViolation("principal closures are not closed under products")
    for v in ideals:
        union = 0
        for a in bits(v):
            union |= ideals[principal[a]]
        if table[union] != v:
            raise TheoremViolation("principal closures fail to generate the ideal lattice")
    return IdealLattice(mon, ideals, lat)


def _check_product_interchange(r: ClosureMap) -> None:
    """Raise TheoremViolation unless r(XY) = r(r(X)r(Y)) for all subsets X, Y.

    The 4^m pairs are decided by two scans of m*2^m lookups each (| is union):

        (P)  r(Xc) = r(r(X)c)            for every subset X and element c
        (U)  r(X | {b}) = r(r(X) | {b})  for every subset X and element b

    By induction on |B|, (U) gives r(A | B) = r(r(A) | B) for nonempty B:
    r(A | B' | {b}) = r(r(A | B') | {b}) = r(r(r(A) | B') | {b}) =
    r(r(A) | B' | {b}).  So r(Xc | S) = r(r(Xc) | S) = r(r(r(X)c) | S) =
    r(r(X)c | S) for nonempty S, and for empty S this is (P).  XY is the
    union of Xc over c in Y, so replacing one Xc at a time gives
    r(XY) = r(r(X)Y), and by commutativity r(r(X)Y) = r(r(Y)r(X)) =
    r(r(X)r(Y)).  Nothing here assumes a weak ideal system; on one, (P)
    follows from extensivity and (s4) and (U) from (s2) and (s3), so the
    scans also cross-check the weak verdict.  Both are read from the map's
    :attr:`ClosureMap.laws`, the walk that decides (s1)-(s4).
    """
    for law, element in (("P", "c"), ("U", "b")):
        if failed := r.laws.get(law):
            name, subset = failed.witness
            raise TheoremViolation(f"({law}) {failed.detail} at X={subset} {element}={name}")
