"""Wires of a multiplicative lattice and the weak ideal systems they induce.

A wire is a multiplicatively closed subset H containing both bot and top
whose joins recover every lattice element.  Closing a subset X of H to

    H intersect [0, join(X)]

yields a weak ideal system on the monoid (H, *, top, bot) whose ideal
lattice is isomorphic to the original lattice through the mutually inverse
pair f(X) = join(X) and g(y) = H intersect [0, y].  The system satisfies
the ideal-system equality exactly when H also satisfies condition (M):
whenever s <= t*a with s, t in H there is some u in H below a with
s = t*u.  Everything certifiable here is certified at construction time;
broken certificates raise TheoremViolation instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .bitset import bits, mask_from
from .lattice import ElementFlags, FiniteLattice, classify_element, is_domain, verify_lattice
from .monoid import (
    POWERSET_CAP,
    ClosureMap,
    FiniteMonoid,
    IdealLattice,
    build_ideal_lattice,
    verify_finitary,
    verify_ideal_system,
    verify_weak_ideal_system,
)
from .verdicts import TheoremViolation


class WireError(ValueError):
    """The given subset is not a wire, so it cannot be lifted."""


@dataclass(frozen=True)
class WireReport:
    """Verdicts for one candidate subset H of a lattice.

    ``m_witness`` is the lexicographically first (s, t, a) with
    s <= t*a but no u in H below a satisfying s = t*u; it is present
    exactly when H is a wire that fails condition (M).
    """

    subset: int
    contains_one: bool
    contains_zero: bool
    mult_closed: bool
    generates: bool
    is_wire: bool
    is_m_wire: bool
    m_witness: tuple[int, int, int] | None


def _wire_conditions(lat: FiniteLattice, subset: int) -> tuple[tuple[str, bool], ...]:
    """The four wire conditions of subset, each with its name when it fails."""
    if subset & ~lat.full:
        raise ValueError("subset lies outside the carrier")
    elems = list(bits(subset))
    return (("missing top", bool(subset >> lat.top & 1)),
            ("missing bot", bool(subset >> lat.bot & 1)),
            ("not multiplicatively closed", all(subset >> lat.mul[s][t] & 1 for s in elems for t in elems)),
            ("does not generate the lattice", _generates(lat, subset)))


def _m_condition(lat: FiniteLattice, elems: list[int]) -> tuple[bool, tuple[int, int, int] | None]:
    up, downs, mul = lat.up, lat.downs, lat.mul
    # preimages[t][s] is the mask of the u in H with t*u = s, built once per t
    preimages = {t: [0] * lat.n for t in elems}
    for t in elems:
        for u in elems:
            preimages[t][mul[t][u]] |= 1 << u
    for s in elems:
        for t in elems:
            row, hits = mul[t], preimages[t][s]
            # some u in H below a has t*u = s exactly when hits meets [0, a]
            for a in range(lat.n):
                if up[s] >> row[a] & 1 and not hits & downs[a]:
                    return False, (s, t, a)
    return True, None


def analyze_wire(lat: FiniteLattice, subset: int) -> WireReport:
    """Check the four wire conditions and, for wires, condition (M).

    Generation means join(H intersect [0, x]) == x for every x, which is
    equivalent to x being a join of members of H.  The (M) witness is
    certified by :func:`verify_m_witness`.
    """
    held = [ok for _, ok in _wire_conditions(lat, subset)]
    is_m, witness = (False, None)
    if all(held):
        is_m, witness = _m_condition(lat, list(bits(subset)))
        if witness is not None and not verify_m_witness(lat, subset, witness):
            raise TheoremViolation("(M) witness failed re-verification")
    return WireReport(subset, *held, all(held), is_m, witness)


def _generates(lat: FiniteLattice, mask: int) -> bool:
    """Every element x is the join of the members of mask below it, exactly
    when mask holds every join-irreducible element: by induction each x is
    the join of those below it, and a join-irreducible x is not the join of
    a set below it without x, whose join lies below that of [0, x)."""
    return not lat.join_irreducibles & ~mask


def verify_m_witness(lat: FiniteLattice, subset: int, witness: tuple[int, int, int]) -> bool:
    """Recheck an (M)-failure triple independently of the scan that found it."""
    s, t, a = witness
    if not (subset >> s & 1 and subset >> t & 1 and lat.le(s, lat.mul[t][a])):
        return False
    box = subset & lat.downs[a]
    return not any(lat.mul[t][u] == s for u in bits(box))


def enumerate_wires(lat: FiniteLattice) -> Iterator[WireReport]:
    """All wires of the lattice (subsets containing bot and top), ascending
    by interior bitmask.  A wire generates, so it holds every
    join-irreducible element, and only the subsets that hold them are
    analysed.  The cap is the lift's, as the full carrier is a wire."""
    if lat.n > POWERSET_CAP:
        raise ValueError(f"carrier size {lat.n} exceeds powerset cap {POWERSET_CAP}")
    base = (1 << lat.bot) | (1 << lat.top) | lat.join_irreducibles
    others = [i for i in range(lat.n) if not base >> i & 1]
    for pick in range(1 << len(others)):
        report = analyze_wire(lat, base | mask_from(others[i] for i in bits(pick)))
        if report.is_wire:
            yield report


@dataclass(frozen=True)
class LiftResult:
    """A lifted weak ideal system together with its isomorphism certificate.

    ``iso_f[i]`` is the lattice element join(ideal i); ``iso_g[y]`` is the
    ideal index of H intersect [0, y]; ``ideal_system`` is the system's
    :func:`verify_ideal_system` verdict.  A returned value is certified;
    certification failures raise instead.
    """

    ideal_system: bool
    system: ClosureMap
    ideal_lattice: IdealLattice
    iso_f: tuple[int, ...]
    iso_g: tuple[int, ...]

    def ideal_members(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.ideal_lattice.members(k) for k in range(len(self.ideal_lattice.ideals)))


def _certify_isomorphism(lat: FiniteLattice, il: IdealLattice,
                         f: tuple[int, ...], g: tuple[int, ...]) -> None:
    """Certify f (ideal index -> lattice element) and g (lattice element ->
    ideal index) as mutually inverse multiplicative order isomorphisms."""
    k, mul, up = len(il.ideals), lat.mul, lat.up
    for i in range(k):
        if g[f[i]] != i:
            raise TheoremViolation("g o f is not the identity on ideals")
    for y in range(lat.n):
        if f[g[y]] != y:
            raise TheoremViolation("f o g is not the identity on the lattice")
    for i, (row, above) in enumerate(zip(il.lattice.mul, il.lattice.up)):
        products, cone = mul[f[i]], up[f[i]]
        for j in range(k):
            if f[row[j]] != products[f[j]]:
                raise TheoremViolation("f is not multiplicative")
            if (above >> j & 1) != (cone >> f[j] & 1):
                raise TheoremViolation("f does not preserve and reflect the order")


def lift(lat: FiniteLattice, subset: int) -> LiftResult:
    """Materialize the closure X -> H intersect [0, join(X)] over the wire H.

    The returned system is verified as a weak ideal system, its ideal
    lattice is built and the isomorphism onto the original lattice is
    certified; any failure of these guaranteed steps raises
    TheoremViolation.  A carrier that is not a lattice, or (found when a
    certificate fails) not a multiplicative one, is rejected with
    ValueError, and non-wires with WireError.  The certificate's maps are
    read off the two tables the closure is built from: f(X) = joins[X] and
    g(y) = cut[y].
    """
    join2 = lat._tables[0]  # raises ValueError on a non-lattice
    if missing := [name for name, ok in _wire_conditions(lat, subset) if not ok]:
        raise WireError(
            f"subset {{{','.join(lat.subset_names(subset))}}} is not a wire: " + "; ".join(missing))
    elems = list(bits(subset))
    if len(elems) > POWERSET_CAP:
        raise ValueError(f"wire size {len(elems)} exceeds powerset cap {POWERSET_CAP}")
    pos = {e: i for i, e in enumerate(elems)}
    rows = tuple(tuple(pos[lat.mul[s][t]] for t in elems) for s in elems)
    monoid = FiniteMonoid(tuple(lat.names[e] for e in elems), rows, pos[lat.top], pos[lat.bot])

    # cut[v] is H intersect [0, v] in monoid coordinates
    cut = [mask_from(pos[e] for e in bits(down & subset)) for down in lat.downs]
    # joins[X] = join(X), built by doubling over the binary join table:
    # the subsets holding member i are those without it plus {i}
    joins = [lat.bot]
    for e in elems:
        column = join2[e]
        joins += [column[j] for j in joins]
    system = ClosureMap(monoid, tuple(map(cut.__getitem__, joins)))

    try:
        weak = verify_weak_ideal_system(system)
        if not weak.passed:
            raise TheoremViolation(f"lifted closure map failed {weak.laws}")
        il = build_ideal_lattice(system)
        index = {v: i for i, v in enumerate(il.ideals)}
        for y, ideal in enumerate(cut):
            if ideal not in index:
                raise TheoremViolation(f"H intersect [0,{lat.names[y]}] is not an r-ideal")
        f = tuple(joins[v] for v in il.ideals)
        g = tuple(index[ideal] for ideal in cut)
        _certify_isomorphism(lat, il, f, g)
    except TheoremViolation:
        if laws := verify_lattice(lat).laws:
            raise ValueError(f"carrier is not a multiplicative lattice: {laws[0]} fails") from None
        raise
    return LiftResult(verify_ideal_system(system).passed, system, il, f, g)


# ----- equivalence and liftability sweeps ------------------------------


class LatticeWork:
    """Work the per-lattice oracles share, each piece done on first use:
    the wires are enumerated once, each wire (the full carrier included)
    is lifted once, and each element is classified once.

    Each ``check_*`` function reads its lattice and results from one
    instance; :func:`sweep_lattice` passes the same instance to all three.
    """

    def __init__(self, lat: FiniteLattice) -> None:
        self.lattice = lat
        self._lifts: dict[int, LiftResult] = {}

    @cached_property
    def wires(self) -> tuple[WireReport, ...]:
        return tuple(enumerate_wires(self.lattice))

    @cached_property
    def flags(self) -> tuple[ElementFlags, ...]:
        return tuple(classify_element(self.lattice, x) for x in range(self.lattice.n))

    def lift(self, subset: int) -> LiftResult:
        if subset not in self._lifts:
            self._lifts[subset] = lift(self.lattice, subset)
        return self._lifts[subset]


@dataclass(frozen=True)
class SweepReport:
    """The three oracles of :func:`sweep_lattice` on one lattice, in the
    corpus entry's key order: the wire counts, the M-wire / ideal-system
    mismatches, the finite readings of the compact-generation construction,
    and the liftability findings."""

    wires: int
    m_wires: int
    equivalence_violations: tuple[tuple[tuple[str, ...], bool, bool], ...]
    finitary_all: bool
    all_compact: bool
    liftability_findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (not self.equivalence_violations and self.finitary_all
                and self.all_compact and not self.liftability_findings)


def check_m_wire_ideal_equivalence(work: LatticeWork) -> tuple[tuple[tuple[str, ...], bool, bool], ...]:
    """For every wire H: the lift is an ideal system iff H satisfies (M).

    Each mismatch comes back as (wire names, is M-wire, is ideal system),
    never dropped; it signals a bug or a genuine discrepancy and callers
    should surface it loudly.
    """
    lat = work.lattice
    violations = []
    for report in work.wires:
        ideal_ok = work.lift(report.subset).ideal_system
        if ideal_ok != report.is_m_wire:
            violations.append((lat.subset_names(report.subset), report.is_m_wire, ideal_ok))
    return tuple(violations)


def check_liftability(work: LatticeWork) -> tuple[str, ...]:
    """Three liftability facts, checked directly.

    (a) the full carrier is a wire, so every lattice lifts to a weak ideal
        system (certification failures raise);
    (b) if any M-wire exists, the meet principal elements generate;
    (c) a domain generated by its principal elements lifts to an ideal
        system through the principal-element wire (bot and top are always
        principal, so the wire holds them, and submonoid-ness is verified
        rather than assumed).
    Implication failures come back as findings.
    """
    lat = work.lattice
    work.lift(lat.full)  # (a): raises unless certified
    flags = work.flags
    mp_mask = mask_from(x for x in range(lat.n) if flags[x].meet_principal)
    p_mask = mask_from(x for x in range(lat.n) if flags[x].principal)
    findings: list[str] = []
    if any(report.is_m_wire for report in work.wires) and not _generates(lat, mp_mask):
        findings.append("an M-wire exists but the meet principal elements do not generate")
    if is_domain(lat) and _generates(lat, p_mask):
        # p_mask holds the bounds: top's residuals are the identity, and every residual
        # of bot is top, so both are principal; with every join-irreducible, a wire iff closed
        h = p_mask
        report = next((report for report in work.wires if report.subset == h), None)
        if report is None:
            findings.append("principal elements are not closed under multiplication")
        elif not report.is_m_wire:
            findings.append("the principal-element wire is not an M-wire")
        elif not work.lift(h).ideal_system:
            findings.append("the principal-element wire lifts to a weak but not an ideal system")
    return tuple(findings)


# ----- finitary embedding ----------------------------------------------


def check_finitary_embedding(work: LatticeWork) -> tuple[bool, bool]:
    """The finite readings of the compact-generation construction, as the
    pair (every wire lifts to a finitary system, every element is compact).

    A lattice generated by compact elements embeds by x -> [0, x] into the
    ideal lattice of the finitary closure of its full-carrier lift.  On a
    finite carrier every element is compact and every subset is finite, so
    that closure is the lift itself and the embedding is the lift's
    certified isomorphism g, built by :func:`check_liftability` (a).  Left
    to check: every wire's lift passes :func:`verify_finitary`, and every
    element's flags read compact.
    """
    finitary_all = all(verify_finitary(work.lift(report.subset).system).passed
                       for report in work.wires)
    all_compact = all(flags.compact for flags in work.flags)
    return finitary_all, all_compact


def sweep_lattice(lat: FiniteLattice) -> SweepReport:
    """Equivalence, liftability and finitary embedding of one lattice, run
    on one :class:`LatticeWork`, so each wire is lifted once for all three."""
    work = LatticeWork(lat)
    violations = check_m_wire_ideal_equivalence(work)
    findings = check_liftability(work)
    finitary_all, all_compact = check_finitary_embedding(work)
    m_wires = sum(report.is_m_wire for report in work.wires)
    return SweepReport(len(work.wires), m_wires, violations, finitary_all, all_compact, findings)
