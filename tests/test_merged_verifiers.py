"""The shared verifier code against the per-verifier loops it replaced.

``verify_lattice`` runs its laws through one violation recorder and one
bound search; the lattice gate ``FiniteLattice._tables`` runs its order
laws, with the declared bot and top; the loader and the enumerator share
one transitive-closure pass.  The reference functions below are the separate loops the verifier
used to run, kept here as the definition the shared code must reproduce:
same verdict, same violations in the same order, same witnesses and
details, on random carriers that need not be partial orders or lattices
at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latlift import FiniteLattice, Verdict, Violation, verify_lattice
from latlift.bitset import bits
from latlift.lattice import _closure_step


class Reference:
    """First violation per law, in first-failure order, from a list and a set."""

    def __init__(self):
        self.out, self.seen = [], set()

    def __call__(self, law, witness, detail=""):
        if law not in self.seen:
            self.seen.add(law)
            self.out.append(Violation(law, witness, detail))

    def verdict(self):
        return Verdict(not self.out, tuple(self.out))


def _least(up, mask):
    for u in bits(mask):
        if mask & ~up[u] == 0:
            return u
    return None


def _greatest(up, mask):
    for u in bits(mask):
        if all(up[i] >> u & 1 for i in bits(mask)):
            return u
    return None


def reference_verify_lattice(lat):
    n, names, mul, up = lat.n, lat.names, lat.mul, lat.up
    record = Reference()
    for i in range(n):
        if not lat.le(i, i):
            record("reflexivity", (names[i],))
    for i in range(n):
        for j in range(n):
            if i != j and lat.le(i, j) and lat.le(j, i):
                record("antisymmetry", (names[i], names[j]))
            for k in range(n):
                if lat.le(i, j) and lat.le(j, k) and not lat.le(i, k):
                    record("transitivity", (names[i], names[j], names[k]))
    for i in range(n):
        if not lat.le(lat.bot, i):
            record("least-element", (names[i],), "bot is not below every element")
        if not lat.le(i, lat.top):
            record("greatest-element", (names[i],), "top is not above every element")
    join2 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            u = _least(up, up[i] & up[j] & lat.full)
            if u is None:
                record("join-existence", (names[i], names[j]), "pair has no least upper bound")
            join2[i][j] = join2[j][i] = u
            lower = sum(1 << k for k in range(n) if up[k] >> i & 1 and up[k] >> j & 1)
            if _greatest(up, lower) is None:
                record("meet-existence", (names[i], names[j]), "pair has no greatest lower bound")
    for i in range(n):
        if mul[lat.top][i] != i:
            record("identity", (names[i],), "top must be the multiplicative identity")
        if mul[lat.bot][i] != lat.bot:
            record("annihilation", (names[i],), "bot must absorb products")
        for j in range(n):
            if mul[i][j] != mul[j][i]:
                record("commutativity", (names[i], names[j]))
            for k in range(n):
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    record("associativity", (names[i], names[j], names[k]))
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                jbc = join2[b][c]
                if jbc is None:
                    continue
                rhs = join2[mul[a][b]][mul[a][c]]
                if rhs is None or mul[a][jbc] != rhs:
                    record("distributivity", (names[a], names[b], names[c]), "a(b v c) != ab v ac")
    return record.verdict()


def reference_closure(up):
    """The loader's former fixpoint loop, and whether up was closed already."""
    up, closed, changed = list(up), True, True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed, closed = True, False
    return up, closed


@st.composite
def carriers(draw):
    """Size, random up masks (any relation), random product table, two picks."""
    n = draw(st.integers(1, 5))
    up = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    mul = tuple(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))) for _ in range(n))
    return n, up, mul, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@st.composite
def lattice_like(draw):
    """Mostly-lawful carriers: a random order closed to a preorder half the
    time, so the existence, unit and distributivity laws get reached."""
    n, up, mul, bot, top = draw(carriers())
    if draw(st.booleans()):
        up = [row | 1 << i | 1 << top for i, row in enumerate(up)]
        up[bot] = (1 << n) - 1
        up = tuple(reference_closure(up)[0])
    if draw(st.booleans()):
        mul = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return n, up, mul, bot, top


@settings(max_examples=300, deadline=None)
@given(st.one_of(carriers(), lattice_like()))
def test_verify_lattice_matches_the_reference_loops(carrier):
    n, up, mul, bot, top = carrier
    lat = FiniteLattice(tuple(map(str, range(n))), up, mul, bot, top)
    assert verify_lattice(lat) == reference_verify_lattice(lat)


ORDER_LAWS = ("reflexivity", "antisymmetry", "transitivity", "least-element", "greatest-element",
              "join-existence", "meet-existence")


@settings(max_examples=300, deadline=None)
@given(st.one_of(carriers(), lattice_like()))
def test_lattice_gate_rejects_exactly_the_order_law_failures(carrier):
    n, up, mul, bot, top = carrier
    lat = FiniteLattice(tuple(map(str, range(n))), up, mul, bot, top)
    order_fails = any(law in ORDER_LAWS for law in reference_verify_lattice(lat).laws)
    try:
        lat._tables
    except ValueError as caught:
        assert order_fails and str(caught) == "carrier is not a lattice"
    else:
        assert not order_fails


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_closure_step_matches_the_fixpoint_loop(up):
    expected, closed = reference_closure(up)
    work = list(up)
    assert _closure_step(work) is not closed
    while _closure_step(work):
        pass
    assert work == expected
