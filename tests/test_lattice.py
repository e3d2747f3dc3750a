import json
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlift import (
    ElementFlags,
    FiniteLattice,
    LoadError,
    classify_element,
    enumerate_lattice_classes,
    enumerate_small_lattices,
    is_domain,
    lattice_from_dict,
    lattice_to_dict,
    lift,
    load_lattice,
    verify_lattice,
)
from latlift.bitset import bits, mask_from
from latlift.cli import main
from latlift.lattice import _closure_step, _extreme, _lattice_orders, _tables_for_order

from conftest import FIXTURES, canonical_form, non_lattices


# Independent oracles: recompute bounds from the raw order relation only.

def brute_join(lat, mask):
    ubs = [u for u in range(lat.n) if all(lat.le(i, u) for i in bits(mask))]
    least = [u for u in ubs if all(lat.le(u, v) for v in ubs)]
    assert len(least) == 1
    return least[0]


def brute_meet(lat, mask):
    lbs = [u for u in range(lat.n) if all(lat.le(u, i) for i in bits(mask))]
    greatest = [u for u in lbs if all(lat.le(v, u) for v in lbs)]
    assert len(greatest) == 1
    return greatest[0]


def brute_residual(lat, a, b):
    return brute_join(lat, mask_from(y for y in range(lat.n) if lat.le(lat.mul[b][y], a)))


def test_fixtures_verify(l6, two, chain3, chain3_nil):
    for lat in (l6, two, chain3, chain3_nil):
        assert verify_lattice(lat).passed


def test_l6_join_meet_examples(l6):
    b, c, d = l6.index("b"), l6.index("c"), l6.index("d")
    assert l6.join(b, c) == d == brute_join(l6, mask_from((b, c)))
    assert l6.join_of(0) == l6.bot
    assert l6.join(l6.index("a")) == l6.index("a")
    assert l6.meet(b, c) == l6.index("a") == brute_meet(l6, mask_from((b, c)))
    assert l6.meet_of(0) == l6.top
    assert l6.meet(d, l6.top) == d


def test_join_of_subsets_agrees_with_oracle(l6):
    lattices = [l6] + [lat for n in range(1, 6) for lat in enumerate_small_lattices(n)]
    for lat in lattices:
        for mask in range(1 << lat.n):
            assert lat.join_of(mask) == brute_join(lat, mask)
            assert lat.meet_of(mask) == brute_meet(lat, mask)
        for a in range(lat.n):
            assert lat.downs[a] == mask_from(i for i in range(lat.n) if lat.le(i, a))


def test_join_of_on_a_non_lattice_keeps_the_definitional_errors():
    # join_of and meet_of have no bound-search answer on a non-lattice:
    # even where a bound exists they raise the one lattice error
    for carrier in non_lattices():
        for operation in (lambda: carrier.join_of(0), lambda: carrier.meet_of(0),
                          lambda: carrier.join(0, 1), lambda: carrier.meet(0, 1)):
            with pytest.raises(ValueError, match="^carrier is not a lattice$"):
                operation()


def test_a_misdeclared_bound_is_not_a_lattice():
    # every labelled lattice with n <= 5, declared with every (bot, top)
    # but its own: the order is a lattice, but the declared bot is not its
    # least element or the declared top not its greatest, so nothing may
    # answer from the order's own bounds, and no lift may certify
    carriers = [FiniteLattice(lat.names, lat.up, lat.mul, bot, top)
                for n in range(1, 6) for lat in enumerate_small_lattices(n)
                for bot in range(n) for top in range(n) if (bot, top) != (lat.bot, lat.top)]
    assert len(carriers) == 3742
    for carrier in carriers:
        for operation in (lambda: lift(carrier, carrier.full), lambda: classify_element(carrier, 0),
                          lambda: carrier.join_of(0)):
            with pytest.raises(ValueError, match="^carrier is not a lattice$"):
                operation()


def test_join_is_associative_over_unions(l6):
    for s in range(1 << l6.n):
        for t in range(1 << l6.n):
            assert l6.join_of(s | t) == l6.join(l6.join_of(s), l6.join_of(t))


def test_residual_examples(l6):
    c, b = l6.index("c"), l6.index("b")
    assert l6.residual(c, b) == l6.index("d") == brute_residual(l6, c, b)
    for a in range(l6.n):
        assert l6.residual(a, l6.top) == a
        assert l6.residual(l6.top, a) == l6.top


def test_residual_adjunction_exhaustive(l6, chain3, chain3_nil, two):
    for lat in (l6, chain3, chain3_nil, two):
        for a in range(lat.n):
            for b in range(lat.n):
                r = lat.residual(a, b)
                for y in range(lat.n):
                    assert lat.le(lat.mul[b][y], a) == lat.le(y, r)


def test_full_distributivity_over_all_subsets(l6):
    for a in range(l6.n):
        for mask in range(1 << l6.n):
            pointwise = mask_from(l6.mul[a][s] for s in bits(mask))
            assert l6.mul[a][l6.join_of(mask)] == l6.join_of(pointwise)


def test_classify_l6(l6):
    a, b = l6.index("a"), l6.index("b")
    assert classify_element(l6, a).weak_meet_principal
    assert not classify_element(l6, b).weak_meet_principal
    # the witness behind that failure: c ^ b = a while b * (c:b) = b * d = 0
    c = l6.index("c")
    assert l6.meet(c, b) == a
    assert l6.mul[b][l6.residual(c, b)] == l6.bot
    top_flags = classify_element(l6, l6.top)
    assert top_flags.meet_principal and top_flags.join_principal
    assert top_flags.principal and top_flags.weak_principal and top_flags.compact
    assert classify_element(l6, l6.bot).weak_meet_principal
    wmp = {f.element for x in range(l6.n) for f in [classify_element(l6, x)]
           if f.weak_meet_principal}
    assert wmp == {"0", "a", "1"}


def test_classify_top_bot_all_corpus():
    for n in (2, 3, 4):
        for lat in enumerate_small_lattices(n):
            top_flags = classify_element(lat, lat.top)
            assert top_flags.principal and top_flags.weak_principal
            assert classify_element(lat, lat.bot).weak_meet_principal


def classify_by_bound_search(lat, x):
    """classify_element's flags, with every join, meet and residual found
    by the brute-force bound search above and every pair checked."""
    mul, every = lat.mul, range(lat.n)
    join = [[brute_join(lat, mask_from((a, b))) for b in every] for a in every]
    meet = [[brute_meet(lat, mask_from((a, b))) for b in every] for a in every]
    res = [brute_residual(lat, a, x) for a in every]
    wmp = all(meet[a][x] == mul[x][res[a]] for a in every)
    wjp = all(join[a][res[lat.bot]] == res[mul[a][x]] for a in every)
    mp = all(meet[a][mul[x][b]] == mul[x][meet[res[a]][b]] for a in every for b in every)
    jp = all(join[a][res[b]] == res[join[mul[a][x]][b]] for a in every for b in every)
    return ElementFlags(lat.names[x], mp, wmp, jp, wjp, mp and jp, wmp and wjp)


def test_classify_element_matches_bound_search(l6, two, chain3, chain3_nil):
    broken = load_lattice(FIXTURES / "l6_broken.json")
    lattices = [l6, two, chain3, chain3_nil, broken]
    lattices += [lat for n in range(1, 6) for lat in enumerate_small_lattices(n)]
    for lat in lattices:
        for x in range(lat.n):
            assert classify_element(lat, x) == classify_by_bound_search(lat, x)


def test_classify_element_on_a_non_lattice_keeps_the_bound_search():
    # classify_element and lift share the lattice gate: no flags and no lift
    # are computed by bound search on a non-lattice
    for carrier in non_lattices():
        for operation in (lambda: classify_element(carrier, 0), lambda: lift(carrier, carrier.full)):
            with pytest.raises(ValueError, match="^carrier is not a lattice$"):
                operation()


def test_is_domain(l6, two, chain3, chain3_nil):
    assert not is_domain(l6)
    assert is_domain(two)
    assert is_domain(chain3)
    assert not is_domain(chain3_nil)


def test_broken_l6_fails_with_distributivity_witness():
    lat = load_lattice(FIXTURES / "l6_broken.json")
    verdict = verify_lattice(lat)
    assert not verdict.passed
    assert "distributivity" in verdict.laws or "annihilation" in verdict.laws
    assert "associativity" in verdict.laws


def test_verify_catches_broken_identity(l6):
    data = json.loads((FIXTURES / "l6.json").read_text())
    data["mul"].append(["1", "a", "b"])
    lat = lattice_from_dict(data)
    verdict = verify_lattice(lat)
    assert not verdict.passed
    assert "identity" in verdict.laws


GOOD = json.loads((FIXTURES / "l6.json").read_text())


def document(drop=(), **changes):
    """The bytes of l6.json with the given keys replaced and those in drop removed."""
    return json.dumps({k: v for k, v in (GOOD | changes).items() if k not in drop}).encode()


# One case per LoadError of the lattice loader: the file's bytes (None for
# no file) and the message.
LOAD_ERRORS = [
    (None, r"^cannot read .*doc\.json: "),
    (b'{"elements": ["\xff"]}', r"doc\.json is not UTF-8: "),
    (b'{"elements": ', r"^invalid JSON in .*doc\.json: "),
    (b"[" * 200_000 + b"]" * 200_000, r"^JSON in .*doc\.json is nested too deeply$"),
    (b"[]", r"^lattice document must be a JSON object$"),
    (document(elements=[]), r"^'elements' must be a nonempty list$"),
    (document(elements=["0", "", "b", "c", "d", "1"]), r"^element names must be nonempty strings$"),
    (document(elements=["0", "0", "b", "c", "d", "1"]), r"^duplicate element names$"),
    (document(elements=[str(i) for i in range(65)]), r"^carrier size 65 exceeds cap 64$"),
    (document(order={"covers": [["0", "zz"]]}), r"^unknown element 'zz'$"),
    (document(drop=("top",)), r"^missing 'top'$"),
    (document(drop=("bot",)), r"^missing 'bot'$"),
    (document(order={"up": []}), r"^'order' must hold exactly one of 'covers' or 'leq'$"),
    (document(order={"covers": "0 < a"}), r"^order pairs must be a list$"),
    (document(order={"covers": [["0", "a", "b"]]}), r"^order pair \['0', 'a', 'b'\] must be \[lo, hi\]$"),
    (document(order={"covers": GOOD["order"]["covers"] + [["1", "0"]]}),
     r"^order closure is not antisymmetric: 0 <= a <= 0$"),
    (document(mul=5), r"^'mul' must be a list of \[x, y, xy\] entries$"),
    (document(mul=None), r"^'mul' must be a list of \[x, y, xy\] entries$"),
    (document(mul=[["a", "a"]]), r"^mul entry \['a', 'a'\] must be \[x, y, xy\]$"),
    (document(mul=GOOD["mul"] + [["a", "a", "a"]]), r"^conflicting products for a\*a$"),
    (document(mul=GOOD["mul"][:-1]), r"^missing product d\*d$"),  # d*d is not fillable
    # products with top or bot alone are filled in, a*a is not
    (document(drop=("mul",)), r"^missing product a\*a$"),
]


def test_load_errors(capsys, tmp_path):
    # each through the loader and through check-lattice: exit 2, one error line
    path = tmp_path / "doc.json"
    for content, message in LOAD_ERRORS:
        path.unlink(missing_ok=True)
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(LoadError, match=message) as exc:
            load_lattice(path)
        assert main(["check-lattice", str(path)]) == 2, message
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc.value}\n"


def test_leq_order_input_accepted():
    data = {
        "elements": ["0", "x", "1"],
        "order": {"leq": [["0", "x"], ["x", "1"], ["0", "1"]]},
        "mul": [["x", "x", "x"]],
        "top": "1",
        "bot": "0",
    }
    assert verify_lattice(lattice_from_dict(data)).passed


def test_enumerate_counts():
    assert len(list(enumerate_small_lattices(1))) == 1
    assert len(list(enumerate_small_lattices(2))) == 1
    three = list(enumerate_small_lattices(3))
    assert len(three) == 2
    # the two three-element chains: the inner square is bot or itself
    assert sorted(lat.mul[1][1] for lat in three) == [0, 1]
    assert len(list(enumerate_small_lattices(4))) == 13
    assert len(list(enumerate_small_lattices(5))) == 147
    with pytest.raises(ValueError):
        next(enumerate_small_lattices(7))


def test_enumerated_lattices_all_verify():
    for n in (1, 2, 3, 4, 5):
        for lat in enumerate_small_lattices(n):
            assert verify_lattice(lat).passed


def test_enumerate_six_contains_l6_class(l6):
    assert canonical_form(l6) in {canonical_form(lat) for lat, _ in enumerate_lattice_classes(6)}


def test_enumerate_yields_distinct_tables():
    seen = set()
    for lat in enumerate_small_lattices(4):
        key = (lat.up, lat.mul)
        assert key not in seen
        seen.add(key)


@settings(max_examples=100)
@given(st.integers(0, 63), st.integers(0, 63))
def test_adjunction_on_random_subset_joins(s, t):
    lat = load_lattice(FIXTURES / "l6.json")
    a = lat.join_of(s & lat.full)
    b = lat.join_of(t & lat.full)
    r = lat.residual(a, b)
    for y in range(lat.n):
        assert lat.le(lat.mul[b][y], a) == lat.le(y, r)


def tables_for_order_full_check(n, up):
    """The table search as it was before the incremental check: after every
    cell, every associativity triple and distributivity row is rechecked."""
    bot, top = 0, n - 1
    join2 = [[_extreme(up, up[i] & up[j]) for j in range(n)] for i in range(n)]
    inner = list(range(1, n - 1))
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[top][x] = mul[x][top] = x
        mul[bot][x] = mul[x][bot] = bot
    cells = list(combinations_with_replacement(inner, 2))
    assoc = list(combinations_with_replacement(inner, 3))
    distr = [(x, y, z) for x in inner for y in range(n) for z in range(y + 1, n)]

    def consistent():
        for x, y, z in assoc:
            xy, yz, xz = mul[x][y], mul[y][z], mul[x][z]
            vals = []
            if xy is not None and mul[xy][z] is not None:
                vals.append(mul[xy][z])
            if yz is not None and mul[x][yz] is not None:
                vals.append(mul[x][yz])
            if xz is not None and mul[xz][y] is not None:
                vals.append(mul[xz][y])
            if any(v != vals[0] for v in vals[1:]):
                return False
        for x, y, z in distr:
            lhs, a, b = mul[x][join2[y][z]], mul[x][y], mul[x][z]
            if lhs is None or a is None or b is None:
                continue
            if lhs != join2[a][b]:
                return False
        return True

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(r) for r in mul)
            return
        i, j = cells[k]
        for v in range(n):
            mul[i][j] = mul[j][i] = v
            if consistent():
                yield from rec(k + 1)
        mul[i][j] = mul[j][i] = None

    yield from rec(0)


def test_incremental_table_search_matches_the_full_check():
    for n in range(1, 6):
        for up in _lattice_orders(n):
            found = [(lat.up, lat.mul) for lat in _tables_for_order(n, up)]
            assert found == [(up, mul) for mul in tables_for_order_full_check(n, up)]


@st.composite
def documented_carriers(draw):
    """A partial order with a least and a greatest element under random
    labels, and any commutative product table on it."""
    n = draw(st.integers(1, 6))
    label = draw(st.permutations(range(n)))
    # i < j in the drawn order only if i < j as integers, so it is acyclic
    up = [1 << i | (1 << n - 1) for i in range(n)]
    up[0] = (1 << n) - 1
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            if draw(st.booleans()):
                up[i] |= 1 << j
    while _closure_step(up):
        pass
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mul[i][j] = mul[j][i] = draw(st.integers(0, n - 1))
    names = draw(st.lists(st.text("abcxyz01", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    relabel = lambda mask: mask_from(label[i] for i in bits(mask))
    lab_up, lab_mul = [0] * n, [[0] * n for _ in range(n)]
    for i in range(n):
        lab_up[label[i]] = relabel(up[i])
        for j in range(n):
            lab_mul[label[i]][label[j]] = label[mul[i][j]]
    return FiniteLattice(tuple(names), tuple(lab_up), tuple(map(tuple, lab_mul)), label[0], label[n - 1])


@settings(max_examples=300, deadline=None)
@given(documented_carriers())
def test_lattice_document_round_trips(lat):
    doc = lattice_to_dict(lat)
    assert json.loads(json.dumps(doc)) == doc
    assert lattice_from_dict(doc) == lat


def test_lattice_document_round_trips_on_fixtures_and_the_corpus(l6, two, chain3, chain3_nil):
    lattices = [l6, two, chain3, chain3_nil] + [lat for n in range(1, 6) for lat in enumerate_small_lattices(n)]
    for lat in lattices:
        assert lattice_from_dict(lattice_to_dict(lat)) == lat
