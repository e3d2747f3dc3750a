"""Finite multiplicative lattices.

A multiplicative lattice here is a finite complete lattice carrying a
commutative multiplication whose identity is the top element and which
distributes over arbitrary joins (on a finite carrier: over binary joins,
with the bottom element absorbing products).

Elements are dense indices 0..n-1; names exist only for I/O.  Subsets are
bitmasks, which keeps the exhaustive powerset scans used throughout this
package as plain integer loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial
from pathlib import Path
from typing import Iterator

from .bitset import bits, mask_from
from .verdicts import LoadError, Verdict, _Recorder

# Subsets are single machine words; loaders reject anything larger.
CARRIER_CAP = 64

# Exhaustive enumeration guard: the table search blows up past this.
ENUM_CAP = 6


class _Carrier:
    """Element naming, the full mask and the shape check of the product
    table, shared by lattice and monoid carriers."""

    names: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LoadError(f"unknown element {name!r}") from None

    def subset_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bits(mask))

    def _check_shape(self, one: int, zero: int) -> None:
        """Distinct names, an n x n product table of element indices, and the
        identity one and the absorbing zero among the elements."""
        n = self.n
        if len(set(self.names)) != n:
            raise LoadError("element names are not distinct")
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise LoadError("multiplication table dimensions do not match the carrier")
        if min(map(min, self.mul)) < 0 or max(map(max, self.mul)) >= n:
            raise LoadError("multiplication table references an unknown index")
        if not (0 <= one < n and 0 <= zero < n):
            raise LoadError("one/zero index out of range")


@dataclass(frozen=True)
class FiniteLattice(_Carrier):
    """Carrier of a finite multiplicative lattice.

    ``up[i]`` is the bitmask of all j with i <= j.  Construction validates
    shape only; :func:`verify_lattice` checks the axioms.  Instances are
    immutable and all operations are pure, so values can be shared freely
    across threads or processes; lookup tables (lower sets, binary joins
    and meets) are derived from the fields on first use.  Joins, meets and
    residuals have one path, through those tables: on a carrier that is
    not a lattice they raise ValueError("carrier is not a lattice").
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    mul: tuple[tuple[int, ...], ...]
    bot: int
    top: int

    def __post_init__(self) -> None:
        n = len(self.names)
        if not 1 <= n <= CARRIER_CAP:
            raise LoadError(f"carrier size {n} outside 1..{CARRIER_CAP}")
        self._check_shape(self.top, self.bot)
        if len(self.up) != n:
            raise LoadError("order table dimensions do not match the carrier")
        if any(row & ~self.full for row in self.up):
            raise LoadError("order mask references an unknown element")

    # ----- order primitives ------------------------------------------

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def downs(self) -> tuple[int, ...]:
        """``downs[j]`` is the bitmask of the lower set {i : i <= j}."""
        return _down_sets(self.up)

    @cached_property
    def join_irreducibles(self) -> int:
        """The mask of the x that are not the join of the elements strictly below them."""
        return mask_from(x for x, down in enumerate(self.downs) if self.join_of(down & ~(1 << x)) != x)

    @cached_property
    def _pair_bounds(self) -> tuple:
        """:func:`_bounds` of the order, built once for both
        :func:`verify_lattice` and the lattice tables."""
        return _bounds(self.up, self.downs)

    @cached_property
    def _tables(self) -> tuple:
        """(binary join table, binary meet table): the one lattice gate.
        Joins, meets, residuals, principality flags and the lift all read
        these tables, folding joins from bot and meets from top; a carrier
        that fails an order law of :func:`verify_lattice`, with bot and top
        as declared, raises ValueError here.
        """
        record = _Recorder()
        _order_laws(self, record)
        if record:
            raise ValueError("carrier is not a lattice")
        return self._pair_bounds

    def join_of(self, mask: int) -> int:
        """Least upper bound of a subset; the empty join is bot."""
        join2, acc = self._tables[0], self.bot
        while mask:
            low = mask & -mask
            acc = join2[acc][low.bit_length() - 1]
            mask ^= low
        return acc

    def meet_of(self, mask: int) -> int:
        """Greatest lower bound of a subset; the empty meet is top."""
        meet2, acc = self._tables[1], self.top
        while mask:
            low = mask & -mask
            acc = meet2[acc][low.bit_length() - 1]
            mask ^= low
        return acc

    def join(self, *elems: int) -> int:
        return self.join_of(mask_from(elems))

    def meet(self, *elems: int) -> int:
        return self.meet_of(mask_from(elems))

    def residual(self, a: int, b: int) -> int:
        """(a : b), the join of all y with b*y <= a."""
        row, below = self.mul[b], self.downs[a]
        return self.join_of(mask_from(y for y in range(self.n) if below >> row[y] & 1))


def _down_sets(up) -> tuple[int, ...]:
    """The lower sets of an order given by its up-masks, as bitmasks."""
    downs = [0] * len(up)
    for i, row in enumerate(up):
        while row:
            downs[(row & -row).bit_length() - 1] |= 1 << i
            row &= row - 1
    return tuple(downs)


def _bounds(up, downs) -> tuple[tuple[tuple[int | None, ...], ...], tuple[tuple[int | None, ...], ...]]:
    """Binary join and meet tables of an order given by its up-masks and
    lower sets, by bound search, with None where a pair has no least upper
    respectively greatest lower bound."""
    n = len(up)
    join2: list[list[int | None]] = [[None] * n for _ in range(n)]
    meet2: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            join2[i][j] = join2[j][i] = _extreme(up, up[i] & up[j])
            meet2[i][j] = meet2[j][i] = _extreme(downs, downs[i] & downs[j])
    return tuple(map(tuple, join2)), tuple(map(tuple, meet2))


def _extreme(cones, mask: int) -> int | None:
    """The member u of mask whose cone cones[u] holds all of mask, or None:
    the least member for the up-sets, the greatest for the lower sets."""
    rest = mask  # walked by low bits, without a generator: every bound search runs this loop
    while rest:
        u = (rest & -rest).bit_length() - 1
        if mask & ~cones[u] == 0:
            return u
        rest &= rest - 1
    return None


@dataclass(frozen=True)
class ElementFlags:
    """Principality flags of one element, each from an exhaustive scan.

    ``compact`` is constantly true on these finite carriers, where any
    join is a finite join; it is kept so equivalences quantifying over it
    stay checkable rather than silently omitted.
    """

    element: str
    meet_principal: bool
    weak_meet_principal: bool
    join_principal: bool
    weak_join_principal: bool
    principal: bool
    weak_principal: bool
    compact: bool = True


def classify_element(lat: FiniteLattice, x: int) -> ElementFlags:
    """Meet/join principality of x by brute force over all pairs.

    meet principal:  a ^ xb == x((a:x) ^ b)          for all a, b
    join principal:  a v (b:x) == (ax v b):x         for all a, b
    The weak variants fix b = top respectively b = bot.  Every join and
    meet is read from the lattice's binary tables, and each flag stops at
    its first failing pair; a carrier that is not a lattice raises
    ValueError.
    """
    n, mul = lat.n, lat.mul
    join2, meet2 = lat._tables
    res_x = _residuals(lat, x)
    mul_x, every = mul[x], range(n)
    wmp = all(meet2[a][x] == mul_x[res_x[a]] for a in every)
    wjp = all(join2[a][res_x[lat.bot]] == res_x[mul[a][x]] for a in every)
    mp = all(meet2[a][mul_x[b]] == mul_x[meet2[res_x[a]][b]] for a in every for b in every)
    jp = all(join2[a][res_x[b]] == res_x[join2[mul[a][x]][b]] for a in every for b in every)
    return ElementFlags(lat.names[x], mp, wmp, jp, wjp, mp and jp, wmp and wjp)


def _residuals(lat: FiniteLattice, x: int) -> list[int]:
    """(a : x) for every a, read from the lower sets and the row of x."""
    join2 = lat._tables[0]
    column, mul_x = [], lat.mul[x]
    for below in lat.downs:
        acc = lat.bot
        for y, xy in enumerate(mul_x):
            if below >> xy & 1:
                acc = join2[acc][y]
        column.append(acc)
    return column


def is_domain(lat: FiniteLattice) -> bool:
    """True when products only vanish if a factor is bot."""
    for a in range(lat.n):
        for b in range(lat.n):
            if lat.mul[a][b] == lat.bot and a != lat.bot and b != lat.bot:
                return False
    return True


def _order_laws(lat: FiniteLattice, record) -> None:
    """Record the order laws of :func:`verify_lattice`, bot and top as declared."""
    n, names, up = lat.n, lat.names, lat.up
    for i in range(n):
        if not up[i] >> i & 1:
            record("reflexivity", (names[i],))
    # i <= j is bit j of up[i]; for each i <= j the first k with j <= k but
    # not i <= k is the lowest bit of up[j] & ~up[i], and only the first
    # witness of each law is kept, so later k need not be visited
    for i, ui in enumerate(up):
        for j in bits(ui):
            if i != j and up[j] >> i & 1:
                record("antisymmetry", (names[i], names[j]))
            miss = up[j] & ~ui
            if miss:
                record("transitivity", (names[i], names[j], names[(miss & -miss).bit_length() - 1]))
    for i in range(n):
        if not up[lat.bot] >> i & 1:
            record("least-element", (names[i],), "bot is not below every element")
        if not up[i] >> lat.top & 1:
            record("greatest-element", (names[i],), "top is not above every element")

    join2, meet2 = lat._pair_bounds
    for i in range(n):
        for j in range(i, n):
            if join2[i][j] is None:
                record("join-existence", (names[i], names[j]), "pair has no least upper bound")
            if meet2[i][j] is None:
                record("meet-existence", (names[i], names[j]), "pair has no greatest lower bound")


def verify_lattice(lat: FiniteLattice) -> Verdict:
    """Check every multiplicative-lattice axiom on the carrier.

    Reports at most one witness per law.  Distributivity is checked in its
    binary form together with annihilation by bot, which on a finite
    carrier is equivalent to distributivity over arbitrary joins.
    """
    n, names, mul = lat.n, lat.names, lat.mul
    record = _Recorder()
    _order_laws(lat, record)
    join2 = lat._pair_bounds[0]
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
                    record("distributivity", (names[a], names[b], names[c]),
                           "a(b v c) != ab v ac")
    return record.verdict()


# ----- loading ---------------------------------------------------------


def lattice_from_dict(data: dict) -> FiniteLattice:
    """Build a lattice from its JSON document.

    The order may be given as Hasse covers or as (part of) the full
    relation; either way the reflexive-transitive closure is taken and a
    cycle is a load error.  Multiplication entries involving top or bot
    may be omitted (identity and annihilation fill them in); any other
    missing product is a load error.
    """
    elements, look, top, bot = _read_carrier(data)
    n = len(elements)
    order = data.get("order")
    if not isinstance(order, dict) or len(order) != 1 or next(iter(order)) not in ("covers", "leq"):
        raise LoadError("'order' must hold exactly one of 'covers' or 'leq'")
    pairs = next(iter(order.values()))
    if not isinstance(pairs, list):
        raise LoadError("order pairs must be a list")
    up = [1 << i for i in range(n)]
    up[bot] = (1 << n) - 1
    for i in range(n):
        up[i] |= 1 << top
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise LoadError(f"order pair {pair!r} must be [lo, hi]")
        up[look(pair[0])] |= 1 << look(pair[1])
    while _closure_step(up):
        pass
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise LoadError(
                    f"order closure is not antisymmetric: {elements[i]} <= {elements[j]} <= {elements[i]}")
    return FiniteLattice(tuple(elements), tuple(up),
                         _read_products(data, elements, look, top, bot), bot, top)


def lattice_to_dict(lat: FiniteLattice) -> dict:
    """The JSON document of a lattice: :func:`lattice_from_dict` reads it back
    equal whenever the order is a partial order with bot least and top
    greatest and the product is commutative (both are written in full)."""
    names, n = lat.names, lat.n
    return {
        "elements": list(names),
        "order": {"leq": [[names[i], names[j]] for i in range(n) for j in bits(lat.up[i]) if i != j]},
        "mul": [[names[x], names[y], names[lat.mul[x][y]]] for x in range(n) for y in range(x, n)],
        "top": names[lat.top],
        "bot": names[lat.bot],
    }


def _closure_step(up: list[int]) -> bool:
    """One transitive-closure pass over the up-masks, in place: each row
    takes in the rows of its members.  True when some row changed."""
    changed = False
    for i in range(len(up)):
        acc = up[i]
        for j in bits(up[i]):
            acc |= up[j]
        if acc != up[i]:
            up[i] = acc
            changed = True
    return changed


def _read_carrier(data: object):
    """Element names of a lattice document, a name -> index lookup, and the
    indices of its top and bot."""
    if not isinstance(data, dict):
        raise LoadError("lattice document must be a JSON object")
    elements = data.get("elements")
    if not isinstance(elements, list) or not elements:
        raise LoadError("'elements' must be a nonempty list")
    if not all(isinstance(e, str) and e for e in elements):
        raise LoadError("element names must be nonempty strings")
    if len(set(elements)) != len(elements):
        raise LoadError("duplicate element names")
    if len(elements) > CARRIER_CAP:
        raise LoadError(f"carrier size {len(elements)} exceeds cap {CARRIER_CAP}")
    pos = {e: i for i, e in enumerate(elements)}

    def look(name: object) -> int:
        if not isinstance(name, str) or name not in pos:
            raise LoadError(f"unknown element {name!r}")
        return pos[name]

    for key in ("top", "bot"):
        if key not in data:
            raise LoadError(f"missing '{key}'")
    return elements, look, look(data["top"]), look(data["bot"])


def _read_products(data: dict, elements: list[str], look, one: int, zero: int) -> tuple[tuple[int, ...], ...]:
    """The product table of a document; products with the identity one or
    the absorbing zero may be omitted, any other missing product is an error."""
    n = len(elements)
    grid: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        grid[one][x] = grid[x][one] = x
        grid[zero][x] = grid[x][zero] = zero
    entries = data.get("mul", [])
    if not isinstance(entries, list):
        raise LoadError("'mul' must be a list of [x, y, xy] entries")
    explicit: dict[tuple[int, int], int] = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise LoadError(f"mul entry {entry!r} must be [x, y, xy]")
        x, y, v = look(entry[0]), look(entry[1]), look(entry[2])
        key = (min(x, y), max(x, y))
        if key in explicit and explicit[key] != v:
            raise LoadError(f"conflicting products for {elements[x]}*{elements[y]}")
        explicit[key] = v
        grid[x][y] = grid[y][x] = v
    for x in range(n):
        for y in range(x, n):
            if grid[x][y] is None:
                raise LoadError(f"missing product {elements[x]}*{elements[y]}")
    return tuple(tuple(row) for row in grid)  # type: ignore[misc]


def _read_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path} is not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise LoadError(f"JSON in {path} is nested too deeply") from None


def load_lattice(path: str | Path) -> FiniteLattice:
    return lattice_from_dict(_read_json(path))


# ----- enumeration -----------------------------------------------------


def enumerate_small_lattices(n: int) -> Iterator[FiniteLattice]:
    """Yield the distinct multiplicative lattices on n labeled elements,
    order by order: every table of one lattice order before the next order.

    Index 0 is bot and index n-1 is top; inner elements keep their labels,
    so the stream contains relabelings of the same isomorphism class but
    never two identical lattices.  Every yield passes :func:`verify_lattice`.
    """
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration is capped at {ENUM_CAP} elements")
    for up in _lattice_orders(n):
        yield from _tables_for_order(n, up)


def _small_names(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("0",)
    return ("0",) + tuple("abcdefgh"[: n - 2]) + ("1",)


def _lattice_orders(n: int) -> Iterator[tuple[int, ...]]:
    """All bounded partial orders on 0..n-1 (bot=0, top=n-1) that are
    lattices, as up-mask tuples.  Only transitively closed pair
    assignments are accepted, so each order appears exactly once."""
    if n == 1:
        yield (1,)
        return
    bot, top = 0, n - 1
    inner = list(range(1, n - 1))
    pairs = list(combinations(inner, 2))
    base = [(1 << i) | (1 << top) for i in range(n)]
    base[bot] = (1 << n) - 1
    # choice per pair: 0 means i < j, 1 means j < i, 2 means incomparable
    for choice in product((0, 1, 2), repeat=len(pairs)):
        up = list(base)
        for (i, j), c in zip(pairs, choice):
            if c == 0:
                up[i] |= 1 << j
            elif c == 1:
                up[j] |= 1 << i
        if _closure_step(up):
            continue
        join2, meet2 = _bounds(up, _down_sets(up))
        if not any(None in row for row in join2 + meet2):
            yield tuple(up)


def _tables_for_order(n: int, up: tuple[int, ...]) -> Iterator[FiniteLattice]:
    """Backtracking search over commutative associative distributive
    multiplications for one order, with top as identity and bot absorbing.
    Values are tried ascending, so the all-products-bot table (when legal)
    comes first for every order."""
    names = _small_names(n)
    bot, top = 0, n - 1
    join2 = _bounds(up, _down_sets(up))[0]  # never None here
    inner = list(range(1, n - 1))
    mul: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[top][x] = mul[x][top] = x
        mul[bot][x] = mul[x][bot] = bot
    cells = list(combinations_with_replacement(inner, 2))
    assoc = list(combinations_with_replacement(inner, 3))
    distr = [(x, y, z) for x in inner for y in range(n) for z in range(y + 1, n)]
    # After cell {i, j} is set only the checks that read it are rerun: the
    # search starts from a consistent table and descends only from one.
    # Every lookup of a triple (x, y, z) has x, y or z as one index, so it
    # reads {i, j} only if i or j is in the triple; a distributivity row
    # reads mul[x][.] at y, z and y v z, so it reads {i, j} only if x is i
    # (or j) and the other index is one of y, z, y v z.
    touching = [
        ([t for t in assoc if i in t or j in t],
         [(x, y, z) for x, y, z in distr
          if (x == i and j in (y, z, join2[y][z])) or (x == j and i in (y, z, join2[y][z]))])
        for i, j in cells]

    def consistent(k: int) -> bool:
        assoc_k, distr_k = touching[k]
        # commutativity holds by construction; for each unordered triple the
        # three groupings must agree wherever they are already determined
        for x, y, z in assoc_k:
            xy, yz, xz = mul[x][y], mul[y][z], mul[x][z]
            p = None if xy is None else mul[xy][z]
            q = None if yz is None else mul[x][yz]
            r = None if xz is None else mul[xz][y]
            if (p is not None and (q is not None and p != q or r is not None and p != r)
                    or q is not None and r is not None and q != r):
                return False
        for x, y, z in distr_k:
            lhs, a, b = mul[x][join2[y][z]], mul[x][y], mul[x][z]
            if lhs is None or a is None or b is None:
                continue
            if lhs != join2[a][b]:
                return False
        return True

    def rec(k: int) -> Iterator[FiniteLattice]:
        if k == len(cells):
            yield FiniteLattice(names, up, tuple(tuple(r) for r in mul), bot, top)  # type: ignore[arg-type]
            return
        i, j = cells[k]
        for v in range(n):
            mul[i][j] = mul[j][i] = v
            if consistent(k):
                yield from rec(k + 1)
        mul[i][j] = mul[j][i] = None

    yield from rec(0)


def _relabellings(bot: int, top: int, n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every relabelling that sends bot to 0 and top to n-1, as (old, new):
    new element k is old element old[k], and old element i is new[i]."""
    moves = []
    for perm in permutations(i for i in range(n) if i not in (bot, top)):
        old = (bot, *perm, top)[:n]  # on one element bot is top
        moves.append((old, sorted(range(n), key=old.__getitem__)))  # new is old's inverse
    return moves


def _relabel_up(up, old, new) -> tuple[int, ...]:
    image = []
    for i in old:
        row, mask = up[i], 0
        while row:
            mask |= 1 << new[(row & -row).bit_length() - 1]
            row &= row - 1
        image.append(mask)
    return tuple(image)


def _relabel_mul(mul, old, new) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(new[mul[i][j]] for j in old) for i in old)


def _order_classes(n: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """(up, automorphisms) of one lattice order per isomorphism class: the
    order of :func:`_lattice_orders` that is least among its relabellings,
    with the relabellings that fix it.  Each move is applied once: an order
    is dropped at its first smaller image, and the fixing moves are kept."""
    moves = _relabellings(0, n - 1, n)
    for up in _lattice_orders(n):
        automorphisms = []
        for move in moves:
            image = _relabel_up(up, *move)
            if image < up:
                break
            if image == up:
                automorphisms.append(move)
        else:
            yield up, automorphisms


def enumerate_lattice_classes(n: int) -> Iterator[tuple[FiniteLattice, int]]:
    """Yield (lattice, orbit) for one multiplicative lattice per isomorphism
    class on n elements.

    The lattice is the class's least labelling: its (up, mul) is least
    among the relabellings that put bot first and top last.  Its orbit,
    (n-2)!/|Aut|, is the number of labelled copies
    :func:`enumerate_small_lattices` yields, where Aut is the order
    automorphisms that also fix the product.
    """
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration is capped at {ENUM_CAP} elements")
    labellings = factorial(max(n - 2, 0))
    for up, automorphisms in _order_classes(n):
        # the relabellings that fix the order map its tables onto its
        # tables; keep each table that is least in its orbit
        for lat in _tables_for_order(n, up):
            images = [_relabel_mul(lat.mul, old, new) for old, new in automorphisms]
            if min(images) == lat.mul:
                yield lat, labellings // images.count(lat.mul)
