"""Structure space: exhaustive enumeration, seeded sampling, predicate search.

Tables are generated by a backtracking fill with an incremental
associativity check.  It visits the cells (g, a, b) by g, then a, then
b: one whole operation table after another, so a mixed constraint
between tables g and m < g fires as soon as its cell of table g is
filled, rather than once both tables are far along.  The walk hands the
tables on as the fill completes them, in ascending order of the tuple
of tables, which decides the order of every report: the fill, the walk,
the sampler and the table part of the isomorphism key share this one
cell order, and the walk streams, its first structure waiting for the
first table alone.  The fill is one loop over depths, each holding its
own iterator of values to try.  Its tables are padded: an extra row n
and column n, and n in every unfilled cell, so a product with an
unfilled factor is n and the check needs no separate test for it.  The
fill also keeps, per operation and value, the list of filled cells with
that product, so a new cell's check visits only the cells it can meet.
Since cells are filled in a fixed order, every cell after the current
one holds n; a liveness plan, computed once per (n, k), lists for each
cell the rows and columns whose statically named cell comes no later,
and the check scans only those.  It skips only constraints that cannot
fire, so the values tried, the nodes counted and the tables found are
those of a full scan.

The walk does not fill every labeled table.  With the lex-leader cut
(Crawford, Ginsberg, Luks and Roy, KR 1996), the fill compares, at each
row end, the filled prefix with its image under every relabeling of
elements and operations, and rejects the value just accepted when an
image is smaller; it then yields exactly the tables that are least in
their orbit, in ascending order.  `_associative_tables` relabels each
once by every relabeling: the images equal to it give its automorphisms,
and the others, its orbit, merge back into ascending order through a
heap of `bytes` keys (under iso they follow it, undecoded), so the walk
sees the plain fill's tables after a fraction of its cell checks, each
with its orbit's least table and a relabeling that maps that table to
it.  The sampler runs the fill without the cut.

Orders come from an enumeration that adds one element at a time,
choosing the elements below and above it, sorted by the pair mask that
fixes their order.  A structure is emitted only when every operation
respects the order on both sides.

The walk tests every (table, order) pair its items reach, but the work
that depends on the table alone is done once per orbit, on its least
table, the order list and its join once per (n, order mode) in a process
(`_order_layer`), and each order's key and `down` / `up` masks
(`core._down_up`, as in `Structure`) once per walk.  The walk goes one
table at a time: it hands on each table with the mask of the least
table's orders that its items name, and with an iterator of those items,
one per structure, each naming its order by its index in the list and by
that of the matching order of the least table; `enumerate_structures`
builds the structures from them.  A campaign and a search read the
walk through one driver (`_by_orbit`), which runs one unit of work per
orbit on its least table, at once (`_Done`) or in a pool, and hands on
each table with its orbit's result, in walk order and at most
`_READ_AHEAD` tables ahead; they read a whole table from that result
(see `cli`).  The structures of one table share one
`core.table_cache` dict, so the checks compute their table-only results
once per table.  A structure is built by `core.Structure._unchecked`,
without the shape checks of `Structure(...)`, which the fill and the
order generator make true by construction.
The compatibility join is bit-parallel over the order list, bit o of a
mask standing for order o: it gives per least table L one int, the
orders that every operation respects (`_compatible_orders`), which the
walk turns into one byte per order (`_flags`).  Another table of the
orbit is pi L, and its order p is compatible exactly when the order o
of L with pi o = p is, so each (table, order) pair is one lookup
(`_compatible`, which is `operator.getitem`) of o in L's bytes, o read
off one list per carrier permutation pi; the lookups run under `map`,
and the walk's own loop visits the compatible pairs alone.  The list of
pi is built from the orders' up masks as `bytes`, relabeled the way a
table is.  The sampler draws its order from the same join.  Under the
isomorphism filter (`dedup="iso"`) no structure on a table that is not
least in its orbit is canonical; on a least table only its
automorphisms, the carrier permutations the orbit pass finds, can make
the order smaller, and each costs one lookup in its list per order.
The relabelings come from a table built once per (n, k)
(`_relabelings`): for each one, the position in the table's flat key of
the cell each relabeled cell reads.  In the fill's cut an image is a
run of list lookups, and a comparison stops at the first cell that
differs; the orbit pass builds each whole image as `bytes`, with one
`operator.itemgetter` of those positions and one `bytes.translate` by
pi.

Sampling reuses the same backtracking, in the same (g, a, b) cell order,
with shuffled value order and a node budget, counted by the sampler's
value iterators, not the fill: each value they hand it is a node.  The
generator is seeded from (n, k, seed) so repeated calls agree byte for
byte across runs and platforms.  The draw contract: each depth the fill
enters tries the values in the order `rng.shuffle(list(range(n)))`
gives there; then one `rng.randrange` picks the order.

A search expression combines the names of `analysis.PREDICATES` with !,
&, | and parentheses.  Its grammar is Python's for ~, & and | over
names, so `parse_expr` lets `ast` parse it and only checks the
characters before and the nodes after; a hand-built tree is checked,
node by node and name by name, before it is evaluated (`_check_expr`).
One evaluator (`_holds`) gives the bits of a domain mask on which an
expression holds: `eval_expr` runs it on one structure, a one-bit
domain, with the `PREDICATES` entries, and `search` on all the orders
of each orbit's least table at once, one bit per order, with the
campaign's predicate forms (`tablewise.PREDICATE_FORMS`).  The hits come
out in walk order.
"""

from __future__ import annotations

import ast
import operator
import random
import reprlib
import warnings
from collections import deque, namedtuple
from functools import lru_cache, partial
from itertools import chain, compress, islice, permutations, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .analysis import PREDICATES
# the compatibility join's kernel is `core`'s, which `relations` runs too;
# its names stay importable from here
from .core import (_DEDUP_MODES, _ORDER_MODES, InputError, Structure, _compatible_orders,
                   _down_up, _join, _Join, _pair_bit, _pair_bits, _requirements, _union_table,
                   bit_indices, validate)


class SamplingBudgetError(RuntimeError):
    """Raised when the randomized fill runs out of its node budget."""


def _value(cls):
    """Tuple class `cls`, equal only to its own values: no plain tuple, no other kind."""
    cls.__eq__ = lambda a, b: type(a) is type(b) and tuple.__eq__(a, b)
    cls.__ne__ = lambda a, b: not a == b
    return cls


@_value
class EnumSpec(namedtuple("EnumSpec", "n k orders dedup")):
    """What slice of the structure space to walk."""

    __slots__ = ()

    def __new__(cls, n: int, k: int = 1, orders: str = "all", dedup: str = "labeled"):
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 6:
            raise InputError("n must be an integer in 1..6")
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 3:
            raise InputError("k must be an integer in 1..3")
        if orders not in _ORDER_MODES:
            raise InputError(f"orders must be one of {_ORDER_MODES}")
        if dedup not in _DEDUP_MODES:
            raise InputError(f"dedup must be one of {_DEDUP_MODES}")
        return super().__new__(cls, n, k, orders, dedup)

    @classmethod
    def _make(cls, iterable: Iterable) -> EnumSpec:
        """Through `__new__`'s checks, for `_replace` too, which calls it."""
        return cls(*iterable)


# table generation

def _cell_ok(t: list, pre: list, n: int, g: int, a: int, b: int,
             rows: list, cols: list) -> bool:
    """Associativity constraints that the cell (g, a, b) just completed.

    `t` is the padded fill state (see `_fill`): an unfilled cell holds n,
    and so does every product with an unfilled factor, so a constraint
    with an unfilled cell compares against n and does not fire.  Each
    constraint is checked the moment its last participating cell gets a
    value.  The two inner-product families each name one cell statically:
    x m (a g b) reads (m, x, a), and (a g b) m z reads (m, b, z).  `rows`
    lists the rows t[m][x] and `cols` the triples (t[m], t[m][b], z) to
    scan for them; the fill passes only those whose named cell can be
    filled (`_fill_plan`): in its (g, a, b) order, every row and column
    of the complete tables m < g, and those of table g whose named cell
    comes no later than the new one.  Passing every row and column gives
    the same answer.  `pre[m][v]` lists filled cells (x, y) with
    x m y == v, so the two outer-product checks visit only the cells whose
    product is a or b, and none of the still empty tables m > g; whether
    it lists the new cell does not matter, as the constraints that would
    read it there are inner-product ones too.  The family that rejects
    most often goes first: counting, per call of the plain (g, a, b) fill, the
    family that rejects it, in the order above, gave 71,560 / 6,399 /
    12,648 / 8,016 rejections and 37,529 acceptances over n4k1's 136,152
    calls, 698,803 / 212,773 / 61,482 / 49,139 / 375,435 at n4k2, and
    356,717 / 60,419 / 42,707 / 25,052 / 146,240 through the first 20,000
    n5k1 tables.
    """
    tg = t[g]
    row_a = tg[a]
    v = row_a[b]
    for row in rows:
        # the new cell is the inner product of the right side: x m (a g b)
        rhs = row[v]
        if rhs != n:
            lhs = tg[row[a]][b]
            if lhs != rhs and lhs != n:
                return False
    for tm, row_b, z in cols:
        # the new cell is the inner product of the left side: (a g b) m z
        lhs = tm[v][z]
        if lhs != n:
            rhs = row_a[row_b[z]]
            if lhs != rhs and rhs != n:
                return False
    for tm, pre_m in zip(t, pre):
        # the new cell is the outer product of the left side: (x m y) g b, x m y == a
        for x, y in pre_m[a]:
            rhs = tm[x][tg[y][b]]
            if rhs != v and rhs != n:
                return False
        # the new cell is the outer product of the right side: a g (y m z), y m z == b
        for y, z in pre_m[b]:
            lhs = tm[row_a[y]][z]
            if lhs != v and lhs != n:
                return False
    return True


@lru_cache(maxsize=None)
def _fill_plan(n: int, k: int) -> tuple:
    """The fill order with the liveness plan of each cell's check.

    Cells (g, a, b) go in ascending order of the triple, by g, then a,
    then b, so table g is filled whole before table g + 1 starts and one
    cell comes no later than another when its triple is no greater.  Each
    entry is (g, a, b, rows, cols): `rows` holds the (m, x) whose cell
    (m, x, a) comes no later than (g, a, b), and `cols` the (m, z) whose
    cell (m, b, z) does.  Only those can be filled when the check at
    (g, a, b) runs; any other holds n, so the constraint that names it
    cannot fire.
    """
    return tuple((g, a, b,
                  tuple((m, x) for m in range(k) for x in range(n) if (m, x, a) <= (g, a, b)),
                  tuple((m, z) for m in range(k) for z in range(n) if (m, b, z) <= (g, a, b)))
                 for g in range(k) for a in range(n) for b in range(n))


def _fill(n: int, k: int, values: Callable[[], Iterable[int]],
          canonical: bool = False) -> Iterator[tuple]:
    """Backtracking fill over the cells in (g, a, b) order, trying the
    values `values()` gives, in its order, at each cell; yields every
    complete k-tuple of n x n tables satisfying mixed associativity, in
    the order the fill completes them (lexicographic in (g, a, b) when
    `values()` is always range(n)).

    The state is padded: each table has an extra row n and column n, and
    an unfilled cell holds n, so a product with an unfilled factor is n.
    The cells are filled in `_fill_plan` order, so at depth i every cell
    before slot i holds a value and every cell after it holds n; each
    slot's check scans only the rows and columns its plan names, bound to
    this fill's tables once.  The search is one loop over depths, each
    with its own value iterator; a cell enters the preimage lists once its
    value is accepted, so each preimage list is in fill order.  A caller
    bounds the fill's work through its value iterators (`_random_tables`).

    With `canonical`, the lex-leader cut (`_leads`) also tests each value
    `_cell_ok` accepts at a row end, and the fill yields only the tables
    that are the least of their orbit, those no relabeling makes smaller.
    """
    t = [[[n] * (n + 1) for _ in range(n + 1)] for _ in range(k)]
    pre = [[[] for _ in range(n)] for _ in range(k)]
    plan = _fill_plan(n, k)
    cuts = _leader_plan(n, k) if canonical else (None,) * len(plan)
    key = [0] * len(plan)  # the flat key of the filled rows, kept for the cut
    # per depth: the row holding the cell, its preimage lists, the cell,
    # the live rows and columns of its check (see `_cell_ok`), and the
    # relabelings the cut compares at a row end (None elsewhere)
    slots = [(t[g][a], pre[g], g, a, b, (a, b),
              [t[m][x] for m, x in rows], [(t[m], t[m][b], z) for m, z in cols], cut)
             for (g, a, b, rows, cols), cut in zip(plan, cuts)]
    last = len(slots) - 1
    its = [None] * len(slots)
    its[0] = iter(values())
    i = 0
    while i >= 0:
        row, pre_g, g, a, b, cell, rows, cols, cut = slots[i]
        v = row[b]
        if v != n:  # retreat from the value accepted last at this depth
            pre_g[v].pop()
        for v in its[i]:
            row[b] = v
            if _cell_ok(t, pre, n, g, a, b, rows, cols):
                if cut is not None:
                    key[i - b:i + 1] = row[:n]
                    if not _leads(key, cut):
                        continue
                pre_g[v].append(cell)
                break
        else:
            row[b] = n
            i -= 1
            continue
        if i == last:
            yield tuple(tuple(tuple(r[:n]) for r in tg[:n]) for tg in t)
        else:
            i += 1
            its[i] = iter(values())


def _associative_tables(n: int, k: int, merge: bool = True) -> Iterator[tuple]:
    """All k-tuples of n x n tables satisfying mixed associativity, as
    (tables, c, pi, automorphisms), with `merge` in ascending tuple order,
    the fill's (g, a, b) cell order: c is the index of the orbit's least
    table in the canonical fill, and pi the carrier permutation (shared
    from `_relabelings`) of a relabeling that maps that least table to
    these tables, None for the least table itself.  On the least table,
    `automorphisms` holds the distinct carrier permutations pi != id of
    the relabelings that fix it, in `_relabelings` order; on every other
    table it is None.

    The canonical fill gives the least table of each orbit, in ascending
    order; each is relabeled once by every relabeling.  The images equal
    to it give its automorphisms, and it is passed on at once; the others,
    its orbit, follow it without `merge`, in no set order, as flat `bytes`
    keys.  With it they wait in a heap of those keys (they sort as the
    tuples do), each followed by c * len(relabelings) + r in 5 bytes, r
    the index of the relabeling, which never decides a comparison as no
    two keys are equal.  Every table of a later orbit is at least that
    orbit's least table, so a pending table leaves the heap as soon as the
    next least table is larger, and the stream is the plain fill's, in its
    order, while the fill tries a small part of its cells."""
    from heapq import heappop, heappush  # only here: its import costs every run

    relabelings = _relabelings(n, k)
    count = len(relabelings)
    size = n * n
    end = k * size
    # per relabeling, the cells its image reads (every relabeling reads
    # k * n * n >= 2 cells, so the getter gives a tuple) and pi as a byte map
    images_of = [(operator.itemgetter(*reads), bytes(pi).ljust(256, b"\0"))
                 for pi, reads in relabelings]
    identity = tuple(range(n))

    def item(entry: bytes) -> tuple:
        c, r = divmod(int.from_bytes(entry[end:], "big"), count)
        return (tuple(tuple(tuple(entry[o:o + n]) for o in range(g, g + size, n))
                      for g in range(0, end, size)), c, relabelings[r][0], None)

    pending = []
    for c, least in enumerate(_fill(n, k, lambda: range(n), canonical=True)):
        key = bytes(x for t in least for row in t for x in row)
        while pending and pending[0] < key:
            yield item(heappop(pending))
        images = [bytes(read(key)).translate(pi) for read, pi in images_of]
        yield least, c, None, tuple(dict.fromkeys(
            pi for (pi, _), image in zip(relabelings, images)
            if image == key and pi != identity))
        # each relabeled key, with the last relabeling that gives it
        orbit = dict(zip(images, range(count)))
        orbit.pop(key, None)
        if merge:
            for other, r in orbit.items():
                heappush(pending, other + (c * count + r).to_bytes(5, "big"))
        else:
            yield from ((other, c, relabelings[r][0], None) for other, r in orbit.items())
    while pending:
        yield item(heappop(pending))


# order generation

def partial_orders(n: int, mode: str = "all") -> tuple:
    """Reflexive order matrices on 0..n-1, as tuples of bool tuples, the
    list of `_order_layer(n, mode)`.  The orders share their rows: one
    tuple per distinct row, at most 2^n - 1 of them (63 at n = 6, against
    780,138 rows of 130,023 orders).  n is 0..6: 0 gives the one empty
    order."""
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= 6:
        raise InputError(f"n must be an integer in 0..6, got {n!r}")
    return _order_layer(n, mode)[0]


@lru_cache(maxsize=None)
def _rows(n: int) -> tuple:
    """Per mask u over 0..n-1, the order row whose elements at or above
    its element are u: the tuple of its n truth values."""
    return tuple(tuple(u >> b & 1 == 1 for b in range(n)) for u in range(1 << n))


@lru_cache(maxsize=None)
def _order_layer(n: int, mode: str) -> tuple:
    """The orders of `mode` on 0..n-1 and their `_Join`, all that the walk
    and the sampler share.  Each order starts as its up masks, byte a of a
    `bytes` holding the elements at or above a (n <= 8).  "all" sorts the
    orders by the mask whose bit i stands for the i-th pair a != b in
    row-major order, as their bytes read from the last back do (row a of
    the mask is the more significant the larger a, and ranks as a's up
    mask); every report depends on it.  The join reads pair (a, b) off
    byte a of every order at once, as base-2 digits, order 0 last."""
    if mode not in _ORDER_MODES:
        raise InputError(f"orders must be one of {_ORDER_MODES}")
    if mode == "trivial":
        ups = [bytes(1 << a for a in range(n))]
    elif mode == "total":  # above e: e and every element after it in perm
        ups = [bytes(sum(1 << x for x in perm[perm.index(e):]) for e in range(n))
               for perm in permutations(range(n))]
    else:
        ups = sorted(map(bytes, _posets(n)), key=lambda up: up[::-1])
    rows = _rows(n)
    leqs = tuple(tuple(map(rows.__getitem__, up)) for up in ups)
    digits = [bytes(48 + (u >> b & 1) for u in range(256)) for b in range(n)]
    flat = b"".join(ups)
    holds = []
    for a in range(n):
        column = flat[a::n]  # the up mask of a in every order
        for b in range(n):
            if b != a:
                held = int(column.translate(digits[b])[::-1], 2)
                if held:
                    holds.append((a * n + b, held))
    return leqs, _join(n, holds, len(ups))


def _posets(n: int) -> Iterator[list[int]]:
    """Every partial order on 0..n-1, as the masks of the elements at or
    above each element.  Element k = n - 1 joins each order on 0..k-1
    above a down-closed set D and below an up-closed set U, with every
    member of D below every member of U (so D and U are disjoint); each
    order on 0..n-1 comes from exactly one such choice."""
    if n == 0:
        yield []
        return
    k = n - 1
    every = (1 << k) - 1
    top = 1 << k
    for up in _posets(k):
        # U is up-closed when it holds every element above a member, and
        # D is down-closed when the rest of 0..k-1 is up-closed
        ups = [u for u, above in enumerate(_union_table(k, up)) if above == u]
        for d in (every ^ u for u in ups):
            allowed = every & ~d  # above every member of d, and outside it
            for x in bit_indices(d):
                allowed &= up[x]
            up_k = [m | top if d >> a & 1 else m for a, m in enumerate(up)]
            for u in ups:
                if not u & ~allowed:
                    yield up_k + [u | top]


def _flags(mask: int, count: int) -> bytes:
    """Bit o of `mask` as byte o, 0 or 1, for each o < count."""
    return format(mask, f"0{count}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))


# _compatible(flags, o): 1 exactly when order o is among the table's
# compatible orders, `flags` being `_flags` of `_compatible_orders`' mask.
# It is C's item lookup, called once per (table, order) pair, and no other
# name in gpw is bound to it, so that a tracer that rebinds it by identity
# counts these tests alone.
_compatible = operator.getitem


# isomorphism filtering
#
# A relabeling (pi, rho) of carrier and operation labels maps a structure
# to the key: its relabeled tables in (g, a, b) order, the fill's cell
# order, then its relabeled order row-major.  A structure is canonical
# when no relabeling gives a smaller key.  The table part decides first,
# so a table that some relabeling makes smaller has no canonical
# structure, and on a lex-least table only the relabelings that fix it,
# its automorphisms, can matter; they compare order keys alone, and those
# depend on pi only.

@lru_cache(maxsize=None)
def _relabelings(n: int, k: int) -> tuple:
    """Every relabeling (pi, rho) but the identity, pi the outer loop and
    rho the inner one, each in `permutations` order, as (pi, reads):
    `reads[i]` is the position in the flat (g, a, b) key of the cell
    whose value, mapped by pi, the relabeled key holds at position i."""
    identity = tuple(range(n))
    out = []
    for pi in permutations(identity):
        inv = [0] * n
        for i, p in enumerate(pi):
            inv[p] = i
        for rho in permutations(range(k)):
            if pi != identity or rho != tuple(range(k)):
                out.append((pi, tuple(r * n * n + ia * n + ib
                                      for r in rho for ia in inv for ib in inv)))
    return tuple(out)


@lru_cache(maxsize=None)
def _leader_plan(n: int, k: int) -> tuple:
    """Per fill depth i, None unless the cell ends a row; at a row end,
    (pi, reads) for each relabeling in `_relabelings`, `reads` cut before
    the first position that lies past i or reads a cell past i: the
    positions whose comparison the filled prefix decides.  A relabeling
    left with no position decides nothing at i and is left out."""
    size = k * n * n
    out = [None] * size
    for i in range(n - 1, size, n):
        cut = []
        for pi, reads in _relabelings(n, k):
            p = 0
            while p <= i and reads[p] <= i:
                p += 1
            if p:
                cut.append((pi, reads[:p]))
        out[i] = tuple(cut)
    return tuple(out)


def _leads(key: list, cut: tuple) -> bool:
    """The lex-leader cut (Crawford, Ginsberg, Luks and Roy, KR 1996):
    False when some relabeling of `cut` (a `_leader_plan` entry) maps the
    filled prefix of the flat `key` to a smaller one, so that no
    completion is the least of its orbit.  Each relabeled key is compared
    with the key position by position: a smaller value rejects, a larger
    one clears the relabeling, and an equal prefix up to the first
    unfilled read decides nothing."""
    for pi, reads in cut:
        p = 0
        for r in reads:
            x, y = pi[key[r]], key[p]
            if x != y:
                if x < y:
                    return False
                break
            p += 1
    return True


def _is_canonical(lists: list | None, keys: list, o: int) -> bool:
    """True when (tables, order o) is the least member of its isomorphism
    class under carrier relabelings crossed with operation-label
    relabelings.  `lists` is None on a table that is not least in its
    orbit; on a least one it holds, per automorphism pi that
    `_associative_tables` gives with it, the walk's list of pi: entry o
    the index of the order that pi maps to o.  The automorphisms form a
    group, so these are the images of o under every one of them, and
    `keys` holds each order's key."""
    if lists is None:
        return False
    key = keys[o]
    for lst in lists:
        if keys[lst[o]] < key:
            return False
    return True


def _gamma_names(k: int) -> tuple[str, ...]:
    return tuple(f"g{i}" for i in range(k))


def enumerate_structures(spec: EnumSpec, limit: int | None = None) -> Iterator[Structure]:
    """Walk the slice in a fixed deterministic order: tables in fill-order
    lexicographic sequence, then orders in `partial_orders` list order.

    At most `limit` structures when it is given; 0 yields none and a
    negative limit is an InputError.  They flatten `_walk`'s items.
    """
    entries, walk = _walk(spec)
    n, names = spec.n, _gamma_names(spec.k)

    def structures() -> Iterator[Structure]:
        for tables, _, _, items in walk:
            shared = {}  # the table-only results of every structure on this table
            for p, _ in items:
                leq, down, up = entries[p]  # a call through * slows the walk by a tenth
                yield Structure._unchecked(n, names, tables, leq, down, up, shared)

    return islice(structures(), _limit(limit))


def _limit(limit: int | None) -> int | None:  # None, or an integer >= 0
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool) or limit < 0):
        raise InputError(f"limit must be an integer >= 0, got {limit!r}")
    return limit


def _walk(spec: EnumSpec) -> tuple[list, Iterator[tuple]]:
    """(entries, tables): entries per order p of the mode's list, its
    (leq, down, up); tables, per table of `_associative_tables` on which
    the slice has a structure, in that order, (tables, c, domain, items).
    c is the index of the table's orbit, whose least table L comes first
    here: it comes first from `_associative_tables`, and has a structure
    whenever another table of the orbit has one.  items are the table's
    structures in list order, each as (p, o): p the index of its order, o
    that of the order of L with pi o = p for the table pi L (o = p on L),
    so (pi L, p) is isomorphic to (L, o).  domain is the mask of those o:
    every compatible order of L under labeled, on each table of the
    orbit, and L's canonical orders under iso, where L alone has items.

    Per orbit, the join (which skips `_requirements` when no order holds
    a pair a != b), as `_flags`, runs on L alone.  Every table pi L reads
    it through the list of pi, per order p its o (every order mode is
    closed under relabeling), and L's automorphisms read theirs: one list
    per carrier permutation, built the first time it comes from the
    orders' up masks, each relabeled by pi^-1 the way
    `_associative_tables` relabels a table.  Every order is tested by
    `_compatible` and, under iso, every compatible one by `_is_canonical`,
    under `map` and `compress` alone on a table pi L, which has no
    structure.  Under labeled the items test an order only when they
    reach it, so a walk cut short tests no order past its cut; under iso
    L's orders are tested when L is handed on.  A table is handed on when
    L has a compatible order, exactly when the table has an item: pi maps
    L's compatible orders onto the table's, and on L the least of each
    class under L's automorphisms is canonical.  The spec is checked, and
    the entries built, on the call."""
    if not isinstance(spec, EnumSpec):
        raise InputError(f"spec must be an EnumSpec, got {reprlib.repr(spec)}")
    n, k, iso = spec.n, spec.k, spec.dedup == "iso"
    # the list through `partial_orders`, whose calls a tracer counts
    leqs = partial_orders(n, spec.orders)
    join = _order_layer(n, spec.orders)[1]
    entries = [(leq, *_down_up(leq, n)) for leq in leqs]
    bits = list(chain.from_iterable(_pair_bits(n)))
    keys = [sum(compress(bits, chain.from_iterable(leq))) for leq in leqs]
    ups = [bytes(up) for _, _, up in entries]
    index = {up: o for o, up in enumerate(ups)}
    ids = list(range(len(leqs)))
    lists = {None: ids, tuple(range(n)): ids}  # per carrier permutation

    def relabeled(pi: tuple) -> list:
        # the up masks of pi^-1 p: element a's is pi^-1 of p's at pi(a)
        lst = lists.get(pi)
        if lst is None:
            get = operator.itemgetter(*pi)
            masks = bytes(_union_table(n, [1 << pi.index(a) for a in range(n)])).ljust(256, b"\0")
            lst = lists[pi] = [index[bytes(get(up)).translate(masks)] for up in ups]
        return lst

    def walk() -> Iterator[tuple]:
        kept = []  # per orbit c, the compatible orders of its least table, as a mask and as flags
        for tables, c, pi, automorphisms in _associative_tables(n, k, not iso):
            if pi is None:
                compatible = (_compatible_orders(join, _requirements(tables, n))
                              if join.holds else join.every)
                kept.append((compatible, _flags(compatible, len(ids))))
            domain, flags = kept[c]
            source = relabeled(pi)
            # one `_compatible` call per order
            tested = map(_compatible, repeat(flags), source)
            if not iso:
                items = compress(enumerate(source), tested)
            elif pi is None:
                images = [relabeled(p) for p in automorphisms]
                canonical = list(filter(partial(_is_canonical, images, keys),
                                        compress(ids, tested)))
                domain, items = sum(1 << o for o in canonical), zip(canonical, canonical)
            else:
                # each is False; the calls stay only because perfbench/golden.json counts them
                deque(map(_is_canonical, repeat(None), repeat(keys), compress(source, tested)), 0)
                continue
            if domain:  # L has a compatible order, so this table has an item
                yield tables, c, domain, items

    return entries, walk()


_READ_AHEAD = 1024  # tables the driver may hold while their orbit's result is computed


class _Done:
    """`Pool.apply_async` in process: `unit(*args)`, computed at once."""

    def __init__(self, unit: Callable, args: tuple) -> None:
        self.value = unit(*args)

    def ready(self) -> bool:
        return True

    def get(self):
        return self.value


def _by_orbit(spec: EnumSpec, unit: Callable, submit: Callable = _Done) -> tuple:
    """(entries, tables): `_walk(spec)`'s entries, and each of its tables
    as (tables, domain, items, result).  On an orbit's least table L,
    which comes first in its orbit, result is `submit(unit, (structure,
    domain))`, the structure on L's first domain order with a fresh table
    dict.  The tables wait in walk order, and one is handed on when its
    result is `ready()` or more than `_READ_AHEAD` tables wait; the
    consumer calls `get()`.  `_Done` reads no table ahead, so a consumer
    that stops stops the walk and the calls."""
    entries, walk = _walk(spec)
    n, names = spec.n, _gamma_names(spec.k)

    def handed() -> Iterator[tuple]:
        results, waiting = {}, deque()  # per orbit c, its result; the tables not handed on
        for tables, c, domain, items in walk:
            result = results.get(c)
            if result is None:  # on L
                o = (domain & -domain).bit_length() - 1
                least = Structure._unchecked(n, names, tables, *entries[o], {})
                result = results[c] = submit(unit, (least, domain))
            waiting.append((tables, domain, items, result))
            while waiting and (len(waiting) > _READ_AHEAD or waiting[0][3].ready()):
                yield waiting.popleft()
        yield from waiting

    return entries, handed()


# sampling

_NODE_BUDGET = 25_000
_ATTEMPTS = 40


def _random_tables(n: int, k: int, rng: random.Random) -> tuple:
    """Randomized fill with restarts.

    A single randomized descent occasionally commits to a refutation-heavy
    region, so each of `_ATTEMPTS` attempts gets its own budget of
    `_NODE_BUDGET` nodes and a fresh shuffle; the median attempt finishes
    in well under a thousand nodes.  Both are read at call time.  Each
    depth the fill enters tries the values in the order of a fresh
    `rng.shuffle` of range(n).  Every depth's values pass through
    `compress` against the attempt's one `repeat` budget, a unit per value
    handed to the fill: once it is spent, no depth gets a value, so the
    fill unwinds without a draw and yields nothing.
    """
    def shuffled() -> list[int]:
        values = list(range(n))
        rng.shuffle(values)
        return values

    nodes, attempts = _NODE_BUDGET, _ATTEMPTS
    for _ in range(attempts):
        budget = repeat(True, nodes)
        tables = next(_fill(n, k, lambda: compress(shuffled(), budget)), None)
        if tables is not None:
            return tables
    raise SamplingBudgetError(
        f"table sampling spent {attempts} attempts of {nodes} nodes "
        f"each without completing a fill at n={n}, k={k}")


def _random_order(tables: tuple, n: int, rng: random.Random) -> tuple:
    """The j-th of the `partial_orders(n)` that `tables` respect, in list
    order, j = `rng.randrange` of their number: a uniform pick (the
    trivial order is always one)."""
    leqs, join = _order_layer(n, "all")
    compatible = _compatible_orders(join, _requirements(tables, n))
    j = rng.randrange(compatible.bit_count())
    return leqs[next(islice(bit_indices(compatible), j, None))]


def random_structure(n: int, k: int, seed: int | str | None = None) -> Structure:
    """One pseudo-random validated structure, fully determined by (n, k, seed).

    An omitted or None seed is 0.  The tables come from a seeded
    randomized fill, not uniform over the slice; the order is uniform over
    the partial orders the drawn tables respect.  n is 1..6 and k is 1..3,
    as in `EnumSpec`: the first draw at n builds every partial order and
    their join (`_order_layer`), about 0.02 s at n = 5 and 0.4-0.9 s at 6
    on a 2-vCPU VM, and the fill plan (`_fill_plan`) grows as k^2 n^3.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 6:
        raise InputError("n must be a positive integer, at most 6")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 3:
        raise InputError("k must be a positive integer, at most 3")
    rng = random.Random(f"{n}:{k}:{0 if seed is None else seed}")
    tables = _random_tables(n, k, rng)
    leq = _random_order(tables, n, rng)
    s = Structure(n, _gamma_names(k), tables, leq)
    report = validate(s)
    if not report.ok:
        raise RuntimeError(f"sampled structure fails validation: {report.violations}")
    return s


# the search expression language

def _unknown(name: str) -> InputError:
    return InputError(f"unknown predicate {reprlib.repr(name)}; known: "
                      + ", ".join(sorted(PREDICATES)))


@_value
class Pred(NamedTuple):
    name: str


@_value
class Not(NamedTuple):
    arg: "Expr"


@_value
class And(NamedTuple):
    left: "Expr"
    right: "Expr"


@_value
class Or(NamedTuple):
    left: "Expr"
    right: "Expr"


Expr = Pred | Not | And | Or


def parse_expr(text: str) -> Expr:
    """Parse a predicate expression: names, !, &, | and parentheses,
    with ! binding tightest and | loosest, & and | left associative.

    That is Python's grammar for ~, & and | over names, so `ast` parses
    it once ! is spelled ~.  Two guards keep it to that language: only
    ASCII letters, digits, _, !&|() and whitespace get through, and the
    tree maps onto `Pred` / `Not` / `And` / `Or` node by node, any other
    node (a number, a call, `not`, ...) being rejected."""
    for c in text:
        if not (c.isascii() and (c.isalnum() or c in "_!&|()") or c.isspace()):
            raise InputError(f"unexpected character {c!r} in expression")

    def build(root: ast.expr) -> Expr:
        # the nodes in the recursive order, left operand first, but from an
        # explicit stack: a chain as long as `ast` accepts nests deeper
        # than Python's recursion limit
        built, todo = [], [(root, False)]
        while todo:
            e, operands_built = todo.pop()
            if isinstance(e, ast.Name):
                if e.id not in PREDICATES:
                    raise _unknown(e.id)
                built.append(Pred(e.id))
            elif isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.Invert):
                if operands_built:
                    built.append(Not(built.pop()))
                else:
                    todo += [(e, True), (e.operand, False)]
            elif isinstance(e, ast.BinOp) and isinstance(e.op, (ast.BitAnd, ast.BitOr)):
                if operands_built:
                    right, left = built.pop(), built.pop()
                    built.append((And if isinstance(e.op, ast.BitAnd) else Or)(left, right))
                else:
                    todo += [(e, True), (e.right, False), (e.left, False)]
            else:
                raise InputError(f"malformed expression {reprlib.repr(text)}")
        return built[0]

    try:
        # eval mode rejects a bare newline; `2x` warns before it fails
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(" ".join(text.split()).replace("!", "~"), mode="eval")
        return build(tree.body)
    except (SyntaxError, RecursionError, MemoryError):  # the last two: nested too deep
        raise InputError(f"malformed expression {reprlib.repr(text)}") from None


def _check_expr(expr: Expr) -> None:
    """An InputError unless every node of the tree is a `Pred`, `Not`,
    `And` or `Or` and every leaf names a predicate: a hand-built tree is
    checked whole before any part of it is evaluated, so a bad leaf past
    a short circuit is reported too."""
    todo = [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, Pred):
            if not (isinstance(e.name, str) and e.name in PREDICATES):
                raise _unknown(e.name)
        elif isinstance(e, Not):
            todo.append(e.arg)
        elif isinstance(e, (And, Or)):
            todo += (e.left, e.right)
        else:
            raise InputError(f"not an expression node: {reprlib.repr(e)}")


def _holds(expr: Expr, dom: int, leaf: Callable[[str, int], int]) -> int:
    """The bits of the domain mask `dom` on which the expression holds,
    `leaf(name, d)` giving those of a nonempty domain d on which a name
    does.  `!` takes the domain's bits its operand lacks, `&` asks its
    right operand on the bits where its left holds and `|` on those where
    it fails, and no part of the expression is asked on an empty domain;
    on a one-bit domain that is the short-circuit evaluation, operands
    left to right.  An explicit stack of the nodes waiting on an operand
    replaces recursion, so a chain as long as the parser accepts does not
    overflow Python's stack.  The caller has checked the tree
    (`_check_expr`)."""
    waiting = []  # (node, its domain, its left operand's bits or None)
    node, d = expr, dom
    while True:
        while d and not isinstance(node, Pred):
            waiting.append((node, d, None))
            node = node.arg if isinstance(node, Not) else node.left
        value = leaf(node.name, d) if d else 0
        while waiting:
            parent, d, left = waiting.pop()
            if isinstance(parent, Not):
                value = d & ~value
            elif left is None:
                waiting.append((parent, d, value))
                node, d = parent.right, value if isinstance(parent, And) else d & ~value
                break
            elif isinstance(parent, Or):
                value |= left
        else:
            return value


def eval_expr(s: Structure, expr: Expr) -> bool:
    """The expression's value on `s`, operands left to right, `&` and `|`
    short-circuiting: `_holds` on a one-bit domain."""
    _check_expr(expr)
    return bool(_holds(expr, 1, lambda name, d: PREDICATES[name](s)))


def search(spec: EnumSpec, expr: Expr | str, mode: str = "first"):
    """Hunt the slice for structures satisfying the expression.

    mode "first" returns the first hit or None, "all" the list of hits,
    "count" just their number.  Order is the enumeration order, so the
    result is deterministic.  Per orbit, `_holds` evaluates the expression
    once on the predicate forms of its least table L over L's domain (see
    `_walk`), bit o for order o: (pi L, p) and (L, o) are isomorphic, so
    every table pi L reads the result at bit o.  A count builds no
    structure for a hit; "first" and "all" build each hit lazily, so
    "first" stops at the first.
    """
    from .tablewise import PREDICATE_FORMS, forms  # `tablewise` imports this module

    if isinstance(expr, str):
        expr = parse_expr(expr)
    if mode not in ("first", "all", "count"):
        raise InputError("mode must be first, all or count")
    _check_expr(expr)

    def unit(least: Structure, domain: int) -> int:
        f = forms(least, spec.orders)
        return _holds(expr, domain, lambda name, d: PREDICATE_FORMS[name](f) & d)

    entries, tables = _by_orbit(spec, unit)
    if mode == "count":  # a table's items name each o of its domain once
        return sum(result.get().bit_count() for _, _, _, result in tables)
    n, names = spec.n, _gamma_names(spec.k)

    def hits() -> Iterator[Structure]:
        for table, _, items, result in tables:
            found, shared = result.get(), {}  # shared: the table-only results of its hits
            for p, o in items:
                if found >> o & 1:
                    leq, down, up = entries[p]
                    yield Structure._unchecked(n, names, table, leq, down, up, shared)

    return next(hits(), None) if mode == "first" else list(hits())
