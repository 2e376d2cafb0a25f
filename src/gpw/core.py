"""Kernel for finite ordered Gamma-semigroups.

A Structure is a carrier {0, .., n-1} together with k labelled binary
operation tables and a partial order, immutable once constructed.
Construction checks shapes only; `validate` checks the axioms (mixed
associativity across every pair of operations, the partial-order laws,
and two-sided order compatibility) and reports every violated axiom with
a concrete witness instead of stopping at the first.

Every structure from outside the package is checked: `Structure(...)`,
`gpsjson.loads` and `random_structure` all go through `__init__`.  The
enumeration walk builds its structures with `Structure._unchecked`,
which stores the parts as given: its tables come from the fill and its
orders from `explore.partial_orders`, both already tuples of the right
shapes and ranges, and it computes each order's `down` / `up` masks
once per walk, rather than once per structure.  Unpickling goes through
`_unchecked` too, with the `down` / `up` the pickle carries: pickles
come only from the walk, one least table's per task of `campaign --jobs
N`, and loading a pickle runs code anyway.

Subsets of the carrier are bit masks tagged with the owning structure, so
values belonging to different structures cannot be mixed by accident.
`downset`, `upset` and `gamma_product` form the subset algebra everything
else is built from; the *_bits functions are the raw mask layer used by
the hot loops.

The mask layer answers from lookup tables, each built on first use.
`downset_bits` / `upset_bits` index a 2^n-entry closure table built by a
DP over the lowest set bit.  `product_bits(s, A, B)` reads entry [A][B]
of the product table: the row of a single element is a DP over B, and
any other row is the OR of the rows of A minus its lowest bit and of
that bit, 4^n entries in all, built whole on first use.

One memo policy holds for every derived result in the package.  A
function f(s, ...) decorated with `per_structure` keeps its results in
`s._cache`; one decorated with `per_table`, for a result that depends on
the tables alone and not on the order, keeps them in `table_cache(s)`, a
dict that every structure on the same tables may share: the enumeration
walk hands one dict to all the structures it builds on one table, and
drops it when it moves to the next table.  Any other structure (sampled,
loaded, or built by hand) has a dict of its own.  The key is the
decorated function, or a tuple of it and the other arguments, which are
positional and hashable.  Only this module reads either dict directly:
`product_bits` reads the product table from the table dict, and
`downset_bits` and `upset_bits` read their closure tables from
`s._cache`, each by one lookup.  A pickled structure carries its raw
parts, its `down` / `up` masks and its table dict, which a campaign
sends empty; its own `_cache` arrives empty too.

The compatibility join (`_compatible_orders`) tests a whole list of
reflexive relations on the carrier at once, bit o of a mask standing for
relation o: which of them every operation respects on both sides.  The
walk runs it over its orders (`explore`), and the semilattice congruence
sweep over the equivalences (`relations`).
"""

from __future__ import annotations

import reprlib
from functools import lru_cache, update_wrapper
from typing import Iterable, Iterator, NamedTuple, Sequence

# `EnumSpec`'s orders and dedup values, here so the CLI's parser needs no `explore`
_ORDER_MODES = ("all", "trivial", "total")
_DEDUP_MODES = ("labeled", "iso")


class InputError(ValueError):
    """Malformed raw data: bad shape, out-of-range entry, duplicate label."""


class OwnerError(ValueError):
    """Subsets owned by different structures were combined."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


def bit_indices(bits: int) -> Iterator[int]:
    """Positions of the set bits of a mask, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@lru_cache(maxsize=None)
def subset_masks(bits: int) -> tuple[int, ...]:
    """The nonempty submasks of `bits`, ascending by popcount then value;
    `subset_masks(s.full)` lists every nonempty subset of the carrier."""
    subs = []
    sub = bits
    while sub:
        subs.append(sub)
        sub = (sub - 1) & bits
    subs.sort(key=lambda m: (m.bit_count(), m))
    return tuple(subs)


class Structure:
    """A finite carrier with k labelled binary operations and a partial order.

    `tables[g][a][b]` is the product of a and b under the g-th operation,
    `leq[a][b]` means a <= b.  `down[a]` / `up[a]` are masks of the
    elements below / above a, `full` is the whole-carrier mask.  Instances
    are immutable; derived results are memoised (see `per_structure` and
    `per_table`), which is safe because nothing here ever mutates.
    """

    __slots__ = ("n", "gamma_names", "tables", "leq", "full", "down", "up",
                 "_cache", "_table_cache")

    def __init__(self, n: int, gamma_names: Sequence[str],
                 tables: Sequence, leq: Sequence) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"carrier size must be an integer >= 1, got {reprlib.repr(n)}")
        names = tuple(gamma_names)
        if not names:
            raise InputError("at least one operation label is required")
        for g in names:
            if not isinstance(g, str):
                raise InputError(f"operation labels must be strings, got {reprlib.repr(g)}")
        if len(set(names)) != len(names):
            raise InputError(f"duplicate operation labels in {reprlib.repr(names)}")
        tabs = tuple(tuple(tuple(row) for row in t) for t in tables)
        if len(tabs) != len(names):
            raise InputError(f"expected {len(names)} tables, got {len(tabs)}")
        for g, t in zip(names, tabs):
            if len(t) != n or any(len(row) != n for row in t):
                raise InputError(f"table {reprlib.repr(g)} is not {n}x{n}")
            for row in t:
                for v in row:
                    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                        raise InputError(f"table {reprlib.repr(g)} has entry "
                                         f"{reprlib.repr(v)} outside 0..{n - 1}")
        order = tuple(tuple(bool(x) for x in row) for row in leq)
        if len(order) != n or any(len(row) != n for row in order):
            raise InputError(f"order matrix is not {n}x{n}")
        self._store(n, names, tabs, order, *_down_up(order, n), {})

    @staticmethod
    def _unchecked(n: int, names: tuple, tables: tuple, leq: tuple,
                   down: tuple, up: tuple, table_cache: dict) -> "Structure":
        """The structure on parts already in the shapes `__init__` makes,
        with nothing checked: `names` a tuple of distinct strings, `tables`
        k tuples of n tuples of n ints in 0..n-1, `leq` n tuples of n
        bools, `down`, `up` what `_down_up` gives for `leq`, and
        `table_cache` the dict of table-only results (see `table_cache()`)
        that it shares with other structures on equal tables."""
        s = object.__new__(Structure)
        s._store(n, names, tables, leq, down, up, table_cache)
        return s

    def _store(self, n, names, tables, leq, down, up, table_cache) -> None:
        self.n = n
        self.gamma_names = names
        self.tables = tables
        self.leq = leq
        self.full = (1 << n) - 1
        self.down = down
        self.up = up
        self._cache = {}
        self._table_cache = table_cache

    def __reduce__(self):
        return (Structure._unchecked, (self.n, self.gamma_names, self.tables, self.leq,
                                       self.down, self.up, self._table_cache))

    def __repr__(self) -> str:
        return f"Structure(n={self.n}, gamma={list(self.gamma_names)})"

    def gamma_index(self, label: str) -> int:
        try:
            return self.gamma_names.index(label)
        except ValueError:
            raise InputError(f"unknown operation label {label!r}") from None

    def subset(self, elems: Iterable[int]) -> "Subset":
        bits = 0
        for e in elems:
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < self.n:
                raise InputError(f"element {e!r} outside 0..{self.n - 1}")
            bits |= 1 << e
        return Subset(self, bits)

    def empty(self) -> "Subset":
        return Subset(self, 0)

    def universe(self) -> "Subset":
        return Subset(self, self.full)


class Subset:
    """Bit-mask subset of one structure's carrier, an immutable value."""

    def __init__(self, structure: Structure, bits: int) -> None:
        if (not isinstance(bits, int) or isinstance(bits, bool)
                or not 0 <= bits <= structure.full):
            raise InputError(f"subset mask {bits!r} outside the carrier")
        self.__dict__.update(structure=structure, bits=bits)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Subset")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not Subset:
            return NotImplemented
        return self.structure is other.structure and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.structure, self.bits))

    def elements(self) -> list[int]:
        return list(bit_indices(self.bits))

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, e: int) -> bool:
        return isinstance(e, int) and 0 <= e < self.structure.n and (self.bits >> e) & 1 == 1

    def __or__(self, other: "Subset") -> "Subset":
        return Subset(self.structure, self.bits | _owned(self.structure, other))

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.structure, self.bits & _owned(self.structure, other))

    def __sub__(self, other: "Subset") -> "Subset":
        return Subset(self.structure, self.bits & ~_owned(self.structure, other))

    def issubset(self, other: "Subset") -> bool:
        return self.bits & ~_owned(self.structure, other) == 0

    __le__ = issubset

    def __repr__(self) -> str:
        return f"Subset({self.elements()})"


def _down_up(leq, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`down` and `up` of the order matrix `leq`: per element, the mask
    of the elements below it and of those above it."""
    down = [0] * n
    up = [0] * n
    for a in range(n):
        for b in range(n):
            if leq[a][b]:  # a <= b
                down[b] |= 1 << a
                up[a] |= 1 << b
    return tuple(down), tuple(up)


def _order_closure(n: int, pairs: Iterable) -> list[list[bool]]:
    """The reflexive-transitive closure of the pairs (a, b), each meaning
    a <= b, as an n x n matrix of lists; antisymmetry is not checked."""
    rel = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        rel[a][b] = True
    for m in range(n):
        rm = rel[m]
        for ra in rel:
            if ra[m]:
                for b in range(n):
                    if rm[b]:
                        ra[b] = True
    return rel


def _unchecked_subset(s: Structure, bits: int) -> Subset:
    """The Subset of `bits`, which the caller guarantees lies within the
    carrier of s, built without `__init__`'s range check."""
    sub = object.__new__(Subset)
    object.__setattr__(sub, "structure", s)
    object.__setattr__(sub, "bits", bits)
    return sub


def _owned(s: Structure, a: Subset) -> int:
    if not isinstance(a, Subset):
        raise InputError(f"expected a Subset, got {a!r}")
    if a.structure is not s:
        raise OwnerError("subset does not belong to this structure")
    return a.bits


def table_cache(s: Structure) -> dict:
    """The memo dict for results that depend on the tables of s alone,
    shared with the structures it was built alongside (see the module
    docstring)."""
    return s._table_cache


_MISS = object()


def _memo(f, shared: bool):
    """Memoise f(s, ...) in `table_cache(s)` when shared, else in
    `s._cache`.  One wrapper per count of extra arguments, so that a hit
    costs one call, one key and one `dict.get`."""
    arity = f.__code__.co_argcount - 1
    if arity == 0:
        def memo(s):
            cache = s._table_cache if shared else s._cache
            hit = cache.get(memo, _MISS)
            if hit is _MISS:
                hit = cache[memo] = f(s)
            return hit
    elif arity == 1:
        def memo(s, a):
            cache = s._table_cache if shared else s._cache
            key = memo, a
            hit = cache.get(key, _MISS)
            if hit is _MISS:
                hit = cache[key] = f(s, a)
            return hit
    elif arity == 2:
        def memo(s, a, b):
            cache = s._table_cache if shared else s._cache
            key = memo, a, b
            hit = cache.get(key, _MISS)
            if hit is _MISS:
                hit = cache[key] = f(s, a, b)
            return hit
    else:
        raise TypeError(f"{f.__name__} takes {arity} arguments after s; at most 2 are memoised")
    return update_wrapper(memo, f)


def per_structure(f):
    """Decorator: memoise f(s, ...) in `s._cache`, keyed by the decorated
    function and the other arguments."""
    return _memo(f, False)


def per_table(f):
    """Decorator: memoise f(s, ...), which must read the tables of s and
    not its order, in `table_cache(s)`, keyed by the decorated function
    and the other arguments."""
    return _memo(f, True)


# raw mask layer

def _union_table(n: int, gens) -> list[int]:
    """Entry m is the OR of gens[a] over the members a of mask m."""
    tab = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        tab[m] = tab[m ^ low] | gens[low.bit_length() - 1]
    return tab


@per_structure
def down_table(s: Structure) -> list[int]:
    """Entry m is the down-closure of mask m."""
    return _union_table(s.n, s.down)


@per_structure
def up_table(s: Structure) -> list[int]:
    """Entry m is the up-closure of mask m."""
    return _union_table(s.n, s.up)


def downset_bits(s: Structure, bits: int) -> int:
    return (s._cache.get(down_table) or down_table(s))[bits]


def upset_bits(s: Structure, bits: int) -> int:
    return (s._cache.get(up_table) or up_table(s))[bits]


@per_table
def product_table(s: Structure) -> list[list[int]]:
    """Entry [A][B] is the mask of A*B, for every pair of masks."""
    n = s.n
    rows = [[0] * (1 << n)]
    for m in range(1, 1 << n):
        low = m & -m
        if m == low:
            a = low.bit_length() - 1
            gens = [0] * n  # gens[b]: products of a and b over every operation
            for t in s.tables:
                for b, p in enumerate(t[a]):
                    gens[b] |= 1 << p
            rows.append(_union_table(n, gens))
        else:
            rows.append([x | y for x, y in zip(rows[m ^ low], rows[low])])
    return rows


def product_bits(s: Structure, abits: int, bbits: int) -> int:
    """Mask of {a g b : a in A, b in B, g any operation}."""
    return (s._table_cache.get(product_table) or product_table(s))[abits][bbits]


def downset(s: Structure, a: Subset) -> Subset:
    """Downward closure: everything below some member of A."""
    return Subset(s, downset_bits(s, _owned(s, a)))


def upset(s: Structure, a: Subset) -> Subset:
    """Upward closure: everything above some member of A."""
    return Subset(s, upset_bits(s, _owned(s, a)))


def gamma_product(s: Structure, a: Subset, b: Subset) -> Subset:
    """Elementwise product set over every operation, no order closure."""
    return Subset(s, product_bits(s, _owned(s, a), _owned(s, b)))


def word_product(s: Structure, items: Sequence) -> int:
    """Evaluate an alternating word  e0 g0 e1 g1 ... em  left to right.

    On a validated structure the result is independent of bracketing; the
    right-to-left fold is cross-checked, and a mismatch is an InputError.
    """
    seq = list(items)
    if len(seq) % 2 == 0 or not seq:
        raise InputError("word must alternate elements and labels and end with an element")
    for i in range(0, len(seq), 2):
        e = seq[i]
        if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < s.n:
            raise InputError(f"word position {i}: element {e!r} outside 0..{s.n - 1}")
    ops = [s.gamma_index(seq[i]) for i in range(1, len(seq), 2)]
    acc = seq[0]
    for j, g in enumerate(ops):
        acc = s.tables[g][acc][seq[2 * j + 2]]
    rev = seq[-1]
    for j in range(len(ops) - 1, -1, -1):
        rev = s.tables[ops[j]][seq[2 * j]][rev]
    if rev != acc:
        raise InputError("bracketing changed a word product; structure is not associative")
    return acc


# the compatibility join (see the module docstring)

def _pair_bit(n: int, a: int, b: int) -> int:
    """The mask bit of the pair (a, b).  Row-major pairs go from the most
    significant bit down, so two masks compare as integers the way their
    row-major 0/1 keys compare as tuples."""
    return 1 << (n * n - 1 - a * n - b)


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """`_pair_bit(n, a, b)` at [a][b] for a != b, 0 on the diagonal: every
    reflexive relation holds each pair (a, a), so none is ever required."""
    return tuple(tuple(_pair_bit(n, a, b) if a != b else 0 for b in range(n))
                 for a in range(n))


def _requirements(tables: tuple, n: int) -> tuple[int, ...]:
    """Per pair a*n + b with a != b, the mask of the pairs (a g c, b g c)
    and (c g a, c g b) over every c and g with the two elements distinct:
    what holding (a, b) forces into a relation, an order or an
    equivalence, for every operation to respect it on both sides."""
    bit = _pair_bits(n)
    req = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            if a != b:
                m = 0
                for t in tables:
                    ra, rb = t[a], t[b]
                    for c in range(n):
                        m |= bit[ra[c]][rb[c]] | bit[t[c][a]][t[c][b]]
                req[a * n + b] = m
    return tuple(req)


class _Join(NamedTuple):
    """The compatibility join over a list of reflexive relations on
    0..n-1, orders or equivalences: bit o of each mask stands for
    relation o of the list."""

    holds: tuple[tuple[int, int], ...]  # (a*n + b, the relations holding it) per pair a != b held
    held_by: dict[int, int]  # the same masks keyed by the pair's bit (see `_pair_bit`)
    every: int  # every relation


def _join(n: int, holds: list[tuple[int, int]], count: int) -> _Join:
    """The join of a list of `count` relations, from its `holds`."""
    return _Join(tuple(holds), {1 << (n * n - 1 - i): held for i, held in holds},
                 (1 << count) - 1)


def _compatible_orders(join: _Join, req: tuple[int, ...]) -> int:
    """The mask of the join's relations that every operation of the
    table whose `_requirements` are `req` respects on both sides.  A
    relation fails when it holds some pair i = a*n + b and lacks a pair
    of req[i], which holding i forces, so the failing relations are the
    union, over the held pairs i, of those holding i but not every pair
    of req[i]."""
    held_by, every = join.held_by, join.every
    bad = 0
    for i, held in join.holds:
        forced = req[i]
        holding = every  # the relations holding every pair of req[i] seen so far
        while forced:
            low = forced & -forced
            holding &= held_by.get(low, 0)
            forced ^= low
        bad |= held & ~holding
    return every ^ bad


class ValidationReport(NamedTuple):
    """Outcome of the axiom check: ok iff no violations were collected."""

    ok: bool
    violations: list

    def axioms(self) -> list[str]:
        seen = []
        for name, _ in self.violations:
            if name not in seen:
                seen.append(name)
        return seen


def validate(s: Structure) -> ValidationReport:
    """Check every axiom on every tuple and collect all violations.

    Violation entries are (axiom, witness) pairs; witnesses carry the
    offending elements and, where relevant, the operation labels.
    """
    v = []
    n, leq, tabs, names = s.n, s.leq, s.tables, s.gamma_names
    rng = range(n)
    for a in rng:
        if not leq[a][a]:
            v.append(("order-reflexive", (a,)))
    for a in rng:
        for b in range(a + 1, n):
            if leq[a][b] and leq[b][a]:
                v.append(("order-antisymmetric", (a, b)))
    for a in rng:
        for b in rng:
            if not leq[a][b]:
                continue
            for c in rng:
                if leq[b][c] and not leq[a][c]:
                    v.append(("order-transitive", (a, b, c)))
    for gi, g in enumerate(names):
        tg = tabs[gi]
        for mi, m in enumerate(names):
            tm = tabs[mi]
            for a in rng:
                for b in rng:
                    p = tg[a][b]
                    for c in rng:
                        if tm[p][c] != tg[a][tm[b][c]]:
                            v.append(("associativity", (a, b, c, g, m)))
    for gi, g in enumerate(names):
        t = tabs[gi]
        for a in rng:
            for b in rng:
                if a == b or not leq[a][b]:
                    continue
                for c in rng:
                    if not leq[t[a][c]][t[b][c]]:
                        v.append(("compatibility-right", (a, b, c, g)))
                    if not leq[t[c][a]][t[c][b]]:
                        v.append(("compatibility-left", (a, b, c, g)))
    return ValidationReport(not v, v)
