"""Kernel for finite ordered Gamma-semigroups.

A Structure is a carrier {0, .., n-1} together with k labelled binary
operation tables and a partial order, immutable once constructed.
Construction checks shapes only; `validate` checks the axioms (mixed
associativity across every pair of operations, the partial-order laws,
and two-sided order compatibility) and reports every violated axiom with
a concrete witness instead of stopping at the first.

Subsets of the carrier are bit masks tagged with the owning structure, so
values belonging to different structures cannot be mixed by accident.
`downset`, `upset` and `gamma_product` form the subset algebra everything
else is built from; the *_bits functions are the raw mask layer used by
the hot loops.

The mask layer answers from lookup tables kept in the structure's
`_cache`, each built on first use.  `downset_bits` / `upset_bits` index a
2^n-entry closure table built by a DP over the lowest set bit.
`product_bits(s, A, B)` reads entry B of the product row of A: the row of
a single element is a DP over B, and any other row is the OR of the rows
of A minus its lowest bit and of that bit.  Only rows that are asked for
get built, so memory grows with the rows used (at most 2^n rows of 2^n
entries); a structure that is never multiplied pays nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


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


def subset_masks(n: int) -> list[int]:
    """All nonempty subset masks of an n-element carrier, by popcount then value."""
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))


class Structure:
    """A finite carrier with k labelled binary operations and a partial order.

    `tables[g][a][b]` is the product of a and b under the g-th operation,
    `leq[a][b]` means a <= b.  `down[a]` / `up[a]` are masks of the
    elements below / above a, `full` is the whole-carrier mask.  Instances
    are immutable; derived results are memoised on `_cache` keyed by the
    computation, which is safe because nothing here ever mutates.
    """

    __slots__ = ("n", "gamma_names", "tables", "leq", "full", "down", "up",
                 "_gamma_index", "_cache")

    def __init__(self, n: int, gamma_names: Sequence[str],
                 tables: Sequence, leq: Sequence) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"carrier size must be an integer >= 1, got {n!r}")
        names = tuple(gamma_names)
        if not names:
            raise InputError("at least one operation label is required")
        for g in names:
            if not isinstance(g, str):
                raise InputError(f"operation labels must be strings, got {g!r}")
        if len(set(names)) != len(names):
            raise InputError(f"duplicate operation labels in {names!r}")
        tabs = tuple(tuple(tuple(row) for row in t) for t in tables)
        if len(tabs) != len(names):
            raise InputError(f"expected {len(names)} tables, got {len(tabs)}")
        for g, t in zip(names, tabs):
            if len(t) != n or any(len(row) != n for row in t):
                raise InputError(f"table {g!r} is not {n}x{n}")
            for row in t:
                for v in row:
                    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                        raise InputError(f"table {g!r} has entry {v!r} outside 0..{n - 1}")
        order = tuple(tuple(bool(x) for x in row) for row in leq)
        if len(order) != n or any(len(row) != n for row in order):
            raise InputError(f"order matrix is not {n}x{n}")

        self.n = n
        self.gamma_names = names
        self.tables = tabs
        self.leq = order
        self.full = (1 << n) - 1
        down = [0] * n
        up = [0] * n
        for a in range(n):
            for b in range(n):
                if order[a][b]:  # a <= b
                    down[b] |= 1 << a
                    up[a] |= 1 << b
        self.down = tuple(down)
        self.up = tuple(up)
        self._gamma_index = {g: i for i, g in enumerate(names)}
        self._cache = {}

    def __reduce__(self):
        return (Structure, (self.n, self.gamma_names, self.tables, self.leq))

    def __repr__(self) -> str:
        return f"Structure(n={self.n}, gamma={list(self.gamma_names)})"

    def gamma_index(self, label: str) -> int:
        try:
            return self._gamma_index[label]
        except KeyError:
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


@dataclass(frozen=True)
class Subset:
    """Bit-mask subset of one structure's carrier."""

    structure: Structure
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or not 0 <= self.bits <= self.structure.full:
            raise InputError(f"subset mask {self.bits!r} outside the carrier")

    def _peer(self, other: "Subset") -> "Subset":
        if not isinstance(other, Subset):
            raise InputError(f"expected a Subset, got {other!r}")
        if other.structure is not self.structure:
            raise OwnerError("subsets belong to different structures")
        return other

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
        return Subset(self.structure, self.bits | self._peer(other).bits)

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.structure, self.bits & self._peer(other).bits)

    def __sub__(self, other: "Subset") -> "Subset":
        return Subset(self.structure, self.bits & ~self._peer(other).bits)

    def issubset(self, other: "Subset") -> bool:
        return self.bits & ~self._peer(other).bits == 0

    __le__ = issubset

    def __repr__(self) -> str:
        return f"Subset({self.elements()})"


def _owned(s: Structure, a: Subset) -> int:
    if not isinstance(a, Subset):
        raise InputError(f"expected a Subset, got {a!r}")
    if a.structure is not s:
        raise OwnerError("subset does not belong to this structure")
    return a.bits


# raw mask layer

def _union_table(n: int, gens) -> list[int]:
    """Entry m is the OR of gens[a] over the members a of mask m."""
    tab = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        tab[m] = tab[m ^ low] | gens[low.bit_length() - 1]
    return tab


def downset_bits(s: Structure, bits: int) -> int:
    tab = s._cache.get("down_table")
    if tab is None:
        tab = s._cache["down_table"] = _union_table(s.n, s.down)
    return tab[bits]


def upset_bits(s: Structure, bits: int) -> int:
    tab = s._cache.get("up_table")
    if tab is None:
        tab = s._cache["up_table"] = _union_table(s.n, s.up)
    return tab[bits]


def _product_row(s: Structure, rows: list, abits: int) -> list[int]:
    """Row A of the product table: entry B is the mask of A*B."""
    low = abits & -abits
    if abits == low:
        a = low.bit_length() - 1
        gens = [0] * s.n  # gens[b]: products of a and b over every operation
        for t in s.tables:
            for b, p in enumerate(t[a]):
                gens[b] |= 1 << p
        row = _union_table(s.n, gens)
    else:
        rest = rows[abits ^ low] or _product_row(s, rows, abits ^ low)
        single = rows[low] or _product_row(s, rows, low)
        row = [x | y for x, y in zip(rest, single)]
    rows[abits] = row
    return row


def product_bits(s: Structure, abits: int, bbits: int) -> int:
    """Mask of {a g b : a in A, b in B, g any operation}."""
    rows = s._cache.get("product_rows")
    if rows is None:
        rows = s._cache["product_rows"] = [None] * (1 << s.n)
        rows[0] = [0] * (1 << s.n)
    return (rows[abits] or _product_row(s, rows, abits))[bbits]


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


@dataclass
class ValidationReport:
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
