"""Carrier partitions and the congruence / semilattice-congruence tests.

The four named equivalences identify elements whose principal left /
right / two-sided ideals (L, R, I) or generated filters (N) coincide.
Partitions are canonical: blocks are sorted by least element, so equal
partitions compare and hash equal, and a partition is its class labels,
a restricted growth string; its block Subsets are built on first use,
without their own range check.  A Partition built from caller-given
blocks validates them; the partitions this module builds come from
class labels that are valid by construction.

What reads only the tables and a partition's labels is kept once per
table (`core.per_table`): whether the partition is a semilattice
congruence (`_semilattice_labels`), its first chain failure
(`_chain_failure`), and the sweep of every partition for the semilattice
congruences, with their block masks, whether every block is a
subsemigroup and whether the chain condition fails
(`_semilattice_classes`), which scans for a chain failure only on a
congruence.  The sweep tests all Bell(n) partitions at once, as the walk
tests its orders: through the compatibility join over the equivalences,
one bit per growth string.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .core import (InputError, OwnerError, Structure, Subset, _compatible_orders, _join,
                   _Join, _requirements, _unchecked_subset, bit_indices, per_structure,
                   per_table, product_bits)
from .ideals import IdealKind, _filter_gens, _principals

_KINDS = {"L": IdealKind.LEFT, "R": IdealKind.RIGHT, "I": IdealKind.TWO_SIDED}


class Partition:
    """A partition of one structure's carrier into nonempty blocks."""

    __slots__ = ("structure", "class_of", "_blocks")

    def __init__(self, structure: Structure, blocks: Iterable[Iterable[int]]) -> None:
        masks = sorted((structure.subset(blk).bits for blk in blocks),
                       key=lambda b: (b & -b))  # by least element
        if 0 in masks:
            raise InputError("empty block in partition")
        covered = 0
        for bits in masks:
            if covered & bits:
                raise InputError("partition blocks overlap")
            covered |= bits
        if covered != structure.full:
            raise InputError("partition does not cover the carrier")
        self.structure = structure
        self.class_of = tuple(next(i for i, b in enumerate(masks) if b >> e & 1)
                              for e in range(structure.n))
        self._blocks = None

    @classmethod
    def _from_classes(cls, s: Structure, class_of: tuple[int, ...]) -> "Partition":
        """The partition putting element e in block class_of[e], unchecked:
        class_of must be a restricted growth string (block i first appears
        after blocks 0..i-1), so blocks come out sorted by least element."""
        p = cls.__new__(cls)
        p.structure = s
        p.class_of = class_of
        p._blocks = None
        return p

    @property
    def blocks(self) -> tuple[Subset, ...]:
        """The blocks as Subsets, sorted by least element, built on first use."""
        if self._blocks is None:
            self._blocks = tuple(_unchecked_subset(self.structure, b)
                                 for b in _block_masks(self.class_of))
        return self._blocks

    @classmethod
    def identity(cls, s: Structure) -> "Partition":
        return cls(s, [[e] for e in range(s.n)])

    @classmethod
    def single_block(cls, s: Structure) -> "Partition":
        return cls(s, [range(s.n)])

    def block_of(self, a: int) -> int:
        return self.class_of[a]

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def as_lists(self) -> list[list[int]]:
        return [b.elements() for b in self.blocks]

    def refines(self, other: "Partition") -> bool:
        """Every block of self sits inside a single block of other: each
        class label of self goes with one class label of other, so the
        pairs of labels are as many as self's labels."""
        _check_owner(self.structure, other)
        return len(set(zip(self.class_of, other.class_of))) == len(set(self.class_of))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Partition)
                and other.structure is self.structure
                and other.class_of == self.class_of)

    def __hash__(self) -> int:
        return hash((id(self.structure), self.class_of))

    def __repr__(self) -> str:
        return f"Partition({self.as_lists()})"


@per_structure
def relation_partition(s: Structure, which: str) -> Partition:
    """Partition of the carrier under L, R, I or N equivalence."""
    if which == "N":
        keys = _filter_gens(s)
    elif which in _KINDS:
        keys = _principals(s, _KINDS[which])
    else:
        raise InputError(f"unknown relation {which!r}, expected one of L R I N")
    first: dict[int, int] = {}  # block number by key, in order of least element
    return Partition._from_classes(s, tuple([first.setdefault(k, len(first)) for k in keys]))


def _check_owner(s: Structure, p: Partition) -> None:
    if not isinstance(p, Partition):
        raise InputError(f"expected a Partition, got {p!r}")
    if p.structure is not s:
        raise OwnerError("partition does not belong to this structure")


def is_congruence(s: Structure, p: Partition) -> bool:
    """Block-equal elements stay block-equal under left and right translation."""
    _check_owner(s, p)
    cls = p.class_of
    n = s.n
    for blk in p.blocks:
        members = blk.elements()
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                for t in s.tables:
                    ra, rb = t[a], t[b]
                    for c in range(n):
                        if cls[ra[c]] != cls[rb[c]] or cls[t[c][a]] != cls[t[c][b]]:
                            return False
    return True


def is_semilattice_congruence(s: Structure, p: Partition) -> bool:
    """Congruence whose quotient is idempotent and commutative."""
    if not is_congruence(s, p):
        return False
    cls = p.class_of
    for t in s.tables:
        for a in range(s.n):
            if cls[t[a][a]] != cls[a]:
                return False
            ra = t[a]
            for b in range(a + 1, s.n):
                if cls[ra[b]] != cls[t[b][a]]:
                    return False
    return True


def is_complete_semilattice_congruence(s: Structure, p: Partition) -> bool:
    """Semilattice congruence where a <= b forces a and a*b block-equal."""
    if not is_semilattice_congruence(s, p):
        return False
    cls = p.class_of
    for a in range(s.n):
        for b in range(s.n):
            if not s.leq[a][b]:
                continue
            for t in s.tables:
                if cls[t[a][b]] != cls[a]:
                    return False
    return True


@lru_cache(maxsize=None)
def _growth_strings(n: int) -> tuple[tuple[int, ...], ...]:
    """Restricted growth strings of length n, lexicographic: a[0] = 0, a[i] <= max(a[:i]) + 1."""
    out = [(0,)]
    for _ in range(n - 1):
        out = [a + (v,) for a in out for v in range(max(a) + 2)]
    return tuple(out)


@lru_cache(maxsize=None)
def _block_masks(class_of: tuple[int, ...]) -> tuple[int, ...]:
    """The mask of each block of a restricted growth string, in block order."""
    return tuple(sum(1 << e for e, d in enumerate(class_of) if d == c)
                 for c in range(max(class_of) + 1))


def all_partitions(s: Structure) -> Iterator[Partition]:
    """Every partition of the carrier, in lexicographic growth-string order.

    Bell(n) many; meant for exhaustive congruence searches at n <= 5.
    """
    for rgs in _growth_strings(s.n):
        yield Partition._from_classes(s, rgs)


@per_table
def _semilattice_labels(s: Structure, class_of: tuple[int, ...]) -> bool:
    """Whether the partition with these labels is a semilattice congruence.
    With lab(x, y) the label of x g y, it is one when lab(x, x) is x's
    label and lab(x, y) = lab(y, x) = lab(r, y) for r the least member of
    x's class: then lab(x, y) = lab(r, y) = lab(y, r) = lab(r', r), a
    well-defined quotient."""
    rep = [class_of.index(c) for c in class_of]
    return all(class_of[t[x][x]] == cx
               and all(class_of[p] == class_of[q] == class_of[u]
                       for p, q, u in zip(t[x], [row[x] for row in t], t[r]))
               for t in s.tables for x, (r, cx) in enumerate(zip(rep, class_of)))


@per_table
def _chain_failure(s: Structure, class_of: tuple[int, ...]) -> tuple | None:
    """The first chain failure of the partition with these labels: the
    first (x, y, g), g an operation's index, with x g y in neither x's
    class nor y's; None when there is none."""
    return next(((x, y, g) for x, cx in enumerate(class_of) for y, cy in enumerate(class_of)
                 for g, t in enumerate(s.tables) if cx != class_of[t[x][y]] != cy), None)


@lru_cache(maxsize=None)
def _equivalences(n: int) -> tuple[_Join, list[list[int]]]:
    """The compatibility join over the equivalences of `_growth_strings(n)`,
    bit i standing for the i-th, and per pair (x, y) the mask of those
    that hold x ~ y, every one on the diagonal."""
    strings = _growth_strings(n)
    same = [[sum(1 << i for i, c in enumerate(strings) if c[x] == c[y]) for y in range(n)]
            for x in range(n)]
    holds = [(x * n + y, same[x][y]) for x in range(n) for y in range(n) if x != y]
    return _join(n, holds, len(strings)), same


@per_table
def _semilattice_classes(s: Structure) -> tuple[tuple, ...]:
    """Every semilattice congruence, in `all_partitions` order, as its
    labels, its block masks, whether every block is a subsemigroup and
    whether the chain condition fails.  They are the equivalences that
    every operation respects on both sides, through the compatibility
    join (`core._compatible_orders`), and that hold every pair (x, x g x)
    and (x g y, y g x)."""
    n, strings = s.n, _growth_strings(s.n)
    join, same = _equivalences(n)
    kept = _compatible_orders(join, _requirements(s.tables, n))
    for t in s.tables:
        for x, row in enumerate(t):
            kept &= same[x][row[x]]
            for y in range(x + 1, n):
                kept &= same[row[y]][t[y][x]]
    out = []
    for i in bit_indices(kept):
        rgs = strings[i]
        masks = _block_masks(rgs)
        out.append((rgs, masks, not any(product_bits(s, b, b) & ~b for b in masks),
                    _chain_failure(s, rgs) is not None))
    return tuple(out)


@per_structure
def semilattice_congruences(s: Structure) -> tuple[Partition, ...]:
    """Every semilattice congruence, in `all_partitions` order; the sweep
    runs once per table."""
    return tuple(Partition._from_classes(s, c[0]) for c in _semilattice_classes(s))
