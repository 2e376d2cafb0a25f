"""Carrier partitions and the congruence / semilattice-congruence tests.

The four named equivalences identify elements whose principal left /
right / two-sided ideals (L, R, I) or generated filters (N) coincide.
Partitions are canonical: blocks are sorted by least element, so equal
partitions compare and hash equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import InputError, OwnerError, Structure, Subset
from .ideals import IdealKind, _filter_gen_bits, _principal_bits

_KINDS = {"L": IdealKind.LEFT, "R": IdealKind.RIGHT, "I": IdealKind.TWO_SIDED}


class Partition:
    """A partition of one structure's carrier into nonempty blocks."""

    __slots__ = ("structure", "blocks", "class_of")

    def __init__(self, structure: Structure, blocks: Iterable[Iterable[int]]) -> None:
        n = structure.n
        masks = []
        for blk in blocks:
            bits = 0
            for e in blk:
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                    raise InputError(f"element {e!r} outside 0..{n - 1}")
                bits |= 1 << e
            if bits == 0:
                raise InputError("empty block in partition")
            masks.append(bits)
        covered = 0
        for bits in masks:
            if covered & bits:
                raise InputError("partition blocks overlap")
            covered |= bits
        if covered != structure.full:
            raise InputError("partition does not cover the carrier")
        masks.sort(key=lambda b: (b & -b))  # by least element
        class_of = [0] * n
        for i, bits in enumerate(masks):
            for e in range(n):
                if (bits >> e) & 1:
                    class_of[e] = i
        self.structure = structure
        self.blocks = tuple(Subset(structure, b) for b in masks)
        self.class_of = tuple(class_of)

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
        """Every block of self sits inside a single block of other."""
        if other.structure is not self.structure:
            raise OwnerError("partitions belong to different structures")
        oc = other.class_of
        for blk in self.blocks:
            members = blk.elements()
            target = oc[members[0]]
            if any(oc[e] != target for e in members[1:]):
                return False
        return True

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


def relation_partition(s: Structure, which: str) -> Partition:
    """Partition of the carrier under L, R, I or N equivalence."""
    key = ("partition", which)
    hit = s._cache.get(key)
    if hit is not None:
        return hit
    if which == "N":
        keyfn = lambda x: _filter_gen_bits(s, x)
    elif which in _KINDS:
        kind = _KINDS[which]
        keyfn = lambda x: _principal_bits(s, x, kind)
    else:
        raise InputError(f"unknown relation {which!r}, expected one of L R I N")
    groups: dict[int, list[int]] = {}
    for x in range(s.n):
        groups.setdefault(keyfn(x), []).append(x)
    part = Partition(s, groups.values())
    s._cache[key] = part
    return part


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


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    # restricted growth strings: a[0]=0, a[i] <= max(a[:i]) + 1
    a = [0] * n

    def rec(i: int, blocks: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(a)
            return
        for v in range(blocks + 1):
            a[i] = v
            yield from rec(i + 1, blocks + 1 if v == blocks else blocks)

    yield from rec(1, 1)


def all_partitions(s: Structure) -> Iterator[Partition]:
    """Every partition of the carrier, in lexicographic growth-string order.

    Bell(n) many; meant for exhaustive congruence searches at n <= 5.
    """
    for rgs in _growth_strings(s.n):
        groups: dict[int, list[int]] = {}
        for e, c in enumerate(rgs):
            groups.setdefault(c, []).append(e)
        yield Partition(s, groups.values())


def semilattice_congruences(s: Structure) -> tuple[Partition, ...]:
    """Every semilattice congruence, in `all_partitions` order; one sweep
    per structure, memoised."""
    key = ("semilattice_congruences",)
    hit = s._cache.get(key)
    if hit is None:
        hit = tuple(p for p in all_partitions(s) if is_semilattice_congruence(s, p))
        s._cache[key] = hit
    return hit
