"""Ideals and filters: recognition, principal generation, enumeration.

Conventions: ideals and filters are nonempty by definition, so the empty
subset is never one.  Enumerations list subsets ascending by popcount and
then by mask value, which fixes a deterministic order everywhere.
"""

from __future__ import annotations

from enum import Enum

from .core import (InputError, PreconditionError, Structure, Subset,
                   _owned, downset_bits, product_bits, subset_masks,
                   upset_bits)


class IdealKind(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two_sided"


def _ideal_bits(s: Structure, bits: int, kind: IdealKind) -> bool:
    if not bits:
        return False
    if downset_bits(s, bits) != bits:
        return False
    if kind is not IdealKind.RIGHT and product_bits(s, s.full, bits) & ~bits:
        return False
    if kind is not IdealKind.LEFT and product_bits(s, bits, s.full) & ~bits:
        return False
    return True


def is_ideal(s: Structure, a: Subset, kind: IdealKind = IdealKind.TWO_SIDED) -> bool:
    """Nonempty, absorbing on the side(s) given by kind, downward closed."""
    return _ideal_bits(s, _owned(s, a), kind)


def _principal_bits(s: Structure, a: int, kind: IdealKind) -> int:
    key = ("principal", kind, a)
    hit = s._cache.get(key)
    if hit is not None:
        return hit
    ab = 1 << a
    m = s.full
    if kind is IdealKind.LEFT:
        seed = ab | product_bits(s, m, ab)
    elif kind is IdealKind.RIGHT:
        seed = ab | product_bits(s, ab, m)
    else:
        ma = product_bits(s, m, ab)
        seed = ab | ma | product_bits(s, ab, m) | product_bits(s, ma, m)
    out = downset_bits(s, seed)
    s._cache[key] = out
    return out


def principal(s: Structure, a: int, kind: IdealKind = IdealKind.TWO_SIDED) -> Subset:
    """Least ideal of the given kind containing element a."""
    if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < s.n:
        raise InputError(f"element {a!r} outside 0..{s.n - 1}")
    return Subset(s, _principal_bits(s, a, kind))


def _all_ideal_bits(s: Structure, kind: IdealKind) -> tuple[int, ...]:
    key = ("all_ideals", kind)
    hit = s._cache.get(key)
    if hit is None:
        hit = tuple(m for m in subset_masks(s.n) if _ideal_bits(s, m, kind))
        s._cache[key] = hit
    return hit


def all_ideals(s: Structure, kind: IdealKind = IdealKind.TWO_SIDED) -> list[Subset]:
    """Every ideal of the given kind, brute force over all subsets."""
    return [Subset(s, b) for b in _all_ideal_bits(s, kind)]


def _filter_bits(s: Structure, bits: int) -> bool:
    if not bits:
        return False
    if product_bits(s, bits, bits) & ~bits:
        return False
    if upset_bits(s, bits) != bits:
        return False
    for t in s.tables:  # division: a g b inside forces both factors inside
        for a in range(s.n):
            row = t[a]
            for b in range(s.n):
                if (bits >> row[b]) & 1 and not ((bits >> a) & 1 and (bits >> b) & 1):
                    return False
    return True


def is_filter(s: Structure, f: Subset) -> bool:
    """Subsemigroup, closed under division of products, upward closed."""
    return _filter_bits(s, _owned(s, f))


def all_filters(s: Structure) -> list[Subset]:
    """Every filter, brute force over all subsets."""
    key = ("all_filters",)
    hit = s._cache.get(key)
    if hit is None:
        hit = tuple(m for m in subset_masks(s.n) if _filter_bits(s, m))
        s._cache[key] = hit
    return [Subset(s, b) for b in hit]


def _filter_gen_bits(s: Structure, x: int) -> int:
    key = ("filter_gen", x)
    hit = s._cache.get(key)
    if hit is not None:
        return hit
    bits = 1 << x
    n = s.n
    while True:
        new = bits | product_bits(s, bits, bits) | upset_bits(s, bits)
        for t in s.tables:
            for a in range(n):
                row = t[a]
                for b in range(n):
                    if (bits >> row[b]) & 1:
                        new |= (1 << a) | (1 << b)
        if new == bits:
            break
        bits = new
    s._cache[key] = bits
    return bits


def filter_gen(s: Structure, x: int) -> Subset:
    """Least filter containing x: the fixed point of the three filter rules."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < s.n:
        raise InputError(f"element {x!r} outside 0..{s.n - 1}")
    return Subset(s, _filter_gen_bits(s, x))


def _prime_bits(s: Structure, tbits: int) -> bool:
    for t in s.tables:
        for a in range(s.n):
            row = t[a]
            for b in range(s.n):
                if (tbits >> row[b]) & 1 and not ((tbits >> a) & 1 or (tbits >> b) & 1):
                    return False
    return True


def _semiprime_bits(s: Structure, tbits: int) -> bool:
    for t in s.tables:
        for a in range(s.n):
            if (tbits >> t[a][a]) & 1 and not (tbits >> a) & 1:
                return False
    return True


def is_prime(s: Structure, t: Subset) -> bool:
    """A product lands inside only if one of its factors is inside."""
    return _prime_bits(s, _owned(s, t))


def is_semiprime(s: Structure, t: Subset) -> bool:
    """A square lands inside only if its base is inside."""
    return _semiprime_bits(s, _owned(s, t))


def _weakly_prime_bits(s: Structure, tbits: int) -> bool:
    ideals = _all_ideal_bits(s, IdealKind.TWO_SIDED)
    for ab in ideals:
        for bb in ideals:
            if product_bits(s, ab, bb) & ~tbits:
                continue
            if ab & ~tbits and bb & ~tbits:
                return False
    return True


def is_weakly_prime(s: Structure, t: Subset) -> bool:
    """Every pair of ideals whose product lies inside has a factor inside.

    Only defined for two-sided ideals; anything else raises.
    """
    tbits = _owned(s, t)
    if not _ideal_bits(s, tbits, IdealKind.TWO_SIDED):
        raise PreconditionError("weak primeness is only defined for two-sided ideals")
    return _weakly_prime_bits(s, tbits)


def is_idempotent_subset(s: Structure, a: Subset) -> bool:
    """A equals the downward closure of A*A."""
    bits = _owned(s, a)
    return bits == downset_bits(s, product_bits(s, bits, bits))


def ideals_form_chain(s: Structure, kind: IdealKind = IdealKind.TWO_SIDED) -> bool:
    """All ideals of the given kind are pairwise comparable by inclusion."""
    return _chain_break_bits(s, kind) is None


def _chain_break_bits(s: Structure, kind: IdealKind) -> tuple[int, int] | None:
    """The first pair of ideals, in enumeration order, neither inside the other."""
    masks = _all_ideal_bits(s, kind)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & ~b and b & ~a:
                return a, b
    return None
