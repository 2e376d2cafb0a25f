"""Ideals and filters: recognition, principal generation, enumeration.

Conventions: ideals and filters are nonempty by definition, so the empty
subset is never one.  Enumerations list subsets ascending by popcount and
then by mask value, which fixes a deterministic order everywhere.

Element tables.  The per-element quantities that the checks read again
and again are built once per structure as n-entry lists, on first use
(`core.per_structure`): the closures (M e], (e M] and (M e M]
(`_element_closures`), the principal ideals of a kind (`_principals`)
and the generated filters (`_filter_gens`).  Their product halves read
the tables alone and are built once per table (`core.per_table`), as
are the masks that absorb products on an ideal kind's sides, in the
carrier or in a subsemigroup (`_absorbing`, as a set `_absorbing_set`);
a structure only applies its own order to them.  Weak primeness reads
the tables and the two-sided ideals alone, so it is kept once per table
and ideal family (`_weakly_prime_among`).  The closures close the set
products of the words "Mx", "xM" and "MxM" (`_word_products`); against
the order's up masks, `analysis` reads them at x g x for its pinned
regularity forms, and "Mxx", "xxM" and "MxxM" at x for the legacy ones.
Primeness and semiprimeness of a mask T are one lookup each: the set
product of T's complement with itself, and the squares of the
complement's members (`_square_table`, once per table), must miss T.

An `IdealKind` enters memo keys, so it hashes by identity: an Enum's own
hash is a Python-level call.  The hot tests compare against module-level
aliases of the members, as a member's lookup on its class is one too.
"""

from __future__ import annotations

from enum import Enum

from .core import (InputError, PreconditionError, Structure, Subset,
                   _owned, _union_table, down_table, downset_bits, per_structure,
                   per_table, product_bits, subset_masks, up_table)


class IdealKind(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two_sided"

    __hash__ = object.__hash__


_LEFT, _RIGHT, _TWO_SIDED = IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED


def _kind(kind: IdealKind) -> IdealKind:
    """`kind`, checked at the public entry points: the private paths
    compare it with the members by identity, so they would read any other
    value as some member."""
    if not isinstance(kind, IdealKind):
        raise InputError(f"expected an IdealKind, got {kind!r}")
    return kind


def _absorbs(s: Structure, tbits: int, abits: int, kind: IdealKind) -> bool:
    """T A inside A unless kind is RIGHT, and A T inside A unless it is LEFT."""
    if kind is not _RIGHT and product_bits(s, tbits, abits) & ~abits:
        return False
    return kind is _LEFT or not product_bits(s, abits, tbits) & ~abits


def _ideal_bits(s: Structure, bits: int, kind: IdealKind) -> bool:
    return (bits != 0 and downset_bits(s, bits) == bits
            and _absorbs(s, s.full, bits, kind))


def is_ideal(s: Structure, a: Subset, kind: IdealKind = IdealKind.TWO_SIDED) -> bool:
    """Nonempty, absorbing on the side(s) given by kind, downward closed."""
    return _ideal_bits(s, _owned(s, a), _kind(kind))


@per_table
def _word_products(s: Structure, word: str) -> list[int]:
    """For each x the mask of the set product the word spells, "M" the
    carrier and "x" the singleton {x}, multiplied left to right."""
    m = s.full
    out = []
    for x in range(s.n):
        xb = 1 << x
        w = m if word[0] == "M" else xb
        for c in word[1:]:
            w = product_bits(s, w, m if c == "M" else xb)
        out.append(w)
    return out


@per_structure
def _element_closures(s: Structure) -> tuple[list[int], list[int], list[int]]:
    """For each element e the down-closures (M e], (e M] and (M e M]."""
    down = down_table(s)
    return tuple([down[p] for p in _word_products(s, word)] for word in ("Mx", "xM", "MxM"))


@per_structure
def _principals(s: Structure, kind: IdealKind) -> list[int]:
    """The principal ideal of the given kind of every element: the
    down-closure of e with M e (left), with e M (right), or with M e,
    e M and M e M (two-sided)."""
    left, right, sandwich = _element_closures(s)
    below = s.down  # (e]
    if kind is _TWO_SIDED:
        return [d | x | y | z for d, x, y, z in zip(below, left, right, sandwich)]
    return [d | x for d, x in zip(below, left if kind is _LEFT else right)]


def principal(s: Structure, a: int, kind: IdealKind = IdealKind.TWO_SIDED) -> Subset:
    """Least ideal of the given kind containing element a."""
    if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < s.n:
        raise InputError(f"element {a!r} outside 0..{s.n - 1}")
    return Subset(s, _principals(s, _kind(kind))[a])


@per_structure
def _all_ideal_bits(s: Structure, kind: IdealKind) -> tuple[int, ...]:
    """Every ideal of the given kind in `subset_masks` order: of the masks
    that absorb products on the kind's sides, found once per table, the
    ones this structure's order leaves down-closed."""
    down = down_table(s)
    return tuple(m for m in _absorbing(s, kind, s.full) if down[m] == m)


@per_table
def _absorbing(s: Structure, kind: IdealKind, tbits: int) -> tuple[int, ...]:
    """The nonempty submasks A of T in `subset_masks` order that absorb T
    on the kind's sides: the ideals of the kind, and the relative ideals
    of a subsemigroup T, before the order has its say."""
    return tuple(a for a in subset_masks(tbits) if _absorbs(s, tbits, a, kind))


@per_table
def _absorbing_set(s: Structure, kind: IdealKind, tbits: int) -> frozenset[int]:
    """`_absorbing(s, kind, T)` as a set: a nonempty mask of T is an
    ideal of the kind, or a relative ideal of the subsemigroup T, exactly
    when it is a member and is down-closed (in T)."""
    return frozenset(_absorbing(s, kind, tbits))


def all_ideals(s: Structure, kind: IdealKind = IdealKind.TWO_SIDED) -> list[Subset]:
    """Every ideal of the given kind, brute force over all subsets."""
    return [Subset(s, b) for b in _all_ideal_bits(s, _kind(kind))]


@per_table
def _factor_table(s: Structure) -> list[int]:
    """Entry m is the mask of every factor a, b of a product a g b in m."""
    factors = [0] * s.n
    for t in s.tables:
        for a, row in enumerate(t):
            for b, v in enumerate(row):
                factors[v] |= (1 << a) | (1 << b)
    return _union_table(s.n, factors)


def _filter_bits(s: Structure, bits: int) -> bool:
    # division: a g b inside forces both factors inside
    return (bits != 0 and not product_bits(s, bits, bits) & ~bits
            and up_table(s)[bits] == bits and not _factor_table(s)[bits] & ~bits)


def is_filter(s: Structure, f: Subset) -> bool:
    """Subsemigroup, closed under division of products, upward closed."""
    return _filter_bits(s, _owned(s, f))


def all_filters(s: Structure) -> list[Subset]:
    """Every filter, brute force over all subsets."""
    return [Subset(s, m) for m in subset_masks(s.full) if _filter_bits(s, m)]


@per_structure
def _filter_gens(s: Structure) -> list[int]:
    """The filter generated by each element: the least fixed point above
    it of X -> X, X X, [X) and the factors of the members of X."""
    up, factors = up_table(s), _factor_table(s)
    gens = []
    for x in range(s.n):
        bits = 1 << x
        while True:
            new = bits | product_bits(s, bits, bits) | up[bits] | factors[bits]
            if new == bits:
                break
            bits = new
        gens.append(bits)
    return gens


def _filter_gen_bits(s: Structure, x: int) -> int:
    return _filter_gens(s)[x]


def filter_gen(s: Structure, x: int) -> Subset:
    """Least filter containing x: the fixed point of the three filter rules."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < s.n:
        raise InputError(f"element {x!r} outside 0..{s.n - 1}")
    return Subset(s, _filter_gen_bits(s, x))


def _prime_bits(s: Structure, tbits: int) -> bool:
    # no two factors outside T multiply into T
    outside = s.full & ~tbits
    return not product_bits(s, outside, outside) & tbits


@per_table
def _square_table(s: Structure) -> list[int]:
    """Entry m is the mask of every square a g a over the members a of m
    and every operation g."""
    squares = [0] * s.n
    for t in s.tables:
        for a in range(s.n):
            squares[a] |= 1 << t[a][a]
    return _union_table(s.n, squares)


def _semiprime_bits(s: Structure, tbits: int) -> bool:
    # no element outside T squares into T
    return not _square_table(s)[s.full & ~tbits] & tbits


def is_prime(s: Structure, t: Subset) -> bool:
    """A product lands inside only if one of its factors is inside."""
    return _prime_bits(s, _owned(s, t))


def is_semiprime(s: Structure, t: Subset) -> bool:
    """A square lands inside only if its base is inside."""
    return _semiprime_bits(s, _owned(s, t))


def _weakly_prime_bits(s: Structure, tbits: int) -> bool:
    return _weakly_prime_among(s, _all_ideal_bits(s, IdealKind.TWO_SIDED), tbits)


@per_table
def _weakly_prime_among(s: Structure, ideals: tuple[int, ...], tbits: int) -> bool:
    """No two of the masks `ideals`, both leaving T, multiply into T; the
    structures of a table that share their two-sided ideals share this."""
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
    return _chain_break_bits(s, _kind(kind)) is None


@per_structure
def _chain_break_bits(s: Structure, kind: IdealKind) -> tuple[int, int] | None:
    """The first pair of ideals, in enumeration order, neither inside the other."""
    masks = _all_ideal_bits(s, kind)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & ~b and b & ~a:
                return a, b
    return None
