"""Structure-level analysis: regularity, duo, relative ideals, simplicity,
decomposition along a semilattice congruence, and the `PREDICATES` table.

The pinned regularity predicates quantify over every operation g and ask
for membership with the inner product x g x fixed; the legacy variants
let every operation position range independently.  Pinned implies legacy;
the converse is a search target, not a theorem.  All six forms read the
set products of `ideals._word_products`: x lies in the down-closure of a
product W exactly when `s.up[x] & W` is nonzero.  The pinned failures,
simplicity and the decomposition along the N partition are memoised per
structure; the set products, the subsemigroups and a partition's
semilattice test and chain scan (`relations._semilattice_labels`,
`relations._chain_failure`) are found once per table.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Callable, NamedTuple

from .core import (InputError, PreconditionError, Structure, Subset, _owned,
                   _unchecked_subset, down_table, downset_bits, per_structure, per_table,
                   product_bits, subset_masks)
from .ideals import (IdealKind, _absorbing, _all_ideal_bits, _first_ideal, _kind, _prime_bits,
                     _semiprime_bits, _weakly_prime_bits, _word_products, ideals_form_chain)
from .relations import Partition, _chain_failure, _semilattice_labels, relation_partition


def is_intra_regular(s: Structure) -> bool:
    """Every x lies below some u g' (x g x) g'' v, for every operation g."""
    return intra_regular_failure(s) is None


def _pinned_failure(s: Structure, word: str):
    """First (x, label) with x below no member of the word's set product
    at x g x (`_word_products`), or None."""
    products = _word_products(s, word)
    for x, above in enumerate(s.up):
        for g, t in zip(s.gamma_names, s.tables):
            if not above & products[t[x][x]]:
                return (x, g)
    return None


@per_structure
def intra_regular_failure(s: Structure):
    """First (x, label) breaking pinned intra-regularity, or None."""
    return _pinned_failure(s, "MxM")


def is_intra_regular_legacy(s: Structure) -> bool:
    """Every x lies below some u g' x g'' x g''' v, all positions free."""
    return intra_regular_legacy_failure(s) is None


def intra_regular_legacy_failure(s: Structure):
    return _legacy_failure(s, "MxxM")


def _legacy_failure(s: Structure, word: str):
    """First (x,) with x below no member of the word's set product at x, or None."""
    for x, (above, w) in enumerate(zip(s.up, _word_products(s, word))):
        if not above & w:
            return (x,)
    return None


def is_left_regular(s: Structure) -> bool:
    """Every x lies below some u g' (x g x), for every operation g."""
    return left_regular_failure(s) is None


@per_structure
def left_regular_failure(s: Structure):
    return _pinned_failure(s, "Mx")


def is_right_regular(s: Structure) -> bool:
    """Every x lies below some (x g x) g' v, for every operation g."""
    return right_regular_failure(s) is None


@per_structure
def right_regular_failure(s: Structure):
    return _pinned_failure(s, "xM")


def is_left_regular_legacy(s: Structure) -> bool:
    return _legacy_failure(s, "Mxx") is None


def is_right_regular_legacy(s: Structure) -> bool:
    return _legacy_failure(s, "xxM") is None


def is_left_duo(s: Structure) -> bool:
    """Every left ideal is two-sided."""
    return _duo(s, IdealKind.LEFT)


def is_right_duo(s: Structure) -> bool:
    """Every right ideal is two-sided."""
    return _duo(s, IdealKind.RIGHT)


@per_structure
def _duo(s: Structure, kind: IdealKind) -> bool:
    two = _absorbing(s, IdealKind.TWO_SIDED, s.full)
    return all(b in two for b in _all_ideal_bits(s, kind))


def _subsemigroup_bits(s: Structure, bits: int) -> bool:
    return bits != 0 and not product_bits(s, bits, bits) & ~bits


def is_subsemigroup(s: Structure, t: Subset) -> bool:
    """Nonempty and closed under every operation."""
    return _subsemigroup_bits(s, _owned(s, t))


@per_table
def _subsemigroup_masks(s: Structure) -> tuple[int, ...]:
    """Masks of every subsemigroup in `subset_masks` order."""
    return tuple(m for m in subset_masks(s.full) if _subsemigroup_bits(s, m))


def all_subsemigroups(s: Structure) -> list[Subset]:
    return [Subset(s, b) for b in _subsemigroup_masks(s)]


def _relative_ideal_bits(s: Structure, tbits: int, abits: int, kind: IdealKind) -> bool:
    # downward closure relative to T under the ambient order
    return (abits in _absorbing(s, kind, tbits)
            and not downset_bits(s, abits) & tbits & ~abits)


def _require_subsemigroup(s: Structure, tbits: int) -> None:
    if not _subsemigroup_bits(s, tbits):
        raise PreconditionError("T must be a subsemigroup")


def is_relative_ideal(s: Structure, t: Subset, a: Subset,
                      kind: IdealKind = IdealKind.TWO_SIDED) -> bool:
    """Ideal of the subsemigroup T, with downward closure taken inside T."""
    tbits, kind = _owned(s, t), _kind(kind)
    _require_subsemigroup(s, tbits)
    return _relative_ideal_bits(s, tbits, _owned(s, a), kind)


def relative_ideals(s: Structure, t: Subset,
                    kind: IdealKind = IdealKind.TWO_SIDED) -> list[Subset]:
    """Every ideal of the subsemigroup T, brute force over subsets of T."""
    tbits, kind = _owned(s, t), _kind(kind)
    _require_subsemigroup(s, tbits)
    return [Subset(s, a) for a in _absorbing(s, kind, tbits)
            if not downset_bits(s, a) & tbits & ~a]


@per_structure
def _simple_bits(s: Structure, tbits: int, kind: IdealKind) -> bool:
    """T has no relative ideal of the kind but itself: no proper member
    of `_absorbing(s, kind, T)` is down-closed inside T under this
    structure's order."""
    down = down_table(s)
    return all(down[a] & tbits & ~a for a in _absorbing(s, kind, tbits) if a != tbits)


def is_simple(s: Structure, t: Subset) -> bool:
    """The subsemigroup T has no relative two-sided ideal besides itself."""
    return _is_simple_of_kind(s, t, IdealKind.TWO_SIDED)


def is_left_simple(s: Structure, t: Subset) -> bool:
    return _is_simple_of_kind(s, t, IdealKind.LEFT)


def is_right_simple(s: Structure, t: Subset) -> bool:
    return _is_simple_of_kind(s, t, IdealKind.RIGHT)


def _is_simple_of_kind(s: Structure, t: Subset, kind: IdealKind) -> bool:
    tbits = _owned(s, t)
    _require_subsemigroup(s, tbits)
    return _simple_bits(s, tbits, kind)


class ClassVerdict(NamedTuple):
    block: Subset
    is_subsemigroup: bool
    is_simple: bool
    is_left_simple: bool


class DecompositionReport(NamedTuple):
    """How the carrier splits along a semilattice congruence.

    `is_semilattice_of_simple` requires the partition to actually be a
    semilattice congruence with every class a simple subsemigroup;
    `is_chain_of_simple` additionally requires every product's class to
    be one of its factors' classes, with the first failing (x, y, label)
    kept as a witness.
    """

    partition: Partition
    class_verdicts: list[ClassVerdict]
    is_semilattice_congruence: bool
    is_semilattice_of_simple: bool
    is_chain_of_simple: bool
    chain_witness_failure: tuple | None

    def quotient_chain(self) -> list[int] | None:
        """Block indices sorted by the quotient order, when it is a chain."""
        if self.chain_witness_failure is not None:
            return None
        s = self.partition.structure
        cls = self.partition.class_of
        reps = [b.elements()[0] for b in self.partition.blocks]

        def below(i: int, j: int) -> bool:
            # block i is below block j when every product of reps lands in i
            return all(cls[t[reps[i]][reps[j]]] == i for t in s.tables)

        def cmp(i: int, j: int) -> int:
            if i == j:
                return 0
            return -1 if below(i, j) else 1

        return sorted(range(len(reps)), key=cmp_to_key(cmp))


@per_structure
def _n_decomposition(s: Structure) -> DecompositionReport:
    """`decompose(s)`: the split along the N partition."""
    return decompose(s, relation_partition(s, "N"))


def decompose(s: Structure, sigma: Partition | None = None) -> DecompositionReport:
    """Split the carrier along sigma (default: the N partition, whose
    report is memoised).

    Per-class verdicts use relative ideals inside each block; the chain
    condition is evaluated independently of simplicity.
    """
    if sigma is None:
        return _n_decomposition(s)
    if not isinstance(sigma, Partition):
        raise InputError(f"expected a Partition, got {sigma!r}")
    if sigma.structure is not s:
        raise PreconditionError("partition does not belong to this structure")
    slc = _semilattice_labels(s, sigma.class_of)
    fail = _chain_failure(s, sigma.class_of)
    verdicts = []
    for blk in sigma.blocks:
        sub = _subsemigroup_bits(s, blk.bits)
        verdicts.append(ClassVerdict(
            block=blk,
            is_subsemigroup=sub,
            is_simple=sub and _simple_bits(s, blk.bits, IdealKind.TWO_SIDED),
            is_left_simple=sub and _simple_bits(s, blk.bits, IdealKind.LEFT),
        ))
    semi = slc and all(v.is_simple for v in verdicts)
    fail = fail and (fail[0], fail[1], s.gamma_names[fail[2]])  # the operation's label
    return DecompositionReport(
        partition=sigma,
        class_verdicts=verdicts,
        is_semilattice_congruence=slc,
        is_semilattice_of_simple=semi,
        is_chain_of_simple=semi and fail is None,
        chain_witness_failure=fail,
    )


def maximal_simple_subsemigroups(s: Structure) -> list[Subset]:
    """Inclusion-maximal simple subsemigroups, by popcount then mask value.
    The subsemigroups go from the largest down, and one inside a simple
    subsemigroup already found is not maximal: its simplicity is not asked."""
    found: list[int] = []
    inside: set[int] = set()  # every submask of a mask found
    for m in reversed(_subsemigroup_masks(s)):
        if m not in inside and _simple_bits(s, m, IdealKind.TWO_SIDED):
            found.append(m)
            inside.update(subset_masks(m))
    return [_unchecked_subset(s, m) for m in reversed(found)]


PREDICATES: dict[str, Callable[[Structure], bool]] = {
    "intra_regular": is_intra_regular,
    "intra_regular_legacy": is_intra_regular_legacy,
    "left_regular": is_left_regular,
    "right_regular": is_right_regular,
    "left_duo": is_left_duo,
    "right_duo": is_right_duo,
    "ideals_chain": lambda s: ideals_form_chain(s, IdealKind.TWO_SIDED),
    "ideals_prime": lambda s: _first_ideal(s, _prime_bits) is None,
    "ideals_semiprime": lambda s: _first_ideal(s, _semiprime_bits) is None,
    "ideals_weakly_prime": lambda s: _first_ideal(s, _weakly_prime_bits) is None,
    "semilattice_of_simple": lambda s: decompose(s).is_semilattice_of_simple,
    "chain_of_simple": lambda s: decompose(s).is_chain_of_simple,
    "simple": lambda s: _simple_bits(s, s.full, IdealKind.TWO_SIDED),
    "left_simple": lambda s: _simple_bits(s, s.full, IdealKind.LEFT),
}

