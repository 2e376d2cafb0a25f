"""Brute-force oracles for the fast paths: the mask tables behind
product_bits / downset_bits / upset_bits, the ok(a)-meet form of
Stmt1to2, and the shared semilattice-congruence sweep.

The oracles are the plain loops over elements and subsets that the fast
paths replaced; they share nothing with the code under test but the
Structure's raw tables and order."""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from gpw import harness
from gpw.core import bit_indices, downset_bits, product_bits, subset_masks, upset_bits
from gpw.explore import EnumSpec, enumerate_structures, random_structure
from gpw.relations import (all_partitions, is_semilattice_congruence,
                           semilattice_congruences)


# reference loops

def ref_downset_bits(s, bits: int) -> int:
    out = 0
    for a in bit_indices(bits):
        out |= s.down[a]
    return out


def ref_upset_bits(s, bits: int) -> int:
    out = 0
    for a in bit_indices(bits):
        out |= s.up[a]
    return out


def ref_product_bits(s, abits: int, bbits: int) -> int:
    out = 0
    blist = list(bit_indices(bbits))
    for t in s.tables:
        for a in bit_indices(abits):
            row = t[a]
            for b in blist:
                out |= 1 << row[b]
    return out


def ref_stmt_1to2(s) -> tuple[bool, dict | None]:
    """Every prime T, every subset A, every subset B, in subset order."""
    masks = subset_masks(s.n)
    for tb in range(s.full + 1):
        if not harness._prime_bits(s, tb):
            continue
        for ab in masks:
            if not ab & ~tb:
                continue
            for bb in masks:
                if bb & ~tb and not ref_product_bits(s, ab, bb) & ~tb:
                    return False, {"T": list(bit_indices(tb)),
                                   "A": list(bit_indices(ab)),
                                   "B": list(bit_indices(bb))}
    return True, None


@lru_cache(maxsize=None)
def exhaustive_corpus() -> tuple:
    """Full labeled enumeration at n <= 3 with k = 1 plus n = 2, k = 2.

    Built here rather than shared with the acceptance suite, so that the
    mask tables of these structures are built by the oracle queries."""
    out = []
    for n, k in ((1, 1), (2, 1), (3, 1), (2, 2)):
        out.extend(enumerate_structures(EnumSpec(n, k)))
    return tuple(out)


def _assert_masks_agree(s, queries=()) -> None:
    for ab, bb in queries:
        assert product_bits(s, ab, bb) == ref_product_bits(s, ab, bb)
    # largest A first, so composite rows are built before their parts
    for ab in range(s.full, -1, -1):
        assert downset_bits(s, ab) == ref_downset_bits(s, ab)
        assert upset_bits(s, ab) == ref_upset_bits(s, ab)
        for bb in range(s.full + 1):
            assert product_bits(s, ab, bb) == ref_product_bits(s, ab, bb), (ab, bb)


# mask tables

def test_mask_tables_match_loops_on_exhaustive_corpus():
    corpus = exhaustive_corpus()
    assert len(corpus) == 1026
    for s in corpus:
        _assert_masks_agree(s)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8))
def test_mask_tables_match_loops_on_samples(n, k, seed, raw_queries):
    s = random_structure(n, k, seed)
    # arbitrary first queries exercise rows built in any order
    _assert_masks_agree(s, [(a & s.full, b & s.full) for a, b in raw_queries])


def test_product_rows_are_built_on_demand():
    s = random_structure(4, 1, seed=3)
    assert "product_rows" not in s._cache
    product_bits(s, 0b0101, 0b0011)
    built = [a for a, row in enumerate(s._cache["product_rows"]) if row is not None]
    assert built == [0, 0b0001, 0b0100, 0b0101]


# Stmt1to2

def test_stmt_1to2_matches_triple_loop_with_every_subset_prime(monkeypatch):
    """With every T accepted as prime the claim fails often; the witness
    must still be the triple loop's first (T, A, B)."""
    monkeypatch.setattr(harness, "_prime_bits", lambda s, tb: True)
    disagreements = 0
    for n, k in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
        for s in enumerate_structures(EnumSpec(n, k)):
            v = harness.check_stmt_1to2(s)
            assert (v.equivalent, v.witness) == ref_stmt_1to2(s)
            disagreements += not v.equivalent
    assert disagreements == 2896


def test_stmt_1to2_matches_triple_loop_on_exhaustive_corpus():
    for s in exhaustive_corpus():
        v = harness.check_stmt_1to2(s)
        assert (v.equivalent, v.witness) == ref_stmt_1to2(s) == (True, None)


# shared congruence sweep

def test_semilattice_congruences_match_full_sweep():
    for s in exhaustive_corpus():
        expected = [p for p in all_partitions(s) if is_semilattice_congruence(s, p)]
        got = semilattice_congruences(s)
        assert list(got) == expected
        assert semilattice_congruences(s) is got
