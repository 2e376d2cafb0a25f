"""Brute-force oracles for the fast paths: the mask tables behind
product_bits / downset_bits / upset_bits, the ok(a)-meet form of
Stmt1to2, the shared semilattice-congruence sweep, and the enumeration
kernels (preimage-indexed fill check, mask compatibility join,
automorphism-only iso filter).

The oracles are the plain loops over elements and subsets that the fast
paths replaced; they share nothing with the code under test but the
Structure's raw tables and order."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations

from hypothesis import given, settings, strategies as st

from gpw import explore, harness
from gpw.core import (Structure, bit_indices, downset_bits, product_bits, subset_masks,
                      upset_bits)
from gpw.explore import EnumSpec, enumerate_structures, random_structure
from gpw.gpsjson import dumps
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


# enumeration kernels: the seed's per-pair loops as oracles

def ref_cell_ok(t, n, k, g, a, b) -> bool:
    """Every associativity constraint the cell (g, a, b) completes, found
    by scanning whole tables."""
    v = t[g][a][b]
    tg = t[g]
    for m in range(k):
        tm = t[m]
        for z in range(n):
            lhs, w = tm[v][z], tm[b][z]
            if lhs >= 0 and w >= 0 and tg[a][w] >= 0 and lhs != tg[a][w]:
                return False
    for m in range(k):
        tm = t[m]
        for x in range(n):
            rhs, p = tm[x][v], tm[x][a]
            if rhs >= 0 and p >= 0 and tg[p][b] >= 0 and tg[p][b] != rhs:
                return False
    for m in range(k):
        tm = t[m]
        for x in range(n):
            for y in range(n):
                if tm[x][y] != a:
                    continue
                w = tg[y][b]
                if w >= 0 and tm[x][w] >= 0 and tm[x][w] != v:
                    return False
    for m in range(k):
        tm = t[m]
        for y in range(n):
            for z in range(n):
                if tm[y][z] != b:
                    continue
                p = tg[a][y]
                if p >= 0 and tm[p][z] >= 0 and tm[p][z] != v:
                    return False
    return True


def ref_tables(n, k):
    """The plain backtracking fill, in the same cell and value order."""
    cells = [(g, a, b) for a in range(n) for b in range(n) for g in range(k)]
    t = [[[-1] * n for _ in range(n)] for _ in range(k)]

    def rec(i):
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in tg) for tg in t)
            return
        g, a, b = cells[i]
        for v in range(n):
            t[g][a][b] = v
            if ref_cell_ok(t, n, k, g, a, b):
                yield from rec(i + 1)
        t[g][a][b] = -1

    yield from rec(0)


def ref_compatible(tables, leq) -> bool:
    n = len(leq)
    for t in tables:
        for a in range(n):
            for b in range(n):
                if a != b and leq[a][b]:
                    for c in range(n):
                        if not leq[t[a][c]][t[b][c]] or not leq[t[c][a]][t[c][b]]:
                            return False
    return True


def ref_iso_key(tables, leq, n, k, pi, rho) -> tuple:
    inv = [0] * n
    for i, p in enumerate(pi):
        inv[p] = i
    out = [pi[tables[rho[g]][inv[a]][inv[b]]]
           for g in range(k) for a in range(n) for b in range(n)]
    out += [1 if leq[inv[a]][inv[b]] else 0 for a in range(n) for b in range(n)]
    return tuple(out)


def relabelings(n, k):
    return [(pi, rho) for pi in permutations(range(n)) for rho in permutations(range(k))]


def ref_is_canonical(tables, leq, n, k) -> bool:
    """Least key over all n! * k! relabelings."""
    base = ref_iso_key(tables, leq, n, k, tuple(range(n)), tuple(range(k)))
    return all(ref_iso_key(tables, leq, n, k, pi, rho) >= base
               for pi, rho in relabelings(n, k))


SMALL_SLICES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2))


def test_fill_matches_plain_fill():
    for n, k in SMALL_SLICES:
        assert list(explore._associative_tables(n, k)) == list(ref_tables(n, k)), (n, k)


def test_compatible_and_canonical_match_loops_on_every_pair():
    compatible = canonical = nontrivial = non_least = 0
    for n, k in SMALL_SLICES:
        orders = [(leq, explore._order_masks(leq, n)) for leq in explore.partial_orders(n)]
        for tables in explore._associative_tables(n, k):
            req = explore._requirements(tables, n)
            automorphisms = explore._automorphisms(tables, n, k)
            non_least += automorphisms is None
            nontrivial += bool(automorphisms)
            for leq, order in orders:
                ok = ref_compatible(tables, leq)
                assert explore._compatible(req, order) == ok
                as_lists = explore._order_masks([list(row) for row in leq], n)
                assert explore._compatible(req, as_lists) == ok
                least = ref_is_canonical(tables, leq, n, k)
                assert explore._is_canonical(automorphisms, order) == least, (tables, leq)
                compatible += ok
                canonical += ok and least
    # labeled and iso structure counts of the six slices
    assert compatible == 1 + 20 + 971 + 1 + 34 + 3203
    assert canonical == 1 + 11 + 173 + 1 + 15 + 371
    assert nontrivial and non_least


def test_orbit_stabilizer():
    """Each iso representative stands for n! * k! / |Stab| labeled
    structures; summed, they give the labeled count of the slice."""
    for (n, k), labeled in zip(((2, 1), (3, 1), (2, 2), (3, 2)), (20, 971, 34, 3203)):
        total = 0
        for s in enumerate_structures(EnumSpec(n, k, dedup="iso")):
            base = ref_iso_key(s.tables, s.leq, n, k, tuple(range(n)), tuple(range(k)))
            relabel = relabelings(n, k)
            stab = sum(ref_iso_key(s.tables, s.leq, n, k, pi, rho) == base
                       for pi, rho in relabel)
            assert len(relabel) % stab == 0
            total += len(relabel) // stab
        assert total == labeled, (n, k)


def ref_random_structure(n, k, seed):
    """The sampler with plain loops: the same RNG draws in the same order."""
    rng = random.Random(f"{n}:{k}:{seed}")
    cells = [(g, a, b) for a in range(n) for b in range(n) for g in range(k)]
    tables = None
    for _ in range(40):
        t = [[[-1] * n for _ in range(n)] for _ in range(k)]
        nodes = 0

        def rec(i):
            nonlocal nodes
            if i == len(cells):
                return True
            g, a, b = cells[i]
            vals = list(range(n))
            rng.shuffle(vals)
            for v in vals:
                nodes += 1
                if nodes > 25_000:
                    raise OverflowError
                t[g][a][b] = v
                if ref_cell_ok(t, n, k, g, a, b) and rec(i + 1):
                    return True
            t[g][a][b] = -1
            return False

        try:
            if rec(0):
                tables = t
                break
        except OverflowError:
            continue
    leq = [[a == b for b in range(n)] for a in range(n)]
    for _ in range(20):
        perm = list(range(n))
        rng.shuffle(perm)
        cand = [[a == b for b in range(n)] for a in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    cand[perm[i]][perm[j]] = True
        for m in range(n):
            for a in range(n):
                if cand[a][m]:
                    for b in range(n):
                        if cand[m][b]:
                            cand[a][b] = True
        if ref_compatible(tables, cand):
            leq = cand
            break
    return Structure(n, tuple(f"g{i}" for i in range(k)), tables, leq)


def test_sampler_matches_plain_loops():
    for i in range(50):
        seed = f"fast:{i}"
        assert dumps(random_structure(4, 2, seed)) == dumps(ref_random_structure(4, 2, seed))
