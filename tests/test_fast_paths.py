"""Brute-force oracles for the fast paths: the mask tables behind
product_bits / downset_bits / upset_bits, the ok(a)-meet form of
Stmt1to2, the shared semilattice-congruence sweep, and the enumeration
kernels (the padded, preimage-indexed fill check and its liveness plan,
the iterative fill, the node budget that the sampler's value iterators
count, mask compatibility join, automorphism-only iso filter and its
relabeling table, generative partial orders, the walk's unchecked
structures), the per-table sharing of table-only results, checked
against structures built fresh from the same raw tables, the element
tables (per-element closures, principal ideals and generated filters,
per-table ideal and relative-ideal families, memoised faces and
unchecked internal partitions), and the per-table lookups behind the
pinned and legacy regularity forms and prime / semiprime masks.

The oracles are the plain loops over elements and subsets that the fast
paths replaced; they share nothing with the code under test but the
Structure's raw tables and order.  The element-table oracles are the
per-call helpers that the tables replaced; they read products and
closures through product_bits / downset_bits, which the mask-table
oracles cover."""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from functools import lru_cache
from itertools import islice
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from gpw import analysis, core, explore, harness, ideals, relations, tablewise
from gpw.analysis import (_simple_bits, _subsemigroup_masks, intra_regular_failure,
                          is_intra_regular_legacy, is_left_duo, is_left_regular_legacy,
                          is_right_duo, is_right_regular_legacy, left_regular_failure,
                          relative_ideals, right_regular_failure)
from gpw.core import (InputError, Structure, Subset, bit_indices, downset_bits,
                      product_bits, subset_masks, table_cache, upset_bits)
from gpw.explore import (EnumSpec, SamplingBudgetError, enumerate_structures,
                         partial_orders, random_structure, search)
from gpw.gpsjson import dumps
from gpw.ideals import IdealKind
from gpw.relations import (Partition, all_partitions, is_semilattice_congruence,
                           relation_partition, semilattice_congruences)


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
    masks = subset_masks(s.full)
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


def test_product_table_is_built_whole_once_per_table():
    first, second = list(islice(enumerate_structures(EnumSpec(3, 1)), 2))
    assert first.tables == second.tables
    product_bits(first, 0b101, 0b011)
    table = core.product_table(first)
    assert len(table) == 8 and all(len(row) == 8 for row in table)
    assert core.product_table(second) is table


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


def gab_cells(n, k):
    """Cells by g, then a, then b: the fill's order, one table at a time."""
    return [(g, a, b) for g in range(k) for a in range(n) for b in range(n)]


def ref_tables(n, k):
    """The plain backtracking fill over the (g, a, b) cells, values in
    ascending order."""
    cells = gab_cells(n, k)
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


def _stream(n: int, k: int) -> list:
    """The tables of `explore._associative_tables(n, k)`, in its order."""
    return [tables for tables, _, _, _ in explore._associative_tables(n, k)]


def test_fill_matches_plain_fill():
    """The walk's tables come in the (g, a, b) order of the plain fill
    over the same cell order."""
    for n, k in SMALL_SLICES + ((4, 1), (1, 3), (2, 3), (3, 3)):
        assert _stream(n, k) == list(ref_tables(n, k)), (n, k)


def _counting(fn, calls):
    def wrapper(*args):
        calls[0] += 1
        return fn(*args)
    return wrapper


def test_fill_makes_as_many_cell_checks_as_plain_fill(monkeypatch):
    """Equal check counts on equal output: the fill walks the search tree
    of the plain fill over the same (g, a, b) cell order."""
    calls, ref_calls = [0], [0]
    monkeypatch.setattr(explore, "_cell_ok", _counting(explore._cell_ok, calls))
    monkeypatch.setitem(globals(), "ref_cell_ok", _counting(ref_cell_ok, ref_calls))
    for n, k in SMALL_SLICES:
        calls[0] = ref_calls[0] = 0
        assert list(explore._fill(n, k, lambda: range(n))) == list(ref_tables(n, k)), (n, k)
        assert calls[0] == ref_calls[0] > 0, (n, k)


def test_orbit_stream_matches_plain_fill():
    """The canonical fill keeps exactly the tables that no relabeling
    makes smaller (`ref_automorphisms` is not None), in the plain fill's
    order, and their orbits, merged, are the plain fill's stream, list
    for list."""
    for n, k in SMALL_SLICES + ((4, 1), (4, 2), (1, 3), (2, 3), (3, 3)):
        plain = list(explore._fill(n, k, lambda: range(n)))
        assert (list(explore._fill(n, k, lambda: range(n), canonical=True))
                == [t for t in plain if ref_automorphisms(t, n, k) is not None]), (n, k)
        assert _stream(n, k) == plain, (n, k)


def test_orbit_stream_cell_checks_pinned(monkeypatch):
    """The n4k1 stream asks `_cell_ok` 8,968 times, against 136,152 for
    the plain fill: the cut fill's search tree, fixed by the rule."""
    calls = [0]
    monkeypatch.setattr(explore, "_cell_ok", _counting(explore._cell_ok, calls))
    assert sum(1 for _ in explore._associative_tables(4, 1)) == 3492
    assert calls[0] == 8968
    calls[0] = 0
    assert sum(1 for _ in explore._fill(4, 1, lambda: range(4))) == 3492
    assert calls[0] == 136152


def test_orbit_items_name_their_least_table():
    """Each item's c indexes its orbit's least table in the canonical
    fill, pi is None exactly on that table, and elsewhere some relabeling
    with carrier permutation pi maps that table to the item's."""
    for n, k in SMALL_SLICES + ((4, 1), (1, 3), (2, 3), (3, 3)):
        least = list(explore._fill(n, k, lambda: range(n), canonical=True))
        no_leq = ((False,) * n,) * n
        for tables, c, pi, _ in explore._associative_tables(n, k):
            assert (pi is None) == (tables == least[c]), (n, k, tables)
            if pi is not None:
                flat = ref_iso_key(tables, no_leq, n, k, tuple(range(n)), tuple(range(k)))
                assert any(ref_iso_key(least[c], no_leq, n, k, pi, rho) == flat
                           for rho in permutations(range(k))), (n, k, tables)


def _decoded(key: bytes, n: int, k: int) -> tuple:
    """The k tables of n x n cells whose flat (g, a, b) key is `key`."""
    cells = iter(key)
    return tuple(tuple(tuple(next(cells) for _ in range(n)) for _ in range(n))
                 for _ in range(k))


def test_unmerged_stream_matches_merged_stream():
    """Without the merge the stream holds the merged stream's items,
    every table but the least ones as its flat `bytes` key: decoded, the
    same multiset of (tables, c, pi, automorphisms), each least table
    before the members of its orbit, and those members straight after
    it."""
    for n, k in SMALL_SLICES + ((4, 1),):
        merged = list(explore._associative_tables(n, k))
        unmerged = list(explore._associative_tables(n, k, False))
        assert len(unmerged) == len(merged), (n, k)
        seen = []  # the orbits c in the order their least tables came
        for tables, c, pi, automorphisms in unmerged:
            if pi is None:
                assert c == len(seen) and automorphisms is not None, (n, k)
                seen.append(c)
            else:
                assert type(tables) is bytes and automorphisms is None, (n, k)
                assert seen and seen[-1] == c, (n, k)
        decoded = [(t if pi is None else _decoded(t, n, k), c, pi, autos)
                   for t, c, pi, autos in unmerged]
        assert sorted(decoded, key=repr) == sorted(merged, key=repr), (n, k)


def ref_order(leq, n: int) -> tuple:
    """(pairs, key): the pairs a*n + b (a != b) of `leq` and their
    `_pair_bit`s ORed, one cell at a time."""
    pairs, key = [], 0
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                pairs.append(a * n + b)
                key |= explore._pair_bit(n, a, b)
    return tuple(pairs), key


def ref_relabel_order(leq, pi, n: int) -> tuple:
    """The order pi leq: pi(a) <= pi(b) exactly when a <= b in `leq`."""
    out = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = leq[a][b]
    return tuple(map(tuple, out))


def ref_down_up(leq, n: int) -> tuple:
    """Per element, the mask of the elements at or below it and of those
    at or above it, one cell at a time."""
    down, up = [0] * n, [0] * n
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                down[b] |= 1 << a
                up[a] |= 1 << b
    return tuple(down), tuple(up)


def ref_join(leqs, n: int) -> explore._Join:
    """The join over `leqs`, one (order, pair) at a time, its pairs in
    ascending order."""
    holds, every = {}, 0
    for o, leq in enumerate(leqs):
        every |= 1 << o
        for i in ref_order(leq, n)[0]:
            holds[i] = holds.get(i, 0) | 1 << o
    held = tuple(sorted(holds.items()))
    return explore._Join(held, {1 << (n * n - 1 - i): mask for i, mask in held}, every)


def test_order_layer_matches_loops():
    """The join that `_order_layer` builds from the up masks in one pass,
    and the down and up masks of `core._down_up`, against the plain loops,
    on every order of every mode up to n = 5; the walk's structures carry
    those masks.  The walk's order keys are pinned through the iso
    structures of `WALK_STREAMS`, the least of each class."""
    for n in range(1, 6):
        for mode in ("all", "total", "trivial"):
            leqs, join = explore._order_layer(n, mode)
            assert join == ref_join(leqs, n), (n, mode)
            assert [core._down_up(leq, n) for leq in leqs] == [
                ref_down_up(leq, n) for leq in leqs], (n, mode)
            if n <= 4:
                for s in enumerate_structures(EnumSpec(n, 1, mode, "iso")):
                    assert (s.down, s.up) == ref_down_up(s.leq, n), (n, mode)


def _join_pairs(n: int, k: int, leqs: tuple):
    """(tables, leq) for every table of the stream and every order of
    `leqs` that the join finds compatible with that table itself."""
    join = ref_join(leqs, n)
    for tables, _, _, _ in explore._associative_tables(n, k):
        compatible = explore._compatible_orders(join, explore._requirements(tables, n))
        for o, leq in enumerate(leqs):
            if compatible >> o & 1:
                yield tables, leq


def test_walk_orders_match_the_join_on_every_table():
    """On every table, the labeled walk yields exactly the orders that the
    join computes from the table itself, in list order, under every order
    mode, although it runs the join on its orbit's least table alone."""
    for n, k in SMALL_SLICES + ((4, 1), (4, 2), (2, 3), (3, 3)):
        for mode in ("all", "total", "trivial"):
            walk = ((s.tables, s.leq) for s in enumerate_structures(EnumSpec(n, k, mode)))
            for got, want in zip(walk, _join_pairs(n, k, explore.partial_orders(n, mode)),
                                 strict=True):
                assert got == want, (n, k, mode)


def test_requirements_once_per_orbit(monkeypatch):
    """The walk reads `_requirements` once per canonical table, 188 times
    at n4k1 (A027851(4)) and 742 at n4k2, with or without the iso filter,
    and never when no order holds a pair a != b."""
    calls = [0]
    monkeypatch.setattr(explore, "_requirements", _counting(explore._requirements, calls))
    for spec, want in ((EnumSpec(4, 1), 188), (EnumSpec(4, 1, dedup="iso"), 188),
                       (EnumSpec(4, 2, dedup="iso"), 742),
                       (EnumSpec(4, 2, orders="trivial"), 0)):
        calls[0] = 0
        for _ in enumerate_structures(spec):
            pass
        assert calls[0] == want, spec


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_padded_cell_ok_matches_table_scan(data):
    """On any partial table, padded or not, with or without the new cell
    among the preimages, the fill check agrees with the whole-table scan."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 2))
    cells = st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
    t = [data.draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(k)]
    g, a, b = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1)),
               data.draw(st.integers(0, n - 1)))
    t[g][a][b] = data.draw(st.integers(0, n - 1))
    expected = ref_cell_ok(t, n, k, g, a, b)
    padded = [[[n if x < 0 else x for x in row] + [n] for row in tm] + [[n] * (n + 1)]
              for tm in t]
    pre = [[[(x, y) for x in range(n) for y in range(n) if tm[x][y] == v]
            for v in range(n)] for tm in t]
    rows, cols = _all_rows_and_cols(padded, n, b)
    assert explore._cell_ok(padded, pre, n, g, a, b, rows, cols) == expected
    pre[g][t[g][a][b]].remove((a, b))
    assert explore._cell_ok(padded, pre, n, g, a, b, rows, cols) == expected


def _all_rows_and_cols(padded, n, b):
    """Every row and column of the two inner-product scans, unpruned."""
    return ([tm[x] for tm in padded for x in range(n)],
            [(tm, tm[b], z) for tm in padded for z in range(n)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_live_plan_matches_table_scan_on_fill_states(data):
    """On the states the fill reaches (every cell before (g, a, b) in fill
    order filled, every cell after it unfilled, preimage lists in fill
    order), the check over the plan's live rows and columns agrees with
    the whole-table scan.  Filled cells come from a sampled complete
    table, each possibly replaced, so both verdicts occur."""
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    base = random_structure(n, k, data.draw(st.integers(0, 9))).tables
    plan = explore._fill_plan(n, k)
    depth = data.draw(st.integers(0, len(plan) - 1))
    t = [[[-1] * n for _ in range(n)] for _ in range(k)]
    pre = [[[] for _ in range(n)] for _ in range(k)]
    for g, a, b, _, _ in plan[:depth + 1]:
        t[g][a][b] = data.draw(st.one_of(st.just(base[g][a][b]), st.integers(0, n - 1)))
    for g, a, b, _, _ in plan[:depth]:
        pre[g][t[g][a][b]].append((a, b))
    g, a, b, rows, cols = plan[depth]
    padded = [[[n if x < 0 else x for x in row] + [n] for row in tm] + [[n] * (n + 1)]
              for tm in t]
    live_rows = [padded[m][x] for m, x in rows]
    live_cols = [(padded[m], padded[m][b], z) for m, z in cols]
    expected = ref_cell_ok(t, n, k, g, a, b)
    assert explore._cell_ok(padded, pre, n, g, a, b, live_rows, live_cols) == expected
    assert explore._cell_ok(padded, pre, n, g, a, b,
                            *_all_rows_and_cols(padded, n, b)) == expected


def test_live_plan_prunes_what_the_fill_order_leaves_unfilled():
    """The plan of (g, a, b) in the fill's (g, a, b) order: every row and
    column of the tables m < g, none of the tables m > g, and of table g
    the rows x < a, with x == a when a <= b, and every column for b < a,
    the columns z <= a for b == a, none for b > a."""
    for n, k in ((1, 1), (3, 1), (2, 3), (4, 2)):
        plan = explore._fill_plan(n, k)
        assert [cell[:3] for cell in plan] == gab_cells(n, k)
        for g, a, b, rows, cols in plan:
            assert rows == tuple((m, x) for m in range(k) for x in range(n)
                                 if m < g or (m == g and (x < a or (x == a and a <= b))))
            assert cols == tuple((m, z) for m in range(k) for z in range(n)
                                 if m < g or (m == g and (b < a or (b == a and z <= a))))


def ref_padded_cell_ok(t, pre, n, g, a, b) -> bool:
    """The padded, preimage-indexed check as it was before the liveness
    plan: every row and column of both inner-product families."""
    tg = t[g]
    row_a = tg[a]
    v = row_a[b]
    for tm in t:
        for row in tm:
            rhs = row[v]
            if rhs != n:
                lhs = tg[row[a]][b]
                if lhs != rhs and lhs != n:
                    return False
    for tm, pre_m in zip(t, pre):
        for lhs, w in zip(tm[v], tm[b]):
            if lhs != n:
                rhs = row_a[w]
                if lhs != rhs and rhs != n:
                    return False
        for x, y in pre_m[a]:
            rhs = tm[x][tg[y][b]]
            if rhs != v and rhs != n:
                return False
        for y, z in pre_m[b]:
            lhs = tm[row_a[y]][z]
            if lhs != v and lhs != n:
                return False
    return True


def ref_padded_tables(n, k):
    """A recursive padded fill over the (g, a, b) cells, values in
    ascending order, checking with `ref_padded_cell_ok`."""
    cells = gab_cells(n, k)
    t = [[[n] * (n + 1) for _ in range(n + 1)] for _ in range(k)]
    pre = [[[] for _ in range(n)] for _ in range(k)]

    def rec(i):
        if i == len(cells):
            yield tuple(tuple(tuple(r[:n]) for r in tg[:n]) for tg in t)
            return
        g, a, b = cells[i]
        for v in range(n):
            t[g][a][b] = v
            if ref_padded_cell_ok(t, pre, n, g, a, b):
                pre[g][v].append((a, b))
                yield from rec(i + 1)
                pre[g][v].pop()
        t[g][a][b] = n

    yield from rec(0)


def test_fill_matches_padded_fill_without_plan(monkeypatch):
    """Slices beyond SMALL_SLICES, the three-operation ones among them:
    the same tables from the same number of checks as the full scan over
    the same (g, a, b) cell order."""
    calls, ref_calls = [0], [0]
    monkeypatch.setattr(explore, "_cell_ok", _counting(explore._cell_ok, calls))
    monkeypatch.setitem(globals(), "ref_padded_cell_ok",
                        _counting(ref_padded_cell_ok, ref_calls))
    for n, k in ((4, 1), (1, 3), (2, 3)):
        calls[0] = ref_calls[0] = 0
        assert list(explore._fill(n, k, lambda: range(n))) == list(ref_padded_tables(n, k))
        assert calls[0] == ref_calls[0] > 0, (n, k)


def test_compatible_and_canonical_match_loops_on_every_pair():
    """The compatibility join against the plain loop on every (table,
    order) pair, read as the walk reads it, `_compatible(flags, o)` on
    the mask's `_flags`: the walk's join over every order, its joins over
    the total and the trivial orders, and a join over one order.  The
    canonical test reads, per automorphism pi, the list whose entry p is
    the order o with pi o = p, and the order keys."""
    compatible = canonical = nontrivial = non_least = 0
    for n, k in SMALL_SLICES:
        leqs, join = explore._order_layer(n, "all")
        orders = [ref_order(leq, n) for leq in leqs]
        keys = [key for _, key in orders]
        index = {leq: o for o, leq in enumerate(leqs)}
        modes = [explore._order_layer(n, mode) for mode in ("total", "trivial")]
        for tables in _stream(n, k):
            req = explore._requirements(tables, n)
            assert not any(req[i] & explore._pair_bit(n, a, a)
                           for i in range(n * n) for a in range(n)), tables
            mask = explore._compatible_orders(join, req)
            assert mask >> len(orders) == 0
            flags = explore._flags(mask, len(orders))
            assert flags == bytes(mask >> o & 1 for o in range(len(orders)))
            for mode_leqs, mode_join in modes:
                mode_flags = explore._flags(explore._compatible_orders(mode_join, req),
                                            len(mode_leqs))
                assert [explore._compatible(mode_flags, o) for o in range(len(mode_leqs))] \
                    == [ref_compatible(tables, leq) for leq in mode_leqs]
            automorphisms = ref_automorphisms(tables, n, k)
            non_least += automorphisms is None
            nontrivial += bool(automorphisms)
            lists = None
            if automorphisms is not None:
                lists = []
                for pi in automorphisms:
                    lst = [0] * len(leqs)
                    for o, leq in enumerate(leqs):
                        lst[index[ref_relabel_order(leq, pi, n)]] = o
                    lists.append(lst)
            for o, leq in enumerate(leqs):
                ok = ref_compatible(tables, leq)
                assert explore._compatible(flags, o) == ok
                one = explore._compatible_orders(ref_join([leq], n), req)
                assert explore._compatible(explore._flags(one, 1), 0) == ok
                least = ref_is_canonical(tables, leq, n, k)
                assert explore._is_canonical(lists, keys, o) == least, (tables, leq)
                compatible += ok
                canonical += ok and least
    # labeled and iso structure counts of the six slices
    assert compatible == 1 + 20 + 971 + 1 + 34 + 3203
    assert canonical == 1 + 11 + 173 + 1 + 15 + 371
    assert nontrivial and non_least


def test_orbit_stabilizer():
    """Each iso representative stands for n! * k! / |Stab| labeled
    structures; summed, they give the labeled walk's own count of the
    slice, under every order mode, and the pinned counts under all
    orders.  This ties the iso walk to the labeled one, which reads the
    merged orbit stream that the iso walk no longer reads."""
    slices = ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 1))
    pinned = dict(zip(slices, (20, 971, 34, 3203, 62, 10103, 107688)))
    for n, k in slices:
        relabel = relabelings(n, k)
        for orders in ("all", "trivial", "total"):
            total = 0
            for s in enumerate_structures(EnumSpec(n, k, orders, "iso")):
                base = ref_iso_key(s.tables, s.leq, n, k, tuple(range(n)), tuple(range(k)))
                stab = sum(ref_iso_key(s.tables, s.leq, n, k, pi, rho) == base
                           for pi, rho in relabel)
                assert len(relabel) % stab == 0
                total += len(relabel) // stab
            labeled = sum(1 for _ in enumerate_structures(EnumSpec(n, k, orders)))
            assert total == labeled, (n, k, orders)
            assert orders != "all" or total == pinned[n, k], (n, k)


def ref_automorphisms(tables: tuple, n: int, k: int) -> tuple | None:
    """None when some relabeling makes the tables smaller; otherwise the
    distinct carrier permutations pi != id of the automorphisms, in
    `permutations` order.  One generator of relabeled cells per (pi, rho)."""
    base = [x for t in tables for row in t for x in row]
    identity = tuple(range(n))
    autos = []
    for pi in permutations(identity):
        inv = [0] * n
        for i, p in enumerate(pi):
            inv[p] = i
        for rho in permutations(range(k)):
            diff = 0
            relabeled = (pi[tables[r][ia][ib]] for r in rho for ia in inv for ib in inv)
            for x, y in zip(relabeled, base):
                if x != y:
                    diff = x - y
                    break
            if diff < 0:
                return None
            if diff == 0 and pi != identity and pi not in autos:
                autos.append(pi)
    return tuple(autos)


def test_automorphisms_match_generator_form():
    """The automorphisms the orbit stream gives with each least table are
    what one generator per relabeling gives, and every other table gets
    None, which the generator form gives it too."""
    for n, k in ((4, 1), (3, 2), (2, 3), (3, 3)):
        results = [(got, ref_automorphisms(tables, n, k), pi is None)
                   for tables, _, pi, got in explore._associative_tables(n, k)]
        assert all(got == want for got, want, _ in results), (n, k)
        assert all((got is None) != least for got, _, least in results), (n, k)
        assert any(got is None for got, _, _ in results), (n, k)
        assert any(got for got, _, _ in results), (n, k)


def test_automorphisms_form_a_group():
    """On every least table, the carrier permutations the orbit stream
    gives, with the identity, are closed under composition and inverse.
    `_is_canonical` reads, per automorphism pi, the order that pi maps
    to each order, the image under pi^-1, so it sees the images under
    every automorphism only because this holds."""
    for n, k in ((4, 1), (4, 2), (3, 3)):
        identity = tuple(range(n))
        nontrivial = 0
        for _, _, pi, automorphisms in explore._associative_tables(n, k):
            if pi is not None:
                continue
            group = {identity, *automorphisms}
            assert len(group) == len(automorphisms) + 1, (n, k)
            for p in group:
                assert tuple(p.index(a) for a in range(n)) in group, (n, k, p)
                for q in group:
                    assert tuple(p[q[a]] for a in range(n)) in group, (n, k, p, q)
            nontrivial += bool(automorphisms)
        assert nontrivial, (n, k)


def test_walk_structures_match_checked_construction():
    """The walk, and unpickling, build structures without the shape
    checks; each has the slots, types included, of `Structure(...)` built
    from its parts, over the exhaustive corpus and the n4k1 iso stream,
    as walked and as pickled copies."""
    def slots(s):
        return repr((s.n, s.gamma_names, s.tables, s.leq, s.full, s.down, s.up))

    stream = list(enumerate_structures(EnumSpec(4, 1, dedup="iso")))
    assert len(stream) == 4753
    walked = exhaustive_corpus() + tuple(stream)
    for s in walked + pickle.loads(pickle.dumps(walked)):
        assert slots(s) == slots(_fresh(s))


@lru_cache(maxsize=None)
def sampled_n4k2() -> tuple:
    """The 100 sampled n4k2 structures whose verdict digest is pinned."""
    return tuple(random_structure(4, 2, seed=f"7:{i}") for i in range(100))


def ref_legacy_failure(s, word: str):
    """The word's set product built one product loop at a time, and its
    down-closure read off the order matrix."""
    for x in range(s.n):
        xb = 1 << x
        w = s.full if word[0] == "M" else xb
        for c in word[1:]:
            w = ref_product_bits(s, w, s.full if c == "M" else xb)
        if not any(s.leq[x][y] for y in bit_indices(w)):
            return (x,)
    return None


def test_legacy_failure_matches_product_loop():
    for s in exhaustive_corpus() + sampled_n4k2():
        for word in ("MxxM", "Mxx", "xxM"):
            assert analysis._legacy_failure(s, word) == ref_legacy_failure(s, word), word


def ref_prime_bits(s, tbits: int) -> bool:
    for t in s.tables:
        for a in range(s.n):
            row = t[a]
            for b in range(s.n):
                if (tbits >> row[b]) & 1 and not ((tbits >> a) & 1 or (tbits >> b) & 1):
                    return False
    return True


def ref_semiprime_bits(s, tbits: int) -> bool:
    for t in s.tables:
        for a in range(s.n):
            if (tbits >> t[a][a]) & 1 and not (tbits >> a) & 1:
                return False
    return True


def test_prime_and_semiprime_match_loops_on_every_mask():
    primes = semiprimes = 0
    for s in exhaustive_corpus() + sampled_n4k2():
        for tbits in range(s.full + 1):
            prime = ideals._prime_bits(s, tbits)
            semiprime = ideals._semiprime_bits(s, tbits)
            assert prime == ref_prime_bits(s, tbits), (s.tables, tbits)
            assert semiprime == ref_semiprime_bits(s, tbits), (s.tables, tbits)
            primes += prime
            semiprimes += semiprime
    assert 0 < primes < semiprimes


def ref_random_structure(n, k, seed, max_nodes=25_000, attempts=40):
    """The sampler with plain loops over the (g, a, b) cells: the same RNG
    draws in the same order."""
    cells = gab_cells(n, k)
    rng = random.Random(f"{n}:{k}:{seed}")
    tables = None
    for _ in range(attempts):
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
                if nodes > max_nodes:
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
    if tables is None:
        raise SamplingBudgetError("no fill within the budget")
    return Structure(n, tuple(f"g{i}" for i in range(k)), tables,
                     ref_random_order(tables, n, rng))


def ref_random_order(tables, n, rng):
    """The sampler's order draw with plain loops: the orders of the mask
    filter that `ref_compatible` keeps, and one `randrange` among them."""
    compatible = [leq for leq in ref_partial_orders(n) if ref_compatible(tables, leq)]
    return compatible[rng.randrange(len(compatible))]


def test_random_order_matches_plain_loops():
    """The sampler's draw from the compatibility join against
    `ref_random_order`: the same draws give the same order on every table
    of the small slices, each under three seeds, and leave the generator
    in the same state; both trivial and non-trivial orders are drawn."""
    trivial_drawn = other_drawn = 0
    for n, k in SMALL_SLICES:
        trivial = tuple(tuple(a == b for b in range(n)) for a in range(n))
        for tables in _stream(n, k):
            for seed in range(3):
                rng, ref = random.Random(seed), random.Random(seed)
                leq = explore._random_order(tables, n, rng)
                expected = ref_random_order(tables, n, ref)
                assert leq == expected, (tables, seed)
                assert rng.getstate() == ref.getstate()
                trivial_drawn += expected == trivial
                other_drawn += expected != trivial
    assert trivial_drawn and other_drawn


class _Pick:
    """A generator stub whose `randrange(m)` returns a fixed j and keeps m."""

    def __init__(self, j: int) -> None:
        self.j, self.m = j, None

    def randrange(self, m: int) -> int:
        self.m = m
        return self.j


def test_random_order_reaches_each_compatible_order_once():
    """With `randrange` returning j, the sampler gives the j-th order of
    the mask filter that `ref_compatible` keeps, in list order, over
    `randrange(m)` with m their number: as j runs over range(m) every
    compatible order comes exactly once, so a uniform j is a uniform
    order.  On every table of the small slices."""
    for n, k in SMALL_SLICES:
        for tables in _stream(n, k):
            want = [leq for leq in ref_partial_orders(n) if ref_compatible(tables, leq)]
            picks = [_Pick(j) for j in range(len(want))]
            assert [explore._random_order(tables, n, pick) for pick in picks] == want, tables
            assert all(pick.m == len(want) for pick in picks), tables


def test_sampler_matches_plain_loops():
    for i in range(50):
        seed = f"fast:{i}"
        assert dumps(random_structure(4, 2, seed)) == \
            dumps(ref_random_structure(4, 2, seed))


def _sampled(sampler, *args):
    try:
        return dumps(sampler(4, 2, *args))
    except SamplingBudgetError:
        return None


def test_sampler_budget_matches_plain_loops(monkeypatch):
    """Small budgets: the budget runs out on the same node, so the same
    seeds give the same structure or the same SamplingBudgetError."""
    outcomes = []
    for i in range(8):
        for max_nodes in (50, 200, 1000):
            for attempts in (1, 3):
                monkeypatch.setattr(explore, "_NODE_BUDGET", max_nodes)
                monkeypatch.setattr(explore, "_ATTEMPTS", attempts)
                seed = f"budget:{i}"
                got = _sampled(random_structure, seed)
                assert got == _sampled(ref_random_structure, seed, max_nodes, attempts), \
                    (seed, max_nodes, attempts)
                outcomes.append(got is None)
    assert any(outcomes) and not all(outcomes)


def test_sampler_makes_as_many_cell_checks_as_plain_loops(monkeypatch):
    """Equal check counts on the seeds of test_sampler_matches_plain_loops:
    the sampler walks the plain loops' search tree, not only its output."""
    calls, ref_calls = [0], [0]
    monkeypatch.setattr(explore, "_cell_ok", _counting(explore._cell_ok, calls))
    monkeypatch.setitem(globals(), "ref_cell_ok", _counting(ref_cell_ok, ref_calls))
    for i in range(50):
        seed = f"fast:{i}"
        calls[0] = ref_calls[0] = 0
        random_structure(4, 2, seed)
        ref_random_structure(4, 2, seed)
        assert calls[0] == ref_calls[0] > 0, seed


# per-table sharing: walk structures against fresh ones

def walk_corpus() -> list:
    """A new walk of the exhaustive corpus plus the first 2,000 n4k1
    structures; every call builds new structures and new table caches."""
    out = []
    for n, k in ((1, 1), (2, 1), (3, 1), (2, 2)):
        out.extend(enumerate_structures(EnumSpec(n, k)))
    out.extend(enumerate_structures(EnumSpec(4, 1), limit=2000))
    return out


def _fresh(s) -> Structure:
    return Structure(s.n, s.gamma_names, s.tables, s.leq)


def _results(s) -> tuple:
    return ([v.as_dict() for v in harness.check_all(s)],
            {name: fn(s) for name, fn in explore.PREDICATES.items()})


def _verdict_digest(verdict_lists) -> str:
    """SHA-256 over the JSON of each structure's verdict dicts, in order."""
    h = hashlib.sha256()
    for verdicts in verdict_lists:
        h.update(json.dumps(verdicts, sort_keys=True).encode())
    return h.hexdigest()


def test_shared_table_results_match_fresh_structures():
    """Whichever structure of a table computes its table-only results
    first, in walk order or in reverse, every verdict and predicate equals
    that of a structure with a cache of its own.  The verdict bytes are
    pinned, on this corpus and on 100 sampled n4k2 structures."""
    expected = [_results(_fresh(s)) for s in walk_corpus()]
    assert len(expected) == 1026 + 2000
    walked = [_results(s) for s in walk_corpus()]
    assert walked == expected
    assert [_results(s) for s in reversed(walk_corpus())] == expected[::-1]
    assert _verdict_digest(v for v, _ in walked) == (
        "7bfec0775584f7dd19ae2ad5ef018ecc159aede90b858b28290ec55ab9bf5f5f")
    sampled = ([v.as_dict() for v in harness.check_all(random_structure(4, 2, seed=f"7:{i}"))]
               for i in range(100))
    assert _verdict_digest(sampled) == (
        "0f72db613677dccc63475bf4b3b122ddacc384a0a4efa7d895bf32a15fa9dc47")


def test_table_cache_is_shared_per_table():
    corpus = walk_corpus()
    ids: dict[tuple, set] = {}
    for s in corpus:
        ids.setdefault((s.n, s.tables), set()).add(id(table_cache(s)))
    assert all(len(v) == 1 for v in ids.values())
    assert len(set().union(*ids.values())) == len(ids)
    assert len(ids) < len(corpus)
    s = corpus[-1]
    assert table_cache(_fresh(s)) is not table_cache(s)


def test_pickled_walk_structure_arrives_cold():
    """A pickle carries the table cache, contents and all, and shares it
    between the structures of one table pickled together; the
    per-structure cache arrives empty."""
    s = list(islice(enumerate_structures(EnumSpec(4, 1)), 3))[-1]
    before = _results(s)
    assert s._cache and table_cache(s)
    copy = pickle.loads(pickle.dumps(s))
    assert copy._cache == {}
    assert table_cache(copy) == table_cache(s)
    assert table_cache(copy) is not table_cache(s)
    assert _results(copy) == before
    a, b = pickle.loads(pickle.dumps(list(islice(enumerate_structures(EnumSpec(4, 1)), 2))))
    assert table_cache(a) is table_cache(b) == {}


def _stmt_verdicts(spec) -> list:
    return [(v.equivalent, v.witness) for s in enumerate_structures(spec)
            for v in (harness.check_stmt_1to2(s), harness.check_stmt_a(s))]


def test_patched_walk_does_not_leak_into_the_next(monkeypatch):
    """Table caches die with their walk: a walk run with every subset
    taken as prime leaves nothing behind for a later walk of the slice."""
    spec = EnumSpec(3, 1)
    expected = _stmt_verdicts(spec)
    with monkeypatch.context() as m:
        m.setattr(harness, "_prime_bits", lambda s, tb: True)
        assert _stmt_verdicts(spec) != expected
    assert _stmt_verdicts(spec) == expected


def test_table_verdicts_give_each_structure_its_own_witness(monkeypatch):
    monkeypatch.setattr(harness, "_prime_bits", lambda s, tb: True)
    first, second = list(islice(enumerate_structures(EnumSpec(2, 1)), 2))
    assert first.tables == second.tables
    for check in (harness.check_stmt_1to2, harness.check_stmt_a):
        v, w = check(first), check(second)
        assert not v.equivalent and v.witness == w.witness
        v.witness["T"].append(-1)
        assert v.witness != w.witness == check(second).witness


# generative partial orders: the mask filter they replaced

@lru_cache(maxsize=None)
def ref_partial_orders(n: int) -> tuple:
    """Every 0/1 matrix over the off-diagonal pairs, in mask order, kept
    when antisymmetric and transitive."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        leq = [[a == b for b in range(n)] for a in range(n)]
        for i, (a, b) in enumerate(pairs):
            if (mask >> i) & 1:
                leq[a][b] = True
        if any(a != b and leq[a][b] and leq[b][a] for a in range(n) for b in range(n)):
            continue
        if any(leq[a][b] and leq[b][c] and not leq[a][c]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        out.append(tuple(tuple(row) for row in leq))
    return tuple(out)


def test_partial_orders_match_mask_filter():
    for n in range(5):
        assert explore.partial_orders(n) == ref_partial_orders(n), n


# element tables: the per-call helpers they replaced

KINDS = (IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED)


def ref_ideal_bits(s, bits: int, kind) -> bool:
    if not bits or downset_bits(s, bits) != bits:
        return False
    if kind is not IdealKind.RIGHT and product_bits(s, s.full, bits) & ~bits:
        return False
    return kind is IdealKind.LEFT or not product_bits(s, bits, s.full) & ~bits


def ref_principal_bits(s, a: int, kind) -> int:
    ab, m = 1 << a, s.full
    if kind is IdealKind.LEFT:
        seed = ab | product_bits(s, m, ab)
    elif kind is IdealKind.RIGHT:
        seed = ab | product_bits(s, ab, m)
    else:
        ma = product_bits(s, m, ab)
        seed = ab | ma | product_bits(s, ab, m) | product_bits(s, ma, m)
    return downset_bits(s, seed)


def ref_all_ideal_bits(s, kind) -> tuple:
    return tuple(m for m in subset_masks(s.full) if ref_ideal_bits(s, m, kind))


def ref_closed_sandwich(s, mid: int) -> int:
    return downset_bits(s, product_bits(s, product_bits(s, s.full, mid), s.full))


def ref_pinned_failure(s, closure):
    for x in range(s.n):
        for g, t in zip(s.gamma_names, s.tables):
            if not (closure(1 << t[x][x]) >> x) & 1:
                return (x, g)
    return None


def ref_left_closure(s, mid: int) -> int:
    return downset_bits(s, product_bits(s, s.full, mid))


def ref_right_closure(s, mid: int) -> int:
    return downset_bits(s, product_bits(s, mid, s.full))


def ref_filter_gen_bits(s, x: int) -> int:
    bits = 1 << x
    while True:
        new = bits | product_bits(s, bits, bits) | upset_bits(s, bits)
        for t in s.tables:
            for a in range(s.n):
                for b in range(s.n):
                    if (bits >> t[a][b]) & 1:
                        new |= (1 << a) | (1 << b)
        if new == bits:
            return bits
        bits = new


def ref_n_formula_holds(s, side: str) -> bool:
    closure = {"two": lambda b: ref_closed_sandwich(s, b),
               "left": lambda b: ref_left_closure(s, b),
               "right": lambda b: ref_right_closure(s, b)}[side]
    closed = [closure(1 << y) for y in range(s.n)]
    for x in range(s.n):
        formula = 0
        for y in range(s.n):
            if (closed[y] >> x) & 1:
                formula |= 1 << y
        if formula != ref_filter_gen_bits(s, x):
            return False
    return True


def ref_relative_ideal_bits(s, tbits: int, abits: int, kind) -> bool:
    if not abits or abits & ~tbits:
        return False
    if kind is not IdealKind.RIGHT and product_bits(s, tbits, abits) & ~abits:
        return False
    if kind is not IdealKind.LEFT and product_bits(s, abits, tbits) & ~abits:
        return False
    return not downset_bits(s, abits) & tbits & ~abits


def ref_submasks(tbits: int) -> list:
    return sorted((a for a in range(1, tbits + 1) if not a & ~tbits),
                  key=lambda m: (m.bit_count(), m))


def ref_simple_bits(s, tbits: int, kind) -> bool:
    return not any(a != tbits and ref_relative_ideal_bits(s, tbits, a, kind)
                   for a in ref_submasks(tbits))


def ref_relation_partition(s, which: str) -> Partition:
    if which == "N":
        key = lambda x: ref_filter_gen_bits(s, x)
    else:
        kind = {"L": IdealKind.LEFT, "R": IdealKind.RIGHT, "I": IdealKind.TWO_SIDED}[which]
        key = lambda x: ref_principal_bits(s, x, kind)
    groups: dict = {}
    for x in range(s.n):
        groups.setdefault(key(x), []).append(x)
    return Partition(s, groups.values())


def element_tables(s) -> dict:
    """Everything the element tables answer for s, in a fixed layout."""
    closures = ideals._element_closures(s)
    masks = sorted(set(_subsemigroup_masks(s)) | {s.full})
    return {
        "closures": [list(c) for c in closures],
        "principals": [list(ideals._principals(s, kind)) for kind in KINDS],
        "ideals": [ideals._all_ideal_bits(s, kind) for kind in KINDS],
        "filters": list(ideals._filter_gens(s)),
        "failures": [intra_regular_failure(s), left_regular_failure(s),
                     right_regular_failure(s)],
        "n_formula": [harness._n_formula_holds(s, side) for side in ("two", "left", "right")],
        "simple": [[_simple_bits(s, m, kind) for m in masks] for kind in KINDS],
        "partitions": [relation_partition(s, w) for w in "LRIN"],
    }


def ref_element_tables(s) -> dict:
    masks = sorted(set(_subsemigroup_masks(s)) | {s.full})
    elems = range(s.n)
    return {
        "closures": [[ref_left_closure(s, 1 << e) for e in elems],
                     [ref_right_closure(s, 1 << e) for e in elems],
                     [ref_closed_sandwich(s, 1 << e) for e in elems]],
        "principals": [[ref_principal_bits(s, e, kind) for e in elems] for kind in KINDS],
        "ideals": [ref_all_ideal_bits(s, kind) for kind in KINDS],
        "filters": [ref_filter_gen_bits(s, x) for x in elems],
        "failures": [ref_pinned_failure(s, lambda b: ref_closed_sandwich(s, b)),
                     ref_pinned_failure(s, lambda b: ref_left_closure(s, b)),
                     ref_pinned_failure(s, lambda b: ref_right_closure(s, b))],
        "n_formula": [ref_n_formula_holds(s, side) for side in ("two", "left", "right")],
        "simple": [[ref_simple_bits(s, m, kind) for m in masks] for kind in KINDS],
        "partitions": [ref_relation_partition(s, w) for w in "LRIN"],
    }


def _assert_element_tables_agree(s) -> None:
    got = element_tables(s)
    assert got == ref_element_tables(s)
    for p, ref in zip(got["partitions"], ref_element_tables(s)["partitions"]):
        assert p.blocks == ref.blocks and p.class_of == ref.class_of


def test_element_tables_match_per_call_helpers_on_walk_corpus():
    """The exhaustive corpus plus the first 2,000 n4k1 structures, walked
    with shared table caches, so the per-table families are reused."""
    corpus = walk_corpus()
    for s in corpus:
        _assert_element_tables_agree(s)
    for s in exhaustive_corpus():
        for tb in _subsemigroup_masks(s):
            t = s.subset(bit_indices(tb))
            for kind in KINDS:
                assert [a.bits for a in relative_ideals(s, t, kind)] == \
                    [a for a in ref_submasks(tb) if ref_relative_ideal_bits(s, tb, a, kind)]


# legacy-but-not-pinned intra-regular structures per iso slice; at k = 1
# the two families coincide (the n4k1 search finds none)
SEPARATIONS = {(3, 2): 88, (3, 3): 223, (4, 2): 3775}


_PINNED, _LEGACY = ("MxM", "Mx", "xM"), ("MxxM", "Mxx", "xxM")


def _order_forms_checker(n: int):
    """A check that, on a structure of an iso walk over every order, the
    bitset forms of the six regularity words (`tablewise._pinned_orders`
    and `_legacy_orders`) have the bit of the structure's order set
    exactly when its per-structure failure is None.
    An iso structure stands on its orbit's least table, so that bit is
    the order's index in the list; the masks are found once per table."""
    orders = tablewise._orders(n, "all")
    masks = {}

    def check(s: Structure) -> None:
        table = masks.get(s.tables)
        if table is None:
            table = masks[s.tables] = (
                [tablewise._pinned_orders(s, word, orders.reach) for word in _PINNED]
                + [tablewise._legacy_orders(s, word, orders.reach) for word in _LEGACY])
        o = partial_orders(n).index(s.leq)
        assert [mask >> o & 1 == 1 for mask in table] == (
            [analysis._pinned_failure(s, word) is None for word in _PINNED]
            + [analysis._legacy_failure(s, word) is None for word in _LEGACY]), (s.tables, s.leq)
    return check


@pytest.mark.parametrize("n, k", sorted(SEPARATIONS))
def test_pinned_and_legacy_regularity_where_they_differ(n, k):
    """Over every iso structure of n3k2, n3k3 and n4k2 each pinned form
    implies its legacy form, the pinned failures match the closure loops
    at n = 3, and the separations number as pinned, counted one by one
    and by the search."""
    refs = (ref_closed_sandwich, ref_left_closure, ref_right_closure)
    separated = 0
    for s in enumerate_structures(EnumSpec(n, k, dedup="iso")):
        pinned = [intra_regular_failure(s), left_regular_failure(s), right_regular_failure(s)]
        legacy = [is_intra_regular_legacy(s), is_left_regular_legacy(s),
                  is_right_regular_legacy(s)]
        assert all(failure is not None or holds for failure, holds in zip(pinned, legacy))
        if n == 3:
            assert pinned == [ref_pinned_failure(s, lambda b, ref=ref: ref(s, b)) for ref in refs]
        separated += legacy[0] and pinned[0] is not None
    assert separated == SEPARATIONS[n, k]
    assert search(EnumSpec(n, k, dedup="iso"), "intra_regular_legacy & !intra_regular",
                  mode="count") == SEPARATIONS[n, k]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_order_forms_match_the_predicates_at_k1(n):
    """The bitset forms of the regularity words against the per-structure
    failures on every iso structure of n <= 4 with k = 1 (4,753 at n = 4)."""
    check_forms = _order_forms_checker(n)
    for s in enumerate_structures(EnumSpec(n, 1, dedup="iso")):
        check_forms(s)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=10_000))
def test_element_tables_match_per_call_helpers_on_samples(n, k, seed):
    _assert_element_tables_agree(random_structure(n, k, seed))


def test_element_tables_on_a_nilpotent_structure():
    """A structure where the two-sided principal ideal of e needs its
    M e M term, which none of the walk corpus needs: 0 is a zero,
    a e = ae, e b = eb and ae b = a eb = aeb, every other product is 0,
    and aeb lies in M e M only."""
    zero, a, e, b, ae, eb, aeb = range(7)
    table = [[zero] * 7 for _ in range(7)]
    table[a][e], table[e][b], table[ae][b], table[a][eb] = ae, eb, aeb, aeb
    s = Structure(7, ("g",), [table], [[x == y for y in range(7)] for x in range(7)])
    _assert_element_tables_agree(s)
    assert ideals._principals(s, IdealKind.TWO_SIDED)[e] == sum(
        1 << x for x in (zero, e, ae, eb, aeb))


def test_duo_and_thm21_face7_match_ideal_bits_form():
    """The two-sided test by membership in the table's absorbing masks
    agrees with `_ideal_bits` on every one-sided ideal."""
    seen = set()
    for s in walk_corpus():
        for kind, is_duo, tag in ((IdealKind.LEFT, is_left_duo, "L"),
                                  (IdealKind.RIGHT, is_right_duo, "R")):
            one_sided = ideals._all_ideal_bits(s, kind)
            duo = all(ideals._ideal_bits(s, b, IdealKind.TWO_SIDED) for b in one_sided)
            assert is_duo(s) == duo
            face7 = all(ideals._semiprime_bits(s, b)
                        and ideals._ideal_bits(s, b, IdealKind.TWO_SIDED) for b in one_sided)
            assert harness.check_theorem21(s).condition_values[tag + "7"] == face7
            seen.add((duo, face7))
    assert seen == {(True, True), (True, False), (False, False)}


def _family_name(key) -> str:
    """The name of the function a memo key belongs to."""
    return (key if callable(key) else key[0]).__name__


def test_table_families_never_cross_tables():
    """Every family kept per table equals the one a structure with a cache
    of its own builds from the same tables, so none leaks from another
    table of the walk."""
    checked = set()
    for s in walk_corpus():
        element_tables(s)
        fresh = _fresh(s)
        element_tables(fresh)
        shared, own = table_cache(s), table_cache(fresh)
        assert shared.keys() == own.keys()
        assert shared == own
        checked.update(map(_family_name, shared))
    assert checked == {"product_table", "_word_products", "_factor_table", "_absorbing",
                       "_subsemigroup_masks"}


def test_pickled_structure_rebuilds_element_tables():
    s = list(islice(enumerate_structures(EnumSpec(4, 1)), 5))[-1]
    before = element_tables(s)
    copy = pickle.loads(pickle.dumps(s))
    assert copy._cache == {} and table_cache(copy) == table_cache(s)
    assert element_tables(copy) == ref_element_tables(copy)
    assert [list(p.class_of) for p in element_tables(copy)["partitions"]] == \
        [list(p.class_of) for p in before["partitions"]]


def test_faces_are_memoised_per_structure():
    s = list(islice(enumerate_structures(EnumSpec(4, 1)), 7))[-1]
    assert intra_regular_failure(s) is intra_regular_failure(s)
    assert ideals._principals(s, IdealKind.LEFT) is ideals._principals(s, IdealKind.LEFT)
    assert ideals._filter_gens(s) is ideals._filter_gens(s)
    assert intra_regular_failure in s._cache
    assert (harness._n_formula_holds, "two") not in s._cache
    harness.check_lemma3(s)
    assert (harness._n_formula_holds, "two") in s._cache


# unchecked internal partitions against validated ones

def test_internal_partitions_equal_validated_ones():
    for s in exhaustive_corpus():
        built = ([relation_partition(s, w) for w in "LRIN"]
                 + list(semilattice_congruences(s)) + list(all_partitions(s)))
        for p in built:
            q = Partition(s, reversed(p.as_lists()))
            assert p == q and p.blocks == q.blocks and p.class_of == q.class_of


def test_partition_blocks_are_plain_subsets():
    """Blocks built without the range check are Subsets like any other:
    same type, fields, equality and hash; Subset itself still checks."""
    s = list(islice(enumerate_structures(EnumSpec(4, 1)), 11))[-1]
    for p in [Partition(s, [[0, 2], [1], [3]]), relation_partition(s, "L"),
              *all_partitions(s)]:
        for blk in p.blocks:
            checked = Subset(s, blk.bits)
            assert type(blk) is Subset and vars(blk) == vars(checked)
            assert blk == checked and hash(blk) == hash(checked)
    for bits in (-1, s.full + 1, "1"):
        with pytest.raises(InputError):
            Subset(s, bits)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [1, 2, 3]],        # overlap
    [[0, 1], [], [2, 3]],       # empty block
    [[0, 1], [2, 3, 4]],        # out of range
    [[0, 1], [2, -1, 3]],       # negative element
    [[0, 1], [2]],              # 3 uncovered
    [[0, 1], [2, True, 3]],     # not an int
])
def test_public_partitions_still_validate(blocks):
    """The internal fast path leaves caller-given blocks checked, also on
    a structure whose partitions and congruences are already built."""
    s = list(islice(enumerate_structures(EnumSpec(4, 1)), 11))[-1]
    element_tables(s)
    semilattice_congruences(s)
    with pytest.raises(InputError):
        Partition(s, blocks)


# per-table partition facts: the per-partition scans they replaced

@lru_cache(maxsize=None)
def label_corpus() -> tuple:
    """Every structure of the n <= 3, k <= 2 slices, n3k3 up to
    isomorphism and the first 1,000 n4k1 structures, walked with shared
    table caches."""
    out = []
    for n, k in SMALL_SLICES:
        out.extend(enumerate_structures(EnumSpec(n, k)))
    out.extend(enumerate_structures(EnumSpec(3, 3, dedup="iso")))
    out.extend(enumerate_structures(EnumSpec(4, 1), limit=1000))
    return tuple(out)


def ref_chain_failure(s, p):
    """The first (x, y, label) whose product leaves both factors' blocks."""
    cls = p.class_of
    for x in range(s.n):
        for y in range(s.n):
            for g, t in zip(s.gamma_names, s.tables):
                c = cls[t[x][y]]
                if c != cls[x] and c != cls[y]:
                    return (x, y, g)
    return None


def ref_refines(p, q) -> bool:
    return all(len({q.class_of[e] for e in blk}) == 1 for blk in p.blocks)


def test_partition_facts_match_partition_scans():
    """Per table and class labels, the semilattice test and the chain scan
    (`_semilattice_labels`, `_chain_failure`) agree with
    `is_semilattice_congruence` on a caller-built Partition and with the
    chain scan over a Partition, for every partition."""
    corpus = label_corpus()
    assert len(corpus) == 1 + 20 + 971 + 1 + 34 + 3203 + 634 + 1000
    seen = set()
    for s in corpus:
        for p in all_partitions(s):
            slc = relations._semilattice_labels(s, p.class_of)
            fail = relations._chain_failure(s, p.class_of)
            ref_fail = ref_chain_failure(s, p)
            assert slc == is_semilattice_congruence(s, Partition(s, p.as_lists()))
            assert (fail and (fail[0], fail[1], s.gamma_names[fail[2]])) == ref_fail
            assert analysis.decompose(s, p).chain_witness_failure == ref_fail
            seen.add((slc, fail is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_sweep_scans_for_chain_failures_only_on_congruences(monkeypatch):
    """The sweep asks for a chain failure only on each semilattice
    congruence it keeps, in sweep order."""
    asked = []
    scan = relations._chain_failure
    monkeypatch.setattr(relations, "_chain_failure",
                        lambda s, class_of: asked.append(class_of) or scan(s, class_of))
    for i in range(20):
        s = random_structure(4, 2, seed=f"chain:{i}")
        asked.clear()
        kept = relations._semilattice_classes(s)
        assert asked == [c[0] for c in kept]
        assert len(kept) < len(relations._growth_strings(4))


def test_label_sweep_matches_partition_sweep():
    """The semilattice congruences of the label sweep, with their block
    masks, subsemigroup and chain flags, against the sweep over
    `all_partitions`."""
    for s in label_corpus():
        expected = [p for p in all_partitions(s) if is_semilattice_congruence(s, p)]
        assert list(semilattice_congruences(s)) == expected
        assert list(relations._semilattice_classes(s)) == [
            (p.class_of, tuple(b.bits for b in p.blocks),
             all(analysis.is_subsemigroup(s, b) for b in p.blocks),
             ref_chain_failure(s, p) is not None) for p in expected]


def test_refines_matches_block_scan():
    """`refines` on class labels against block by block: every pair of
    partitions of each carrier, and L, I and N of every structure."""
    for s in (walk_corpus()[i] for i in (0, 1, 3, -1)):
        parts = list(all_partitions(s))
        for p in parts:
            for q in parts:
                assert p.refines(q) == ref_refines(p, q)
    for s in label_corpus():
        pl, pi, pn = (relation_partition(s, w) for w in "LIN")
        for p, q in ((pl, pi), (pi, pl), (pi, pn), (pn, pi), (pl, pn)):
            assert p.refines(q) == ref_refines(p, q)


def ref_weakly_prime(s, tbits: int) -> bool:
    ideals = ref_all_ideal_bits(s, IdealKind.TWO_SIDED)
    return not any(not ref_product_bits(s, a, b) & ~tbits and a & ~tbits and b & ~tbits
                   for a in ideals for b in ideals)


def test_weak_primeness_per_ideal_family_matches_pair_scan():
    for s in label_corpus():
        for tb in ideals._all_ideal_bits(s, IdealKind.TWO_SIDED):
            assert ideals._weakly_prime_bits(s, tb) == ref_weakly_prime(s, tb)


def _table_groups(spec, limit=None) -> list:
    """A new walk's structures, grouped by table, in walk order."""
    groups: dict = {}
    for s in enumerate_structures(spec, limit=limit):
        groups.setdefault(s.tables, []).append(s)
    return list(groups.values())


def test_check_all_does_not_depend_on_which_structure_of_a_table_comes_first():
    """Within each table, `check_all` gives the same verdict dicts in walk
    order, in reverse order, and with a table cache per structure: a
    per-table memo keyed by too little shows as a difference."""
    def verdicts(s):
        return [v.as_dict() for v in harness.check_all(s)]

    for spec, limit in ((EnumSpec(3, 2), None), (EnumSpec(4, 1), 500)):
        forward = [[verdicts(s) for s in g] for g in _table_groups(spec, limit)]
        backward = [[verdicts(s) for s in reversed(g)][::-1]
                    for g in _table_groups(spec, limit)]
        fresh = [[verdicts(_fresh(s)) for s in g] for g in _table_groups(spec, limit)]
        assert forward == backward == fresh
        assert max(map(len, forward)) > 1
