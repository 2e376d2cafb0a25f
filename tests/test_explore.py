"""Enumeration counts, sampling determinism, the expression language,
and the pinned-versus-legacy separation facts."""

from __future__ import annotations

import hashlib
import heapq
import importlib
import operator
import os
import pkgutil
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gpw
from gpw import explore
from gpw.analysis import is_intra_regular, is_intra_regular_legacy
from gpw.core import InputError, _union_table, down_table, up_table, validate
from gpw.explore import (And, EnumSpec, Not, Or, Pred, PREDICATES,
                         SamplingBudgetError, _associative_tables,
                         enumerate_structures, eval_expr, parse_expr,
                         partial_orders, random_structure, search)
from gpw.gpsjson import digest, dumps, to_obj


def _count(spec: EnumSpec) -> int:
    return sum(1 for _ in enumerate_structures(spec))


# frozen counts; the trivial order is compatible with every table, so the
# trivial-order slice counts exactly the associative table tuples

def test_table_counts_k1():
    assert _count(EnumSpec(1, 1, orders="trivial")) == 1
    assert _count(EnumSpec(2, 1, orders="trivial")) == 8
    assert _count(EnumSpec(3, 1, orders="trivial")) == 113


def test_table_counts_k2():
    assert _count(EnumSpec(2, 2, orders="trivial")) == 14
    assert _count(EnumSpec(3, 2, orders="trivial")) == 413


def _sha256(tables) -> str:
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def _abg_key(tables) -> tuple:
    """The cells by a, then b, then g."""
    return tuple(x for rows in zip(*tables) for cells in zip(*rows) for x in cells)


# table count, the SHA-256 of the repr of the list of the tables of
# _associative_tables(n, k) sorted by the (a, b, g) cell key, recorded when
# the walk handed its tables on in that order, and the SHA-256 of the
# stream as it comes: ascending, in the fill's (g, a, b) cell order
TABLE_STREAMS = {
    (2, 3): (26, "9152b3ca03b75607dd559ea6daa8cb2fc61757d6afa7afc61a98a3380efdfe51",
             "0a2a6b43e8bf3204fa7b83ac78c7ff871055c0183b8530eb351d225026c8d649"),
    (4, 2): (26028, "52eac8f74f1e3a1a02c4ccfdb2ed4a3397d1d413d3248e3de10d750691da4d87",
             "9aa39684b8e2c23bf5c5f45fc3e87927644ddceabe95354cfc87079e6b6a2ab5"),
    (3, 3): (1397, "eafa9066a44b83b954ece9b0ee9ebfd9b81076a67c109ca53fec68af5b9e4f7d",
             "0abffacd64bc70ef0b3aa7577fc06324dc00a7f4b005e2cf52b5084bfaa64bde"),
}


def test_table_streams_pinned():
    for (n, k), (count, abg, own) in TABLE_STREAMS.items():
        tables = [t for t, _, _, _ in _associative_tables(n, k)]
        assert len(tables) == count, (n, k)
        assert tables == sorted(tables), (n, k)
        assert _sha256(sorted(tables, key=_abg_key)) == abg, (n, k)
        assert _sha256(tables) == own, (n, k)


# per slice, the SHA-256 over the walk's items (structure, class key),
# each as repr((tables, leq, key)), under orders all, trivial and total,
# each labeled and then iso: the walk's tables, orders and keys, in order
WALK_STREAMS = {
    (2, 1): "adf536cd4f7864150eaaffec214e616d083af042bf37d91643257ca4e90c5920",
    (3, 1): "7df64009a16ffa706998b7dee9b1dd1c43c980ffc5beb8af97b922d621c877ac",
    (2, 2): "155dd837af21a7cb2c61739d5948b1bc8375ed77228811e1238549abd142d9fa",
    (3, 2): "07d508a30a5c2343b7b98fc730756065be1b6c2bf3bf5586ee429e67bf464e73",
    (4, 1): "d878c125f236b79ef599524c9ac48c1f7e87f0ffcd9eb58ed2c8bfeb56b8098f",
    (1, 3): "ddd8171741e9dc497d8d04d16ed78746384c184e73dc9ca82f7dc1111eca2445",
    (2, 3): "3aaa3f1c3efbdfe41c327a616ef8a9f9c33908476cd7080f8ad00959a5212f16",
    (3, 3): "158c44841d93d1a3e8c0c58aa178a01dbaf1ace9f3ef1293cc5813506e026da0",
}


def test_walk_streams_pinned():
    for (n, k), want in WALK_STREAMS.items():
        h = hashlib.sha256()
        for orders in ("all", "trivial", "total"):
            for dedup in ("labeled", "iso"):
                for s, key in explore._keyed_structures(EnumSpec(n, k, orders, dedup)):
                    h.update(repr((s.tables, s.leq, key)).encode())
        assert h.hexdigest() == want, (n, k)


def test_first_structure_costs_one_check_per_cell(monkeypatch):
    """The walk streams: its first structure waits for the first table
    alone, whose fill tries value 0 at each of the k * n * n cells and
    keeps it, as the constant tables 0 satisfy every constraint."""
    calls = [0]
    real = explore._cell_ok

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(explore, "_cell_ok", counting)
    for n, k in ((4, 2), (3, 3)):
        calls[0] = 0
        first = next(enumerate_structures(EnumSpec(n, k)))
        assert calls[0] == k * n * n, (n, k)
        assert first.tables == ((((0,) * n,) * n,) * k)


def test_partial_order_counts():
    # OEIS A001035 (labeled posets); total orders are the n! permutations
    assert [len(partial_orders(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]
    assert [len(partial_orders(n, "total")) for n in (1, 2, 3, 4)] == [1, 2, 6, 24]
    assert [len(partial_orders(n, "trivial")) for n in (1, 2, 3, 4)] == [1, 1, 1, 1]
    with pytest.raises(InputError):
        partial_orders(2, "chaotic")


def test_partial_orders_reject_n_outside_0_to_6():
    """n must be an int in 0..6, not a bool; 0 gives the one empty order.
    The check comes before any build, so n = 7 starts none."""
    for bad in (-1, 2.5, True, 7, "3"):
        with pytest.raises(InputError, match="n must be an integer in 0..6"):
            partial_orders(bad)
    assert partial_orders(0) == ((),)


def test_partial_order_count_n5():
    assert len(partial_orders(5)) == 4231  # OEIS A001035(5)


# SHA-256 of repr(partial_orders(5, mode)): the lists, their order and
# their rows as the matrix-by-matrix build gave them
PARTIAL_ORDERS_N5 = {
    "all": "8ac68ef893ddddf4fd00acde2f8b2d125aac249c92dc93d76c07239dc7c9366b",
    "total": "230e83248c3fc07f07c5f97f47d84b16b8a9614120c0cf53d919d87b8dd77a16",
    "trivial": "34739c6ebe19a1c86f5fcf669a6f0582c640171bd872e7f814c09f6740cca989",
}


def test_partial_orders_n5_pinned():
    for mode, want in PARTIAL_ORDERS_N5.items():
        assert _sha256(partial_orders(5, mode)) == want, mode


def test_partial_orders_one_cache_entry():
    """The default mode and "all" read one list, built once."""
    for n in (1, 4, 5):
        assert partial_orders(n) is partial_orders(n, "all")
        assert partial_orders(n) is explore._order_layer(n, "all")[0]


def test_structure_counts():
    assert _count(EnumSpec(2, 1)) == 20
    assert _count(EnumSpec(3, 1)) == 971
    assert _count(EnumSpec(2, 2)) == 34
    assert _count(EnumSpec(3, 2)) == 3203
    assert _count(EnumSpec(2, 3)) == 62
    assert _count(EnumSpec(3, 3)) == 10103
    assert _count(EnumSpec(4, 2)) == 667584


def test_structure_counts_iso():
    assert _count(EnumSpec(2, 1, dedup="iso")) == 11
    assert _count(EnumSpec(3, 1, dedup="iso")) == 173
    assert _count(EnumSpec(2, 2, dedup="iso")) == 15
    assert _count(EnumSpec(4, 1, dedup="iso")) == 4753
    assert _count(EnumSpec(2, 3, dedup="iso")) == 18
    assert _count(EnumSpec(3, 3, dedup="iso")) == 634
    assert _count(EnumSpec(4, 2, dedup="iso")) == 16945


def test_labeled_class_keys_count_the_iso_structures():
    """The labeled walk's class keys, one per isomorphism class, are as
    many as the iso walk's structures, under every order mode."""
    for n, k in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        for orders in ("all", "trivial", "total"):
            keys = {key for _, key in explore._keyed_structures(EnumSpec(n, k, orders))}
            assert len(keys) == _count(EnumSpec(n, k, orders, "iso")), (n, k, orders)


def test_iso_walk_counts_match_the_golden_trace(monkeypatch):
    """The n4k1 iso walk's calls and acceptances, counted the way
    perfbench/tracer.py counts them and pinned in perfbench/golden.json:
    one compatibility test per (table, order) pair and one canonical test
    per compatible pair."""
    counts = {"tables": 0}
    for name in ("_compatible", "_is_canonical"):
        calls = counts[name] = [0, 0]

        def wrapper(*args, fn=getattr(explore, name), calls=calls):
            out = fn(*args)
            calls[0] += 1
            calls[1] += bool(out)
            return out
        monkeypatch.setattr(explore, name, wrapper)
    fill = explore._associative_tables

    def tables(*args):
        for t in fill(*args):
            counts["tables"] += 1
            yield t
    monkeypatch.setattr(explore, "_associative_tables", tables)
    assert _count(EnumSpec(4, 1, dedup="iso")) == 4753
    assert counts == {"tables": 3492, "_compatible": [764748, 107688],
                      "_is_canonical": [107688, 4753]}


def test_iso_walk_decodes_no_table_outside_the_least_ones(monkeypatch):
    """Under iso the walk reads the unmerged orbit stream: every table
    that is not least in its orbit stays a `bytes` key, no heap is
    built, and every structure stands on a least table.  The labeled
    walk still merges, and reads every table decoded."""
    def no_heap(*args):
        raise AssertionError("the iso walk pushed onto a heap")

    fill, items = explore._associative_tables, []

    def recording(*args):
        for item in fill(*args):
            items.append(item)
            yield item
    monkeypatch.setattr(explore, "_associative_tables", recording)
    with monkeypatch.context() as m:
        m.setattr(heapq, "heappush", no_heap)
        walked = list(enumerate_structures(EnumSpec(4, 1, dedup="iso")))
    assert len(walked) == 4753 and len(items) == 3492
    least = {tables for tables, _, pi, _ in items if pi is None}
    assert len(least) == 188
    assert all(type(tables) is bytes for tables, _, pi, _ in items if pi is not None)
    assert {s.tables for s in walked} <= least
    items.clear()
    assert sum(1 for _ in enumerate_structures(EnumSpec(3, 1))) == 971
    assert len(items) == 113 and all(type(tables) is tuple for tables, _, _, _ in items)


def test_walk_hands_each_structure_its_closure_tables():
    """Every walked structure's closure tables equal the tables built
    from its `down` / `up`, and no two structures share the `_cache`
    that holds them.  Every order mode of the n <= 3 slices, both dedup
    modes, and n4k1 iso."""
    specs = [EnumSpec(n, k, orders, dedup) for n in (1, 2, 3) for k in (1, 2, 3)
             for orders in ("all", "trivial", "total") for dedup in ("labeled", "iso")]
    for spec in specs + [EnumSpec(4, 1, dedup="iso")]:
        walked = list(enumerate_structures(spec))
        assert walked, spec
        assert len({id(s._cache) for s in walked}) == len(walked), spec
        for s in walked:
            assert down_table(s) == _union_table(s.n, s.down), (spec, s.leq)
            assert up_table(s) == _union_table(s.n, s.up), (spec, s.leq)


def test_compatible_is_the_only_name_bound_to_getitem():
    """`_compatible` is C's item lookup, and no other module-level name in
    gpw is bound to that function, so a tracer rebinding it by identity
    (see perfbench/tracer.py) counts the walk's compatibility tests alone."""
    for info in pkgutil.iter_modules(gpw.__path__):
        importlib.import_module(f"gpw.{info.name}")
    bound = [(name, attr) for name, mod in list(sys.modules.items())
             if name == "gpw" or name.startswith("gpw.")
             for attr, value in vars(mod).items() if value is operator.getitem]
    assert bound == [("gpw.explore", "_compatible")]


def test_partial_orders_share_their_rows():
    """An order's rows are tuples shared with every other order holding
    the same row, at most 2^n of them.  (`test_fast_paths` checks the
    walk's `down` / `up` masks against the plain loop.)"""
    for n in (3, 4):
        for mode in ("all", "total"):
            orders = partial_orders(n, mode)
            assert len({id(row) for leq in orders for row in leq}) <= 2 ** n, (n, mode)


# external pins: OEIS A027851 counts semigroups up to isomorphism, A023814
# labeled semigroups; with one operation and the trivial order the walk
# enumerates exactly those

def test_semigroups_up_to_isomorphism_a027851():
    assert [_count(EnumSpec(n, 1, orders="trivial", dedup="iso"))
            for n in (1, 2, 3, 4)] == [1, 5, 24, 188]


def test_canonical_fill_a027851():
    """The lex-leader cut fill alone, through n = 5."""
    assert [sum(1 for _ in explore._fill(n, 1, lambda: range(n), canonical=True))
            for n in (1, 2, 3, 4, 5)] == [1, 5, 24, 188, 1915]


def test_labeled_semigroups_a023814_at_n4():
    assert _count(EnumSpec(4, 1, orders="trivial")) == 3492


def test_enumerated_structures_are_valid():
    for s in enumerate_structures(EnumSpec(2, 2)):
        assert validate(s).ok
        assert s.gamma_names == ("g0", "g1")


def test_enumeration_deterministic_and_limited():
    a = [digest(s) for s in enumerate_structures(EnumSpec(3, 1), limit=50)]
    b = [digest(s) for s in enumerate_structures(EnumSpec(3, 1), limit=50)]
    assert a == b
    assert len(a) == 50
    assert len(set(a)) == 50


def test_enumeration_limit_zero_and_negative():
    assert list(enumerate_structures(EnumSpec(3, 1), limit=0)) == []
    assert len(list(enumerate_structures(EnumSpec(3, 1), limit=1))) == 1
    for bad in (-1, -5, 1.5, True):
        with pytest.raises(InputError):
            enumerate_structures(EnumSpec(3, 1), limit=bad)


def test_enum_spec_validation():
    for bad in (dict(n=0), dict(n=7), dict(n=2, k=0), dict(n=2, k=4),
                dict(n=2, orders="sideways"), dict(n=2, dedup="maybe")):
        with pytest.raises(InputError):
            EnumSpec(**bad)


def test_walk_rejects_a_spec_that_is_not_an_enum_spec():
    """Only an `EnumSpec`, checked on construction, reaches the walk: a
    plain tuple, or a look-alike object whose n is far beyond 6, is an
    input error before anything is built."""
    class LookAlike:
        n, k, orders, dedup = 9, 1, "all", "labeled"

    for bad in ((3, 1, "all", "labeled"), LookAlike()):
        with pytest.raises(InputError, match="spec must be an EnumSpec"):
            enumerate_structures(bad)
        with pytest.raises(InputError, match="spec must be an EnumSpec"):
            search(bad, "simple")


def test_enum_spec_rejects_booleans():
    """A bool is an int to isinstance; the spec must not read True as 1."""
    for bad in (dict(n=True), dict(n=2, k=True), dict(n=True, k=True)):
        with pytest.raises(InputError, match="must be an integer"):
            EnumSpec(**bad)


def test_enum_spec_replace_and_make_validate():
    """`_replace` and `_make` build a spec through the same checks as the
    constructor: namedtuple's own `_make` skips `__new__`."""
    spec = EnumSpec(2)
    for bad in (dict(n=9), dict(k=0), dict(n=True), dict(orders="sideways"),
                dict(dedup="maybe")):
        with pytest.raises(InputError):
            spec._replace(**bad)
    for bad in ((0, 1, "all", "labeled"), (2, 4, "all", "labeled"), (2, 1, "all", "maybe")):
        with pytest.raises(InputError):
            EnumSpec._make(bad)
    assert spec._replace(k=2, dedup="iso") == EnumSpec(2, 2, "all", "iso")
    assert EnumSpec._make((3, 1, "total", "labeled")) == EnumSpec(3, orders="total")
    assert type(EnumSpec._make([2, 1, "all", "labeled"])) is EnumSpec


def test_enum_spec_and_expression_nodes_are_values():
    """EnumSpec and the expression nodes compare, hash and print by class
    and fields: a value equals no value of another class, a tuple of the
    same fields included, and none of its fields can be assigned."""
    spec = EnumSpec(3)
    assert spec == EnumSpec(3, 1, "all", "labeled") == EnumSpec(n=3, dedup="labeled")
    assert hash(spec) == hash(EnumSpec(3, 1)) and len({spec, EnumSpec(3, 1)}) == 1
    assert spec != EnumSpec(3, 2) and spec != EnumSpec(3, orders="total")
    assert spec != (3, 1, "all", "labeled") and (3, 1, "all", "labeled") != spec
    assert repr(spec) == "EnumSpec(n=3, k=1, orders='all', dedup='labeled')"
    a, b = Pred("simple"), Pred("left_duo")
    tree = Or(And(a, Not(b)), a)
    assert tree == parse_expr("simple & !left_duo | simple") and not tree != tree
    assert hash(tree) == hash(parse_expr("simple & !left_duo | simple"))
    assert And(a, b) != Or(a, b) and len({And(a, b), Or(a, b), And(a, b)}) == 2
    assert Pred("x") != ("x",) and ("x",) != Pred("x") and Not(a) != (a,)
    assert Or(a, b) != Or(a, Not(b)) and Pred("x") == Pred("x")
    assert repr(tree) == ("Or(left=And(left=Pred(name='simple'), right=Not(arg="
                          "Pred(name='left_duo'))), right=Pred(name='simple'))")
    for value, field in ((spec, "n"), (spec, "dedup"), (a, "name"), (Not(a), "arg"),
                         (And(a, b), "left"), (Or(a, b), "right")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


# sampling

def test_random_structure_deterministic():
    a = random_structure(4, 2, seed=123)
    b = random_structure(4, 2, seed=123)
    assert to_obj(a) == to_obj(b)
    assert validate(a).ok


def test_random_structure_reads_no_environment(monkeypatch):
    """An omitted or None seed is 0, whatever the environment holds."""
    monkeypatch.setenv("GPW_SEED", "7")
    expected = to_obj(random_structure(3, 1, seed=0))
    assert to_obj(random_structure(3, 1)) == expected
    assert to_obj(random_structure(3, 1, seed=None)) == expected
    assert to_obj(random_structure(3, 1, seed=7)) != expected


# SHA-256 of dumps(random_structure(n, k, seed)) for seeds 0..9, recorded
# when the order draw became one uniform pick from the compatibility join
# (the tables, pinned apart below, did not move); they hold on every
# CPython whose Random.shuffle and Random.randrange draw as today
SAMPLED_DIGESTS = {
    (3, 1): (
        "7c4764cbdec2fa742f7b41aa718a711fadd81f8238fc1d50259e4b6fdc6f606e",
        "f799c477830d791a2ce3a50a06cc8c251a9f19fd5d31aae48816ddfb980bc2e2",
        "c5f7c4730e9277c676e851346ab6f04e503c79d86fce0a2a2fe30823c8f21aa0",
        "64224ed42a4acde175515b54df37879c49fc97bac55aec5cc804dbb58f1ae7bb",
        "302f19ffa95d623db67e91fa1118a5ab42af31be996b731840393c5f021f6a2a",
        "640a29f6cd7d0178efc85af66564e2d485127a2490df454c0b940fd6e93392b3",
        "f90bd9c66a52f1b089429e4433d233832648047086a1c9229e7b1f1e3f6faa26",
        "4f703da4a7f63d04b9c0f1dff6e24febaf3731efe8e56a7be6571a517375ce55",
        "d610584de3abf6cff73ea4e389e1e6ac307fee56390cc426424f0dcaa59b2dce",
        "a4061244e202b8b24416884ea23fcf75a8398ca36446fbb0a06e6a293672fc01",
    ),
    (5, 1): (
        "c9c3bc24ff6ae47c0257ae97fa0b8ed961f4d9ff937d5de983b561f1c62e1417",
        "71831153b8d5ca1bcdba4cfdad7f0d141563692c28e8ed576142e567cf90ae85",
        "a4e723ddc7f33f5a875e26e1dc7d506440165cf20d4e5b4020727d68fbc53994",
        "d2ee83eb885e13e2f7271a3a595fb06f8e0edc734e422de08031d801b186732f",
        "6971a03f650d5e0678c8a87982e19f757e762d38a39f0137c039392de437cb69",
        "dd5393082f984aa4f187a9da146e463f60b499eec19f68dbf1de4987c3a2e17b",
        "1bc8364fd7e7914c151c257d9d0750bc7dc04d11254815e9a1ab9ab4a7bdfedb",
        "cbb653d77c7fb1f17aa51244da5ae60d89c232fd8e8385af25f911882a409927",
        "561d69beb564406863636f20190038a2b96ba70a5d8328bca316a3ca7c92e98d",
        "d628ffba20dfb0d1a56a11c388338c908abb554659db9d92f2b0e47c63b44cb0",
    ),
    (4, 2): (
        "48f12d0f07eb059caffd6cfe2b9c586b34db8bfb3f455103dedd09a6a72e8e43",
        "422dadf9cfd64c04310d02716be6c644bc1dab72c51c0f6b94f6d6de448e4931",
        "5562be3ab0f8941f969d30fdbe4b72c2f5dd9e70641fc6a5d20ff3015aa798b3",
        "67e8e0176df9e4c4251d70d517522122262fc705a485c5f0a20bed2917e94752",
        "d874be13b9e454fdb5a1d8f5800c8723230da45f13941464283ec1f787d9877d",
        "1c37155d8f0bd0b46900e1a24c4da4c2ce05e52ad68d614a23b9f64b00aa2aa8",
        "4a1db4a308d2571fa72a44f1258ff3e3aa2289dc994815249ff819e0b73f82e1",
        "0902390323098ca159e8b592b30b8585567ffb6ed53f5c8b92cd136826163f00",
        "a1bb24cf68f77e12af73454e3bb9bb5a3367411b489207dddff7fb318992a1f2",
        "b09b447be086f2191314ceea7b7680a438f5973ad5840d48634ac56a87f6d395",
    ),
    (3, 3): (
        "9a629c38d7aa6e2174e8ee51b9e13d31a9aa1f8d48b6b881e08d79ddac0d380f",
        "29168eac22b52321d24035d2ab5518e76f0a599587847ed8e04f61114f6c2158",
        "a4cb3e7341710550cb163fe572dda6744da6aecdddde5a4bce81cdb346223462",
        "cf2113eac7662a6fa6390548d1e05cebc92d9ec603d69857b85e70886e37e380",
        "39284b1ab8f5b896ca5b347c896cb671ae5b5e4cf1bf797c370ca71fb6eadcc2",
        "7a915be955137f082d362e32acd9fed482d80f1d70dd301498ac81adc9c4cf16",
        "7ddd50750c18f6571116b3cc7aaa80050a10051292534b2f7dd76ffbf13b4847",
        "5d49fdfffd80450b2b08d58d047653a7f2de149da837af467ac0b56538d3220e",
        "8b52507907b449574fb325cc6f947dcac369dd5f9e79d307ad8f4c17455f32ae",
        "9f69c4b6e29efbb6d97083236134d742b6254481cf66ddfd7b038f38dd44676d",
    ),
}


def test_random_structure_digests_pinned():
    for (n, k), expected in SAMPLED_DIGESTS.items():
        got = tuple(hashlib.sha256(dumps(random_structure(n, k, seed)).encode()).hexdigest()
                    for seed in range(10))
        assert got == expected, (n, k)


def _tables_digest(structures) -> str:
    """SHA-256 over repr(s.tables) of each structure, in order."""
    h = hashlib.sha256()
    for s in structures:
        h.update(repr(s.tables).encode())
    return h.hexdigest()


# the tables alone, recorded before the order draw moved to the join: the
# table draw comes first, so a change to the order draw leaves these be
SAMPLED_TABLE_DIGESTS = {
    (3, 1): "94d4fe313ba25dd6859d21660f787963a18f8d13318a7ead7499662e455b7539",
    (5, 1): "cd4ef2f95b6e82db472f10a4641e02f2051f447d461c652779e6ce3adea152bd",
    (4, 2): "4fecf257c86d83243460d9a4e7d00fe13c5256a30b2fedd4ba5b66daa23a56d2",
    (3, 3): "9f4b0fcf6bf9c9b029fd13b18810687953002d71e50d106bf14469b6c595c515",
}


def test_sampled_tables_pinned():
    """The tables of the `SAMPLED_DIGESTS` seeds and of the 500 samples of
    acceptance criterion 1 (`test_acceptance.sample_corpus`)."""
    for (n, k), expected in SAMPLED_TABLE_DIGESTS.items():
        assert _tables_digest(random_structure(n, k, seed) for seed in range(10)) == expected
    corpus = [random_structure(n, k, seed=seed)
              for n in (1, 2, 3, 4) for k in (1, 2) for seed in range(63)][:500]
    assert _tables_digest(corpus) == (
        "fede29579e8c960b5fe06d0acdca4ad2d5357d3690af71a7a6f52be871037bbc")


def test_random_structure_n_outside_1_to_6(monkeypatch):
    """n = 7 has 6,129,859 partial orders: n outside 1..6 is an input
    error before any order is enumerated."""
    def fail(*args):
        raise AssertionError("_order_layer called")
    monkeypatch.setattr(explore, "_order_layer", fail)
    for n in (7, 0):
        with pytest.raises(InputError, match="at most 6"):
            random_structure(n, 1)
    with pytest.raises(AssertionError, match="_order_layer called"):
        random_structure(2, 1)  # the sampler's orders come from there


def test_random_structure_k_outside_1_to_3(monkeypatch):
    """The fill plan grows as k^2 n^3: k outside 1..3 is an input error
    before any plan is built."""
    def fail(*args):
        raise AssertionError("_fill_plan called")
    monkeypatch.setattr(explore, "_fill_plan", fail)
    for k in (4, 0):
        with pytest.raises(InputError, match="at most 3"):
            random_structure(2, k)
    with pytest.raises(AssertionError, match="_fill_plan called"):
        random_structure(2, 1)  # the sampler's fill reads its plan there


def test_random_structure_seeds_spread():
    objs = {digest(random_structure(3, 2, seed=i)) for i in range(8)}
    assert len(objs) > 1


def test_sampling_budget_error(monkeypatch):
    monkeypatch.setattr(explore, "_NODE_BUDGET", 0)
    monkeypatch.setattr(explore, "_ATTEMPTS", 1)
    with pytest.raises(SamplingBudgetError):
        random_structure(3, 2, seed=0)


def test_sampling_budget_boundary(monkeypatch):
    """A budget of exactly the values the first attempt tries completes
    that attempt; one fewer exhausts it.  With the sampler's fill, each
    value tried is one `_cell_ok` call."""
    monkeypatch.setattr(explore, "_ATTEMPTS", 1)
    tried = []
    cell_ok = explore._cell_ok
    monkeypatch.setattr(explore, "_cell_ok", lambda *args: tried.append(1) or cell_ok(*args))
    expected = dumps(random_structure(4, 2, seed="edge:0"))
    nodes = len(tried)
    assert 1 < nodes < explore._NODE_BUDGET
    monkeypatch.setattr(explore, "_NODE_BUDGET", nodes)
    tried.clear()
    assert dumps(random_structure(4, 2, seed="edge:0")) == expected
    assert len(tried) == nodes
    monkeypatch.setattr(explore, "_NODE_BUDGET", nodes - 1)
    tried.clear()
    with pytest.raises(SamplingBudgetError):
        random_structure(4, 2, seed="edge:0")
    assert len(tried) == nodes - 1


def test_random_structure_input_errors():
    with pytest.raises(InputError):
        random_structure(0, 1)
    with pytest.raises(InputError):
        random_structure(2, 0)


def test_random_structure_rejects_booleans():
    """A bool is an int to isinstance; True must not pass for 1, as
    `EnumSpec` already requires."""
    for n, k in ((2, True), (True, 1), (True, True), (2, False)):
        with pytest.raises(InputError, match="must be a positive integer"):
            random_structure(n, k, seed=0)


_FAILING_VALIDATE = """
import sys
from gpw import explore
from gpw.core import ValidationReport
assert not __debug__, "expected python -O"
explore.validate = lambda s: ValidationReport(False, [("associativity", (0, 0, 0))])
try:
    explore.random_structure(2, 1, seed=0)
except RuntimeError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_random_structure_checks_validation_under_optimize():
    """The sampler's validation must not be an assert, which -O strips."""
    src = os.path.dirname(os.path.dirname(gpw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _FAILING_VALIDATE],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "fails validation" in proc.stdout


# expression language

def test_predicate_names():
    assert set(PREDICATES) == {
        "intra_regular", "intra_regular_legacy", "left_regular",
        "right_regular", "left_duo", "right_duo", "ideals_chain",
        "ideals_prime", "ideals_semiprime", "ideals_weakly_prime",
        "semilattice_of_simple", "chain_of_simple", "simple", "left_simple",
    }
    assert len(PREDICATES) == 14


def test_parse_precedence():
    assert parse_expr("simple") == Pred("simple")
    assert parse_expr("simple & !left_duo | intra_regular") == Or(
        And(Pred("simple"), Not(Pred("left_duo"))), Pred("intra_regular"))
    assert parse_expr("simple & (left_duo | intra_regular)") == And(
        Pred("simple"), Or(Pred("left_duo"), Pred("intra_regular")))
    assert parse_expr("!!simple") == Not(Not(Pred("simple")))
    assert parse_expr(" ( simple ) ") == Pred("simple")


def test_parse_errors():
    for bad in ("nonsense", "(simple", "simple )", "simple extra", "",
                "simple &", "& simple", "simple @ left_duo", "!(simple",
                "~simple", "simple ^ left_duo", "not simple", "simple and left_duo",
                "2x", "1", "simple.x", "simple()", "'simple'", "simple ) & ( left_duo",
                "simple !left_duo", "simple && left_duo", "()", "\u00e9", "simple\u00e9",
                "!" * 5000 + "simple", "!" * 20000 + "simple", "(" * 300 + "simple" + ")" * 300):
        with pytest.raises(InputError) as err:
            parse_expr(bad)
        assert "~" in bad or "~" not in str(err.value)
    with pytest.raises(InputError, match="unknown predicate 'nonsense'; known: "):
        parse_expr("simple & !nonsense")
    with pytest.raises(InputError, match="unexpected character '@' in expression"):
        parse_expr("simple @ left_duo")
    with pytest.raises(InputError, match=r"malformed expression 'simple &\\n'"):
        parse_expr("simple &\n")


def test_parse_lets_no_warning_escape():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            parse_expr("2x & simple")


_NAMES = st.sampled_from(sorted(PREDICATES))
_TREES = st.recursive(
    _NAMES.map(Pred),
    lambda sub: st.one_of(sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=12)


def _render(draw, e, context: int) -> str:
    """`e` as text, with random whitespace around every token and a
    random share of redundant parentheses; `context` is the binding power
    the text must have (3 for an operand of !, 2 and 3 for the left and
    right operands of &, 1 and 2 for those of |)."""
    def ws():
        return draw(st.text(" \t\n", max_size=2))

    if isinstance(e, Pred):
        text, power = e.name, 3
    elif isinstance(e, Not):
        text, power = "!" + ws() + _render(draw, e.arg, 3), 3
    elif isinstance(e, And):
        text, power = _render(draw, e.left, 2) + "&" + _render(draw, e.right, 3), 2
    else:
        text, power = _render(draw, e.left, 1) + "|" + _render(draw, e.right, 2), 1
    if power < context or draw(st.booleans()):
        text = "(" + ws() + text + ws() + ")"
    return ws() + text + ws()


@settings(max_examples=300, deadline=None)
@given(st.data(), _TREES)
def test_parse_round_trips_rendered_trees(data, tree):
    assert parse_expr(_render(data.draw, tree, 0)) == tree


def ref_eval(truth, expr, calls) -> bool:
    """The recursive evaluation, noting each predicate it asks in `calls`."""
    if isinstance(expr, Pred):
        calls.append(expr.name)
        return truth[expr.name]
    if isinstance(expr, Not):
        return not ref_eval(truth, expr.arg, calls)
    if isinstance(expr, And):
        return ref_eval(truth, expr.left, calls) and ref_eval(truth, expr.right, calls)
    return ref_eval(truth, expr.left, calls) or ref_eval(truth, expr.right, calls)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({name: st.booleans() for name in PREDICATES}), _TREES)
def test_eval_asks_predicates_in_the_recursive_order(truth, tree):
    """Same value, same predicates asked in the same order, short circuits
    included, as the recursive form."""
    calls, expected = [], []

    def asker(name):
        def ask(s):
            calls.append(name)
            return truth[name]
        return ask

    with mock.patch.dict(PREDICATES, {name: asker(name) for name in truth}):
        assert eval_expr(None, tree) == ref_eval(truth, tree, expected)
    assert calls == expected


def test_eval_on_fixtures(min_sl, lz):
    assert eval_expr(min_sl, parse_expr("intra_regular & !simple"))
    assert eval_expr(lz, parse_expr("left_duo & !right_duo & simple"))
    assert not eval_expr(lz, parse_expr("right_duo | !left_simple"))
    with pytest.raises(InputError):
        eval_expr(min_sl, "not an ast node")


def test_eval_and_search_reject_an_unknown_name(min_sl):
    """A hand-built `Pred` naming no predicate is the input error that
    `parse_expr` gives for it, not a KeyError."""
    message = "unknown predicate 'nope'; known: chain_of_simple, "
    with pytest.raises(InputError, match=message):
        eval_expr(min_sl, Pred("nope"))
    with pytest.raises(InputError, match=message):
        eval_expr(min_sl, Or(Pred("nope"), Pred("simple")))
    with pytest.raises(InputError, match=message):
        search(EnumSpec(2), Pred("nope"), "count")


def test_search_modes_agree():
    spec = EnumSpec(2, 1)
    expr = "intra_regular & !simple"
    hits = search(spec, expr, mode="all")
    assert search(spec, expr, mode="count") == len(hits) > 0
    first = search(spec, expr, mode="first")
    assert to_obj(first) == to_obj(hits[0])
    assert search(spec, "simple | !simple", mode="count") == 20
    with pytest.raises(InputError):
        search(spec, expr, mode="some")


def test_search_accepts_parsed_expression():
    spec = EnumSpec(2, 1)
    assert (search(spec, Pred("simple"), mode="count")
            == search(spec, "simple", mode="count"))


# the pinned and legacy intra-regularity predicates coincide over every
# single-operation slice at desk scale but separate once k = 2

def test_separation_absent_at_k1():
    for n in (1, 2, 3):
        assert search(EnumSpec(n, 1),
                      "intra_regular_legacy & !intra_regular",
                      mode="count") == 0


def test_separation_witness_at_k2():
    w = search(EnumSpec(2, 2), "intra_regular_legacy & !intra_regular",
               mode="first")
    assert w is not None
    assert to_obj(w) == {
        "gamma": ["g0", "g1"],
        "leq": [],
        "n": 2,
        "ops": {"g0": [[0, 0], [0, 0]], "g1": [[0, 0], [0, 1]]},
    }
    assert is_intra_regular_legacy(w)
    assert not is_intra_regular(w)
