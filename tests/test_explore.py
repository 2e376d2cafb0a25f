"""Enumeration counts, sampling determinism, the expression language,
and the pinned-versus-legacy separation facts."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import gpw
from gpw.analysis import is_intra_regular, is_intra_regular_legacy
from gpw.core import InputError, validate
from gpw.explore import (And, EnumSpec, Not, Or, Pred, PREDICATES,
                         SamplingBudgetError, enumerate_structures, eval_expr,
                         parse_expr, partial_orders, random_structure, search)
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


def test_partial_order_counts():
    # OEIS A001035 (labeled posets); total orders are the n! permutations
    assert [len(partial_orders(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]
    assert [len(partial_orders(n, "total")) for n in (1, 2, 3, 4)] == [1, 2, 6, 24]
    assert [len(partial_orders(n, "trivial")) for n in (1, 2, 3, 4)] == [1, 1, 1, 1]
    with pytest.raises(InputError):
        partial_orders(2, "chaotic")


def test_partial_order_count_n5():
    assert len(partial_orders(5)) == 4231  # OEIS A001035(5)


def test_structure_counts():
    assert _count(EnumSpec(2, 1)) == 20
    assert _count(EnumSpec(3, 1)) == 971
    assert _count(EnumSpec(2, 2)) == 34
    assert _count(EnumSpec(3, 2)) == 3203


def test_structure_counts_iso():
    assert _count(EnumSpec(2, 1, dedup="iso")) == 11
    assert _count(EnumSpec(3, 1, dedup="iso")) == 173
    assert _count(EnumSpec(2, 2, dedup="iso")) == 15
    assert _count(EnumSpec(4, 1, dedup="iso")) == 4753


# external pins: OEIS A027851 counts semigroups up to isomorphism, A023814
# labeled semigroups; with one operation and the trivial order the walk
# enumerates exactly those

def test_semigroups_up_to_isomorphism_a027851():
    assert [_count(EnumSpec(n, 1, orders="trivial", dedup="iso"))
            for n in (1, 2, 3, 4)] == [1, 5, 24, 188]


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


def test_enum_spec_rejects_booleans():
    """A bool is an int to isinstance; the spec must not read True as 1."""
    for bad in (dict(n=True), dict(n=2, k=True), dict(n=True, k=True)):
        with pytest.raises(InputError, match="must be an integer"):
            EnumSpec(**bad)


# sampling

def test_random_structure_deterministic():
    a = random_structure(4, 2, seed=123)
    b = random_structure(4, 2, seed=123)
    assert to_obj(a) == to_obj(b)
    assert validate(a).ok


def test_random_structure_seed_env(monkeypatch):
    monkeypatch.setenv("GPW_SEED", "7")
    assert to_obj(random_structure(3, 1)) == to_obj(random_structure(3, 1, seed=7))
    monkeypatch.delenv("GPW_SEED")
    assert to_obj(random_structure(3, 1)) == to_obj(random_structure(3, 1, seed=0))


# SHA-256 of dumps(random_structure(n, k, seed)) for seeds 0..9, recorded
# before the sampler drew its shuffles itself; they hold on every CPython
# whose Random.shuffle makes the draws that `explore._shuffler` replays
SAMPLED_DIGESTS = {
    (3, 1): (
        "6eee2cf71e40b72f7fafe28ec87c418f699f90316a69984ef743244a185c274f",
        "f799c477830d791a2ce3a50a06cc8c251a9f19fd5d31aae48816ddfb980bc2e2",
        "650aec7474b27b5541354e0fed645930fadc4ab42ff2ce690dd62e033a2159a0",
        "f0bd85e76389a0c61c4e4f92606b00b167daeb384e69c8d28d36a49a85e4c04c",
        "a422640b98d09a90b3fcbd5cf22d83d838774e7f25a1826bb412afb0cf0e02c3",
        "640a29f6cd7d0178efc85af66564e2d485127a2490df454c0b940fd6e93392b3",
        "51072d65d31418ba1fbee2d956aed90c6d5952e00f4665cd772cc1a8188eeab7",
        "4f703da4a7f63d04b9c0f1dff6e24febaf3731efe8e56a7be6571a517375ce55",
        "3741359e32d904810a3eb19c1fcd19069b590399789f8d19e4ea6ce5ecde06e3",
        "75e52d9e4706874a1060b278d76320c380d9121d6b6de379b9ec014fb0b79f28",
    ),
    (4, 2): (
        "69891805a28816b315ee64577463f369d7799f10d77f83f0883ee490abaa0630",
        "6c1892e2c1fab49800f198fb55fd7b9ba49f0195d01132d0e6c01dabf6917f9b",
        "1eaf6a8c9c0d525e5dacaf1d770e1a0aeb03e30e4e46802a5e9b7bf67a3bb9ab",
        "6669a27b8525cf1708d91444efd8d8e56eb14456cae6b95eef69462ad0401591",
        "7c337081a80584075f0d9f47bbb8b11fa0b61e34f6f44cbe2b43cef697d8d7ae",
        "99c66f5c5179ff80444b870f0d4c935e3a4f1423d3ed063b6528d5d7c2c26d7c",
        "b1a77a19a8be4bda5e84c9c40bee5824485a5ada3a0b8a6ef153f8367f5d6081",
        "2f7c3e2abebdcdf105e02ed5c8875085d60df785a10bc4ee09402b15e338d292",
        "2b59becc28c3a80d2615be264ece8b0594cab8ee57ca6a2d4cb7fd83bad494ac",
        "a4ae666dc370aefb23ab5a20c1766b8aa246c64b89fc748cbd7b1acc70257109",
    ),
    # recorded before the fill's liveness plan
    (5, 1): (
        "fff435280bee2b3b84b6286cccecb2c77599058ff827785059828c80e02bb374",
        "6caa91c9c43782a775c052eb2ff90fbf370b2ef434ee6185781b7afa40251d6d",
        "0482cd600892e1f7a907cda8581cc181e7b79efbeefdb18b8c68c171e9ef654b",
        "d2ee83eb885e13e2f7271a3a595fb06f8e0edc734e422de08031d801b186732f",
        "eee97e10af5317c4a3466fbfe248aa4ef465601f32861f59c7252523abd7d14a",
        "44414d4a4fca506746c2cf1a9539d12466445aecd0f70334d55c40581a6d9b1a",
        "229b13d8f4a04e97b143ab24fc7e78a6fb55f8140917f04aa834e77411fb2c68",
        "1c598bafd6c82ae7eb03c18c687fe3407107ac824eba69cc43dc96b9f010d1ed",
        "9b4c161ae2da86d77aab98a6c1aef5e5e2138d378afbeb950e7bf96e1a3b489f",
        "815b3e40994a89ffbe22e136a86a2d6cc8d5d769dd23bedaa23f85bb93e39981",
    ),
    (3, 3): (
        "f62e482ad376f80c0416b2f9a3048a3e489fd34df636a19df7c1493465000084",
        "0b087a6f833b7c1944d14507b97332127d75ba5bddd8a058c374aab6dc2bfed4",
        "39bc092b81789cc0094294ebfd8d926a0821f01acf91326c4f1c1e37971c43cf",
        "0960d2bed72aeeca92ce25ef7dd8fa824971696d1645b08b16ee1d635effa178",
        "414b66aefb8abe17d18215756e404cb8e1ae5cbfa77439b2402bdceeb332f430",
        "8114e97f25f6ea3dab6944925a338474ebc59a9c9a5e1dcda4200fff8fa34198",
        "c2a735e41010b4cea689273d05598d8e04ab4f896a5d2939d6a386b2f33c046d",
        "aeb66a00d9d4c93ed0090b7810e5f5f20b3c6040c0ab38ba1fa02a3da6b1809a",
        "30cf3b7b0828caea7408350d6b590d4f697f4bb5df34aaf02023064ff8889ee3",
        "343f224cec2ff4e5570df9598921dde443e57dc8188da0d2142bf5e7c3563497",
    ),
}


def test_random_structure_digests_pinned():
    for (n, k), expected in SAMPLED_DIGESTS.items():
        got = tuple(hashlib.sha256(dumps(random_structure(n, k, seed)).encode()).hexdigest()
                    for seed in range(10))
        assert got == expected, (n, k)


def test_random_structure_seeds_spread():
    objs = {digest(random_structure(3, 2, seed=i)) for i in range(8)}
    assert len(objs) > 1


def test_sampling_budget_error():
    with pytest.raises(SamplingBudgetError):
        random_structure(3, 2, seed=0, max_nodes=0, attempts=1)


def test_random_structure_input_errors():
    with pytest.raises(InputError):
        random_structure(0, 1)
    with pytest.raises(InputError):
        random_structure(2, 0)


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
                "simple &", "& simple", "simple @ left_duo", "!(simple"):
        with pytest.raises(InputError):
            parse_expr(bad)


def test_eval_on_fixtures(min_sl, lz):
    assert eval_expr(min_sl, parse_expr("intra_regular & !simple"))
    assert eval_expr(lz, parse_expr("left_duo & !right_duo & simple"))
    assert not eval_expr(lz, parse_expr("right_duo | !left_simple"))
    with pytest.raises(InputError):
        eval_expr(min_sl, "not an ast node")


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
