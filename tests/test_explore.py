"""Enumeration counts, sampling determinism, the expression language,
and the pinned-versus-legacy separation facts."""

from __future__ import annotations

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
from gpw.gpsjson import digest, to_obj


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
    assert [len(partial_orders(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]
    assert [len(partial_orders(n, "total")) for n in (1, 2, 3)] == [1, 2, 6]
    assert len(partial_orders(3, "trivial")) == 1
    with pytest.raises(InputError):
        partial_orders(2, "chaotic")


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
