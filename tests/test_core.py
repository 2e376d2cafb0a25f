"""Structure construction, subset algebra, products, axiom validation."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gpw
from gpw.core import (InputError, OwnerError, Structure, Subset, downset,
                      downset_bits, gamma_product, per_structure, per_table,
                      product_bits, subset_masks, table_cache, upset, validate,
                      word_product)
from gpw.explore import random_structure
from gpw.fixtures import left_zero, min_semilattice


def test_structure_shape_errors():
    good_t = (((0, 0), (0, 1)),)
    good_leq = ((True, True), (False, True))
    with pytest.raises(InputError):
        Structure(0, ("g0",), good_t, good_leq)
    with pytest.raises(InputError):
        Structure(2, (), (), good_leq)
    with pytest.raises(InputError):
        Structure(2, ("g0", "g0"), good_t * 2, good_leq)
    with pytest.raises(InputError):
        Structure(2, ("g0",), (((0, 0),),), good_leq)
    with pytest.raises(InputError):
        Structure(2, ("g0",), (((0, 2), (0, 1)),), good_leq)
    with pytest.raises(InputError):
        Structure(2, ("g0",), good_t, ((True, True),))
    # table count must match the label count
    with pytest.raises(InputError):
        Structure(2, ("g0", "g1"), good_t, good_leq)


def test_structure_attributes(min_sl):
    assert min_sl.n == 2
    assert min_sl.full == 0b11
    assert min_sl.gamma_names == ("g0",)
    assert min_sl.gamma_index("g0") == 0
    with pytest.raises(InputError):
        min_sl.gamma_index("nope")


def test_structure_pickle_roundtrip(min_sl):
    clone = pickle.loads(pickle.dumps(min_sl))
    assert clone.n == min_sl.n
    assert clone.tables == min_sl.tables
    assert clone.leq == min_sl.leq
    assert clone.gamma_names == min_sl.gamma_names


def test_memo_decorators_key_by_function_and_arguments(min_sl):
    """A memoised result is computed once per key, in the structure's own
    dict or in the shared table dict; None and False are results too."""
    calls = []

    @per_structure
    def own(s, a, b):
        calls.append((a, b))
        return None

    @per_table
    def shared(s, a):
        calls.append(a)
        return False

    twin = Structure._unchecked(min_sl.n, min_sl.gamma_names, min_sl.tables, min_sl.leq,
                                min_sl.down, min_sl.up, table_cache(min_sl))
    for s in (min_sl, min_sl, twin):
        assert own(s, 1, 2) is None and shared(s, 3) is False
    assert calls == [(1, 2), 3, (1, 2)]
    assert min_sl._cache[own, 1, 2] is None and table_cache(twin)[shared, 3] is False
    assert own.__name__ == "own" and own.__wrapped__(min_sl, 1, 2) is None

    with pytest.raises(TypeError):
        per_structure(lambda s, a, b, c: 0)


def test_subset_basics(min_sl):
    a = min_sl.subset([0])
    b = min_sl.subset([1])
    u = min_sl.universe()
    assert list(a) == [0] and len(a) == 1 and bool(a)
    assert not min_sl.empty()
    assert (a | b).bits == u.bits
    assert (u - a).bits == b.bits
    assert (u & a).bits == a.bits
    assert a.issubset(u) and a <= u and not u <= a
    assert 0 in a and 1 not in a


def test_subset_range_and_owner_errors(min_sl, lz):
    with pytest.raises(InputError):
        Subset(min_sl, 1 << 5)
    with pytest.raises(InputError):
        min_sl.subset([7])
    a = min_sl.subset([0])
    b = lz.subset([0])
    with pytest.raises(OwnerError):
        a | b


def test_subset_rejects_bool_masks(min_sl):
    """A bool is an int, but no mask: like every other integer input,
    Subset rejects it rather than store True as bits."""
    for mask in (True, False):
        with pytest.raises(InputError):
            Subset(min_sl, mask)
    assert Subset(min_sl, 1).bits == 1


def test_subset_value_semantics(min_sl, lz):
    """A Subset is a value: equal, with one hash, to a Subset of the same
    structure and mask and to nothing else, shown by its elements, and
    its fields cannot be assigned."""
    a, b = Subset(min_sl, 1), min_sl.subset([0])
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Subset(min_sl, 3) and a != Subset(lz, 1)
    assert a != (min_sl, 1) and (min_sl, 1) != a and a != 1
    assert repr(a) == "Subset([0])" and repr(min_sl.universe()) == "Subset([0, 1])"
    for field in ("structure", "bits"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
    assert a.structure is min_sl and a.bits == 1


def test_downset_upset(min_sl):
    top = min_sl.subset([1])
    assert downset(min_sl, top).elements() == [0, 1]
    assert upset(min_sl, min_sl.subset([0])).elements() == [0, 1]
    assert downset(min_sl, min_sl.subset([0])).elements() == [0]
    assert upset(min_sl, top).elements() == [1]


def test_gamma_product(min_sl, lz):
    u = min_sl.universe()
    assert gamma_product(min_sl, u, u).elements() == [0, 1]
    zero = min_sl.subset([0])
    assert gamma_product(min_sl, zero, u).elements() == [0]
    # left-zero: A * B = A
    a = lz.subset([1])
    assert gamma_product(lz, a, lz.universe()).elements() == [1]


def test_word_product(min_sl):
    assert word_product(min_sl, [1, "g0", 0, "g0", 1]) == 0
    assert word_product(min_sl, [1, "g0", 1]) == 1
    assert word_product(min_sl, [1]) == 1
    with pytest.raises(InputError):
        word_product(min_sl, [1, "g0"])
    with pytest.raises(InputError):
        word_product(min_sl, [1, 1, 1])
    with pytest.raises(InputError):
        word_product(min_sl, [])
    with pytest.raises(InputError):
        word_product(min_sl, [1, "bogus", 1])
    with pytest.raises(InputError):
        word_product(min_sl, [1, "g0", 9])


_NON_ASSOCIATIVE_WORD = """
import sys
from gpw.core import InputError, Structure, word_product
assert not __debug__, "expected python -O"
# x g y = 1 - x: (0 g 0) g 0 = 0 but 0 g (0 g 0) = 1
s = Structure(2, ("g0",), (((1, 1), (0, 0)),), ((True, False), (False, True)))
try:
    word_product(s, [0, "g0", 0, "g0", 0])
except InputError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_word_product_bracketing_check_holds_under_optimize():
    """The cross-check must not be an assert, which -O strips."""
    src = os.path.dirname(os.path.dirname(gpw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _NON_ASSOCIATIVE_WORD],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "not associative" in proc.stdout


def test_subset_masks_order():
    assert subset_masks(3) == (1, 2, 3)
    masks = subset_masks(7)
    assert masks[:3] == (1, 2, 4)
    assert masks[-1] == 7
    assert len(masks) == 7
    assert subset_masks(0b1011) == (1, 2, 8, 3, 9, 10, 11)
    assert subset_masks(0) == ()


def test_validate_ok_on_fixtures(min_sl, lz, rz, cz, one):
    for s in (min_sl, lz, rz, cz, one):
        rep = validate(s)
        assert rep.ok and rep.violations == [] and rep.axioms() == []


def test_validate_collects_associativity():
    t = (((1, 1), (1, 0)),)
    leq = ((True, False), (False, True))
    rep = validate(Structure(2, ("g0",), t, leq))
    assert not rep.ok
    assert "associativity" in rep.axioms()


def test_validate_collects_order_axioms():
    t = (((0, 0), (0, 0)),)
    rep = validate(Structure(2, ("g0",), t, ((False, False), (False, True))))
    assert "order-reflexive" in rep.axioms()
    rep = validate(Structure(2, ("g0",), t, ((True, True), (True, True))))
    assert "order-antisymmetric" in rep.axioms()
    t3 = (((0,) * 3,) * 3,)
    leq3 = ((True, True, False), (False, True, True), (False, False, True))
    rep = validate(Structure(3, ("g0",), t3, leq3))
    assert "order-transitive" in rep.axioms()


def test_validate_collects_compatibility():
    # 0 <= 1 but the row products reverse the order
    t = (((1, 1), (1, 0)),)
    leq = ((True, True), (False, True))
    rep = validate(Structure(2, ("g0",), t, leq))
    names = rep.axioms()
    assert "compatibility-left" in names or "compatibility-right" in names


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_structure(n, k, seed)


@settings(max_examples=60, deadline=None)
@given(structures())
def test_sampled_structures_validate(s):
    assert validate(s).ok


@settings(max_examples=60, deadline=None)
@given(structures(), st.integers(min_value=0, max_value=1 << 16))
def test_downset_is_a_closure(s, raw):
    bits = raw & s.full
    once = downset_bits(s, bits)
    assert once & bits == bits
    assert downset_bits(s, once) == once


@settings(max_examples=60, deadline=None)
@given(structures(), st.integers(min_value=0, max_value=1 << 16),
       st.integers(min_value=0, max_value=1 << 16))
def test_product_monotone(s, rawa, rawb):
    a, b = rawa & s.full, rawb & s.full
    sub = a & (a >> 1)
    assert product_bits(s, sub, b) & ~product_bits(s, a, b) == 0


def test_word_product_is_first_factor_on_left_zero(lz):
    assert word_product(lz, [1, "g0", 0, "g0", 1]) == 1
    assert word_product(lz, [0, "g0", 1]) == 0
