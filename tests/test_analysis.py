"""Regularity predicates, relative ideals, simplicity, decomposition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gpw.analysis import (all_subsemigroups, decompose, intra_regular_failure,
                          intra_regular_legacy_failure, is_intra_regular,
                          is_intra_regular_legacy, is_left_duo,
                          is_left_regular, is_left_regular_legacy,
                          is_left_simple, is_relative_ideal, is_right_duo,
                          is_right_regular, is_right_regular_legacy,
                          is_right_simple, is_simple, is_subsemigroup,
                          maximal_simple_subsemigroups, relative_ideals)
from gpw.core import InputError, PreconditionError, Structure
from gpw.explore import random_structure
from gpw.ideals import IdealKind
from gpw.relations import Partition


def test_regularity_on_fixtures(min_sl, lz, rz, cz):
    for s in (min_sl, lz, rz):
        assert is_intra_regular(s)
        assert is_intra_regular_legacy(s)
        assert intra_regular_failure(s) is None
    assert not is_intra_regular(cz)
    assert not is_intra_regular_legacy(cz)
    assert intra_regular_failure(cz) == (1, "g0")
    assert intra_regular_legacy_failure(cz) == (1,)

    assert is_left_regular(min_sl) and is_right_regular(min_sl)
    assert is_left_regular(lz) and is_right_regular(lz)
    assert is_left_regular(rz) and is_right_regular(rz)
    assert not is_left_regular(cz) and not is_right_regular(cz)
    assert is_left_regular_legacy(min_sl) and is_right_regular_legacy(min_sl)
    assert not is_left_regular_legacy(cz) and not is_right_regular_legacy(cz)


def test_duo_on_fixtures(min_sl, lz, rz, cz):
    assert is_left_duo(min_sl) and is_right_duo(min_sl)
    assert is_left_duo(lz) and not is_right_duo(lz)
    assert not is_left_duo(rz) and is_right_duo(rz)
    assert is_left_duo(cz) and is_right_duo(cz)


def test_subsemigroups(min_sl, lz, cz):
    as_lists = lambda subs: [t.elements() for t in subs]
    assert as_lists(all_subsemigroups(min_sl)) == [[0], [1], [0, 1]]
    assert as_lists(all_subsemigroups(lz)) == [[0], [1], [0, 1]]
    assert as_lists(all_subsemigroups(cz)) == [[0], [0, 1]]
    assert is_subsemigroup(min_sl, min_sl.subset([1]))
    assert not is_subsemigroup(cz, cz.subset([1]))


def test_relative_ideals_left_zero(lz):
    m = lz.universe()
    assert [a.elements() for a in relative_ideals(lz, m, IdealKind.LEFT)] == [[0, 1]]
    assert ([a.elements() for a in relative_ideals(lz, m, IdealKind.RIGHT)]
            == [[0], [1], [0, 1]])
    assert ([a.elements() for a in relative_ideals(lz, m, IdealKind.TWO_SIDED)]
            == [[0, 1]])
    assert is_relative_ideal(lz, m, lz.subset([0]), IdealKind.RIGHT)
    assert not is_relative_ideal(lz, m, lz.subset([0]), IdealKind.LEFT)


def test_relative_ideal_respects_trace_order():
    # 0 <= 1 ambient; inside T = {1} the downward closure cannot escape T
    s = Structure(2, ("g0",), (((0, 0), (0, 1)),), ((True, True), (False, True)))
    t = s.subset([1])
    assert is_relative_ideal(s, t, s.subset([1]))
    # inside T = {0, 1} the subset {1} is not downward closed
    assert not is_relative_ideal(s, s.universe(), s.subset([1]))


def test_relative_requires_subsemigroup(cz):
    with pytest.raises(PreconditionError):
        relative_ideals(cz, cz.subset([1]))
    with pytest.raises(PreconditionError):
        is_simple(cz, cz.subset([1]))


def test_simplicity(min_sl, lz, rz, cz):
    assert not is_simple(min_sl, min_sl.universe())
    assert is_simple(min_sl, min_sl.subset([0]))
    assert is_simple(min_sl, min_sl.subset([1]))
    assert is_simple(lz, lz.universe())
    assert is_left_simple(lz, lz.universe())
    assert not is_right_simple(lz, lz.universe())
    assert is_simple(rz, rz.universe())
    assert not is_left_simple(rz, rz.universe())
    assert is_right_simple(rz, rz.universe())
    assert not is_simple(cz, cz.universe())


def test_maximal_simple(min_sl, lz, cz):
    as_lists = lambda subs: [t.elements() for t in subs]
    assert as_lists(maximal_simple_subsemigroups(min_sl)) == [[0], [1]]
    assert as_lists(maximal_simple_subsemigroups(lz)) == [[0, 1]]
    assert as_lists(maximal_simple_subsemigroups(cz)) == [[0]]


def test_decompose_min_semilattice(min_sl):
    dec = decompose(min_sl)
    assert dec.partition.as_lists() == [[0], [1]]
    assert dec.is_semilattice_congruence
    assert dec.is_semilattice_of_simple
    assert dec.is_chain_of_simple
    assert dec.chain_witness_failure is None
    assert all(v.is_subsemigroup and v.is_simple for v in dec.class_verdicts)
    # {0} absorbs products, so its block sits below {1}
    assert dec.quotient_chain() == [0, 1]


def test_decompose_left_zero(lz):
    dec = decompose(lz)
    assert dec.partition.as_lists() == [[0, 1]]
    assert dec.is_semilattice_of_simple
    assert dec.is_chain_of_simple
    assert dec.class_verdicts[0].is_left_simple


def test_decompose_constant_zero(cz):
    dec = decompose(cz)
    assert dec.partition.as_lists() == [[0, 1]]
    assert dec.is_semilattice_congruence
    assert not dec.is_semilattice_of_simple
    assert not dec.is_chain_of_simple
    assert dec.chain_witness_failure is None
    assert dec.quotient_chain() == [0]


def test_decompose_with_explicit_sigma(lz, min_sl):
    dec = decompose(lz, sigma=Partition.single_block(lz))
    assert dec.is_semilattice_of_simple
    dec = decompose(min_sl, sigma=Partition.single_block(min_sl))
    assert dec.is_semilattice_congruence
    assert not dec.is_semilattice_of_simple  # the whole carrier is not simple
    with pytest.raises(PreconditionError):
        decompose(min_sl, sigma=Partition.identity(lz))
    with pytest.raises(InputError):
        decompose(min_sl, sigma="N")


def test_chain_witness():
    # semilattice 2x2 grid-like order with meet table on a 3-chain is a
    # chain; build a genuine non-chain: the 4-element meet-semilattice
    # 0 below 1,2 below 3 where 1 g 2 = 0 lands outside both factor blocks
    t = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    leq = [[a == b for b in range(4)] for a in range(4)]
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
        leq[a][b] = True
    s = Structure(4, ("g0",), (tuple(map(tuple, t)),),
                  tuple(map(tuple, leq)))
    dec = decompose(s)
    assert dec.partition.as_lists() == [[0], [1], [2], [3]]
    assert dec.is_semilattice_of_simple
    assert not dec.is_chain_of_simple
    assert dec.chain_witness_failure == (1, 2, "g0")
    assert dec.quotient_chain() is None


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_structure(n, k, seed)


@settings(max_examples=50, deadline=None)
@given(structures())
def test_pinned_implies_legacy(s):
    if is_intra_regular(s):
        assert is_intra_regular_legacy(s)
    if is_left_regular(s):
        assert is_left_regular_legacy(s)
    if is_right_regular(s):
        assert is_right_regular_legacy(s)


@settings(max_examples=50, deadline=None)
@given(structures())
def test_simple_iff_left_and_right_simple_whole_carrier(s):
    """No proper two-sided relative ideal is implied by either one-sided
    simplicity; check only the implication that holds."""
    m = s.universe()
    if is_left_simple(s, m):
        assert is_simple(s, m)
    if is_right_simple(s, m):
        assert is_simple(s, m)
