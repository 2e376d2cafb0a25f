"""Ideals, filters, principal generation against brute-force oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gpw.analysis import is_relative_ideal, relative_ideals
from gpw.core import (InputError, PreconditionError, Subset, downset_bits, product_bits,
                      subset_masks)
from gpw.explore import EnumSpec, enumerate_structures, random_structure
from gpw.ideals import (IdealKind, all_filters, all_ideals, filter_gen,
                        ideals_form_chain, is_filter, is_ideal,
                        is_idempotent_subset, is_prime, is_semiprime,
                        is_weakly_prime, principal)


def brute_is_ideal(s, bits, kind):
    """Definition transcribed directly, no shortcuts."""
    if bits == 0:
        return False
    elems = [e for e in range(s.n) if (bits >> e) & 1]
    for a in range(s.n):
        for b in elems:
            if s.leq[a][b] and not (bits >> a) & 1:
                return False
    for t in s.tables:
        for m in range(s.n):
            for a in elems:
                if kind in (IdealKind.LEFT, IdealKind.TWO_SIDED):
                    if not (bits >> t[m][a]) & 1:
                        return False
                if kind in (IdealKind.RIGHT, IdealKind.TWO_SIDED):
                    if not (bits >> t[a][m]) & 1:
                        return False
    return True


def brute_is_filter(s, bits):
    if bits == 0:
        return False
    elems = [e for e in range(s.n) if (bits >> e) & 1]
    for t in s.tables:
        for a in elems:
            for b in elems:
                if not (bits >> t[a][b]) & 1:
                    return False
        for a in range(s.n):
            for b in range(s.n):
                if (bits >> t[a][b]) & 1:
                    if not (bits >> a) & 1 or not (bits >> b) & 1:
                        return False
    for a in elems:
        for b in range(s.n):
            if s.leq[a][b] and not (bits >> b) & 1:
                return False
    return True


def small_corpus():
    for spec in (EnumSpec(1, 1), EnumSpec(2, 1), EnumSpec(2, 2)):
        yield from enumerate_structures(spec)


def test_all_ideals_matches_brute_force():
    for s in small_corpus():
        for kind in IdealKind:
            got = {a.bits for a in all_ideals(s, kind)}
            want = {m for m in subset_masks(s.full) if brute_is_ideal(s, m, kind)}
            assert got == want


def test_all_filters_matches_brute_force():
    for s in small_corpus():
        got = {f.bits for f in all_filters(s)}
        want = {m for m in subset_masks(s.full) if brute_is_filter(s, m)}
        assert got == want


def test_filter_gen_is_least_filter_containing():
    for s in small_corpus():
        filters = [f.bits for f in all_filters(s)]
        for x in range(s.n):
            containing = [f for f in filters if (f >> x) & 1]
            assert containing, "the universe is always a filter"
            inter = containing[0]
            for f in containing[1:]:
                inter &= f
            assert filter_gen(s, x).bits == inter


def test_principal_is_least_ideal_containing():
    for s in small_corpus():
        for kind in IdealKind:
            ideals = [a.bits for a in all_ideals(s, kind)]
            for x in range(s.n):
                containing = [a for a in ideals if (a >> x) & 1]
                least = min(containing, key=lambda m: m.bit_count())
                assert all(least & a == least for a in containing)
                assert principal(s, x, kind).bits == least


def test_fixture_ideals(min_sl, lz, rz, cz):
    as_lists = lambda subs: [a.elements() for a in subs]
    assert as_lists(all_ideals(min_sl, IdealKind.TWO_SIDED)) == [[0], [0, 1]]
    assert as_lists(all_ideals(lz, IdealKind.LEFT)) == [[0, 1]]
    assert as_lists(all_ideals(lz, IdealKind.RIGHT)) == [[0], [1], [0, 1]]
    assert as_lists(all_ideals(rz, IdealKind.LEFT)) == [[0], [1], [0, 1]]
    assert as_lists(all_ideals(rz, IdealKind.RIGHT)) == [[0, 1]]
    assert as_lists(all_ideals(cz, IdealKind.TWO_SIDED)) == [[0], [0, 1]]


def test_fixture_filters(min_sl, lz, rz, cz):
    assert [f.elements() for f in all_filters(min_sl)] == [[1], [0, 1]]
    for s in (lz, rz, cz):
        assert [f.elements() for f in all_filters(s)] == [[0, 1]]


def test_filter_gen_values(min_sl, cz):
    assert filter_gen(min_sl, 0).elements() == [0, 1]
    assert filter_gen(min_sl, 1).elements() == [1]
    assert filter_gen(cz, 0).elements() == [0, 1]


def test_is_ideal_is_filter_predicates(min_sl):
    zero = min_sl.subset([0])
    top = min_sl.subset([1])
    assert is_ideal(min_sl, zero)
    assert not is_ideal(min_sl, top)
    assert is_filter(min_sl, top)
    assert not is_filter(min_sl, zero)
    assert not is_ideal(min_sl, min_sl.empty())
    assert not is_filter(min_sl, min_sl.empty())


def test_principal_ideals_min_semilattice(min_sl):
    assert principal(min_sl, 0, IdealKind.TWO_SIDED).elements() == [0]
    assert principal(min_sl, 1, IdealKind.TWO_SIDED).elements() == [0, 1]
    assert principal(min_sl, 1, IdealKind.LEFT).elements() == [0, 1]


def test_prime_semiprime(min_sl, cz):
    for a in all_ideals(min_sl, IdealKind.TWO_SIDED):
        assert is_prime(min_sl, a)
    t = cz.subset([0])
    assert not is_semiprime(cz, t)
    # the failing square: 1*1 = 0 lands in T but 1 does not
    assert cz.tables[0][1][1] == 0
    assert not is_prime(cz, t)
    assert is_semiprime(cz, cz.universe())


def test_weakly_prime_requires_two_sided_ideal(min_sl):
    with pytest.raises(PreconditionError):
        is_weakly_prime(min_sl, min_sl.subset([1]))
    assert is_weakly_prime(min_sl, min_sl.subset([0]))
    assert is_weakly_prime(min_sl, min_sl.universe())


def test_idempotent_subset(min_sl, cz):
    assert is_idempotent_subset(min_sl, min_sl.subset([0]))
    assert is_idempotent_subset(min_sl, min_sl.universe())
    assert is_idempotent_subset(cz, cz.subset([0]))
    assert not is_idempotent_subset(cz, cz.universe())


def test_ideals_form_chain(min_sl, lz):
    assert ideals_form_chain(min_sl, IdealKind.TWO_SIDED)
    assert ideals_form_chain(min_sl, IdealKind.LEFT)
    assert not ideals_form_chain(lz, IdealKind.RIGHT)
    assert ideals_form_chain(lz, IdealKind.LEFT)


def test_kind_must_be_an_ideal_kind(rz, cz):
    """A kind that is not an `IdealKind` member is an input error: the
    private paths compare kinds by identity, so on right_zero they would
    read "left" as another kind and make the principal ideal of 0 {0, 1}."""
    calls = (lambda kind: principal(rz, 0, kind),
             lambda kind: is_ideal(rz, rz.subset([0]), kind),
             lambda kind: all_ideals(rz, kind),
             lambda kind: ideals_form_chain(rz, kind),
             lambda kind: is_relative_ideal(rz, rz.universe(), rz.subset([0]), kind),
             lambda kind: relative_ideals(rz, rz.universe(), kind))
    for call in calls:
        call(IdealKind.LEFT)
        for kind in ("left", None):
            with pytest.raises(InputError):
                call(kind)
    assert principal(rz, 0, IdealKind.LEFT).elements() == [0]
    assert not ideals_form_chain(rz, IdealKind.LEFT)
    # the kind is checked before the subsemigroup precondition
    with pytest.raises(InputError):
        relative_ideals(cz, cz.subset([1]), "left")
    with pytest.raises(InputError):
        is_relative_ideal(cz, cz.subset([1]), cz.subset([1]), "left")


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_structure(n, k, seed)


@settings(max_examples=50, deadline=None)
@given(structures(), st.integers(min_value=0, max_value=1 << 16),
       st.integers(min_value=0, max_value=1 << 16))
def test_closed_product_law(s, rawa, rawb):
    """(A] * (B] is inside (A*B], and closing both sides makes them equal."""
    a, b = rawa & s.full, rawb & s.full
    lhs = product_bits(s, downset_bits(s, a), downset_bits(s, b))
    rhs = downset_bits(s, product_bits(s, a, b))
    assert lhs & ~rhs == 0
    assert downset_bits(s, lhs) == rhs


@settings(max_examples=50, deadline=None)
@given(structures())
def test_filter_gen_is_a_filter_and_least(s):
    filters = [f.bits for f in all_filters(s)]
    for x in range(s.n):
        got = filter_gen(s, x)
        assert is_filter(s, got)
        assert (got.bits >> x) & 1
        for f in filters:
            if (f >> x) & 1:
                assert got.bits & ~f == 0


@settings(max_examples=50, deadline=None)
@given(structures())
def test_principal_is_an_ideal(s):
    for kind in IdealKind:
        for x in range(s.n):
            p = principal(s, x, kind)
            assert is_ideal(s, p, kind)
            assert x in p
