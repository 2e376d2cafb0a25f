"""Claim checks: frozen verdicts on the fixtures, forced disagreements,
left/right duality on the opposite structure, the agreement property on
random structures, and what relabeling, duplicating or dropping an
operation does to verdicts, predicates and ideal families."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gpw import harness
from gpw.analysis import (all_subsemigroups, is_intra_regular_legacy, is_left_duo,
                          is_left_regular, is_left_regular_legacy, is_left_simple,
                          is_right_duo, is_right_regular, is_right_regular_legacy,
                          is_right_simple)
from gpw.core import InputError, Structure, validate
from gpw.explore import EnumSpec, PREDICATES, enumerate_structures, random_structure
from gpw.gpsjson import digest
from gpw.harness import THEOREM_IDS, TheoremVerdict, check, check_all
from gpw.ideals import IdealKind, all_filters, all_ideals, principal
from gpw.relations import Partition, relation_partition


def test_theorem_id_catalogue():
    assert THEOREM_IDS == (
        "Prop2", "Lemma3", "Lemma4", "Lemma5", "Lemma6", "Thm8", "Lemma9",
        "Thm10", "Lemma11", "Lemma12", "Thm13", "Prop14", "Thm16", "Lemma17",
        "Thm18", "Cor19", "Thm21", "Stmt1to2", "StmtA", "StmtB",
    )
    assert len(THEOREM_IDS) == 20


def test_unknown_theorem_id(min_sl):
    with pytest.raises(InputError):
        check(min_sl, "Thm99")


def test_fixtures_all_equivalent(min_sl, lz, rz, cz, one):
    for s in (min_sl, lz, rz, cz, one):
        for v in check_all(s):
            assert v.equivalent, (v.theorem_id, v.condition_values)
            assert v.witness is None


def test_min_semilattice_theorem8(min_sl):
    v = check(min_sl, "Thm8")
    assert v.shape == "equivalence"
    assert v.condition_values == {str(i): True for i in range(1, 8)} | {"6e": True}
    assert v.equivalent


def test_constant_zero_theorem8(cz):
    # every face fails at once, so the equivalence still holds
    v = check(cz, "Thm8")
    assert v.condition_values == {str(i): False for i in range(1, 8)} | {"6e": False}
    assert v.equivalent


def test_partition_cap_drops_exhaustive_key(min_sl, monkeypatch):
    monkeypatch.setattr(harness, "PARTITION_CAP", 1)
    v = check(min_sl, "Thm8")
    assert "6e" not in v.condition_values
    assert set(v.condition_values) == {str(i) for i in range(1, 8)}
    assert v.equivalent


def test_left_zero_theorem21(lz):
    v = check(lz, "Thm21")
    want = {f"L{i}": True for i in range(1, 8)} | {"L6e": True}
    want |= {f"R{i}": False for i in range(1, 8)} | {"R6e": False}
    assert v.condition_values == want
    assert v.equivalent


def test_right_zero_theorem21(rz):
    v = check(rz, "Thm21")
    want = {f"L{i}": False for i in range(1, 8)} | {"L6e": False}
    want |= {f"R{i}": True for i in range(1, 8)} | {"R6e": True}
    assert v.condition_values == want
    assert v.equivalent


def test_right_zero_lemma4(rz):
    # pL is the identity while pI is one block: only the stated
    # refinement directions hold
    v = check(rz, "Lemma4")
    assert v.condition_values == {"L_refines_I": True, "I_refines_N": True}
    assert v.equivalent


def test_witness_on_broken_structure():
    # non-associative table: closed one-element products stop being ideals
    s = Structure(2, ("g0",), (((1, 1), (1, 0)),),
                  ((True, False), (False, True)))
    v = check(s, "Lemma6")
    assert not v.equivalent
    assert v.condition_values["sandwich_two_sided"] is True
    assert v.condition_values["left_closure_left_ideal"] is False
    assert v.witness == {"element": 0, "kind": "left"}


def _meet_semilattice() -> Structure:
    """0 below the incomparable 1 and 2: x*x = x, any other product 0,
    trivial order; its ideals {0, 1} and {0, 2} do not form a chain."""
    return Structure(3, ("g0",), (((0, 0, 0), (0, 1, 0), (0, 0, 2)),),
                     [[a == b for b in range(3)] for a in range(3)])


def _forced(monkeypatch, s, tid, name, value):
    """Verdict of `tid` on s with harness.<name> forced to return value."""
    monkeypatch.setattr(harness, name, lambda *args: value)
    return check(s, tid)


@pytest.mark.parametrize("tid, fixture, name, value, false_side, witness", [
    # the ideal side fails: the first offending ideal
    ("Lemma5", "min_sl", "_semiprime_bits", False, "two_sided_ideals_semiprime",
     {"ideal": [0]}),
    ("Lemma9", "min_sl", "_closed_square", 0, "ideals_idempotent", {"ideal": [0]}),
    ("Thm10", "min_sl", "_weakly_prime_bits", False, "ideals_weakly_prime",
     {"ideal": [0]}),
    ("Thm13", "min_sl", "_prime_bits", False, "ideals_prime", {"ideal": [0]}),
    # the other side fails: its first ideal, ideal pair or intra-regularity failure
    ("Lemma5", "cz", "_semiprime_bits", True, "intra_regular", {"x": 1, "gamma": "g0"}),
    ("Thm10", "cz", "_weakly_prime_bits", True, "ideals_idempotent_and_chain",
     {"ideal": [0, 1]}),
    ("Thm10", "meet", "_weakly_prime_bits", True, "ideals_idempotent_and_chain",
     {"ideals": [[0, 1], [0, 2]]}),
    ("Thm13", "meet", "_prime_bits", True, "chain_and_intra_regular",
     {"ideals": [[0, 1], [0, 2]]}),
    ("Thm13", "cz", "_prime_bits", True, "chain_and_intra_regular",
     {"x": 1, "gamma": "g0"}),
    # Lemma3: the first generator whose filter is not its sandwich set
    ("Lemma3", "cz", "intra_regular_failure", None, "filter_sandwich_formula",
     {"generator": 1, "filter": [0, 1], "sandwich": []}),
    # Thm16: the faces in the minority
    ("Thm16", "min_sl", "ideals_form_chain", False, "intra_and_chain",
     {"faces": ["intra_and_chain"]}),
    ("Thm16", "min_sl", "decompose", SimpleNamespace(is_chain_of_simple=False),
     "chain_of_simple", {"faces": ["chain_of_simple"]}),
])
def test_forced_disagreement_witness(monkeypatch, request, tid, fixture, name, value,
                                     false_side, witness):
    s = _meet_semilattice() if fixture == "meet" else request.getfixturevalue(fixture)
    assert check(s, tid).equivalent and check(s, tid).witness is None
    v = _forced(monkeypatch, s, tid, name, value)
    assert not v.equivalent
    assert [c for c, held in v.condition_values.items() if not held] == [false_side]
    assert v.witness == witness


def test_lemma9_pair_witness(monkeypatch, cz):
    """Idempotence forced true: the first pair whose meet is not the
    closed product, here {0, 1} with itself."""
    monkeypatch.setattr(harness, "_closed_square", lambda s, b: b)
    v = check(cz, "Lemma9")
    assert v.condition_values == {"ideals_idempotent": True,
                                  "intersections_are_closed_products": False}
    assert v.witness == {"ideals": [[0, 1], [0, 1]]}


def test_forced_intra_regularity_breaks_thm8_and_lemma3(monkeypatch, min_sl):
    """Face 1 and Lemma3's premise are forced false while every other
    face holds: the equivalence fails; Thm8 names face 1, the face in the
    minority, and Lemma3 the forced intra-regularity failure, as no
    generator breaks its filter formula."""
    for tid, name, value, false_side, witness in (
            ("Thm8", "is_intra_regular", False, "1", {"faces": ["1"]}),
            ("Lemma3", "intra_regular_failure", (1, "g0"), "intra_regular",
             {"x": 1, "gamma": "g0"})):
        v = _forced(monkeypatch, min_sl, tid, name, value)
        assert not v.equivalent and v.witness == witness
        assert [c for c, held in v.condition_values.items() if not held] == [false_side]


def test_forced_left_regularity_breaks_thm21_left_side_only(monkeypatch, lz):
    before = check(lz, "Thm21").condition_values
    v = _forced(monkeypatch, lz, "Thm21", "is_left_regular", False)
    assert not v.equivalent and v.witness == {"faces": ["L1"]}
    assert {c for c in before if v.condition_values[c] != before[c]} == {"L1"}


def test_odd_faces_minority_and_tie():
    """The minority's faces, sorted; on a tie, those that differ from the
    first face; none when all agree."""
    assert harness._odd_faces({"1": True, "2": False, "3": True, "6e": False,
                               "4": False, "5": False}, "1") == ["1", "3"]
    assert harness._odd_faces({"L1": True, "L3": False, "L2": False, "L4": True}, "L1") == \
        ["L2", "L3"]
    assert harness._odd_faces({"1": False, "3": True, "2": False, "4": True}, "1") == ["3", "4"]
    assert harness._odd_faces({"R1": False, "R2": False}, "R1") == []


def test_forced_prop2_conclusion(monkeypatch, lz):
    """Every element its own closed sandwich: x g y and y g x differ on
    the left zero, so the conclusion fails at its first pair; with the
    premise forced false too, the implication holds again."""
    closures = harness._element_closures(lz)
    monkeypatch.setattr(harness, "_element_closures",
                        lambda s: (*closures[:2], [1 << e for e in range(s.n)]))
    v = check(lz, "Prop2")
    assert v.condition_values == {"intra_regular": True, "pair_closures_equal": False}
    assert not v.equivalent and v.witness == {"x": 0, "y": 1, "gamma": "g0"}
    v = _forced(monkeypatch, lz, "Prop2", "is_intra_regular", False)
    assert v.condition_values == {"intra_regular": False, "pair_closures_equal": False}
    assert v.equivalent and v.witness is None


# forced-false sides: each test forces the helper behind one side of a
# claim on a fresh fixture (a per-table scan, once run, is memoised)

def test_forced_lemma4_refinement(monkeypatch, min_sl):
    """L forced to one block: it no longer refines I, which on the
    min-semilattice is the identity; I still refines N."""
    real = harness.relation_partition
    monkeypatch.setattr(harness, "relation_partition",
                        lambda s, w: Partition.single_block(s) if w == "L" else real(s, w))
    v = check(min_sl, "Lemma4")
    assert not v.equivalent
    assert v.condition_values == {"L_refines_I": False, "I_refines_N": True}
    assert v.witness == {"L_refines_I": False, "I_refines_N": True}


def test_forced_blocks_witness_thm18_and_cor19(monkeypatch, min_sl):
    """The N blocks of the min-semilattice, {0} and {1}, forced to the one
    block {0, 1} (mask 3) against the maximal simple subsemigroups {0}
    and {1} (masks 1 and 2): both claims read the same pair of mask sets
    and fail with the same witness, the masks on one side only."""
    monkeypatch.setattr(harness, "_blocks_and_maximal_simple",
                        lambda s: (frozenset({3}), frozenset({1, 2})))
    witness = {"blocks_not_maximal_simple": [3], "maximal_simple_not_blocks": [1, 2]}
    v = check(min_sl, "Thm18")
    assert v.condition_values == {"intra_regular": True, "blocks_are_maximal_simple": False,
                                  "maximal_simple_are_blocks": False}
    assert not v.equivalent and v.witness == witness
    v = check(min_sl, "Cor19")
    assert v.condition_values == {"intra_regular": True,
                                  "blocks_equal_maximal_simple": False}
    assert not v.equivalent and v.witness == witness


def test_forced_lemma12_containment(monkeypatch, lz):
    """Principal ideals forced to singletons: x g y = x lies outside the
    meet of (0] and (1], so the containment fails at the pair (0, 1)."""
    monkeypatch.setattr(harness, "_principals", lambda s, kind: [1 << e for e in range(s.n)])
    v = check(lz, "Lemma12")
    assert not v.equivalent
    assert v.condition_values == {"product_principal_contained": False,
                                  "intra_regular": True, "product_principal_equal": False}
    assert v.witness == {"x": 0, "y": 1, "gamma": "g0"}


def test_forced_lemma17(monkeypatch, min_sl):
    """No trace is a relative ideal: the first subsemigroup, {0}, and its
    first element fail."""
    monkeypatch.setattr(harness, "_absorbing_set", lambda s, kind, tb: frozenset())
    v = check(min_sl, "Lemma17")
    assert not v.equivalent
    assert v.condition_values == {"sandwich_trace_relative_ideal": False}
    assert v.witness == {"subsemigroup": [0], "element": 0}


def test_forced_stmt_a(monkeypatch, min_sl):
    """The carrier, which is prime, forced not semiprime."""
    monkeypatch.setattr(harness, "_semiprime_bits", lambda s, tb: tb != s.full)
    v = check(min_sl, "StmtA")
    assert not v.equivalent
    assert v.condition_values == {"prime_implies_semiprime": False}
    assert v.witness == {"T": [0, 1]}


def test_forced_stmt_b(monkeypatch, min_sl):
    """No ideal weakly prime: the first prime ideal, {0}, fails."""
    monkeypatch.setattr(harness, "_weakly_prime_bits", lambda s, tb: False)
    v = check(min_sl, "StmtB")
    assert not v.equivalent
    assert v.condition_values == {"prime_ideals_weakly_prime": False}
    assert v.witness == {"T": [0]}


def _opposite(s: Structure) -> Structure:
    """Every table transposed, the order kept: x g y becomes y g x."""
    tables = [[[t[b][a] for b in range(s.n)] for a in range(s.n)] for t in s.tables]
    return Structure(s.n, s.gamma_names, tables, s.leq)


_UNSIDED = ("Thm8", "Lemma3", "Thm16", "Prop2", "Lemma12")


def test_left_is_right_on_the_opposite_structure():
    """Over the exhaustive corpus, each left-handed answer on the opposite
    structure is the right-handed one on s, and the other way round; the
    claims without a side keep their conditions."""
    corpus = [s for n, k in ((1, 1), (2, 1), (3, 1), (2, 2))
              for s in enumerate_structures(EnumSpec(n, k))]
    assert len(corpus) == 1026
    for s in corpus:
        op = _opposite(s)
        assert validate(op).ok and _opposite(op).tables == s.tables
        for a, b in ((s, op), (op, s)):
            faces_a = check(a, "Thm21").condition_values
            faces_b = check(b, "Thm21").condition_values
            assert {c[1:]: v for c, v in faces_a.items() if c[0] == "L"} == \
                {c[1:]: v for c, v in faces_b.items() if c[0] == "R"}
            for left, right in ((is_left_regular, is_right_regular),
                                (is_left_regular_legacy, is_right_regular_legacy),
                                (is_left_duo, is_right_duo)):
                assert left(a) == right(b)
            assert relation_partition(a, "L").as_lists() == \
                relation_partition(b, "R").as_lists()
            assert [principal(a, x, IdealKind.LEFT).bits for x in range(s.n)] == \
                [principal(b, x, IdealKind.RIGHT).bits for x in range(s.n)]
            for t in all_subsemigroups(a):
                assert is_left_simple(a, t) == is_right_simple(b, b.subset(t))
        for tid in _UNSIDED:
            assert check(op, tid).condition_values == check(s, tid).condition_values


def test_verdict_as_dict(min_sl):
    d = check(min_sl, "Lemma4").as_dict()
    assert d == {
        "theorem": "Lemma4",
        "shape": "unconditional",
        "conditions": {"I_refines_N": True, "L_refines_I": True},
        "equivalent": True,
        "witness": None,
    }
    assert list(d["conditions"]) == sorted(d["conditions"])


def test_verdict_fields(min_sl):
    v = check(min_sl, "Prop2")
    assert isinstance(v, TheoremVerdict)
    assert v.theorem_id == "Prop2"
    assert v.shape == "implication"
    assert v.condition_values == {"intra_regular": True, "pair_closures_equal": True}


def test_check_all_order(min_sl):
    assert [v.theorem_id for v in check_all(min_sl)] == list(THEOREM_IDS)


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_structure(n, k, seed)


@settings(max_examples=25, deadline=None)
@given(structures())
def test_random_structures_all_equivalent(s):
    for v in check_all(s):
        assert v.equivalent, (v.theorem_id, v.condition_values, v.witness)


def _relabel(s: Structure, pi, rho) -> Structure:
    """Element a becomes pi[a]; operation g takes the table of rho[g]."""
    n = s.n
    inv = [0] * n
    for a, p in enumerate(pi):
        inv[p] = a
    tables = [[[pi[s.tables[r][inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
              for r in rho]
    leq = [[s.leq[inv[a]][inv[b]] for b in range(n)] for a in range(n)]
    return Structure(n, s.gamma_names, tables, leq)


def _invariants(s: Structure) -> tuple:
    return ([(v.theorem_id, v.equivalent, v.condition_values) for v in check_all(s)],
            {name: fn(s) for name, fn in PREDICATES.items()})


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relabeling_keeps_verdicts_and_predicates(data):
    """Carrier and operation relabelings are isomorphisms: every verdict,
    condition value and predicate stays; the digest moves unless the
    relabeling is an automorphism."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 2))
    s = random_structure(n, k, data.draw(st.integers(0, 10_000)))
    pi = data.draw(st.permutations(range(n)))
    rho = data.draw(st.permutations(range(k)))
    t = _relabel(s, pi, rho)
    assert validate(t).ok
    assert _invariants(t) == _invariants(s)
    automorphism = (t.tables, t.leq) == (s.tables, s.leq)
    assert (digest(t) == digest(s)) == automorphism


def _duplicated(s: Structure) -> Structure:
    """s with one more operation, a copy of its first."""
    return Structure(s.n, s.gamma_names + (f"g{len(s.tables)}",),
                     s.tables + (s.tables[0],), s.leq)


def test_duplicating_an_operation_keeps_verdicts_and_predicates():
    """A copy of an operation adds no product, ideal or constraint that the
    original does not, so every verdict, condition value and predicate
    stays, over the exhaustive corpus.  This catches per-operation loops
    that skip or conflate operations, which a relabeling cannot expose."""
    corpus = [s for n, k in ((1, 1), (2, 1), (3, 1), (2, 2))
              for s in enumerate_structures(EnumSpec(n, k))]
    assert len(corpus) == 1026
    for s in corpus:
        t = _duplicated(s)
        assert validate(t).ok and len(t.tables) == len(s.tables) + 1
        assert _invariants(t) == _invariants(s), s.tables


def _without(s: Structure, g: int) -> Structure:
    """s with its g-th operation dropped."""
    keep = [i for i in range(len(s.tables)) if i != g]
    return Structure(s.n, tuple(s.gamma_names[i] for i in keep),
                     tuple(s.tables[i] for i in keep), s.leq)


def _closed_families(s: Structure) -> dict:
    return {"subsemigroups": {t.bits for t in all_subsemigroups(s)},
            "filters": {f.bits for f in all_filters(s)},
            **{kind: {a.bits for a in all_ideals(s, kind)} for kind in IdealKind}}


def test_removing_an_operation_only_adds_ideals_and_drops_legacy_regularity():
    """Dropping an operation removes products, so every ideal, filter and
    subsemigroup stays one, and a legacy regularity form, which asks for a
    product over free operations, can only be lost; this is checked with
    each operation dropped from every n3k2 structure and from 100 sampled
    n4k2 structures.  The pinned forms quantify over fewer operations but
    build their closures from fewer products too, so either way is
    possible in principle.  On these corpora they were never lost, which
    is observed, not proved, and they were gained 936 times for
    intra_regular and 984 times each for left_regular and right_regular
    on n3k2, and 11, 12 and 11 times on the samples."""
    corpus = list(enumerate_structures(EnumSpec(3, 2)))
    assert len(corpus) == 3203
    corpus += [random_structure(4, 2, seed=f"7:{i}") for i in range(100)]
    legacy = (is_intra_regular_legacy, is_left_regular_legacy, is_right_regular_legacy)
    pinned = ("intra_regular", "left_regular", "right_regular")
    gained = dict.fromkeys(pinned, 0)
    for s in corpus:
        families = _closed_families(s)
        for g in range(len(s.tables)):
            t = _without(s, g)
            assert validate(t).ok
            for name, members in _closed_families(t).items():
                assert families[name] <= members, (name, s.tables, g)
            for pred in legacy:
                assert pred(s) or not pred(t), (pred.__name__, s.tables, g)
            for name in pinned:
                assert PREDICATES[name](t) or not PREDICATES[name](s), (name, s.tables, g)
                gained[name] += PREDICATES[name](t) and not PREDICATES[name](s)
    assert gained == {"intra_regular": 936 + 11, "left_regular": 984 + 12,
                      "right_regular": 984 + 11}
