"""The campaign's per-table masks against the per-structure checks.

`tablewise.forms` gives, per table, one mask per condition of every
check, per agreement and per predicate, with a bit per order of the
mode's list; the per-structure path of `harness` and `analysis` is the
oracle, read structure by structure at the same bit.
"""

from __future__ import annotations

import json
from itertools import islice

import pytest

from gpw import analysis, harness, tablewise
from gpw.cli import main
from gpw.explore import EnumSpec, _walk, enumerate_structures, partial_orders
from gpw.gpsjson import digest, to_obj


def _mismatches(structures, mode: str) -> list:
    """Per structure, each check whose condition masks or agreement, and
    each predicate whose mask, read at the structure's bit, differ from
    its per-structure value."""
    bad = []
    for s in structures:
        forms = tablewise.forms(s, mode)
        p = partial_orders(s.n, mode).index(s.leq)
        for tid in harness.THEOREM_IDS:
            verdict = harness.check(s, tid)
            conds, agree = forms.check(tid)
            got = {key: mask >> p & 1 == 1 for key, mask in conds.items()}
            if (got, agree >> p & 1 == 1) != (verdict.condition_values, verdict.equivalent):
                bad.append((digest(s), tid))
        got = {name: mask >> p & 1 == 1 for name, mask in forms.predicates}
        want = {name: bool(fn(s)) for name, fn in analysis.PREDICATES.items()}
        bad += [(digest(s), name) for name in want if got[name] != want[name]]
    return bad


def _least_tables(spec: EnumSpec, tables: int) -> list:
    """The structures of the first `tables` tables of an iso walk, each a
    least table of its orbit."""
    return list(enumerate_structures(spec, sum(
        len(list(items)) for *_, items in islice(_walk(spec)[1], tables))))


def test_every_check_and_predicate_has_a_form():
    assert tuple(tablewise.CHECK_FORMS) == harness.THEOREM_IDS
    assert sorted(tablewise.PREDICATE_FORMS) == sorted(analysis.PREDICATES)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_forms_match_every_iso_structure(n, k):
    """Every iso structure of n <= 4 with k = 1, and of n3k2, n3k3 and
    n4k2 (16,945 structures)."""
    spec = EnumSpec(n, k, dedup="iso")
    assert _mismatches(enumerate_structures(spec), "all") == []


def test_forms_match_n5k1_least_tables():
    """The first five least tables of n5k1 with all orders, 1,859
    structures, where `PARTITION_CAP` = 5 still keeps the exhaustive keys."""
    structures = _least_tables(EnumSpec(5, 1, dedup="iso"), 5)
    assert len(structures) == 1859
    assert _mismatches(structures, "all") == []


@pytest.mark.parametrize("mode, count", [("trivial", 6), ("total", 64)])
def test_forms_match_n6k1_least_tables(mode, count):
    """The first six least tables of n6k1 over the trivial and the total
    orders' lists, where `PARTITION_CAP` drops the exhaustive keys."""
    structures = _least_tables(EnumSpec(6, 1, mode, "iso"), 6)
    assert len(structures) == count
    assert "6e" not in harness.check(structures[0], "Thm8").condition_values
    assert _mismatches(structures, mode) == []


def test_forms_read_the_partition_cap_when_built(monkeypatch):
    """With `PARTITION_CAP` at 1 the forms drop the exhaustive keys above
    n = 1, as the checks do."""
    monkeypatch.setattr(harness, "PARTITION_CAP", 1)
    structures = list(enumerate_structures(EnumSpec(3, 2, dedup="iso")))
    assert "L6e" not in tablewise.forms(structures[-1], "all").check("Thm21")[0]
    assert _mismatches(structures, "all") == []


def test_campaign_raises_when_a_form_fails_a_passing_structure(monkeypatch):
    """A form whose agreement bit is clear where the structure's own check
    passes stops the campaign with an error naming the check and the
    structure's digest."""
    first = next(enumerate_structures(EnumSpec(2, 1)))
    real = tablewise.CHECK_FORMS["Thm8"]
    monkeypatch.setitem(tablewise.CHECK_FORMS, "Thm8", lambda f: (real(f)[0], 0))
    with pytest.raises(RuntimeError, match=f"Thm8: .*{digest(first)}"):
        main(["campaign", "--n", "2", "--k", "1"])


def test_campaign_failure_record_is_the_structures_own(capsys, monkeypatch):
    """When the form and the structure's own check both fail, the report's
    failure record is the one the per-structure verdict makes."""
    structures = list(enumerate_structures(EnumSpec(2, 1)))
    target = structures[3]
    real_form, real_check = tablewise.CHECK_FORMS["Thm21"], harness._CHECKS["Thm21"]

    def form(f):
        conds, agree = real_form(f)
        if f.s.tables == target.tables:
            agree &= ~(1 << partial_orders(2).index(target.leq))
        return conds, agree

    def check(s):
        verdict = real_check(s)
        if digest(s) == digest(target):
            return verdict._replace(equivalent=False, witness={"own": 1})
        return verdict

    monkeypatch.setitem(tablewise.CHECK_FORMS, "Thm21", form)
    monkeypatch.setitem(harness._CHECKS, "Thm21", check)
    assert main(["campaign", "--n", "2", "--k", "1", "--theorems", "Thm21,Lemma4"]) == 1
    failure = json.loads(capsys.readouterr().out)["sections"]["first_failure"]
    assert failure == {"structure": to_obj(target), "digest": digest(target),
                       "verdicts": [check(target).as_dict()]}
