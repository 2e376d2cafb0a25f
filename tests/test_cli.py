"""Command line surface, driven through main(argv) with captured output."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from itertools import permutations

import pytest

import gpw
from gpw import cli, explore, harness, tablewise
from gpw.cli import main
from gpw.core import Structure
from gpw.explore import EnumSpec, enumerate_structures, random_structure
from gpw.gpsjson import digest, dump, to_obj
from test_harness import _relabel


@pytest.fixture
def min_sl_path(min_sl, tmp_path):
    p = tmp_path / "min_sl.json"
    dump(min_sl, str(p))
    return str(p)


@pytest.fixture
def bad_assoc_path(tmp_path):
    # (0g0)g1 = 0 but 0g(0g1) = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "n": 2, "gamma": ["g0"], "ops": {"g0": [[1, 1], [1, 0]]}, "leq": [],
    }))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _report(stdout: str) -> dict:
    rep = json.loads(stdout)
    assert rep["report_version"] == "report_v1"
    return rep


# validate

def test_validate_ok(capsys, min_sl, min_sl_path):
    code, out, _ = _run(capsys, ["validate", min_sl_path])
    assert code == 0
    rep = _report(out)
    assert rep["command"] == "validate"
    assert rep["structure_digest"] == digest(min_sl)
    assert rep["sections"]["valid"] is True
    assert rep["sections"]["violated_axioms"] == []
    assert rep["sections"]["violation_count"] == 0


def test_validate_broken_table(capsys, bad_assoc_path):
    code, out, _ = _run(capsys, ["validate", bad_assoc_path])
    assert code == 2
    rep = _report(out)
    assert rep["sections"]["valid"] is False
    assert "associativity" in rep["sections"]["violated_axioms"]
    assert rep["sections"]["violation_count"] > 0
    assert rep["sections"]["violations"]


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_validate_malformed_json(capsys, tmp_path):
    p = tmp_path / "mangled.json"
    p.write_text("{not json")
    code, _, err = _run(capsys, ["validate", str(p)])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("command", ["validate", "analyze", "check"])
def test_unreadable_structure_file_is_an_input_error(capsys, tmp_path, command, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    code, out, err = _run(capsys, [command, str(p)])
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")


# analyze

def test_analyze_report(capsys, min_sl, min_sl_path):
    code, out, _ = _run(capsys, ["analyze", min_sl_path])
    assert code == 0
    sec = _report(out)["sections"]
    assert sec["n"] == 2
    assert sec["gamma"] == ["g0"]
    assert len(sec["predicates"]) == 14
    assert sec["predicates"]["intra_regular"] is True
    assert sec["predicates"]["simple"] is False
    assert sec["predicate_witnesses"]["intra_regular"] is None
    assert sec["elements"]["0"]["filter"] == [0, 1]
    assert sec["elements"]["1"]["filter"] == [1]
    assert sec["elements"]["1"]["principal_two_sided"] == [0, 1]
    assert sec["ideals"]["two_sided"] == [[0], [0, 1]]
    assert sec["filters"] == [[1], [0, 1]]
    assert sec["partitions"]["N"] == [[0], [1]]
    assert sec["partitions"]["I"] == [[0], [1]]
    assert sec["decomposition"]["is_semilattice_of_simple"] is True
    assert sec["decomposition"]["quotient_chain"] == [[0], [1]]
    assert sec["maximal_simple_subsemigroups"] == [[0], [1]]


def test_analyze_rejects_invalid(capsys, bad_assoc_path):
    code, _, err = _run(capsys, ["analyze", bad_assoc_path])
    assert code == 2
    assert "axioms" in err


def test_analyze_text_mode(capsys, min_sl_path):
    code, out, _ = _run(capsys, ["analyze", "--text", min_sl_path])
    assert code == 0
    assert out.startswith('report_version: "report_v1"')
    assert "predicates:" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_analyze_out_file(capsys, min_sl_path, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["analyze", "--out", str(target), min_sl_path])
    assert code == 0
    assert out == ""
    assert _report(target.read_text())["command"] == "analyze"


def test_out_file_failed_write_keeps_old_file(capsys, min_sl_path, tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, out, err = _run(capsys, ["analyze", "--out", str(target), min_sl_path])
    assert code == 2
    assert err == "error: disk full\n"
    assert target.read_text() == "previous report\n"
    assert set(os.listdir(tmp_path)) == {"report.json", "min_sl.json"}


def test_out_error_names_the_given_path(capsys, tmp_path):
    """A report that cannot be written exits 2 with an error naming the
    path given to --out, not the temporary file written beside it, and
    leaves no file behind: once when the temporary file cannot be opened
    (a missing directory), once when it cannot replace the target (a
    directory)."""
    taken = tmp_path / "taken"
    taken.mkdir()
    for target in (str(tmp_path / "missing" / "report.json"), str(taken)):
        code, out, err = _run(capsys, ["campaign", "--n", "2", "--out", target])
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {target!r}\n"), err
    assert os.listdir(tmp_path) == ["taken"] and os.listdir(taken) == []


def test_empty_out_is_an_input_error(capsys, min_sl_path):
    """`--out ""` names no file: every command rejects it with exit code 2
    before it runs, rather than printing its report to stdout."""
    for argv in (["validate", min_sl_path], ["analyze", min_sl_path], ["check", min_sl_path],
                 ["campaign", "--n", "1"], ["search", "--n", "1", "--expr", "simple"]):
        code, out, err = _run(capsys, argv + ["--out", ""])
        assert (code, out, err) == (2, "", "error: --out needs a file name\n"), argv


def test_unwritable_out_fails_before_the_command_runs(capsys, tmp_path, monkeypatch):
    """An --out in a missing directory, or naming a directory, exits 2
    with the error that names the given path before the campaign runs,
    which at n5k1 takes minutes."""
    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_campaign", never)
    for target in (str(tmp_path / "missing" / "report.json"), str(tmp_path)):
        code, out, err = _run(capsys, ["campaign", "--n", "5", "--dedup", "iso", "--out", target])
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {target!r}\n"), err


# check

def test_check_all(capsys, min_sl_path):
    code, out, _ = _run(capsys, ["check", min_sl_path])
    assert code == 0
    sec = _report(out)["sections"]
    assert sec["all_equivalent"] is True
    assert len(sec["verdicts"]) == 20
    assert len(sec["theorems"]) == 20


def test_check_selected(capsys, min_sl_path):
    code, out, _ = _run(capsys, ["check", "--theorems", "Thm8,Lemma4", min_sl_path])
    assert code == 0
    sec = _report(out)["sections"]
    assert sec["theorems"] == ["Thm8", "Lemma4"]
    assert [v["theorem"] for v in sec["verdicts"]] == ["Thm8", "Lemma4"]


def test_check_unknown_theorem(capsys, min_sl_path):
    code, _, err = _run(capsys, ["check", "--theorems", "Thm99", min_sl_path])
    assert code == 2
    assert "unknown theorem id" in err


def test_input_error_lines_stay_short(capsys, min_sl_path, tmp_path):
    """A huge value on the command line or in a file is quoted shortened:
    the one `error:` line stays under 300 bytes."""
    long = "q" * 100_000
    bad_n = tmp_path / "bad_n.json"
    bad_n.write_text(json.dumps({"n": long, "gamma": ["g0"], "ops": {"g0": [[0]]}, "leq": []}))
    for argv in (["check", "--theorems", long, min_sl_path],
                 ["check", "--theorems", f"{long},{long}", min_sl_path],
                 ["validate", str(bad_n)], ["analyze", str(bad_n)],
                 ["search", "--n", "2", "--expr", "simple & (" * 18_000],
                 ["search", "--n", "2", "--expr", long]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv[:2]
        assert len(err.encode()) < 300, argv[:2]


@pytest.mark.parametrize("command", ["check", "campaign"])
def test_repeated_theorem_id(capsys, min_sl_path, command):
    """A theorem id given twice is an input error, not a second run."""
    where = [min_sl_path] if command == "check" else ["--n", "2", "--k", "1"]
    code, out, err = _run(capsys, [command, "--theorems", "Lemma4,Prop2,Prop2", *where])
    assert code == 2 and out == ""
    assert "theorem id 'Prop2' given more than once" in err


# campaign

def _strip_timings(rep: dict) -> dict:
    rep = dict(rep)
    rep.pop("timings")
    return rep


def _clear_form_bit(monkeypatch, tid: str, spec: EnumSpec, *targets) -> None:
    """Clear bit o of each target (pi L, p) of the slice `spec`, o the
    order of L with pi o = p, in the agreement mask of check `tid` on its
    orbit's least table L, whose masks the campaign reads for every table
    of the orbit (pool workers are forked, so they see the patched forms
    too)."""
    entries, walk = explore._walk(spec)
    wanted = {(t.tables, t.leq) for t in targets}
    least, bits = {}, {}  # per orbit its least table; per least table the bits to clear
    for tables, c, _, items in walk:
        least.setdefault(c, tables)
        for p, o in items:
            if (tables, entries[p][0]) in wanted:
                bits[least[c]] = bits.get(least[c], 0) | 1 << o
    real = tablewise.CHECK_FORMS[tid]

    def cleared(f):
        conds, agree = real(f)
        return conds, agree & ~bits.get(f.s.tables, 0)

    monkeypatch.setitem(tablewise.CHECK_FORMS, tid, cleared)


def _fail_lemma4_on(monkeypatch, targets) -> None:
    """Make `harness`'s Lemma4 check disagree on the structures
    `targets` alone, its witness naming their index in `targets` (pool
    workers are forked, so they see the patched catalogue too)."""
    real = harness._CHECKS["Lemma4"]
    index = {digest(t): i for i, t in enumerate(targets)}

    def faulty(s):
        verdict = real(s)
        i = index.get(digest(s))
        return verdict if i is None else verdict._replace(equivalent=False,
                                                          witness={"injected": i})

    monkeypatch.setitem(harness._CHECKS, "Lemma4", faulty)


def _read(pairs, limit: int | None = None) -> dict:
    """The campaign sections read structure by structure: per pair
    (s, r), r's `PREDICATES` values and `harness.check_all` verdicts, up
    to `limit` pairs or the first pair whose r fails a check, recorded on
    s."""
    names = sorted(explore.PREDICATES)
    structures, failure = 0, None
    counts, combos = dict.fromkeys(names, 0), collections.Counter()
    for s, r in itertools.islice(pairs, limit):
        structures += 1
        held = [name for name in names if explore.PREDICATES[name](r)]
        for name in held:
            counts[name] += 1
        combos["+".join(held) or "(none)"] += 1
        bad = [v.as_dict() for v in harness.check_all(r) if not v.equivalent]
        if bad:
            failure = {"structure": to_obj(s), "digest": digest(s), "verdicts": bad}
            break
    return {"structures": structures, "all_equivalent": failure is None,
            "first_failure": failure, "predicate_counts": counts,
            "combination_tally": dict(sorted(combos.items()))}


def _through_least(spec: EnumSpec):
    """Each structure (pi L, p) of the walk paired with (L, o), o the
    order of L with pi o = p."""
    entries, walk = explore._walk(spec)
    names, least = explore._gamma_names(spec.k), {}
    for tables, c, _, items in walk:
        least.setdefault(c, tables)
        for p, o in items:
            yield (Structure(spec.n, names, tables, entries[p][0]),
                   Structure(spec.n, names, least[c], entries[o][0]))


def _campaign_sections(capsys, argv: list, jobs: str) -> tuple[int, dict]:
    code, out, _ = _run(capsys, ["campaign", *argv, "--jobs", jobs])
    sec = _report(out)["sections"]
    del sec["corpus"]
    return code, sec


def test_campaign_small_slice(capsys):
    code, out, _ = _run(capsys, ["campaign", "--n", "2", "--k", "1"])
    assert code == 0
    sec = _report(out)["sections"]
    assert sec["structures"] == 20
    assert sec["all_equivalent"] is True
    assert sec["first_failure"] is None
    assert sum(sec["combination_tally"].values()) == 20
    assert sec["predicate_counts"]["ideals_semiprime"] <= 20


def test_campaign_jobs_determinism(capsys):
    code1, out1, _ = _run(capsys, ["campaign", "--n", "2", "--k", "2", "--jobs", "1"])
    code2, out2, _ = _run(capsys, ["campaign", "--n", "2", "--k", "2", "--jobs", "2"])
    assert code1 == code2 == 0
    assert _strip_timings(_report(out1)) == _strip_timings(_report(out2))


def test_campaign_failure_is_serialized_for_every_jobs_value(capsys, monkeypatch):
    """One check made to disagree on one structure: the campaign stops at
    it with exit 1 and the same first_failure for every --jobs value.  The
    structure stands on its orbit's least table, whose masks show the
    fault, and is the second on it, so the campaign reads that table's
    items one by one and checks it on its own."""
    structures = list(enumerate_structures(EnumSpec(2, 1)))
    target = structures[7]
    assert target.tables == structures[6].tables != structures[5].tables
    real = harness._CHECKS["Lemma4"]

    def faulty(s):
        verdict = real(s)
        if digest(s) == digest(target):
            return verdict._replace(equivalent=False, witness={"injected": 7})
        return verdict

    # pool workers are forked, so they see the patched catalogue too
    monkeypatch.setitem(harness._CHECKS, "Lemma4", faulty)
    _clear_form_bit(monkeypatch, "Lemma4", EnumSpec(2, 1), target)
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = _run(capsys, ["campaign", "--n", "2", "--k", "1", "--jobs", jobs])
        assert code == 1
        reports.append(_strip_timings(_report(out)))
    assert reports[0] == reports[1]
    sec = reports[0]["sections"]
    assert sec["structures"] == 8
    assert sec["all_equivalent"] is False
    failure = sec["first_failure"]
    assert failure["structure"] == to_obj(target)
    assert failure["digest"] == digest(target)
    assert [(v["theorem"], v["equivalent"], v["witness"]) for v in failure["verdicts"]] == \
        [("Lemma4", False, {"injected": 7})]


@pytest.mark.parametrize("spec, limit", [
    (EnumSpec(3, 2), None), (EnumSpec(2, 3), None), (EnumSpec(4, 1), 1000)])
def test_campaign_matches_direct_checks(capsys, spec, limit):
    """On the full n3k2 and n2k3 labeled slices and the n4k1 head, the
    sections that the campaign tallies from each orbit's least-table masks
    are those read structure by structure from `PREDICATES` and
    `harness.check_all`."""
    argv = ["--n", str(spec.n), "--k", str(spec.k)] + ([] if limit is None else
                                                       ["--limit", str(limit)])
    assert _campaign_sections(capsys, argv, "1") == (
        0, _read(((s, s) for s in enumerate_structures(spec)), limit))


def test_campaign_memo_misses_a_label_sensitive_fault(capsys, monkeypatch):
    """The trade of reading every table of an orbit through its least
    table L: a check that fails on one labeled structure only, n2k1
    structure 14, on a table whose L came four tables earlier, passes the
    campaign, as L's masks do not show it; the direct reading stops at
    exactly that structure."""
    pairs = list(_through_least(EnumSpec(2, 1)))
    target, least = pairs[14]
    assert least.tables != target.tables
    _fail_lemma4_on(monkeypatch, [target])
    code, out, _ = _run(capsys, ["campaign", "--n", "2", "--k", "1"])
    assert code == 0 and _report(out)["sections"]["all_equivalent"] is True
    assert _read(pairs)["all_equivalent"] is True
    direct = _read((s, s) for s, _ in pairs)
    assert (direct["structures"], direct["first_failure"]["digest"]) == (15, digest(target))


class _InProcessPool:
    """A stand-in for `multiprocessing.Pool` that runs each task in
    process, so no worker starts."""

    def apply_async(self, fn, args):
        return explore._Done(fn, args)

    def terminate(self):
        pass

    def join(self):
        pass


def test_campaign_limit_0_builds_no_pool(capsys, monkeypatch):
    """`--limit 0` reads no structure, so `--jobs 2` starts no worker: a
    `multiprocessing.Pool` that raises is never called."""
    def refuse(processes):
        raise AssertionError(f"a pool of {processes} workers was built")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    code, sec = _campaign_sections(capsys, ["--n", "2", "--limit", "0"], "2")
    assert code == 0 and sec["structures"] == 0 and sec["combination_tally"] == {}


def test_campaign_reads_at_most_read_ahead_tables_ahead(capsys, monkeypatch):
    """Labeled n3k1 (113 tables) through a pool whose results are never
    ready until asked: the walk runs at most `_READ_AHEAD` + 1 tables
    ahead of the tally, and reaches that bound; the sections are those of
    --jobs 1."""
    argv = ["--n", "3", "--k", "1"]
    want = _campaign_sections(capsys, argv, "1")
    pulled, tallied, ahead = [0], [0], []
    real_walk = explore._walk

    def walk(spec):
        entries, tables = real_walk(spec)

        def counted():
            for table in tables:
                pulled[0] += 1
                ahead.append(pulled[0] - tallied[0])
                yield table
        return entries, counted()

    class Pending:
        def __init__(self, fn, args):
            self.done = explore._Done(fn, args)  # computed here, handed on when asked

        def ready(self):
            return False

        def get(self):
            tallied[0] += 1
            return self.done.get()

    class PendingPool(_InProcessPool):
        def apply_async(self, fn, args):
            return Pending(fn, args)

    monkeypatch.setattr(explore, "_READ_AHEAD", 8)
    monkeypatch.setattr(explore, "_walk", walk)
    monkeypatch.setattr(multiprocessing, "Pool", lambda processes: PendingPool())
    assert _campaign_sections(capsys, argv, "2") == want
    assert (pulled[0], tallied[0], max(ahead)) == (113, 113, 8 + 1)


@pytest.mark.parametrize("limit, structures, units", [
    (1000, 1000, 13), (None, 107688, 188)])
def test_campaign_runs_one_unit_per_orbit(capsys, monkeypatch, limit, structures, units):
    """Labeled n4k1, the first 1,000 structures and all 107,688: the
    campaign calls `_campaign_unit` once per orbit whose least table it
    reaches, on that table, and reads its masks for every table of the
    orbit."""
    calls = []
    real = cli._campaign_unit
    monkeypatch.setattr(cli, "_campaign_unit", lambda s, domain, tids, orders:
                        calls.append(s.tables) or real(s, domain, tids, orders))
    argv = ["campaign", "--n", "4", "--k", "1", "--jobs", "1"]
    code, out, _ = _run(capsys, argv + ([] if limit is None else ["--limit", str(limit)]))
    sec = _report(out)["sections"]
    assert code == 0 and sec["all_equivalent"] is True
    assert (sec["structures"], len(calls)) == (structures, units)
    assert calls == sorted(set(calls))  # least tables, in walk order


@pytest.mark.parametrize("target, limit, structures", [
    (12, None, 13),  # on the last least table
    (10, 12, 11),    # on a least table, before the limit
    (13, 15, 15),    # not on a least table; the limit ends inside its table
    (19, None, 20),  # on the last table, not a least one
])
def test_campaign_merge_edges_for_every_jobs_value(capsys, monkeypatch, target, limit,
                                                   structures):
    """Labeled n2k1 walks its 20 structures on tables L0..L4 of orbits
    0..4, then on the orbits' other tables, of orbits 1, 4 and 0.  One
    check fails on structure `target` alone, and its bit is cleared in
    its orbit's least-table masks only when `target` stands on that
    table.  The sections at --jobs 1, 2 and 64 (an in-process pool) are
    those of reading each structure (pi L, p) through (L, o): a fault
    off the least tables passes."""
    pairs = list(_through_least(EnumSpec(2, 1)))
    s, least = pairs[target]
    _fail_lemma4_on(monkeypatch, [s])
    if least.tables == s.tables:
        _clear_form_bit(monkeypatch, "Lemma4", EnumSpec(2, 1), s)
    want = _read(pairs, limit)
    assert (want["structures"], want["all_equivalent"]) == (structures, least.tables != s.tables)
    argv = ["--n", "2", "--k", "1"] + ([] if limit is None else ["--limit", str(limit)])
    for jobs in ("1", "2", "64"):
        if jobs == "64":
            monkeypatch.setattr(multiprocessing, "Pool", lambda processes: _InProcessPool())
        assert _campaign_sections(capsys, argv, jobs) == (int(not want["all_equivalent"]), want)


def _class_of(s: Structure) -> list:
    """Every relabeling of s, itself included."""
    return [_relabel(s, pi, rho) for pi in permutations(range(s.n))
            for rho in permutations(range(len(s.tables)))]


# labeled n3k1: 971 structures on 113 tables of 24 orbits.  Table 7
# (structures 73..85) is orbit 2's second, and orbit 7's least table,
# table 8 (structures 86..94), follows it; orbit 23's least table, the
# last least one, is table 67 (structure 631), and its other tables are
# 93 and 98 (structures 835 and 852); table 112 (952..970), orbit 0's, is
# the last.  Each planted structure is on a table that is not least, and
# its class meets the least table first at structure 631, 90 or 8.
@pytest.mark.parametrize("planted, limit, structures", [
    (852, None, 632),  # fails on orbit 23's least table, the last least one
    (700, None, 91),   # fails on table 8, after orbit 2's table 7
    (700, 88, 88),     # the limit cuts table 8 before the failure
    (700, 91, 91),     # and at it
    (700, 94, 91),     # and after it
    (960, None, 9),    # planted on the last table, fails on orbit 0's least table
    (None, 80, 80),    # no failure; the limit cuts table 7, not a least table
])
def test_campaign_orbit_edges_for_every_jobs_value(capsys, monkeypatch, planted, limit,
                                                   structures):
    """A check fails on every structure isomorphic to labeled n3k1
    structure `planted`, and the masks of its orbit's least table L show
    it.  The campaign meets the failure on L, the first table of the
    orbit, at every --jobs value 1, 2 and 64 (an in-process pool): its
    sections are those of the direct reading, structure by structure."""
    spec = EnumSpec(3, 1)
    structures_ = list(enumerate_structures(spec))
    if planted is not None:
        members = _class_of(structures_[planted])
        _fail_lemma4_on(monkeypatch, members)
        _clear_form_bit(monkeypatch, "Lemma4", spec, *members)
    want = _read(((s, s) for s in structures_), limit)
    assert want["structures"] == structures
    argv = ["--n", "3", "--k", "1"] + ([] if limit is None else ["--limit", str(limit)])
    for jobs in ("1", "2", "64"):
        if jobs == "64":
            monkeypatch.setattr(multiprocessing, "Pool", lambda processes: _InProcessPool())
        assert _campaign_sections(capsys, argv, jobs) == (int(not want["all_equivalent"]), want)


def test_campaign_caps_workers_at_cpu_count(capsys, monkeypatch):
    """`--jobs` above the CPU count builds one pool of as many workers as
    CPUs, and one worker when the count is unknown; the sections are
    those of `--jobs 1`.  The pool is a stand-in that maps in process, so
    no worker starts."""
    built = []
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda processes: built.append(processes) or _InProcessPool())
    argv = ["campaign", "--n", "2", "--k", "1", "--jobs"]
    code, out, _ = _run(capsys, argv + ["1"])
    assert code == 0 and built == []
    for cpus, jobs, workers in ((2, "64", 2), (None, "3", 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        built.clear()
        code, capped, _ = _run(capsys, argv + [jobs])
        assert code == 0 and built == [workers]
        assert _report(capped)["sections"] == _report(out)["sections"]


_CAMPAIGN_N3K1 = """
import sys
from gpw.cli import main
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(9)
sys.exit(main(["campaign", "--n", "3", "--k", "1"]))
"""


def test_campaign_sections_identical_under_optimize():
    """No cache path may rest on assert: -O must not change a report."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gpw.__file__)))
    sections = []
    for flags, optimize in (([], "0"), (["-O"], "1")):
        proc = subprocess.run([sys.executable, *flags, "-c", _CAMPAIGN_N3K1, optimize],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        sections.append(json.loads(proc.stdout)["sections"])
    assert sections[0] == sections[1]
    assert sections[0]["structures"] == 971 and sections[0]["all_equivalent"]


def test_campaign_limit(capsys):
    code, out, _ = _run(capsys, ["campaign", "--n", "3", "--k", "1",
                                 "--limit", "5"])
    assert code == 0
    assert _report(out)["sections"]["structures"] == 5


def test_campaign_limit_zero(capsys, monkeypatch):
    """`--limit 0` runs no campaign unit, at --jobs 1 and through a pool."""
    def no_unit(*args, **kwargs):
        raise AssertionError("a campaign unit ran")

    monkeypatch.setattr(cli, "_campaign_unit", no_unit)
    for jobs in ("1", "2"):
        code, out, _ = _run(capsys, ["campaign", "--n", "3", "--k", "1",
                                     "--limit", "0", "--jobs", jobs])
        assert code == 0
        assert _report(out)["sections"]["structures"] == 0


@pytest.mark.parametrize("flag, value", [("--limit", "-1"), ("--jobs", "0"),
                                         ("--jobs", "-3")])
def test_campaign_rejects_bad_limit_and_jobs(capsys, flag, value):
    code, out, err = _run(capsys, ["campaign", "--n", "2", "--k", "1", flag, value])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag.lstrip("-") in err


def test_campaign_rejects_bad_limit_before_any_worker_starts(capsys, monkeypatch):
    """A negative limit with --jobs 2 is an input error, raised before
    the pool is built rather than inside the thread that feeds it."""
    def no_pool(processes):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = _run(capsys, ["campaign", "--n", "2", "--jobs", "2", "--limit", "-1"])
    assert (code, out) == (2, "") and "limit" in err


def test_campaign_rejects_bad_n(capsys):
    code, _, err = _run(capsys, ["campaign", "--n", "9"])
    assert code == 2
    assert "error:" in err


_ENVELOPE_WARNING = ("warning: n=4, k=2 is beyond the supported envelope "
                     "(n <= 3 with k <= 3, or n <= 4 with k = 1); proceeding anyway\n")


def test_campaign_envelope_warning(capsys):
    code, _, err = _run(capsys, ["campaign", "--n", "4", "--k", "2",
                                 "--limit", "1", "--theorems", "Lemma4"])
    assert code == 0
    assert err == _ENVELOPE_WARNING


def test_search_envelope_warning(capsys):
    code, _, err = _run(capsys, ["search", "--n", "4", "--k", "2",
                                 "--expr", "simple | !simple"])
    assert code == 0
    assert err == _ENVELOPE_WARNING


def test_n3k3_is_inside_the_envelope(capsys):
    code, out, err = _run(capsys, ["campaign", "--n", "3", "--k", "3", "--dedup", "iso"])
    assert code == 0
    assert err == ""
    sections = _report(out)["sections"]
    assert sections["structures"] == 634 and sections["all_equivalent"] is True


# search

def test_search_first(capsys):
    code, out, _ = _run(capsys, ["search", "--n", "2", "--expr",
                                 "intra_regular & !simple"])
    assert code == 0
    sec = _report(out)["sections"]
    assert sec["found"] is True
    assert sec["witness"]["n"] == 2


def test_search_exhausted(capsys):
    code, out, _ = _run(capsys, ["search", "--n", "2", "--expr",
                                 "simple & !simple"])
    assert code == 3
    sec = _report(out)["sections"]
    assert sec["found"] is False
    assert sec["witness"] is None


def test_search_count_is_success_even_at_zero(capsys):
    code, out, _ = _run(capsys, ["search", "--n", "2", "--expr",
                                 "simple & !simple", "--mode", "count"])
    assert code == 0
    assert _report(out)["sections"]["count"] == 0


def test_search_all(capsys):
    code, out, _ = _run(capsys, ["search", "--n", "2", "--expr", "simple",
                                 "--mode", "all"])
    assert code == 0
    sec = _report(out)["sections"]
    assert sec["found"] is True
    assert len(sec["witnesses"]) >= 1


def test_search_bad_expression(capsys):
    code, _, err = _run(capsys, ["search", "--n", "2", "--expr", "bogus_name"])
    assert code == 2
    assert "unknown predicate" in err


def test_search_long_chain_evaluates_without_recursion(capsys):
    """A chain the parser accepts is evaluated, not stopped by Python's
    recursion limit: 990 `simple` joined by `|` find what `simple` finds."""
    code, out, err = _run(capsys, ["search", "--n", "2", "--expr",
                                   " | ".join(["simple"] * 990)])
    assert code == 0
    assert err == ""
    _, plain, _ = _run(capsys, ["search", "--n", "2", "--expr", "simple"])
    assert _report(out)["sections"]["witness"] == _report(plain)["sections"]["witness"]


# whole reports, pinned by SHA-256: a pin changes only with the report
# format

def _pinned(capsys, argv: list[str]) -> tuple[int, str]:
    """The exit code and the SHA-256 of what a report pins: the whole
    `--text` rendering less its tool version and timings lines, or the
    `sections` of a JSON report as canonical JSON."""
    code, out, _ = _run(capsys, argv)
    if "--text" in argv:
        text = "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith(("tool_version:", "timings:", "  total_s:")))
    else:
        text = json.dumps(_report(out)["sections"], sort_keys=True)
    return code, hashlib.sha256(text.encode()).hexdigest()


TEXT_PINS = {
    ("validate", "min_sl"): (0, "bb828c142dd1b775c5fe5243b185d3b2a78286fa1ca647584668138fffd2506b"),
    ("analyze", "min_sl"): (0, "a775f023601c9b685dcc1d69de27b213293626170dd863c16466241b6a4f96e1"),
    ("check", "min_sl"): (0, "8b7e761b10ac1bcb0cfc4845448e497143670eaf596defb5ba54c74afcd70a42"),
    ("validate", "n4k2"): (0, "2791348a5c2e8c0c37047de57007636ecbdff046d06e3092e9c42bbd85ee3f1e"),
    ("analyze", "n4k2"): (0, "143b03a0742d0d49dc759286df2f1017de45bcd5bf53eee4f56e235f81b2d7b0"),
    ("check", "n4k2"): (0, "f4fea75eeae886eff3551047a1e57b4ba0990b0bc1a90e1c0c43b382a1529a7c"),
    ("validate", "bad"): (2, "6181349334c0d18d7ac36d9c581f332fdc243c40fe3e5b7333be4b1ddbce42ff"),
}


def test_text_reports_are_pinned(capsys, min_sl_path, bad_assoc_path, tmp_path):
    """The full `--text` reports of the three structure commands, on the
    min_sl fixture and on one sampled n4k2 structure with a non-trivial
    order, and of `validate` on a non-associative table, whose witnesses
    are lists within lists."""
    sampled = random_structure(4, 2, seed="text:2")
    assert sum(map(sum, sampled.leq)) == 4 + 3
    paths = {"min_sl": min_sl_path, "n4k2": str(tmp_path / "n4k2.json"),
             "bad": bad_assoc_path}
    dump(sampled, paths["n4k2"])
    got = {(command, name): _pinned(capsys, [command, "--text", paths[name]])
           for command, name in TEXT_PINS}
    assert got == TEXT_PINS


SEARCH_PINS = [
    ("simple", "first", 0, "929b84c011b3196815f177cf2f792ffc0f4415ac80efd2844cc22601b53870e9"),
    ("simple & !simple", "first", 3,
     "5fc4a7b6052db31150502a5eea97e566eb13514a7223fa207eed197d25b2431a"),
    ("simple", "all", 0, "7d110ecad2cb4e2d367f0bd91dafbc599f679e9726ff14798a0bf2425da158f8"),
    ("simple & !simple", "all", 3,
     "50280805af52b6405e36936ca619e5907ce32343b33a6b1052f9b827bc3eff8d"),
    ("simple", "count", 0, "66b78cf244d5ed8510ef175d049fe8333654a9b71a46241a12ed28fbf231a5a4"),
]


def test_search_sections_are_pinned(capsys):
    """n3k1 search sections for each mode, a hit and an exhaustion: an
    exhausted `--mode all` exits 3 with no witnesses."""
    got = [(expr, mode, *_pinned(capsys, ["search", "--n", "3", "--expr", expr,
                                          "--mode", mode]))
           for expr, mode, _, _ in SEARCH_PINS]
    assert got == SEARCH_PINS
    code, out, _ = _run(capsys, ["search", "--n", "3", "--expr", "simple & !simple",
                                 "--mode", "all"])
    assert code == 3
    assert _report(out)["sections"]["found"] is False
    assert _report(out)["sections"]["witnesses"] == []


def test_search_determinism(capsys):
    argv = ["search", "--n", "2", "--k", "2", "--expr",
            "intra_regular_legacy & !intra_regular"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert _strip_timings(_report(out1)) == _strip_timings(_report(out2))


# wiring

def test_version_flag(capsys):
    code, out, _ = _run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("gpw ")


def test_usage_error(capsys):
    assert main(["campaign"]) == 2  # --n is required
    assert main(["search", "--n", "2", "--expr", "simple",
                 "--mode", "bogus"]) == 2


def test_no_command(capsys):
    assert main([]) == 2


def test_cli_import_leaves_multiprocessing_out():
    """Only `campaign --jobs N` with N > 1 imports multiprocessing, so
    every other command, `--version` included, skips its import time."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gpw.__file__)))
    code = ("import sys\nfrom gpw.cli import main\n"
            "main(['--version'])\nprint('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gpw", gpw.__version__, "False"]
