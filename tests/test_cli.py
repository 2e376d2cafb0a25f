"""Command line surface, driven through main(argv) with captured output."""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from itertools import permutations

import pytest

import gpw
from gpw import cli, explore, harness
from gpw.cli import main
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
    structure is the first of its isomorphism class, so the campaign
    checks it directly, and the second on its table, so at every --jobs
    value it reads table results that the first one computed."""
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


def _memo_misses(spec: EnumSpec, limit: int | None = None) -> list[int]:
    """The indices of the structures whose campaign result, read from
    their class's first member, differs from a direct `_campaign_unit`
    on the structure itself."""
    unit = functools.partial(cli._campaign_unit, tids=harness.THEOREM_IDS)
    memo = cli._walk_results(explore._keyed_structures(spec, limit),
                             functools.partial(map, unit))
    direct = map(unit, enumerate_structures(spec, limit))
    return [i for i, (got, want) in enumerate(zip(memo, direct, strict=True)) if got != want]


def _relabeling_classes(structures: list) -> list[frozenset]:
    """The structures' indices grouped by brute force: two are in one
    class when some carrier and operation relabeling maps one to the
    other, found as the least (tables, order) over every relabeling."""
    classes = {}
    for i, s in enumerate(structures):
        form = min((t.tables, t.leq) for pi in permutations(range(s.n))
                   for rho in permutations(range(len(s.tables))) for t in [_relabel(s, pi, rho)])
        classes.setdefault(form, set()).add(i)
    return sorted(map(frozenset, classes.values()), key=min)


@pytest.mark.parametrize("spec, limit, count", [
    (EnumSpec(3, 2), None, 371), (EnumSpec(4, 1), 1000, 486)])
def test_campaign_memo_matches_direct_checks(spec, limit, count):
    """One check per isomorphism class: on the full n3k2 labeled slice and
    the n4k1 head, every structure's memoized (predicates, failure) is the
    direct one, and the class keys split the structures into exactly the
    brute-force relabeling classes."""
    assert _memo_misses(spec, limit) == []
    pairs = list(explore._keyed_structures(spec, limit))
    by_key = {}
    for i, (_, key) in enumerate(pairs):
        by_key.setdefault(key, set()).add(i)
    classes = _relabeling_classes([s for s, _ in pairs])
    assert len(classes) == count
    assert sorted(map(frozenset, by_key.values()), key=min) == classes


def test_campaign_memo_misses_a_label_sensitive_fault(capsys, monkeypatch):
    """The trade of one check per class: a check that fails on one
    labeled structure only, n2k1 structure 14, a later member of
    structure 5's class, passes the campaign, which never checks it; the
    direct comparison flags exactly that structure."""
    pairs = list(explore._keyed_structures(EnumSpec(2, 1)))
    keys = [key for _, key in pairs]
    assert keys.index(keys[14]) == 5
    target = digest(pairs[14][0])
    real = harness._CHECKS["Lemma4"]

    def faulty(s):
        verdict = real(s)
        return verdict._replace(equivalent=False) if digest(s) == target else verdict

    monkeypatch.setitem(harness._CHECKS, "Lemma4", faulty)
    code, out, _ = _run(capsys, ["campaign", "--n", "2", "--k", "1"])
    assert code == 0 and _report(out)["sections"]["all_equivalent"] is True
    assert _memo_misses(EnumSpec(2, 1)) == [14]


class _InProcessPool:
    """A stand-in for `multiprocessing.Pool` that maps in process, so no
    worker starts."""

    def imap(self, fn, jobs, chunksize=1):
        return map(fn, jobs)

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("limit, structures, checked", [
    (1000, 1000, 486), (None, 107688, 4753)])
def test_campaign_checks_each_class_once(capsys, monkeypatch, limit, structures, checked):
    """Labeled n4k1, the first 1,000 structures and all 107,688: the
    campaign calls `_campaign_unit` once per isomorphism class, on its
    first member, and reads that result for every later member."""
    calls = []
    real = cli._campaign_unit
    monkeypatch.setattr(cli, "_campaign_unit",
                        lambda s, tids: calls.append(None) or real(s, tids))
    argv = ["campaign", "--n", "4", "--k", "1", "--jobs", "1"]
    code, out, _ = _run(capsys, argv + ([] if limit is None else ["--limit", str(limit)]))
    sec = _report(out)["sections"]
    assert code == 0 and sec["all_equivalent"] is True
    assert (sec["structures"], len(calls)) == (structures, checked)


@pytest.mark.parametrize("target, limit, structures", [
    (12, None, 13),  # the last first member, after later members 8 and 11
    (10, 12, 11),    # a first member after later member 8
    (13, 15, 15),    # a later member; the limit ends inside a run of them
    (19, None, 20),  # a later member in the run after the last first member
])
def test_campaign_merge_edges_for_every_jobs_value(capsys, monkeypatch, target, limit,
                                                   structures):
    """Labeled n2k1 walks its 20 structures as the first members of
    classes 0..10 (F) and later members (l): F0..F7 l7 F8 F9 l9 F10 l3 l5
    l4 l10 l0 l2 l1.  One check fails on structure `target` alone, which
    the campaign checks only when it is a first member.  The sections at
    --jobs 1, 2 and 64 (an in-process pool) are those of a direct reading:
    each structure takes its class's first member's result, up to the
    first failure or the limit."""
    walk = list(explore._keyed_structures(EnumSpec(2, 1)))
    keys = [key for _, key in walk]
    assert [i for i, key in enumerate(keys) if keys.index(key) == i] == [*range(8), 9, 10, 12]
    fault = digest(walk[target][0])
    real = harness._CHECKS["Lemma4"]

    def faulty(s):
        verdict = real(s)
        if digest(s) == fault:
            return verdict._replace(equivalent=False, witness={"injected": target})
        return verdict

    # pool workers are forked, so they see the patched catalogue too
    monkeypatch.setitem(harness._CHECKS, "Lemma4", faulty)
    unit = functools.partial(cli._campaign_unit, tids=harness.THEOREM_IDS)
    firsts, results = {}, []
    for s, key in walk[:limit]:
        if key not in firsts:
            firsts[key] = unit(s)
        results.append(firsts[key])
        if results[-1][1] is not None:
            break
    failure = results[-1][1]
    assert len(results) == structures
    assert (failure is not None) == (keys.index(keys[target]) == target)
    combos = collections.Counter("+".join(preds) or "(none)" for preds, _ in results)
    want = {
        "structures": structures,
        "all_equivalent": failure is None,
        "first_failure": failure,
        "predicate_counts": {name: sum(name in preds for preds, _ in results)
                             for name in sorted(explore.PREDICATES)},
        "combination_tally": dict(combos),
    }
    argv = ["campaign", "--n", "2", "--k", "1"] + ([] if limit is None else ["--limit", str(limit)])
    for jobs in ("1", "2", "64"):
        if jobs == "64":
            monkeypatch.setattr(multiprocessing, "Pool", lambda processes: _InProcessPool())
        code, out, _ = _run(capsys, argv + ["--jobs", jobs])
        sec = _report(out)["sections"]
        assert code == (0 if failure is None else 1)
        assert {name: sec[name] for name in want} == want
    if failure is not None:
        assert failure["digest"] == fault


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


def test_campaign_limit_zero(capsys):
    code, out, _ = _run(capsys, ["campaign", "--n", "3", "--k", "1",
                                 "--limit", "0"])
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
