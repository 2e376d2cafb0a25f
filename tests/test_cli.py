"""Command line surface, driven through main(argv) with captured output."""

from __future__ import annotations

import json
import os

import pytest

from gpw import cli
from gpw.cli import main
from gpw.gpsjson import digest, dump, to_obj


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


def test_campaign_rejects_bad_n(capsys):
    code, _, err = _run(capsys, ["campaign", "--n", "9"])
    assert code == 2
    assert "error:" in err


_ENVELOPE_WARNING = ("warning: n=4, k=2 is beyond the supported envelope "
                     "(n <= 3 with k <= 2, or n <= 4 with k = 1); proceeding anyway\n")


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
