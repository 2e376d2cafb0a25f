"""Serialization: strict keys, closure on load, canonical dumps, digest."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from gpw import gpsjson
from gpw.core import InputError
from gpw.explore import random_structure
from gpw.fixtures import (constant_zero, left_zero, min_semilattice,
                          right_zero, singleton)
from gpw.gpsjson import digest, dumps, from_obj, load, loads, to_obj


ALL_FIXTURES = (singleton, min_semilattice, left_zero, right_zero, constant_zero)


def test_roundtrip_fixtures():
    for make in ALL_FIXTURES:
        s = make()
        t = loads(dumps(s))
        assert t.n == s.n
        assert t.gamma_names == s.gamma_names
        assert t.tables == s.tables
        assert t.leq == s.leq


def test_dumps_is_canonical(min_sl):
    text = dumps(min_sl)
    assert text == ('{"gamma":["g0"],"leq":[[0,1]],"n":2,'
                    '"ops":{"g0":[[0,0],[0,1]]}}')
    # the leq list carries only strict pairs
    assert json.loads(text)["leq"] == [[0, 1]]


def test_digest_is_sha256_of_canonical_text(min_sl):
    expect = hashlib.sha256(dumps(min_sl).encode("ascii")).hexdigest()
    assert digest(min_sl) == expect
    assert digest(loads(dumps(min_sl))) == expect


def test_loader_takes_transitive_closure():
    obj = {"n": 3, "gamma": ["g0"],
           "ops": {"g0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
           "leq": [[0, 1], [1, 2]]}
    s = from_obj(obj)
    assert s.leq[0][2] is True
    assert s.leq[0][0] and s.leq[1][1] and s.leq[2][2]


def test_loader_rejects_antisymmetry_violation():
    obj = {"n": 2, "gamma": ["g0"], "ops": {"g0": [[0, 0], [0, 0]]},
           "leq": [[0, 1], [1, 0]]}
    with pytest.raises(InputError):
        from_obj(obj)


def test_loader_rejects_cycle_found_by_closure():
    obj = {"n": 3, "gamma": ["g0"],
           "ops": {"g0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
           "leq": [[0, 1], [1, 2], [2, 0]]}
    with pytest.raises(InputError):
        from_obj(obj)


def test_strict_keys():
    base = {"n": 1, "gamma": ["g0"], "ops": {"g0": [[0]]}, "leq": []}
    from_obj(base)
    missing = dict(base)
    del missing["leq"]
    with pytest.raises(InputError):
        from_obj(missing)
    extra = dict(base)
    extra["comment"] = "hi"
    with pytest.raises(InputError):
        from_obj(extra)


def test_ops_keys_must_match_gamma():
    with pytest.raises(InputError):
        from_obj({"n": 1, "gamma": ["g0"], "ops": {"h": [[0]]}, "leq": []})
    with pytest.raises(InputError):
        from_obj({"n": 1, "gamma": ["g0", "g1"], "ops": {"g0": [[0]]}, "leq": []})


def test_gamma_labels_must_be_strings():
    for gamma in ([["g0"]], [0], [None]):
        with pytest.raises(InputError, match="gamma must be"):
            from_obj({"n": 1, "gamma": gamma, "ops": {"g0": [[0]]}, "leq": []})


def test_table_shape_is_checked_before_the_order_closure(monkeypatch):
    """The closure costs n^2 memory and n^3 time, so a tiny file naming a
    huge n must fail on its table's shape without reaching it."""
    def closure(n, pairs):
        raise AssertionError("the order closure ran")

    monkeypatch.setattr(gpsjson, "_order_closure", closure)
    for table in ([[0]], [[0]] * 3, "ab", 5):
        with pytest.raises(InputError, match=r"table 'g' is not 1000000x1000000"):
            loads(json.dumps({"n": 10**6, "gamma": ["g"], "ops": {"g": table},
                              "leq": [[0, 1]]}))
    with pytest.raises(InputError, match=r"table 'g' is not 2x2"):
        from_obj({"n": 2, "gamma": ["g"], "ops": {"g": [[0, 0], [0]]}, "leq": []})


def test_bad_leq_pairs():
    base = {"n": 2, "gamma": ["g0"], "ops": {"g0": [[0, 0], [0, 0]]}}
    with pytest.raises(InputError):
        from_obj(dict(base, leq=[[0]]))
    with pytest.raises(InputError):
        from_obj(dict(base, leq=[[0, 5]]))
    with pytest.raises(InputError):
        from_obj(dict(base, leq="nope"))


def test_loads_rejects_non_json():
    with pytest.raises(InputError):
        loads("{not json")
    with pytest.raises(InputError):
        loads('["a", "list"]')


def test_loads_rejects_deep_nesting():
    """json.loads raises RecursionError on deep nesting; a file can hold
    that, so it is an input error like any other bad JSON."""
    with pytest.raises(InputError, match="nested too deep"):
        loads("[" * 100_000)


def test_loads_rejects_an_integer_past_the_digit_limit():
    """json.loads raises a plain ValueError for an integer literal longer
    than the interpreter's limit on integer digits (4,300 by default); a
    file can hold one, so it is an input error with a short message."""
    text = '{"n": %s, "gamma": ["g0"], "ops": {"g0": [[0]]}, "leq": []}' % ("1" * 5001)
    with pytest.raises(InputError) as err:
        loads(text)
    assert len(str(err.value)) < 300


def test_input_errors_quote_a_bounded_repr():
    """An error quotes the offending value shortened by `reprlib`, so a
    huge value in a file gives a short message; a short value is quoted
    whole."""
    long = "x" * 100_000
    base = {"n": 2, "gamma": ["g0"], "ops": {"g0": [[0, 0], [0, 0]]}, "leq": []}
    for bad in (dict(base, n=long), dict(base, n=[long] * 1000),
                dict(base, n=[[[[[[[[[[0]]]]]]]]]] * 1000),
                dict(base, leq=[[long, 0]]), dict(base, leq=[list(range(100_000))]),
                dict(base, leq=[[0, 10**4000]]), dict(base, gamma=[long], ops={long: [[0]]}),
                dict(base, ops={"g0": [[0, long], [0, 0]]}), {long: 1, **base}):
        with pytest.raises(InputError) as err:
            from_obj(bad)
        assert len(str(err.value)) < 300
    with pytest.raises(InputError, match=r"^n must be an integer >= 1, got 'abc'$"):
        from_obj(dict(base, n="abc"))
    with pytest.raises(InputError, match=r"^leq pair \[0, 5\] outside 0..1$"):
        from_obj(dict(base, leq=[[0, 5]]))


def test_load_file(tmp_path, min_sl):
    p = tmp_path / "s.json"
    p.write_text(dumps(min_sl), encoding="utf-8")
    s = load(str(p))
    assert s.tables == min_sl.tables


def test_to_obj_sorted_strict_pairs():
    s = min_semilattice()
    obj = to_obj(s)
    assert set(obj) == {"n", "gamma", "ops", "leq"}
    assert obj["leq"] == [[0, 1]]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=5000))
def test_roundtrip_random(n, k, seed):
    s = random_structure(n, k, seed)
    t = loads(dumps(s))
    assert (t.n, t.gamma_names, t.tables, t.leq) == (s.n, s.gamma_names, s.tables, s.leq)
    assert digest(t) == digest(s)
