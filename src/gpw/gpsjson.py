"""GPS-JSON wire format for structures.

A file holds one object {"n": int, "gamma": [labels], "ops": {label: n x n
matrix}, "leq": [[a, b], ...]}.  Elements are integers 0..n-1.  Reflexive
order pairs may be omitted; the loader adds them and takes the
reflexive-transitive closure of the listed pairs, rejecting pair sets
whose closure violates antisymmetry.  `dumps` emits the canonical form
(sorted keys, no whitespace, strict pairs only, sorted) so that equal
structures serialize to identical bytes; `digest` hashes that form.
"""

from __future__ import annotations

import json
import reprlib

from .core import InputError, Structure, _order_closure

_KEYS = {"n", "gamma", "ops", "leq"}


def to_obj(s: Structure) -> dict:
    """Plain-data form of a structure, canonical field contents."""
    pairs = [[a, b] for a in range(s.n) for b in range(s.n)
             if a != b and s.leq[a][b]]
    return {
        "n": s.n,
        "gamma": list(s.gamma_names),
        "ops": {g: [list(row) for row in t] for g, t in zip(s.gamma_names, s.tables)},
        "leq": pairs,
    }


def from_obj(obj) -> Structure:
    """Build a structure from plain data, closing the order relation."""
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object, got {type(obj).__name__}")
    missing = _KEYS - set(obj)
    if missing:
        raise InputError(f"missing keys: {sorted(missing)}")
    extra = set(obj) - _KEYS
    if extra:
        raise InputError(f"unknown keys: {reprlib.repr(sorted(extra))}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"n must be an integer >= 1, got {reprlib.repr(n)}")
    gamma = obj["gamma"]
    if not isinstance(gamma, list) or not gamma or not all(isinstance(g, str) for g in gamma):
        raise InputError("gamma must be a nonempty list of labels")
    ops = obj["ops"]
    if not isinstance(ops, dict):
        raise InputError("ops must be an object mapping labels to tables")
    if set(ops) != set(gamma) or len(set(gamma)) != len(gamma):
        raise InputError("ops keys must match the gamma labels exactly")
    tables = [ops[g] for g in gamma]
    for g, t in zip(gamma, tables):
        # before the order closure, which costs n^2 memory and n^3 time
        if (not isinstance(t, list) or len(t) != n
                or any(not isinstance(row, list) or len(row) != n for row in t)):
            raise InputError(f"table {reprlib.repr(g)} is not {n}x{n}")

    leq_pairs = obj["leq"]
    if not isinstance(leq_pairs, list):
        raise InputError("leq must be a list of [a, b] pairs")
    for p in leq_pairs:
        if (not isinstance(p, list) or len(p) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) for x in p)):
            raise InputError(f"leq entry {reprlib.repr(p)} is not a pair of integers")
        a, b = p
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"leq pair {reprlib.repr(p)} outside 0..{n - 1}")
    rel = _order_closure(n, leq_pairs)
    for a in range(n):
        for b in range(a + 1, n):
            if rel[a][b] and rel[b][a]:
                raise InputError(
                    f"order closure violates antisymmetry: {a} <= {b} and {b} <= {a}")
    return Structure(n, gamma, tables, rel)


def dumps(s: Structure) -> str:
    return json.dumps(to_obj(s), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> Structure:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deep") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise InputError(f"unreadable JSON: {e}") from None
    return from_obj(obj)


def dump(s: Structure, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(s))
        f.write("\n")


def load(path) -> Structure:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    return loads(text)


def digest(s: Structure) -> str:
    """Hex digest of the canonical serialization; stable across runs."""
    import hashlib  # only here: its import costs every run
    return hashlib.sha256(dumps(s).encode("utf-8")).hexdigest()
