"""The sample-n4k2 workload: a library loop over seeded random structures.

For START <= i < START + M it samples
`random_structure(4, 2, seed=f"{seed}:{i}")`, sends it through `dumps` /
`loads`, validates the loaded copy, evaluates the 14 predicates and runs
the whole claim catalogue on it.  A structure fails
when the loaded copy violates an axiom, when `dumps(loads(dumps(s)))`
differs from `dumps(s)`, when any verdict is not equivalent, or when any
step raises.

Run as a script it prints one JSON summary line:

    PYTHONPATH=src python3 perfbench/sample_loop.py --seed 7 --start 0 --m 100

`gpw` is looked up through module attributes at call time, so the traced
run sees the same calls through its wrappers.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from gpw import core, explore, gpsjson, harness

N, K = 4, 2


def one_structure(seed: str, i: int) -> tuple[bool, str]:
    """Sample, round-trip and check structure i; return (ok, record)."""
    s = explore.random_structure(N, K, seed=f"{seed}:{i}")
    text = gpsjson.dumps(s)
    back = gpsjson.loads(text)
    valid = core.validate(back).ok
    stable = gpsjson.dumps(back) == text
    preds = {name: bool(fn(back))
             for name, fn in sorted(explore.PREDICATES.items())}
    verdicts = [v.as_dict() for v in harness.check_all(back)]
    equivalent = all(v["equivalent"] for v in verdicts)
    record = json.dumps([text, preds, verdicts], sort_keys=True)
    return valid and stable and equivalent, record


def run_sample(seed: str, start: int, m: int) -> dict:
    """Check M structures; the corpus digest covers every record in order."""
    corpus = hashlib.sha256()
    failures = []
    for i in range(start, start + m):
        try:
            ok, record = one_structure(seed, i)
        except Exception as exc:  # one bad structure must not hide the rest
            ok, record = False, f"error: {type(exc).__name__}: {exc}"
        corpus.update(record.encode("utf-8"))
        if not ok:
            failures.append({"i": i, "record": record[:500]})
    return {"structures": m, "failed": len(failures),
            "failures": failures[:5], "corpus_sha256": corpus.hexdigest()}


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--m", type=int, required=True)
    args = p.parse_args(argv)
    print(json.dumps(run_sample(args.seed, args.start, args.m), sort_keys=True))


if __name__ == "__main__":
    main()
