"""Command line surface: validate, analyze, check, campaign, search.

Every command builds one report tree; --json prints it as canonical
indented JSON, --text renders the same tree as indented lines.  Reports
are byte-identical across runs and across --jobs values, except for the
"timings" block, which is volatile by contract and must be ignored when
comparing runs.

Exit codes: 0 success, 1 a checked claim failed, 2 bad input or usage,
3 a search exhausted its slice without finding a witness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from multiprocessing import Pool

from . import __version__
from .analysis import (decompose, intra_regular_failure,
                       intra_regular_legacy_failure, left_regular_failure,
                       maximal_simple_subsemigroups, right_regular_failure)
from .core import InputError, Structure, validate
from .explore import (EnumSpec, PREDICATES, enumerate_structures, parse_expr,
                      search as run_search)
from .gpsjson import digest, load, to_obj
from .harness import THEOREM_IDS, check
from .ideals import IdealKind, all_filters, all_ideals, filter_gen, principal
from .relations import relation_partition


def _warn_beyond_envelope(n: int, k: int) -> None:
    if not ((n <= 3 and k <= 2) or (n <= 4 and k == 1)):
        print(f"warning: n={n}, k={k} is beyond the supported envelope "
              "(n <= 3 with k <= 2, or n <= 4 with k = 1); proceeding anyway",
              file=sys.stderr)


def _report(command: str, sections: dict, timings: dict,
            structure_digest: str | None = None) -> dict:
    rep = {
        "report_version": "report_v1",
        "tool_version": __version__,
        "command": command,
        "sections": sections,
        "timings": timings,
    }
    if structure_digest is not None:
        rep["structure_digest"] = structure_digest
    return rep


def _render_text(node, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(node, dict):
        for key in node:
            val = node[key]
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(val)}")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(item)}")
    else:
        lines.append(f"{pad}{_flat(node)}")
    return lines


def _is_flat(val) -> bool:
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val)
    return not isinstance(val, (dict, list))


def _flat(val) -> str:
    return json.dumps(val, sort_keys=True)


def _emit(report: dict, args) -> None:
    if getattr(args, "text", False):
        out = "\n".join(_render_text(report)) + "\n"
    else:
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        _write_atomic(args.out, out)
    else:
        sys.stdout.write(out)


def _write_atomic(path: str, text: str) -> None:
    """Write a temporary file next to `path`, then rename it over `path`,
    so a failed write leaves whatever was there before."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_valid(path: str) -> Structure:
    s = load(path)
    rep = validate(s)
    if not rep.ok:
        raise InputError(
            "structure fails axioms: " + ", ".join(rep.axioms()))
    return s


def _elements(bits_subset) -> list[int]:
    return bits_subset.elements()


# validate

def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    s = load(args.path)
    rep = validate(s)
    sections = {
        "valid": rep.ok,
        "violated_axioms": rep.axioms(),
        "violations": [[name, list(w)] for name, w in rep.violations[:50]],
        "violation_count": len(rep.violations),
    }
    report = _report("validate", sections,
                     {"total_s": round(time.perf_counter() - t0, 6)},
                     digest(s))
    _emit(report, args)
    return 0 if rep.ok else 2


# analyze

def _predicate_section(s: Structure) -> tuple[dict, dict]:
    preds = {name: bool(fn(s)) for name, fn in sorted(PREDICATES.items())}
    wits = {}
    for name, fail in (
            ("intra_regular", intra_regular_failure),
            ("intra_regular_legacy", intra_regular_legacy_failure),
            ("left_regular", left_regular_failure),
            ("right_regular", right_regular_failure)):
        w = fail(s)
        wits[name] = None if w is None else list(w)
    return preds, wits


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    s = _load_valid(args.path)
    preds, wits = _predicate_section(s)
    per_element = {}
    for x in range(s.n):
        per_element[str(x)] = {
            "principal_left": _elements(principal(s, x, IdealKind.LEFT)),
            "principal_right": _elements(principal(s, x, IdealKind.RIGHT)),
            "principal_two_sided": _elements(principal(s, x, IdealKind.TWO_SIDED)),
            "filter": _elements(filter_gen(s, x)),
        }
    ideal_lists = {
        kind.value: [_elements(a) for a in all_ideals(s, kind)]
        for kind in (IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED)
    }
    partitions = {which: relation_partition(s, which).as_lists()
                  for which in ("L", "R", "I", "N")}
    dec = decompose(s)
    chain_order = dec.quotient_chain()
    decomposition = {
        "blocks": dec.partition.as_lists(),
        "classes": [{
            "block": _elements(v.block),
            "is_subsemigroup": v.is_subsemigroup,
            "is_simple": v.is_simple,
            "is_left_simple": v.is_left_simple,
        } for v in dec.class_verdicts],
        "is_semilattice_congruence": dec.is_semilattice_congruence,
        "is_semilattice_of_simple": dec.is_semilattice_of_simple,
        "is_chain_of_simple": dec.is_chain_of_simple,
        "chain_failure": (None if dec.chain_witness_failure is None
                          else list(dec.chain_witness_failure)),
        "quotient_chain": (None if chain_order is None else
                           [dec.partition.as_lists()[i] for i in chain_order]),
    }
    sections = {
        "n": s.n,
        "gamma": list(s.gamma_names),
        "predicates": preds,
        "predicate_witnesses": wits,
        "elements": per_element,
        "ideals": ideal_lists,
        "filters": [_elements(f) for f in all_filters(s)],
        "partitions": partitions,
        "decomposition": decomposition,
        "maximal_simple_subsemigroups":
            [_elements(t) for t in maximal_simple_subsemigroups(s)],
    }
    report = _report("analyze", sections,
                     {"total_s": round(time.perf_counter() - t0, 6)},
                     digest(s))
    _emit(report, args)
    return 0


# check

def _parse_theorems(text: str) -> tuple[str, ...]:
    if text == "all":
        return THEOREM_IDS
    wanted = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not wanted:
        raise InputError("no theorem ids given")
    for tid in wanted:
        if tid not in THEOREM_IDS:
            raise InputError(f"unknown theorem id {tid!r}; known: "
                             + ", ".join(THEOREM_IDS))
    return wanted


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    tids = _parse_theorems(args.theorems)
    s = _load_valid(args.path)
    verdicts = [check(s, tid) for tid in tids]
    ok = all(v.equivalent for v in verdicts)
    sections = {
        "theorems": list(tids),
        "verdicts": [v.as_dict() for v in verdicts],
        "all_equivalent": ok,
    }
    report = _report("check", sections,
                     {"total_s": round(time.perf_counter() - t0, 6)},
                     digest(s))
    _emit(report, args)
    return 0 if ok else 1


# campaign

def _campaign_unit(job) -> tuple:
    payload, tids = job
    s = Structure(*payload)
    preds = tuple(name for name, fn in sorted(PREDICATES.items()) if fn(s))
    verdicts = [check(s, tid) for tid in tids]
    bad = [v.as_dict() for v in verdicts if not v.equivalent]
    return payload, preds, bad


def _campaign_jobs(spec: EnumSpec, tids, limit):
    return (((s.n, s.gamma_names, s.tables, s.leq), tids)
            for s in enumerate_structures(spec, limit=limit))


def cmd_campaign(args) -> int:
    t0 = time.perf_counter()
    spec = EnumSpec(n=args.n, k=args.k, orders=args.orders, dedup=args.dedup)
    tids = _parse_theorems(args.theorems)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = _campaign_jobs(spec, tids, args.limit)
    _warn_beyond_envelope(args.n, args.k)
    structures = 0
    pred_counts = {name: 0 for name in sorted(PREDICATES)}
    combos: dict[str, int] = {}
    failure = None
    if args.jobs > 1:
        pool = Pool(processes=args.jobs)
        stream = pool.imap(_campaign_unit, jobs, chunksize=8)
    else:
        pool = None
        stream = map(_campaign_unit, jobs)
    try:
        for payload, preds, bad in stream:
            structures += 1
            for name in preds:
                pred_counts[name] += 1
            key = "+".join(preds) if preds else "(none)"
            combos[key] = combos.get(key, 0) + 1
            if bad:
                s = Structure(*payload)
                failure = {
                    "structure": to_obj(s),
                    "digest": digest(s),
                    "verdicts": bad,
                }
                break
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    sections = {
        "corpus": {
            "n": spec.n, "k": spec.k, "orders": spec.orders,
            "dedup": spec.dedup,
            "limit": args.limit,
            "theorems": list(tids),
        },
        "structures": structures,
        "all_equivalent": failure is None,
        "first_failure": failure,
        "predicate_counts": pred_counts,
        "combination_tally": dict(sorted(combos.items())),
    }
    report = _report("campaign", sections,
                     {"total_s": round(time.perf_counter() - t0, 6)})
    _emit(report, args)
    return 0 if failure is None else 1


# search

def cmd_search(args) -> int:
    t0 = time.perf_counter()
    spec = EnumSpec(n=args.n, k=args.k, orders=args.orders, dedup=args.dedup)
    expr = parse_expr(args.expr)
    if args.mode not in ("first", "all", "count"):
        raise InputError("mode must be first, all or count")
    _warn_beyond_envelope(args.n, args.k)
    sections = {
        "corpus": {"n": spec.n, "k": spec.k, "orders": spec.orders,
                   "dedup": spec.dedup},
        "expr": args.expr,
        "mode": args.mode,
    }
    code = 0
    if args.mode == "count":
        sections["count"] = run_search(spec, expr, "count")
    elif args.mode == "first":
        hit = run_search(spec, expr, "first")
        sections["found"] = hit is not None
        sections["witness"] = None if hit is None else to_obj(hit)
        if hit is None:
            code = 3
    else:
        hits = run_search(spec, expr, "all")
        sections["found"] = bool(hits)
        sections["witnesses"] = [to_obj(h) for h in hits]
        if not hits:
            code = 3
    report = _report("search", sections,
                     {"total_s": round(time.perf_counter() - t0, 6)})
    _emit(report, args)
    return code


# wiring

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gpw",
        description="Workbench for finite ordered Gamma-semigroups.")
    p.add_argument("--version", action="version", version=f"gpw {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_output_flags(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--json", dest="text", action="store_false",
                       default=False, help="JSON report (default)")
        g.add_argument("--text", dest="text", action="store_true",
                       help="plain text rendering of the report")
        sp.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")

    sp = sub.add_parser("validate", help="check the axioms of a GPS-JSON file")
    sp.add_argument("path")
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("analyze", help="full structure report")
    sp.add_argument("path")
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("check", help="run claim checks on one structure")
    sp.add_argument("path")
    sp.add_argument("--theorems", default="all",
                    help="comma separated theorem ids, or 'all'")
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("campaign",
                        help="enumerate a slice and run all checks on it")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--orders", default="all",
                    choices=("all", "trivial", "total"))
    sp.add_argument("--dedup", default="labeled", choices=("labeled", "iso"))
    sp.add_argument("--theorems", default="all")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None)
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_campaign)

    sp = sub.add_parser("search",
                        help="hunt a slice for a predicate expression")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--orders", default="all",
                    choices=("all", "trivial", "total"))
    sp.add_argument("--dedup", default="labeled", choices=("labeled", "iso"))
    sp.add_argument("--expr", required=True,
                    help="predicate expression, e.g. 'intra_regular & !simple'")
    sp.add_argument("--mode", default="first", choices=("first", "all", "count"))
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_search)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
