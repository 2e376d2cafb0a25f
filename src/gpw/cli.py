"""Command line surface: validate, analyze, check, campaign, search.

Every command builds one report tree; --json prints it as canonical
indented JSON, --text renders the same tree as indented lines.  Reports
are byte-identical across runs and across --jobs values, except for the
"timings" block, which is volatile by contract and must be ignored when
comparing runs.

Each `cmd_*` function returns its report sections, its exit code and the
digest of the structure it read (None when it read none); `main` times
the command and wraps and emits its report.

Exit codes: 0 success, 1 a checked claim failed, 2 bad input or usage,
3 a search exhausted its slice without finding a witness.

`gpw campaign` tallies each table of the walk from the masks of its
orbit's least table (`_campaign_unit`), and reads a table's items, so
tests its (table, order) pairs, only when --limit cuts it or a check
fails there.

Start-up loads only what the command runs: at module level this imports
the standard library, `__version__` and `core` (for the parser), and each
command imports the rest when it runs, so `gpw --version` loads no other
`gpw` module, `gpw validate` neither `explore` nor `harness`, and only
`gpw campaign` and `gpw search` load `tablewise`.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import reprlib
import sys
import time
from collections import Counter, deque
from functools import cache, partial
from itertools import islice

from . import __version__
from .core import _DEDUP_MODES, _ORDER_MODES, InputError, Structure, validate


def _slice(args) -> tuple:
    """The slice that `add_slice_flags` names, after one warning on stderr
    when it lies beyond the supported envelope, and its report keys."""
    from .explore import EnumSpec
    spec = EnumSpec(n=args.n, k=args.k, orders=args.orders, dedup=args.dedup)
    n, k = spec.n, spec.k
    if not ((n <= 3 and k <= 3) or (n <= 4 and k == 1)):
        print(f"warning: n={n}, k={k} is beyond the supported envelope "
              "(n <= 3 with k <= 3, or n <= 4 with k = 1); proceeding anyway",
              file=sys.stderr)
    return spec, {"n": n, "k": k, "orders": spec.orders, "dedup": spec.dedup}


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
    """The lines of a dict or list node, one per item: its head, `key:`
    or `-`, then the value as JSON, or the head alone and the value's own
    lines one level deeper when the value nests."""
    pad = "  " * indent
    items = (((f"{key}:", val) for key, val in node.items()) if isinstance(node, dict)
             else (("-", item) for item in node))
    lines = []
    for head, val in items:
        nested = isinstance(val, list) and any(isinstance(x, (dict, list)) for x in val)
        if nested or isinstance(val, dict) and val:
            lines.append(pad + head)
            lines.extend(_render_text(val, indent + 1))
        else:
            lines.append(f"{pad}{head} {_flat(val)}")
    return lines


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
    so a failed write leaves whatever was there before; its error names
    `path`, not the temporary file."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise exc if exc.filename is None else OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_valid(path: str) -> Structure:
    from .gpsjson import load
    s = load(path)
    rep = validate(s)
    if not rep.ok:
        raise InputError(
            "structure fails axioms: " + ", ".join(rep.axioms()))
    return s


# validate

def cmd_validate(args) -> tuple[dict, int, str | None]:
    from .gpsjson import digest, load
    s = load(args.path)
    rep = validate(s)
    sections = {
        "valid": rep.ok,
        "violated_axioms": rep.axioms(),
        "violations": [[name, list(w)] for name, w in rep.violations[:50]],
        "violation_count": len(rep.violations),
    }
    return sections, 0 if rep.ok else 2, digest(s)


# analyze

def _predicate_section(s: Structure) -> tuple[dict, dict]:
    from . import analysis
    preds = {name: bool(fn(s)) for name, fn in sorted(analysis.PREDICATES.items())}
    wits = {}
    for name, fail in (
            ("intra_regular", analysis.intra_regular_failure),
            ("intra_regular_legacy", analysis.intra_regular_legacy_failure),
            ("left_regular", analysis.left_regular_failure),
            ("right_regular", analysis.right_regular_failure)):
        w = fail(s)
        wits[name] = None if w is None else list(w)
    return preds, wits


def cmd_analyze(args) -> tuple[dict, int, str | None]:
    from .analysis import decompose, maximal_simple_subsemigroups
    from .gpsjson import digest
    from .ideals import IdealKind, all_filters, all_ideals, filter_gen, principal
    from .relations import relation_partition
    s = _load_valid(args.path)
    preds, wits = _predicate_section(s)
    per_element = {}
    for x in range(s.n):
        per_element[str(x)] = {
            "principal_left": principal(s, x, IdealKind.LEFT).elements(),
            "principal_right": principal(s, x, IdealKind.RIGHT).elements(),
            "principal_two_sided": principal(s, x, IdealKind.TWO_SIDED).elements(),
            "filter": filter_gen(s, x).elements(),
        }
    ideal_lists = {
        kind.value: [a.elements() for a in all_ideals(s, kind)]
        for kind in (IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED)
    }
    partitions = {which: relation_partition(s, which).as_lists()
                  for which in ("L", "R", "I", "N")}
    dec = decompose(s)
    chain_order = dec.quotient_chain()
    decomposition = {
        "blocks": dec.partition.as_lists(),
        "classes": [{
            "block": v.block.elements(),
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
        "filters": [f.elements() for f in all_filters(s)],
        "partitions": partitions,
        "decomposition": decomposition,
        "maximal_simple_subsemigroups":
            [t.elements() for t in maximal_simple_subsemigroups(s)],
    }
    return sections, 0, digest(s)


# check

def _parse_theorems(text: str) -> tuple[str, ...]:
    from .harness import THEOREM_IDS
    if text == "all":
        return THEOREM_IDS
    wanted = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not wanted:
        raise InputError("no theorem ids given")
    for i, tid in enumerate(wanted):
        if tid not in THEOREM_IDS:
            raise InputError(f"unknown theorem id {reprlib.repr(tid)}; known: "
                             + ", ".join(THEOREM_IDS))
        if tid in wanted[:i]:
            raise InputError(f"theorem id {reprlib.repr(tid)} given more than once")
    return wanted


def cmd_check(args) -> tuple[dict, int, str | None]:
    from .gpsjson import digest
    from .harness import check
    tids = _parse_theorems(args.theorems)
    s = _load_valid(args.path)
    verdicts = [check(s, tid) for tid in tids]
    ok = all(v.equivalent for v in verdicts)
    sections = {
        "theorems": list(tids),
        "verdicts": [v.as_dict() for v in verdicts],
        "all_equivalent": ok,
    }
    return sections, 0 if ok else 1, digest(s)


# campaign

@cache
def _campaign_modules() -> tuple:
    """The modules a campaign unit reads, imported once per process."""
    from . import gpsjson, harness, tablewise
    return gpsjson, harness, tablewise


def _campaign_unit(s: Structure, tids: tuple, orders: str = "all") -> tuple:
    """From `tablewise.forms` of the table of s over the list of order mode
    `orders`: the agreement mask of the checks `tids`, and the mask of each
    name of `PREDICATES`, sorted.  A campaign runs it on each least table."""
    forms = _campaign_modules()[2].forms(s, orders)
    return forms.agreement(tids), tuple(mask for _, mask in forms.predicates)


def _tally(names: list, masks: tuple, domain: int) -> tuple[dict, dict]:
    """Over the orders of `domain`: per name, how many its mask holds, and
    per set of names, "+"-joined or "(none)", how many hold those alone."""
    groups = {(): domain}  # per set of the names so far, the orders under which those alone hold
    for name, mask in zip(names, masks):
        groups = {key: orders for held, rest in groups.items()
                  for key, orders in (((*held, name), rest & mask), (held, rest & ~mask))
                  if orders}
    return ({name: (mask & domain).bit_count() for name, mask in zip(names, masks)},
            {"+".join(held) or "(none)": orders.bit_count() for held, orders in groups.items()})


def _failure(s: Structure, tids: tuple, orders: str) -> dict:
    """The failure record of s, on its orbit's least table: each check
    whose bit of s is clear runs on s (`harness.check`) for its verdict,
    and an equivalent one is an error, as the two paths disagree."""
    gpsjson, harness, tablewise = _campaign_modules()
    forms = tablewise.forms(s, orders)
    p = forms.position[s.leq]
    bad = []
    for tid in tids:
        if not forms.check(tid)[1] >> p & 1:
            v = harness.check(s, tid)
            if v.equivalent:
                raise RuntimeError(f"{tid}: the table's masks fail structure {gpsjson.digest(s)}, "
                                   "which its own check passes")
            bad.append(v.as_dict())
    return {"structure": gpsjson.to_obj(s), "digest": gpsjson.digest(s), "verdicts": bad}


def cmd_campaign(args) -> tuple[dict, int, str | None]:
    from .explore import PREDICATES, _gamma_names, _limit, _walk
    spec, corpus = _slice(args)
    tids = _parse_theorems(args.theorems)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    entries, walk = _walk(spec)
    left = math.inf if _limit(args.limit) is None else args.limit  # structures still to read
    n, gamma, names = spec.n, _gamma_names(spec.k), sorted(PREDICATES)
    unit = partial(_campaign_unit, tids=tids, orders=spec.orders)
    orbits = {}  # per orbit c, its least table's masks and their tally over its domain

    def structure(tables: tuple, p: int) -> Structure:
        return Structure._unchecked(n, gamma, tables, *entries[p], {})

    def least(table: tuple) -> Structure:  # on the orbit's least table, its first
        return structure(table[0], (table[2] & -table[2]).bit_length() - 1)

    def inline():
        for table in walk:
            if table[1] not in orbits:
                masks = unit(least(table))
                orbits[table[1]] = (*masks, _tally(names, masks[1], table[2]))
            yield table

    def pooled(pool):
        # the pool's feeder thread reads the walk ahead, queueing each table
        # before it hands on a least table, so its masks find it queued
        queue = deque()

        def leasts():
            top = -1
            for table in walk:
                queue.append(table)
                if table[1] > top:
                    top = table[1]
                    yield least(table)

        for masks in pool.imap(unit, leasts()):
            table = queue.popleft()
            while table[1] in orbits:  # a table of an earlier orbit
                yield table
                table = queue.popleft()
            orbits[table[1]] = (*masks, _tally(names, masks[1], table[2]))
            yield table
        yield from queue  # the walk has ended

    structures, failure = 0, None
    pred_counts, combos = Counter(dict.fromkeys(names, 0)), Counter()
    pool = None
    if args.jobs > 1:
        from multiprocessing import Pool  # only here: its import costs every run
        _campaign_modules()  # imported once, before the workers fork
        pool = Pool(processes=min(args.jobs, os.cpu_count() or 1))
    try:
        for tables, c, domain, items in () if not left else pooled(pool) if pool else inline():
            agree, preds, tally = orbits[c]
            count = domain.bit_count()
            if count > left or domain & ~agree:  # read the items, up to the cut or a failure
                read = 0
                for p, o in islice(items, min(count, left)):
                    read |= 1 << o
                    if not agree >> o & 1:
                        failure = _failure(structure(tables, p), tids, spec.orders)
                        break
                count, tally = read.bit_count(), _tally(names, preds, read)
            structures += count
            left -= count
            pred_counts.update(tally[0])
            combos.update(tally[1])
            if failure is not None or not left:
                break
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    sections = {
        "corpus": {**corpus, "limit": args.limit, "theorems": list(tids)},
        "structures": structures,
        "all_equivalent": failure is None,
        "first_failure": failure,
        "predicate_counts": dict(pred_counts),
        "combination_tally": dict(sorted(combos.items())),
    }
    return sections, 0 if failure is None else 1, None


# search

def cmd_search(args) -> tuple[dict, int, str | None]:
    from .explore import search
    from .gpsjson import to_obj
    spec, corpus = _slice(args)
    # the first hit or None, the list of hits, or their count
    found = search(spec, args.expr, args.mode)
    sections = {"corpus": corpus, "expr": args.expr, "mode": args.mode}
    if args.mode == "count":
        sections["count"] = found
        return sections, 0, None
    sections["found"] = bool(found)
    if args.mode == "first":
        sections["witness"] = None if found is None else to_obj(found)
    else:
        sections["witnesses"] = [to_obj(s) for s in found]
    return sections, 0 if found else 3, None


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

    def add_slice_flags(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--orders", default="all", choices=_ORDER_MODES)
        sp.add_argument("--dedup", default="labeled", choices=_DEDUP_MODES)

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
                    help="comma separated distinct theorem ids, or 'all'")
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("campaign",
                        help="enumerate a slice and run all checks on it")
    add_slice_flags(sp)
    sp.add_argument("--theorems", default="all")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None)
    add_output_flags(sp)
    sp.set_defaults(fn=cmd_campaign)

    sp = sub.add_parser("search",
                        help="hunt a slice for a predicate expression")
    add_slice_flags(sp)
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
    t0 = time.perf_counter()
    try:
        # before a command that may take minutes; the last two raise what its write would
        if args.out == "":  # `_emit` reads "" as stdout
            raise InputError("--out needs a file name")
        if args.out and os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        sections, code, structure_digest = args.fn(args)
        timings = {"total_s": round(time.perf_counter() - t0, 6)}
        _emit(_report(args.command, sections, timings, structure_digest), args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    sys.exit(main())
