"""Traced run of one workload: per-layer counts, self times and spans.

The tracer wraps module-level functions of each `gpw` layer from the
outside.  Every binding of a wrapped function is replaced, in every `gpw`
module that imported it by name (`product_bits` lives separately in
`core`, `ideals`, `analysis` and `harness`, `check` in `cli` and
`harness`), so nothing under `src/gpw` changes.

Three kinds of wrapper:

- timed: call count and self time.  Self time is the time inside the
  call minus the time spent in other timed wrappers called from inside,
  so self times of all timed functions add up to at most the
  traced wall time.  Each wrapped call pays a fixed cost, which inflates
  functions called millions of times; read self times as shares.
- counted: call count only, for functions whose time belongs to the
  caller (the fill's `_cell_ok`, `_prime_bits`, ...).
- spans: one span per structure (the campaign unit, the sample loop body)
  with child spans per claim check and per predicate; spans of one
  structure share a trace id.  Kernels stay aggregated because there are
  millions of calls.

Counts are exact and repeat from run to run; times do not.

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json \
        --argv '["search", "--n", "3", "--k", "1", "--expr", "simple"]'
    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json --seed 7 --m 20
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import statistics
import sys
from time import perf_counter

from gpw import analysis, cli, core, explore, gpsjson, harness, ideals, relations

import sample_loop
from run import sections_sha256


class Tracer:
    """Per-function statistics plus a span list, all kept in memory."""

    def __init__(self) -> None:
        # name -> [calls, self_s, tally]; see `timed`
        self.stats: dict[str, list] = {}
        # name -> [calls]
        self.counts: dict[str, list] = {}
        # child-time accumulators of the timed calls now open
        self._stack = [0.0]
        # (trace_id, span_id, parent_span_id, name, start_s, end_s)
        self.spans: list[tuple] = []
        self._root: tuple | None = None  # (trace_id, span_id) of the open structure span
        self._next_span = 0
        self._next_trace = 0
        self._last_structure = None
        self.sample_cell_ok = 0
        self.sample_cells = 0

    # wrappers

    def timed(self, name: str, fn, tally=None):
        """Wrap fn with call count and self time.

        `tally(result)` is added to the third statistic when given: a
        truth value for filters, a length for functions returning lists.
        """
        st = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                st[0] += 1
                st[1] += dt - child
            if tally is not None:
                st[2] += tally(out)
            return out
        return wrapper

    def span(self, fn, label, root: bool = False):
        """Like `timed`, and also record a span.

        A root span opens a new trace id (one per structure); other spans
        join the open root, or, outside any root, the trace id of the
        structure passed as their first argument.  `label` is the span
        name, or a function of the call arguments that gives it.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._root
            span_id = self._next_span
            self._next_span += 1
            name = label(args, kwargs) if callable(label) else label
            if root:
                trace_id, parent = self._new_trace(), None
                self._root = (trace_id, span_id)
            elif outer is not None:
                trace_id, parent = outer
            else:
                if args[0] is not self._last_structure:
                    self._last_structure = args[0]
                    self._new_trace()
                trace_id, parent = self._next_trace - 1, None
            st = self.stats.setdefault(name, [0, 0.0, 0])
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                stack[-1] += t1 - t0
                st[0] += 1
                st[1] += t1 - t0 - child
                self.spans.append((trace_id, span_id, parent, name, t0, t1))
                self._root = outer
        return wrapper

    def _new_trace(self) -> int:
        self._next_trace += 1
        return self._next_trace - 1

    def counted(self, name: str, fn):
        st = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed_generator(self, name: str, genfn):
        """Time only the generator's own steps, not its consumer's work;
        the third statistic counts the items it yields."""
        st = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack

        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            it = genfn(*args, **kwargs)
            try:
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        child = stack.pop()
                        stack[-1] += dt
                        st[1] += dt - child
                    st[2] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def sampler(self, fn):
        """Time the sampler and attribute the cell checks it makes to it."""
        timed = self.timed("explore.sample", fn)
        cell_ok = self.counts["explore.cell_ok"]

        @functools.wraps(fn)
        def wrapper(n, k, *args, **kwargs):
            before = cell_ok[0]
            out = timed(n, k, *args, **kwargs)
            self.sample_cell_ok += cell_ok[0] - before
            self.sample_cells += k * n * n
            return out
        return wrapper

    # installation

    def install(self) -> None:
        T, C = self.timed, self.counted
        patch = _patch  # rebinding by identity reaches every importer
        patch(core.product_bits, T("core.product_bits", core.product_bits))
        patch(core.downset_bits, T("core.downset_bits", core.downset_bits))
        patch(core.validate, T("core.validate", core.validate))
        core.Structure.__init__ = T("core.structure", core.Structure.__init__)

        patch(explore._associative_tables,
              self.timed_generator("explore.fill", explore._associative_tables))
        patch(explore._cell_ok, C("explore.cell_ok", explore._cell_ok))
        patch(explore.partial_orders, T("explore.orders", explore.partial_orders, len))
        patch(explore._compatible, T("explore.compat", explore._compatible, bool))
        patch(explore._is_canonical, T("explore.iso", explore._is_canonical, bool))
        patch(explore.random_structure, self.sampler(explore.random_structure))
        for name, fn in list(explore.PREDICATES.items()):
            explore.PREDICATES[name] = self.span(fn, f"explore.predicate.{name}")

        patch(ideals._all_ideal_bits, T("ideals.all_ideal_bits", ideals._all_ideal_bits))
        patch(ideals._filter_gen_bits,
              T("ideals.filter_gen_bits", ideals._filter_gen_bits))
        patch(ideals._prime_bits, C("ideals.prime_bits", ideals._prime_bits))
        patch(ideals._weakly_prime_bits,
              T("ideals.weakly_prime_bits", ideals._weakly_prime_bits))

        patch(relations.relation_partition,
              T("relations.relation_partition", relations.relation_partition))
        patch(relations.all_partitions,
              C("relations.all_partitions", relations.all_partitions))
        patch(relations.is_semilattice_congruence,
              C("relations.semilattice_congruence", relations.is_semilattice_congruence))

        patch(analysis.decompose, T("analysis.decompose", analysis.decompose))
        patch(analysis._simple_bits, C("analysis.simple_bits", analysis._simple_bits))
        patch(analysis.maximal_simple_subsemigroups,
              T("analysis.maximal_simple", analysis.maximal_simple_subsemigroups))

        patch(harness.check, self.span(harness.check, _check_label))

        patch(gpsjson.dumps, T("gpsjson.dumps", gpsjson.dumps))
        patch(gpsjson.loads, T("gpsjson.loads", gpsjson.loads))

        patch(cli._campaign_unit, self.span(cli._campaign_unit, "cli.campaign_unit", root=True))
        patch(cli._emit, T("cli.emit", cli._emit))
        patch(sample_loop.one_structure,
              self.span(sample_loop.one_structure, "sample.structure", root=True))

    # results

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by metric name; see perfbench/README.md."""
        cnt = self.counts

        def st(name):  # spans that never fired have no entry
            return self.stats.get(name, [0, 0.0, 0])

        def calls(name):
            return st(name)[0]

        def self_s(name):
            return st(name)[1]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        m["core.product_bits.calls"] = calls("core.product_bits")
        m["core.product_bits.s"] = self_s("core.product_bits")
        m["core.downset_bits.calls"] = calls("core.downset_bits")
        m["core.downset_bits.s"] = self_s("core.downset_bits")
        m["core.structure.count"] = calls("core.structure")
        m["core.structure.s"] = self_s("core.structure")
        m["core.validate.calls"] = calls("core.validate")
        m["core.validate.s"] = self_s("core.validate")

        m["explore.fill.s"] = self_s("explore.fill")
        m["explore.fill.tables"] = st("explore.fill")[2]
        m["explore.cell_ok.calls"] = cnt["explore.cell_ok"][0]
        m["explore.orders.s"] = self_s("explore.orders")
        m["explore.orders.count"] = st("explore.orders")[2]
        m["explore.compat.s"] = self_s("explore.compat")
        m["explore.compat.tests"] = calls("explore.compat")
        m["explore.compat.accept_ratio"] = ratio(st("explore.compat")[2],
                                                 calls("explore.compat"))
        m["explore.iso.s"] = self_s("explore.iso")
        m["explore.iso.tests"] = calls("explore.iso")
        m["explore.iso.accept_ratio"] = ratio(st("explore.iso")[2], calls("explore.iso"))
        m["explore.sample.s"] = self_s("explore.sample")
        m["explore.sample.cell_ok_calls"] = self.sample_cell_ok
        m["explore.sample.useful_ratio"] = ratio(self.sample_cells, self.sample_cell_ok)
        for name in sorted(explore.PREDICATES):
            m[f"explore.predicate.{name}.s"] = self_s(f"explore.predicate.{name}")

        m["ideals.all_ideal_bits.s"] = self_s("ideals.all_ideal_bits")
        m["ideals.filter_gen_bits.s"] = self_s("ideals.filter_gen_bits")
        m["ideals.prime_bits.calls"] = cnt["ideals.prime_bits"][0]
        m["ideals.weakly_prime_bits.s"] = self_s("ideals.weakly_prime_bits")

        m["relations.relation_partition.s"] = self_s("relations.relation_partition")
        m["relations.all_partitions.sweeps"] = cnt["relations.all_partitions"][0]
        m["relations.semilattice_congruence.calls"] = cnt["relations.semilattice_congruence"][0]

        m["analysis.decompose.s"] = self_s("analysis.decompose")
        m["analysis.simple_bits.calls"] = cnt["analysis.simple_bits"][0]
        m["analysis.maximal_simple.s"] = self_s("analysis.maximal_simple")

        for tid in harness.THEOREM_IDS:
            m[f"harness.{tid}.s"] = self_s(f"harness.{tid}")
        ms = self.structure_check_ms() or [0.0]
        m["harness.structure_ms.p50"] = statistics.median(ms)
        m["harness.structure_ms.p99"] = (
            statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0])

        m["gpsjson.dumps.s"] = self_s("gpsjson.dumps")
        m["gpsjson.loads.s"] = self_s("gpsjson.loads")
        m["cli.campaign_unit.s"] = self_s("cli.campaign_unit")
        m["cli.emit.s"] = self_s("cli.emit")
        return m

    def structure_check_ms(self) -> list[float]:
        """Per structure, the wall time of its claim checks in ms."""
        per: dict[int, float] = {}
        for trace_id, _, _, label, t0, t1 in self.spans:
            if label.startswith("harness."):
                per[trace_id] = per.get(trace_id, 0.0) + (t1 - t0) * 1e3
        return list(per.values())

    def exact_counts(self) -> dict:
        """Every count the run produced; two runs of one workload agree."""
        out = {name: [v[0], v[2]] for name, v in sorted(self.stats.items())}
        out.update({name: v[0] for name, v in sorted(self.counts.items())})
        out["spans"] = len(self.spans)
        out["sample.cell_ok"] = self.sample_cell_ok
        return out


def _patch(original, replacement) -> None:
    """Rebind every module-level name in `gpw` that refers to `original`."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gpw" or modname.startswith("gpw.")
                               or modname == "sample_loop"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"nothing is bound to {original!r}")


def _check_label(args, kwargs) -> str:
    tid = args[1] if len(args) > 1 else kwargs["theorem_id"]
    return f"harness.{tid}"


def run_traced(argv: list[str] | None, seed: str, m: int) -> dict:
    """Run one workload under the tracer and return what it measured:
    the CLI with `argv` when given, else the sample loop's first M."""
    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    if argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        report = json.loads(buf.getvalue())
        result = {"exit_code": code, "sections_sha256": sections_sha256(report)}
    else:
        result = {"exit_code": 0, "sample": sample_loop.run_sample(seed, 0, m)}
    result["traced_s"] = perf_counter() - t0
    result["metrics"] = tracer.layer_metrics()
    result["counts"] = tracer.exact_counts()
    result["spans"] = tracer.spans
    return result


def main() -> None:
    p = argparse.ArgumentParser(description="Run one workload under the tracer.")
    p.add_argument("--argv", help="CLI arguments as a JSON list (campaign, search)")
    p.add_argument("--seed", default="0")
    p.add_argument("--m", type=int, default=0, help="sample size (sample loop)")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    argv = json.loads(args.argv) if args.argv else None
    result = run_traced(argv, args.seed, args.m)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
