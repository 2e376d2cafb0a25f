"""gpw benchmark runner: one workload, one run, one JSON line at the end.

    python3 perfbench/run.py --workload campaign-n4k1-head --seed 1 \
        --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory,
and `gpw` is imported from its `src`.  Every measured unit of work runs in
a fresh child process (perfbench/child.py), one at a time, and is
accounted outside-in: wall time around the child, CPU time and peak RSS
from `os.wait4` on that child alone (`RUSAGE_CHILDREN` would report the
largest peak of every child reaped so far).  The child calls
`gpw.cli.main` itself, because the package is not installed and has no
`__main__`, so the same benchmark code measures any commit.

The child also samples the machine's speed (see child.py), and the time
metrics are seconds at reference speed: the speed at which the probe
loop takes REF_PROBE_S.  The raw wall and CPU times go to the result file
next to them.

With `--trace 0` the set-up measurement and then repetitions of the
workload fill the `--seconds` window, and the run reports the end-to-end
metrics of BENCHMARK.json over the repetitions.  With `--trace 1` it runs
the workload once untraced and twice under perfbench/tracer.py and
reports the per-layer metrics.  Every output is checked against
perfbench/golden.json; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

CHILD = HERE / "child.py"
SEARCH_EXPR = "intra_regular_legacy & !intra_regular"

CAMPAIGN_LIMIT = 1000   # first N structures of n4k1 in enumeration order
SAMPLE_M = 100          # structures per sample-n4k2 repetition; each
                        # repetition takes the next M, because the sampler's
                        # cost per structure is heavy-tailed
SAMPLE_REP_S = 3        # a run of --seconds S makes S // 3 sample repetitions
SEARCH_CANDIDATES = 107_688  # labeled n4k1 structures the iso search walks

SETUP_REPS = 7
# Probe time at reference speed: the fast phase of a 2-vCPU x86-64 VM on a
# shared host, CPython 3.11.7.  It only sets the unit of the time metrics.
REF_PROBE_S = 0.0003
RUN_BUDGET_S = 170.0    # a run must end well within 180 s
WORKLOADS = ("campaign-n4k1-head", "search-n4k1-iso", "sample-n4k2")


class BenchError(RuntimeError):
    """The benchmark cannot run here at all."""


def cli_argv(workload: str) -> list[str] | None:
    """CLI arguments of a CLI workload; None for the library loop."""
    if workload == "campaign-n4k1-head":
        return ["campaign", "--n", "4", "--k", "1", "--jobs", "1",
                "--limit", str(CAMPAIGN_LIMIT)]
    if workload == "search-n4k1-iso":
        return ["search", "--n", "4", "--k", "1", "--dedup", "iso",
                "--expr", SEARCH_EXPR]
    return None


def structures_per_unit(workload: str) -> int:
    return {"campaign-n4k1-head": CAMPAIGN_LIMIT,
            "search-n4k1-iso": SEARCH_CANDIDATES,
            "sample-n4k2": SAMPLE_M}[workload]


def sections_sha256(report: dict) -> str:
    """Digest of a report's sections; `timings` is volatile by contract."""
    text = json.dumps(report["sections"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# child processes

class Runner:
    """Starts children one at a time and accounts each with os.wait4."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, cmd: list[str], probe: Path | None = None) -> dict:
        """Run `cmd` to its end.  With `probe`, the file the child writes
        its probe times to, also convert wall and CPU time to reference
        speed (`ref_wall_s`, `ref_cpu_s`; None when there are no samples)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            raise BenchError("run budget exhausted before the next child")
        with tempfile.TemporaryFile(dir=RESULTS) as out, \
                tempfile.TemporaryFile(dir=RESULTS) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            child = {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
                "exit_code": proc.returncode,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")[-2000:],
            }
        if probe is not None:
            child.update(reference_speed(child["wall_s"], child["cpu_s"], probe))
        return child


def reference_speed(wall: float, cpu: float, probe: Path) -> dict:
    """Wall and CPU time of a probed child in seconds at reference speed.

    The probe samples are uniform in wall time, so mean(REF_PROBE_S / t)
    is the child's mean speed relative to reference; work done is time
    times that speed, less the probes' own work, REF_PROBE_S each."""
    try:
        samples = [float(line) for line in probe.read_text().split()]
        probe.unlink()
    except (OSError, ValueError):
        samples = []
    if not samples:
        return {"probes": 0, "speed": None, "ref_wall_s": None, "ref_cpu_s": None}
    speed = statistics.fmean(REF_PROBE_S / t for t in samples)
    probes_s = len(samples) * REF_PROBE_S
    return {"probes": len(samples), "speed": speed,
            "ref_wall_s": wall * speed - probes_s,
            "ref_cpu_s": cpu * speed - probes_s}


def workload_cmd(workload: str, seed: int, rep: int, probe: Path | None) -> list[str]:
    cmd = [sys.executable, str(CHILD), str(probe) if probe else "-"]
    argv = cli_argv(workload)
    if argv is not None:
        return cmd + ["cli", *argv]
    return cmd + ["sample", "--seed", str(seed), "--start", str(rep * SAMPLE_M),
                  "--m", str(SAMPLE_M)]


def traced_cmd(workload: str, seed: int, out: Path) -> list[str]:
    cmd = [sys.executable, str(HERE / "tracer.py"), "--out", str(out)]
    argv = cli_argv(workload)
    if argv is not None:
        return cmd + ["--argv", json.dumps(argv)]
    return cmd + ["--seed", str(seed), "--m", str(SAMPLE_M)]


# correctness

class Golden:
    """Checks every workload output; `problems` lists what did not match."""

    def __init__(self, workload: str) -> None:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        self.workload = workload
        self.expect = golden.get(workload, {})
        if workload == "campaign-n4k1-head" and self.expect.get("limit") != CAMPAIGN_LIMIT:
            raise BenchError("golden.json was made for another campaign limit")
        self.sample_digests: dict[int, str] = {}  # first index -> corpus digest
        self.problems: list[str] = []

    def _fail(self, what: str) -> bool:
        self.problems.append(what)
        return False

    def output(self, exit_code: int, stdout: str, rep: int) -> bool:
        """Check one untraced child's exit code and output."""
        if cli_argv(self.workload) is None:
            try:
                summary = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return self._fail(f"sample child printed no summary (exit {exit_code})")
            if exit_code != 0:
                return self._fail(f"sample child exited {exit_code}")
            return self.sample(summary, rep)
        try:
            report = json.loads(stdout)
        except ValueError:
            return self._fail(f"CLI printed no report (exit {exit_code})")
        return self.cli(exit_code, sections_sha256(report))

    def cli(self, exit_code: int, digest: str) -> bool:
        if exit_code != self.expect["exit_code"]:
            return self._fail(f"exit code {exit_code}, expected {self.expect['exit_code']}")
        if digest != self.expect["sections_sha256"]:
            return self._fail(f"report sections digest {digest} does not match golden")
        return True

    def sample(self, summary: dict, rep: int) -> bool:
        if summary["structures"] != SAMPLE_M or summary["failed"]:
            return self._fail(f"sample: {summary['failed']} of {summary['structures']} "
                              f"structures failed: {summary['failures']}")
        seen = self.sample_digests.setdefault(rep, summary["corpus_sha256"])
        if summary["corpus_sha256"] != seen:
            return self._fail(f"sample repetition {rep} gave another corpus digest")
        return True

    def traced(self, result: dict) -> bool:
        """A traced run must reproduce the untraced output exactly."""
        if "sample" in result:
            ok = result["exit_code"] == 0 and self.sample(result["sample"], 0)
        else:
            ok = self.cli(result["exit_code"], result["sections_sha256"])
        for name, want in self.expect.get("trace_counts", {}).items():
            got = result["counts"].get(name)
            if got != want:
                ok = self._fail(f"traced count {name} = {got}, expected {want}")
        return ok


# metrics

def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure_setup(runner: Runner, probe: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreter, `import gpw`, parser build: `gpw --version`.
    Returns the times at reference speed and the raw wall times."""
    ref, raw = [], []
    for i in range(SETUP_REPS + 1):
        child = runner.run([sys.executable, str(CHILD), str(probe), "cli", "--version"],
                           probe)
        if (child["exit_code"] != 0 or not child["stdout"].startswith("gpw ")
                or child["ref_wall_s"] is None):
            raise BenchError(f"gpw --version failed: {child['stderr']}")
        if i:  # the first child only warms the bytecode cache
            ref.append(child["ref_wall_s"])
            raw.append(child["wall_s"])
    return ref, raw


def end_to_end(workload: str, seed: int, seconds: int, until: float,
               runner: Runner, golden: Golden, probe: Path,
               record: dict) -> tuple[dict, int, int]:
    """Run the workload's repetitions and summarise them.

    The sample workload makes a fixed number of repetitions, seconds //
    SAMPLE_REP_S, so a seed always names the same structures; its
    repetitions differ in content, so its times are means (total work over
    total time).  The exhaustive workloads repeat identical work while the
    next repetition, if it takes as long as the last one, still ends before
    `until` (a perf_counter time); their times are medians."""
    sample = cli_argv(workload) is None
    reps = []
    failed = 0
    while True:
        child = runner.run(workload_cmd(workload, seed, len(reps), probe), probe)
        ok = golden.output(child["exit_code"], child["stdout"], len(reps))
        if ok and child["ref_wall_s"] is None:
            ok = golden._fail("the child wrote no probe samples")
        failed += not ok
        reps.append({k: child[k] for k in (
            "wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s", "speed", "probes",
            "peak_rss_mb", "exit_code")} | {"ok": ok})
        if not ok:
            break
        if sample and len(reps) >= max(1, seconds // SAMPLE_REP_S):
            break
        if not sample and time.perf_counter() + child["wall_s"] > until:
            break
    average = statistics.fmean if sample else statistics.median
    walls = [r["ref_wall_s"] for r in reps if r["ref_wall_s"] is not None]
    cpus = [r["ref_cpu_s"] for r in reps if r["ref_cpu_s"] is not None]
    if not walls:
        raise BenchError("; ".join(golden.problems))
    record["repetitions"] = reps
    record["wall_s_quartiles"] = quartiles(walls)
    record["raw_wall_s"] = average([r["wall_s"] for r in reps])
    record["raw_cpu_s"] = average([r["cpu_s"] for r in reps])
    metrics = {
        "wall_s": average(walls),
        "structures_per_s": structures_per_unit(workload) / average(walls),
        "cpu_s": average(cpus),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_ratio": (len(reps) - failed) / len(reps),
    }
    return metrics, len(reps), failed


def traced(workload: str, seed: int, runner: Runner, golden: Golden,
           record: dict, stamp: str) -> tuple[dict, int, int]:
    plain = runner.run(workload_cmd(workload, seed, 0, None))
    failed = not golden.output(plain["exit_code"], plain["stdout"], 0)
    results, walls = [], []
    for i in (1, 2):
        out = RESULTS / f"{stamp}-traced{i}.json"
        child = runner.run(traced_cmd(workload, seed, out))
        if child["exit_code"] != 0 or not out.is_file():
            golden.problems.append(f"traced child failed: {child['stderr']}")
            failed += 1
            continue
        result = json.loads(out.read_text(encoding="utf-8"))
        ok = golden.traced(result)
        if results and result["counts"] != results[0]["counts"]:
            ok = golden._fail("two traced runs gave different counts")
        failed += not ok
        results.append(result)
        walls.append(child["wall_s"])
    if len(results) != 2:
        raise BenchError("; ".join(golden.problems))
    metrics = dict(results[0]["metrics"])
    metrics["trace.overhead_s"] = statistics.median(walls) - plain["wall_s"]
    record["untraced_wall_s"] = plain["wall_s"]
    record["traced_wall_s"] = walls
    record["trace_files"] = [f"{stamp}-traced{i}.json" for i in (1, 2)]
    return metrics, 3, failed


def benchmark_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gpw").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of a git checkout, read from .git; None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text(encoding="utf-8").strip() if target.is_file() else ref


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one gpw benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "gpw" / "cli.py").is_file():
        print(f"error: no gpw sources under {SRC}", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = benchmark_metrics()
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    golden = Golden(args.workload)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "campaign_limit_N": CAMPAIGN_LIMIT, "sample_M": SAMPLE_M,
    }

    start = time.perf_counter()
    probe = RESULTS / f"{stamp}-probe.txt"
    setup, setup_raw = measure_setup(runner, probe)
    record["setup_s_all"] = setup
    record["setup_raw_wall_s_all"] = setup_raw
    record["ref_probe_s"] = REF_PROBE_S
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed, runner,
                                            golden, record, stamp)
        spec = layer_spec
    else:
        metrics, attempted, failed = end_to_end(args.workload, args.seed,
                                                args.seconds, start + args.seconds,
                                                runner, golden, probe, record)
        metrics["setup_s"] = statistics.median(setup)
        spec = e2e_spec
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    record["problems"] = golden.problems
    record["metrics"] = out
    (RESULTS / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")

    for problem in golden.problems:
        print(f"MISMATCH {problem}")
    if not args.trace:
        q = record["wall_s_quartiles"]
        print(f"wall_s over {attempted} repetitions: {metrics['wall_s']:.4f} "
              f"quartiles {q[0]:.4f} {q[2]:.4f} (raw wall {record['raw_wall_s']:.4f} s, "
              f"raw cpu {record['raw_cpu_s']:.4f} s)")
    for name, m in out.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not golden.problems,
                      "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
