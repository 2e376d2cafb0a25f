"""One measured unit of work in its own process, with a machine-speed probe.

    PYTHONPATH=src python3 perfbench/child.py PROBE_OUT cli campaign --n 4 --k 1 --limit 50
    PYTHONPATH=src python3 perfbench/child.py PROBE_OUT sample --seed 7 --start 0 --m 10

`cli` runs `gpw.cli.main` on the remaining arguments and exits with its
code; `sample` runs perfbench/sample_loop.py's main on them.

The shared host this benchmark was built on changes speed in phases of a
few seconds: the same pure-Python loop takes 12 ms in one phase and 19 to
26 ms in the next, with CPU time equal to wall time.  So the child samples
the speed it runs at: a wall-clock timer fires every PROBE_INTERVAL_S and
its handler times one fixed pure-Python loop (`probe`), independent of
`gpw`.  The samples are uniform in wall time, so the mean of
reference / sample over them is the child's mean speed relative to a
reference, and run.py turns wall and CPU time into seconds at reference
speed with it.  On exit the child writes one probe time in seconds per
line to PROBE_OUT; with PROBE_OUT `-` it runs without the probe.

Imports are kept to the standard modules the timer needs, so the probe is
running before `gpw` is imported.
"""

import signal
import sys
from time import perf_counter

PROBE_INTERVAL_S = 0.01
PROBE_ITERATIONS = 1500  # about 0.3 ms on a 2-vCPU x86-64 VM, CPython 3.11


def probe() -> int:
    """Fixed interpreter work: integer arithmetic, bit operations, a dict."""
    acc = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x | (x >> 3)
        table[x & 255] = acc
    return acc


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from gpw.cli import main
        return main(args)
    if kind == "sample":
        import sample_loop
        sample_loop.main(args)
        return 0
    raise SystemExit(f"unknown kind {kind!r}")


def main() -> int:
    out, kind, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if out == "-":
        return run(kind, args)
    samples = []

    def on_alarm(signum, frame):
        t0 = perf_counter()
        probe()
        samples.append(perf_counter() - t0)

    signal.signal(signal.SIGALRM, on_alarm)
    # the first sample right away, so even a short child has one
    signal.setitimer(signal.ITIMER_REAL, 1e-4, PROBE_INTERVAL_S)
    try:
        return run(kind, args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{s!r}\n" for s in samples))


if __name__ == "__main__":
    sys.exit(main())
