"""One repetition of a workload in a fresh interpreter, so the canonical-form
cache starts cold as it does for every CLI invocation.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED WORKDIR

SPAWNED is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so set-up time
covers interpreter start, imports and input generation.  The last stdout
line is one JSON object.

Times are reported twice: as measured ("raw") and scaled to a nominal
machine speed.  A shared host can run the same code at very different
speeds from one minute to the next (on a shared 2-vCPU virtual machine with
Python 3.11, the same sweep took anywhere from 1.4 s to 2.4 s), so right
before and right after the timed call the worker times a fixed pure-Python
loop that shares no code with obstruction_lab, and multiplies every time by
REF_S / (that loop's time); CPU time is scaled by the loop's CPU time, wall
times by its wall time.  A change to the program moves the scaled times; a
change in the host's speed moves the loop and the program alike and cancels
out.  The traced run also reports the unscaled times as per-layer metrics
(unscaled.*), so the program's own figures stay visible.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

REF_S = 0.025  # nominal time of _reference_loop; scaled times are in these units
UNSCALED = ("setup_s", "wall_s", "cpu_s")  # reported as measured in traced runs


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _reference_loop() -> int:
    # integer, bit, list and dict work, like the graph code, but none of it
    acc = 0
    table = {}
    rows = [0] * 64
    for i in range(40000):
        x = (i * 2654435761) & 0xFFFFFFFF
        rows[i & 63] |= 1 << (x & 63)
        acc += (rows[(x >> 6) & 63] & x).bit_count()
        table[x & 1023] = (acc, i)
    return acc


def reference_s() -> tuple[float, float]:
    """Fastest of three timings of the reference loop, in wall and in CPU time
    (CPU time leaves out the time the host runs something else on this vCPU)."""
    wall = cpu = float("inf")
    for _ in range(3):
        w0, c0 = time.perf_counter(), time.process_time()
        _reference_loop()
        wall = min(wall, time.perf_counter() - w0)
        cpu = min(cpu, time.process_time() - c0)
    return wall, cpu


def main(argv: list[str]) -> int:
    name, seed, trace, spawned, workdir = argv
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    inp = wl.setup(int(seed), workdir)
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(workdir / f"spool-{name}")
        tracing.install(tracer)
    ready = time.perf_counter()

    ref0 = reference_s()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    root = tracer.open(wl.root) if tracer else None
    t0 = time.perf_counter()
    out = wl.run(inp)
    t1 = time.perf_counter()
    if tracer:
        tracer.close(root)
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ref1 = reference_s()
    scale = 2 * REF_S / (ref0[0] + ref1[0])
    cpu_scale = 2 * REF_S / (ref0[1] + ref1[1])

    attempted, failed, notes = wl.check(inp, out)
    raw = {
        "setup_s": ready - float(spawned),
        "wall_s": t1 - t0,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
    }
    count = wl.count(out)
    result = {
        "e2e": {
            "wall_s": raw["wall_s"] * scale,
            "graphs_per_s": count / (raw["wall_s"] * scale),
            "cpu_s": raw["cpu_s"] * cpu_scale,
            "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
            "setup_s": raw["setup_s"] * scale,
        },
        "raw": raw,
        "scale": scale,
        "count": count,
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
    }
    if tracer:
        tracer.collect()
        tracer.write(workdir / f"spans-{name}.tsv")
        result["layers"] = tracing.layer_metrics(tracer.spans, wl.threads, scale)
        result["layers"].update({f"unscaled.{k}": v for k, v in raw.items()})
        result["shares"] = tracing.shares(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
