"""Benchmark harness for obstruction-lab.

One workload, end-to-end metrics (tracing off) or per-layer metrics (--trace 1):

    python3 perfbench/run.py --workload thm31-serial --seed 1 --seconds 20 --trace 0

Every workload untraced and traced, with the tracing overhead, a table of
self time per module, and BENCHMARK.json rewritten from the definitions here:

    python3 perfbench/run.py --all --seed 1 --seconds 20

Self-test of the output checkers (a fault-injected sweep must fail its pins):

    python3 perfbench/run.py --selftest

Each repetition runs in a fresh interpreter (perfbench/worker.py); a run
repeats until --seconds have passed, at least MIN_REPS times, and reports
medians.  Times are scaled to a nominal host speed measured with a reference
loop in each repetition (see worker.py); the unscaled medians are printed in
a comment line, and the traced run reports them as unscaled.* metrics.  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  Scratch files go to .bench_build/perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
MIN_REPS = 3
REP_TIMEOUT_S = 150
RUN_SECONDS = 30

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("graphs_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def layer_better(name: str) -> str:
    return "higher" if name.endswith(("cache_hit_ratio", "accept_ratio", "found_ratio")) else "lower"


def manifest() -> dict:
    from tracing import layer_metrics
    from worker import UNSCALED
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": layer_unit(n), "better": layer_better(n)}
            for n in [*layer_metrics([], 1), *(f"unscaled.{k}" for k in UNSCALED)]
        ],
    }


def environment(workload: str, seed: int, threads: int) -> dict:
    from workloads import SWEEP_MAX_N

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "workload": workload,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "sweep_max_n": SWEEP_MAX_N,
        "seed": seed,
        "commit": commit or "unknown",
        "loadavg_start": os.getloadavg(),
    }


def run_rep(name: str, seed: int, trace: int) -> dict:
    """One worker process; its process group is killed if it overruns."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    spawned = time.perf_counter()
    args = [name, str(seed), str(trace), repr(spawned), str(WORKDIR)]
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name}: repetition exceeded {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Repeat until `seconds` have passed (at least MIN_REPS times); medians."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    env = environment(name, seed, wl.threads)
    attempted = failed = 0
    notes: list[str] = []
    if wl.cross_check:
        attempted, notes = wl.cross_check(seed)
        failed = len(notes)

    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run_rep(name, seed, trace))
    for r in reps:
        attempted += r["attempted"]
        failed += r["failed"]
        notes += r["notes"]

    out = {
        "env": env,
        "why": wl.why,
        "raw": median_metrics([r["raw"] for r in reps]),
        "scale": statistics.median(r["scale"] for r in reps),
        "reps": len(reps),
        "count": reps[0]["count"],
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "e2e": median_metrics([r["e2e"] for r in reps]),
    }
    if trace:
        out["layers"] = median_metrics([r["layers"] for r in reps])
        out["shares"] = median_metrics([r["shares"] for r in reps])
    return out


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def _report(res: dict, trace: int) -> dict:
    """Print one workload's human-readable lines; return the metrics of its result line."""
    units = {n: u for n, u, _, _ in END_TO_END}
    print(f"# env {json.dumps(res['env'])}")
    print(f"# why {res['why']}")
    print(f"# {res['reps']} repetitions, {res['count']} graphs each; medians below")
    raw = ", ".join(f"{n} {v:.6g} s" for n, v in res["raw"].items())
    print(f"# times scaled by {res['scale']:.4g} to the nominal host speed; as measured: {raw}")
    for note in res["notes"]:
        print(f"# MISS {note}")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} ratio ({res['failed']}/{res['attempted']})")
    for n, v in res["e2e"].items():
        print(f"{n} = {v:.6g} {units[n]}{'  (traced)' if trace else ''}")
    if not trace:
        return {n: {"value": v, "unit": units[n]} for n, v in res["e2e"].items()}
    print("# share of busy time: self time per module")
    for key, share in res["shares"].items():
        print(f"#   {key:<38} {share:7.1%}")
    for n, v in res["layers"].items():
        print(f"{n} = {v:.6g} {layer_unit(n)}")
    return {n: {"value": v, "unit": layer_unit(n)} for n, v in res["layers"].items()}


def selftest() -> int:
    """The checkers must flag a fault-injected sweep and a tampered
    certificate, each through the check aimed at the fault, and pass the
    clean runs.  (The mutated sweep is also renamed, so its sha256 misses
    whatever the minors are; a nonzero failed_frac alone proves nothing.)"""
    import corpus
    from obstruction_lab import sweeps
    from workloads import check_sweep, check_verdicts, run_check

    cases = []
    for mutate in (False, True):
        report = sweeps.sweep_thm31(5, threads=1, mutate=mutate)
        attempted, failed, notes = check_sweep("thm31", 5, report)
        aimed = any(n.startswith("violations:") for n in notes)
        cases.append((f"thm31 max_n=5 mutate={mutate}", failed / attempted, mutate, aimed))
    pairs = corpus.generate(1, 2)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / "selftest.g6"
    path.write_text("".join(g6 + "\n" for g6, _ in pairs))
    code, lines = run_check((str(path), pairs))
    for tamper in (False, True):
        out = list(lines)
        if tamper:  # repeat a vertex of the first C4, so its certificate is invalid
            i = next(i for i, (_, kind) in enumerate(pairs) if kind == "hole")
            g6, _, verdict = out[i].partition(": violation ")
            cert = json.loads(verdict)
            cert["cycle"][-1] = cert["cycle"][0]
            out[i] = f"{g6}: violation {json.dumps(cert)}"
        attempted, failed, notes = check_verdicts(pairs, code, out)
        aimed = any("certificate valid: False" in n for n in notes)
        cases.append((f"check-corpus tampered={tamper}", failed / attempted, tamper, aimed))
    ok = True
    for label, frac, should_fail, aimed in cases:
        good = (frac > 0) == should_fail == aimed
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failed_frac = {frac:.4g}, aimed check fired: {aimed}")
    print(json.dumps({"selftest": "passed" if ok else "failed"}))
    return 0 if ok else 1


def run_all(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    if selftest() != 0:
        return 1
    correct, attempted, failed, metrics, wall = True, 0, 0, {}, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"## {name} trace={trace}")
            res = run_workload(name, seed, seconds, trace)
            for metric, v in _report(res, trace).items():
                metrics[f"{name}.{metric}"] = v
            correct &= res["failed"] == 0
            attempted += res["attempted"]
            failed += res["failed"]
            wall[name, trace] = res["e2e"]["wall_s"]
    print("## tracing overhead: traced wall_s minus untraced wall_s")
    for name in WORKLOADS:
        print(f"{name}.trace_overhead_s = {wall[name, 1] - wall[name, 0]:.6g} s")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    print("# wrote BENCHMARK.json")
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--selftest", action="store_true", help="check the output checkers")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "obstruction_lab" / "__init__.py").is_file():
        print(f"error: no obstruction_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    try:
        if args.selftest:
            return selftest()
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload not in WORKLOADS:
            p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        metrics = _report(res, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_result_line(res["failed"] == 0, res["attempted"], res["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
