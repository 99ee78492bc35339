"""The benchmark's workloads: input from a seed, one timed call into
obstruction_lab, and a check of the output against pinned expectations.

A check returns (attempted, failed, notes): the operations whose output was
compared with a pin, the ones that missed, and one note per miss.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import corpus
from obstruction_lab import cli, sweeps
from obstruction_lab.detectors import THETA, certificate_from_dict, validate_certificate
from obstruction_lab.graphs import parse_graph6

SWEEP_MAX_N = 7
BLURRY_TRIALS = 8000

# Canonical payloads of serial runs at the seed commit.
SWEEP_PINS = {
    ("thm31", 5): {
        "graphs_per_n": {1: 1, 2: 2, 3: 4, 4: 10, 5: 28},
        "instances": 111,
        "findings": 0,
        "sha256": "27fddec824e679c94479c2579aa53484c8a47fd0215c5f14c7943677e487b349",
    },
    ("thm31", 7): {
        "graphs_per_n": {1: 1, 2: 2, 3: 4, 4: 10, 5: 28, 6: 100, 7: 438},
        "instances": 1898,
        "findings": 0,
        "sha256": "70b72d9202763f61a3856ed26eb64ee1e635abf3b42e31dfa10f8a6a0598cd28",
    },
    ("c4_necessity", 7): {
        "graphs_per_n": {1: 1, 2: 2, 3: 4, 4: 11, 5: 32, 6: 131, 7: 689},
        "instances": 1508,
        "findings": 0,
        "sha256": "53c5ca571779c539decab2c7dc63c8110538c6e20a7de78c7397690ef636a846",
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    root: str  # span name of the timed call
    threads: int
    setup: Callable[[int, Path], Any]  # (seed, workdir) -> input
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[int, int, list[str]]]
    count: Callable[[Any], int]  # graphs examined, verdicts given or trials
    # once per run, before timing: (inputs checked, mismatches)
    cross_check: Callable[[int], tuple[int, list[str]]] | None = None


# ---------------------------------------------------------------------------
# exhaustive sweeps


def check_sweep(key: str, max_n: int, report) -> tuple[int, int, list[str]]:
    pin = SWEEP_PINS[(key, max_n)]
    checks = [
        (f"graphs_per_n[{n}]", report.details["graphs_per_n"].get(n), want)
        for n, want in pin["graphs_per_n"].items()
    ]
    checks += [
        ("graphs_per_n levels", len(report.details["graphs_per_n"]), len(pin["graphs_per_n"])),
        ("instances", report.instances_checked, pin["instances"]),
        ("violations", len(report.violations), 0),
        ("findings", len(report.findings), pin["findings"]),
        ("sha256", hashlib.sha256(report.canonical_json().encode()).hexdigest(), pin["sha256"]),
    ]
    for i, f in enumerate(report.findings):
        cert = certificate_from_dict(f["theta"])
        ok = cert.kind == THETA and validate_certificate(parse_graph6(f["minor_graph6"]), cert)
        checks.append((f"finding {i} theta re-verifies", ok, True))
    notes = [f"{what}: got {got}, pinned {want}" for what, got, want in checks if got != want]
    return len(checks), len(notes), notes


def _sweep(key: str, run: Callable[[int], Any]) -> dict:
    return {
        "setup": lambda seed, workdir: SWEEP_MAX_N,
        "run": run,
        "check": lambda max_n, report: check_sweep(key, max_n, report),
        "count": lambda report: report.graphs_examined,
    }


# ---------------------------------------------------------------------------
# membership verdicts through the CLI


def _corpus_setup(seed, workdir):
    pairs = corpus.generate(seed)
    path = workdir / f"corpus-{seed}.g6"
    path.write_text("".join(line + "\n" for line, _ in pairs))
    return str(path), pairs


def run_check(inp):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "--t", "4", inp[0]])
    return code, out.getvalue().splitlines()


def check_verdicts(pairs: list[tuple[str, str]], code: int, lines: list[str]) -> tuple[int, int, list[str]]:
    """Each line's verdict and certificate kind match the pin, and each
    certificate is valid on its graph; the exit code says a violation was seen."""
    notes = []
    if len(lines) != len(pairs):
        notes.append(f"{len(lines)} output lines for {len(pairs)} graphs")
    for (g6, kind), line in zip(pairs, lines):
        echoed, _, verdict = line.partition(": ")
        if verdict == "member of E_4":
            got, ok = corpus.MEMBER, True
        elif verdict.startswith("violation "):
            cert = certificate_from_dict(json.loads(verdict[len("violation "):]))
            got, ok = cert.kind, validate_certificate(parse_graph6(g6), cert)
        else:
            got, ok = f"unparsed {verdict!r}", False
        if echoed != g6 or got != kind or not ok:
            notes.append(f"{g6}: got {got} (certificate valid: {ok}), pinned {kind}")
    want_code = 1 if any(kind != corpus.MEMBER for _, kind in pairs) else 0
    if code != want_code:
        notes.append(f"exit code {code}, expected {want_code}")
    return len(pairs) + 1, len(notes), notes


# ---------------------------------------------------------------------------
# randomized blurry-copy suite


def check_blurry(trials: int, report) -> tuple[int, int, list[str]]:
    bad = sorted({v["trial"] for v in report.violations})
    notes = [f"trial {t} violated" for t in bad]
    if report.details.get("fallbacks"):
        notes.append(f"{report.details['fallbacks']} fallback(s)")
    if report.instances_checked != trials:
        notes.append(f"{report.instances_checked} trials checked of {trials}")
    return trials + 2, len(notes), notes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="thm31-serial",
            why="Hot path without the pool: the class-E prune and canonical_form dominate; "
            "exhaustive, so the seed does not change the input.",
            root="sweeps.sweep_thm31",
            threads=1,
            **_sweep("thm31", lambda max_n: sweeps.sweep_thm31(max_n, threads=1)),
        ),
        Workload(
            name="c4-pool",
            why="Other prune (C4 allowed, detectors run to exhaustion), stop_when, results "
            "pickled through a 2-worker fork pool; exhaustive, seed-independent.",
            root="sweeps.sweep_c4_necessity",
            threads=2,
            **_sweep("c4_necessity", lambda max_n: sweeps.sweep_c4_necessity(max_n, threads=2)),
        ),
        Workload(
            name="check-corpus",
            why="cli check --t 4 on seeded amalgam members and planted violators, n 10 to 33: "
            "no enumeration or pool, detectors exhausted above the sweep sizes.",
            root="cli.main",
            threads=1,
            setup=_corpus_setup,
            run=run_check,
            check=lambda inp, out: check_verdicts(inp[1], *out),
            count=lambda out: len(out[1]),
            cross_check=corpus.cross_check,
        ),
        Workload(
            name="blurry-suite",
            why="sweep_obs51 on seeded 2-trees: the only workload that measures predicates, "
            "finders and ktrees.",
            root="sweeps.sweep_obs51",
            threads=1,
            setup=lambda seed, workdir: seed,
            run=lambda seed: sweeps.sweep_obs51(BLURRY_TRIALS, seed),
            check=lambda seed, report: check_blurry(BLURRY_TRIALS, report),
            count=lambda report: report.graphs_examined,
        ),
    )
}
