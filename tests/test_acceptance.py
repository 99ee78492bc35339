"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they land.
The n=10 stretch tier sits behind the `stretch` marker and is excluded by
default (`pytest -m stretch` opts in).
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from obstruction_lab.detectors import (
    certificate_from_dict,
    find_even_wheel,
    find_hole,
    find_prism,
    find_theta,
    validate_certificate,
)
from obstruction_lab.graphs import SimpleGraph, parse_graph6
from obstruction_lab.minors import eligible_pairs, triangle_minor
from obstruction_lab.sweeps import (
    default_threads,
    sweep_c4_necessity,
    sweep_embed,
    sweep_even_hole_subset_E,
    sweep_obs51,
    sweep_thm31,
    sweep_thm32,
)

from conftest import all_graphs
from oracle_detectors import (
    oracle_has_even_wheel,
    oracle_has_hole,
    oracle_has_prism,
    oracle_has_theta,
)

DATA = Path(__file__).parent / "data"


def _report(num: int, label: str, ok: bool, extra: str = ""):
    state = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} [{state}] {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


# sha256 of the thm31 n <= 9 canonical payload
THM31_N9_SHA256 = "5046dcfc7b097a9a3d090177535d2626b2f3d30dddba82cbfe15e20d798e9a24"


def test_criterion_1_thm31_sweep_n9():
    report = sweep_thm31(9, threads=default_threads())
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    _report(
        1,
        "triangle-minor closure sweep, all members n<=9, zero violations, payload pinned",
        report.ok and digest == THM31_N9_SHA256,
        f"graphs={report.graphs_examined} instances={report.instances_checked} "
        f"wall={report.wall_time_s:.0f}s",
    )


@pytest.mark.stretch
def test_criterion_1_stretch_thm31_sweep_n10():
    report = sweep_thm31(10, threads=default_threads())
    # class-E members on 10 vertices; a serial and a two-thread run agree
    members = report.details["graphs_per_n"][10]
    _report(
        1,
        "stretch tier n=10, zero violations, 180916 members at n=10",
        report.ok and members == 180916,
        f"graphs={report.graphs_examined} members_n10={members} wall={report.wall_time_s:.0f}s",
    )


def test_criterion_2_thm32_sweep_n8():
    report = sweep_thm32(8, threads=default_threads())
    ok = report.ok and report.instances_checked > 0
    _report(
        2,
        "exactly-one-bad holds for 100% of (hole, adjacent pair) instances n<=8",
        ok,
        f"instances={report.instances_checked}",
    )


def test_criterion_3_even_hole_free_subset_n9():
    report = sweep_even_hole_subset_E(9, threads=default_threads())
    _report(
        3,
        "even-hole-free graphs n<=9 are all class members",
        report.ok,
        f"graphs={report.graphs_examined} wall={report.wall_time_s:.0f}s",
    )


def test_criterion_4_embedding_n8_all_k():
    oks = []
    sizes = []
    for k in (1, 2, 3):
        report = sweep_embed(8, k, threads=default_threads())
        oks.append(report.ok and report.graphs_examined > 0)
        sizes.append(report.details["max_ktree_size"])
    _report(
        4,
        "chordal-to-k-tree embedding valid and induced for all n<=8, k in {1,2,3}",
        all(oks),
        f"max sizes per k: {sizes}",
    )


def test_criterion_5_blurry_randomized_10k():
    report = sweep_obs51(10_000, seed=1)
    ok = report.ok and report.details["fallbacks"] == 0
    _report(
        5,
        "10^4 seeded blurry extractions on K4-free hosts, zero fallbacks",
        ok,
        f"trials={report.instances_checked}",
    )


def test_criterion_6_oracle_equivalence():
    checked = 0
    agree = True
    for n in range(1, 8):
        for g in all_graphs(n):
            checked += 1
            agree &= (find_hole(g) is not None) == oracle_has_hole(g)
            agree &= (find_theta(g) is not None) == oracle_has_theta(g)
            agree &= (find_prism(g) is not None) == oracle_has_prism(g)
            agree &= (find_even_wheel(g) is not None) == oracle_has_even_wheel(g)
    rng = random.Random(1)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = SimpleGraph.from_edges(n, edges)
        checked += 1
        agree &= (find_hole(g) is not None) == oracle_has_hole(g)
        agree &= (find_theta(g) is not None) == oracle_has_theta(g)
        agree &= (find_prism(g) is not None) == oracle_has_prism(g)
        agree &= (find_even_wheel(g) is not None) == oracle_has_even_wheel(g)
    _report(
        6,
        "detectors agree with the subset oracles on all n<=7 plus 10^4 random n<=10",
        agree,
        f"graphs={checked}",
    )


def _exemplar_reverifies(entry: dict) -> bool:
    """The host has a C4 but no theta, prism or even wheel, the pair is
    eligible, and the recorded minor and its theta certificate re-check."""
    host = parse_graph6(entry["graph6"])
    pair = tuple(entry["pair"])
    minor, _, _ = triangle_minor(host, *pair)
    return (
        find_hole(host, min_len=4, max_len=4) is not None
        and find_theta(host) is None
        and find_prism(host) is None
        and find_even_wheel(host) is None
        and any((p.z1, p.z2) == pair for p in eligible_pairs(host))
        and parse_graph6(entry["minor_graph6"]) == minor
        and validate_certificate(minor, certificate_from_dict(entry["theta"]))
    )


def test_criterion_7_c4_necessity_archive():
    report = sweep_c4_necessity(9, threads=default_threads())
    # findings are not violations; the sweep stops after the first level with any
    found = report.ok and len(report.findings) >= 1 and all(map(_exemplar_reverifies, report.findings))

    archived = json.loads((DATA / "c4_necessity_exemplar.json").read_text())["exemplars"]
    reverified = bool(archived) and all(map(_exemplar_reverifies, archived))
    _report(
        7,
        "C4-necessity exemplars found at n<=9 re-verify, and so do the archived ones",
        found and reverified,
        f"fresh={len(report.findings)} archived={len(archived)}",
    )


def test_criterion_8_mutation_self_test():
    report = sweep_thm31(6, threads=default_threads(), mutate=True)
    _report(
        8,
        "single wrong edge in the minor computation surfaces as a violation",
        len(report.violations) >= 1,
        f"violations={len(report.violations)}",
    )
