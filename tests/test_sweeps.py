import dataclasses
import hashlib
import json
import random

import pytest

from obstruction_lab import minors, sweeps
from obstruction_lab.detectors import classify_attachment, has_clique, in_class_e, is_hole, validate_certificate
from obstruction_lab.detectors import certificate_from_dict
from obstruction_lab.graphs import SimpleGraph, mask_of, parse_graph6, write_graph6
from obstruction_lab.minors import triangle_minor
from obstruction_lab.sweeps import (
    SweepReport,
    corrupt_toggle_01,
    random_two_tree,
    sweep_c4_necessity,
    sweep_embed,
    sweep_even_hole_subset_E,
    sweep_obs51,
    sweep_thm31,
    sweep_thm32,
)
from obstruction_lab.ktrees import validate_ktree

from conftest import all_graphs


def test_sweep_thm31_small_tiers():
    assert sweep_thm31(5, threads=1).ok
    r = sweep_thm31(6, threads=1)
    assert r.ok and r.graphs_examined > 100 and r.instances_checked > 200


def test_sweep_thm32_small():
    r = sweep_thm32(7, threads=1)
    assert r.ok and r.instances_checked >= 3


def test_sweep_even_hole_subset_small():
    r = sweep_even_hole_subset_E(7, threads=1)
    assert r.ok and r.graphs_examined > 500


def test_sweep_embed_small():
    for k in (1, 2, 3):
        r = sweep_embed(6, k, threads=1)
        assert r.ok, r.violations[:1]
        assert r.details["max_ktree_size"] >= 1


def test_mutation_self_test_reports_violations():
    # measured: the toggled-pair fault first bites at the n=5 tier
    r = sweep_thm31(5, threads=1, mutate=True)
    assert r.name == "thm31_mutated"
    assert len(r.violations) >= 1
    entry = r.violations[0]
    host = parse_graph6(entry["graph6"])
    pair = tuple(entry["pair"])
    minor, _, _ = triangle_minor(host, *pair)
    corrupted = corrupt_toggle_01(minor)
    assert parse_graph6(entry["minor_graph6"]) == corrupted
    verdict = in_class_e(corrupted)
    assert not verdict.member
    cert = certificate_from_dict(entry["certificate"])
    assert validate_certificate(corrupted, cert)


def test_parallel_serial_reports_identical():
    serial = sweep_thm31(6, threads=1)
    parallel = sweep_thm31(6, threads=2)
    assert serial.canonical_json() == parallel.canonical_json()
    s32 = sweep_thm32(6, threads=1)
    p32 = sweep_thm32(6, threads=2)
    assert s32.canonical_json() == p32.canonical_json()
    c4 = sweep_c4_necessity(7, threads=2).canonical_json()
    assert hashlib.sha256(c4.encode()).hexdigest() == PAYLOAD_PINS["c4_necessity-n7"][1]


def test_sweeps_deterministic_given_args():
    a = sweep_even_hole_subset_E(6, threads=1)
    b = sweep_even_hole_subset_E(6, threads=1)
    assert a.canonical_json() == b.canonical_json()
    ra = sweep_obs51(100, seed=7)
    rb = sweep_obs51(100, seed=7)
    assert ra.canonical_json() == rb.canonical_json()


def test_report_json_schema():
    doc = sweep_thm31(4, threads=1).to_dict()
    assert doc["schema"] == "obstruction-lab/report-v1"
    assert doc["sweep"] == "thm31"
    assert "wall_time_s" in doc
    assert doc["violations"] == []


def test_sweep_obs51_small():
    r = sweep_obs51(300, seed=3)
    assert r.ok
    assert r.details["fallbacks"] == 0


def _obs51_hosts(seed, count):
    """The hosts sweep_obs51 plants, drawn from its seeded stream as it draws them."""
    rng = random.Random(seed)
    for _ in range(count):
        tree = random_two_tree(rng, rng.randint(2, 9))[0]
        yield sweeps._plant_blurry_host(rng, tree)


def test_planted_hosts_pinned_and_k4_free():
    # sha256 pinned while each candidate still rescanned the whole mask for a triangle
    digest = hashlib.sha256()
    for host in _obs51_hosts(13, 2000):
        assert has_clique(host, 4) is None
        digest.update(write_graph6(host).encode() + b"\n")
    assert digest.hexdigest() == "962ecfcd85f1f5fd22323d43620e089c4cf46a0c2ce16b04422ba3a4e129540c"


# sha256 over each trial's host graph6 and 2-tree edge list, as sweep_obs51
# hands them to the extraction, pinned while each noise vertex still went
# through add_vertex
OBS51_STREAM_PINS = {
    1: "a25be8db337a76b62aa5fafaba57e7af335ee04f2ce9fd5b2ea09217096c9d7c",
    3: "4eced44289c0012bdfd11d0b1e5ce7d15d749bc9ca7b34cac516de072233d377",
    13: "0d7ce899f5a96bb6615838b71d2e61e191d470c07973df2d32471e1f9ed3ad0c",
}


@pytest.mark.parametrize("seed", OBS51_STREAM_PINS)
def test_obs51_input_stream_pinned(seed, monkeypatch):
    digest = hashlib.sha256()
    extract = sweeps.extract_induced_from_blurry

    def record(host, w):
        digest.update(f"{write_graph6(host)} {json.dumps(w.y_edges)}\n".encode())
        return extract(host, w)

    monkeypatch.setattr(sweeps, "extract_induced_from_blurry", record)
    assert sweep_obs51(3000, seed).ok
    assert digest.hexdigest() == OBS51_STREAM_PINS[seed]


def test_obs51_records_a_refused_witness(monkeypatch):
    # a host without the spanning edge 0-1 fails clause B1 on every trial
    def plant_without_edge_01(rng, tree):
        return SimpleGraph.from_edges(tree.graph.n, [e for e in tree.graph.edges() if e != (0, 1)])

    monkeypatch.setattr(sweeps, "_plant_blurry_host", plant_without_edge_01)
    for seed in (1, 2):
        report = sweep_obs51(50, seed)
        assert (report.instances_checked, report.details["fallbacks"]) == (50, 0)
        assert [(v["trial"], v["clause"]) for v in report.violations] == [(t, "B1") for t in range(50)]


def test_random_two_tree_always_valid():
    rng = random.Random(5)
    for _ in range(50):
        t, edges = random_two_tree(rng, rng.randint(2, 10))
        assert validate_ktree(t.graph, 2, t.order) == (True, None)
        assert sorted(edges) == t.graph.edges()


def test_sweep_c4_necessity_empty_below_8():
    r = sweep_c4_necessity(7, threads=1)
    assert not r.findings


# sha256 of canonical_json(), pinned before the sweeps shared one driver and
# the per-graph checks in minors; c4_necessity at 7 is also the benchmark's pin
PAYLOAD_PINS = {
    "thm31-n6": (lambda: sweep_thm31(6, threads=1),
                 "17d50db29089d60eb474f06589257431199a0974c5089d78353a6702af27b940"),
    "thm31-n8": (lambda: sweep_thm31(8, threads=1),
                 "401d26d77dd49c5d2134f840f8b28bb17bd950ae9b3d58b7cc3e3bf9290d47f7"),
    "thm32-n6": (lambda: sweep_thm32(6, threads=1),
                 "fc26e5486037e036f30fadd3e68208c3c5c6fafa716d9260372b818a772c7bec"),
    "even_hole_subset-n6": (lambda: sweep_even_hole_subset_E(6, threads=1),
                            "41f69a1218856c43cf2f49e510d191dd94de75ee26fdaf881a621e6c74a20577"),
    "embed_k1-n6": (lambda: sweep_embed(6, 1, threads=1),
                    "28a81b4b989b0a2e51e2ed55ad488ded005c9258a78a2cfa7e69be3a31ed3aa0"),
    "embed_k2-n6": (lambda: sweep_embed(6, 2, threads=1),
                    "c8b520b6aaf93c56bcc4534a14972e83ccd8ca3ebf2423bbe938feb63bf80ad7"),
    "embed_k3-n6": (lambda: sweep_embed(6, 3, threads=1),
                    "f1b6ecdeabddbef3bad52ba4908de31ff49e4e018373032a91f15d3aa6d474cb"),
    "c4_necessity-n7": (lambda: sweep_c4_necessity(7, threads=1),
                        "53c5ca571779c539decab2c7dc63c8110538c6e20a7de78c7397690ef636a846"),
    # n = 8 is the first level with findings, so this pins their content
    "c4_necessity-n8": (lambda: sweep_c4_necessity(8, threads=1),
                        "8c93da99f386faff25f53be5bc20e0ca70fff1d9fcdbeca81df51a583b704c77"),
    # pinned while the fault injection was still a hook inside the thm31 minor check
    "thm31_mutated-n5": (lambda: sweep_thm31(5, threads=1, mutate=True),
                         "9c3c39a1fa187ccaf0098880be7b6c7d2cc628c423bc4e9671b0201eecbb0b48"),
    "thm31_mutated-n6": (lambda: sweep_thm31(6, threads=1, mutate=True),
                         "f1a51e375c0436d073839d3bc876ffa6cb9c8893eebc44254c85d6e156e4a3b7"),
    # pinned while every blurry witness was still verified twice
    "obs51-300-seed3": (lambda: sweep_obs51(300, seed=3),
                        "638fa91dbf309ac1b6d110f954260ee9985236607b3dee1f8854302b6e091e0c"),
}


@pytest.mark.parametrize("key", PAYLOAD_PINS)
def test_canonical_payload_pinned(key):
    run, digest = PAYLOAD_PINS[key]
    assert hashlib.sha256(run().canonical_json().encode()).hexdigest() == digest


@pytest.fixture
def serial_pool(monkeypatch):
    """A fake pool that maps in-process, so asking for 10**6 workers starts
    no process; returns the log of its sizes, entries and exits."""
    log = []

    class SerialPool:
        def __init__(self, size):
            log.append(("pool", size))

        def __enter__(self):
            log.append("enter")
            return self

        def __exit__(self, *exc):
            log.append("exit")
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    class SerialContext:
        Pool = SerialPool

    monkeypatch.setattr(sweeps, "get_context", lambda method: SerialContext)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 3)
    return log


def test_one_pool_per_sweep_sized_by_cores(serial_pool):
    serial = sweep_embed(4, 1, threads=1)
    assert serial_pool == []
    # forests: four levels, of 1, 1, 2 and 3 parents, share one pool of
    # min(threads, cores) workers
    report = sweep_embed(4, 1, threads=10**6)
    assert serial_pool == [("pool", 3), "enter", "exit"]
    assert report.canonical_json() == serial.canonical_json()


def test_stop_when_on_one_pool(serial_pool):
    # even-hole-free graphs: 1, 2, 4 and 10 on n = 1..4, so the sweep stops
    # after n = 4, one level short of max_n
    def stop(report):
        return report.graphs_examined > 10

    stages = sweeps.PROCESSORS["even_hole_subset_E"]
    serial = sweeps._run_levels("stop", 5, 1, stages, stop_when=stop)
    assert serial_pool == []
    pooled = sweeps._run_levels("stop", 5, 2, stages, stop_when=stop)
    assert serial_pool == [("pool", 2), "enter", "exit"]
    assert pooled.details["graphs_per_n"] == serial.details["graphs_per_n"] == {1: 1, 2: 2, 3: 4, 4: 10}
    assert pooled.canonical_json() == serial.canonical_json()


def test_prune_rejecting_k1_examines_nothing():
    stages = (lambda g: False, sweeps.process_thm32)
    report = sweeps._run_levels("none", 4, 1, stages)
    assert report.details["graphs_per_n"] == {1: 0, 2: 0, 3: 0, 4: 0}
    assert report.graphs_examined == 0 and report.instances_checked == 0


# ---------------------------------------------------------------------------
# reporting paths that a correct program never takes, driven by a fault
# injected at one module binding


def test_thm31_reports_a_wrong_minor(monkeypatch):
    # a triangle minor with its pair 0, 1 toggled: the minors that leave E are
    # recorded with the certificate in_class_e found on them
    def corrupted_minor(g, z1, z2):
        minor, z, mapping = triangle_minor(g, z1, z2)
        return corrupt_toggle_01(minor), z, mapping

    monkeypatch.setattr(minors, "triangle_minor", corrupted_minor)
    serial = sweep_thm31(7, threads=1)
    assert len(serial.violations) == 20
    for entry in serial.violations:
        host = parse_graph6(entry["graph6"])
        assert in_class_e(host).member
        minor = parse_graph6(entry["minor_graph6"])
        assert minor == corrupted_minor(host, *entry["pair"])[0]
        assert validate_certificate(minor, certificate_from_dict(entry["certificate"]))
    # the document sorts what the sweep collects in generation order
    by_json = sorted(serial.violations, key=lambda e: json.dumps(e, sort_keys=True))
    assert serial.to_dict()["violations"] == by_json != serial.violations
    parallel = sweep_thm31(7, threads=2)
    assert parallel.violations == serial.violations
    assert parallel.canonical_json() == serial.canonical_json()


def test_thm32_reports_a_violation_verdict(monkeypatch):
    # every verdict turned into a violation: each record names a hole of the
    # host, an adjacent pair outside it, and the pair's attachment classes
    verdict = sweeps.thm32_verdict
    monkeypatch.setattr(
        sweeps, "thm32_verdict", lambda *instance: dataclasses.replace(verdict(*instance), status="violation")
    )
    report = sweep_thm32(7, threads=1)
    assert report.instances_checked == len(report.violations) > 0
    for entry in report.violations:
        g = parse_graph6(entry["graph6"])
        cycle, (z1, z2) = tuple(entry["cycle"]), entry["pair"]
        assert is_hole(g, cycle) and g.has_edge(z1, z2)
        cmask = mask_of(cycle)
        assert entry["classes"] == [classify_attachment(g, g.adj[z] & cmask).value for z in (z1, z2)]


def test_even_hole_subset_reports_a_non_member(monkeypatch):
    # a prune that sees no hole through the new vertex, and does not declare
    # that it forbids C4, admits every graph; each one outside E is recorded
    # with its certificate
    monkeypatch.setattr(sweeps, "holes_through", lambda g, v: ())
    monkeypatch.setattr(sweeps.prune_even_hole_free, "forbids_c4", False)
    report = sweep_even_hole_subset_E(5, threads=1)
    outside = [write_graph6(g) for n in range(1, 6) for g in all_graphs(n) if not in_class_e(g).member]
    assert report.graphs_examined == 52 and len(outside) == 7
    assert [entry["graph6"] for entry in report.violations] == outside
    for entry in report.violations:
        g = parse_graph6(entry["graph6"])
        assert validate_certificate(g, certificate_from_dict(entry["certificate"]))


def test_embed_reports_a_refused_embedding(monkeypatch):
    monkeypatch.setattr(sweeps, "validate_embedding", lambda host, g, emb: False)
    report = sweep_embed(5, 2, threads=1)
    assert report.instances_checked == len(report.violations) > 0
    for entry in report.violations:
        g, tree = parse_graph6(entry["graph6"]), parse_graph6(entry["ktree_graph6"])
        assert tree.n >= g.n
        assert (entry["ktree_ok"], entry["bad_index"], entry["embedding_ok"]) == (True, None, False)


@pytest.mark.parametrize("fault", ["fallback", "bad_embedding"])
def test_obs51_reports_a_fallback_or_a_bad_embedding(fault, monkeypatch):
    if fault == "fallback":
        extract = sweeps.extract_induced_from_blurry
        monkeypatch.setattr(
            sweeps,
            "extract_induced_from_blurry",
            lambda host, w: dataclasses.replace(extract(host, w), fallback_used=True),
        )
    else:
        monkeypatch.setattr(sweeps, "validate_embedding", lambda host, g, emb: False)
    report = sweep_obs51(40, seed=3)
    hosts = [write_graph6(h) for h in _obs51_hosts(3, 40)]
    assert report.violations == [{"trial": t, fault: True, "graph6": hosts[t]} for t in range(40)]
    assert report.details["fallbacks"] == (40 if fault == "fallback" else 0)
