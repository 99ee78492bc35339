"""Exhaustive theorem sweeps, randomized suites and their reports.

Enumeration-backed sweeps walk the canonical generation tree level by level
with a hereditary prune, so "all graphs up to n" is covered exactly once per
isomorphism class while only the relevant hereditary class is materialized.
Work is partitioned by parent graph and results merge in parent order, which
`Pool.map` keeps, so serial and parallel runs collect the same entries in
the same order; the report document sorts them.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context

from .detectors import (
    find_even_wheel,
    find_hole,
    find_prism,
    find_theta,
    has_clique,
    hole_through,
    holes_through,
    in_class_e,
    wheel_centred_at,
)
from .enumeration import ENUMERATION_CAP, expand_children
from .errors import ContractViolation
from .finders import extract_induced_from_blurry
from .graphs import MAX_VERTICES, SimpleGraph, add_vertex, bits, induced_subgraph, write_graph6
from .ktrees import KTree, embed_in_ktree, validate_embedding, validate_ktree
from .minors import (
    eligible_pairs,
    minor_record,
    minors_through_z,
    thm31_minor_violations,
    thm32_instances,
    thm32_verdict,
    triangle_minor,
)
from .predicates import BlurryWitness, verify_blurry

REPORT_SCHEMA = "obstruction-lab/report-v1"


def default_threads() -> int:
    env = os.environ.get("OBSTRUCTION_LAB_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        raise ContractViolation(f"OBSTRUCTION_LAB_THREADS is not an integer: {env!r}") from None
    if threads < 1:
        raise ContractViolation(f"OBSTRUCTION_LAB_THREADS must be at least 1: {env!r}")
    return threads


@dataclass
class SweepReport:
    """Outcome of one sweep; a non-empty violation list is build-failing."""

    name: str
    max_n: int
    graphs_examined: int = 0
    instances_checked: int = 0
    violations: list[dict] = field(default_factory=list)
    findings: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The report document, violations and findings each sorted by their
        JSON, so it does not depend on the order the sweep found them in."""

        def by_json(entries: list[dict]) -> list[dict]:
            return sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))

        return {
            "schema": REPORT_SCHEMA,
            "sweep": self.name,
            "max_n": self.max_n,
            "graphs_examined": self.graphs_examined,
            "instances_checked": self.instances_checked,
            "violations": by_json(self.violations),
            "findings": by_json(self.findings),
            "details": self.details,
            "wall_time_s": round(self.wall_time_s, 3),
        }

    def canonical_json(self) -> str:
        """Deterministic payload: the document without its wall time."""
        out = self.to_dict()
        del out["wall_time_s"]
        return json.dumps(out, sort_keys=True)

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"{self.name}: n<={self.max_n} graphs={self.graphs_examined} "
            f"instances={self.instances_checked} findings={len(self.findings)} "
            f"[{state}] {self.wall_time_s:.1f}s"
        )


# ---------------------------------------------------------------------------
# hereditary prunes (must be module-level for multiprocessing)
#
# Each prune is anchored on the child's new vertex v = g.n - 1 and is valid
# only on a child whose parent g - v passed the same prune: then every
# obstruction of g contains v, and the prune runs only the searches anchored
# on v (see `detectors`, "obstructions through one vertex", for why they
# suffice).  A prune whose class has no induced C4 is declared with
# `_forbids_c4`.


def _forbids_c4(prune):
    """Declare that `prune` rejects every child with an induced C4 through its
    new vertex, so `expand_children` drops such subsets before building them."""
    prune.forbids_c4 = True
    return prune


def _free_through(g: SimpleGraph, v: int, c4_allowed: bool) -> bool:
    """Whether no theta, prism or even wheel, nor a C4 unless `c4_allowed`,
    contains v, given that g - v has none of them."""
    if not hole_through(g, v):
        # the rim of a wheel centred at v lies in N(v): a rim vertex outside
        # N(v) is on a rim arc between two consecutive neighbours of v, which
        # v closes into a hole through v.  The rim is an even hole of g - v,
        # so without a C4 there it has at least six vertices.
        return (not c4_allowed and g.adj[v].bit_count() < 6) or wheel_centred_at(g, v) is None
    if not c4_allowed and any(len(cycle) == 4 for cycle in holes_through(g, v)):
        return False
    return (
        find_theta(g, anchor=v) is None
        and find_prism(g, anchor=v) is None
        and find_even_wheel(g, anchor=v) is None
    )


@_forbids_c4
def prune_class_e(g: SimpleGraph) -> bool:
    """Class-E membership; valid only inside the generation tree, where g
    minus its last vertex is in E (see the prune comment above)."""
    return _free_through(g, g.n - 1, c4_allowed=False)


@_forbids_c4
def prune_even_hole_free(g: SimpleGraph) -> bool:
    """Even-hole-freeness; valid only inside the generation tree, where g minus
    its last vertex is even-hole-free, so an even hole is one through it."""
    return all(len(cycle) % 2 for cycle in holes_through(g, g.n - 1))


def prune_tpw_free(g: SimpleGraph) -> bool:
    """Theta-, prism- and even-wheel-freeness (C4 allowed); valid only inside
    the generation tree, where g minus its last vertex has it (see the prune
    comment above)."""
    return _free_through(g, g.n - 1, c4_allowed=True)


def _prune_chordal(g: SimpleGraph, k: int) -> bool:
    """Chordal and K_{k+2}-free; valid only inside the generation tree, where g
    minus its last vertex is.  A new K_{k+2} is v plus a K_{k+1} in N(v)."""
    v = g.n - 1
    return not hole_through(g, v) and has_clique(induced_subgraph(g, g.adj[v])[0], k + 1) is None


# ---------------------------------------------------------------------------
# per-child processors; each maps g to (instances, violations, findings)


def corrupt_toggle_01(minor: SimpleGraph) -> SimpleGraph:
    """Fault-injection hook: toggles the lexicographically smallest vertex pair."""
    if minor.n < 2:
        return minor
    adj = list(minor.adj)
    adj[0] ^= 2
    adj[1] ^= 1
    return SimpleGraph(minor.n, tuple(adj))


def process_thm31(g: SimpleGraph):
    # the prune already established membership, so no check_thm31 precondition
    instances, violations = thm31_minor_violations(g)
    return instances, violations, []


def process_thm31_mutated(g: SimpleGraph):
    """Fault injection: every eligible pair's minor, corrupted by
    `corrupt_toggle_01`, runs `in_class_e`, so a sweep that reports no
    violation here has stopped reporting them."""
    pairs = eligible_pairs(g)
    violations = []
    for pair in pairs:
        minor = corrupt_toggle_01(triangle_minor(g, pair.z1, pair.z2)[0])
        verdict = in_class_e(minor)
        if not verdict.member:
            violations.append(minor_record(g, pair, minor, "certificate", verdict.violation.to_dict()))
    return len(pairs), violations, []


def process_thm32(g: SimpleGraph):
    instances = 0
    violations = []
    for cycle, z1, z2 in thm32_instances(g):
        instances += 1
        verdict = thm32_verdict(g, cycle, z1, z2)
        if verdict.status == "violation":
            violations.append(
                {
                    "graph6": write_graph6(g),
                    "cycle": list(cycle),
                    "pair": [z1, z2],
                    "classes": [c.value for c in verdict.classes],
                }
            )
    return instances, violations, []


def process_even_hole_subset(g: SimpleGraph):
    verdict = in_class_e(g)
    if verdict.member:
        return 1, [], []
    return 1, [{"graph6": write_graph6(g), "certificate": verdict.violation.to_dict()}], []


def process_embed(g: SimpleGraph, k: int):
    tree, emb = embed_in_ktree(g, k)
    ok, bad_index = validate_ktree(tree.graph, k, tree.order)
    induced_ok = validate_embedding(tree.graph, g, emb)
    if ok and induced_ok:
        return 1, [], [{"size": tree.graph.n}]
    return (
        1,
        [
            {
                "graph6": write_graph6(g),
                "ktree_graph6": write_graph6(tree.graph),
                "ktree_ok": ok,
                "bad_index": bad_index,
                "embedding_ok": induced_ok,
            }
        ],
        [],
    )


def process_c4_necessity(g: SimpleGraph):
    # host must carry an induced C4; the prune already guarantees
    # (theta, prism, even-wheel)-freeness, so minors_through_z applies
    if find_hole(g, min_len=4, max_len=4) is None:
        return 0, [], []
    pairs = eligible_pairs(g)
    findings = []
    for pair, minor in minors_through_z(g, pairs):
        theta = find_theta(minor)
        if theta is not None:
            findings.append(minor_record(g, pair, minor, "theta", theta.to_dict()))
    return len(pairs), [], findings


PROCESSORS = {
    "thm31": (prune_class_e, process_thm31),
    "thm32": (prune_class_e, process_thm32),
    "even_hole_subset_E": (prune_even_hole_free, process_even_hole_subset),
    "c4_necessity": (prune_tpw_free, process_c4_necessity),
}


# ---------------------------------------------------------------------------
# level-parallel driver


def _expand_and_process(args):
    parent, prune, processor = args
    children = expand_children(parent, prune)
    instances = 0
    violations: list[dict] = []
    findings: list[dict] = []
    for child in children:
        i, v, f = processor(child)
        instances += i
        violations.extend(v)
        findings.extend(f)
    return children, instances, violations, findings


def _run_levels(name: str, max_n: int, threads: int | None, stages, stop_when=None) -> SweepReport:
    """The one sweep driver: walks the generation tree from K0, one level per
    vertex count; `stages` is a (prune, processor) pair."""
    if not 1 <= max_n <= ENUMERATION_CAP:
        raise ContractViolation(f"sweeps support max_n in 1..{ENUMERATION_CAP}")
    prune, processor = stages
    threads = default_threads() if threads is None else threads
    if threads < 1:
        raise ContractViolation(f"thread count must be at least 1, got {threads}")
    report = SweepReport(name=name, max_n=max_n)
    t0 = time.perf_counter()
    level = [SimpleGraph(0, ())]
    per_n = {}
    # one pool for the whole sweep: a worker keeps the labellings it cached
    # for its children and can find them again when they come back as parents
    workers = min(threads, os.cpu_count() or 1)
    with get_context("fork").Pool(workers) if workers > 1 else nullcontext() as pool:
        for n in range(1, max_n + 1):
            if stop_when is not None and stop_when(report):
                break
            jobs = [(parent, prune, processor) for parent in level]
            level = []
            for children, i, v, f in (pool.map if pool else map)(_expand_and_process, jobs):
                level.extend(children)
                report.instances_checked += i
                report.violations.extend(v)
                report.findings.extend(f)
            report.graphs_examined += len(level)
            per_n[n] = len(level)
    report.details["graphs_per_n"] = per_n
    report.wall_time_s = time.perf_counter() - t0
    return report


def sweep_thm31(max_n: int, threads: int | None = None, mutate: bool = False) -> SweepReport:
    """Every class member's eligible-pair minor stays in the class."""
    if mutate:
        return _run_levels("thm31_mutated", max_n, threads, (prune_class_e, process_thm31_mutated))
    return _run_levels("thm31", max_n, threads, PROCESSORS["thm31"])


def sweep_thm32(max_n: int, threads: int | None = None) -> SweepReport:
    """Exactly-one-bad for every (hole, adjacent outside pair) instance."""
    return _run_levels("thm32", max_n, threads, PROCESSORS["thm32"])


def sweep_even_hole_subset_E(max_n: int, threads: int | None = None) -> SweepReport:
    """Even-hole-free graphs are class members."""
    return _run_levels("even_hole_subset_E", max_n, threads, PROCESSORS["even_hole_subset_E"])


def sweep_embed(max_n: int, k: int, threads: int | None = None) -> SweepReport:
    """Chordal K_{k+2}-free graphs embed into valid k-trees, induced."""
    if k not in (1, 2, 3):
        raise ContractViolation("embed sweep supports k in {1,2,3}")
    stages = (_forbids_c4(partial(_prune_chordal, k=k)), partial(process_embed, k=k))
    report = _run_levels(f"embed_k{k}", max_n, threads, stages)
    sizes = [f["size"] for f in report.findings]
    report.details["max_ktree_size"] = max(sizes) if sizes else 0
    report.findings = []  # sizes were bookkeeping, not exemplars
    return report


def sweep_c4_necessity(max_n: int, threads: int | None = None) -> SweepReport:
    """Search for a (theta, prism, even-wheel)-free host with an induced C4
    whose eligible-pair minor contains a theta; stops at the first vertex
    count that yields exemplars, which are the report's findings."""
    name = "c4_necessity"
    return _run_levels(name, max_n, threads, PROCESSORS[name], stop_when=lambda r: bool(r.findings))


# ---------------------------------------------------------------------------
# randomized blurry-copy suite


def random_two_tree(rng: random.Random, h: int) -> tuple[KTree, list[tuple[int, int]]]:
    """Random 2-tree grown by attaching each new vertex to a random edge, with
    the edge list it grows the tree from."""
    if not 2 <= h <= MAX_VERTICES:
        raise ContractViolation(f"a random 2-tree has 2..{MAX_VERTICES} vertices, got {h}")
    adj = [0] * h
    adj[0], adj[1] = 0b10, 0b01
    edges = [(0, 1)]
    for v in range(2, h):
        u, w = edges[rng.randrange(len(edges))]
        adj[u] |= 1 << v
        adj[w] |= 1 << v
        adj[v] = (1 << u) | (1 << w)
        edges.extend([(u, v), (w, v)])
    order = tuple(range(h - 1, -1, -1))
    return KTree(SimpleGraph(h, tuple(adj)), 2, order), edges


def _plant_blurry_host(rng: random.Random, tree: KTree) -> SimpleGraph:
    """K4-free host: the 2-tree itself plus noise vertices attached anywhere
    an edge does not complete a K4."""
    g = tree.graph
    extra = rng.randrange(0, 5)
    for _ in range(extra):
        mask = 0
        candidates = list(range(g.n))
        rng.shuffle(candidates)
        for u in candidates:
            near = g.adj[u] & mask  # mask stays triangle-free, so a K4 needs a triangle on u
            if rng.random() < 0.35 and not any(g.adj[v] & near for v in bits(near)):
                mask |= 1 << u
        g = add_vertex(g, mask)
    return g


def sweep_obs51(trials: int, seed: int) -> SweepReport:
    """Randomized blurry witnesses over K4-free hosts: the direct extraction
    path must always apply and the extracted embedding must re-verify."""
    if trials < 0:
        raise ContractViolation(f"obs51 needs a trial count >= 0, got {trials}")
    report = SweepReport(name="obs51", max_n=0)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for trial in range(trials):
        h = rng.randint(2, 9)
        tree, edges = random_two_tree(rng, h)
        host = _plant_blurry_host(rng, tree)
        witness = BlurryWitness(
            zset=tuple(range(h)),
            y_edges=tuple(edges),
            order=tree.order,
            target=tree,
        )
        report.instances_checked += 1
        try:
            result = extract_induced_from_blurry(host, witness)
        except ContractViolation:  # a refused witness is verified again to name its clause
            bad = {"clause": verify_blurry(host, witness)}
        else:
            if result.fallback_used:
                bad = {"fallback": True}
            elif validate_embedding(host, tree.graph, result.embedding):
                continue
            else:
                bad = {"bad_embedding": True}
        report.violations.append({"trial": trial, **bad, "graph6": write_graph6(host)})
    report.details["fallbacks"] = sum("fallback" in v for v in report.violations)
    report.graphs_examined = trials
    report.wall_time_s = time.perf_counter() - t0
    return report

