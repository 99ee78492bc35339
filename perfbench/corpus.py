"""Seeded graph6 corpus for the check-corpus workload.

Hosts are clique-cutset amalgams of odd holes (C5, C7, C9) and small cliques
(K2, K3).  C4, thetas, prisms and even wheels have no clique cutset, and a K4
is a clique, so each of them lies inside one block of an amalgam; the hosts are
therefore (C4, theta, prism, even-wheel, K4)-free by construction.  Each host
is emitted as a member and again with one gadget glued on along a vertex or an
edge: a C4, a C4-free theta, a C4-free prism, a C4-free even wheel or a K4.
The gadget then decides the verdict, and its kind is the certificate kind that
`check --t 4` must report.

Run as a script, it prints the corpus for a seed (and optionally a host
count) as graph6 lines only:

    PYTHONPATH=src python3 perfbench/corpus.py 7
"""

from __future__ import annotations

import random
import sys
from itertools import combinations

from obstruction_lab.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    parse_graph6,
    write_graph6,
)

MEMBER = "member"
PLANTED = ("hole", "theta", "prism", "even_wheel", "clique")
HOST_N = (10, 24)
HOSTS = 60  # hosts per corpus; each gives six graphs


def _path_edges(ends: tuple[int, int], length: int, next_free: int) -> tuple[list, int]:
    """Edges of a path of `length` edges between two given ends."""
    seq = [ends[0]] + list(range(next_free, next_free + length - 1)) + [ends[1]]
    return list(zip(seq, seq[1:])), next_free + length - 1


def _theta(lengths: tuple[int, int, int]) -> SimpleGraph:
    edges, free = [], 2
    for length in lengths:
        more, free = _path_edges((0, 1), length, free)
        edges += more
    return SimpleGraph.from_edges(free, edges)


def _prism(lengths: tuple[int, int, int]) -> SimpleGraph:
    edges, free = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6
    for i, length in enumerate(lengths):
        more, free = _path_edges((i, i + 3), length, free)
        edges += more
    return SimpleGraph.from_edges(free, edges)


def _even_wheel(k: int) -> SimpleGraph:
    # center on two disjoint hole edges {0,1} and {4,5}; both sectors between
    # them have at least three hole edges, so no C4 appears
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k, v) for v in (0, 1, 4, 5)]
    return SimpleGraph.from_edges(k + 1, edges)


# Every gadget variant has at most 10 vertices, so all of them are checked
# against the subset oracles.  Thetas have at most one path of length 2 and
# prisms at most one of length 1, so no two paths close a C4.
GADGETS = {
    "hole": [cycle_graph(4)],
    "theta": [_theta((a, b, c)) for a in (2, 3) for b in (3, 4) for c in (3, 4)],
    "prism": [_prism((a, 2, c)) for a in (1, 2) for c in (2, 3)],
    "even_wheel": [_even_wheel(k) for k in (8, 9)],
    "clique": [complete_graph(4)],
}


def _block(rng: random.Random) -> SimpleGraph:
    return rng.choice((cycle_graph(5), cycle_graph(7), cycle_graph(9), complete_graph(2), complete_graph(3)))


def glue(host: SimpleGraph, block: SimpleGraph, rng: random.Random) -> SimpleGraph:
    """Clique-cutset amalgam: identify a vertex or an edge of `block` with one of `host`."""
    if rng.random() < 0.5 and host.edge_count() and block.edge_count():
        at_host = rng.choice(host.edges())
        at_block = rng.choice(block.edges())
    else:
        at_host = (rng.randrange(host.n),)
        at_block = (rng.randrange(block.n),)
    where = dict(zip(at_block, at_host))
    free = host.n
    for v in range(block.n):
        if v not in where:
            where[v] = free
            free += 1
    edges = host.edges() + [(where[u], where[v]) for u, v in block.edges()]
    return SimpleGraph.from_edges(free, edges)


def _host(n: int, rng: random.Random) -> SimpleGraph:
    g = _block(rng)
    while g.n < n:
        block = _block(rng)
        # a vertex glue adds block.n - 1 vertices, an edge glue one fewer
        if block.n - 1 > n - g.n:
            block = complete_graph(2)
        g = glue(g, block, rng)
    return g


def _relabel(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def generate(seed: int, hosts: int = HOSTS) -> list[tuple[str, str]]:
    """(graph6, expected kind) pairs: every host as a member, then once per planted kind."""
    rng = random.Random(seed)
    out = []
    lo, hi = HOST_N
    for i in range(hosts):
        # sizes cycle through the range, so the work per corpus varies little with the seed
        host = _host(lo + i % (hi - lo + 1), rng)
        out.append((write_graph6(_relabel(host, rng)), MEMBER))
        for kind in PLANTED:
            planted = glue(host, rng.choice(GADGETS[kind]), rng)
            out.append((write_graph6(_relabel(planted, rng)), kind))
    return out


# ---------------------------------------------------------------------------
# cross-check against the subset oracles kept with the tests


def oracle_kind(g: SimpleGraph) -> str:
    """First violation in the order `check --t 4` reports, from the subset oracles."""
    # tests/ is on the path only in the harness, never in the timed worker
    from oracle_detectors import (
        oracle_has_even_wheel,
        oracle_has_hole,
        oracle_has_prism,
        oracle_has_theta,
    )

    quads = list(combinations(range(g.n), 4))
    if any(oracle_has_hole(induced_subgraph(g, sum(1 << v for v in q))[0]) for q in quads):
        return "hole"
    if oracle_has_theta(g):
        return "theta"
    if oracle_has_prism(g):
        return "prism"
    if oracle_has_even_wheel(g):
        return "even_wheel"
    if any(all(g.has_edge(u, v) for u, v in combinations(q, 2)) for q in quads):
        return "clique"
    return MEMBER


def cross_check(seed: int, hosts: int = HOSTS, max_n: int = 10) -> tuple[int, list[str]]:
    """Check pinned kinds against the oracles on every corpus graph with n <= max_n
    and on every gadget variant; returns (graphs checked, mismatches)."""
    graphs = [(parse_graph6(line), kind) for line, kind in generate(seed, hosts)]
    graphs = [(g, kind) for g, kind in graphs if g.n <= max_n]
    graphs += [(g, kind) for kind, variants in GADGETS.items() for g in variants]
    bad = []
    for g, kind in graphs:
        got = oracle_kind(g)
        if got != kind:
            bad.append(f"{write_graph6(g)}: pinned {kind}, oracle {got}")
    return len(graphs), bad


if __name__ == "__main__":
    seed = int(sys.argv[1])
    hosts = int(sys.argv[2]) if len(sys.argv) > 2 else HOSTS
    for line, _ in generate(seed, hosts):
        print(line)
