import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import obstruction_lab
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import SimpleGraph, check_vertices, complete_graph, cycle_graph, path_graph
from obstruction_lab.ktrees import KTree, recognize_ktree
from obstruction_lab.predicates import (
    Alignment,
    BlurryWitness,
    Kaleidoscope,
    Palanquin,
    StrongBlockWitness,
    blurry_extra_edges,
    verify_alignment,
    verify_blurry,
    verify_kaleidoscope,
    verify_mirrored,
    verify_palanquin,
    verify_strong_block,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from obstruction_lab.sweeps import random_two_tree

from conftest import diamond
from test_ktrees import pairwise_validate_ktree

SRC = str(Path(obstruction_lab.__file__).resolve().parents[1])


def theta_with_pendant():
    # K_{2,3} with ends 0,1 plus an apex 5 adjacent to exactly the ends
    return SimpleGraph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 0), (5, 1)]
    )


def test_kaleidoscope_examples():
    g = theta_with_pendant()
    k = Kaleidoscope(a=5, x=0, y=1, paths=((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    assert verify_kaleidoscope(g, k) is None
    g_bad = SimpleGraph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 0), (5, 1), (5, 2)]
    )
    assert verify_kaleidoscope(g_bad, k) == "K3"
    # x adjacent to y breaks the apex path
    g_xy = SimpleGraph.from_edges(4, [(0, 1), (2, 0), (2, 1), (0, 3), (3, 1)])
    assert verify_kaleidoscope(g_xy, Kaleidoscope(2, 0, 1, ((0, 3, 1),))) == "K1"
    with pytest.raises(ContractViolation):
        verify_kaleidoscope(g, Kaleidoscope(99, 0, 1, ()))


def test_kaleidoscope_internal_disjointness():
    # two induced x-y paths whose interiors share the vertex 4
    g = SimpleGraph.from_edges(8, [(5, 0), (5, 1), (0, 3), (3, 4), (4, 1), (0, 6), (6, 7), (7, 4)])
    k = Kaleidoscope(5, 0, 1, ((0, 3, 4, 1), (0, 6, 7, 4, 1)))
    assert verify_kaleidoscope(g, k) == "K2"  # interiors share vertices


def test_mirrored_clauses():
    # one long path so the mirrored vertex can have 3 buffered neighbors
    edges = [(8, 0), (8, 1)]
    path = [0, 2, 3, 4, 5, 6, 7, 1]
    edges += [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    edges += [(9, 3), (9, 4), (9, 5)]
    g = SimpleGraph.from_edges(10, edges)
    k = Kaleidoscope(8, 0, 1, ((0, 2, 3, 4, 5, 6, 7, 1),))
    assert verify_kaleidoscope(g, k) is None
    assert verify_mirrored(g, k, (9,), 3) is None
    assert verify_mirrored(g, k, (9,), 4) == "M3"
    assert verify_mirrored(g, k, (3,), 1) == "M1"  # vertex sits on a path
    # a second vertex adjacent to the apex and the first: apex sees two
    g2 = SimpleGraph.from_edges(
        11, edges + [(10, 3), (10, 4), (10, 5), (10, 8), (9, 8)]
    )
    assert verify_mirrored(g2, k, (9, 10), 3) == "M2"
    # neighbor of x on the path is off limits
    g3 = SimpleGraph.from_edges(11, edges + [(10, 2), (10, 4), (10, 5)])
    assert verify_mirrored(g3, k, (10,), 1) == "M3"


# apex 0, stable set {1,2} in N(0), disjoint paths both members attach to
PALANQUIN_HOST = SimpleGraph.from_edges(
    9, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 5), (1, 7), (2, 6), (2, 8), (5, 6), (7, 8)]
)


def test_palanquin_examples():
    g = PALANQUIN_HOST
    p = Palanquin(0, (1, 2), ((3, 4), (5, 6), (7, 8)))
    assert verify_palanquin(g, p) is None
    assert verify_palanquin(g, Palanquin(0, (1, 2), ((3, 4), (4, 5)))) == "P1"
    # apex touching a path violates the anticompleteness clause
    g_bad = SimpleGraph.from_edges(9, g.edges() + [(0, 5)])
    assert verify_palanquin(g_bad, p) == "P2"


ALIGNMENT_HOST = SimpleGraph.from_edges(
    9, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2), (0, 3), (1, 5), (1, 6), (8, 0), (8, 1)]
)
LONG_PATH = (2, 3, 4, 5, 6, 7)


def test_alignment_verifier():
    g = ALIGNMENT_HOST
    al = Alignment((0, 1), LONG_PATH, 2, (0, 1))
    assert verify_alignment(g, al) is None
    assert verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, (1, 0))) == "A3"
    with pytest.raises(ContractViolation):
        verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, (0, 0)))
    # the end x names a vertex too
    for x in (-1, 9):
        with pytest.raises(ContractViolation):
            verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), x, (0, 1)))


# witnesses tampered with so that each trips a different refusal of its
# verifier, and the clause that refusal names
TAMPERED = {
    "kaleidoscope-path-ends": (theta_with_pendant(), Kaleidoscope(5, 0, 1, ((0, 2, 1), (0, 3))), "K2"),
    "kaleidoscope-path-through-apex": (theta_with_pendant(), Kaleidoscope(5, 0, 1, ((0, 5, 1),)), "K2"),
    "kaleidoscope-path-not-induced": (
        SimpleGraph.from_edges(5, [(3, 0), (3, 1), (0, 2), (2, 4), (4, 1), (0, 4)]),
        Kaleidoscope(3, 0, 1, ((0, 2, 4, 1),)),
        "K2",
    ),
    "palanquin-apex-misses-set": (PALANQUIN_HOST, Palanquin(0, (1, 3), ((5, 6), (7, 8))), "P1"),
    "palanquin-set-not-stable": (
        SimpleGraph.from_edges(9, PALANQUIN_HOST.edges() + [(1, 2)]),
        Palanquin(0, (1, 2), ((3, 4), (5, 6), (7, 8))),
        "P1",
    ),
    "palanquin-member-misses-path": (PALANQUIN_HOST, Palanquin(0, (1, 2), ((3, 4), (5,))), "P2"),
    "alignment-path-meets-set": (ALIGNMENT_HOST, Alignment((0, 1), (0, 2, 3), 0, (0, 1)), "A1"),
    "alignment-x-not-an-end": (ALIGNMENT_HOST, Alignment((0, 1), LONG_PATH, 3, (0, 1)), "A1"),
    "alignment-set-not-stable": (ALIGNMENT_HOST, Alignment((0, 8), LONG_PATH, 2, (0, 8)), "A1"),
    "alignment-member-misses-path": (ALIGNMENT_HOST, Alignment((8,), LONG_PATH, 2, (8,)), "A2"),
    "strong-block-smaller-than-k": (cycle_graph(4), StrongBlockWitness(3, (0, 2), (((0, 2), ((0, 1, 2),)),)), "SB1"),
    "strong-block-family-missing": (cycle_graph(4), StrongBlockWitness(2, (0, 2), ()), "SB2"),
    "strong-block-not-a-path": (
        cycle_graph(4), StrongBlockWitness(2, (0, 2), (((0, 2), ((0, 1, 2), (0, 2))),)), "SB2",
    ),
    "strong-block-path-repeated": (
        cycle_graph(4), StrongBlockWitness(2, (0, 2), (((0, 2), ((0, 1, 2), (2, 1, 0))),)), "SB2",
    ),
    "strong-block-interiors-overlap": (
        complete_graph(4), StrongBlockWitness(2, (0, 1), (((0, 1), ((0, 2, 1), (0, 2, 3, 1))),)), "SB2",
    ),
}


@pytest.mark.parametrize("name", TAMPERED)
def test_tampered_witness_names_its_clause(name):
    g, witness, clause = TAMPERED[name]
    assert verify_witness(g, witness) == clause


# malformed witnesses, which no clause describes, raise
MALFORMED = {
    "palanquin-empty-set": (PALANQUIN_HOST, Palanquin(0, (), ((3, 4),))),
    "alignment-empty-path": (ALIGNMENT_HOST, Alignment((0, 1), (), 2, (0, 1))),
    "alignment-repeated-member": (ALIGNMENT_HOST, Alignment((0, 0), LONG_PATH, 2, (0, 0))),
    "strong-block-pair-of-three": (cycle_graph(4), StrongBlockWitness(2, (0, 2), (((0, 1, 2), ((0, 1, 2),)),))),
    "strong-block-repeated-vertex": (cycle_graph(4), StrongBlockWitness(2, (0, 0), ())),
    "strong-block-k-zero": (cycle_graph(4), StrongBlockWitness(0, (0, 2), ())),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_witness_raises(name):
    g, witness = MALFORMED[name]
    with pytest.raises(ContractViolation):
        verify_witness(g, witness)


def test_blurry_witness_and_extra_edges():
    dia = diamond()
    order = recognize_ktree(dia, 2)
    target = KTree(dia, 2, order)
    w = BlurryWitness(
        zset=(0, 1, 2, 3), y_edges=tuple(dia.edges()), order=order, target=target
    )
    assert verify_blurry(dia, w) is None
    assert blurry_extra_edges(dia, w) == []

    # host carries one extra edge on top of the spanning 2-tree; the forward
    # pair of the earlier endpoint must absorb it
    host = SimpleGraph.from_edges(4, dia.edges() + [(2, 3)])  # K4
    w2 = BlurryWitness((0, 1, 2, 3), tuple(dia.edges()), order, target)
    assert verify_blurry(host, w2) is None
    assert blurry_extra_edges(host, w2) == [(2, 3)]

    # breaking one spanning edge must fail B1
    w3 = BlurryWitness((0, 1, 2, 3), tuple(dia.edges()[:-1]), order, target)
    assert verify_blurry(dia, w3) == "B1"


def test_blurry_missing_host_edge_gives_b1():
    # the triangle 0,1,2 as the 2-tree, but 0-2 is not a host edge
    g = SimpleGraph.from_edges(5, [(0, 1), (0, 3), (1, 3), (1, 2), (0, 4), (2, 4)])
    tri = complete_graph(3)
    target = KTree(tri, 2, (2, 0, 1))
    w = BlurryWitness(
        zset=(0, 1, 2), y_edges=((0, 1), (1, 2), (0, 2)), order=(2, 0, 1), target=target
    )
    assert verify_blurry(g, w) == "B1"


def strip_b2_witness():
    """The triangle strip on 0..4 as its own 2-tree copy, in a host with the
    extra edge 0-4: vertex 4 misses 1, a forward neighbour of 0, so B2 fails."""
    strip = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    order = (0, 1, 2, 3, 4)
    w = BlurryWitness((0, 1, 2, 3, 4), tuple(strip.edges()), order, KTree(strip, 2, order))
    return strip, SimpleGraph.from_edges(5, strip.edges() + [(0, 4)]), w


def test_blurry_b2_violation():
    strip, host, w = strip_b2_witness()
    assert verify_blurry(strip, w) is None
    assert verify_blurry(host, w) == "B2"


def test_blurry_verdict_holds_under_python_O(tmp_path):
    # the verifier's guards are checks, not asserts, so -O changes no verdict
    _, host, w = strip_b2_witness()
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(witness_to_dict(host, w)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-O", "-m", "obstruction_lab.cli", "verify", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert (done.returncode, done.stdout) == (1, "blurry: clause B2 violated\n"), done.stderr


def test_strong_block_examples():
    c4 = cycle_graph(4)
    w = StrongBlockWitness(2, (0, 2), (((0, 2), ((0, 1, 2), (0, 3, 2))),))
    assert verify_strong_block(c4, w) is None
    # K4 uses a non-induced path through a third vertex
    k4 = complete_graph(4)
    w2 = StrongBlockWitness(2, (0, 1), (((0, 1), ((0, 1), (0, 2, 1))),))
    assert verify_strong_block(k4, w2) is None
    # family too small
    w3 = StrongBlockWitness(2, (0, 2), (((0, 2), ((0, 1, 2),)),))
    assert verify_strong_block(c4, w3) == "SB2"
    # cross-family overlap beyond shared endpoints
    k4w = StrongBlockWitness(
        2,
        (0, 1, 2),
        (
            ((0, 1), ((0, 1), (0, 3, 1))),
            ((0, 2), ((0, 2), (0, 3, 2))),
            ((1, 2), ((1, 2), (1, 3, 2))),
        ),
    )
    assert verify_strong_block(k4, k4w) == "SB3"


def test_witness_json_round_trip():
    g = theta_with_pendant()
    k = Kaleidoscope(5, 0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    doc = witness_to_dict(g, k)
    g2, k2 = witness_from_dict(doc)
    assert g2 == g and k2 == k
    assert verify_witness(g2, k2) is None

    dia = diamond()
    order = recognize_ktree(dia, 2)
    w = BlurryWitness((0, 1, 2, 3), tuple(dia.edges()), order, KTree(dia, 2, order))
    g3, w3 = witness_from_dict(witness_to_dict(dia, w))
    assert w3 == w and verify_witness(g3, w3) is None


# ---------------------------------------------------------------------------
# the row-mask blurry kernels against their pairwise definitions


def pairwise_verify_blurry(g, w):
    """verify_blurry's clauses read pair by pair: the reference for the
    row-mask verifier.  The range and bijection checks are shared."""
    check_vertices(g, w.zset, 1, "zset")
    check_vertices(g, w.order, 1, "order")
    if len(set(w.zset)) != len(w.zset) or sorted(w.order) != sorted(w.zset):
        raise ContractViolation("zset or order")
    t = w.target
    if sorted(t.order) != list(range(t.graph.n)):
        raise ContractViolation("target order")
    h = len(w.zset)
    if t.k != 2 or t.graph.n != h:
        return "B1"
    pos = {v: i for i, v in enumerate(w.order)}
    y_adj = [0] * h
    for u, v in w.y_edges:
        if u not in pos or v not in pos:
            raise ContractViolation("spanning edge outside the induced set")
        if not g.has_edge(u, v):
            return "B1"
        y_adj[pos[u]] |= 1 << pos[v]
        y_adj[pos[v]] |= 1 << pos[u]
    y_graph = SimpleGraph(h, tuple(y_adj))
    if pairwise_validate_ktree(y_graph, 2, tuple(range(h))) != (True, None):
        return "B1"
    for i, j in combinations(range(h), 2):
        if y_graph.has_edge(i, j) != t.graph.has_edge(t.order[i], t.order[j]):
            return "B1"
    for i, j in combinations(range(h), 2):
        if g.has_edge(w.order[i], w.order[j]) and not y_graph.has_edge(i, j):
            fwd = [f for f in range(i + 1, h) if y_graph.has_edge(i, f)]
            if len(fwd) != 2 or not all(g.has_edge(w.order[j], w.order[f]) for f in fwd):
                return "B2"
    return None


def pairwise_extra_edges(g, w):
    y_set = {frozenset(e) for e in w.y_edges}
    return [
        (u, v)
        for u, v in combinations(sorted(w.zset), 2)
        if g.has_edge(u, v) and frozenset((u, v)) not in y_set
    ]


def _outcome(verify, g, w):
    try:
        return verify(g, w)
    except ContractViolation:
        return "ContractViolation"


def _relabelled(t, perm):
    """The same k-tree with vertex x renamed perm[x], its ordering carried along."""
    adj = [0] * t.graph.n
    for u, v in t.graph.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return KTree(SimpleGraph(t.graph.n, tuple(adj)), t.k, tuple(perm[x] for x in t.order))


def blurry_cases(seed, count):
    """Seeded witnesses: a random 2-tree placed on random host vertices, the
    host adding random edges inside and around the copy, then the witness
    as it is and tampered (an edge dropped or added, a spanning edge cut
    from the host, two order positions swapped, the target relabelled
    consistently or not, an edge leaving the set, a repeated vertex)."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rng.randint(2, 8)
        tree = random_two_tree(rng, h)[0]
        n = h + rng.randint(0, 3)
        place = rng.sample(range(n), h)
        y_edges = [(place[u], place[v]) for u, v in tree.graph.edges()]
        noise = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.08]
        host = SimpleGraph.from_edges(n, {tuple(sorted(e)) for e in y_edges + noise})
        zset = tuple(rng.sample(place, h))
        order = tuple(place[x] for x in tree.order)
        w = BlurryWitness(zset, tuple(y_edges), order, tree)
        yield host, w
        dropped = list(y_edges)
        del dropped[rng.randrange(len(dropped))]
        yield host, BlurryWitness(zset, tuple(dropped), order, tree)
        cut = tuple(sorted(rng.choice(y_edges)))
        yield SimpleGraph.from_edges(n, [e for e in host.edges() if e != cut]), w
        u, v = rng.sample(place, 2) if h > 2 else (place[0], place[0])
        yield host, BlurryWitness(zset, tuple(y_edges + [(u, v)]), order, tree)
        i, j = rng.randrange(h), rng.randrange(h)
        swapped = list(order)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield host, BlurryWitness(zset, tuple(y_edges), tuple(swapped), tree)
        perm = rng.sample(range(h), h)
        yield host, BlurryWitness(zset, tuple(y_edges), order, _relabelled(tree, perm))
        moved = KTree(_relabelled(tree, perm).graph, 2, tree.order)
        yield host, BlurryWitness(zset, tuple(y_edges), order, moved)
        if n > h:
            outside = next(x for x in range(n) if x not in place)
            yield host, BlurryWitness(zset, tuple(y_edges + [(place[0], outside)]), order, tree)
        yield host, BlurryWitness(zset[:-1] + zset[:1], tuple(y_edges), order, tree)


def test_verify_blurry_matches_pairwise_clauses():
    cases = list(blurry_cases(61, 400))
    verdicts = [_outcome(verify_blurry, g, w) for g, w in cases]
    assert verdicts == [_outcome(pairwise_verify_blurry, g, w) for g, w in cases]
    assert set(verdicts) == {None, "B1", "B2", "ContractViolation"}
    # some verified witnesses carry host edges beyond their 2-tree
    assert any(v is None and pairwise_extra_edges(g, w) for v, (g, w) in zip(verdicts, cases))


def test_blurry_extra_edges_matches_pairwise():
    cases = [(g, w) for g, w in blurry_cases(62, 400) if len(set(w.zset)) == len(w.zset)]
    assert [blurry_extra_edges(g, w) for g, w in cases] == [pairwise_extra_edges(g, w) for g, w in cases]
    assert sum(bool(pairwise_extra_edges(g, w)) for g, w in cases) > len(cases) // 4
