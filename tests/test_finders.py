import itertools
import random

from obstruction_lab.detectors import anticomplete_sets
from obstruction_lab.finders import extract_induced_from_blurry, find_strong_block
from obstruction_lab.graphs import SimpleGraph, bits, complete_graph, cycle_graph, path_graph
from obstruction_lab.ktrees import KTree, recognize_ktree, validate_embedding
from obstruction_lab.predicates import BlurryWitness, verify_strong_block

from conftest import diamond, random_graphs


def _first_anticomplete(g, sets, q):
    """The first q-combination, in itertools order, of sets that are pairwise
    disjoint with no edge between any two of them."""

    def anticomplete(a, b):
        return not a & b and not any(g.has_edge(u, v) for u in bits(a) for v in bits(b))

    for combo in itertools.combinations(range(len(sets)), q):
        if all(anticomplete(sets[i], sets[j]) for i, j in itertools.combinations(combo, 2)):
            return combo
    return None


def test_anticomplete_sets_is_the_first_combination():
    rng = random.Random(23)
    checked = found = 0
    for g in random_graphs(150, 23, (0, 14)):
        # each vertex joins one of `parts` sets or none; some sets stay empty
        parts = rng.randint(0, 8)
        sets = [0] * parts
        for v in range(g.n):
            slot = rng.randrange(parts + 1)
            if slot < parts:
                sets[slot] |= 1 << v
        for q in range(1, parts + 2):
            want = _first_anticomplete(g, sets, q)
            assert anticomplete_sets(g, sets, q) == want
            checked += 1
            found += want is not None
    assert found > 100 and checked - found > 100


def test_anticomplete_sets_on_overlapping_sets():
    # find_theta passes path interiors, which may share vertices: two sets
    # that overlap are never both taken, even with no edge between them
    rng = random.Random(29)
    checked = found = overlap_only = 0
    for g in random_graphs(150, 29, (0, 14)):
        sets = [sum(1 << v for v in range(g.n) if rng.random() < 0.2) for _ in range(rng.randint(0, 8))]
        for a, b in itertools.combinations(sets, 2):
            overlap_only += bool(a & b) and not any(g.has_edge(u, v) for u in bits(a) for v in bits(b))
        for q in range(1, len(sets) + 2):
            want = _first_anticomplete(g, sets, q)
            assert anticomplete_sets(g, sets, q) == want
            checked += 1
            found += want is not None
    assert found > 100 and checked - found > 100 and overlap_only > 20


def test_extract_identity_and_fallback():
    dia = diamond()
    order = recognize_ktree(dia, 2)
    target = KTree(dia, 2, order)
    w = BlurryWitness((0, 1, 2, 3), tuple(dia.edges()), order, target)
    res = extract_induced_from_blurry(dia, w)
    assert not res.fallback_used
    assert validate_embedding(dia, dia, res.embedding)

    # extra edge forces a K4 on the implicated vertices; fallback kicks in
    host = SimpleGraph.from_edges(4, dia.edges() + [(2, 3)])
    w2 = BlurryWitness((0, 1, 2, 3), tuple(dia.edges()), order, target)
    res2 = extract_induced_from_blurry(host, w2)
    assert res2.fallback_used
    assert res2.embedding is None  # K4 has no induced diamond


def test_find_strong_block_examples():
    r = find_strong_block(complete_graph(4), 2)
    assert r.witness is not None and verify_strong_block(complete_graph(4), r.witness) is None
    r = find_strong_block(path_graph(5), 2)
    assert r.witness is None and r.conclusive
    r = find_strong_block(cycle_graph(4), 2)
    assert r.witness is not None and set(r.witness.block) in ({0, 2}, {0, 1})
    # tiny budget: inconclusive, not absent
    r = find_strong_block(complete_graph(6), 3, budget=3)
    assert r.witness is None and not r.conclusive


def test_find_strong_block_k3():
    # K5 cannot host one: the three families would need six private interior
    # vertices and only two exist
    r = find_strong_block(complete_graph(5), 3)
    assert r.witness is None and r.conclusive
    # triangle plus two private common neighbors per pair can
    g = SimpleGraph.from_edges(
        9,
        [(0, 1), (0, 2), (1, 2)]
        + [(3, 0), (3, 1), (4, 0), (4, 1)]
        + [(5, 0), (5, 2), (6, 0), (6, 2)]
        + [(7, 1), (7, 2), (8, 1), (8, 2)],
    )
    r = find_strong_block(g, 3)
    assert r.witness is not None and r.witness.block == (0, 1, 2)
    assert verify_strong_block(g, r.witness) is None
