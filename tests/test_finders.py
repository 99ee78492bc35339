import itertools
import random

import pytest

from obstruction_lab.detectors import anticomplete_sets, find_theta
from obstruction_lab.errors import ContractViolation, HypothesisMiss
from obstruction_lab.finders import (
    anticomplete_family,
    banana_select,
    extract_induced_from_blurry,
    filter_mirrored,
    find_alignment,
    find_strong_block,
    ramsey_split,
)
from obstruction_lab.graphs import (
    SimpleGraph,
    bits,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
)
from obstruction_lab.ktrees import KTree, recognize_ktree, validate_embedding
from obstruction_lab.predicates import (
    Alignment,
    BlurryWitness,
    Kaleidoscope,
    verify_alignment,
    verify_strong_block,
)

from conftest import diamond, random_graphs


def test_find_alignment_simple():
    g = SimpleGraph.from_edges(
        9, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2), (0, 3), (1, 5), (1, 6), (8, 0), (8, 1)]
    )
    out = find_alignment(g, 8, (0, 1), (2, 3, 4, 5, 6, 7), 2)
    assert out.pi == (0, 1) and not out.anomaly
    assert verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, out.pi)) is None
    # single member: identity
    out = find_alignment(g, 8, (1,), (2, 3, 4, 5, 6, 7), 2)
    assert out.pi == (1,)


def test_find_alignment_self_check_raises(monkeypatch):
    # the self-check on the constructed order must survive python -O
    import obstruction_lab.finders as finders

    g = SimpleGraph.from_edges(
        9, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2), (0, 3), (1, 5), (1, 6), (8, 0), (8, 1)]
    )
    monkeypatch.setattr(finders, "verify_alignment", lambda g, a: "A3")
    with pytest.raises(ContractViolation):
        find_alignment(g, 8, (0, 1), (2, 3, 4, 5, 6, 7), 2)


def test_find_alignment_interleaved_anomaly():
    # constructed overlap: s1 attaches at positions 0 and 4, s2 at 2 and 6,
    # and the host indeed contains a theta (through the apex), so absence is
    # the expected anomaly rather than a contradiction
    l = list(range(2 + 7))[2:]  # vertices 2..8 form the path
    edges = [(l[i], l[i + 1]) for i in range(6)]
    edges += [(0, l[0]), (0, l[4]), (1, l[2]), (1, l[6]), (9, 0), (9, 1)]
    g = SimpleGraph.from_edges(10, edges)
    assert find_theta(g) is not None
    out = find_alignment(g, 9, (0, 1), tuple(l), l[0])
    assert out.pi is None and out.anomaly


def test_find_alignment_hypothesis_misses():
    g = SimpleGraph.from_edges(
        9, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2), (0, 3), (1, 5), (1, 6), (8, 0), (8, 1)]
    )
    with pytest.raises(HypothesisMiss):
        find_alignment(g, 8, (0, 1), (2, 3, 4, 5, 6, 7), 4)  # x not an end
    # shared neighbor on the path
    h = SimpleGraph.from_edges(
        9, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 3), (0, 4), (1, 4), (1, 6), (8, 0), (8, 1)]
    )
    with pytest.raises(HypothesisMiss):
        find_alignment(h, 8, (0, 1), (2, 3, 4, 5, 6, 7), 2)


def test_alignment_never_anomalous_on_theta_free_hosts():
    # randomized suite: in a theta-free host meeting the finder's hypotheses
    # the interval order always exists (anomaly counter stays 0).
    # Attachments are built to satisfy the hypotheses directly: per-member
    # pairwise disjoint neighbor sets, uniformly path-bad (consecutive pairs)
    # or uniformly path-ugly (sets with a non-adjacent pair).
    import random

    rng = random.Random(23)
    anomalies = 0
    qualifying = 0
    for _ in range(400):
        path_len = rng.randint(6, 10)
        s_count = rng.randint(2, 3)
        n = path_len + s_count + 1
        apex = n - 1
        path = tuple(range(path_len))
        edges = [(i, i + 1) for i in range(path_len - 1)]
        free = list(range(path_len))
        ugly = rng.random() < 0.6
        ok = True
        for si in range(s_count):
            s = path_len + si
            edges.append((apex, s))
            if ugly:
                cands = [v for v in free]
                if len(cands) < 2:
                    ok = False
                    break
                hits = rng.sample(cands, min(len(cands), rng.randint(2, 3)))
                if max(hits) - min(hits) < 2:
                    ok = False
                    break
            else:
                starts = [v for v in free if v + 1 in free and v + 1 < path_len]
                if not starts:
                    ok = False
                    break
                v = rng.choice(starts)
                hits = [v, v + 1]
            for h in hits:
                free.remove(h)
            edges += [(s, h) for h in hits]
        if not ok:
            continue
        g = SimpleGraph.from_edges(n, edges)
        s_set = tuple(range(path_len, path_len + s_count))
        if find_theta(g) is not None:
            continue
        try:
            out = find_alignment(g, apex, s_set, path, 0)
        except HypothesisMiss:
            continue
        qualifying += 1
        if out.anomaly:
            anomalies += 1
    assert qualifying >= 100
    assert anomalies == 0


def _mirror_host():
    edges = [(8, 0), (8, 1)]
    w1 = [0, 2, 3, 4, 5, 6, 7, 1]
    edges += [(w1[i], w1[i + 1]) for i in range(7)]
    w2 = [0, 9, 10, 11, 12, 13, 14, 1]
    edges += [(w2[i], w2[i + 1]) for i in range(7)]
    z = 15
    edges += [(z, 3), (z, 4), (z, 5), (z, 10), (z, 11)]
    return SimpleGraph.from_edges(16, edges), Kaleidoscope(8, 0, 1, (tuple(w1), tuple(w2))), z


def test_filter_mirrored():
    g, k, z = _mirror_host()
    assert filter_mirrored(g, k, z, 1).paths == k.paths
    sub = filter_mirrored(g, k, z, 3)
    assert sub.paths == (k.paths[0],)  # only the first path has 3 neighbors
    assert filter_mirrored(g, k, z, 4).paths == ()
    with pytest.raises(HypothesisMiss):
        filter_mirrored(g, k, 3, 1)  # vertex on a path is not 1-mirrored


def test_banana_select_examples():
    # nu = 1: any path whose first vertex is non-adjacent to b
    g = SimpleGraph.from_edges(8, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
    paths = ((0, 2, 3, 1), (0, 4, 5, 1), (0, 6, 7, 1))
    got = banana_select(g, 0, 1, paths, 1)
    assert got == (paths[0],)
    # two cleanly separated paths can never satisfy the cross-neighbor rule
    assert banana_select(g, 0, 1, paths, 2) is None
    # nested attachments make an ordered pair work
    g2 = SimpleGraph.from_edges(
        8,
        [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1), (2, 5), (2, 7), (4, 7)],
    )
    got = banana_select(g2, 0, 1, paths, 2)
    assert got is not None
    (p1, p2) = got
    x1 = p1[1]
    interior = set(p2[1:-1]) - {p2[1]}
    assert any(g2.has_edge(x1, v) for v in interior)


def test_banana_select_contract():
    g = SimpleGraph.from_edges(4, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)])
    with pytest.raises(ContractViolation):
        banana_select(g, 0, 1, ((0, 2, 1),), 1)  # adjacent ends


def test_ramsey_split_examples():
    assert ramsey_split(complete_graph(5), 3, 3).kind == "clique"
    assert ramsey_split(empty_graph(9), 3, 3).kind == "stable"
    assert ramsey_split(cycle_graph(5), 3, 3).kind == "neither"  # 5 < 27 is fine


def test_ramsey_guarantee_at_threshold():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n = 9  # 3**2
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = SimpleGraph.from_edges(n, edges)
        assert ramsey_split(g, 3, 2).kind != "neither"


def test_anticomplete_family_examples():
    g = disjoint_union(disjoint_union(complete_graph(2), complete_graph(3)), path_graph(2))
    comps = components(g)
    assert anticomplete_family(g, comps, 3) == (0, 1, 2)
    assert anticomplete_family(complete_graph(4), [0b0011, 0b1100], 2) is None


def test_anticomplete_family_random_sparse():
    import random

    rng = random.Random(11)
    found_all = True
    for _ in range(30):
        blocks = 6
        size = 2
        n = blocks * size
        g_edges = []
        for b in range(blocks):
            g_edges.append((b * size, b * size + 1))
        # sparse noise between few block pairs
        for _ in range(3):
            u, v = rng.randrange(n), rng.randrange(n)
            if u // size != v // size and u != v:
                g_edges.append((min(u, v), max(u, v)))
        g = SimpleGraph.from_edges(n, list(set(g_edges)))
        sets = [0b11 << (b * size) for b in range(blocks)]
        got = anticomplete_family(g, sets, 3)
        if got is None:
            found_all = False  # would trigger host re-examination
    assert found_all


def _first_anticomplete(g, sets, q):
    """The first q-combination, in itertools order, of sets that are pairwise
    disjoint with no edge between any two of them."""

    def anticomplete(a, b):
        return not a & b and not any(g.has_edge(u, v) for u in bits(a) for v in bits(b))

    for combo in itertools.combinations(range(len(sets)), q):
        if all(anticomplete(sets[i], sets[j]) for i, j in itertools.combinations(combo, 2)):
            return combo
    return None


def test_anticomplete_family_is_the_first_combination():
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
            assert anticomplete_family(g, sets, q) == want
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


def test_anticomplete_family_refuses_bad_arguments():
    g = path_graph(4)
    with pytest.raises(ContractViolation):
        anticomplete_family(g, [0b0001, 0b1000], 0)
    with pytest.raises(ContractViolation):
        anticomplete_family(g, [0b0011, 0b0110], 1)


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
