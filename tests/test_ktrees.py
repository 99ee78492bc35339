import hashlib
import itertools
import random

import pytest

from obstruction_lab.detectors import find_hole, has_clique
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import (
    MAX_VERTICES,
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    is_connected,
    mask_of,
    path_graph,
)
from obstruction_lab.ktrees import (
    KTree,
    cone,
    contains_induced,
    embed_in_ktree,
    forward_neighbors,
    gen_tdr,
    ktree_quotient,
    recognize_ktree,
    validate_embedding,
    validate_ktree,
)

from conftest import all_graphs, diamond, random_graphs


def brute_force_ktree_order(g: SimpleGraph, k: int):
    """Exhaustive ordering search with pruning: the oracle for recognition."""
    from obstruction_lab.detectors import is_clique

    n = g.n
    if n < k:
        return None
    if n == k:
        return tuple(range(n)) if is_clique(g, g.vertices_mask) else None

    def extend(prefix, remaining_mask):
        if remaining_mask.bit_count() == k:
            if is_clique(g, remaining_mask):
                return prefix + tuple(
                    v for v in range(n) if remaining_mask >> v & 1
                )
            return None
        for v in range(n):
            if not remaining_mask >> v & 1:
                continue
            fwd = g.adj[v] & remaining_mask & ~(1 << v)
            if fwd.bit_count() == k and is_clique(g, fwd):
                got = extend(prefix + (v,), remaining_mask ^ (1 << v))
                if got is not None:
                    return got
        return None

    return extend((), g.vertices_mask)


def test_validate_examples():
    assert validate_ktree(complete_graph(2), 2, (0, 1)) == (True, None)
    order = recognize_ktree(diamond(), 2)
    assert order is not None and validate_ktree(diamond(), 2, order) == (True, None)
    ok, idx = validate_ktree(cycle_graph(4), 2, (0, 1, 2, 3))
    assert not ok and idx == 1
    with pytest.raises(ContractViolation):
        validate_ktree(diamond(), 2, (0, 0, 1, 2))


def test_recognize_examples():
    assert recognize_ktree(path_graph(5), 1) is not None
    assert recognize_ktree(complete_graph(3), 2) is not None
    assert recognize_ktree(complete_bipartite(2, 3), 2) is None
    assert recognize_ktree(complete_graph(4), 2) is None  # K4 is not a 2-tree


def test_one_trees_are_exactly_trees():
    for n in range(1, 7):
        for g in all_graphs(n):
            is_tree = is_connected(g) and g.edge_count() == g.n - 1
            assert (recognize_ktree(g, 1) is not None) == is_tree


def test_recognize_agrees_with_exhaustive_search():
    for n in range(1, 9):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                greedy = recognize_ktree(g, k)
                brute = brute_force_ktree_order(g, k)
                assert (greedy is None) == (brute is None), (g, k)
                if greedy is not None:
                    assert validate_ktree(g, k, greedy) == (True, None)


def random_ktree(rng: random.Random, k: int, n: int) -> SimpleGraph:
    """A seeded k-tree on n >= k vertices: each new vertex joins a random
    k-clique; the result is relabelled by a random permutation."""
    edges = list(itertools.combinations(range(k), 2))
    cliques = [tuple(range(k))]
    for v in range(k, n):
        c = rng.choice(cliques)
        edges += [(u, v) for u in c]
        cliques += [tuple(w for w in c if w != u) + (v,) for u in c]
    perm = rng.sample(range(n), n)
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


# sha256 of repr(recognize_ktree(g, k)) for k = 1..4 over every graph with
# n <= 7 and 240 seeded relabelled random k-trees, pinned while recognition
# had its own greedy peel
RECOGNIZE_PIN = "80ab6350b3cef31784fa5a61d26e2813d59d4d742212fa16b9f49a5fa9b93225"


def test_recognize_output_pinned():
    rng = random.Random(12)
    trees = [random_ktree(rng, k, rng.randint(k, k + 9)) for k in (1, 2, 3, 4) for _ in range(60)]
    graphs = [g for n in range(1, 8) for g in all_graphs(n)] + trees
    out = [recognize_ktree(g, k) for g in graphs for k in (1, 2, 3, 4)]
    assert sum(order is not None for order in out[-4 * len(trees) :]) >= len(trees)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == RECOGNIZE_PIN


def _pairwise_clique(g: SimpleGraph, vertices) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


def pairwise_validate_ktree(g: SimpleGraph, k: int, order):
    """validate_ktree read off the definition: each forward neighbourhood
    from forward_neighbors, its clique test pair by pair."""
    if g.n < k:
        return False, 0
    if g.n == k:
        ok = _pairwise_clique(g, range(g.n))
        return ok, (None if ok else 0)
    for i in range(g.n - k):
        fwd = [v for v in range(g.n) if forward_neighbors(g, order, i) >> v & 1]
        if len(fwd) != k or not _pairwise_clique(g, fwd):
            return False, i + 1
    return True, None


def test_validate_ktree_matches_forward_neighbors():
    rng = random.Random(33)
    cases = []
    for k in (1, 2, 3):
        for _ in range(60):
            g = random_ktree(rng, k, rng.randint(k, k + 8))
            order = recognize_ktree(g, k)
            swapped = list(order)
            i, j = rng.randrange(g.n), rng.randrange(g.n)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            shuffled = tuple(rng.sample(order, g.n))
            cases += [(g, k, order), (g, k, order[::-1]), (g, k, tuple(swapped)), (g, k, shuffled)]
    for n in range(1, 7):
        for g in all_graphs(n):
            cases += [(g, k, tuple(rng.sample(range(n), n))) for k in (1, 2, 3)]
    results = [validate_ktree(*case) for case in cases]
    assert results == [pairwise_validate_ktree(*case) for case in cases]
    assert {(True, None), (False, 0)} <= set(results)
    assert len({bad for ok, bad in results if not ok}) > 5


def pairwise_validate_embedding(host: SimpleGraph, pattern: SimpleGraph, emb) -> bool:
    """validate_embedding read off the definition, pair by pair."""
    if len(emb) != pattern.n or len(set(emb)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in emb):
        return False
    return all(
        pattern.has_edge(u, w) == host.has_edge(emb[u], emb[w])
        for u, w in itertools.combinations(range(pattern.n), 2)
    )


def test_validate_embedding_matches_pairwise():
    rng = random.Random(34)
    cases = []
    for host in random_graphs(300, 35, (1, 10)):
        image = rng.sample(range(host.n), rng.randint(1, host.n))
        pattern, emb = induced_subgraph(host, mask_of(image))
        m = len(emb)
        moved = list(emb)
        moved[rng.randrange(m)] = rng.randrange(host.n + 1)  # may repeat or leave the host
        toggled = list(pattern.adj)
        if m >= 2:
            toggled[0] ^= 2
            toggled[1] ^= 1
        cases += [
            (host, pattern, emb),
            (host, pattern, tuple(rng.sample(emb, m))),
            (host, pattern, tuple(moved)),
            (host, pattern, emb[:-1]),
            (host, SimpleGraph(m, tuple(toggled)), emb),
        ]
    results = [validate_embedding(*case) for case in cases]
    assert results == [pairwise_validate_embedding(*case) for case in cases]
    assert results.count(True) > len(cases) // 5 and results.count(False) > len(cases) // 5


def test_ktrees_are_connected_chordal_cliquefree():
    for n in range(1, 9):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                if recognize_ktree(g, k) is None:
                    continue
                assert is_connected(g)
                assert find_hole(g) is None
                assert has_clique(g, k + 2) is None


def test_quotient_examples():
    dia = diamond()
    t = KTree(dia, 2, recognize_ktree(dia, 2))
    assert ktree_quotient(t, 0) is t
    q = ktree_quotient(t, 1)
    assert q.graph == complete_graph(3)
    k3 = KTree(complete_graph(3), 2, (0, 1, 2))
    assert ktree_quotient(k3, 1).graph == complete_graph(2)
    with pytest.raises(ContractViolation):
        ktree_quotient(t, 3)


def test_quotients_stay_valid():
    tree = SimpleGraph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (0, 5), (1, 5)]
    )
    order = recognize_ktree(tree, 2)
    assert order is not None
    t = KTree(tree, 2, order)
    for i in range(tree.n - 2 + 1):
        q = ktree_quotient(t, i)
        assert validate_ktree(q.graph, 2, q.order) == (True, None)


def test_cone_examples():
    assert cone(path_graph(3)).edge_count() == 5  # the diamond
    from obstruction_lab.enumeration import are_isomorphic

    assert are_isomorphic(cone(path_graph(3)), diamond())
    assert cone(empty_graph(0)) == complete_graph(1)
    assert cone(complete_graph(2)) == complete_graph(3)


def test_gen_tdr_examples():
    assert gen_tdr(2, 0) == complete_graph(1)
    assert gen_tdr(0, 10**12) == complete_graph(1)  # stops at the first empty level
    assert gen_tdr(2, 1).n == 3 and gen_tdr(2, 1).edge_count() == 2
    t = gen_tdr(2, 2)
    assert t.n == 7  # 1 + d + d*d
    assert t.degree(0) == 2
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    assert len(leaves) == 4
    internal = [v for v in range(1, t.n) if t.degree(v) > 1]
    assert all(t.degree(v) == 3 for v in internal)


def test_contains_induced_examples():
    assert contains_induced(complete_graph(4), complete_graph(3)) is not None
    emb = contains_induced(cycle_graph(6), path_graph(4))
    assert emb is not None and validate_embedding(cycle_graph(6), path_graph(4), emb)
    assert contains_induced(complete_bipartite(3, 3), complete_graph(3)) is None


def test_embed_base_cases():
    t, emb = embed_in_ktree(complete_graph(2), 2)
    assert t.graph == complete_graph(2) and emb == (0, 1)
    t, emb = embed_in_ktree(empty_graph(2), 1)
    assert t.graph.n == 3  # hub vertex path
    assert validate_ktree(t.graph, 1, t.order) == (True, None)
    assert validate_embedding(t.graph, empty_graph(2), emb)


def test_embed_p3_derived():
    t, emb = embed_in_ktree(path_graph(3), 2)
    assert t.graph.n <= 7
    assert validate_ktree(t.graph, 2, t.order) == (True, None)
    assert validate_embedding(t.graph, path_graph(3), emb)
    assert contains_induced(t.graph, path_graph(3)) is not None


def test_embed_rejects_bad_inputs():
    with pytest.raises(ContractViolation, match="chordal"):
        embed_in_ktree(cycle_graph(4), 2)
    with pytest.raises(ContractViolation, match="clique"):
        embed_in_ktree(complete_graph(4), 2)
    # refused before the base K_k is built; memory would grow as k^2
    with pytest.raises(ContractViolation, match="k must be"):
        embed_in_ktree(complete_graph(1), MAX_VERTICES + 1)


def test_embed_exhaustive_small():
    for n in range(1, 7):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                if find_hole(g) is not None or has_clique(g, k + 2) is not None:
                    continue
                tree, emb = embed_in_ktree(g, k)
                assert validate_ktree(tree.graph, k, tree.order) == (True, None)
                assert validate_embedding(tree.graph, g, emb)


# sha256 of repr((tree.to_text(), emb)) for every chordal graph with n <= 8
# and every k in 1..3 with no K_{k+2} in it, pinned while the embedding
# recursed on induced subgraphs
EMBED_PIN = "a10aa1a3062a0e340d378d5f9704c6249f39a02358c73505a1624466e6787b62"


def test_embed_output_pinned():
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in all_graphs(n):
            if find_hole(g) is not None:
                continue
            for k in (1, 2, 3):
                if has_clique(g, k + 2) is None:
                    tree, emb = embed_in_ktree(g, k)
                    digest.update(repr((tree.to_text(), emb)).encode())
    assert digest.hexdigest() == EMBED_PIN


def test_ktree_serialization_round_trip():
    dia = diamond()
    t = KTree(dia, 2, recognize_ktree(dia, 2))
    again = KTree.from_text(t.to_text())
    assert again == t
