import hashlib
import random

import pytest

from obstruction_lab.enumeration import (
    UNLABELED_COUNTS,
    are_isomorphic,
    canonical_cert,
    count_isomorphism_classes_brute,
    enumerate_graphs,
)
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    write_graph6,
)

from conftest import all_graphs


def test_counts_match_sequence():
    for n in range(1, 8):
        assert len(all_graphs(n)) == UNLABELED_COUNTS[n]


def test_counts_match_labeled_brute_force():
    # cross-check canonical labeling against labeled brute force
    for n in range(1, 7):
        assert count_isomorphism_classes_brute(n) == UNLABELED_COUNTS[n]


def test_representatives_are_pairwise_nonisomorphic():
    seen = set()
    for g in all_graphs(6):
        cert = canonical_cert(g)
        assert cert not in seen
        seen.add(cert)


def test_connected_filter_count():
    assert sum(1 for _ in enumerate_graphs(5, keep=is_connected)) == 21
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(4)) == 11


def test_isomorphism_checks():
    relabeled_c5 = SimpleGraph.from_edges(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
    assert are_isomorphic(cycle_graph(5), relabeled_c5)
    assert not are_isomorphic(cycle_graph(5), path_graph(5))
    assert are_isomorphic(complete_graph(4), complete_graph(4))


def test_hereditary_prune_matches_post_filter():
    def triangle_free(g):
        return all(not g.adj[u] & g.adj[v] for u, v in g.edges())

    pruned = {canonical_cert(g) for g in enumerate_graphs(6, prune=triangle_free)}
    filtered = {canonical_cert(g) for g in all_graphs(6) if triangle_free(g)}
    assert pruned == filtered


def test_enumeration_bounds():
    with pytest.raises(ContractViolation):
        list(enumerate_graphs(0))
    with pytest.raises(ContractViolation):
        list(enumerate_graphs(11))


def test_prune_rejecting_k1_yields_nothing():
    for n in range(1, 6):
        assert list(enumerate_graphs(n, prune=lambda g: False)) == []


# sha256 of the newline-joined graph6 lines, pinned while the tree was rooted
# at K1, so the order of the representatives is pinned too
ENUMERATION_PINS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a",
    4: "7987c3e43eb7bd5c002d1192bb0872905916766ac4236defe27f1109c07de981",
    5: "57c23d76eba6e05bf08c74aad5016fa8f38abfd0b1dd7ba7c7fea5710edc44ca",
    6: "1e26718314feaa48633943752ba442fc9766eb25b596a8bbb262fae037b22074",
    7: "fe6233997cdd8d2406c66452f0b9a17031159dfdd6906b2f75d08eb1b00e9637",
}


@pytest.mark.parametrize("n", ENUMERATION_PINS)
def test_enumeration_order_pinned(n):
    text = "\n".join(write_graph6(g) for g in enumerate_graphs(n))
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_PINS[n]


def _relabel(g: SimpleGraph, perm: list[int]) -> SimpleGraph:
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_cert_relabelling_invariant_with_hub():
    # a hub of degree >= 16 puts counts past 4 bits into the refinement
    # signatures; each count field must stay wide enough not to collide
    rng = random.Random(16)
    for n in range(16, 25):
        for _ in range(8):
            hub = rng.sample(range(1, n), rng.randint(min(16, n - 1), n - 1))
            p = rng.choice([0.0, 0.1, 0.3])
            edges = [(0, v) for v in hub]
            edges += [(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < p]
            g = SimpleGraph.from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_cert(_relabel(g, perm)) == canonical_cert(g)
