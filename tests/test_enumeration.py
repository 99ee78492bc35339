import hashlib
import itertools
import random
from functools import partial

import pytest

from obstruction_lab import enumeration
from obstruction_lab.detectors import in_class_e
from obstruction_lab.enumeration import (
    UNLABELED_COUNTS,
    _canonical,
    _refine,
    are_isomorphic,
    canonical_cert,
    canonical_form,
    enumerate_graphs,
    expand_children,
)
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import (
    SimpleGraph,
    add_vertex,
    complete_graph,
    cycle_graph,
    delete_vertex,
    is_connected,
    parse_graph6,
    path_graph,
    write_graph6,
)
from obstruction_lab.sweeps import (
    _prune_chordal,
    prune_class_e,
    prune_even_hole_free,
    prune_tpw_free,
)

from conftest import all_graphs, random_graphs


def count_isomorphism_classes_brute(n: int) -> int:
    """Labeled brute force modulo isomorphism."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    certs = set()
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        certs.add(canonical_cert(SimpleGraph(n, tuple(adj))))
    return len(certs)


def test_counts_match_sequence():
    # n = 8 is the first level with pseudo-similar children: isomorphic
    # children from subsets in different Aut(parent) orbits, of which the
    # orbit rule keeps one (test_pseudo_similar_children_are_kept_once)
    for n in range(1, 9):
        assert len(all_graphs(n)) == UNLABELED_COUNTS[n]


@pytest.mark.stretch
def test_counts_match_sequence_n9():
    # the count audit of tests/test_prunes.py one level up: the class-E
    # members among all graphs are the 18,856 the pruned sweeps reach
    count = members = 0
    for g in enumerate_graphs(9):
        count += 1
        members += in_class_e(g).member
    assert count == UNLABELED_COUNTS[9]
    assert members == 18856


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
    assert sum(1 for g in enumerate_graphs(5) if is_connected(g)) == 21
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


# sha256 of repr(_canonical(n, adj)), certificate, labelling and generators,
# over every graph with n <= 7 in enumeration order and then 3,000 seeded
# random graphs with n = 8..10; taken from the kernel that re-sorted every
# vertex each refinement round, so any faster kernel must match it exactly
CANONICAL_PIN = "99600a550103db1fc816a337028a2301f3006310e1621220d6a0f66a501e4e17"


def test_canonical_output_pinned():
    digest = hashlib.sha256()
    graphs = itertools.chain(
        (g for n in range(1, 8) for g in all_graphs(n)), random_graphs(3000, 1, (8, 10))
    )
    for g in graphs:
        digest.update(repr(_canonical(g.n, g.adj)).encode())
    assert digest.hexdigest() == CANONICAL_PIN


def _dense_colouring(rng: random.Random, n: int) -> tuple[list[int], int]:
    k = rng.randint(1, n)
    colors = [rng.randrange(k) for _ in range(n)]
    used = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [used[c] for c in colors], len(used)


def test_refine_is_an_ordered_equitable_refinement():
    rng = random.Random(5)
    for g in random_graphs(400, 5, (1, 12)):
        colors, k = _dense_colouring(rng, g.n)
        out, out_k = _refine(g.n, g.adj, colors, k)
        assert sorted(set(out)) == list(range(out_k))
        # every cell of the input is a run of consecutive output cells
        for u in range(g.n):
            for v in range(g.n):
                if colors[u] < colors[v]:
                    assert out[u] < out[v]
        cells = [sum(1 << v for v in range(g.n) if out[v] == c) for c in range(out_k)]
        for c in range(out_k):
            counts = {tuple((g.adj[v] & cell).bit_count() for cell in cells) for v in range(g.n) if out[v] == c}
            assert len(counts) == 1


class _Unread(list):
    """A colouring that fails when a refinement round reads it."""

    def __getitem__(self, i):
        raise AssertionError("a refinement round ran on a discrete colouring")


def test_refine_returns_a_discrete_colouring_without_a_round():
    rng = random.Random(6)
    for n in range(1, 12):
        order = list(range(n))
        rng.shuffle(order)
        colors = _Unread(order)
        out, k = _refine(n, None, colors, n)
        assert out is colors and k == n and out == order


def test_canonical_last_has_maximum_degree():
    # the invariant the degree filter in expand_children relies on
    for n in range(1, 9):
        for g in all_graphs(n):
            last = canonical_form(g)[1][-1]
            assert g.adj[last].bit_count() == max(row.bit_count() for row in g.adj)


def _permute_mask(mask: int, perm) -> int:
    return sum(1 << perm[u] for u in range(len(perm)) if mask >> u & 1)


def _is_automorphism(g: SimpleGraph, perm) -> bool:
    return all(_permute_mask(g.adj[u], perm) == g.adj[perm[u]] for u in range(g.n))


def _group(n: int, gens) -> set:
    """Every product of the generators (perm[u] = image of u).  A generator
    already in the group built so far adds nothing and is not applied."""
    group = {tuple(range(n))}
    kept = []
    for gen in gens:
        if gen in group:
            continue
        kept.append(gen)
        stack = list(group)
        while stack:
            p = stack.pop()
            for k in kept:
                q = tuple(map(k.__getitem__, p))
                if q not in group:
                    group.add(q)
                    stack.append(q)
    return group


def test_canonical_generators_are_automorphisms():
    rng = random.Random(7)
    for n in range(1, 8):
        for g in all_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, _relabel(g, perm)):
                for gen in _canonical(h.n, h.adj)[2]:
                    assert sorted(gen) == list(range(n))
                    assert _is_automorphism(h, gen)


def _automorphisms(g: SimpleGraph):
    """Every automorphism of g (perm[u] = image of u), by extending a map
    vertex by vertex: u may go to an unused x of the same degree whose
    adjacency to the images of 0..u-1 matches u's adjacency to them."""
    degs = [row.bit_count() for row in g.adj]
    image: list[int] = []

    def extend(used: int):
        u = len(image)
        if u == g.n:
            yield tuple(image)
            return
        want = sum(1 << image[w] for w in range(u) if g.adj[u] >> w & 1)
        for x in range(g.n):
            if not used >> x & 1 and degs[x] == degs[u] and g.adj[x] & used == want:
                image.append(x)
                yield from extend(used | 1 << x)
                image.pop()

    return extend(0)


def test_canonical_generators_span_aut_for_small_graphs():
    # the orbit filter and the orbit rule in expand_children are exact only
    # if the generators span all of Aut (the proof is in _canonical)
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    members = list(enumerate_graphs(8, prune=prune_class_e))
    assert len(members) == 2523
    for g in graphs + members:
        aut = sum(1 for _ in _automorphisms(g))
        assert len(_group(g.n, _canonical(g.n, g.adj)[2])) == aut


def _labelled_children(parent, prune=None):
    """Every one-vertex extension that passes the prune, in subset order,
    with its certificate, labelling and automorphism generators."""
    for subset in range(1 << parent.n):
        child = add_vertex(parent, subset)
        if prune is None or prune(child):
            yield child, canonical_form(child)


def _vertex_orbit(u: int, gens) -> set:
    orbit, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for perm in gens:
            if perm[x] not in orbit:
                orbit.add(perm[x])
                stack.append(perm[x])
    return orbit


def _reference_expand_children(parent, labelled):
    """expand_children without the degree and orbit filters and without the
    unique-maximum skip: the orbit rule on every subset.  Subsets in one
    Aut(parent) orbit give isomorphic children that all pass the rule, so
    `seen` keeps the first of them."""
    out = []
    seen = set()
    for child, (cert, labeling, gens) in labelled:
        if cert not in seen and parent.n in _vertex_orbit(labeling[-1], gens):
            seen.add(cert)
            out.append(child)
    return out


def _deletion_rule_certs(parent, labelled) -> set:
    """Certificates of the children the earlier acceptance rule kept: those
    whose canonical-last vertex deletes back to the parent's class."""
    parent_cert = canonical_cert(parent)
    return {
        cert
        for child, (cert, labeling, _) in labelled
        if canonical_cert(delete_vertex(child, labeling[-1])) == parent_cert
    }


SWEEP_PRUNES = {
    "none": None,
    "class_e": prune_class_e,
    "tpw_free": prune_tpw_free,
    "even_hole_free": prune_even_hole_free,
    "chordal_k1": partial(_prune_chordal, k=1),
    "chordal_k2": partial(_prune_chordal, k=2),
    "chordal_k3": partial(_prune_chordal, k=3),
}


@pytest.mark.parametrize("name", SWEEP_PRUNES)
def test_filters_keep_expand_children_unchanged(name):
    prune = SWEEP_PRUNES[name]
    parents = [SimpleGraph(0, ())]
    for n in range(1, 8):
        parents += enumerate_graphs(n, prune=prune)
    for parent in parents:
        children = expand_children(parent, prune)
        labelled = list(_labelled_children(parent, prune))
        assert children == _reference_expand_children(parent, labelled)
        # the deletion rule keeps the same classes, but may keep another
        # member of a class, so only the certificate sets are compared
        assert {canonical_cert(c) for c in children} == _deletion_rule_certs(parent, labelled)


def _survives_degree_filter(parent: SimpleGraph, subset: int) -> bool:
    d = subset.bit_count()
    return all(row.bit_count() + (subset >> u & 1) <= d for u, row in enumerate(parent.adj))


def test_expand_children_labels_one_survivor_per_orbit(monkeypatch):
    # only the smallest degree-filter survivor of each Aut(parent) orbit is
    # built, and the subset orbit closure runs on exactly those subsets; the
    # orbit rule's closures, on a child's canonical-last vertex, carry tables
    # of the child's n + 1 vertices
    built, closed = [], []
    monkeypatch.setattr(enumeration, "add_vertex", lambda g, s: built.append(s) or add_vertex(g, s))
    close = enumeration._close_orbit

    def spy(s, gens, done):
        if gens and len(gens[0]) == n:
            closed.append(s)
        else:
            assert not s & (s - 1) and not done
        close(s, gens, done)

    monkeypatch.setattr(enumeration, "_close_orbit", spy)
    for n in range(0, 7):
        for parent in all_graphs(n) if n else [SimpleGraph(0, ())]:
            built.clear()
            closed.clear()
            expand_children(parent)
            gens = _canonical(parent.n, parent.adj)[2]
            group = _group(n, gens)
            minima = [
                s for s in range(1 << n)
                if _survives_degree_filter(parent, s) and s == min(_permute_mask(s, p) for p in group)
            ]
            assert built == minima
            assert closed == (minima if gens else [])


def _unique_maximum(g: SimpleGraph) -> bool:
    """Whether the new vertex g.n - 1 has degree above every other vertex."""
    degs = [row.bit_count() for row in g.adj]
    return all(d < degs[-1] for d in degs[:-1])


@pytest.mark.parametrize("name", ["none", "class_e"])
def test_expand_children_labels_exactly_the_children_without_unique_maximum(name, monkeypatch):
    prune = SWEEP_PRUNES[name]
    parents = [SimpleGraph(0, ())] + [g for n in range(1, 7) for g in enumerate_graphs(n, prune=prune)]
    built, labelled = [], []
    monkeypatch.setattr(enumeration, "add_vertex", lambda g, s: built.append(add_vertex(g, s)) or built[-1])
    monkeypatch.setattr(enumeration, "canonical_form", lambda g: labelled.append(g) or canonical_form(g))
    skipped = 0
    for parent in parents:
        built.clear()
        labelled.clear()
        expand_children(parent, prune)
        passed = [c for c in built if prune is None or prune(c)]
        assert labelled == [c for c in passed if not _unique_maximum(c)]
        skipped += len(passed) - len(labelled)
    assert skipped  # the gate is not vacuous


def test_pseudo_similar_children_are_kept_once():
    # two subsets in different Aut(parent) orbits give isomorphic children,
    # and neither new vertex has the unique maximum degree: the orbit rule
    # keeps the first, where v = 7 is in the orbit of the canonical-last
    # vertex, and rejects the second, where it is not
    parent = parse_graph6("FCOe_")
    subsets = (0b10110, 0b100101)
    children = [add_vertex(parent, s) for s in subsets]
    assert [write_graph6(c) for c in children] == ["GCOebO", "GCOedG"]
    cert = canonical_cert(children[0])
    assert canonical_cert(children[1]) == cert
    assert subsets[1] not in {_permute_mask(subsets[0], p) for p in _automorphisms(parent)}
    assert not any(_unique_maximum(c) for c in children)
    last = canonical_form(children[1])[1][-1]
    assert last == 6 and 7 not in {p[last] for p in _automorphisms(children[1])}
    kept = [write_graph6(c) for c in expand_children(parent, prune_class_e) if canonical_cert(c) == cert]
    assert kept == ["GCOebO"]
