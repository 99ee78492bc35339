import hashlib
import itertools
import random
import sys
import threading
import time
from functools import partial

import pytest

from obstruction_lab import enumeration
from obstruction_lab.detectors import in_class_e
from obstruction_lab.enumeration import (
    UNLABELED_COUNTS,
    _canonical,
    _degree_cells,
    _individualize,
    _refine,
    _relabel_tables,
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
    relabel_mask,
    write_graph6,
)
from obstruction_lab.sweeps import (
    _forbids_c4,
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


def _dense_refine(n: int, adj: tuple[int, ...], colors: list[int], k: int) -> tuple[list[int], int]:
    """The reference refinement on dense colours 0..k-1: each round splits
    each non-singleton cell, in colour order, by its members' counts into
    every cell, the groups in ascending signature order."""
    width = max(4, n.bit_length())
    while k < n:
        cells = [0] * k
        for v in range(n):
            cells[colors[v]] |= 1 << v
        split = [0] * n
        nk = 0
        for cm in cells:
            if not cm & (cm - 1):
                split[cm.bit_length() - 1] = nk
                nk += 1
                continue
            sigs: dict[int, list[int]] = {}
            while cm:
                v = (cm & -cm).bit_length() - 1
                cm &= cm - 1
                row = adj[v]
                s = 0
                for other in cells:
                    s = s << width | (row & other).bit_count()
                sigs.setdefault(s, []).append(v)
            for s in sorted(sigs):
                for v in sigs[s]:
                    split[v] = nk
                nk += 1
        if nk == k:
            return colors, k
        colors, k = split, nk
    return colors, k


def _random_cells(rng: random.Random, n: int) -> list[int]:
    """A seeded random ordered partition of 0..n-1, as vertex-set masks."""
    k = rng.randint(1, n)
    colors = [rng.randrange(k) for _ in range(n)]
    return [mask for mask in (sum(1 << v for v in range(n) if colors[v] == c) for c in range(k)) if mask]


def _as_cells(n: int, colors: list[int], k: int) -> list[int]:
    return [sum(1 << v for v in range(n) if colors[v] == c) for c in range(k)]


def _is_equitable(adj: tuple[int, ...], cells: list[int]) -> bool:
    return all(
        len({tuple((adj[v] & other).bit_count() for other in cells) for v in range(len(adj)) if cell >> v & 1}) == 1
        for cell in cells
    )


def test_refine_is_an_ordered_equitable_refinement():
    rng = random.Random(5)
    for g in random_graphs(400, 5, (1, 12)):
        cells = _random_cells(rng, g.n)
        out = _refine(g.n, g.adj, list(cells))
        assert all(out) and sum(out) == (1 << g.n) - 1
        assert sum(c.bit_count() for c in out) == g.n
        # every cell of the input is a run of consecutive output cells
        i = 0
        for cell in cells:
            covered = 0
            while covered != cell:
                assert out[i] & ~cell == 0
                covered |= out[i]
                i += 1
        assert _is_equitable(g.adj, out)
        # the same partition, cell for cell, as the dense-colour reference
        colors = [next(c for c, cell in enumerate(cells) if cell >> v & 1) for v in range(g.n)]
        assert out == _as_cells(g.n, *_dense_refine(g.n, g.adj, colors, len(cells)))


class _Unread(list):
    """A partition that fails when a refinement round reads its cells."""

    def __getitem__(self, i):
        raise AssertionError("a refinement round ran on a discrete partition")

    def __iter__(self):
        raise AssertionError("a refinement round ran on a discrete partition")


def test_refine_returns_a_discrete_colouring_without_a_round():
    rng = random.Random(6)
    for n in range(1, 12):
        order = list(range(n))
        rng.shuffle(order)
        cells = _Unread(1 << v for v in order)
        out = _refine(n, None, cells)
        assert out is cells and len(out) == n


def test_direct_first_round_matches_full_refinement():
    # after individualizing u in an equitable partition, the direct first
    # round (split every cell by adjacency to u) followed by full rounds
    # gives what full rounds give from the individualized partition
    rng = random.Random(12)
    tried = 0
    for g in random_graphs(300, 12, (2, 12)):
        for cells in (_refine(g.n, g.adj, _degree_cells(g.adj)), _refine(g.n, g.adj, _random_cells(rng, g.n))):
            for t, cell in enumerate(cells):
                m = cell if cell & (cell - 1) else 0
                while m:
                    low = m & -m
                    m ^= low
                    individualized = cells[:t] + [low, cell ^ low] + cells[t + 1:]
                    assert _individualize(g.n, g.adj, cells, t, low) == _refine(g.n, g.adj, individualized)
                    tried += 1
    assert tried > 1000


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


def _doubled(rng: random.Random, n: int) -> SimpleGraph:
    """Two copies of a random graph on n // 2 vertices, each vertex joined to
    its copy, and for odd n a vertex joined to every other: swapping the
    copies is an automorphism."""
    h = n // 2
    edges = [(u, v) for u in range(h) for v in range(u + 1, h) if rng.random() < 0.4]
    edges += [(u + h, v + h) for u, v in edges] + [(u, u + h) for u in range(h)]
    edges += [(u, 2 * h) for u in range(2 * h)] if n % 2 else []
    return SimpleGraph.from_edges(n, edges)


def test_canonical_cert_and_generators_past_the_pin():
    # CANONICAL_PIN stops at n = 10, but canonical_cert and are_isomorphic
    # take any n <= 128
    rng = random.Random(11)
    graphs = list(random_graphs(90, 11, (11, 16)))
    graphs += [_doubled(rng, n) for n in range(11, 17)] + [cycle_graph(n) for n in range(11, 17)]
    with_gens = 0
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        cert, labeling, gens = _canonical(g.n, g.adj)
        assert canonical_cert(_relabel(g, perm)) == canonical_cert(g) == cert
        packed = 0
        for i, u in enumerate(labeling):
            for w in labeling[i + 1:]:
                packed = packed << 1 | (g.adj[u] >> w & 1)
        assert packed == cert
        for gen in gens:
            assert sorted(gen) == list(range(g.n))
            assert _is_automorphism(g, gen)
        with_gens += bool(gens)
    assert with_gens >= 12


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
    # declared as `sweep_embed` declares them
    "chordal_k1": _forbids_c4(partial(_prune_chordal, k=1)),
    "chordal_k2": _forbids_c4(partial(_prune_chordal, k=2)),
    "chordal_k3": _forbids_c4(partial(_prune_chordal, k=3)),
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


def _c4_through_new_vertex(parent: SimpleGraph, subset: int) -> bool:
    """Whether joining a new vertex v to `subset` makes an induced C4 through
    v: some x outside the subset is adjacent to non-adjacent a, b inside it."""
    for x in range(parent.n):
        inside = [a for a in range(parent.n) if subset >> a & 1 and parent.adj[x] >> a & 1]
        if not subset >> x & 1 and any(not parent.adj[a] >> b & 1 for a, b in itertools.combinations(inside, 2)):
            return True
    return False


def test_expand_children_labels_one_survivor_per_orbit(monkeypatch):
    # only the smallest degree-filter survivor of each Aut(parent) orbit is
    # tried, and under a prune that forbids C4 only if it closes no C4
    # through v; the subset orbit closure runs on exactly the subsets tried,
    # and add_vertex builds exactly those
    built, closed = [], []
    monkeypatch.setattr(enumeration, "add_vertex", lambda g, s: built.append(s) or add_vertex(g, s))
    close = enumeration._close_orbit
    monkeypatch.setattr(enumeration, "_close_orbit", lambda s, tables, done: closed.append(s) or close(s, tables, done))
    for name, forbids_c4 in (("none", False), ("class_e", True), ("tpw_free", False)):
        prune = SWEEP_PRUNES[name]
        parents = [SimpleGraph(0, ())] + [g for n in range(1, 7) for g in enumerate_graphs(n, prune=prune)]
        dropped = 0
        for parent in parents:
            n = parent.n
            built.clear()
            closed.clear()
            expand_children(parent, prune)
            gens = _canonical(parent.n, parent.adj)[2]
            group = _group(n, gens)
            minima = [
                s for s in range(1 << n)
                if _survives_degree_filter(parent, s) and s == min(_permute_mask(s, p) for p in group)
            ]
            tried = [s for s in minima if not (forbids_c4 and _c4_through_new_vertex(parent, s))]
            dropped += len(minima) - len(tried)
            assert built == tried
            assert closed == (tried if gens else [])
        assert bool(dropped) == forbids_c4, name  # the C4 filter runs where declared


def test_c4_filter_is_declared_exactly_where_it_holds():
    # a declared prune rejects every child with a C4 through v, so dropping
    # those subsets unbuilt changes nothing; the tpw-free prune admits some,
    # so it must not declare it
    declared = {name for name, prune in SWEEP_PRUNES.items() if getattr(prune, "forbids_c4", False)}
    assert declared == {"class_e", "even_hole_free", "chordal_k1", "chordal_k2", "chordal_k3"}
    for name, prune in SWEEP_PRUNES.items():
        if prune is None:
            continue
        parents = [g for n in range(1, 6) for g in enumerate_graphs(n, prune=prune)]
        passing = [
            s for p in parents for s in range(1 << p.n) if _c4_through_new_vertex(p, s) and prune(add_vertex(p, s))
        ]
        assert bool(passing) == (name == "tpw_free"), name


@pytest.mark.parametrize("n", range(11))
def test_relabel_tables_match_relabel_mask(n):
    rng = random.Random(n)
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        lo, hi = _relabel_tables(tuple(perm))
        half = n // 2
        assert len(lo) == 1 << half and len(hi) == 1 << (n - half)
        bit_of = [1 << image for image in perm]
        for s in range(1 << n):
            assert lo[s & (1 << half) - 1] | hi[s >> half] == relabel_mask(s, bit_of)


def _unique_maximum(g: SimpleGraph) -> bool:
    """Whether the new vertex g.n - 1 has degree above every other vertex."""
    degs = [row.bit_count() for row in g.adj]
    return all(d < degs[-1] for d in degs[:-1])


def _first_equitable_cells(g: SimpleGraph) -> list[int]:
    """The child's first equitable partition, by the dense-colour reference."""
    degs = [row.bit_count() for row in g.adj]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    return _as_cells(g.n, *_dense_refine(g.n, g.adj, [rank[d] for d in degs], len(rank)))


def _refinement_decides(g: SimpleGraph) -> bool:
    """Whether the new vertex g.n - 1 is outside the last cell of the child's
    first equitable partition, or alone in it."""
    last = _first_equitable_cells(g)[-1]
    return not last >> (g.n - 1) & 1 or last == 1 << (g.n - 1)


@pytest.mark.parametrize("name", ["none", "class_e"])
def test_expand_children_labels_exactly_the_children_without_unique_maximum(name, monkeypatch):
    # of the children that pass the prune and lack a unique-maximum new
    # vertex, labelled are exactly those the refinement pre-test leaves
    # undecided; each of those is labelled from the pre-test's partition, so
    # its degree partition is refined once, not again by the labelling
    prune = SWEEP_PRUNES[name]
    parents = [SimpleGraph(0, ())] + [g for n in range(1, 7) for g in enumerate_graphs(n, prune=prune)]
    built, labelled, refined = [], [], []
    monkeypatch.setattr(enumeration, "add_vertex", lambda g, s: built.append(add_vertex(g, s)) or built[-1])
    monkeypatch.setattr(enumeration, "canonical_form", lambda g: labelled.append(g) or canonical_form(g))
    refine = enumeration._refine
    monkeypatch.setattr(enumeration, "_refine", lambda n, adj, cells: refined.append((adj, cells)) or refine(n, adj, cells))
    enumeration._canonical_cached.cache_clear()  # so the children are labelled, not looked up
    skipped = decided = 0
    for parent in parents:
        built.clear()
        labelled.clear()
        expand_children(parent, prune)
        passed = [c for c in built if prune is None or prune(c)]
        undecided = [c for c in passed if not _unique_maximum(c)]
        assert labelled == [c for c in undecided if not _refinement_decides(c)]
        for c in labelled:
            assert sum(adj is c.adj and cells == _degree_cells(c.adj) for adj, cells in refined) == 1
        skipped += len(passed) - len(undecided)
        decided += len(undecided) - len(labelled)
    assert skipped and decided  # the gate is not vacuous


def test_threads_expanding_at_once_get_the_serial_children(monkeypatch):
    # the pre-test hands its partition to the labelling through one
    # module-level slot; a thread that finds another thread's entry there
    # refines for itself and never labels from the wrong partition.  Each
    # labelling call first yields the interpreter lock, so other threads
    # overwrite the slot in between.
    parents = [g for n in range(1, 7) for g in enumerate_graphs(n, prune=prune_class_e)]
    expected = [[c.adj for c in expand_children(p, prune_class_e)] for p in parents]
    monkeypatch.setattr(enumeration, "canonical_form", lambda g: time.sleep(0) or canonical_form(g))
    results = [None] * 4

    def expand_all(i):
        results[i] = [[c.adj for c in expand_children(p, prune_class_e)] for p in parents]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        enumeration._canonical_cached.cache_clear()
        threads = [threading.Thread(target=expand_all, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(results)


def test_refinement_pre_test_agrees_with_the_orbit_rule():
    # v outside the last cell of the first equitable partition is outside
    # the orbit of canonical-last; v alone in it is canonical-last
    outcomes = set()
    for n in range(1, 7):
        for parent in all_graphs(n):
            for subset in range(1 << n):
                child = add_vertex(parent, subset)
                last = _refine(child.n, child.adj, _degree_cells(child.adj))[-1]
                _, labeling, gens = canonical_form(child)
                orbit = _vertex_orbit(labeling[-1], gens)
                if not last >> n & 1:
                    assert n not in orbit
                    outcomes.add("reject")
                elif last == 1 << n:
                    assert labeling[-1] == n
                    outcomes.add("accept")
                # the orbit of canonical-last lies in the last cell
                assert all(last >> u & 1 for u in orbit)
    assert outcomes == {"reject", "accept"}


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
