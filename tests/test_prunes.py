"""The anchored hereditary prunes against the full predicates they replace.

A prune only sees children of parents that passed it, so each gate walks
every parent in the class and every neighbour subset of the new vertex, and
compares the prune's verdict on the child with the full predicate's; seeded
samples take children of n = 7 and n = 8 members.  Above that, a count audit
compares the members per level of the pruned tree and of the full predicate
over every graph with n <= 8, and seeded growth walks compare the two on
children up to n = 40.  A spy checks that the class-E, (theta, prism,
even-wheel)-free and even-hole-free prunes never fall back to a whole-graph
search; why the searches through the new vertex suffice is argued once, in
`detectors`, "obstructions through one vertex".  The thm31 minor check must
send every minor with a hole through z to `in_class_e`, and the C4-necessity
search must find the thetas that `find_theta` finds on every eligible pair's
minor.  Mutants of each prune and of the minor filter must each fail a named
gate.
"""

import functools
import itertools
import random
from functools import partial

import pytest

from obstruction_lab import detectors, minors, sweeps
from obstruction_lab.detectors import (
    dirac_order,
    find_even_wheel,
    find_hole,
    find_prism,
    find_theta,
    has_clique,
    hole_through,
    in_class_e,
    iter_holes,
)
from obstruction_lab.enumeration import enumerate_graphs, expand_children
from obstruction_lab.graphs import (
    SimpleGraph,
    add_vertex,
    bits,
    cycle_graph,
    mask_of,
    write_graph6,
)
from obstruction_lab.minors import eligible_pairs, triangle_minor
from obstruction_lab.sweeps import (
    PROCESSORS,
    _prune_chordal,
    prune_class_e,
    prune_even_hole_free,
    prune_tpw_free,
)

from conftest import all_graphs


def _full_chordal(g, k):
    return dirac_order(g) is not None and has_clique(g, k + 2) is None


# name: (anchored prune, full predicate)
PRUNES = {
    "class_e": (prune_class_e, lambda g: in_class_e(g).member),
    "tpw_free": (
        prune_tpw_free,
        lambda g: find_theta(g) is None and find_prism(g) is None and find_even_wheel(g) is None,
    ),
    "even_hole_free": (prune_even_hole_free, lambda g: find_hole(g, parity="even") is None),
    "chordal_k1": (partial(_prune_chordal, k=1), partial(_full_chordal, k=1)),
    "chordal_k2": (partial(_prune_chordal, k=2), partial(_full_chordal, k=2)),
    "chordal_k3": (partial(_prune_chordal, k=3), partial(_full_chordal, k=3)),
}


def _members(full, n):
    if n == 0:
        return [SimpleGraph(0, ())]
    return [g for g in all_graphs(n) if full(g)]


def _disagreements(prune, full, candidates):
    children = (add_vertex(parent, subset) for parent, subset in candidates)
    return [write_graph6(g) for g in children if prune(g) != full(g)]


def _n7_disagreements(name):
    """Every parent with n <= 6 in the class times every neighbour subset."""
    prune, full = PRUNES[name]
    candidates = [(p, s) for n in range(7) for p in _members(full, n) for s in range(1 << n)]
    return _disagreements(prune, full, candidates)


@pytest.mark.parametrize("name", PRUNES)
def test_anchored_prune_matches_full_predicate_n7(name):
    assert _n7_disagreements(name) == []


@pytest.mark.parametrize("name", PRUNES)
def test_anchored_prune_matches_full_predicate_n8_sample(name):
    prune, full = PRUNES[name]
    rng = random.Random(2024)
    parents = _members(full, 7)
    candidates = [(rng.choice(parents), rng.randrange(1 << 7)) for _ in range(1000)]
    assert _disagreements(prune, full, candidates) == []


@pytest.mark.parametrize("name", ("class_e", "tpw_free", "even_hole_free"))
def test_anchored_prune_matches_full_predicate_n9_sample(name):
    # the parents are the pruned tree's level 8, which the count audit ties
    # to the full predicate; each drawn parent is checked against it again
    prune, full = PRUNES[name]
    rng = random.Random(2025)
    level = [SimpleGraph(0, ())]
    for _ in range(8):
        level = [c for p in level for c in expand_children(p, prune)]
    candidates = [(rng.choice(level), rng.randrange(1 << 8)) for _ in range(1000)]
    assert all(full(parent) for parent, _ in candidates)
    assert _disagreements(prune, full, candidates) == []


# members of each class on n = 1..8 vertices; the pruned generation tree and
# the full predicate run over every graph must both give them
CLASS_COUNTS = {
    "class_e": (1, 2, 4, 10, 28, 100, 438, 2523),
    "tpw_free": (1, 2, 4, 11, 32, 131, 689, 5142),
    "even_hole_free": (1, 2, 4, 10, 28, 99, 434, 2486),
}


def _pruned_counts(prune, max_n):
    level, counts = [SimpleGraph(0, ())], []
    for _ in range(max_n):
        level = [c for p in level for c in expand_children(p, prune)]
        counts.append(len(level))
    return tuple(counts)


@pytest.mark.parametrize("name", CLASS_COUNTS)
def test_count_audit_n8(name):
    prune, full = PRUNES[name]
    assert tuple(sum(map(full, all_graphs(n))) for n in range(1, 9)) == CLASS_COUNTS[name]
    assert _pruned_counts(prune, 8) == CLASS_COUNTS[name]


def test_count_audit_catches_a_loose_prune():
    # accepting every new vertex of degree 6 without a hole through it lets
    # the 6-wheel in at n = 7
    loose = KERNEL_MUTANTS["neighbourhood_bound_7"][2]
    assert _pruned_counts(lambda g: loose(g, g.n - 1, False), 7) == (1, 2, 4, 10, 28, 100, 439)


def _draw_neighbours(rng, g):
    """The new vertex's neighbours: a few random vertices; two consecutive
    vertices of a hole (an ear on it), maybe with one triangle vertex, which
    can close a prism; part of a vertex's neighbourhood or of a hole, which
    closes C4s and thetas; or, when g has an even hole, every vertex, so that
    no hole runs through the new vertex and only the even wheel centred at it
    rejects it."""
    if g.n == 0:
        return 0
    holes = list(itertools.islice(iter_holes(g), 8))
    r = rng.random()
    if r < 0.3 or not holes:
        return sum(1 << u for u in rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
    hole = rng.choice(holes)
    if r < 0.55:
        i = rng.randrange(len(hole))
        corners = [u for u, w in g.edges() if g.adj[u] & g.adj[w]]
        return 1 << hole[i - 1] | 1 << hole[i] | rng.choice([0] + [1 << u for u in corners])
    if r < 0.7:
        return sum(1 << u for u in bits(g.adj[rng.randrange(g.n)]) if rng.random() < 0.6)
    if r < 0.9:
        return sum(1 << u for u in hole if rng.random() < 0.6)
    return g.vertices_mask if find_hole(g, parity="even") is not None else 1


def _growth_walk(seed, prune, full, max_n=40, max_steps=400):
    """A seeded walk that adds one vertex at a time and keeps the graph while
    `full` holds, so every step is a child of a parent in the class.  Returns
    the children where `prune` and `full` disagree, the rejected children and
    the size reached."""
    rng = random.Random(seed)
    g, disagreements, rejected = SimpleGraph(0, ()), [], []
    for _ in range(max_steps):
        if g.n == max_n:
            break
        child = add_vertex(g, _draw_neighbours(rng, g))
        member = full(child)
        if prune(child) != member:
            disagreements.append(write_graph6(child))
        if member:
            g = child
        else:
            rejected.append(child)
    return disagreements, rejected, g.n


# 8 walks per class to n = 40 take about 3.5 s in all on 2 cores
@pytest.mark.parametrize("name", CLASS_COUNTS)
def test_growth_walks_n40(name):
    prune, full = PRUNES[name]
    rejected = []
    for seed in range(8):
        bad, out, n = _growth_walk(seed, prune, full)
        assert (bad, n) == ([], 40), seed
        rejected += out
    assert len(rejected) > 100
    if name == "class_e":
        kinds = {in_class_e(g).violation.kind for g in rejected}
        assert kinds == {detectors.HOLE, detectors.THETA, detectors.PRISM, detectors.EVEN_WHEEL}


def test_even_wheel_centred_at_the_new_vertex():
    # C6 plus a universal vertex: no hole through it, yet an even wheel
    g = add_vertex(cycle_graph(6), 0b111111)
    assert not hole_through(g, 6)
    assert not in_class_e(g).member
    assert not prune_class_e(g) and not prune_tpw_free(g)
    # W4: C4 plus a universal vertex; C4 alone is allowed, the wheel is not
    w4 = add_vertex(cycle_graph(4), 0b1111)
    assert not prune_tpw_free(w4)
    assert prune_tpw_free(cycle_graph(4))


def test_prunes_search_only_through_the_new_vertex(monkeypatch):
    # a prune that fell back to a whole-graph search would keep every count
    # and pin, and lose what anchoring gains
    whole, anchored = [], []

    def spy(name, finder):
        def traced(g, anchor=None):
            (whole if anchor is None else anchored).append(name)
            return finder(g, anchor=anchor)

        return traced

    for module in (detectors, sweeps):
        for name in ("find_theta", "find_prism", "find_even_wheel"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        monkeypatch.setattr(module, "in_class_e", lambda g: whole.append("in_class_e") or in_class_e(g))
    for name in ("class_e", "tpw_free"):
        assert sum(1 for _ in enumerate_graphs(7, PRUNES[name][0])) == CLASS_COUNTS[name][6]
    assert whole == []
    assert set(anchored) == {"find_theta", "find_prism", "find_even_wheel"}
    # the two prunes above read the holes of g - v through iter_holes; the
    # even-hole prune reads only the holes through v
    for module, name in ((detectors, "find_hole"), (sweeps, "find_hole"), (detectors, "iter_holes")):
        finder = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, n=name, f=finder, **k: whole.append(n) or f(*a, **k))
    assert sum(1 for _ in enumerate_graphs(7, prune_even_hole_free)) == CLASS_COUNTS["even_hole_free"][6]
    assert whole == []


def test_prunes_are_named_module_functions():
    # jobs pickle the prunes by name, and tracers wrap them by __name__
    for prune, _ in PROCESSORS.values():
        assert getattr(sweeps, prune.__name__) is prune


# ---------------------------------------------------------------------------
# the new vertex elsewhere, the triangle minors and the mutant gates


def _move_last(g, pos):
    """g with its last vertex moved to index pos, the others in order."""
    order = list(range(g.n - 1))
    order.insert(pos, g.n - 1)  # order[new index] = old index
    back = {old: new for new, old in enumerate(order)}
    return SimpleGraph(g.n, tuple(sum(1 << back[u] for u in bits(g.adj[old])) for old in order))


def _children_anywhere(full):
    """(child, v) for every parent passing `full` with n <= 6 and every
    neighbour subset, with the new vertex v placed first, in the middle and
    last."""
    for n in range(7):
        for parent in _members(full, n):
            for subset in range(1 << n):
                child = add_vertex(parent, subset)
                for pos in sorted({0, n // 2, n}):
                    yield _move_last(child, pos), pos


@functools.cache
def _class_members():
    """Every class member with n <= 8, walked with the full predicate so that
    no prune plays a part."""
    level, out = [SimpleGraph(0, ())], []
    for _ in range(8):
        level = [c for p in level for c in expand_children(p, lambda g: in_class_e(g).member)]
        out += level
    return tuple(out)


def _minor_disagreements(monkeypatch):
    """Runs thm31_minor_violations on every member with n <= 8 and yields each
    eligible pair whose minor never reached `minors.in_class_e` although z
    lies on a hole there."""
    built, checked = [], []
    monkeypatch.setattr(
        minors, "triangle_minor", lambda g, z1, z2: built.append((z1, z2)) or triangle_minor(g, z1, z2)
    )
    monkeypatch.setattr(minors, "in_class_e", lambda g: checked.append(built[-1]) or in_class_e(g))
    for g in _class_members():
        built.clear()
        checked.clear()
        eligible = eligible_pairs(g)
        if minors.thm31_minor_violations(g) != (len(eligible), []):
            yield write_graph6(g), "count or violation"
        for pair in eligible:
            minor, z, _ = triangle_minor(g, pair.z1, pair.z2)
            if (pair.z1, pair.z2) not in checked and hole_through(minor, z):
                yield write_graph6(g), (pair.z1, pair.z2), "skipped"


@functools.cache
def _c4_hosts():
    """Every theta-, prism- and even-wheel-free graph with n <= 8 that has an
    induced C4: the hosts of the C4-necessity search, walked with its prune,
    which the gates above tie to the full predicate."""
    level, out = [SimpleGraph(0, ())], []
    for _ in range(8):
        level = [c for p in level for c in expand_children(p, prune_tpw_free)]
        out += [g for g in level if find_hole(g, min_len=4, max_len=4) is not None]
    return tuple(out)


def _c4_disagreements():
    """Yields each host on which `process_c4_necessity` differs from
    find_theta run on the minor of every eligible pair."""
    for g in _c4_hosts():
        pairs = eligible_pairs(g)
        findings = []
        for pair in pairs:
            minor = triangle_minor(g, pair.z1, pair.z2)[0]
            theta = find_theta(minor)
            if theta is not None:
                findings.append({
                    "graph6": write_graph6(g), "pair": [pair.z1, pair.z2],
                    "minor_graph6": write_graph6(minor), "theta": theta.to_dict(),
                })
        if sweeps.process_c4_necessity(g) != (len(pairs), [], findings):
            yield write_graph6(g)


def test_no_hole_through_v_means_no_theta():
    # the c4-necessity loop skips find_theta on a minor with no hole through z
    bad = [
        (write_graph6(g), v)
        for g, v in _children_anywhere(lambda g: find_theta(g) is None)
        if not hole_through(g, v) and find_theta(g) is not None
    ]
    assert bad == []


def test_c4_search_on_every_minor_n8():
    assert sum(len(eligible_pairs(g)) for g in _c4_hosts()) == 14229
    assert list(_c4_disagreements()) == []


def test_kernel_on_every_minor_n8(monkeypatch):
    assert sum(len(eligible_pairs(g)) for g in _class_members()) == 9873
    assert list(_minor_disagreements(monkeypatch)) == []


# each mutant, and the gates that must each catch it
KERNEL_MUTANTS = {
    "no_neighbourhood_even_hole": (
        sweeps, "_free_through",
        lambda g, v, c4_allowed: not hole_through(g, v) or in_class_e(g).member,
        ("class_e",),
    ),
    "neighbourhood_bound_7": (
        sweeps, "_free_through",
        lambda g, v, c4_allowed, free=sweeps._free_through: (
            not hole_through(g, v) and g.adj[v].bit_count() < 7 or free(g, v, c4_allowed)
        ),
        ("class_e",),
    ),
    "class_e_skips_centred_wheel": (sweeps, "wheel_centred_at", lambda g, v: None, ("class_e",)),
    "class_e_skips_v_as_centre": (detectors, "wheel_centred_at", lambda g, v: None, ("class_e",)),
    "tpw_free_skips_v_as_centre": (sweeps, "wheel_centred_at", lambda g, v: None, ("tpw_free",)),
    "class_e_allows_c4": (
        sweeps, "_free_through",
        lambda g, v, c4_allowed, free=sweeps._free_through: free(g, v, True),
        ("class_e",),
    ),
    "even_hole_prune_reads_odd_as_even": (
        sweeps, "holes_through",
        lambda g, v, holes=detectors.holes_through: tuple(c[:-1] if len(c) % 2 else c for c in holes(g, v)),
        ("even_hole_free",),
    ),
    "even_hole_prune_counts_only_c4": (
        sweeps, "holes_through",
        lambda g, v, holes=detectors.holes_through: tuple(c for c in holes(g, v) if len(c) == 4),
        ("even_hole_free",),
    ),
    "c4_test_skips_clique_check": (
        sweeps, "_free_through",
        lambda g, v, c4_allowed, free=sweeps._free_through: free(g, v, c4_allowed) and not any(
            (g.adj[x] & g.adj[v]).bit_count() >= 2 for x in bits(g.vertices_mask & ~g.adj[v] & ~(1 << v))
        ),
        ("class_e",),
    ),
    "anchored_on_vertex_0": (
        sweeps, "_free_through",
        lambda g, v, c4_allowed, free=sweeps._free_through: free(g, 0, c4_allowed),
        ("class_e", "tpw_free"),
    ),
    "shortcut_common_at_most_2": (
        minors, "z_may_lie_on_hole",
        lambda pair: pair.common.bit_count() >= 3,
        ("minors", "c4"),
    ),
    "minor_filter_skips_all": (minors, "hole_through", lambda g, v: False, ("minors", "c4")),
    "minor_filter_anchored_on_vertex_0": (
        minors, "hole_through",
        lambda g, v, through=detectors.hole_through: through(g, 0),
        ("minors",),
    ),
}


@pytest.mark.parametrize("name", KERNEL_MUTANTS)
def test_kernel_gates_catch_mutants(name, monkeypatch):
    module, attr, mutant, gates = KERNEL_MUTANTS[name]
    monkeypatch.setattr(module, attr, mutant)
    for gate in gates:
        found = {
            "class_e": lambda: iter(_n7_disagreements("class_e")),
            "minors": partial(_minor_disagreements, monkeypatch),
            "c4": _c4_disagreements,
            "tpw_free": lambda: iter(_n7_disagreements("tpw_free")),
            "even_hole_free": lambda: iter(_n7_disagreements("even_hole_free")),
        }[gate]()
        assert next(found, None) is not None, gate
