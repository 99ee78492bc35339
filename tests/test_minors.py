import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab.detectors import in_class_e, iter_holes
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import (
    SimpleGraph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from obstruction_lab.minors import (
    check_thm31,
    check_thm32,
    eligible_pairs,
    triangle_minor,
)

from conftest import all_graphs, diamond
from oracle_detectors import oracle_eligible_pairs


def test_triangle_minor_diamond():
    # contracting the adjacent degree-3 pair leaves the two-edge path x-z-y
    minor, z, mapping = triangle_minor(diamond(), 0, 1)
    assert minor.n == 3 and z == 0
    assert sorted(minor.edges()) == [(0, 1), (0, 2)]
    assert mapping == (0, 2, 3)


def test_triangle_minor_empty_common():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    minor, z, _ = triangle_minor(g, 0, 1)
    assert minor.n == 2 and minor.edge_count() == 0


def test_triangle_minor_k3():
    minor, _, _ = triangle_minor(complete_graph(3), 0, 1)
    assert minor == complete_graph(2)


def test_triangle_minor_contract():
    with pytest.raises(ContractViolation):
        triangle_minor(cycle_graph(4), 0, 2)  # non-adjacent
    with pytest.raises(ContractViolation):
        triangle_minor(cycle_graph(4), 1, 1)


def _minor_by_definition(g, z1, z2):
    """Delete max(z1, z2), keep the other vertices in order, and give the
    vertex min(z1, z2) exactly the common neighbours of z1 and z2."""
    keep = tuple(v for v in range(g.n) if v != max(z1, z2))
    common = g.adj[z1] & g.adj[z2]

    def adjacent(x, y):
        if min(z1, z2) in (x, y):
            return bool(common >> (x + y - min(z1, z2)) & 1)
        return g.has_edge(x, y)

    edges = [(a, b) for b in range(len(keep)) for a in range(b) if adjacent(keep[a], keep[b])]
    return SimpleGraph.from_edges(len(keep), edges), keep.index(min(z1, z2)), keep


def test_triangle_minor_matches_definition_n7():
    pairs = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            for z1, z2 in g.edges():
                for a, b in ((z1, z2), (z2, z1)):
                    assert triangle_minor(g, a, b) == _minor_by_definition(g, a, b)
                    pairs += 1
    assert pairs == 24684


def test_eligible_pairs_examples():
    assert len(eligible_pairs(complete_graph(3))) == 3
    assert len(eligible_pairs(complete_graph(4))) == 0
    c5_pairs = eligible_pairs(cycle_graph(5))
    assert len(c5_pairs) == 5 and all(p.common == 0 for p in c5_pairs)


def test_eligible_pairs_match_definition():
    # the same pairs as the definition, in the same order
    for n in range(1, 8):
        for g in all_graphs(n):
            assert [(p.z1, p.z2, p.common) for p in eligible_pairs(g)] == oracle_eligible_pairs(g)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_minor_size_and_outside_degrees(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    g = SimpleGraph.from_edges(n, edges)
    adjacent = g.edges()
    if not adjacent:
        return
    z1, z2 = adjacent[rng.randrange(len(adjacent))]
    minor, z_new, mapping = triangle_minor(g, z1, z2)
    assert minor.n == n - 1
    touched = g.adj[z1] | g.adj[z2] | (1 << z1) | (1 << z2)
    for new_idx, old in enumerate(mapping):
        if new_idx == z_new or touched >> old & 1:
            continue
        assert minor.degree(new_idx) == g.degree(old)
    # z's neighborhood is exactly the common neighborhood, relabeled
    common = g.adj[z1] & g.adj[z2]
    back = {old: new for new, old in enumerate(mapping)}
    assert minor.adj[z_new] == sum(1 << back[u] for u in bits(common))


def test_check_thm31_c5():
    report = check_thm31(cycle_graph(5))
    assert report.hypothesis_met and report.pairs_checked == 5 and report.ok


def test_check_thm31_k3():
    report = check_thm31(complete_graph(3))
    assert report.hypothesis_met and report.pairs_checked == 3 and report.ok


def test_check_thm31_hypothesis_not_met():
    report = check_thm31(cycle_graph(4))
    assert not report.hypothesis_met and report.pairs_checked == 0


def test_check_thm32_derived_example():
    # C5 rim, z1 sees two consecutive rim vertices, z2 one; the pair is an edge
    g = SimpleGraph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (6, 3), (5, 6)]
    )
    assert in_class_e(g).member
    verdict = check_thm32(g, (0, 1, 2, 3, 4), 5, 6)
    assert verdict.status == "ok"
    assert {c.value for c in verdict.classes} == {"bad", "good"}


def test_check_thm32_skips():
    g = SimpleGraph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (6, 3), (5, 6)]
    )
    assert check_thm32(g, (0, 1, 2), 5, 6).status == "skip"
    assert check_thm32(g, (0, 1, 2, 3, 4), 5, 2).status == "skip"
    # shared neighbor on the hole
    h = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (6, 0), (5, 6)])
    assert check_thm32(h, (0, 1, 2, 3, 4), 5, 6).status == "skip"
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    apart = SimpleGraph.from_edges(7, c5 + [(5, 0), (5, 1), (6, 3)])
    assert check_thm32(apart, (0, 1, 2, 3, 4), 5, 6).reason == "pair not adjacent"
    off_hole = SimpleGraph.from_edges(7, c5 + [(5, 0), (5, 1), (5, 6)])
    assert check_thm32(off_hole, (0, 1, 2, 3, 4), 5, 6).reason == "pair must each have a neighbor on the hole"


def test_both_good_with_adjacent_neighbors_never_in_class():
    # two hole-good outside vertices with distinct adjacent rim neighbors force
    # an induced C4 through the pair, so no class member can show it
    c6 = cycle_graph(6)
    g = SimpleGraph.from_edges(8, c6.edges() + [(6, 0), (7, 1), (6, 7)])
    assert not in_class_e(g).member
    verdict = check_thm32(g, tuple(range(6)), 6, 7)
    assert verdict.status == "skip"  # membership precondition fails
