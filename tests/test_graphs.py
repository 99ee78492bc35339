import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab.errors import ContractViolation, GraphFormatError
from obstruction_lab.graphs import (
    SimpleGraph,
    bits,
    complete_graph,
    components,
    cycle_graph,
    delete_vertex,
    empty_graph,
    induced_subgraph,
    is_induced_path,
    mask_of,
    parse_edgelist,
    parse_graph6,
    path_graph,
    write_edgelist,
    write_graph6,
)

from conftest import all_graphs, random_graphs


def test_graph6_frozen_examples():
    # derived by hand from the public format description
    assert write_graph6(empty_graph(1)) == "@"
    assert write_graph6(complete_graph(2)) == "A_"
    assert write_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("@") == empty_graph(1)
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("Bw") == complete_graph(3)


def test_graph6_round_trip_enumerated():
    for n in range(1, 9):
        for g in all_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_large_n_header():
    g = empty_graph(100)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_graph6_errors_name_offsets():
    with pytest.raises(GraphFormatError, match="offset"):
        parse_graph6("C")  # truncated body
    with pytest.raises(GraphFormatError, match="offset 0"):
        parse_graph6(chr(126) + chr(65) + chr(126) + chr(126))  # n over the cap
    with pytest.raises(GraphFormatError):
        parse_graph6("A_" + "X")
    with pytest.raises(GraphFormatError):
        parse_graph6("\x1f")


@given(st.integers(2, 16), st.data())
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip_random(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = SimpleGraph.from_edges(n, chosen)
    assert parse_graph6(write_graph6(g)) == g


def test_edgelist_round_trip():
    g = cycle_graph(5)
    assert parse_edgelist(write_edgelist(g)) == g
    assert parse_edgelist("3\n0 1\n") == SimpleGraph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_edgelist("3\n0 9\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_edgelist("nope\n")


def test_induced_subgraph_examples():
    k3 = complete_graph(3)
    sub, mapping = induced_subgraph(k3, 0b011)
    assert sub == complete_graph(2) and mapping == (0, 1)
    sub, mapping = induced_subgraph(k3, 0)
    assert sub.n == 0 and mapping == ()
    c5 = cycle_graph(5)
    sub, _ = induced_subgraph(c5, mask_of((0, 1, 2)))
    assert sub == path_graph(3)
    # identity relabeling on the full vertex set
    sub, mapping = induced_subgraph(c5, c5.vertices_mask)
    assert sub == c5 and mapping == (0, 1, 2, 3, 4)
    with pytest.raises(ContractViolation):
        induced_subgraph(k3, 1 << 5)


def test_induced_path_examples():
    c4 = cycle_graph(4)
    assert is_induced_path(c4, (0, 1, 2))
    assert not is_induced_path(c4, (0, 1, 2, 3))  # ends adjacent
    assert not is_induced_path(complete_graph(3), (0, 1, 2))
    with pytest.raises(ContractViolation):
        is_induced_path(c4, (0, 0, 1))


def test_components_partition():
    for g in all_graphs(6):
        comps = components(g)
        assert sum(c.bit_count() for c in comps) == g.n
        union = 0
        for c in comps:
            assert not union & c
            union |= c
        # no edge leaves a component
        for c in comps:
            assert all(not g.adj[v] & ~c for v in bits(c))


def test_components_within_matches_induced_subgraph():
    # components of g[within] are those of the relabelled induced subgraph,
    # mapped back; the map is increasing, so the order by smallest member holds
    rng = random.Random(24)
    for g in random_graphs(300, seed=24, sizes=(0, 14)):
        whole = components(g)
        assert components(g, g.vertices_mask) == whole
        lows = [c & -c for c in whole]
        assert lows == sorted(lows)
        for within in (0, rng.getrandbits(g.n), rng.getrandbits(g.n) & rng.getrandbits(g.n)):
            sub, keep = induced_subgraph(g, within)
            assert components(g, within) == [mask_of(keep[i] for i in bits(c)) for c in components(sub)]


def test_validate_rejects_bad_graphs():
    with pytest.raises(ContractViolation):
        SimpleGraph(2, (0b10, 0)).validate()  # asymmetric
    with pytest.raises(ContractViolation):
        SimpleGraph(1, (1,)).validate()  # self-loop
    with pytest.raises(ContractViolation):
        SimpleGraph.from_edges(2, [(0, 2)])
    with pytest.raises(ContractViolation):
        SimpleGraph(300, (0,) * 300).validate()


def test_delete_vertex_matches_induced_subgraph():
    for g in all_graphs(5):
        for v in range(g.n):
            direct = delete_vertex(g, v)
            generic, _ = induced_subgraph(g, g.vertices_mask ^ (1 << v))
            assert direct == generic


def test_induced_subgraph_matches_definition_n7():
    # new vertex a is keep[a], the a-th member of the subset, and a, b are
    # adjacent exactly when keep[a], keep[b] are
    for n in range(1, 8):
        for g in all_graphs(n):
            for subset in range(1 << n):
                keep = tuple(v for v in range(n) if subset >> v & 1)
                rows = tuple(sum(1 << b for b, y in enumerate(keep) if g.has_edge(x, y)) for x in keep)
                assert induced_subgraph(g, subset) == (SimpleGraph(len(keep), rows), keep)


def test_bits_iteration():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
