import pytest

from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import SimpleGraph, complete_graph, cycle_graph, path_graph
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

from conftest import diamond


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
    g = SimpleGraph.from_edges(
        7, [(5, 0), (5, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 6), (6, 3)]
    )
    k = Kaleidoscope(5, 0, 1, ((0, 3, 4, 1), (0, 6, 3, 4, 1)))
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


def test_palanquin_examples():
    # apex 0, stable set {1,2} in N(0), two disjoint paths both sets attach to
    g = SimpleGraph.from_edges(
        9,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 5), (1, 7), (2, 6), (2, 8), (5, 6), (7, 8)],
    )
    p = Palanquin(0, (1, 2), ((3, 4), (5, 6), (7, 8)))
    assert verify_palanquin(g, p) is None
    assert verify_palanquin(g, Palanquin(0, (1, 2), ((3, 4), (4, 5)))) == "P1"
    # apex touching a path violates the anticompleteness clause
    g_bad = SimpleGraph.from_edges(
        9,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 5), (1, 7), (2, 6), (2, 8), (5, 6), (7, 8), (0, 5)],
    )
    assert verify_palanquin(g_bad, p) == "P2"


def test_alignment_verifier():
    g = SimpleGraph.from_edges(
        9, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2), (0, 3), (1, 5), (1, 6), (8, 0), (8, 1)]
    )
    al = Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, (0, 1))
    assert verify_alignment(g, al) is None
    assert verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, (1, 0))) == "A3"
    with pytest.raises(ContractViolation):
        verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, (0, 0)))
    # the end x names a vertex too
    for x in (-1, 9):
        with pytest.raises(ContractViolation):
            verify_alignment(g, Alignment((0, 1), (2, 3, 4, 5, 6, 7), x, (0, 1)))


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


def test_blurry_b2_violation():
    # path 0-1-2 plus 3 adjacent to 0 and 1: take the triangle 0,1,3 as the
    # 2-tree and add vertex 2's stray edge into the set
    g = SimpleGraph.from_edges(5, [(0, 1), (0, 3), (1, 3), (1, 2), (0, 4), (2, 4)])
    tri = complete_graph(3)
    target = KTree(tri, 2, (2, 0, 1))
    w = BlurryWitness(
        zset=(0, 1, 2), y_edges=((0, 1), (1, 2), (0, 2)), order=(2, 0, 1), target=target
    )
    assert verify_blurry(g, w) == "B1"  # 0-2 is not a host edge


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
