import functools
import hashlib
import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab import cli, detectors
from obstruction_lab.detectors import (
    BICLIQUE,
    CLIQUE,
    EVEN_WHEEL,
    PRISM,
    THETA,
    Certificate,
    WheelClass,
    all_holes,
    certificate_from_dict,
    classify_against_hole,
    clique_number,
    dirac_order,
    find_even_wheel,
    find_hole,
    find_prism,
    find_theta,
    has_biclique,
    has_clique,
    has_induced_c4,
    hole_through,
    in_class_e,
    in_class_et,
    induced_ab_paths,
    is_chordal,
    is_d_substantial,
    is_hole,
    iter_holes,
    validate_certificate,
)
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import (
    SimpleGraph,
    add_vertex,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_vertex,
    empty_graph,
    mask_of,
    parse_graph6,
    path_graph,
    write_graph6,
)

from conftest import all_graphs, diamond, random_graphs
from oracle_detectors import (
    _is_cycle_subset,
    _subset_is_prism,
    _subset_is_theta,
    oracle_has_even_wheel,
    oracle_has_hole,
    oracle_has_prism,
    oracle_has_theta,
)


def test_find_hole_examples():
    c4 = cycle_graph(4)
    cert = find_hole(c4, parity="even")
    assert cert.cycle == (0, 1, 2, 3)
    assert find_hole(complete_graph(4)) is None
    c5 = cycle_graph(5)
    assert find_hole(c5, parity="even") is None
    assert find_hole(c5, parity="odd").cycle == (0, 1, 2, 3, 4)


def test_find_hole_deterministic_and_shortest_first():
    # C4 and C5 glued along nothing: the C4 must be reported
    g = SimpleGraph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    assert find_hole(g).cycle == (0, 1, 2, 3)
    assert find_hole(g, min_len=5).cycle == (4, 5, 6, 7, 8)


def test_is_chordal_examples():
    ok, order = is_chordal(diamond())
    assert ok and order is not None
    ok, order = is_chordal(cycle_graph(4))
    assert not ok and order is None
    # trees are chordal, leaf-first ordering
    tree = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    ok, order = is_chordal(tree)
    assert ok
    remaining = set(range(5))
    for v in order:
        nbrs = {u for u in remaining if tree.has_edge(u, v)} - {v}
        assert len(nbrs) <= 1
        remaining.remove(v)


def test_dirac_order_forward_cliques():
    for g in all_graphs(6):
        order = dirac_order(g)
        if order is None:
            assert find_hole(g) is not None
            continue
        assert find_hole(g) is None
        remaining = g.vertices_mask
        for v in order:
            fwd = g.adj[v] & remaining & ~(1 << v)
            for u in range(g.n):
                if fwd >> u & 1:
                    assert g.adj[u] & fwd == fwd & ~(1 << u)
            remaining ^= 1 << v


def test_clique_examples():
    assert clique_number(complete_graph(4)) == 4
    assert clique_number(cycle_graph(5)) == 2
    k33 = complete_bipartite(3, 3)
    assert clique_number(k33) == 2
    assert has_biclique(k33, 3) is not None
    assert validate_certificate(k33, has_biclique(k33, 3))
    cert = has_clique(complete_graph(4), 3)
    assert validate_certificate(complete_graph(4), cert)
    assert has_clique(cycle_graph(5), 3) is None


def least_clique(g, t):
    """The lexicographically least K_t by exhaustion, or None: the reference
    for has_clique's pruned search."""
    for c in itertools.combinations(range(g.n), t):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2)):
            return c
    return None


def test_has_clique_is_the_least_clique():
    graphs = [g for n in range(1, 8) for g in all_graphs(n)] + list(random_graphs(300, 41, (8, 12)))
    bad, sizes = [], []
    for g in graphs:
        for t in range(1, 6):
            cert = has_clique(g, t)
            if cert is not None:
                sizes.append(t)
            if (cert.vertices if cert else None) != least_clique(g, t):
                bad.append((write_graph6(g), t))
    assert bad == []
    assert 5 in sizes


def test_find_theta_examples():
    k23 = complete_bipartite(2, 3)
    cert = find_theta(k23)
    assert cert is not None and validate_certificate(k23, cert)
    k33 = complete_bipartite(3, 3)
    cert = find_theta(k33)
    assert cert is not None and validate_certificate(k33, cert)
    assert find_theta(cycle_graph(6)) is None


def test_find_prism_examples():
    prism = SimpleGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    cert = find_prism(prism)
    assert cert is not None and validate_certificate(prism, cert)
    assert find_prism(complete_bipartite(3, 3)) is None


def _wall_3x3() -> SimpleGraph:
    rows, cols = 4, 8
    idx = {}
    n = 0
    for r in range(rows):
        for c in range(cols):
            idx[(r, c)] = n
            n += 1
    edges = []
    for r in range(rows):
        for c in range(cols - 1):
            edges.append((idx[(r, c)], idx[(r, c + 1)]))
    for r in range(rows - 1):
        for c in range(cols):
            if c % 2 == r % 2:
                edges.append((idx[(r, c)], idx[(r + 1, c)]))
    g = SimpleGraph.from_edges(n, edges)
    # trim the two degree-1 corners the brick pattern leaves behind
    keep = mask_of(v for v in range(n) if g.degree(v) >= 2)
    from obstruction_lab.graphs import induced_subgraph

    return induced_subgraph(g, keep)[0]


def _subdivide_all(g: SimpleGraph) -> SimpleGraph:
    edges = []
    next_id = g.n
    for u, v in g.edges():
        edges.append((u, next_id))
        edges.append((next_id, v))
        next_id += 1
    return SimpleGraph.from_edges(next_id, edges)


def _line_graph(g: SimpleGraph) -> SimpleGraph:
    es = g.edges()
    out = []
    for i, (a, b) in enumerate(es):
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if len({a, b} & {c, d}) == 1:
                out.append((i, j))
    return SimpleGraph.from_edges(len(es), out)


def test_prism_in_line_graph_of_subdivided_wall():
    host = _line_graph(_subdivide_all(_wall_3x3()))
    cert = find_prism(host)
    assert cert is not None
    assert validate_certificate(host, cert)


def test_find_even_wheel_examples():
    hub6 = add_vertex(cycle_graph(6), 0b111111)
    cert = find_even_wheel(hub6)
    assert cert is not None and cert.center == 6
    assert validate_certificate(hub6, cert)
    hub5 = add_vertex(cycle_graph(5), 0b11111)
    # derived with the subset oracle: the rim is the only hole, five spokes
    assert not oracle_has_even_wheel(hub5)
    assert find_even_wheel(hub5) is None
    assert find_even_wheel(cycle_graph(7)) is None
    assert find_even_wheel(path_graph(5)) is None


def test_class_membership_examples():
    assert in_class_e(cycle_graph(5)).member
    assert in_class_et(cycle_graph(5), 3).member
    v = in_class_e(cycle_graph(4))
    assert not v.member and v.violation.kind == "hole" and len(v.violation.cycle) == 4
    v = in_class_et(complete_graph(4), 4)
    assert not v.member and v.violation.kind == "clique"
    # fixed violation order: C4 before anything else
    g = add_vertex(cycle_graph(4), 0)
    assert in_class_e(g).violation.kind == "hole"


def test_classify_against_hole_examples():
    c6 = cycle_graph(6)
    g = add_vertex(c6, 0b000001)
    assert classify_against_hole(g, (0, 1, 2, 3, 4, 5), 6) is WheelClass.GOOD
    g = add_vertex(c6, 0b000011)
    assert classify_against_hole(g, (0, 1, 2, 3, 4, 5), 6) is WheelClass.BAD
    g = add_vertex(c6, 0b001001)
    assert classify_against_hole(g, (0, 1, 2, 3, 4, 5), 6) is WheelClass.UGLY
    g = add_vertex(c6, 0)
    assert classify_against_hole(g, (0, 1, 2, 3, 4, 5), 6) is WheelClass.NO_NEIGHBOR
    with pytest.raises(ContractViolation):
        classify_against_hole(g, (0, 1, 2), 6)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_classification_partitions(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    g = SimpleGraph.from_edges(n, edges)
    for cycle in iter_holes(g):
        cmask = mask_of(cycle)
        for v in range(g.n):
            if cmask >> v & 1:
                continue
            cls = classify_against_hole(g, cycle, v)
            if g.adj[v] & cmask:
                assert cls in (WheelClass.GOOD, WheelClass.BAD, WheelClass.UGLY)
            else:
                assert cls is WheelClass.NO_NEIGHBOR


def test_d_substantial_examples():
    # hub adjacent to three alternating rim vertices of a C6
    g = add_vertex(cycle_graph(6), 0b010101)
    w = is_d_substantial(g, 6, 2)
    assert w is not None and len(w.neighbors) >= 3
    assert is_hole(g, w.cycle)
    # forests have no holes at all
    tree = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    assert is_d_substantial(tree, 0, 2) is None
    # two rim neighbors are not enough for d = 2
    g = add_vertex(cycle_graph(6), 0b000101)
    assert is_d_substantial(g, 6, 2) is None


def test_even_hole_free_implies_member_small():
    for n in range(1, 7):
        for g in all_graphs(n):
            if find_hole(g, parity="even") is None:
                assert in_class_e(g).member


def test_hole_through_matches_iter_holes():
    for n in range(1, 8):
        for g in all_graphs(n):
            on_hole = 0
            for cyc in iter_holes(g):
                on_hole |= mask_of(cyc)
            assert [hole_through(g, v) for v in range(n)] == [bool(on_hole >> v & 1) for v in range(n)]
    with pytest.raises(ContractViolation):
        hole_through(cycle_graph(4), 4)


def test_oracle_equivalence_small():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert (find_hole(g) is not None) == oracle_has_hole(g)
            assert (find_hole(g, parity="even") is not None) == oracle_has_hole(g, "even")
            assert (find_theta(g) is not None) == oracle_has_theta(g)
            assert (find_prism(g) is not None) == oracle_has_prism(g)
            assert (find_even_wheel(g) is not None) == oracle_has_even_wheel(g)


def test_certificates_validate_everywhere():
    for n in range(4, 7):
        for g in all_graphs(n):
            for cert in (find_hole(g), find_theta(g), find_prism(g), find_even_wheel(g)):
                if cert is not None:
                    assert validate_certificate(g, cert)


def test_certificate_json_round_trip():
    k33 = complete_bipartite(3, 3)
    cert = find_theta(k33)
    doc = cert.to_dict(k33)
    assert doc["graph6"]
    again = certificate_from_dict(doc)
    assert again == cert


@pytest.mark.parametrize(
    "doc",
    [{"kind": "wheel", "cycle": [0, 1, 2, 3]}, {"kind": "hole", "cycle": [0, 1, 2, "3"]},
     {"kind": "theta", "ends": [0, 1], "paths": [0, 1]}, {"kind": "even_wheel", "center": True}],
    ids=["unknown-kind", "vertex-not-int", "paths-not-nested", "center-bool"],
)
def test_certificate_from_dict_rejects_malformed(doc):
    with pytest.raises(ContractViolation):
        certificate_from_dict(doc)


PRISM_GRAPH = SimpleGraph.from_edges(
    6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
)


# K_{2,3} with ends 0, 1 and the middle vertices 2, 3 adjacent
THETA_CHORD = SimpleGraph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
# a prism whose first two paths meet in 6
PRISM_OVERLAP = SimpleGraph.from_edges(
    7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 6), (6, 3), (1, 6), (6, 4), (2, 5)]
)
PRISM_CHORD = SimpleGraph.from_edges(6, PRISM_GRAPH.edges() + [(0, 4)])
WHEEL_6 = add_vertex(cycle_graph(6), 0b111111)
PRISM_PATHS = ((0, 3), (1, 4), (2, 5))


# certificates of the wrong shape, or tampered with, are invalid, and none of
# them may raise; each case trips a different refusal of its validator
MISSHAPEN = {
    "theta-three-ends": (PRISM_GRAPH, Certificate(THETA, ends=(0, 1, 2), paths=((0, 2), (0, 3), (0, 4)))),
    "prism-empty-path": (PRISM_GRAPH, Certificate(PRISM, triangles=((0, 1, 2), (3, 4, 5)), paths=((), (1, 4), (2, 5)))),
    "biclique-repeated-vertices": (PRISM_GRAPH, Certificate(BICLIQUE, side_a=(0, 0), side_b=(3, 3))),
    "theta-equal-ends": (THETA_CHORD, Certificate(THETA, ends=(0, 0), paths=((0, 2, 0), (0, 3, 0), (0, 4, 0)))),
    "theta-adjacent-ends": (THETA_CHORD, Certificate(THETA, ends=(0, 2), paths=((0, 3, 2), (0, 1, 2), (0, 4, 1, 2)))),
    "theta-path-not-induced": (
        THETA_CHORD, Certificate(THETA, ends=(0, 1), paths=((0, 2, 3, 1), (0, 4, 1), (0, 4, 1))),
    ),
    "theta-interiors-overlap": (THETA_CHORD, Certificate(THETA, ends=(0, 1), paths=((0, 2, 1), (0, 2, 1), (0, 4, 1)))),
    "theta-interiors-adjacent": (THETA_CHORD, Certificate(THETA, ends=(0, 1), paths=((0, 2, 1), (0, 3, 1), (0, 4, 1)))),
    "prism-triangle-size": (PRISM_GRAPH, Certificate(PRISM, triangles=((0, 1), (3, 4, 5)), paths=PRISM_PATHS)),
    "prism-triangles-overlap": (PRISM_GRAPH, Certificate(PRISM, triangles=((0, 1, 2), (2, 4, 5)), paths=PRISM_PATHS)),
    "prism-not-a-triangle": (
        PRISM_GRAPH, Certificate(PRISM, triangles=((0, 1, 3), (2, 4, 5)), paths=((0, 2), (1, 4), (3, 5))),
    ),
    "prism-path-not-induced": (
        PRISM_GRAPH, Certificate(PRISM, triangles=((0, 1, 2), (3, 4, 5)), paths=((0, 3), (1, 4), (2, 0, 3, 5))),
    ),
    "prism-paths-overlap": (
        PRISM_OVERLAP, Certificate(PRISM, triangles=((0, 1, 2), (3, 4, 5)), paths=((0, 6, 3), (1, 6, 4), (2, 5))),
    ),
    "prism-extra-crossing-edge": (
        PRISM_CHORD, Certificate(PRISM, triangles=((0, 1, 2), (3, 4, 5)), paths=PRISM_PATHS),
    ),
    "even-wheel-rim-not-a-hole": (WHEEL_6, Certificate(EVEN_WHEEL, cycle=(0, 1, 2, 3), center=6)),
    "even-wheel-centre-on-rim": (WHEEL_6, Certificate(EVEN_WHEEL, cycle=(0, 1, 2, 3, 4, 5), center=0)),
    "biclique-wrong-kind": (PRISM_GRAPH, Certificate(CLIQUE, vertices=(0, 1, 2))),
    "biclique-side-not-stable": (PRISM_GRAPH, Certificate(BICLIQUE, side_a=(0, 1), side_b=(3, 4))),
    "biclique-missing-edge": (PRISM_GRAPH, Certificate(BICLIQUE, side_a=(0, 4), side_b=(2, 3))),
}


@pytest.mark.parametrize("name", MISSHAPEN)
def test_misshapen_certificate_is_invalid(name):
    g, cert = MISSHAPEN[name]
    # validate_certificate dispatches on the kind, so only a direct call
    # hands a validator a certificate of another kind
    validate = detectors.validate_biclique if name == "biclique-wrong-kind" else validate_certificate
    assert validate(g, cert) is False


@pytest.mark.parametrize("vertex", [-1, 6, 10**8, "a", True])
def test_certificate_vertex_out_of_range_raises(vertex):
    cert = Certificate(BICLIQUE, side_a=(0,), side_b=(vertex,))
    with pytest.raises(ContractViolation):
        validate_certificate(PRISM_GRAPH, cert)


def _detector_outputs(g: SimpleGraph) -> list:
    out = [list(iter_holes(g, parity=p)) for p in ("any", "even", "odd")]
    for a, b in itertools.permutations(range(g.n), 2):
        out.append(induced_ab_paths(g, a, b, g.vertices_mask & ~(1 << a) & ~(1 << b)))
    for cert in (find_hole(g), find_theta(g), find_prism(g), find_even_wheel(g), in_class_e(g).violation):
        out.append(cert and cert.to_dict())
    return out


# sha256 of repr(_detector_outputs(g)), every hole of each parity, the induced
# paths of every ordered pair and each detector's certificate, over every
# graph with n <= 7 in enumeration order and then 100 seeded random graphs
# with n = 8..14; taken from the recursive hole and induced-path kernels and
# the degree-3 end test of find_theta, so faster kernels must match it exactly
DETECTOR_PIN = "28129fd328fa80cfb91d91a9b0999cf56badb00da8bb11c33b7e37ad03f0f1db"


def _pin_graphs():
    return itertools.chain((g for n in range(1, 8) for g in all_graphs(n)), random_graphs(100, 1, (8, 14)))


def _detector_digest() -> str:
    digest = hashlib.sha256()
    for g in _pin_graphs():
        digest.update(repr(_detector_outputs(g)).encode())
    return digest.hexdigest()


def test_detector_output_pinned():
    assert _detector_digest() == DETECTOR_PIN


def _necklace(k: int) -> SimpleGraph:
    """A cycle of k C4 beads: junctions 3i, each joined to the next junction
    through two middle vertices.  Its holes are the k beads and the 2**k
    rims of length 2k, all of which pass through junction 0."""
    edges = []
    for i in range(k):
        j, nxt = 3 * i, 3 * ((i + 1) % k)
        for m in (j + 1, j + 2):
            edges += [(j, m), (m, nxt)]
    return SimpleGraph.from_edges(3 * k, edges)


def test_iter_holes_is_lazy():
    # listing every hole of this graph takes seconds; the first comes at once
    g = _necklace(16)
    start = time.perf_counter()
    first = next(iter_holes(g))
    assert time.perf_counter() - start < 0.5
    assert first == (0, 1, 3, 2)
    assert len(list(iter_holes(_necklace(6), min_len=5))) == 2**6


_KERNEL = detectors._holes_in_window
_ROOTS = detectors._fresh_starts


def _drain(kernel, holes=None):
    """Runs the kernel to its end, appending its holes to `holes` if given,
    and returns what it returns."""
    try:
        while True:
            hole = next(kernel)
            if holes is not None:
                holes.append(hole)
    except StopIteration as done:
        return done.value


def _length_major(g: SimpleGraph):
    """The reference for every windowed hole search: the kernel as imported,
    so unpatched, restarted at every anchor for one length at a time from 4,
    which yields every hole in iter_holes order."""
    for length in range(4, g.n + 1):
        yield from _KERNEL(g, length, length, _ROOTS(g.vertices_mask))


def _admits(parity: str, length: int) -> bool:
    return parity in ("any", ("even", "odd")[length % 2])


def _window_mismatches():
    """Each (graph, window) whose iter_holes differs from the length-major
    reference filtered by length and parity, on the graphs of the pin; then
    each check-corpus graph of seed 1 (n = 10..33, where a parity skips
    lengths before and after its first hole) whose parity stream from length
    4, or whose find_hole of that parity, differs from the default stream
    filtered by parity."""
    for g in _pin_graphs():
        every = list(_length_major(g))
        for parity, a in itertools.product(("any", "even", "odd"), range(4, 9)):
            for b in (a, a + 2, None):
                want = [c for c in every if a <= len(c) <= (b or g.n) and _admits(parity, len(c))]
                if list(iter_holes(g, min_len=a, max_len=b, parity=parity)) != want:
                    yield write_graph6(g), a, b, parity
    for g in _corpus_graphs():
        every = list(iter_holes(g))
        for parity in ("even", "odd"):
            want = [c for c in every if _admits(parity, len(c))]
            cert = find_hole(g, parity=parity)
            if list(iter_holes(g, parity=parity)) != want or (cert and cert.cycle) != next(iter(want), None):
                yield write_graph6(g), 4, None, parity


def test_iter_holes_window_matches_filtered_default():
    assert next(_window_mismatches(), None) is None


def _windows_searched(monkeypatch) -> list[tuple[int, int]]:
    """Spies on the hole kernel; the list collects the (lo, hi) window of
    every call."""
    windows = []

    def spy(g, lo, hi, roots, keep=False):
        windows.append((lo, hi))
        return (yield from _KERNEL(g, lo, hi, roots, keep))

    monkeypatch.setattr(detectors, "_holes_in_window", spy)
    return windows


def test_dead_anchors_end_the_search(monkeypatch):
    # 42 disjoint triangles, as many as the vertex cap holds: no anchor
    # builds a path of 3 vertices, so length 4 is the only one searched
    windows = _windows_searched(monkeypatch)
    edges = [(i + a, i + b) for i in range(0, 126, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
    assert list(iter_holes(SimpleGraph.from_edges(126, edges))) == []
    assert windows == [(4, 4)]


def test_find_hole_searches_no_length_below_min_len(monkeypatch):
    windows = _windows_searched(monkeypatch)
    g = SimpleGraph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    for k in range(4, 10):
        windows.clear()
        find_hole(g, min_len=k)
        assert windows and min(lo for lo, _ in windows) == k


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


@functools.cache
def _corpus_lines(seed: int) -> tuple[str, ...]:
    """The graph6 lines of the benchmark's check-corpus for a seed."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return tuple(line for line, _ in corpus.generate(seed))


@functools.cache
def _corpus_graphs(seed: int = 1) -> tuple[SimpleGraph, ...]:
    """The benchmark's check-corpus graphs for a seed, 1 by default."""
    return tuple(parse_graph6(line) for line in _corpus_lines(seed))


# sha256 of the stdout of `check --t 4` on the check-corpus of each seed
# (n = 10..33), taken before the resumable hole windows and the theta-end and
# prism-triangle cuts: the benchmark checks only each line's kind and whether
# its certificate is valid, so this pins the certificates themselves
CHECK_PINS = {
    1: "a1200601484673986aa91015aa0b9e2e11b0ef12984e6a4f19f92370ab03bc6c",
    2: "0962d475a91e94dfd39d015d5a787f2c5294cc605fdc8fdcdcdeee9b936314d8",
    3: "5c91e25ca686ac44ab26ee40d511997d4fe8158ad8e02d506a7392691e10e6bf",
}


@pytest.mark.parametrize("seed", CHECK_PINS)
def test_check_output_pinned_on_the_corpus(seed, tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("".join(line + "\n" for line in _corpus_lines(seed)))
    assert cli.main(["check", "--t", "4", str(path)]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_PINS[seed]


def _c4_disagreements(has_c4):
    """Each graph with n <= 7, then each seed-1 check-corpus graph, on which
    `has_c4` and a length-4 hole search differ."""
    for g in itertools.chain((g for n in range(1, 8) for g in all_graphs(n)), _corpus_graphs()):
        if has_c4(g) != (find_hole(g, min_len=4, max_len=4) is not None):
            yield g


def test_has_induced_c4_matches_the_hole_search():
    assert next(_c4_disagreements(has_induced_c4), None) is None
    assert not has_induced_c4(diamond()) and has_induced_c4(cycle_graph(4))


def _c4_with_adjacent_common_neighbours(g: SimpleGraph) -> bool:
    """Any two common neighbours of a non-adjacent pair count."""
    pairs = itertools.combinations(range(g.n), 2)
    return any(not g.has_edge(a, b) and (g.adj[a] & g.adj[b]).bit_count() > 1 for a, b in pairs)


def _c4_with_adjacent_pair(g: SimpleGraph) -> bool:
    """Any pair counts, adjacent or not."""
    pairs = itertools.combinations(range(g.n), 2)
    return any(not detectors.is_clique(g, g.adj[a] & g.adj[b]) for a, b in pairs)


# each must fail the C4 gate: the diamond is a witness against both
C4_MUTANTS = {
    "adjacent_common_neighbours": _c4_with_adjacent_common_neighbours,
    "adjacent_pair": _c4_with_adjacent_pair,
}


@pytest.mark.parametrize("name", C4_MUTANTS)
def test_c4_gate_catches_mutants(name):
    assert C4_MUTANTS[name](diamond())
    assert next(_c4_disagreements(C4_MUTANTS[name]), None) is not None


def test_in_class_e_searches_each_hole_length_once(monkeypatch):
    # its C4 test and its wheel step read one hole stream
    windows = _windows_searched(monkeypatch)
    repeats = []
    for g in _corpus_graphs():
        windows.clear()
        in_class_e(g)
        lengths = [k for lo, hi in windows for k in range(lo, hi + 1)]
        if len(lengths) != len(set(lengths)):
            repeats.append(write_graph6(g))
    assert repeats == []


def _first_hole_window_faults(monkeypatch):
    """(graph6, parity, windows) for each seed-1 corpus graph and parity
    whose stream, until its first hole, of length L, is out (or to its end,
    if it has none), makes a kernel call other than the one-length windows
    of the lengths the parity admits, in turn from 4 to L."""
    windows = _windows_searched(monkeypatch)
    for g, parity in itertools.product(_corpus_graphs(), ("any", "even", "odd")):
        windows.clear()
        first = next(iter_holes(g, parity=parity), None)
        top = len(first) if first else g.n
        want = [(k, k) for k in range(4, top + 1) if _admits(parity, k)]
        if windows != (want if first else want[: len(windows)]):
            yield write_graph6(g), parity, list(windows)


def test_first_hole_is_searched_one_length_at_a_time(monkeypatch):
    assert next(_first_hole_window_faults(monkeypatch), None) is None


def _drained_windows(step):
    """A stand-in for iter_holes's window loop that drains every window,
    sorts it by length and filters it by parity.  Until a hole of the parity
    is out, its windows are single lengths from min_len, `step` apart, or for
    step None they double from the first on, [4, 4], [5, 8], [9, 16], ...;
    after it they double as iter_holes's do."""

    def loop(g, min_len, top, parities):
        roots, lo, hi, found = _ROOTS(g.vertices_mask), min_len, min_len, False
        while roots and lo <= top:
            window = []
            roots = _drain(detectors._holes_in_window(g, lo, hi, roots, hi < top), window)
            window = [c for c in sorted(window, key=len) if len(c) % 2 in parities]
            found = found or bool(window)
            yield from window
            lo, hi = (hi + 1, min(2 * hi, top)) if found or step is None else (hi + step, hi + step)

    return loop


def test_first_hole_gate_catches_doubling_from_the_first_window(monkeypatch):
    monkeypatch.setattr(detectors, "_windowed_holes", _drained_windows(None))
    assert next(_first_hole_window_faults(monkeypatch), None) is not None


# parity steps other than iter_holes's, each caught by the first-hole gate
PARITY_STEP_MUTANTS = {
    "one_length_at_a_time": _drained_windows(1),
    "two_lengths_skipped": _drained_windows(3),
    "admitted_length_skipped": _drained_windows(4),
}


@pytest.mark.parametrize("name", PARITY_STEP_MUTANTS)
def test_first_hole_gate_catches_parity_step_mutants(name, monkeypatch):
    monkeypatch.setattr(detectors, "_windowed_holes", PARITY_STEP_MUTANTS[name])
    assert next(_first_hole_window_faults(monkeypatch), None) is not None


def _closed_only(g, lo, hi, roots, keep=False):
    """A fresh start only at each anchor that closed a hole in the window."""
    closed = 0
    for cyc in _KERNEL(g, lo, hi, roots, keep):
        closed |= 1 << cyc[0]
        yield cyc
    return _ROOTS(closed) if keep else []


def _inverted(g, lo, hi, roots, keep=False):
    """A fresh start at each anchor given that built no entry to hand on."""
    cut = yield from _KERNEL(g, lo, hi, roots, keep)
    given, kept = (mask_of(a for a, _ in side) for side in (roots, cut))
    return _ROOTS(given & ~kept) if keep else []


def _one_length_early(g, lo, hi, roots, keep=False):
    """Hands on only a fresh start at each anchor with a path of hi + 1
    vertices that can still be extended, so an anchor whose longer holes all
    have length hi + 1 or hi + 2 is lost."""
    cut = yield from _KERNEL(g, lo, hi, roots, keep)
    if hi + 2 > g.n:
        return []
    return _ROOTS(mask_of(anchor for anchor, _ in _drain(_KERNEL(g, hi + 2, hi + 2, cut, True))))


# each must fail the window gate, against the length-major reference
DEAD_ANCHOR_MUTANTS = {
    "closed_only": _closed_only,
    "inverted": _inverted,
    "one_length_early": _one_length_early,
}


@pytest.mark.parametrize("name", DEAD_ANCHOR_MUTANTS)
def test_pin_or_window_catches_dead_anchor_mutants(name, monkeypatch):
    monkeypatch.setattr(detectors, "_holes_in_window", DEAD_ANCHOR_MUTANTS[name])
    assert next(_window_mismatches(), None) is not None


def test_a_window_resumes_from_the_paths_the_last_one_cut(monkeypatch):
    # the next window extends only paths longer than the previous cut, also
    # across the lengths a parity skips: it starts from the paths of hi - 1
    # vertices, and only the first window starts afresh
    calls = []

    def spy(g, lo, hi, roots, keep=False):
        calls.append((hi, roots))
        return (yield from _KERNEL(g, lo, hi, roots, keep))

    monkeypatch.setattr(detectors, "_holes_in_window", spy)
    wrong, resumed = [], 0
    for g, parity in itertools.product(_corpus_graphs(), ("any", "even")):
        calls.clear()
        for _ in iter_holes(g, parity=parity):
            pass
        for (hi, _), (_, roots) in zip(calls, calls[1:]):
            resumed += 1
            if any(entries is None or any(len(path) != hi - 1 for path, *_ in entries) for _, entries in roots):
                wrong.append((write_graph6(g), parity, hi))
    assert wrong == []
    assert resumed > 1000


def _last_entry_dropped(g, lo, hi, roots, keep=False):
    """The window hands on its entries but the last."""
    cut = yield from _KERNEL(g, lo, hi, roots, keep)
    if not cut:
        return cut
    anchor, entries = cut[-1]
    return cut[:-1] + [(anchor, entries[:-1])]


def _resumed_in_reverse(g, lo, hi, roots, keep=False):
    """The window hands on each anchor's entries in reverse DFS order."""
    cut = yield from _KERNEL(g, lo, hi, roots, keep)
    return [(anchor, entries[::-1]) for anchor, entries in cut]


# each must fail the window gate, against the length-major reference
RESUME_MUTANTS = {
    "last_entry_dropped": _last_entry_dropped,
    "resumed_in_reverse": _resumed_in_reverse,
}


@pytest.mark.parametrize("name", RESUME_MUTANTS)
def test_window_gate_catches_resume_mutants(name, monkeypatch):
    monkeypatch.setattr(detectors, "_holes_in_window", RESUME_MUTANTS[name])
    assert next(_window_mismatches(), None) is not None


def _long_wheel(k: int) -> SimpleGraph:
    """C_k with a centre k on the rim vertices 0..3: its one even wheel, for
    k >= 9, lies past the first length window."""
    return SimpleGraph.from_edges(k + 1, [(i, (i + 1) % k) for i in range(k)] + [(k, i) for i in range(4)])


def _wheel_gate_graphs():
    return itertools.chain(
        (g for n in range(1, 8) for g in all_graphs(n)),
        random_graphs(500, 25, (8, 22)),
        (_long_wheel(k) for k in range(9, 21)),
    )


def _wheel_window_mismatches():
    """(graph6, what) for each gate graph where a search over windows of
    several lengths differs from the length-major reference: iter_holes,
    all_holes, the whole-graph find_even_wheel, or in_class_e's verdict when
    it is a member or an even wheel."""
    for g in _wheel_gate_graphs():
        holes = list(_length_major(g))
        wheel = detectors._even_wheel_on(g, holes)
        if list(iter_holes(g)) != holes:
            yield write_graph6(g), "iter_holes"
        if all_holes(g) != holes:
            yield write_graph6(g), "all_holes"
        if find_even_wheel(g) != wheel:
            yield write_graph6(g), "find_even_wheel"
        violation = in_class_e(g).violation
        if (violation is None or violation.kind == EVEN_WHEEL) and violation != wheel:
            yield write_graph6(g), "in_class_e"


def test_window_searches_match_length_major_scan():
    assert next(_wheel_window_mismatches(), None) is None


# kernel stand-ins that differ from it only on a window of several lengths,
# so the length-major reference keeps its answer


def _first_rim_found(g, lo, hi, roots, keep=False):
    """The window ends at the first hole with an even-wheel centre in
    anchor-major order, which need not be the shortest, and the next window
    resumes from the entries it was given."""
    if lo == hi:
        return (yield from _KERNEL(g, lo, hi, roots, keep))
    for cyc in _KERNEL(g, lo, hi, roots, keep):
        yield cyc
        if detectors._wheel_centre(g, mask_of(cyc)) >= 0:
            break
    return roots


def _top_length_skipped(g, lo, hi, roots, keep=False):
    """The window yields no hole of its top length hi, but still hands on
    the entries it cut at paths of hi - 1 vertices."""
    if lo == hi:
        return (yield from _KERNEL(g, lo, hi, roots, keep))
    roots = yield from _KERNEL(g, lo, hi - 1, roots, True)
    return _drain(_KERNEL(g, hi, hi, roots, keep))


def _cut_anchor_dropped(g, lo, hi, roots, keep=False):
    """The window drops the entries of the lowest anchor it cut at hi - 1
    vertices from those it hands on."""
    cut = yield from _KERNEL(g, lo, hi, roots, keep)
    return cut if lo == hi else cut[1:]


WINDOW_MUTANTS = {
    "first_rim_found": _first_rim_found,
    "top_length_skipped": _top_length_skipped,
    "cut_anchor_dropped": _cut_anchor_dropped,
}


@pytest.mark.parametrize("name", WINDOW_MUTANTS)
def test_window_gate_catches_mutants(name, monkeypatch):
    monkeypatch.setattr(detectors, "_holes_in_window", WINDOW_MUTANTS[name])
    assert next(_wheel_window_mismatches(), None) is not None


def test_find_even_wheel_stops_at_the_first_window():
    # a 16-bead necklace and a disjoint C8 on 48..55 whose centre 56 sees
    # rim positions 0, 1, 4, 5; listing the 65,555 holes takes seconds
    rim = tuple(range(48, 56))
    edges = list(_necklace(16).edges())
    edges += [(rim[i], rim[i - 1]) for i in range(8)] + [(56, rim[i]) for i in (0, 1, 4, 5)]
    g = SimpleGraph.from_edges(57, edges)
    start = time.perf_counter()
    cert = find_even_wheel(g)
    assert time.perf_counter() - start < 0.1
    assert cert == Certificate(EVEN_WHEEL, cycle=rim, center=56)


@pytest.mark.parametrize("parity", ["even ", "EVEN", "", None, 0])
def test_unknown_parity_raises_before_search(parity):
    with pytest.raises(ContractViolation):
        iter_holes(cycle_graph(4), parity=parity)
    with pytest.raises(ContractViolation):
        find_hole(cycle_graph(4), parity=parity)


def _has_set(size: int, stable: bool):
    """Subset test: whether the mask holds `size` pairwise non-adjacent
    vertices (or, when not `stable`, pairwise adjacent ones)."""
    def holds(g: SimpleGraph, mask: int) -> bool:
        for t in itertools.combinations(bits(mask), size):
            if all(g.has_edge(u, v) != stable for u, v in itertools.combinations(t, 2)):
                return True
        return False
    return holds


def test_stable_triple_matches_subsets():
    brute = _has_set(3, stable=True)
    for g in random_graphs(300, 3, (1, 10)):
        for v in range(g.n):
            for mask in (g.adj[v], g.vertices_mask, g.vertices_mask & ~g.adj[v]):
                assert detectors._has_stable_triple(g, mask) == brute(g, mask)


def test_theta_ends_pass_the_end_filter():
    # each path leaves an end through a neighbour whose next vertex lies
    # outside the end's closed neighbourhood
    for n in range(5, 8):
        for g in all_graphs(n):
            cert = find_theta(g)
            if cert is None:
                continue
            for path in cert.paths:
                for end, nxt in ((path[0], path[2]), (path[-1], path[-3])):
                    assert nxt != end and not g.has_edge(end, nxt)
            for end, nbrs in zip(cert.ends, ([p[1] for p in cert.paths], [p[-2] for p in cert.paths])):
                assert detectors._theta_end(g, end)
                assert not any(g.has_edge(u, v) for u, v in itertools.combinations(nbrs, 2))


def _theta_disagreements():
    """Each graph with n <= 6 on which find_theta and the subset oracle differ."""
    for n in range(1, 7):
        for g in all_graphs(n):
            if (find_theta(g) is not None) != oracle_has_theta(g):
                yield g


# end filters that are too strict; each must lose the theta in K_{2,3}
END_FILTER_MUTANTS = {
    "four_pairwise_non_adjacent": _has_set(4, stable=True),
    "three_pairwise_adjacent": _has_set(3, stable=False),
}


@pytest.mark.parametrize("name", END_FILTER_MUTANTS)
def test_theta_gate_catches_end_filter_mutants(name, monkeypatch):
    monkeypatch.setattr(detectors, "_has_stable_triple", END_FILTER_MUTANTS[name])
    assert find_theta(complete_bipartite(2, 3)) is None
    assert next(_theta_disagreements(), None) is not None


# ---------------------------------------------------------------------------
# the theta-end and prism-triangle cuts against the searches without them


def _uncut_theta_end(g: SimpleGraph, a: int) -> bool:
    """The end rule without the cut: a stable triple anywhere in N(a)."""
    return detectors._has_stable_triple(g, g.adj[a])


def _uncut_triangles(g: SimpleGraph) -> list[tuple[int, int, int]]:
    """Every triangle u < v < w, ascending."""
    out = []
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            for w in bits((g.adj[u] & g.adj[v]) >> (v + 1) << (v + 1)):
                out.append((u, v, w))
    return out


# per cut: the search, the detectors attribute that makes the cut, and the
# reference without it
CUTS = {
    "theta_ends": (find_theta, "_theta_end", _uncut_theta_end),
    "prism_triangles": (find_prism, "_prism_triangles", _uncut_triangles),
}


def _cut_gate_graphs():
    """Every graph with n <= 7, seeded random graphs with n = 8..16 (each
    with its own edge probability, so some dense and full of triangles) and
    the check-corpus graphs of seeds 1..3."""
    return itertools.chain(
        (g for n in range(1, 8) for g in all_graphs(n)),
        random_graphs(120, 29, (8, 16)),
        *(_corpus_graphs(seed) for seed in (1, 2, 3)),
    )


def _cut_outcomes(name: str):
    """(graph6, certificate, reference certificate) per gate graph, from the
    search with the cut as detectors holds it and with the reference."""
    finder, attr, uncut = CUTS[name]
    for g in _cut_gate_graphs():
        got = finder(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detectors, attr, uncut)
            want = finder(g)
        yield write_graph6(g), got, want


@pytest.mark.parametrize("name", CUTS)
def test_cut_keeps_the_first_certificate(name):
    outcomes = list(_cut_outcomes(name))
    assert [g6 for g6, got, want in outcomes if got != want] == []
    # the corpus plants 180 of each kind; the small and random graphs add more
    assert sum(want is not None for _, _, want in outcomes) > 200


def _end_on_exits(admit):
    """The end rule on the neighbours x of a that admit(g, a, x) keeps."""
    def end(g, a):
        return detectors._has_stable_triple(g, mask_of(x for x in bits(g.adj[a]) if admit(g, a, x)))
    return end


def _triangles_with_private(enough):
    """The triangles each of whose corners c passes enough(g, private), with
    private the neighbours of c adjacent to neither other corner."""
    def triangles(g):
        out = []
        for t in _uncut_triangles(g):
            rows = [g.adj[c] for c in t]
            if all(enough(g, rows[i] & ~(rows[i - 1] | rows[i - 2])) for i in range(3)):
                out.append(t)
        return out
    return triangles


def _outside(g, a, x):
    return g.adj[x] & ~(g.adj[a] | 1 << a)


# cuts that are too strong; each must fail its gate
CUT_MUTANTS = {
    "end_exit_with_two_outside": ("theta_ends", _end_on_exits(lambda g, a, x: _outside(g, a, x).bit_count() >= 2)),
    "end_exit_with_no_neighbour_in_n_a": (
        "theta_ends", _end_on_exits(lambda g, a, x: _outside(g, a, x) and not g.adj[x] & g.adj[a]),
    ),
    "private_neighbour_of_degree_3": (
        "prism_triangles", _triangles_with_private(lambda g, p: any(g.degree(x) >= 3 for x in bits(p))),
    ),
    "two_private_neighbours": ("prism_triangles", _triangles_with_private(lambda g, p: p.bit_count() >= 2)),
}


@pytest.mark.parametrize("name", CUT_MUTANTS)
def test_cut_gate_catches_mutants(name, monkeypatch):
    cut, mutant = CUT_MUTANTS[name]
    monkeypatch.setattr(detectors, CUTS[cut][1], mutant)
    assert any(got != want for _, got, want in _cut_outcomes(cut))


# ---------------------------------------------------------------------------
# the searches anchored on one vertex

ANCHORED = {THETA: find_theta, PRISM: find_prism, EVEN_WHEEL: find_even_wheel}


def _configuration_vertices(g: SimpleGraph) -> dict[str, int]:
    """Per kind, the mask of the vertices that lie in some theta, prism or
    even wheel of g, from the subset predicates of the oracles."""
    out = dict.fromkeys(ANCHORED, 0)
    for mask in range(1 << g.n):
        if _subset_is_theta(g, mask):
            out[THETA] |= mask
        if _subset_is_prism(g, mask):
            out[PRISM] |= mask
        if _is_cycle_subset(g, mask):
            for c in bits(g.vertices_mask & ~mask):
                k = (g.adj[c] & mask).bit_count()
                if k >= 4 and k % 2 == 0:
                    out[EVEN_WHEEL] |= mask | 1 << c
    return out


def _certificate_vertices(cert: Certificate) -> set[int]:
    return set(cert.cycle).union(*cert.paths, *cert.triangles) | ({cert.center} - {-1})


def _anchored_mismatches():
    """(graph6, v, kind, what) for each graph with n <= 7, vertex v and kind
    where the anchored search answers otherwise than the subset predicates,
    or returns a certificate that is invalid or misses v."""
    for n in range(1, 8):
        for g in all_graphs(n):
            covered = _configuration_vertices(g)
            for v in range(n):
                for kind, finder in ANCHORED.items():
                    cert = finder(g, anchor=v)
                    if (cert is not None) != bool(covered[kind] >> v & 1):
                        yield write_graph6(g), v, kind, "answer"
                    elif cert is not None and not (
                        validate_certificate(g, cert) and v in _certificate_vertices(cert)
                    ):
                        yield write_graph6(g), v, kind, "certificate"


def test_anchored_searches_match_subsets_n7():
    assert list(_anchored_mismatches()) == []


def test_anchored_searches_match_whole_graph_n8_to_10():
    # where g - v is free of the kind, every configuration of g contains v
    mismatches, found = [], set()
    for g in random_graphs(50, 23, (8, 10)):
        for v in range(g.n):
            minus = delete_vertex(g, v)
            for kind, finder in ANCHORED.items():
                if finder(minus) is not None:
                    continue
                whole = finder(g) is not None
                if (finder(g, anchor=v) is not None) != whole:
                    mismatches.append((write_graph6(g), v, kind))
                if whole:
                    found.add(kind)
    assert mismatches == []
    assert found == set(ANCHORED)


def test_anchored_search_rejects_a_vertex_out_of_range():
    for finder in ANCHORED.values():
        with pytest.raises(ContractViolation):
            finder(cycle_graph(4), anchor=4)
    with pytest.raises(ContractViolation):
        detectors.wheel_centred_at(complete_graph(5), -1)


def _centre_with_two():
    """wheel_centred_at taking any hole of g - v with >= 2 neighbours of v."""

    def centred(g, v):
        for mask, cycle in detectors._parent_holes(g.n, detectors._without(g, v)):
            if (g.adj[v] & mask).bit_count() >= 2:
                return Certificate(EVEN_WHEEL, cycle=cycle, center=v)
        return None

    return centred


def _memo_keyed_on_n():
    """The g - v hole memo keyed on n alone, so it reads a stale parent's holes."""
    holes, compute = {}, detectors._parent_holes.__wrapped__

    def parent_holes(n, adj):
        if n not in holes:
            holes[n] = compute(n, adj)
        return holes[n]

    return parent_holes


# each entry builds a fresh mutant for the detectors attribute it replaces
ANCHOR_MUTANTS = {
    "theta_ends_may_be_adjacent": ("_theta_ends", lambda: lambda g, s, t: s != t),
    "prism_edges_may_share_a_vertex": ("_prism_ends", lambda: lambda g, s, t: s != t),
    "centre_with_two_rim_neighbours": ("wheel_centred_at", _centre_with_two),
    "parent_memo_keyed_on_n": ("_parent_holes", _memo_keyed_on_n),
}


@pytest.mark.parametrize("name", ANCHOR_MUTANTS)
def test_anchored_gate_catches_mutants(name, monkeypatch):
    attr, build = ANCHOR_MUTANTS[name]
    monkeypatch.setattr(detectors, attr, build())
    assert next(_anchored_mismatches(), None) is not None
