import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab.errors import ContractViolation, GraphFormatError
from obstruction_lab.graphs import (
    MAX_VERTICES,
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


# the per-bit codec graphs.py used before its string-and-base64 one: the
# reference the fast codec must match byte for byte and error for error


def reference_write_graph6(g: SimpleGraph) -> str:
    if g.n > MAX_VERTICES:
        raise ContractViolation("graph too large for this implementation")
    if g.n <= 62:
        head = [g.n + 63]
    else:
        head = [126, (g.n >> 12) + 63, ((g.n >> 6) & 63) + 63, (g.n & 63) + 63]
    stream = []
    for j in range(1, g.n):
        for i in range(j):
            stream.append(g.adj[i] >> j & 1)
    while len(stream) % 6:
        stream.append(0)
    body = []
    for k in range(0, len(stream), 6):
        val = 0
        for b in stream[k : k + 6]:
            val = val << 1 | b
        body.append(val + 63)
    return bytes(head + body).decode("ascii")


def reference_parse_graph6(text: str) -> SimpleGraph:
    if not isinstance(text, str):
        raise GraphFormatError(f"graph6 input must be text, got {type(text).__name__}")
    try:
        data = text.strip().encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError(f"invalid graph6 byte at offset {exc.start}") from None
    if not data:
        raise GraphFormatError("empty graph6 line")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"invalid graph6 byte at offset {off}")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError("graph6 extended (>258047 vertices) header at offset 1 not supported")
        if len(data) < 4:
            raise GraphFormatError(f"truncated graph6 header at offset {len(data)}")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds cap {MAX_VERTICES} (header at offset 0)")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError(f"truncated graph6 body at offset {len(data)}")
    if len(data) - pos > nbytes:
        raise GraphFormatError(f"trailing bytes at offset {pos + nbytes}")
    adj = [0] * n
    pairs = ((i, j) for j in range(1, n) for i in range(j))  # column-major upper triangle
    stream = ((byte - 63) >> shift & 1 for byte in data[pos:] for shift in range(5, -1, -1))
    for (i, j), bit in zip(pairs, stream):
        if bit:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    if any(stream):  # what zip left of the stream is the last byte's padding
        raise GraphFormatError(f"nonzero padding bit at offset {len(data) - 1}")
    return SimpleGraph(n, tuple(adj)).validate()


def _outcome(parse, line):
    try:
        return parse(line)
    except GraphFormatError as exc:
        return str(exc)


def _codec_graphs():
    """Every graph with n <= 7, seeded graphs up to the vertex cap (n > 62
    takes the four-byte header), and the largest empty and complete graphs."""
    yield from (g for n in range(1, 8) for g in all_graphs(n))
    yield from random_graphs(100, 6, (0, MAX_VERTICES))
    yield from (empty_graph(0), empty_graph(MAX_VERTICES), complete_graph(MAX_VERTICES))


def _malformed(line: str):
    """Lines one defect away from a valid line, at offsets in the header, the
    middle and the end: a byte outside the alphabet, a truncated header or
    body, an extra byte, and each padding bit of the last byte set."""
    offsets = sorted({*range(min(len(line), 5)), len(line) // 2, len(line) - 2, len(line) - 1} - {-1})
    for off in offsets:
        for bad in ("\x1f", "\x7f", "\xe9"):
            yield line[:off] + bad + line[off + 1 :]
        yield line[:off]
    yield line + "?"
    n = reference_parse_graph6(line).n
    for bit in range(-n * (n - 1) // 2 % 6):
        yield line[:-1] + chr((ord(line[-1]) - 63 | 1 << bit) + 63)


def test_graph6_codec_matches_reference():
    for g in _codec_graphs():
        line = reference_write_graph6(g)
        assert write_graph6(g) == line
        assert parse_graph6(line) == g
        for bad in _malformed(line):
            assert _outcome(parse_graph6, bad) == _outcome(reference_parse_graph6, bad), bad
    for line in ("", " ", "~", "~~", "~~???", "~?", "~??", "~?A@", "A?x"):
        assert _outcome(parse_graph6, line) == _outcome(reference_parse_graph6, line)


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
