"""Immutable bitset graphs, set algebra, connectivity and bit-exact file I/O.

Vertices are dense integers 0..n-1.  A vertex set is a plain Python int used
as a bitmask, so intersection/union/complement are single operations and every
structure stores vertex indices, never labels.  Graphs are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .errors import ContractViolation, GraphFormatError

MAX_VERTICES = 128  # hard representation cap; n <= 64 fits one machine word per row


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a vertex-set mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def relabel_mask(mask: int, bit_of: list[int]) -> int:
    """A vertex-set mask carried to new labels: the union of bit_of[v] over
    its members v, where bit_of[v] is 1 << (the new label of v)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bit_of[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: vertex count plus one neighbor bitmask per vertex.

    Invariants: adjacency is symmetric and irreflexive; equality is plain
    (n, adj) equality.  Construction from untrusted data goes through
    from_edges or the parsers, which call validate(); internal builders are
    trusted and skip it (constructions sit on the sweep hot path).
    """

    n: int
    adj: tuple[int, ...]

    def validate(self) -> "SimpleGraph":
        if not 0 <= self.n <= MAX_VERTICES:
            raise ContractViolation(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ContractViolation("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ContractViolation(f"vertex {v} has neighbors out of range")
            if row >> v & 1:
                raise ContractViolation(f"vertex {v} is self-adjacent")
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ContractViolation(f"edge {v}-{u} is not symmetric")
        return self

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        if not 0 <= n <= MAX_VERTICES:
            raise ContractViolation(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"bad edge ({u},{v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj)).validate()

    @property
    def vertices_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# builders


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, (0,) * n)


def complete_graph(n: int) -> SimpleGraph:
    full = (1 << n) - 1
    return SimpleGraph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ContractViolation("cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimpleGraph.from_edges(n, edges)


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return SimpleGraph(g.n + h.n, tuple(adj))


def complement_graph(g: SimpleGraph) -> SimpleGraph:
    full = g.vertices_mask
    return SimpleGraph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def add_vertex(g: SimpleGraph, neighbors: int) -> SimpleGraph:
    """New graph with one extra vertex adjacent to the given mask."""
    if neighbors & ~g.vertices_mask:
        raise ContractViolation("neighbor mask out of range")
    v = g.n
    adj = [row | (1 << v if neighbors >> u & 1 else 0) for u, row in enumerate(g.adj)]
    adj.append(neighbors)
    return SimpleGraph(g.n + 1, tuple(adj))


# ---------------------------------------------------------------------------
# induced subgraphs, set predicates, paths, connectivity


def induced_subgraph(g: SimpleGraph, subset: int) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Relabeled induced subgraph plus the map new index -> original vertex."""
    if subset & ~g.vertices_mask:
        raise ContractViolation("subset has members outside the graph")
    keep = tuple(bits(subset))
    bit_of = [0] * g.n
    for i, v in enumerate(keep):
        bit_of[v] = 1 << i
    return SimpleGraph(len(keep), tuple(relabel_mask(g.adj[v] & subset, bit_of) for v in keep)), keep


def delete_vertex(g: SimpleGraph, v: int) -> SimpleGraph:
    """Induced subgraph on all vertices but v, later indices shifted down by one."""
    if not 0 <= v < g.n:
        raise ContractViolation("vertex out of range")
    low = (1 << v) - 1
    adj = []
    for u, row in enumerate(g.adj):
        if u == v:
            continue
        adj.append((row & low) | (row >> (v + 1)) << v)
    return SimpleGraph(g.n - 1, tuple(adj))


def is_induced_path(g: SimpleGraph, seq: tuple[int, ...]) -> bool:
    """True iff consecutive vertices are adjacent and non-consecutive ones are not."""
    k = len(seq)
    if len(set(seq)) != k:
        raise ContractViolation("path sequence has duplicate vertices")
    for v in seq:
        if not 0 <= v < g.n:
            raise ContractViolation(f"path vertex {v} out of range")
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(seq[i], seq[j]) != (j == i + 1):
                return False
    return True


def closed_neighborhood(g: SimpleGraph, mask: int) -> int:
    """The vertex set `mask` plus every neighbor of its members."""
    out = mask
    for v in bits(mask):
        out |= g.adj[v]
    return out


def components(g: SimpleGraph, within: int | None = None) -> list[int]:
    """Connected components of g[within] (all of g by default) as vertex-set
    masks, ordered by smallest member."""
    rest = g.vertices_mask if within is None else within
    out = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & rest & ~comp
            comp |= frontier
        rest &= ~comp
        out.append(comp)
    return out


def is_connected(g: SimpleGraph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


# ---------------------------------------------------------------------------
# vertex fields of certificate and witness documents: ints nested `depth`
# lists deep in JSON, tuples in memory


def ints_from_json(value, depth: int = 0):
    """An int (depth 0), or lists nested `depth` deep around ints, as tuples;
    anything else raises ContractViolation."""
    if depth == 0:
        if type(value) is not int:
            raise ContractViolation(f"expected an integer, got {value!r}")
        return value
    if not isinstance(value, list):
        raise ContractViolation(f"expected a list, got {value!r}")
    return tuple(ints_from_json(v, depth - 1) for v in value)


def ints_to_json(value, depth: int = 0):
    """Inverse of ints_from_json: tuples nested `depth` deep become lists."""
    return [ints_to_json(v, depth - 1) for v in value] if depth else value


def check_vertices(g: SimpleGraph, value, depth: int, field: str) -> None:
    """Raise ContractViolation unless every int of `value` (nested `depth`
    deep) is a vertex of g; `field` names the value in the message."""
    flat = (value,) if depth == 0 else value
    for _ in range(depth - 1):
        flat = chain.from_iterable(flat)
    n = g.n
    for v in flat:
        if type(v) is not int or not 0 <= v < n:
            raise ContractViolation(f"{field} vertex {v!r} is not in 0..{n - 1}")


# ---------------------------------------------------------------------------
# graph6 (bit-exact per the public format description)


# The body is the upper triangle column by column, each column j as the
# bits of rows 0..j-1, packed six to a byte plus 63.  Both directions work on
# the triangle as one bit string: each column is a `format` of the row's low
# bits, reversed, and the six-bit groups go through the base64 alphabet.
_GRAPH6_BYTES = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_B64, _GRAPH6_BYTES)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6_BYTES, _B64)


def write_graph6(g: SimpleGraph) -> str:
    n = g.n
    if n > MAX_VERTICES:
        raise ContractViolation("graph too large for this implementation")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    stream = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    if not stream:
        return head
    chars = (len(stream) + 5) // 6
    nbytes = (chars + 3) // 4 * 3  # whole base64 quanta
    raw = (int(stream, 2) << (8 * nbytes - len(stream))).to_bytes(nbytes, "big")
    return head + b64encode(raw)[:chars].translate(_TO_GRAPH6).decode("ascii")


def parse_graph6(text: str) -> SimpleGraph:
    if not isinstance(text, str):
        raise GraphFormatError(f"graph6 input must be text, got {type(text).__name__}")
    try:
        data = text.strip().encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError(f"invalid graph6 byte at offset {exc.start}") from None
    if not data:
        raise GraphFormatError("empty graph6 line")
    bad = data.translate(None, _GRAPH6_BYTES)
    if bad:
        raise GraphFormatError(f"invalid graph6 byte at offset {data.index(bad[:1])}")
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
    body = data[pos:].translate(_FROM_GRAPH6)
    raw = b64decode(body + b"A" * (-nbytes % 4))
    stream = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in stream[nbits:]:  # the last byte's padding, or the zero bits added above
        raise GraphFormatError(f"nonzero padding bit at offset {len(data) - 1}")
    adj = [0] * n
    start = 0
    for j in range(1, n):
        column = int(stream[start : start + j][::-1], 2)
        start += j
        adj[j] = column
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= 1 << j
            column ^= low
    # n is within the cap, and each bit of column j below j is set in both
    # rows, so the rows are in range, irreflexive and symmetric: no validate()
    return SimpleGraph(n, tuple(adj))


# ---------------------------------------------------------------------------
# plain edge-list text ("n" header line, then "u v" lines, 0-based)


def write_edgelist(g: SimpleGraph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> SimpleGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge list: missing header line 1")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError("bad vertex count on line 1") from None
    edges = []
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v' on line {no}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint on line {no}") from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"edge out of range on line {no}")
        edges.append((u, v))
    return SimpleGraph.from_edges(n, edges)
