"""k-tree recognition, the chordal-to-k-tree embedding, quotients and friends.

A k-tree is either the complete graph on k vertices or a graph with an
ordering in which every vertex among the first h-k has forward neighbors
forming a clique of cardinality exactly k.  Orderings are stored as tuples
where order[i] is the vertex at position i+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detectors import dirac_order, has_clique, is_clique
from .errors import ContractViolation, GraphFormatError
from .graphs import (
    MAX_VERTICES,
    SimpleGraph,
    add_vertex,
    bits,
    complete_graph,
    components,
    induced_subgraph,
    mask_of,
    parse_graph6,
    relabel_mask,
    write_graph6,
)

Embedding = tuple[int, ...]  # embedding[h_vertex] = host vertex


@dataclass(frozen=True)
class KTree:
    graph: SimpleGraph
    k: int
    order: tuple[int, ...]

    def to_text(self) -> str:
        """graph6 line, then k and the ordering on a second line."""
        return f"{write_graph6(self.graph)}\n{self.k} " + " ".join(map(str, self.order)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KTree":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ContractViolation("expected graph6 line plus ordering line")
        g = parse_graph6(lines[0])
        try:
            nums = [int(x) for x in lines[1].split()]
        except ValueError:
            raise GraphFormatError(f"line 2: ordering must be integers, got {lines[1]!r}") from None
        return cls(g, nums[0], tuple(nums[1:]))


def forward_neighbors(g: SimpleGraph, order: tuple[int, ...], i: int) -> int:
    """Neighbors of order[i] among positions after i, as a mask."""
    later = mask_of(order[i + 1 :])
    return g.adj[order[i]] & later


def validate_ktree(g: SimpleGraph, k: int, order: tuple[int, ...]) -> tuple[bool, int | None]:
    """Check the base/inductive clauses exactly.

    Returns (ok, first violated position): position 0 flags a base-case
    failure (wrong size or non-complete base), positions 1..h-k flag the first
    ordering index whose forward neighborhood is not a k-clique.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if sorted(order) != list(range(g.n)):
        raise ContractViolation("order must be a bijection on the vertices")
    h = g.n
    if h < k:
        return False, 0
    if h == k:
        ok = is_clique(g, (1 << h) - 1)
        return ok, (None if ok else 0)
    later = g.vertices_mask  # the vertices after position i: a shrinking suffix
    for i in range(h - k):
        later ^= 1 << order[i]
        fwd = g.adj[order[i]] & later
        if fwd.bit_count() != k or not is_clique(g, fwd):
            return False, i + 1
    return True, None


def recognize_ktree(g: SimpleGraph, k: int) -> tuple[int, ...] | None:
    """A k-tree ordering of g, or None when g is no k-tree.

    In a k-tree on more than k vertices every simplicial vertex has exactly k
    neighbors, and deleting one leaves a k-tree; so Dirac's lowest-simplicial
    order is a k-tree ordering whenever one exists, and validating it is exact.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    order = dirac_order(g)
    if order is None or not validate_ktree(g, k, order)[0]:
        return None
    return order


def ktree_quotient(t: KTree, i: int) -> KTree:
    """Drop the first i ordering positions; quotient 0 is the k-tree itself."""
    h = t.graph.n
    if not 0 <= i <= h - t.k:
        raise ContractViolation(f"quotient index {i} outside 0..{h - t.k}")
    if i == 0:
        return t
    keep_vertices = t.order[i:]
    sub, mapping = induced_subgraph(t.graph, mask_of(keep_vertices))
    pos = {v: idx for idx, v in enumerate(mapping)}
    return KTree(sub, t.k, tuple(pos[v] for v in keep_vertices))


def cone(f: SimpleGraph) -> SimpleGraph:
    """f plus one universal vertex (the new vertex gets index n)."""
    return add_vertex(f, f.vertices_mask)


def gen_tdr(d: int, r: int) -> SimpleGraph:
    """Rooted tree with root degree d, internal non-root degree d+1 and every
    leaf at depth r; vertex 0 is the root, levels are numbered consecutively."""
    if d < 0 or r < 0:
        raise ContractViolation("d and r must be >= 0")
    # the vertex count 1 + d + ... + d^r, summed only until it passes the cap
    n = level_size = 1
    for _ in range(r):
        level_size *= d
        n += level_size
        if not level_size or n > MAX_VERTICES:
            break
    if n > MAX_VERTICES:
        raise ContractViolation(f"tree with d={d}, r={r} has more than {MAX_VERTICES} vertices")
    edges = []
    level = [0]
    next_id = 1
    for _ in range(r):
        if not level:
            break
        nxt = []
        for parent in level:
            for _ in range(d):
                edges.append((parent, next_id))
                nxt.append(next_id)
                next_id += 1
        level = nxt
    return SimpleGraph.from_edges(next_id, edges)


# ---------------------------------------------------------------------------
# induced-subgraph isomorphism (the universal "contains" oracle)


def contains_induced(g: SimpleGraph, h: SimpleGraph) -> Embedding | None:
    """Backtracking induced-subgraph isomorphism with degree and
    neighborhood pruning; None when no embedding exists."""
    if h.n > g.n:
        raise ContractViolation("pattern larger than host")
    if h.n == 0:
        return ()
    # order pattern vertices: most-constrained first, preferring neighbors of
    # already-placed vertices
    order: list[int] = []
    placed_mask = 0
    degs = [h.adj[v].bit_count() for v in range(h.n)]
    while len(order) < h.n:
        cands = [v for v in range(h.n) if not placed_mask >> v & 1]
        cands.sort(key=lambda v: (-(h.adj[v] & placed_mask).bit_count(), -degs[v], v))
        order.append(cands[0])
        placed_mask |= 1 << cands[0]

    gdeg = [g.adj[v].bit_count() for v in range(g.n)]
    assign: dict[int, int] = {}
    used = 0

    def backtrack(idx: int) -> bool:
        nonlocal used
        if idx == h.n:
            return True
        u = order[idx]
        for cand in range(g.n):
            if used >> cand & 1 or gdeg[cand] < degs[u]:
                continue
            ok = True
            for w, img in assign.items():
                if h.has_edge(u, w) != g.has_edge(cand, img):
                    ok = False
                    break
            if not ok:
                continue
            assign[u] = cand
            used |= 1 << cand
            if backtrack(idx + 1):
                return True
            del assign[u]
            used ^= 1 << cand
        return False

    if not backtrack(0):
        return None
    return tuple(assign[v] for v in range(h.n))


def validate_embedding(host: SimpleGraph, pattern: SimpleGraph, emb: Embedding) -> bool:
    """Injective and adjacency-preserving in both directions on the image."""
    if len(emb) != pattern.n or len(set(emb)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in emb):
        return False
    # each pattern row, carried into the host, is the host row cut to the image
    at = [1 << v for v in emb]
    image = mask_of(emb)
    for u, v in enumerate(emb):
        if relabel_mask(pattern.adj[u], at) != host.adj[v] & image:
            return False
    return True


# ---------------------------------------------------------------------------
# the chordal-to-k-tree embedding construction


def embed_in_ktree(h: SimpleGraph, k: int) -> tuple[KTree, Embedding]:
    """Embed a chordal K_{k+2}-free graph into a k-tree, constructively.

    Disconnected inputs first gain a hub vertex with exactly one neighbor in
    each component (the lowest-indexed vertex of each).  The connected graph
    is then built along one perfect elimination ordering: its first suffix
    that is a clique on at most k vertices sits in the base K_k, and each
    earlier vertex, the last first, gets a ladder of new vertices whose
    forward neighborhoods are k-cliques by construction.
    """
    if not 1 <= k <= MAX_VERTICES:
        raise ContractViolation(f"k must be in 1..{MAX_VERTICES}, got {k}")
    peo = dirac_order(h)
    if peo is None:
        raise ContractViolation("input is not chordal")
    if has_clique(h, k + 2) is not None:
        raise ContractViolation(f"input contains a clique on {k + 2} vertices")

    if h.n == 0:
        return KTree(complete_graph(k), k, tuple(range(k))), ()
    comps = components(h)
    if len(comps) > 1:
        augmented = add_vertex(h, mask_of(next(bits(c)) for c in comps))
        tree, emb = _embed_along(augmented, dirac_order(augmented), k)
        return tree, emb[: h.n]
    return _embed_along(h, peo, k)


def _embed_along(h: SimpleGraph, peo: tuple[int, ...], k: int) -> tuple[KTree, Embedding]:
    """One backward walk of a perfect elimination ordering of connected h."""
    start = next(i for i in range(max(h.n - k, 0), h.n) if is_clique(h, mask_of(peo[i:])))
    tree = KTree(complete_graph(k), k, tuple(range(k)))
    emb = [0] * h.n
    for image, v in enumerate(sorted(peo[start:])):
        emb[v] = image
    later = mask_of(peo[start:])
    for v in reversed(peo[:start]):
        # the new vertex sees exactly the images of v's later neighbors
        tree, emb[v] = _attach(tree, mask_of(emb[u] for u in bits(h.adj[v] & later)), k)
        later |= 1 << v
    return tree, tuple(emb)


def _extend_to_k_clique(t: KTree, n_mask: int, k: int) -> int:
    """A k-clique of the k-tree containing the given nonempty clique."""
    size = n_mask.bit_count()
    if size > k:
        raise ContractViolation("clique larger than k cannot extend")
    if size == k:
        return n_mask
    g = t.graph
    position = {v: i for i, v in enumerate(t.order)}
    x = min(bits(n_mask), key=position.__getitem__)
    if position[x] < g.n - k:
        pool = forward_neighbors(g, t.order, position[x]) | (1 << x)
    else:
        # all of the clique sits in the final base positions, which form a K_k
        pool = mask_of(t.order[g.n - k :])
    return n_mask | mask_of(list(bits(pool & ~n_mask))[: k - size])


def _attach(t: KTree, n_mask: int, k: int) -> tuple[KTree, int]:
    """Add the ladder x_0..x_{k-|N|} in front of the ordering; x_0 is the
    image of the vertex being attached and sees exactly N among old
    vertices."""
    clique = _extend_to_k_clique(t, n_mask, k)
    ys = sorted(bits(clique & ~n_mask))  # enumeration of K minus N, ascending
    m = len(ys)  # = k - |N|
    g = t.graph
    base_n = g.n
    if base_n + m + 1 > MAX_VERTICES:
        raise ContractViolation(
            f"k={k}: the k-tree would grow to {base_n + m + 1} vertices, past {MAX_VERTICES}"
        )
    new_ids = list(range(base_n, base_n + m + 1))  # x_0 .. x_m
    adj = list(g.adj)
    adj.extend([0] * (m + 1))

    def connect(u: int, v: int):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for i, xi in enumerate(new_ids):
        for y in bits(n_mask):
            connect(xi, y)
        for j in range(i):
            connect(xi, ys[j])
        for j in range(i + 1, m + 1):
            connect(xi, new_ids[j])
    bigger = SimpleGraph(base_n + m + 1, tuple(adj))
    order = tuple(new_ids) + t.order
    return KTree(bigger, k, order), new_ids[0]
