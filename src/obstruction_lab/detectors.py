"""Certificate-producing detectors for the forbidden induced structures.

Each find_* returns a role-annotated Certificate or None.  Searches are
anchored (end pair, triangle pair, hole-plus-center) rather than subset
enumeration; the subset oracles live with the tests.  All searches iterate in
a fixed ascending order, so certificates are deterministic: holes come
shortest length first, then smallest anchor vertex, then lexicographically
smallest vertex sequence (with the orientation fixed by second < last).

The two path kernels, the hole search over a window of lengths and the
induced a-b path search, are depth-first loops over an explicit stack.  Each
entry holds a path, its vertex mask, the neighbourhoods the next vertex must
avoid and the candidates not yet tried; the lowest candidate bit is peeled
first, so the order is the ascending one above.

Resumable hole windows.  iter_holes searches a window of lengths lo..hi at a
time (its docstring says which).  When another window follows, the kernel
hands on, per anchor, the entries it cut at a path of hi - 1 vertices that can
still be extended, in DFS order, and the next window resumes from them
instead of restarting at each anchor.  Every hole of length > hi from an
anchor starts with one of those paths, and a DFS in turn over entries in
lexicographic prefix order meets each anchor's holes of one length in
lexicographic order, as a restart would; so the stable sort by length gives
the same stream.  An anchor with no entry left is the smallest vertex of no
longer hole and starts nothing more (dead anchors), and the search stops when
no anchor has an entry.  A window lo..hi extends the paths it resumes
without closing them until they have lo - 1 vertices, so a parity steps over
the lengths it skips and no anchor restarts after the first window.  The last
window keeps nothing.

Theta ends.  Each of a theta's three paths leaves an end a through some x in
N(a) whose next vertex (the other end, or the next interior vertex) lies
outside N[a], and the three such x are pairwise non-adjacent, as the
interiors are disjoint and anticomplete.  So find_theta tries as an end only a
vertex with a stable triple among {x in N(a) : N(x) not inside N[a]}; the end
pairs it skips hold no theta, and its first theta is unchanged.

Prism triangles.  Each corner of a prism's triangle has a neighbour that is
neither other corner and adjacent to neither: the next vertex on its path,
since only the triangle edges run between different paths.  find_prism drops
every other triangle before forming pairs.  The triangles left keep their
relative order, so the pairs left are tried in the same order as before, and
the pairs dropped hold no prism; so its first prism is unchanged.

Given an `anchor` vertex, find_theta, find_prism and find_even_wheel look
only for a configuration containing it, on the holes through it (see
"obstructions through one vertex"); the hereditary prunes call only these.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Generator, Iterable, Iterator

from .errors import ContractViolation
from .graphs import SimpleGraph, bits, closed_neighborhood, is_induced_path, mask_of, write_graph6
from .graphs import check_vertices, components, ints_from_json, ints_to_json

HOLE = "hole"
THETA = "theta"
PRISM = "prism"
EVEN_WHEEL = "even_wheel"
CLIQUE = "clique"
BICLIQUE = "biclique"


@dataclass(frozen=True)
class Certificate:
    """Tagged witness for a found structure, as explicit vertex lists.

    CERTIFICATE_KINDS names the fields each kind uses; the other fields
    stay at their defaults.
    """

    kind: str
    cycle: tuple[int, ...] = ()
    center: int = -1
    ends: tuple[int, int] = (-1, -1)
    paths: tuple[tuple[int, ...], ...] = ()
    triangles: tuple[tuple[int, ...], ...] = ()
    vertices: tuple[int, ...] = ()
    side_a: tuple[int, ...] = ()
    side_b: tuple[int, ...] = ()

    def to_dict(self, g: SimpleGraph | None = None) -> dict:
        out: dict = {"kind": self.kind}
        for name, depth in _certificate_kind(self.kind)[1]:
            out[name] = ints_to_json(getattr(self, name), depth)
        if g is not None:
            out["graph6"] = write_graph6(g)
        return out


def certificate_from_dict(d: dict) -> Certificate:
    """Certificate from its JSON form.  An unknown kind, or a field of the
    kind that is not ints nested to its depth, raises ContractViolation; a
    missing field keeps its default."""
    kind = d.get("kind")
    fields = _certificate_kind(kind)[1]
    values = {name: ints_from_json(d[name], depth) for name, depth in fields if name in d}
    return Certificate(kind, **values)


class WheelClass(enum.Enum):
    GOOD = "good"
    BAD = "bad"
    UGLY = "ugly"
    NO_NEIGHBOR = "no_neighbor"


# ---------------------------------------------------------------------------
# holes


def is_hole(g: SimpleGraph, cycle: tuple[int, ...]) -> bool:
    """True iff the sequence is an induced cycle on >= 4 vertices."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(cycle[i], cycle[j])
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


# hole lengths mod 2 that each parity admits
_PARITIES = {"any": (0, 1), "even": (0,), "odd": (1,)}


def iter_holes(
    g: SimpleGraph, min_len: int = 4, max_len: int | None = None, parity: str = "any"
) -> Iterator[tuple[int, ...]]:
    """All holes, shortest first; each exactly once in canonical orientation.

    Canonical form: the cycle starts at its smallest vertex and runs toward
    the smaller of that vertex's two cycle-neighbors.  The arguments are
    checked here, before any search; a bad one raises ContractViolation.

    The length windows of the hole search are chosen here and nowhere else.
    Each window is one kernel call, one DFS per anchor over lengths lo..hi,
    resumed where the window before it stopped (see "resumable hole windows"
    in the module docstring).  Until a first hole is out, each window is the
    next single length the parity admits, so that hole comes out as soon as
    it is found.  After a first hole of length L come [L + 1, 2L],
    [2L + 1, 4L], ..., each sorted stably by length (within a length the
    kernel yields in iter_holes order) and then filtered by parity.  Lengths
    below min_len are not searched, nor any above the longest the parity
    admits.
    """
    if min_len < 4:
        raise ContractViolation("holes have at least 4 vertices")
    if not isinstance(parity, str) or parity not in _PARITIES:
        raise ContractViolation(f"unknown hole parity {parity!r}")
    top = g.n if max_len is None else min(max_len, g.n)
    return _windowed_holes(g, min_len, top, _PARITIES[parity])


def _windowed_holes(
    g: SimpleGraph, min_len: int, top: int, parities: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    # one parity admits every other length: start and end on admitted ones
    step = 3 - len(parities)
    lo, top = min_len + (min_len % 2 not in parities), top - (top % 2 not in parities)
    roots, hi, found = _fresh_starts(g.vertices_mask), lo, False
    while roots and lo <= top:
        kernel = _holes_in_window(g, lo, hi, roots, hi < top)
        if lo == hi:
            # a peek tells whether a hole is out; the rest come straight on
            try:
                cycle = next(kernel)
            except StopIteration as done:
                roots = done.value
            else:
                found = True
                yield cycle
                roots = yield from kernel
        else:
            window = []
            try:
                while True:
                    window.append(next(kernel))
            except StopIteration as done:
                roots = done.value
            window.sort(key=len)
            yield from (cycle for cycle in window if len(cycle) % 2 in parities)
        lo, hi = (hi + 1, min(2 * hi, top)) if found else (hi + step, hi + step)


def all_holes(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Every hole, in iter_holes order, from one DFS per anchor over the
    lengths 4..n; within one length that DFS yields them in iter_holes order,
    so a stable sort by length is the whole reordering."""
    holes = list(_holes_in_window(g, 4, g.n, _fresh_starts(g.vertices_mask))) if g.n >= 4 else []
    holes.sort(key=len)
    return holes


# where the hole kernel starts at one anchor: (anchor, entries), each entry a
# path from the anchor, its mask, the neighbourhoods the next vertex must
# avoid and the candidates not yet tried; entries None starts afresh
_Root = tuple[int, list[tuple[tuple[int, ...], int, int, int]] | None]


def _fresh_starts(anchors: int) -> list[_Root]:
    """The hole kernel's fresh start at each anchor in the mask, ascending."""
    return [(a, None) for a in bits(anchors)]


def _holes_in_window(
    g: SimpleGraph, lo: int, hi: int, roots: Iterable[_Root], keep: bool = False
) -> Generator[tuple[int, ...], None, list[_Root]]:
    """Yields the holes of lengths lo..hi (4 <= lo <= hi <= n) that extend
    `roots`, which holds per anchor, ascending, the entries to search from in
    DFS order, each a path of fewer than lo - 1 vertices, or None to start
    afresh at the anchor.  One DFS per anchor over those entries in turn, so
    per anchor and per length the holes come in lexicographic order; a path
    of fewer than lo - 1 vertices is extended but not closed.  With `keep`,
    returns the entries cut at a path of hi - 1 vertices that can still be
    extended, in the same order, for the next window to resume from (see
    "resumable hole windows" in the module docstring); otherwise returns
    nothing."""
    n, adj = g.n, g.adj
    opening, closing = lo - 1, hi - 1
    cut = []
    for anchor, entries in roots:
        if anchor > n - lo:
            break
        above = ((1 << n) - 1) & ~((1 << (anchor + 1)) - 1)
        a_adj = adj[anchor]
        # interior vertices avoid N(anchor), the closing vertex sits in it
        inner = above & ~a_adj
        if entries is None:
            first = a_adj & above
            if not first:
                continue
            stack = [((anchor,), 1 << anchor, 0, first)]
        else:
            stack = entries[::-1]
        kept = []
        while stack:
            path, pmask, forbidden, cands = stack.pop()
            low = cands & -cands
            if cands ^ low:
                stack.append((path, pmask, forbidden, cands ^ low))
            w = low.bit_length() - 1
            path += (w,)
            pmask |= low
            depth = len(path)
            if depth < closing:
                nxt = adj[w] & inner & ~forbidden & ~pmask
                if nxt:
                    stack.append((path, pmask, forbidden | adj[w], nxt))
                if depth < opening:
                    continue
            elif keep:
                nxt = adj[w] & inner & ~forbidden & ~pmask
                if nxt:
                    kept.append((path, pmask, forbidden | adj[w], nxt))
            # the closing vertex exceeds path[1], fixing the orientation
            closers = adj[w] & a_adj & above & ~forbidden & ~pmask
            closers = closers >> (path[1] + 1) << (path[1] + 1)
            while closers:
                low = closers & -closers
                yield path + (low.bit_length() - 1,)
                closers ^= low
        if kept:
            cut.append((anchor, kept))
    return cut


def find_hole(
    g: SimpleGraph, parity: str = "any", min_len: int = 4, max_len: int | None = None
) -> Certificate | None:
    """First hole of the requested parity and length range, or None."""
    for cyc in iter_holes(g, min_len=min_len, max_len=max_len, parity=parity):
        return Certificate(HOLE, cycle=cyc)
    return None


def validate_hole(g: SimpleGraph, cert: Certificate) -> bool:
    return cert.kind == HOLE and is_hole(g, cert.cycle)


def hole_through(g: SimpleGraph, v: int) -> bool:
    """Whether some hole contains v.

    Exact: a hole through v leaves v's two hole-neighbours, which are
    non-adjacent, attached to one component of g - N[v]; conversely a shortest
    path through such a component between two non-adjacent attachments closes
    a hole with v.  One BFS over g - N[v], component by component, with a
    clique test per vertex and per component: it stops at the first vertex
    with two non-adjacent neighbours in N(v), which closes a C4 with v, or at
    the first component with two non-adjacent attachments.
    """
    if not 0 <= v < g.n:
        raise ContractViolation("vertex out of range")
    adj = g.adj
    nv = adj[v]
    rest = g.vertices_mask & ~nv & ~(1 << v)
    # walked inline, not by graphs.components, so that it can exit mid-component
    while rest:
        comp = frontier = rest & -rest
        reach = 0
        while frontier:
            nxt = 0
            for u in bits(frontier):
                if not is_clique(g, adj[u] & nv):
                    return True
                nxt |= adj[u]
            reach |= nxt
            frontier = nxt & rest & ~comp
            comp |= frontier
        rest &= ~comp
        if not is_clique(g, reach & nv):
            return True
    return False


def has_induced_c4(g: SimpleGraph) -> bool:
    """Whether g has a hole of length 4.

    Exact: a hole a-x-b-y is a non-adjacent pair a, b with two non-adjacent
    common neighbours x, y; conversely, for such a pair and such neighbours,
    the four edges ax, xb, by, ya are present and the chords ab, xy are not,
    so a-x-b-y is a hole.  One pass over the non-adjacent pairs, with a
    clique test on each common neighbourhood, decides it.
    """
    adj = g.adj
    for a in range(g.n):
        for b in bits(g.vertices_mask & ~adj[a] & ~((2 << a) - 1)):
            if not is_clique(g, adj[a] & adj[b]):
                return True
    return False


# ---------------------------------------------------------------------------
# chordality (greedy simplicial elimination; Dirac witness ordering)


def dirac_order(g: SimpleGraph) -> tuple[int, ...] | None:
    """Perfect elimination ordering, or None when the graph has a hole.

    Repeatedly peels the lowest-indexed simplicial vertex; for each position
    the forward neighborhood (neighbors not yet peeled) is a clique.
    """
    remaining = g.vertices_mask
    order = []
    for _ in range(g.n):
        found = -1
        for v in bits(remaining):
            nbrs = g.adj[v] & remaining
            if is_clique(g, nbrs):
                found = v
                break
        if found < 0:
            return None
        order.append(found)
        remaining ^= 1 << found
    return tuple(order)


def is_chordal(g: SimpleGraph) -> tuple[bool, tuple[int, ...] | None]:
    order = dirac_order(g)
    return (order is not None), order


def is_clique(g: SimpleGraph, mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        if g.adj[v] & rest != rest:
            return False
    return True


# ---------------------------------------------------------------------------
# cliques and bicliques (exact, branch and bound)


def clique_number(g: SimpleGraph) -> int:
    t = 0
    while has_clique(g, t + 1) is not None:
        t += 1
    return t


def has_clique(g: SimpleGraph, t: int) -> Certificate | None:
    """The lexicographically least K_t, or None.

    Candidates are tried lowest first, each with its later common
    neighbours; a vertex is branched on only when those can still complete
    the clique, and a branch ends once too few candidates remain.  Only
    branches holding no K_t are cut, so the first clique found is the least.
    """
    if t < 1:
        raise ContractViolation("clique size must be >= 1")
    if g.n < t:
        return None
    adj = g.adj

    def grow(current: int, need: int, cand: int) -> int | None:
        # need >= 1 more vertices, all from cand, and |cand| >= need
        if need == 1:
            return current | (cand & -cand)
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            nxt = cand & adj[low.bit_length() - 1]
            if nxt.bit_count() >= need - 1:
                got = grow(current | low, need - 1, nxt)
                if got is not None:
                    return got
        return None

    got = grow(0, t, g.vertices_mask)
    if got is None:
        return None
    return Certificate(CLIQUE, vertices=tuple(bits(got)))


def has_biclique(g: SimpleGraph, s: int) -> Certificate | None:
    """Induced K_{s,s}: two disjoint stable s-sets, complete to each other."""
    if s < 1:
        raise ContractViolation("biclique size must be >= 1")
    verts = range(g.n)
    for a_side in combinations(verts, s):
        a_mask = mask_of(a_side)
        if not _is_stable(g, a_mask):
            continue
        common = g.vertices_mask & ~a_mask
        for v in a_side:
            common &= g.adj[v]
        if common.bit_count() < s:
            continue
        for b_side in combinations(tuple(bits(common)), s):
            if _is_stable(g, mask_of(b_side)):
                return Certificate(BICLIQUE, side_a=a_side, side_b=b_side)
    return None


def _is_stable(g: SimpleGraph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def validate_clique(g: SimpleGraph, cert: Certificate) -> bool:
    m = mask_of(cert.vertices)
    return cert.kind == CLIQUE and len(cert.vertices) == m.bit_count() and is_clique(g, m)


def validate_biclique(g: SimpleGraph, cert: Certificate) -> bool:
    if cert.kind != BICLIQUE:
        return False
    a_mask, b_mask = mask_of(cert.side_a), mask_of(cert.side_b)
    sizes = {len(cert.side_a), len(cert.side_b), a_mask.bit_count(), b_mask.bit_count()}
    if a_mask & b_mask or len(sizes) != 1:
        return False
    if not (_is_stable(g, a_mask) and _is_stable(g, b_mask)):
        return False
    for v in bits(a_mask):
        if g.adj[v] & b_mask != b_mask:
            return False
    return True


# ---------------------------------------------------------------------------
# theta


def _iter_induced_ab_paths(g: SimpleGraph, a: int, b: int, allowed: int) -> Iterator[tuple[int, ...]]:
    """Induced a-b paths of length >= 2 with interior inside `allowed`, lazily,
    in DFS order (ascending vertex choices)."""
    adj = g.adj
    b_adj = adj[b]
    first = adj[a] & allowed
    if not first:
        return
    inner = allowed & ~adj[a]
    # entry: path from a, its interior mask, the neighbourhoods the next
    # vertex must avoid, the candidates not yet tried
    stack = [((a,), 0, 0, first)]
    while stack:
        path, pmask, forbidden, cands = stack.pop()
        low = cands & -cands
        if cands ^ low:
            stack.append((path, pmask, forbidden, cands ^ low))
        w = low.bit_length() - 1
        path += (w,)
        if b_adj >> w & 1:
            # a b-neighbor closes the path; extending past it would chord
            yield path + (b,)
            continue
        pmask |= low
        nxt = adj[w] & inner & ~forbidden & ~pmask
        if nxt:
            stack.append((path, pmask, forbidden | adj[w], nxt))


def induced_ab_paths(g: SimpleGraph, a: int, b: int, allowed: int) -> list[tuple[int, ...]]:
    """All induced a-b paths of length >= 2, shortest first then lexicographic."""
    out = list(_iter_induced_ab_paths(g, a, b, allowed))
    out.sort(key=lambda p: (len(p), p))
    return out


def find_theta(g: SimpleGraph, anchor: int | None = None) -> Certificate | None:
    """Two non-adjacent ends joined by three internally disjoint induced paths
    of length >= 2 whose interiors are pairwise anticomplete.

    Vertices that cannot be an end are skipped before any search (see
    "theta ends" in the module docstring).  With an anchor, the first theta
    containing it, found as a hole through the anchor plus one ear (see
    "obstructions through one vertex").
    """
    if anchor is not None:
        return _first_on_holes(_theta_on, g, anchor)
    n = g.n
    ends = [_theta_end(g, v) for v in range(n)]
    for a in range(n):
        if not ends[a]:
            continue
        for b in range(a + 1, n):
            if not ends[b] or g.has_edge(a, b):
                continue
            allowed = g.vertices_mask & ~(1 << a) & ~(1 << b)
            paths = induced_ab_paths(g, a, b, allowed)
            if len(paths) < 3:
                continue
            triple = anticomplete_sets(g, [mask_of(p[1:-1]) for p in paths], 3)
            if triple is not None:
                i, j, k = triple
                return Certificate(THETA, ends=(a, b), paths=(paths[i], paths[j], paths[k]))
    return None


def anticomplete_sets(g: SimpleGraph, sets: list[int], q: int) -> tuple[int, ...] | None:
    """Indices of q of `sets` that are pairwise disjoint and anticomplete, or
    None: has_clique's least K_q in the graph on the sets that joins two sets
    when neither meets the other's closed neighbourhood, so the first such
    q-combination in lexicographic order.  The sets may overlap."""
    closed = [closed_neighborhood(g, m) for m in sets]
    count = len(sets)
    compat = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if not closed[i] & sets[j]:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    got = has_clique(SimpleGraph(count, tuple(compat)), q)
    return None if got is None else got.vertices


def _theta_end(g: SimpleGraph, a: int) -> bool:
    """Whether a can be an end of a theta: some three of its neighbours that
    have a neighbour outside N[a] are pairwise non-adjacent (see "theta ends"
    in the module docstring)."""
    adj = g.adj
    nbrs = adj[a]
    if nbrs.bit_count() < 3:
        return False
    closed = nbrs | 1 << a
    exits = 0
    for x in bits(nbrs):
        if adj[x] & ~closed:
            exits |= 1 << x
    return _has_stable_triple(g, exits)


def _has_stable_triple(g: SimpleGraph, mask: int) -> bool:
    """Whether `mask` holds three pairwise non-adjacent vertices."""
    adj = g.adj
    for u in bits(mask):
        later = mask & ~adj[u] & ~((2 << u) - 1)
        for v in bits(later):
            if later & ~adj[v] & ~((2 << v) - 1):
                return True
    return False


def validate_theta(g: SimpleGraph, cert: Certificate) -> bool:
    if cert.kind != THETA or len(cert.paths) != 3 or len(cert.ends) != 2:
        return False
    a, b = cert.ends
    if a == b or g.has_edge(a, b):
        return False
    interiors = []
    for p in cert.paths:
        if len(p) < 3 or p[0] != a or p[-1] != b:
            return False
        if not is_induced_path(g, p):
            return False
        interiors.append(mask_of(p[1:-1]))
    for i in range(3):
        for j in range(i + 1, 3):
            if interiors[i] & interiors[j]:
                return False
            for v in bits(interiors[i]):
                if g.adj[v] & interiors[j]:
                    return False
    return True


# ---------------------------------------------------------------------------
# prism


def _prism_triangles(g: SimpleGraph) -> list[tuple[int, int, int]]:
    """The triangles u < v < w, ascending, each of whose corners has a
    neighbour adjacent to neither other corner (see "prism triangles" in the
    module docstring)."""
    adj = g.adj
    out = []
    for u in range(g.n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            common = adj[u] & adj[v]
            for w in bits(common >> (v + 1) << (v + 1)):
                if adj[u] & ~(adj[v] | adj[w]) and adj[v] & ~(adj[u] | adj[w]) and adj[w] & ~(adj[u] | adj[v]):
                    out.append((u, v, w))
    return out


def _bfs_distances(g: SimpleGraph, start: int) -> list[int]:
    dist = [-1] * g.n
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in bits(g.adj[u]):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def find_prism(g: SimpleGraph, anchor: int | None = None) -> Certificate | None:
    """Two disjoint triangles joined by three disjoint paths, with only the
    triangle edges running between different paths.

    Triangle pairs are tried closest first so that on prism-bearing hosts the
    certificate surfaces before any expensive failing pair is exhausted; a
    triangle that cannot be one of a prism's is dropped first (see "prism
    triangles" in the module docstring).  With an anchor, the first prism
    containing it, found as a hole through the anchor plus one ear (see
    "obstructions through one vertex").
    """
    if anchor is not None:
        return _first_on_holes(_prism_on, g, anchor)
    tris = _prism_triangles(g)
    if len(tris) < 2:
        return None
    dist_from = {}
    pairs = []
    for ti in range(len(tris)):
        t1 = tris[ti]
        m1 = mask_of(t1)
        if t1[0] not in dist_from:
            dist_from[t1[0]] = _bfs_distances(g, t1[0])
        for tj in range(ti + 1, len(tris)):
            t2 = tris[tj]
            if m1 & mask_of(t2):
                continue
            dd = [dist_from[t1[0]][v] for v in t2]
            gap = min((d for d in dd if d >= 0), default=g.n + 1)
            pairs.append((gap, ti, tj))
    pairs.sort()
    for _, ti, tj in pairs:
        t1, t2 = tris[ti], tris[tj]
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            corners_b = (t2[perm[0]], t2[perm[1]], t2[perm[2]])
            paths = _prism_paths(g, t1, corners_b)
            if paths is not None:
                return Certificate(PRISM, triangles=(t1, corners_b), paths=paths)
    return None


def _prism_paths(
    g: SimpleGraph, aa: tuple[int, int, int], bb: tuple[int, int, int]
) -> tuple[tuple[int, ...], ...] | None:
    corner_mask = mask_of(aa) | mask_of(bb)
    # no cross edges between corners other than the two triangles and the matching
    for i in range(3):
        for j in range(3):
            if i != j and g.has_edge(aa[i], bb[j]):
                return None

    def path_for(i: int, banned: int) -> Iterator[tuple[int, ...]]:
        a, b = aa[i], bb[i]
        other = corner_mask & ~(1 << a) & ~(1 << b)
        allowed = g.vertices_mask & ~corner_mask & ~banned & ~closed_neighborhood(g, other)
        if g.has_edge(a, b):
            yield (a, b)
            return
        yield from _iter_induced_ab_paths(g, a, b, allowed)

    for p1 in path_for(0, 0):
        nb1 = closed_neighborhood(g, mask_of(p1[1:-1]))
        for p2 in path_for(1, nb1):
            nb2 = closed_neighborhood(g, mask_of(p2[1:-1]))
            for p3 in path_for(2, nb1 | nb2):
                return (p1, p2, p3)
    return None


def validate_prism(g: SimpleGraph, cert: Certificate) -> bool:
    if cert.kind != PRISM or len(cert.triangles) != 2 or len(cert.paths) != 3:
        return False
    aa, bb = cert.triangles
    if len(aa) != 3 or len(bb) != 3:
        return False
    if mask_of(aa) & mask_of(bb):
        return False
    for tri in (aa, bb):
        if not is_clique(g, mask_of(tri)) or len(set(tri)) != 3:
            return False
    masks = []
    for i, p in enumerate(cert.paths):
        if len(p) < 2 or p[0] != aa[i] or p[-1] != bb[i]:
            return False
        if not is_induced_path(g, p):
            return False
        masks.append(mask_of(p))
    for i in range(3):
        for j in range(i + 1, 3):
            if masks[i] & masks[j]:
                return False
            crossing = []
            for v in bits(masks[i]):
                for u in bits(g.adj[v] & masks[j]):
                    crossing.append(frozenset((v, u)))
            expect = {frozenset((aa[i], aa[j])), frozenset((bb[i], bb[j]))}
            if set(crossing) != expect or len(crossing) != 2:
                return False
    return True


# ---------------------------------------------------------------------------
# even wheels


def find_even_wheel(g: SimpleGraph, anchor: int | None = None) -> Certificate | None:
    """Hole C plus outside vertex with an even number (hence >= 4) of
    neighbors on C: the first rim in iter_holes order, over its length
    windows, centre lowest first.  With an anchor, the first even wheel
    containing it: on the rim, a hole through the anchor; else centred at it
    (`wheel_centred_at`)."""
    if anchor is None:
        return _even_wheel_on(g, iter_holes(g))
    rim = _even_wheel_on(g, holes_through(g, anchor))
    return rim if rim is not None else wheel_centred_at(g, anchor)


def _wheel_centre(g: SimpleGraph, cmask: int) -> int:
    """The lowest vertex with an even number >= 4 of neighbours on the hole
    `cmask`, or -1; a vertex of the hole has only two there."""
    for v, row in enumerate(g.adj):
        k = (row & cmask).bit_count()
        if k >= 4 and k % 2 == 0:
            return v
    return -1


def _even_wheel_on(g: SimpleGraph, holes: Iterable[tuple[int, ...]]) -> Certificate | None:
    """The first even wheel whose rim is one of `holes`, centre lowest first."""
    for cyc in holes:
        centre = _wheel_centre(g, mask_of(cyc))
        if centre >= 0:
            return Certificate(EVEN_WHEEL, cycle=cyc, center=centre)
    return None


def validate_even_wheel(g: SimpleGraph, cert: Certificate) -> bool:
    if cert.kind != EVEN_WHEEL or not is_hole(g, cert.cycle):
        return False
    v = cert.center
    cmask = mask_of(cert.cycle)
    if not 0 <= v < g.n or cmask >> v & 1:
        return False
    k = (g.adj[v] & cmask).bit_count()
    return k >= 4 and k % 2 == 0


# ---------------------------------------------------------------------------
# obstructions through one vertex
#
# With an anchor v, find_theta, find_prism and find_even_wheel return a
# certificate containing v, or None.  They share one list of the holes through
# v, `holes_through`: v's two neighbours a < b on such a hole are non-adjacent,
# and the rest of the hole is an induced a-b path with its interior outside
# N[v], so each hole through v comes once as (v, a, ..., b).  An even hole
# containing v is one of these of even length.
#
# Let H be a hole through v, x a vertex outside H, A(x) = N(x) & H, and call x
# free when A(x) is empty.
# - Even wheel containing v: v is on the rim, which is a hole H through v
#   with some x outside it where |A(x)| is even and >= 4; or v is the centre,
#   and some hole of g - v meets N(v) in an even number >= 4 of vertices.
# - Theta containing v: for some H, an induced path Q = x1 ... xk (k >= 1)
#   outside H whose inner vertices are free, with A(x1) = {a} and
#   A(xk) = {b} for distinct non-adjacent a, b (for k = 1, A(x1) = {a, b}).
#   Forward: two of the theta's paths, one containing v, form such an H and
#   the third path is Q.  Backward: H and Q form a theta with ends a and b,
#   since the two arcs of H from a to b have length >= 2.
# - Prism containing v: the same ear, with x1 != xk and A(x1), A(xk) two
#   disjoint edges of H.  Forward: the two prism paths through v form H,
#   the third is Q.  Backward: cutting H at the two edges gives the other
#   two prism paths, with the triangles {a1, a2, x1} and {b1, b2, xk}.
# Such a Q exists exactly when x1 and xk are adjacent, or both have a
# neighbour in one component of the free vertices; a shortest x1-xk path
# through that component is then induced.  So a hole costs one attachment
# pass, plus the components of its free vertices, and the induced-path search
# runs only to build a Q known to exist.
#
# The hereditary prunes rest on this.  When g - v is free of the class's
# obstructions, every obstruction of g contains v.  Every vertex of a C4,
# theta or prism, and every rim vertex of a wheel, lies on a hole (thetas,
# prisms and wheels are the Truemper configurations).  So with no hole
# through v (`hole_through`), the only obstruction left is an even wheel
# centred at v (`wheel_centred_at`; C6 plus a universal vertex has one).
# With a hole through v, a C4 containing v is a hole of length 4 among the
# holes through v, and the anchored find_theta, find_prism and
# find_even_wheel decide the rest.
#
# The hole lists are memoized on the graph's (n, adj).  The holes of g - v are
# keyed on g - v kept on n vertices with v's row and bit cleared, which every
# child of one parent in the generation tree shares.

_HOLE_MEMO = 8  # graphs per memo; a sweep reuses an entry only while on one child or one parent


def holes_through(g: SimpleGraph, v: int) -> tuple[tuple[int, ...], ...]:
    """Every hole through v, once each, as (v, a, ..., b) with a < b."""
    if not 0 <= v < g.n:
        raise ContractViolation("vertex out of range")
    return _holes_through_memo(g.n, g.adj, v)


@lru_cache(maxsize=_HOLE_MEMO)
def _holes_through_memo(n: int, adj: tuple[int, ...], v: int) -> tuple[tuple[int, ...], ...]:
    g = SimpleGraph(n, adj)
    nv = adj[v]
    outside = g.vertices_mask & ~nv & ~(1 << v)
    return tuple(
        (v,) + path
        for a in bits(nv)
        for b in bits(nv & ~adj[a] & ~((2 << a) - 1))
        for path in _iter_induced_ab_paths(g, a, b, outside)
    )


def _without(g: SimpleGraph, v: int) -> tuple[int, ...]:
    """The rows of g - v kept on n vertices: v's row and bit cleared."""
    keep = ~(1 << v)
    return tuple(0 if u == v else row & keep for u, row in enumerate(g.adj))


@lru_cache(maxsize=_HOLE_MEMO)
def _parent_holes(n: int, adj: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mask, cycle) for every hole of the graph (n, adj)."""
    return tuple((mask_of(cycle), cycle) for cycle in all_holes(SimpleGraph(n, adj)))


def wheel_centred_at(g: SimpleGraph, v: int) -> Certificate | None:
    """An even wheel centred at v: a hole of g - v meeting N(v) in an even
    number >= 4 of vertices, with the holes of g - v read from their memo."""
    if not 0 <= v < g.n:
        raise ContractViolation("vertex out of range")
    nv = g.adj[v]
    if nv.bit_count() < 4:
        return None
    for mask, cycle in _parent_holes(g.n, _without(g, v)):
        k = (nv & mask).bit_count()
        if k >= 4 and k % 2 == 0:
            return Certificate(EVEN_WHEEL, cycle=cycle, center=v)
    return None


def _first_on_holes(search, g: SimpleGraph, v: int) -> Certificate | None:
    for cycle in holes_through(g, v):
        cert = search(g, cycle)
        if cert is not None:
            return cert
    return None


def _attachments(g: SimpleGraph, hmask: int) -> tuple[dict[int, int], int]:
    """A(x) for each x outside the hole with A(x) non-empty, ascending, and
    the mask of the free vertices."""
    att, free = {}, 0
    for x in bits(g.vertices_mask & ~hmask):
        a = g.adj[x] & hmask
        if a:
            att[x] = a
        else:
            free |= 1 << x
    return att, free


def _theta_ends(g: SimpleGraph, s: int, t: int) -> bool:
    """Whether single-vertex attachments s and t are distinct and non-adjacent."""
    return s != t and not g.adj[s.bit_length() - 1] & t


def _prism_ends(g: SimpleGraph, s: int, t: int) -> bool:
    """Whether edge attachments s and t are disjoint."""
    return not s & t


def _theta_on(g: SimpleGraph, cycle: tuple[int, ...]) -> Certificate | None:
    """A theta made of the hole and one ear, or None."""
    att, free = _attachments(g, mask_of(cycle))
    for x, a in att.items():
        low = a & -a
        if a.bit_count() == 2 and _theta_ends(g, low, a ^ low):
            return _theta_cert(cycle, low, a ^ low, (x,))
    singles = {x: a for x, a in att.items() if a.bit_count() == 1}
    ear = _ear(g, free, singles, _theta_ends)
    if ear is None:
        return None
    return _theta_cert(cycle, singles[ear[0]], singles[ear[-1]], ear)


def _theta_cert(cycle: tuple[int, ...], s: int, t: int, ear: tuple[int, ...]) -> Certificate:
    """The theta whose ends are the vertices of s and t: the two arcs of the
    hole between them, and the ear."""
    a, b = s.bit_length() - 1, t.bit_length() - 1
    m = len(cycle)
    i, j = cycle.index(a), cycle.index(b)
    forward = tuple(cycle[(i + step) % m] for step in range((j - i) % m + 1))
    backward = tuple(cycle[(i - step) % m] for step in range((i - j) % m + 1))
    return Certificate(THETA, ends=(a, b), paths=(forward, backward, (a,) + ear + (b,)))


def _prism_on(g: SimpleGraph, cycle: tuple[int, ...]) -> Certificate | None:
    """A prism made of the hole and one ear, or None."""
    att, free = _attachments(g, mask_of(cycle))
    edges = {x: a for x, a in att.items() if a.bit_count() == 2 and is_clique(g, a)}
    ear = _ear(g, free, edges, _prism_ends)
    if ear is None:
        return None
    x1, xk = ear[0], ear[-1]
    # rotate the hole to run from one end of A(x1) round to the other
    m = len(cycle)
    i = next(i for i in range(m) if edges[x1] >> cycle[i] & 1 and edges[x1] >> cycle[i - 1] & 1)
    r = cycle[i:] + cycle[:i]
    p = next(p for p in range(m) if edges[xk] >> r[p] & 1)
    triangles = ((r[0], r[-1], x1), (r[p], r[p + 1], xk))
    return Certificate(PRISM, triangles=triangles, paths=(r[: p + 1], r[:p:-1], ear))


def _ear(g: SimpleGraph, free: int, ends: dict[int, int], fits) -> tuple[int, ...] | None:
    """The first pair x1 < xk of `ends` whose attachments fit and which an
    induced path with free inner vertices joins, as that path; or None."""
    if len(ends) < 2:
        return None
    adj = g.adj
    touch = dict.fromkeys(ends, 0)  # the components of g[free] each end meets
    for comp in components(g, free):
        for x in ends:
            if adj[x] & comp:
                touch[x] |= comp
    xs = list(ends)
    for i, x1 in enumerate(xs):
        for xk in xs[i + 1 :]:
            if not fits(g, ends[x1], ends[xk]):
                continue
            if adj[x1] >> xk & 1:
                return (x1, xk)
            if touch[x1] & touch[xk]:
                return next(_iter_induced_ab_paths(g, x1, xk, free))
    return None


# ---------------------------------------------------------------------------
# class membership


@dataclass(frozen=True)
class Verdict:
    member: bool
    violation: Certificate | None = None


def in_class_e(g: SimpleGraph) -> Verdict:
    """Membership in the (C4, theta, prism, even wheel)-free class; the first
    violation is reported in the fixed order C4, theta, prism, even wheel.

    The first hole is the C4 test, and a graph with no hole is a member, as
    every vertex of a theta or a prism, and every rim vertex of a wheel, lies
    on a hole.  The last step reads the rest of the same iter_holes stream
    for a wheel's rim, so no hole length is searched twice."""
    holes = iter_holes(g)
    first = next(holes, None)
    if first is None:
        return Verdict(True)
    if len(first) == 4:
        return Verdict(False, Certificate(HOLE, cycle=first))
    theta = find_theta(g)
    if theta is not None:
        return Verdict(False, theta)
    prism = find_prism(g)
    if prism is not None:
        return Verdict(False, prism)
    wheel = _even_wheel_on(g, chain((first,), holes))
    if wheel is not None:
        return Verdict(False, wheel)
    return Verdict(True)


def in_class_et(g: SimpleGraph, t: int) -> Verdict:
    """As in_class_e, with a clique check last: members must be K_t-free."""
    if t < 1:
        raise ContractViolation("t must be >= 1")
    base = in_class_e(g)
    if not base.member:
        return base
    big = has_clique(g, t)
    if big is not None:
        return Verdict(False, big)
    return Verdict(True)


# per kind: the validator, and the kind's fields in document order, each with
# the list depth of the vertices it names
CERTIFICATE_KINDS = {
    HOLE: (validate_hole, (("cycle", 1),)),
    THETA: (validate_theta, (("ends", 1), ("paths", 2))),
    PRISM: (validate_prism, (("triangles", 2), ("paths", 2))),
    EVEN_WHEEL: (validate_even_wheel, (("cycle", 1), ("center", 0))),
    CLIQUE: (validate_clique, (("vertices", 1),)),
    BICLIQUE: (validate_biclique, (("side_a", 1), ("side_b", 1))),
}


def _certificate_kind(kind) -> tuple:
    if not isinstance(kind, str) or kind not in CERTIFICATE_KINDS:
        raise ContractViolation(f"unknown certificate kind {kind!r}")
    return CERTIFICATE_KINDS[kind]


def validate_certificate(g: SimpleGraph, cert: Certificate) -> bool:
    """Whether the certificate holds in g; a malformed one (unknown kind, or a
    vertex that is not an int in 0..n-1) raises ContractViolation."""
    validator, fields = _certificate_kind(cert.kind)
    for name, depth in fields:
        check_vertices(g, getattr(cert, name), depth, name)
    return validator(g, cert)


# ---------------------------------------------------------------------------
# hole-relative classification and d-substantial vertices


def classify_against_hole(g: SimpleGraph, cycle: tuple[int, ...], v: int) -> WheelClass:
    """Good / Bad / Ugly split of an outside vertex by its hole neighborhood."""
    if not is_hole(g, cycle):
        raise ContractViolation("cycle argument is not a hole")
    cmask = mask_of(cycle)
    if not 0 <= v < g.n or cmask >> v & 1:
        raise ContractViolation("vertex must lie outside the hole")
    return classify_attachment(g, g.adj[v] & cmask)


def classify_attachment(g: SimpleGraph, nbrs: int) -> WheelClass:
    """Good / Bad / Ugly split of a vertex's neighborhood `nbrs` on a hole or
    path: one vertex is good, a clique of two or more is bad, else ugly."""
    k = nbrs.bit_count()
    if k == 0:
        return WheelClass.NO_NEIGHBOR
    if k == 1:
        return WheelClass.GOOD
    return WheelClass.BAD if is_clique(g, nbrs) else WheelClass.UGLY


@dataclass(frozen=True)
class SubstantialWitness:
    cycle: tuple[int, ...]
    neighbors: tuple[int, ...]


def is_d_substantial(g: SimpleGraph, v: int, d: int) -> SubstantialWitness | None:
    """Hole C avoiding v with >= d+1 neighbors of v whose removal from C
    leaves it disconnected; None when no such hole exists."""
    if d < 1:
        raise ContractViolation("d must be >= 1")
    if not 0 <= v < g.n:
        raise ContractViolation("vertex out of range")
    for cyc in iter_holes(g):
        cmask = mask_of(cyc)
        if cmask >> v & 1:
            continue
        nbrs = g.adj[v] & cmask
        if nbrs.bit_count() < d + 1:
            continue
        if _cycle_minus_disconnected(cyc, nbrs):
            return SubstantialWitness(cycle=cyc, neighbors=tuple(bits(nbrs)))
    return None


def _cycle_minus_disconnected(cycle: tuple[int, ...], removed: int) -> bool:
    # survivors form arcs of the cycle; disconnected iff more than one arc
    k = len(cycle)
    keep = [not (removed >> c & 1) for c in cycle]
    arcs = 0
    for i in range(k):
        if keep[i] and not keep[i - 1]:
            arcs += 1
    return arcs >= 2
