"""Canonical small-graph enumeration.

Canonical labeling is colour refinement plus individualization with twin
pruning; the certificate is the adjacency upper triangle packed under the
minimizing labeling.

A partition is an ordered list of vertex-set masks, its cells, in colour
order.  A refinement round splits each non-singleton cell in place by its
members' packed counts into every cell, the groups in ascending signature
order, which ranks vertices as one sort by (old cell, counts) would;
refinement stops as soon as no cell splits or the partition is discrete.
The search starts from the degree partition (one cell per degree,
ascending) refined until equitable.

Individualizing u in an equitable partition puts {u} in front of the rest of
its cell C, and the first round after that is computed directly: each cell D
splits into D - N(u) and then D & N(u), and empty parts are dropped.  This is
the round full counting gives.  The partition was equitable, so the members
of D have equal counts into every old cell, and their counts into the new
cells differ only at {u}, where a count is the adjacency to u, and at C - u,
where it is the count into C less that adjacency.  {u} comes first, so
ascending signatures put the non-neighbours first.  If no cell splits, every
count is constant on every cell, so the partition is already equitable;
otherwise full rounds follow.

A leaf is a discrete partition, and the vertex at position j gets bit
n-1-j.  Carried through that position table and cut to the later positions,
the row of the vertex at position i is the next n-1-i bits of the packed
triangle, so the leaf packs its certificate one neighbour at a time instead
of one pair at a time.

The search also yields automorphisms: each twin swap it skips, and for each
leaf whose certificate ties the best, the map best_lab[i] -> lab[i].
Generation follows McKay's canonical-construction-path rule (B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): a child
produced by adding one vertex v to a canonical parent is kept iff v lies in
the Aut(child) orbit of the child's canonical-last vertex.  The labelling
call that finds that vertex also returns generators of all of Aut(child),
so the orbit is exact.  Parents are pairwise non-isomorphic, and the rule
keeps exactly one child per isomorphism class of the next level:

- An isomorphism phi: G -> H carries canonical-last to canonical-last up to
  an automorphism: both canonical labellings give the same graph, so
  lab_H[i] -> phi(lab_G[i]) is an automorphism of H.
- At most one.  Take two accepted isomorphic children.  By the above, and
  since each new vertex is in its child's orbit of canonical-last, some
  isomorphism maps v1 to v2.  It restricts to an isomorphism of the parents,
  which are then the same graph, and to an automorphism of it mapping one
  neighbour subset onto the other.  The two subsets lie in one Aut(parent)
  orbit, and only one subset per orbit is tried.
- At least one.  Take a class G with canonical-last vertex m.  G - m is
  isomorphic to some parent P (the prunes are hereditary), so G is an
  augmentation of P by a subset, and an isomorphism maps m to the new
  vertex v.  The orbit-minimum subset of that augmentation is tried: it
  passes the degree filter, because m has maximum degree, the C4 filter,
  because G is in a class without induced C4 whenever the filter runs, and
  the prunes, which are hereditary and isomorphism-invariant.  Its child
  is isomorphic to G by a map sending m to v, so v is in the orbit of
  canonical-last.

Three exact filters run on the neighbour subset before the child is built:

- Degree.  The degree partition ranks degrees, and neither refinement nor
  individualization reorders cells, so the canonical-last vertex has maximum
  degree, and so does every vertex of its orbit.  A subset that leaves v
  below the maximum degree is skipped: v could not lie in that orbit.
- C4, under a prune that declares `forbids_c4` (its class has no induced
  C4: class E, even-hole-free and chordal do; the tpw-free class does not).
  If a parent vertex x outside the subset has two non-adjacent neighbours
  a, b inside it, then v-a-x-b is an induced C4 of the child (x is not
  adjacent to v), which the prune would reject, so the subset is dropped
  unbuilt.  The test reads only the parent and the subset, and a parent
  automorphism carries x, a, b to a vertex and a pair in the same relation,
  so it drops whole Aut(parent) orbits; it can run before the orbit closure,
  since every later member of a dropped orbit is dropped by the same test.
- Orbits.  A parent automorphism extends to a child isomorphism fixing v,
  and the degree and C4 filters, the v-anchored prunes and the orbit rule
  are invariant under it.  So only the smallest subset of each orbit under
  the automorphisms found is tried; the rest would be rejected with it or
  be duplicates of it.  The automorphisms `_canonical` returns generate all
  of Aut(parent) (the proof is in its docstring), so these are the
  Aut(parent) orbits the at-most-one argument relies on.  The closure maps
  a subset through each generator by two table lookups, one per half of
  the vertex range (`_relabel_tables`); each entry is the union of the
  images of its bits, so the image is the one a bit-by-bit relabelling
  gives, and the closure reaches the same orbit.

A built child is kept iff it passes both the prune and the orbit rule.
Neither verdict depends on the other, so they may be decided in either
order, and each child takes the cheaper order.  Two exact skips decide most
children's orbit rule without labelling them:

- Unique maximum.  A child whose new vertex v has the unique maximum degree
  is accepted: the canonical-last vertex has maximum degree, and only v
  does, so v is canonical-last and the orbit rule accepts it.  Such a child
  goes straight to the prune.
- Refinement pre-test.  Every other child runs it before the prune, and the
  prune runs only on the children it does not reject.  The child's degree
  partition is refined towards its first equitable partition R, which is
  where the labelling search starts: a child left undecided is labelled
  from R, handed over in `_pre_tested` rather than refined again.  Every
  leaf of that search comes from R by individualization and refinement,
  which never reorder cells, so canonical-last lies in R's last cell.  R is
  isomorphism-invariant (refinement commutes with relabelling), so every
  automorphism maps each cell of R onto itself, and the orbit of
  canonical-last lies inside that last cell.  So v outside the last cell is
  outside the orbit, and the child is rejected; v alone in it is
  canonical-last, and the child is accepted.  Only the rest are labelled.
  The refinement stops at the first round after which v has left the last
  cell or is alone in it: each round splits cells in place, so the last
  cell of R lies inside the last cell of every earlier round, and that
  verdict is R's.  The unique-maximum skip is the case where v is alone in
  the last cell before refinement.

The skips save only last-level labellings: an inner-level child is labelled
anyway when it is expanded as a parent.  The prune is hereditary, so a
child it rejects has no descendant in the class, and the tree is cut there
whichever verdict comes first; labelling, the most expensive step, runs
last, on the children that passed both the pre-test and the prune.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from .errors import ContractViolation
from .graphs import SimpleGraph, add_vertex

ENUMERATION_CAP = 10

# unlabeled simple graph counts, n = 0..10 (used by tests and reports)
UNLABELED_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)


def _refine(n: int, adj: tuple[int, ...], cells: list[int], decide: int = 0) -> list[int]:
    """Refine the ordered partition `cells` (vertex-set masks, in colour
    order) until it is equitable.  Each round splits every non-singleton cell
    by its members' counts into every cell, the groups in ascending signature
    order; signatures pack one count field per cell, wide enough for 0..n-1.
    Given a one-vertex mask `decide`, stop as soon as the last cell lacks
    that vertex or is that vertex alone (the pre-test, module docstring)."""
    width = max(4, n.bit_length())
    while len(cells) < n:
        if decide and (not cells[-1] & decide or cells[-1] == decide):
            return cells
        split = []
        for cm in cells:
            if not cm & (cm - 1):
                split.append(cm)
                continue
            sigs: dict[int, int] = {}
            m = cm
            while m:
                low = m & -m
                m ^= low
                row = adj[low.bit_length() - 1]
                s = 0
                for other in cells:
                    s = s << width | (row & other).bit_count()
                sigs[s] = sigs.get(s, 0) | low
            if len(sigs) == 1:
                split.append(cm)
            else:
                split += [sigs[s] for s in sorted(sigs)]
        if len(split) == len(cells):  # no cell split, so the partition is equitable
            return cells
        cells = split
    return cells


def _individualize(n: int, adj: tuple[int, ...], cells: list[int], t: int, low: int) -> list[int]:
    """The equitable partition `_refine` reaches from the equitable `cells`
    with the vertex `low` (a one-bit mask) of cells[t] put alone in front of
    the rest of its cell, computing the first round directly (module
    docstring): every cell splits into its non-neighbours and then its
    neighbours of that vertex, and empty parts are dropped."""
    nbrs = adj[low.bit_length() - 1]
    out = []
    for cell in cells[:t] + [low, cells[t] ^ low] + cells[t + 1:]:
        inside = cell & nbrs
        if inside and inside != cell:
            out += (cell ^ inside, inside)
        else:
            out.append(cell)
    if len(out) == len(cells) + 1:  # no cell split, so the partition is equitable
        return out
    return _refine(n, adj, out)


Perm = tuple[int, ...]

# The child that expand_children's refinement pre-test is about to label, as
# its adjacency tuple, and the refined degree partition the pre-test computed
# for it.  `_canonical` starts from that partition only when its own `adj` is
# that very tuple, so an entry left over from another call, or another thread,
# costs one refinement and never changes a result.
_pre_tested: tuple[tuple[int, ...] | None, list[int]] = (None, [])


def _canonical(n: int, adj: tuple[int, ...]) -> tuple[int, Perm, tuple[Perm, ...]]:
    """Minimal certificate, a labeling achieving it (labeling[pos] = vertex),
    and automorphisms generating Aut(g) (perm[u] = image of u).

    Why they generate all of Aut(g).  Let T be the search tree without twin
    pruning: a node is the refined partition reached by individualizing a
    sequence of vertices, and its children individualize each member of the
    first non-singleton cell.  Refinement, the choice of that cell and
    individualization commute with relabelling, so an automorphism s maps
    the node of (u1, ..., uk) to the node of (s(u1), ..., s(uk)) and a leaf
    labelling lab to s o lab, which has the same certificate.  The two
    shortcuts leave T as full rounds build it: the direct first round after
    an individualization gives the partition a full round gives (module
    docstring), and a root handed over in `_pre_tested` is the refined
    degree partition the search would compute itself.  Let H be the group
    the returned permutations generate.

    - Every node of T is mapped into the visited tree by some h in H.  By
      induction on depth: if h maps node N to a visited node M, it maps the
      child of N at x to the child of M at h(x).  If M branched on h(x),
      that child is visited.  Otherwise h(x) was skipped as the twin of a
      branched w, and the swap t = (h(x) w) was recorded.  t fixes M, since
      h(x) and w lie in the same cell there, so t h maps the child to the
      visited child at w.
    - Let best be the first visited leaf with the least certificate, and s an
      automorphism.  Some h in H maps the leaf s o best to a visited leaf
      h s o best with the same least certificate.  It is best itself, or it
      was visited after best and recorded the map best[i] -> h s best[i],
      which is h s.  Either way h s is in H, so s is in H.
    """
    if n <= 1:
        return 0, tuple(range(n)), ()
    best: list = [None, None]
    gens: dict[Perm, None] = {}
    # the vertex at position j gets bit n-1-j, so each row, cut to the later
    # positions, is the next n-1-i bits of the upper triangle
    position_bits = [1 << j for j in range(n - 1, -1, -1)]

    def leaf(cells: list[int]):
        position = dict(zip(cells, position_bits))
        cert = 0
        later = (1 << n) - 1
        width = n
        for low in cells:
            later ^= low
            width -= 1
            m = adj[low.bit_length() - 1] & later
            row = 0
            while m:
                bit = m & -m
                m ^= bit
                row |= position[bit]
            cert = cert << width | row
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, cells
        elif cert == best[0]:
            # both labelings give the same graph
            perm = [0] * n
            for b, u in zip(best[1], cells):
                perm[b.bit_length() - 1] = u.bit_length() - 1
            gens[tuple(perm)] = None

    def descend(cells: list[int]):
        if len(cells) == n:
            leaf(cells)
            return
        t = next(i for i, cm in enumerate(cells) if cm & (cm - 1))
        branched: list[int] = []
        m = cells[t]
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            # skip vertices interchangeable with an already-branched one;
            # swapping the two is an automorphism
            twin = None
            for w in branched:
                pair = ~((1 << u) | (1 << w))
                if adj[u] & pair == adj[w] & pair:
                    twin = w
                    break
            if twin is not None:
                perm = list(range(n))
                perm[u], perm[twin] = twin, u
                gens[tuple(perm)] = None
                continue
            branched.append(u)
            descend(_individualize(n, adj, cells, t, low))

    pre_tested_adj, cells = _pre_tested
    if pre_tested_adj is not adj:
        cells = _refine(n, adj, _degree_cells(adj))
    descend(cells)
    return best[0], tuple(c.bit_length() - 1 for c in best[1]), tuple(gens)


def _degree_cells(adj: tuple[int, ...]) -> list[int]:
    """The degree partition: one cell per degree, in ascending degree order."""
    cells: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        cells[d] = cells.get(d, 0) | 1 << v
    return [cells[d] for d in sorted(cells)]


@lru_cache(maxsize=1 << 21)
def _canonical_cached(n: int, adj: tuple[int, ...]) -> tuple[int, Perm, tuple[Perm, ...]]:
    return _canonical(n, adj)


def canonical_cert(g: SimpleGraph) -> int:
    """Isomorphism-invariant integer certificate."""
    return _canonical_cached(g.n, g.adj)[0]


def canonical_form(g: SimpleGraph) -> tuple[int, Perm, tuple[Perm, ...]]:
    """Certificate, a labeling achieving it (labeling[i] = original vertex)
    and automorphisms generating Aut(g) (perm[u] = image of u)."""
    return _canonical_cached(g.n, g.adj)


def are_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return g.n == h.n and canonical_cert(g) == canonical_cert(h)


def expand_children(
    parent: SimpleGraph, prune: Callable[[SimpleGraph], bool] | None = None
) -> list[SimpleGraph]:
    """Accepted one-vertex extensions of a canonical parent, in subset order.
    A prune with a true `forbids_c4` attribute declares that it rejects every
    child with an induced C4 through the new vertex (module docstring)."""
    global _pre_tested
    out = []
    gens = _canonical_cached(parent.n, parent.adj)[2]
    tables = [_relabel_tables(perm) for perm in gens]
    done: set[int] = set()
    new_v = parent.n
    # v needs degree >= every child degree: above top, or equal to it when
    # it avoids the parent's vertices of degree top
    degs = [row.bit_count() for row in parent.adj]
    top = max(degs, default=-1)
    top_mask = sum(1 << u for u, d in enumerate(degs) if d == top)
    cherries = _cherries(parent) if getattr(prune, "forbids_c4", False) else ()
    for subset in range(1 << parent.n):
        d = subset.bit_count()
        if d < top or d == top and subset & top_mask:
            continue
        if subset in done:
            continue
        if cherries and _closes_c4(subset, cherries):
            continue
        if tables:
            _close_orbit(subset, tables, done)
        child = add_vertex(parent, subset)
        if d > top + (subset & top_mask != 0):
            # v has the unique maximum degree (module docstring)
            if prune is None or prune(child):
                out.append(child)
            continue
        # the refinement pre-test, then the prune on what it does not reject
        # (module docstring)
        cells = _refine(new_v + 1, child.adj, _degree_cells(child.adj), 1 << new_v)
        if not cells[-1] >> new_v & 1 or prune is not None and not prune(child):
            continue
        if cells[-1] == 1 << new_v:
            out.append(child)
            continue
        # the orbit rule (module docstring), labelled from the pre-test's
        # partition
        _pre_tested = child.adj, cells
        _, labeling, child_gens = canonical_form(child)
        if _vertex_orbit(labeling[-1], child_gens) >> new_v & 1:
            out.append(child)
    return out


def _cherries(g: SimpleGraph) -> list[tuple[int, int]]:
    """(the mask of a and b, their common neighbours) for every non-adjacent
    pair a < b of g with a common neighbour."""
    out = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            common = g.adj[a] & g.adj[b]
            if common and not g.adj[a] >> b & 1:
                out.append((1 << a | 1 << b, common))
    return out


def _closes_c4(subset: int, cherries: list[tuple[int, int]]) -> bool:
    """Whether a non-adjacent pair a, b in `subset` has a common neighbour x
    outside it, which closes the induced C4 v-a-x-b through the new vertex."""
    for pair, common in cherries:
        if subset & pair == pair and common & ~subset:
            return True
    return False


def _relabel_tables(perm: Perm) -> tuple[list[int], list[int]]:
    """Lookup tables (lo, hi) that carry a vertex-set mask through `perm`:
    with h = len(perm) // 2, lo[m] is the image of the vertices i < h with
    bit i in m, and hi[m] that of the vertices h + i with bit i in m, so
    mask s maps to lo[s & (1 << h) - 1] | hi[s >> h]."""
    half = len(perm) // 2
    lo, hi = [0], [0]
    for image in perm[:half]:
        bit = 1 << image
        lo += [m | bit for m in lo]
    for image in perm[half:]:
        bit = 1 << image
        hi += [m | bit for m in hi]
    return lo, hi


def _close_orbit(subset: int, tables: list[tuple[list[int], list[int]]], done: set[int]) -> None:
    """Add the orbit of `subset` to `done`, under the group generated by
    permutations given as `_relabel_tables` pairs."""
    low = len(tables[0][0]) - 1
    half = low.bit_length()
    done.add(subset)
    stack = [subset]
    while stack:
        s = stack.pop()
        s_lo, s_hi = s & low, s >> half
        for lo, hi in tables:
            t = lo[s_lo] | hi[s_hi]
            if t not in done:
                done.add(t)
                stack.append(t)


def _vertex_orbit(u: int, gens: tuple[Perm, ...]) -> int:
    """The orbit of vertex u under the group `gens` generate, as a mask."""
    orbit = 1 << u
    stack = [u]
    while stack:
        x = stack.pop()
        for perm in gens:
            y = perm[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                stack.append(y)
    return orbit


def enumerate_graphs(
    n: int, prune: Callable[[SimpleGraph], bool] | None = None
) -> Iterator[SimpleGraph]:
    """One representative per isomorphism class on exactly n vertices.

    `prune` must be hereditary (closed under induced subgraphs) and cuts the
    generation tree.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ContractViolation(f"enumeration supports 1..{ENUMERATION_CAP} vertices")
    # the tree is rooted at K0, whose only child is K1
    level = [SimpleGraph(0, ())]
    for _ in range(n - 1):
        level = [child for parent in level for child in expand_children(parent, prune)]
    for parent in level:
        yield from expand_children(parent, prune)
