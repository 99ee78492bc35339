"""Canonical small-graph enumeration.

Canonical labeling is color-refinement plus individualization with twin
pruning; the certificate is the adjacency upper triangle packed under the
minimizing labeling.  Colours stay dense, 0..k-1.  A refinement round splits
each non-singleton cell in place, in colour order, by its members' counts
into the round's cells, which ranks vertices as one sort by (old colour,
counts) would; refinement stops as soon as the colouring is discrete, and
individualizing u gives it its cell's colour and moves the rest of the cell
and every later cell up one.  The search also yields automorphisms: each
twin swap it skips, and for each leaf whose certificate ties the best, the
map best_lab[i] -> lab[i].  Generation follows the canonical-construction-path
rule: a child produced by adding one vertex v to a canonical parent is kept
iff deleting the child's canonical-last vertex lands back in the parent's
isomorphism class, with a per-parent certificate set, `seen`, keeping one
child of each class.

`seen` is not redundant with the orbit filter below.  Two subsets in
different Aut(parent) orbits give isomorphic children when the new vertex v
is pseudo-similar to another child vertex w: the two lie in different
automorphism orbits, yet deleting either leaves the parent.  Both children
then pass the deletion test.  This first happens at n = 8, where `seen`
rejects 5 children of the unpruned enumeration.  So a child can be accepted
without its certificate only when no such w can exist, as when v has the
unique maximum degree and every isomorphism fixes it: the skip below.

Two exact filters run on the neighbour subset before the child is built:

- Degree.  The initial colours rank degrees, and neither refinement nor
  individualization reorders cells, so the canonical-last vertex has maximum
  degree.  If v does not, deleting that vertex drops more edges than
  deleting v, so the result cannot be the parent: the subset is skipped.
- Orbits.  A parent automorphism extends to a child isomorphism fixing v,
  and the degree filter, the v-anchored prunes and the deletion test are
  invariant under it.  So only the smallest subset of each orbit under the
  automorphisms found is tried; the rest would be rejected with it or be
  duplicates of it.  The automorphisms `_canonical` returns generate all of
  Aut(parent) (the proof is in its docstring), so these are the Aut(parent)
  orbits, which the skip below relies on.

One exact skip runs after the prune.  A child whose new vertex v has the
unique maximum degree is accepted without labelling it, without the deletion
test and without `seen`:

- The canonical-last vertex has maximum degree, and only v does, so v is
  canonical-last and the deletion test passes.
- A unique maximum is invariant under isomorphism, and the degree filter
  gives every built child's new vertex the maximum degree.  So in any child
  isomorphic to this one the new vertex is the unique maximum too, and the
  isomorphism maps v to v.
- Deleting v from both, it restricts to an isomorphism of the parents.
  Parents are pairwise non-isomorphic, so it is an automorphism of this
  parent that maps one subset onto the other.  The two subsets lie in one
  Aut(parent) orbit, and only one subset per orbit is tried, so no
  duplicate of the child can be built.

Children without a unique maximum are never isomorphic to one with it, so
`seen` stays exact on the children that are labelled.  The skip saves only
last-level labellings: an inner-level child is labelled anyway when it is
expanded as a parent.

Hereditary pruning predicates are applied before the (more expensive)
acceptance test, which is sound because a pruned class cannot have unpruned
descendants.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from .errors import ContractViolation
from .graphs import SimpleGraph, add_vertex, delete_vertex, relabel_mask

ENUMERATION_CAP = 10

# unlabeled simple graph counts, n = 0..10 (used by tests and reports)
UNLABELED_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)


def _refine(n: int, adj: tuple[int, ...], colors: list[int], k: int) -> tuple[list[int], int]:
    """Refine the dense colouring `colors` (k colours) until it is equitable;
    signatures pack one count field per cell, wide enough for 0..n-1."""
    width = max(4, n.bit_length())
    while k < n:
        cells = [0] * k
        for v in range(n):
            cells[colors[v]] |= 1 << v
        split = [0] * n
        nk = 0
        for cm in cells:
            if not cm & (cm - 1):
                split[cm.bit_length() - 1] = nk
                nk += 1
                continue
            sigs: dict[int, list[int]] = {}
            while cm:
                v = (cm & -cm).bit_length() - 1
                cm &= cm - 1
                row = adj[v]
                s = 0
                for other in cells:
                    s = s << width | (row & other).bit_count()
                sigs.setdefault(s, []).append(v)
            for s in sorted(sigs):
                for v in sigs[s]:
                    split[v] = nk
                nk += 1
        if nk == k:  # no cell split, so the colouring is equitable
            return colors, k
        colors, k = split, nk
    return colors, k


Perm = tuple[int, ...]


def _canonical(n: int, adj: tuple[int, ...]) -> tuple[int, Perm, tuple[Perm, ...]]:
    """Minimal certificate, a labeling achieving it (labeling[pos] = vertex),
    and automorphisms generating Aut(g) (perm[u] = image of u).

    Why they generate all of Aut(g).  Let T be the search tree without twin
    pruning: a node is the refined colouring reached by individualizing a
    sequence of vertices, and its children individualize each member of the
    first non-singleton cell.  Refinement, the choice of that cell and
    individualization commute with relabelling, so an automorphism s maps
    the node of (u1, ..., uk) to the node of (s(u1), ..., s(uk)) and a leaf
    labelling lab to s o lab, which has the same certificate.  Let H be the
    group the returned permutations generate.

    - Every node of T is mapped into the visited tree by some h in H.  By
      induction on depth: if h maps node N to a visited node M, it maps the
      child of N at x to the child of M at h(x).  If M branched on h(x),
      that child is visited.  Otherwise h(x) was skipped as the twin of a
      branched w, and the swap t = (h(x) w) was recorded.  t fixes M, since
      h(x) and w have the same colour there, so t h maps the child to the
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

    def leaf(colors: list[int]):
        lab = [0] * n
        for v in range(n):
            lab[colors[v]] = v
        cert = 0
        for i in range(n - 1):
            row = adj[lab[i]]
            for u in lab[i + 1:]:
                cert = cert << 1 | (row >> u & 1)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, lab
        elif cert == best[0]:
            # both labelings give the same graph
            perm = [0] * n
            for b, u in zip(best[1], lab):
                perm[b] = u
            gens[tuple(perm)] = None

    def descend(colors: list[int], k: int):
        colors, k = _refine(n, adj, colors, k)
        if k == n:
            leaf(colors)
            return
        counts = [0] * k
        for c in colors:
            counts[c] += 1
        target = next(c for c in range(k) if counts[c] > 1)
        members = [v for v in range(n) if colors[v] == target]
        branched: list[int] = []
        for u in members:
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
            # u alone takes colour target; the rest of its cell and every
            # later cell move up one
            child = [c + (c >= target) for c in colors]
            child[u] = target
            descend(child, k + 1)

    degs = [row.bit_count() for row in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    descend([rank[d] for d in degs], len(rank))
    return best[0], tuple(best[1]), tuple(gens)


@lru_cache(maxsize=1 << 21)
def _canonical_cached(n: int, adj: tuple[int, ...]) -> tuple[int, Perm, tuple[Perm, ...]]:
    return _canonical(n, adj)


def canonical_cert(g: SimpleGraph) -> int:
    """Isomorphism-invariant integer certificate."""
    return _canonical_cached(g.n, g.adj)[0]


def canonical_form(g: SimpleGraph) -> tuple[int, Perm]:
    """Certificate plus a labeling achieving it (labeling[i] = original vertex)."""
    return _canonical_cached(g.n, g.adj)[:2]


def are_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return g.n == h.n and canonical_cert(g) == canonical_cert(h)


def expand_children(
    parent: SimpleGraph, prune: Callable[[SimpleGraph], bool] | None = None
) -> list[SimpleGraph]:
    """Accepted one-vertex extensions of a canonical parent, in subset order."""
    out = []
    seen: set[int] = set()
    parent_cert, _, gens = _canonical_cached(parent.n, parent.adj)
    gen_bits = [[1 << image for image in perm] for perm in gens]
    done: set[int] = set()
    new_v = parent.n
    # v needs degree >= every child degree: above top, or equal to it when
    # it avoids the parent's vertices of degree top
    degs = [row.bit_count() for row in parent.adj]
    top = max(degs, default=-1)
    top_mask = sum(1 << u for u, d in enumerate(degs) if d == top)
    for subset in range(1 << parent.n):
        d = subset.bit_count()
        if d < top or d == top and subset & top_mask:
            continue
        if gen_bits:
            if subset in done:
                continue
            _close_orbit(subset, gen_bits, done)
        child = add_vertex(parent, subset)
        if prune is not None and not prune(child):
            continue
        if d > top + (subset & top_mask != 0):
            # v has the unique maximum degree (module docstring)
            out.append(child)
            continue
        cert, labeling = canonical_form(child)
        if cert in seen:
            continue
        canon_last = labeling[child.n - 1]
        if canon_last == new_v:
            deleted_cert = parent_cert
        else:
            deleted_cert = canonical_cert(delete_vertex(child, canon_last))
        if deleted_cert != parent_cert:
            continue
        seen.add(cert)
        out.append(child)
    return out


def _close_orbit(subset: int, gen_bits: list[list[int]], done: set[int]) -> None:
    """Add the orbit of `subset` to `done`, under the group generated by
    permutations given as `relabel_mask` tables (bit_of[u] = 1 << image of u)."""
    done.add(subset)
    stack = [subset]
    while stack:
        s = stack.pop()
        for bit_of in gen_bits:
            t = relabel_mask(s, bit_of)
            if t not in done:
                done.add(t)
                stack.append(t)


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
