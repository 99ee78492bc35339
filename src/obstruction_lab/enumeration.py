"""Canonical small-graph enumeration.

Canonical labeling is color-refinement plus individualization with twin
pruning; the certificate is the adjacency upper triangle packed under the
minimizing labeling.  Generation follows the canonical-construction-path
rule: a child produced by adding one vertex to a canonical parent is kept iff
deleting the child's canonical-last vertex lands back in the parent's
isomorphism class, with a per-parent certificate set deduplicating additions
that differ only by an automorphism of the parent.  Hereditary pruning
predicates are applied before the (more expensive) acceptance test, which is
sound because a pruned class cannot have unpruned descendants.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from .errors import ContractViolation
from .graphs import SimpleGraph, add_vertex, delete_vertex

ENUMERATION_CAP = 10

# unlabeled simple graph counts, n = 0..10 (used by tests and reports)
UNLABELED_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    # densify color ids, then iterate; signatures are packed into ints, one
    # field per cell, wide enough for any count 0..n-1
    remap = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [remap[c] for c in colors]
    k = len(remap)
    width = max(4, n.bit_length())
    while True:
        cells = [0] * k
        for v in range(n):
            cells[colors[v]] |= 1 << v
        sigs = []
        for v in range(n):
            row = adj[v]
            s = colors[v]
            for cm in cells:
                s = s << width | (row & cm).bit_count()
            sigs.append(s)
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(ranking) == k:
            # high bits of the signature are the old color, so no split means stable
            return colors
        k = len(ranking)
        colors = [ranking[s] for s in sigs]


def _canonical(n: int, adj: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Minimal certificate and a labeling achieving it (labeling[pos] = vertex)."""
    if n <= 1:
        return 0, tuple(range(n))
    best: list = [None, None]

    def leaf(colors: list[int]):
        lab = sorted(range(n), key=colors.__getitem__)
        cert = 0
        for i in range(n - 1):
            row = adj[lab[i]]
            for j in range(i + 1, n):
                cert = cert << 1 | (row >> lab[j] & 1)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, tuple(lab)

    def descend(colors: list[int]):
        colors = _refine(n, adj, colors)
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            leaf(colors)
            return
        members = [v for v in range(n) if colors[v] == target]
        branched: list[int] = []
        for u in members:
            # skip vertices interchangeable with an already-branched one
            twin = False
            for w in branched:
                pair = ~((1 << u) | (1 << w))
                if adj[u] & pair == adj[w] & pair:
                    twin = True
                    break
            if twin:
                continue
            branched.append(u)
            child = [2 * c for c in colors]
            child[u] -= 1
            descend(child)

    degs = [row.bit_count() for row in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    descend([rank[d] for d in degs])
    return best[0], best[1]


@lru_cache(maxsize=1 << 21)
def _canonical_cached(n: int, adj: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return _canonical(n, adj)


def canonical_cert(g: SimpleGraph) -> int:
    """Isomorphism-invariant integer certificate."""
    return _canonical_cached(g.n, g.adj)[0]


def canonical_form(g: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    """Certificate plus a labeling achieving it (labeling[i] = original vertex)."""
    return _canonical_cached(g.n, g.adj)


def are_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return g.n == h.n and canonical_cert(g) == canonical_cert(h)


def expand_children(
    parent: SimpleGraph, prune: Callable[[SimpleGraph], bool] | None = None
) -> list[SimpleGraph]:
    """Accepted one-vertex extensions of a canonical parent, in subset order."""
    out = []
    seen: set[int] = set()
    parent_cert = canonical_cert(parent)
    new_v = parent.n
    for subset in range(1 << parent.n):
        child = add_vertex(parent, subset)
        if prune is not None and not prune(child):
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


def enumerate_graphs(
    n: int,
    keep: Callable[[SimpleGraph], bool] | None = None,
    prune: Callable[[SimpleGraph], bool] | None = None,
) -> Iterator[SimpleGraph]:
    """One representative per isomorphism class on exactly n vertices.

    `prune` must be hereditary (closed under induced subgraphs) and cuts the
    generation tree; `keep` is an arbitrary filter applied post-canonically to
    the yielded level only.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ContractViolation(f"enumeration supports 1..{ENUMERATION_CAP} vertices")
    # the tree is rooted at K0, whose only child is K1
    level = [SimpleGraph(0, ())]
    for _ in range(n - 1):
        level = [child for parent in level for child in expand_children(parent, prune)]
    for parent in level:
        for g in expand_children(parent, prune):
            if keep is None or keep(g):
                yield g


def count_isomorphism_classes_brute(n: int) -> int:
    """Labeled brute force modulo isomorphism; cross-check for small n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    certs = set()
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        certs.add(canonical_cert(SimpleGraph(n, tuple(adj))))
    return len(certs)
