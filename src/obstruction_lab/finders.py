"""Best-effort finders paired with the total verifiers.

Everything a finder returns re-verifies; absence is only meaningful where
documented (the strong-block search distinguishes a conclusively exhausted
search from a budget-truncated one).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .detectors import has_clique
from .errors import ContractViolation
from .graphs import SimpleGraph, bits, mask_of
from .ktrees import Embedding, contains_induced
from .predicates import (
    BlurryWitness,
    StrongBlockWitness,
    blurry_extra_edges,
    verify_blurry,
    verify_strong_block,
)


# ---------------------------------------------------------------------------
# blurry-copy extraction


@dataclass(frozen=True)
class ExtractionResult:
    embedding: Embedding | None
    fallback_used: bool


def extract_induced_from_blurry(g: SimpleGraph, w: BlurryWitness) -> ExtractionResult:
    """On K4-free hosts the induced set has no edges beyond the spanning
    2-tree (an extra edge would manufacture a K4), so the copy is read off
    directly; otherwise falls back to the induced-subgraph oracle."""
    bad = verify_blurry(g, w)
    if bad is not None:
        raise ContractViolation(f"witness does not verify (clause {bad})")
    if has_clique(g, 4) is None:
        if blurry_extra_edges(g, w):
            raise ContractViolation("verified witness on a K4-free host cannot carry extra edges")
        emb = [0] * len(w.order)
        for x, v in zip(w.target.order, w.order):
            emb[x] = v
        return ExtractionResult(tuple(emb), fallback_used=False)
    return ExtractionResult(contains_induced(g, w.target.graph), fallback_used=True)


# ---------------------------------------------------------------------------
# strong blocks: flow feasibility, then budgeted packing search


@dataclass(frozen=True)
class BlockSearchResult:
    witness: StrongBlockWitness | None
    conclusive: bool
    expansions: int


def _vertex_disjoint_path_bound(g: SimpleGraph, x: int, y: int, allowed: int) -> int:
    """Menger bound: max internally vertex-disjoint x-y paths through `allowed`
    (unit capacities on interior vertices and on edges, split-vertex flow)."""
    n = g.n
    nodes = 2 * n  # 2v = in-copy, 2v+1 = out-copy
    cap = [dict() for _ in range(nodes)]

    def add(u, v, c):
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    active = allowed | (1 << x) | (1 << y)
    for v in bits(active):
        add(2 * v, 2 * v + 1, n if v in (x, y) else 1)
    for u in bits(active):
        for v in bits(g.adj[u] & active):
            add(2 * u + 1, 2 * v, 1)
    source, sink = 2 * x + 1, 2 * y
    flow = 0
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            cur = queue.pop(0)
            for nxt, c in cap[cur].items():
                if c > 0 and nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
        if sink not in parent:
            return flow
        node = sink
        while parent[node] is not None:
            prev = parent[node]
            cap[prev][node] -= 1
            cap[node][prev] = cap[node].get(prev, 0) + 1
            node = prev
        flow += 1


def _plain_paths(g: SimpleGraph, x: int, y: int, allowed: int, counter, budget: int):
    """Simple x-y paths with interior inside `allowed`; consumes budget."""
    out = []

    def extend(seq: tuple[int, ...], used: int):
        counter[0] += 1
        if counter[0] >= budget:
            return
        last = seq[-1]
        if g.has_edge(last, y):
            out.append(seq + (y,))
        for w in bits(g.adj[last] & allowed & ~used):
            extend(seq + (w,), used | (1 << w))

    extend((x,), 1 << x)
    return out


def find_strong_block(g: SimpleGraph, k: int, budget: int = 200000) -> BlockSearchResult:
    """Best-effort strong k-block search.

    Per candidate block, every pair is first screened by a unit-vertex-capacity
    max-flow bound, then families are assembled by a budgeted backtracking
    packing whose paths avoid the other block vertices and all previously
    placed interiors (which enforces the cross-family rule).  A None result is
    conclusive only when the search space was exhausted within budget.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    counter = [0]
    exhausted = False
    for block in itertools.combinations(range(g.n), k):
        if counter[0] >= budget:
            exhausted = True
            break
        bmask = mask_of(block)
        pairs = list(itertools.combinations(block, 2))
        ok = True
        for x, y in pairs:
            allowed = g.vertices_mask & ~bmask
            if _vertex_disjoint_path_bound(g, x, y, allowed) < k:
                ok = False
                break
        if not ok:
            continue
        assignment = _pack_families(g, pairs, bmask, k, counter, budget)
        if assignment is not None:
            witness = StrongBlockWitness(
                k, block, tuple((pair, tuple(paths)) for pair, paths in zip(pairs, assignment))
            )
            bad = verify_strong_block(g, witness)
            if bad is not None:
                raise ContractViolation(f"packed strong block fails clause {bad}")
            return BlockSearchResult(witness, conclusive=True, expansions=counter[0])
        if counter[0] >= budget:
            exhausted = True
            break
    return BlockSearchResult(None, conclusive=not exhausted, expansions=counter[0])


def _pack_families(g, pairs, bmask, k, counter, budget):
    def place(idx: int, used_interiors: int):
        if idx == len(pairs):
            return []
        if counter[0] >= budget:
            return None
        x, y = pairs[idx]
        allowed = g.vertices_mask & ~bmask & ~used_interiors
        cands = _plain_paths(g, x, y, allowed, counter, budget)
        cands.sort(key=lambda p: (len(p), p))

        def pick(chosen: list, start: int, interiors: int):
            if len(chosen) == k:
                rest = place(idx + 1, used_interiors | interiors)
                if rest is not None:
                    return [tuple(chosen)] + rest
                return None
            if counter[0] >= budget:
                return None
            for i in range(start, len(cands)):
                interior = mask_of(cands[i][1:-1])
                if interior & interiors:
                    continue
                got = pick(chosen + [cands[i]], i + 1, interiors | interior)
                if got is not None:
                    return got
            return None

        return pick([], 0, 0)

    return place(0, 0)
