"""Best-effort finders paired with the total verifiers.

Everything a finder returns re-verifies; absence is only meaningful where
documented (the strong-block search distinguishes a conclusively exhausted
search from a budget-truncated one).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .detectors import WheelClass, anticomplete_sets, classify_attachment, has_clique
from .errors import ContractViolation, HypothesisMiss
from .graphs import (
    SimpleGraph,
    bits,
    complement_graph,
    is_induced_path,
    mask_of,
)
from .ktrees import Embedding, contains_induced
from .predicates import (
    Alignment,
    BlurryWitness,
    Kaleidoscope,
    Palanquin,
    PathSeq,
    StrongBlockWitness,
    blurry_extra_edges,
    verify_alignment,
    verify_blurry,
    verify_mirrored,
    verify_palanquin,
    verify_strong_block,
)


def classify_against_path(g: SimpleGraph, path: PathSeq, v: int) -> WheelClass:
    """Good/bad/ugly split of an outside vertex by its neighborhood on a path."""
    pmask = mask_of(path)
    if pmask >> v & 1:
        raise ContractViolation("vertex lies on the path")
    return classify_attachment(g, g.adj[v] & pmask)


# ---------------------------------------------------------------------------
# alignments


@dataclass(frozen=True)
class AlignmentOutcome:
    pi: tuple[int, ...] | None
    anomaly: bool  # hypotheses held, yet no interval order exists


def find_alignment(
    g: SimpleGraph, a: int, s_set: tuple[int, ...], path: PathSeq, x: int
) -> AlignmentOutcome:
    """Sort-by-interval bijection when the attachment intervals are pairwise
    disjoint.  Overlapping intervals return absent with the anomaly flag
    raised: that outcome is impossible in theta-free hosts, so it marks the
    host for re-examination rather than a routine miss.

    Hypotheses: (a, s_set, {path}) is a palanquin, no two set members share a
    neighbor on the path, and the members are uniformly path-bad or
    uniformly path-ugly; misses raise HypothesisMiss.
    """
    p = Palanquin(a, s_set, (path,))
    bad_clause = verify_palanquin(g, p)
    if bad_clause is not None:
        raise HypothesisMiss(f"palanquin clause {bad_clause} fails")
    pmask = mask_of(path)
    for i, s in enumerate(s_set):
        for t in s_set[i + 1 :]:
            if g.adj[s] & g.adj[t] & pmask:
                raise HypothesisMiss("two set members share a neighbor on the path")
    classes = {classify_against_path(g, path, s) for s in s_set}
    if classes not in ({WheelClass.BAD}, {WheelClass.UGLY}):
        raise HypothesisMiss("set members are not uniformly path-bad or path-ugly")
    if x not in (path[0], path[-1]):
        raise HypothesisMiss("x must be an end of the path")

    seq = path if path[0] == x else path[::-1]
    pos = {v: i for i, v in enumerate(seq)}
    intervals = []
    for s in s_set:
        hits = [pos[u] for u in bits(g.adj[s] & pmask)]
        intervals.append((min(hits), max(hits), s))
    intervals.sort()
    for (_lo1, hi1, _), (lo2, _hi2, _2) in zip(intervals, intervals[1:]):
        if hi1 >= lo2:
            return AlignmentOutcome(None, anomaly=True)
    pi = tuple(s for _, _, s in intervals)
    bad = verify_alignment(g, Alignment(s_set, path, x, pi))
    if bad is not None:
        raise ContractViolation(f"constructed alignment fails clause {bad}")
    return AlignmentOutcome(pi, anomaly=False)


# ---------------------------------------------------------------------------
# sub-kaleidoscope filtering


def filter_mirrored(g: SimpleGraph, k: Kaleidoscope, z: int, d: int) -> Kaleidoscope:
    """Restriction of the kaleidoscope to the paths where z has >= d neighbors.

    Requires z to be 1-mirrored by the full kaleidoscope; the result is
    whatever qualifies, possibly empty.
    """
    bad = verify_mirrored(g, k, (z,), 1)
    if bad is not None:
        raise HypothesisMiss(f"mirroring clause {bad} fails")
    keep = tuple(w for w in k.paths if (g.adj[z] & mask_of(w)).bit_count() >= d)
    return Kaleidoscope(k.a, k.x, k.y, keep)


# ---------------------------------------------------------------------------
# ordered path-family selection


def banana_select(
    g: SimpleGraph, a: int, b: int, paths: tuple[PathSeq, ...], nu: int
) -> tuple[PathSeq, ...] | None:
    """Ordered nu-subset with stable first-neighbors and forward attachments.

    Selected paths P_1..P_nu satisfy: the neighbors-of-a {x_{P_i}} together
    with b form a stable set, and for i<j the vertex x_{P_i} has a neighbor
    in the interior of P_j other than x_{P_j}.
    """
    if nu < 1:
        raise ContractViolation("nu must be >= 1")
    if g.has_edge(a, b) or a == b:
        raise ContractViolation("ends must be distinct and non-adjacent")
    interiors_seen = 0
    for p in paths:
        if p[0] != a or p[-1] != b or len(p) < 3 or not is_induced_path(g, p):
            raise ContractViolation("every path must be an induced a-b path of length >= 2")
        interior = mask_of(p[1:-1])
        if interior & interiors_seen:
            raise ContractViolation("paths must be pairwise internally disjoint")
        interiors_seen |= interior
    firsts = [p[1] for p in paths]
    for combo in itertools.combinations(range(len(paths)), nu):
        xs = mask_of(firsts[i] for i in combo) | (1 << b)
        if any(g.adj[v] & xs for v in bits(xs)):
            continue
        for perm in itertools.permutations(combo):
            ok = True
            for ii in range(nu):
                for jj in range(ii + 1, nu):
                    pj = paths[perm[jj]]
                    target = mask_of(pj[1:-1]) & ~(1 << pj[1])
                    if not g.adj[firsts[perm[ii]]] & target:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return tuple(paths[i] for i in perm)
    return None


# ---------------------------------------------------------------------------
# Ramsey split and anticomplete families


@dataclass(frozen=True)
class RamseySplit:
    kind: str  # "clique" | "stable" | "neither"
    vertices: tuple[int, ...] = ()


def ramsey_split(g: SimpleGraph, c: int, s: int) -> RamseySplit:
    """Exact clique-or-stable split; `neither` cannot occur at >= c**s vertices."""
    if c < 1 or s < 1:
        raise ContractViolation("c and s must be >= 1")
    got = has_clique(g, c)
    if got is not None:
        return RamseySplit("clique", got.vertices)
    got = has_clique(complement_graph(g), s)
    if got is not None:
        return RamseySplit("stable", got.vertices)
    return RamseySplit("neither")


def anticomplete_family(g: SimpleGraph, sets: list[int], q: int) -> tuple[int, ...] | None:
    """Indices of q pairwise anticomplete sets among pairwise disjoint `sets`,
    or None: `anticomplete_sets`, the first such q-combination in
    lexicographic order."""
    if q < 1:
        raise ContractViolation("q must be >= 1")
    seen = 0
    for m in sets:
        if m & seen:
            raise ContractViolation("sets must be pairwise disjoint")
        seen |= m
    return anticomplete_sets(g, sets, q)


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
        h = len(w.order)
        emb = [0] * h
        for pos in range(h):
            emb[w.target.order[pos]] = w.order[pos]
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
