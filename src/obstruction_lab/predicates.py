"""Witness types and total verifiers for the proof-level structures.

Witness-first architecture: the verifiers here are total and authoritative
(decidable purely from graph plus witness), the finders next door are
best-effort.  Each verifier reports the first violated clause tag in a fixed
order, or None when the witness checks out.  Malformed witnesses (indices out
of range, non-bijections) raise ContractViolation instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation
from .graphs import SimpleGraph, bits, is_induced_path, mask_of, parse_graph6, write_graph6
from .graphs import check_vertices, ints_from_json, ints_to_json, mask_within, relabel_mask
from .ktrees import KTree, validate_ktree

PathSeq = tuple[int, ...]


@dataclass(frozen=True)
class Kaleidoscope:
    """Apex path x-a-y plus internally disjoint x-y paths avoiding the apex."""

    a: int
    x: int
    y: int
    paths: tuple[PathSeq, ...]


@dataclass(frozen=True)
class Palanquin:
    """Apex vertex, stable subset of its neighborhood, and disjoint paths every
    member of the set attaches to while the apex stays anticomplete."""

    a: int
    s_set: tuple[int, ...]
    paths: tuple[PathSeq, ...]


@dataclass(frozen=True)
class Alignment:
    """Stable set whose attachments along the path occur in disjoint blocks,
    strictly ordered from the end x by the bijection pi."""

    s_set: tuple[int, ...]
    path: PathSeq
    x: int
    pi: tuple[int, ...]  # pi[i] = vertex of rank i+1


@dataclass(frozen=True)
class BlurryWitness:
    """Induced set carrying a spanning 2-tree copy of the target.

    zset lists host vertices; y_edges is the spanning 2-tree's edge set;
    order[i] is the host vertex at ordering position i+1; target is the
    2-tree being copied.
    """

    zset: tuple[int, ...]
    y_edges: tuple[tuple[int, int], ...]
    order: tuple[int, ...]
    target: KTree


@dataclass(frozen=True)
class StrongBlockWitness:
    """Block vertices plus one family of internally disjoint paths per pair;
    families from distinct pairs may meet only in shared endpoints."""

    k: int
    block: tuple[int, ...]
    families: tuple[tuple[tuple[int, int], tuple[PathSeq, ...]], ...]


def _check_vertex_fields(g: SimpleGraph, witness) -> None:
    """The range check every verifier starts with: each field of the witness
    that names vertices names vertices of g."""
    for name, depth in _WITNESS_KINDS[type(witness)][2]:
        if depth is not None:
            check_vertices(g, getattr(witness, name), depth, name)


# ---------------------------------------------------------------------------
# verifiers


def verify_kaleidoscope(g: SimpleGraph, k: Kaleidoscope) -> str | None:
    _check_vertex_fields(g, k)
    if len({k.a, k.x, k.y}) != 3 or not is_induced_path(g, (k.x, k.a, k.y)):
        return "K1"
    a_bit = 1 << k.a
    interiors_seen = 0
    for w in k.paths:
        if len(w) < 2 or w[0] != k.x or w[-1] != k.y:
            return "K2"
        if mask_of(w) & a_bit:
            return "K2"
        if not is_induced_path(g, w):
            return "K2"
        interior = mask_of(w[1:-1])
        if interior & interiors_seen:
            return "K2"
        interiors_seen |= interior
    for w in k.paths:
        if g.adj[k.a] & mask_of(w[1:-1]):
            return "K3"
    return None


def mirrors(g: SimpleGraph, z: int, x: int, y: int, w: PathSeq, d: int) -> bool:
    """True iff path w of a kaleidoscope with ends x, y d-mirrors z: z sees
    neither end nor an end's neighbour on w, and at least d vertices of w."""
    wm = mask_of(w)
    guard = (1 << x) | (1 << y) | (g.adj[x] & wm) | (g.adj[y] & wm)
    return not g.adj[z] & guard and (g.adj[z] & wm).bit_count() >= d


def verify_mirrored(g: SimpleGraph, k: Kaleidoscope, zset: tuple[int, ...], d: int) -> str | None:
    """Clause order: the kaleidoscope's own clauses first, then M1..M3."""
    bad = verify_kaleidoscope(g, k)
    if bad is not None:
        return bad
    if d < 1:
        raise ContractViolation("d must be >= 1")
    check_vertices(g, zset, 1, "zset")
    zmask = mask_of(zset)
    body = 1 << k.a
    for w in k.paths:
        body |= mask_of(w)
    if zmask & body:
        return "M1"
    if (g.adj[k.a] & zmask).bit_count() > 1:
        return "M2"
    for z in zset:
        for w in k.paths:
            if not mirrors(g, z, k.x, k.y, w, d):
                return "M3"
    return None


def verify_palanquin(g: SimpleGraph, p: Palanquin) -> str | None:
    _check_vertex_fields(g, p)
    smask = mask_of(p.s_set)
    if len(p.s_set) != smask.bit_count() or not p.s_set:
        raise ContractViolation("s_set must be nonempty and duplicate-free")
    if g.adj[p.a] & smask != smask:
        return "P1"
    for s in p.s_set:
        if g.adj[s] & smask:
            return "P1"
    banned = smask | (1 << p.a)
    seen = 0
    for path in p.paths:
        pm = mask_of(path)
        if pm & banned or pm & seen or not is_induced_path(g, path):
            return "P1"
        seen |= pm
    for path in p.paths:
        pm = mask_of(path)
        if g.adj[p.a] & pm:
            return "P2"
        for s in p.s_set:
            if not g.adj[s] & pm:
                return "P2"
    return None


def verify_alignment(g: SimpleGraph, al: Alignment) -> str | None:
    if not al.path:
        raise ContractViolation("alignment path must be nonempty")
    _check_vertex_fields(g, al)
    smask = mask_of(al.s_set)
    if sorted(al.pi) != sorted(al.s_set):
        raise ContractViolation("pi must be a bijection onto the stable set")
    if len(al.s_set) != smask.bit_count():
        raise ContractViolation("s_set has duplicates")
    if mask_of(al.path) & smask:
        return "A1"
    if not is_induced_path(g, al.path) or al.x not in (al.path[0], al.path[-1]):
        return "A1"
    for s in al.s_set:
        if g.adj[s] & smask:
            return "A1"
    seq = al.path if al.path[0] == al.x else al.path[::-1]
    pos = {v: i for i, v in enumerate(seq)}
    blocks = []
    for s in al.pi:
        hits = [pos[v] for v in seq if g.has_edge(s, v)]
        if not hits:
            return "A2"
        blocks.append((min(hits), max(hits)))
    for i in range(len(blocks) - 1):
        if blocks[i][1] >= blocks[i + 1][0]:
            return "A3"
    return None


def verify_blurry(g: SimpleGraph, w: BlurryWitness) -> str | None:
    _check_vertex_fields(g, w)
    zmask = mask_of(w.zset)
    h = len(w.zset)
    if h != zmask.bit_count():
        raise ContractViolation("zset has duplicates")
    # order is in range and zset duplicate-free, so h vertices covering zset
    # are a bijection on it
    if len(w.order) != h or mask_of(w.order) != zmask:
        raise ContractViolation("order must be a bijection on zset")
    t = w.target
    m = t.graph.n
    if len(t.order) != m or mask_within(t.order, m) != (1 << m) - 1:
        raise ContractViolation("target order must be a bijection on the target's vertices")
    if t.k != 2 or m != h:
        return "B1"
    pos = {v: i for i, v in enumerate(w.order)}
    y_adj = [0] * h  # the 2-tree on order positions
    y_target = [0] * h  # and carried to the target's vertices
    for u, v in w.y_edges:
        i, j = pos.get(u), pos.get(v)
        if i is None or j is None:
            raise ContractViolation("spanning edge outside the induced set")
        if not g.adj[u] >> v & 1:
            return "B1"
        y_adj[i] |= 1 << j
        y_adj[j] |= 1 << i
        x, y = t.order[i], t.order[j]
        y_target[x] |= 1 << y
        y_target[y] |= 1 << x
    ok, _ = validate_ktree(SimpleGraph(h, tuple(y_adj)), 2, tuple(range(h)))
    # isomorphic to the target respecting both orderings
    if not ok or y_target != list(t.graph.adj):
        return "B1"
    # the 2-tree is a subgraph of the host now, so a host edge it misses
    # shows as a row with more host than tree neighbours in zset
    for u, row in zip(w.order, y_adj):
        if (g.adj[u] & zmask).bit_count() != row.bit_count():
            break
    else:
        return None
    at = [0] * g.n
    for i, u in enumerate(w.order):
        at[u] = 1 << i
    host_rows = [relabel_mask(g.adj[u] & zmask, at) for u in w.order]
    # each later host neighbour outside the 2-tree sees both forward
    # neighbours of the earlier endpoint; the 2-tree check made them two,
    # as an extra edge can only leave a position below h - 2
    for i in range(h):
        fwd = y_adj[i] >> (i + 1) << (i + 1)
        extra = (host_rows[i] & ~y_adj[i]) >> (i + 1) << (i + 1)
        for j in bits(extra):
            if fwd & ~host_rows[j]:
                return "B2"
    return None


def blurry_extra_edges(g: SimpleGraph, w: BlurryWitness) -> list[tuple[int, int]]:
    """Host edges inside the induced set that the spanning 2-tree is missing,
    each as (u, v) with u < v, in increasing order; zset is duplicate-free,
    as verify_blurry requires."""
    y_rows = dict.fromkeys(w.zset, 0)
    for u, v in w.y_edges:
        if u != v and u in y_rows and v in y_rows:
            y_rows[u] |= 1 << v
            y_rows[v] |= 1 << u
    zmask = mask_of(w.zset)
    out = []
    for u in sorted(w.zset):
        later = g.adj[u] & zmask & ~y_rows[u] & ~((2 << u) - 1)
        if later:
            out.extend((u, v) for v in bits(later))
    return out


def _is_plain_path(g: SimpleGraph, seq: PathSeq) -> bool:
    # strong-block paths: distinct vertices, consecutive adjacency only
    if len(seq) < 2 or len(set(seq)) != len(seq):
        return False
    return all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def verify_strong_block(g: SimpleGraph, w: StrongBlockWitness) -> str | None:
    _check_vertex_fields(g, w)
    for pair, paths in w.families:
        if len(pair) != 2:
            raise ContractViolation(f"family pair {pair} is not a vertex pair")
        check_vertices(g, pair, 1, "pair")
        check_vertices(g, paths, 2, "paths")
    bmask = mask_of(w.block)
    if len(w.block) != bmask.bit_count():
        raise ContractViolation("block has duplicates")
    if w.k < 1:
        raise ContractViolation("k must be >= 1")
    if len(w.block) < w.k:
        return "SB1"
    fams = {frozenset(pair): paths for pair, paths in w.families}
    want = {
        frozenset((w.block[i], w.block[j]))
        for i in range(len(w.block))
        for j in range(i + 1, len(w.block))
    }
    if set(fams) != want:
        return "SB2"
    for pair, paths in w.families:
        x, y = pair
        if len(paths) < w.k:
            return "SB2"
        seen_shapes = set()
        interiors = 0
        for p in paths:
            if not _is_plain_path(g, p) or {p[0], p[-1]} != {x, y}:
                return "SB2"
            shape = min(p, p[::-1])
            if shape in seen_shapes:
                return "SB2"
            seen_shapes.add(shape)
            interior = mask_of(p[1:-1])
            if interior & interiors:
                return "SB2"
            interiors |= interior
    entries = list(w.families)
    for i in range(len(entries)):
        (pair_i, paths_i) = entries[i]
        for j in range(i + 1, len(entries)):
            (pair_j, paths_j) = entries[j]
            shared = set(pair_i) & set(pair_j)
            for p in paths_i:
                pm = set(p)
                for q in paths_j:
                    if pm & set(q) != shared:
                        return "SB3"
    return None


# ---------------------------------------------------------------------------
# witness file format (the finders emit these; `verify` consumes them)


def _edges_from_json(d: dict) -> tuple:
    edges = ints_from_json(d["y_edges"], 2)
    if any(len(e) != 2 for e in edges):
        raise ContractViolation("blurry witness: each y_edge must be a vertex pair")
    return edges


def _target_to_json(t: KTree) -> dict:
    return {"target_graph6": write_graph6(t.graph), "target_k": t.k, "target_order": list(t.order)}


def _target_from_json(d: dict) -> KTree:
    graph, k = parse_graph6(d["target_graph6"]), ints_from_json(d["target_k"])
    return KTree(graph, k, ints_from_json(d["target_order"], 1))


def _families_to_json(families) -> dict:
    return {"families": [{"pair": list(p), "paths": ints_to_json(ps, 2)} for p, ps in families]}


def _families_from_json(d: dict):
    families = d["families"]
    if not isinstance(families, list) or not all(isinstance(f, dict) for f in families):
        raise ContractViolation("strong_block witness: families must be a list of objects")
    return tuple((ints_from_json(f["pair"], 1), ints_from_json(f["paths"], 2)) for f in families)


# fields with an encoding of their own: the field to its document entries,
# and the field back from the document.  The verifiers check these fields
# themselves: y_edges and the families hold vertex pairs, k counts paths.
_NESTED = {
    "k": (lambda k: {"k": k}, lambda d: ints_from_json(d["k"])),
    "y_edges": (lambda e: {"y_edges": ints_to_json(e, 2)}, _edges_from_json),
    "target": (_target_to_json, _target_from_json),
    "families": (_families_to_json, _families_from_json),
}

# per witness type: its kind tag, its verifier, and its fields in document
# order, each with the list depth of the vertices it names (None: see _NESTED)
_WITNESS_KINDS = {
    Kaleidoscope: (
        "kaleidoscope", verify_kaleidoscope, (("a", 0), ("x", 0), ("y", 0), ("paths", 2))
    ),
    Palanquin: ("palanquin", verify_palanquin, (("a", 0), ("s_set", 1), ("paths", 2))),
    Alignment: ("alignment", verify_alignment, (("s_set", 1), ("path", 1), ("x", 0), ("pi", 1))),
    BlurryWitness: (
        "blurry", verify_blurry, (("zset", 1), ("y_edges", None), ("order", 1), ("target", None))
    ),
    StrongBlockWitness: (
        "strong_block", verify_strong_block, (("k", None), ("block", 1), ("families", None))
    ),
}
_TYPES = {tag: cls for cls, (tag, _, _) in _WITNESS_KINDS.items()}


def _witness_kind(witness) -> tuple:
    if type(witness) not in _WITNESS_KINDS:
        raise ContractViolation(f"unknown witness type {type(witness).__name__}")
    return _WITNESS_KINDS[type(witness)]


def witness_to_dict(g: SimpleGraph, witness) -> dict:
    tag, _, fields = _witness_kind(witness)
    out: dict = {"schema": "obstruction-lab/witness-v1", "graph6": write_graph6(g), "kind": tag}
    for name, depth in fields:
        value = getattr(witness, name)
        if depth is None:
            out.update(_NESTED[name][0](value))
        else:
            out[name] = ints_to_json(value, depth)
    return out


def witness_from_dict(d: dict):
    """Graph and witness from a witness document; an unknown kind, or a
    missing or ill-typed field, raises ContractViolation."""
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _TYPES:
        raise ContractViolation(f"unknown witness kind {kind!r}")
    cls = _TYPES[kind]
    fields = _WITNESS_KINDS[cls][2]
    try:
        g = parse_graph6(d["graph6"])
        values = {
            name: _NESTED[name][1](d) if depth is None else ints_from_json(d[name], depth)
            for name, depth in fields
        }
    except KeyError as exc:
        raise ContractViolation(f"{kind} witness has no {exc} field") from None
    return g, cls(**values)


def verify_witness(g: SimpleGraph, witness) -> str | None:
    """Dispatch on witness type."""
    return _witness_kind(witness)[1](g, witness)
