"""Naive subset-enumeration oracles, kept independent of the anchored
detectors on purpose: each one enumerates vertex subsets and tests the
defining shape directly from first principles (degree profiles, components,
exact edge accounting).  `oracle_eligible_pairs` likewise tests the thm31
hypothesis on each vertex pair straight from its definition."""

from itertools import combinations

from obstruction_lab.graphs import SimpleGraph, bits, mask_of


def _subsets(n: int, at_least: int):
    for mask in range(1 << n):
        if mask.bit_count() >= at_least:
            yield mask


def _connected_within(g: SimpleGraph, mask: int) -> bool:
    if not mask:
        return False
    comp = mask & -mask
    frontier = comp
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v] & mask
        frontier = nxt & ~comp
        comp |= nxt
    return comp == mask


def _components_within(g: SimpleGraph, mask: int) -> list[int]:
    comps = []
    left = mask
    while left:
        comp = left & -left
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v] & mask
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        left &= ~comp
    return comps


def _is_cycle_subset(g: SimpleGraph, mask: int) -> bool:
    if mask.bit_count() < 4:
        return False
    for v in bits(mask):
        if (g.adj[v] & mask).bit_count() != 2:
            return False
    return _connected_within(g, mask)


def oracle_has_hole(g: SimpleGraph, parity: str = "any", min_len: int = 4) -> bool:
    want = {"any": (0, 1), "even": (0,), "odd": (1,)}[parity]
    for mask in _subsets(g.n, min_len):
        if mask.bit_count() % 2 in want and _is_cycle_subset(g, mask):
            return True
    return False


def _subset_is_theta(g: SimpleGraph, mask: int) -> bool:
    degree3 = [v for v in bits(mask) if (g.adj[v] & mask).bit_count() == 3]
    if len(degree3) != 2:
        return False
    a, b = degree3
    if g.has_edge(a, b):
        return False
    rest = mask & ~(1 << a) & ~(1 << b)
    for v in bits(rest):
        if (g.adj[v] & mask).bit_count() != 2:
            return False
    comps = _components_within(g, rest)
    if len(comps) != 3:
        return False
    for comp in comps:
        if (g.adj[a] & comp).bit_count() != 1 or (g.adj[b] & comp).bit_count() != 1:
            return False
        inner_edges = sum((g.adj[v] & comp).bit_count() for v in bits(comp)) // 2
        if inner_edges != comp.bit_count() - 1:
            return False  # component carries a cycle, not a path
    return True


def oracle_has_theta(g: SimpleGraph) -> bool:
    return any(_subset_is_theta(g, mask) for mask in _subsets(g.n, 5))


def _subset_is_prism(g: SimpleGraph, mask: int) -> bool:
    degs = {v: (g.adj[v] & mask).bit_count() for v in bits(mask)}
    threes = [v for v, d in degs.items() if d == 3]
    if len(threes) != 6 or any(d not in (2, 3) for d in degs.values()):
        return False
    for tri1 in combinations(threes, 3):
        tri2 = tuple(v for v in threes if v not in tri1)
        if not all(g.has_edge(u, v) for u, v in combinations(tri1, 2)):
            continue
        if not all(g.has_edge(u, v) for u, v in combinations(tri2, 2)):
            continue
        m1, m2 = mask_of(tri1), mask_of(tri2)
        rest = mask & ~m1 & ~m2
        # every corner has exactly one connection slot beyond its triangle;
        # connections are direct cross edges or deg-2 path components, and
        # the three of them must match the triangles up perfectly
        connections = []  # (corner_in_tri1, corner_in_tri2)
        ok = True
        for a in tri1:
            out = g.adj[a] & mask & ~m1
            if out.bit_count() != 1:
                ok = False
                break
        for b in tri2:
            out = g.adj[b] & mask & ~m2
            if ok and out.bit_count() != 1:
                ok = False
                break
        if not ok:
            continue
        for a in tri1:
            if g.adj[a] & m2:
                connections.append((a, next(bits(g.adj[a] & m2))))
        comps = _components_within(g, rest)
        for comp in comps:
            inner_edges = sum((g.adj[v] & comp).bit_count() for v in bits(comp)) // 2
            if inner_edges != comp.bit_count() - 1:
                ok = False  # cycle inside a connector
                break
            hits1 = [a for a in tri1 if g.adj[a] & comp]
            hits2 = [b for b in tri2 if g.adj[b] & comp]
            if len(hits1) != 1 or len(hits2) != 1:
                ok = False
                break
            if (g.adj[hits1[0]] & comp).bit_count() != 1 or (g.adj[hits2[0]] & comp).bit_count() != 1:
                ok = False
                break
            connections.append((hits1[0], hits2[0]))
        if not ok:
            continue
        if len(connections) == 3 and {c[0] for c in connections} == set(tri1) and {
            c[1] for c in connections
        } == set(tri2):
            return True
    return False


def oracle_has_prism(g: SimpleGraph) -> bool:
    return any(_subset_is_prism(g, mask) for mask in _subsets(g.n, 6))


def oracle_has_even_wheel(g: SimpleGraph) -> bool:
    for mask in _subsets(g.n, 4):
        if not _is_cycle_subset(g, mask):
            continue
        for v in range(g.n):
            if mask >> v & 1:
                continue
            k = (g.adj[v] & mask).bit_count()
            if k >= 4 and k % 2 == 0:
                return True
    return False


def oracle_eligible_pairs(g: SimpleGraph) -> list[tuple[int, int, int]]:
    """(z1, z2, common mask) for each adjacent pair z1 < z2, in lexicographic
    order, whose common neighbours are pairwise non-adjacent and each have
    degree at most three."""
    out = []
    for z1, z2 in combinations(range(g.n), 2):
        if not g.has_edge(z1, z2):
            continue
        common = [w for w in range(g.n) if g.has_edge(w, z1) and g.has_edge(w, z2)]
        stable = not any(g.has_edge(u, w) for u, w in combinations(common, 2))
        if stable and all(g.degree(w) <= 3 for w in common):
            out.append((z1, z2, mask_of(common)))
    return out
