"""Best-effort staged pipeline growing a blurry 2-tree copy inside a host.

Stages: (1) locate a strong 2-block to get a pair joined by many paths,
(2) assemble a kaleidoscope together with an adjacent pair mirrored by it,
(3) repeatedly harvest a common neighbor of the current growth pair on one
kaleidoscope hole, filter the surviving holes, and extend the blurry witness
by one vertex.  Every stage records what happened; exhaustion is reported as
an inconclusive trace, never as a silent failure.  The class-membership claim
is re-verified up front and recorded, and the mechanics proceed either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detectors import in_class_et, induced_ab_paths
from .errors import ContractViolation
from .graphs import SimpleGraph, bits, mask_of
from .ktrees import KTree, forward_neighbors, ktree_quotient, validate_ktree
from .predicates import (
    BlurryWitness,
    Kaleidoscope,
    mirrors,
    verify_blurry,
    verify_mirrored,
    witness_to_dict,
)
from .finders import find_strong_block


@dataclass
class GrowTrace:
    status: str = "inconclusive"
    hypothesis_ok: bool = False
    stages: list[dict] = field(default_factory=list)
    witness: BlurryWitness | None = None
    budget_left: int = 0

    def to_dict(self, host: SimpleGraph | None = None) -> dict:
        out = {
            "status": self.status,
            "hypothesis_ok": self.hypothesis_ok,
            "stages": self.stages,
            "budget_left": self.budget_left,
        }
        if host is not None and self.witness is not None:
            out["witness"] = witness_to_dict(host, self.witness)
        return out


def _blurry_for_suffix(target: KTree, assigned: list[int]) -> BlurryWitness:
    """Witness for the quotient matching the currently grown suffix.

    assigned[j] is the host image of target.order[h - len(assigned) + j].
    """
    h = target.graph.n
    start = h - len(assigned)
    quotient = ktree_quotient(target, start)
    y_edges = []
    for i in range(len(assigned)):
        for j in range(i + 1, len(assigned)):
            if quotient.graph.has_edge(quotient.order[i], quotient.order[j]):
                y_edges.append((assigned[i], assigned[j]))
    return BlurryWitness(
        zset=tuple(sorted(assigned)),
        y_edges=tuple(y_edges),
        order=tuple(assigned),
        target=quotient,
    )


def _assemble_kaleidoscope(g: SimpleGraph, need_w: int, budget: int):
    """Search for (kaleidoscope, adjacent pair 3-mirrored by it), or None;
    deterministic, and returned with the budget left, which counts
    path-extension steps."""
    for a in range(g.n):
        allowed = g.vertices_mask & ~(1 << a) & ~g.adj[a]
        nbrs = list(bits(g.adj[a]))
        for xi in range(len(nbrs)):
            for yi in range(xi + 1, len(nbrs)):
                x, y = nbrs[xi], nbrs[yi]
                if g.has_edge(x, y):
                    continue
                paths = induced_ab_paths(g, x, y, allowed)
                budget -= len(paths) + 1
                if budget <= 0:
                    return None, budget
                # greedy internally disjoint packing, shortest first
                packed: list[tuple[int, ...]] = []
                seen = 0
                for p in paths:
                    interior = mask_of(p[1:-1])
                    if interior and not interior & seen:
                        packed.append(p)
                        seen |= interior
                if not packed:
                    continue
                body = (1 << a) | seen | (1 << x) | (1 << y)
                for z1 in range(g.n):
                    if body >> z1 & 1:
                        continue
                    for z2 in bits(g.adj[z1] & ~body):
                        if z2 <= z1:
                            continue
                        keep = [
                            w for w in packed if all(mirrors(g, z, x, y, w, 3) for z in (z1, z2))
                        ]
                        if len(keep) >= need_w:
                            cand = Kaleidoscope(a, x, y, tuple(keep))
                            if verify_mirrored(g, cand, (z1, z2), 3) is None:
                                return (cand, (z1, z2)), budget
    return None, budget


def _first_common_neighbor(g: SimpleGraph, w: tuple[int, ...], z1: int, z2: int) -> int | None:
    common = g.adj[z1] & g.adj[z2] & mask_of(w)
    return next((v for v in w if common >> v & 1), None)  # traversal order from x


def pipeline_grow(g: SimpleGraph, target: KTree, budget: int = 500000, t: int = 4) -> GrowTrace:
    """Grow a blurry copy of the target 2-tree, one ordered vertex at a time."""
    ok, _ = validate_ktree(target.graph, target.k, target.order)
    if target.k != 2 or not ok:
        raise ContractViolation("target must be a valid 2-tree")
    verdict = in_class_et(g, t)
    trace = GrowTrace(hypothesis_ok=verdict.member)
    trace.stages.append(
        {
            "stage": "membership",
            "ok": verdict.member,
            "violation": None if verdict.member else verdict.violation.kind,
        }
    )
    trace.budget_left = max(_grow(g, target, budget, trace), 0)
    return trace


def _grow(g: SimpleGraph, target: KTree, budget: int, trace: GrowTrace) -> int:
    """The stages after the membership check, each recorded on the trace;
    stops at the first that fails and returns the budget left."""
    h = target.graph.n
    edges = g.edges()
    if not edges:
        trace.stages.append({"stage": "seed", "ok": False})
        return budget
    seed = edges[0]
    if h == 2:
        # no kaleidoscope demand: the witness is any edge (w parameter 0 case)
        trace.witness = _blurry_for_suffix(target, [seed[0], seed[1]])
        bad = verify_blurry(g, trace.witness)
        if bad is not None:
            raise ContractViolation(f"seed-edge blurry witness fails clause {bad}")
        trace.status = "success"
        trace.stages.append({"stage": "seed", "ok": True, "pair": list(seed)})
        return budget

    block = find_strong_block(g, 2, budget=budget)
    budget -= block.expansions
    trace.stages.append(
        {
            "stage": "strong_block",
            "ok": block.witness is not None,
            "conclusive": block.conclusive,
            "expansions": block.expansions,
        }
    )
    if block.witness is None:
        return budget

    steps = h - 2
    got, budget = _assemble_kaleidoscope(g, steps, budget)
    trace.stages.append({"stage": "kaleidoscope", "ok": got is not None})
    if got is None:
        return budget
    kal, (z1, z2) = got

    # base pair maps to the last two ordering positions of the target
    assigned = [z1, z2]
    bad = verify_blurry(g, _blurry_for_suffix(target, assigned))
    if bad is not None:
        trace.stages.append({"stage": "extend", "step": 0, "ok": False, "clause": bad})
        return budget

    for step in range(1, steps + 1):
        pos = h - 2 - step  # 0-based target position being added
        images = dict(zip(target.order[pos + 1 :], assigned))
        p, q = (images[v] for v in bits(forward_neighbors(target.graph, target.order, pos)))
        # growth adjacency: z sees both anchors and nothing of the grown
        # suffix outside their closed common neighborhood
        outside = mask_of(assigned) & ~((g.adj[p] | 1 << p) & (g.adj[q] | 1 << q))
        for wi, w in enumerate(kal.paths):
            budget -= len(w)
            if budget <= 0:
                trace.stages.append({"stage": "extend", "step": step, "ok": False, "reason": "budget"})
                return budget
            z = _first_common_neighbor(g, w, p, q)
            if z is None or g.has_edge(kal.a, z) or g.adj[z] & outside:
                continue
            survivors = [
                other
                for oj, other in enumerate(kal.paths)
                if oj != wi and mirrors(g, z, kal.x, kal.y, other, 3)
            ]
            if survivors or step == steps:
                break
        else:
            trace.stages.append({"stage": "extend", "step": step, "ok": False, "reason": "no candidate"})
            return budget
        assigned = [z] + assigned
        kal = Kaleidoscope(kal.a, kal.x, kal.y, tuple(survivors))
        witness = _blurry_for_suffix(target, assigned)
        bad = verify_blurry(g, witness)
        trace.stages.append(
            {"stage": "extend", "step": step, "ok": bad is None, "vertex": z, "clause": bad}
        )
        if bad is not None:
            return budget
        trace.witness = witness

    trace.status = "success"
    return budget
