"""The class-preserving triangle-minor operation and its theorem checkers.

Contracting an adjacent pair z1,z2 into z and keeping only z's edges into the
common neighborhood N(z1) & N(z2) stays inside the (C4, theta, prism,
even-wheel)-free class whenever that common neighborhood is a stable set of
vertices of degree at most three.  check_thm31/check_thm32 assert exactly that
on concrete graphs; the exhaustive sweeps in `sweeps` run the same per-graph
checks on every class member they generate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detectors import (
    WheelClass,
    all_holes,
    classify_attachment,
    hole_through,
    in_class_e,
    is_hole,
)
from .errors import ContractViolation
from .graphs import SimpleGraph, delete_vertex, mask_of, write_graph6


@dataclass(frozen=True)
class TrianglePair:
    """An eligible adjacent pair z1 < z2 with its common neighborhood."""

    z1: int
    z2: int
    common: int


def eligible_pairs(g: SimpleGraph) -> list[TrianglePair]:
    """The adjacent pairs z1 < z2, in `g.edges()` order, whose common
    neighborhood is a stable set whose members all have degree at most three
    in g (vacuously true when it is empty): the thm31 hypothesis."""
    adj = g.adj
    low_degree = mask_of(v for v, row in enumerate(adj) if row.bit_count() <= 3)
    out = []
    for z1, row in enumerate(adj):
        later = row >> (z1 + 1) << (z1 + 1)
        while later:
            z2 = (later & -later).bit_length() - 1
            later &= later - 1
            common = row & adj[z2]
            if common & ~low_degree:
                continue
            rest = common
            while rest:
                if adj[(rest & -rest).bit_length() - 1] & common:
                    break
                rest &= rest - 1
            else:
                out.append(TrianglePair(z1, z2, common))
    return out


def z_may_lie_on_hole(pair: TrianglePair) -> bool:
    """Whether z can lie on a hole of the pair's triangle minor.

    z's neighbours in the minor are exactly the pair's common neighbourhood,
    and a vertex on a hole has two non-adjacent neighbours; with one common
    neighbour or none, the minor need not be built to know z is on no hole.
    """
    return pair.common.bit_count() >= 2


def triangle_minor(g: SimpleGraph, z1: int, z2: int) -> tuple[SimpleGraph, int, tuple[int, ...]]:
    """Contract edge z1z2 into z, then keep only z's edges into N(z1) & N(z2).

    Returns (minor, z_index, mapping) where mapping[new_index] = original
    vertex, with the contracted vertex recorded under min(z1, z2); z takes the
    smallest freed index so certificates stay traceable across the minor.
    """
    for z in (z1, z2):
        if not 0 <= z < g.n:
            raise ContractViolation(f"vertex {z} outside 0..{g.n - 1}")
    if z1 == z2:
        raise ContractViolation("need two distinct vertices")
    if not g.has_edge(z1, z2):
        raise ContractViolation("triangle minor requires an adjacent pair")
    zid, gone = min(z1, z2), max(z1, z2)
    common = g.adj[z1] & g.adj[z2]
    common = (common & ((1 << gone) - 1)) | (common >> (gone + 1)) << gone  # labels of g - gone
    zbit = 1 << zid  # the zid slot becomes z: clear it everywhere, then mirror z's row
    adj = [(row & ~zbit) | (common >> u & 1) << zid for u, row in enumerate(delete_vertex(g, gone).adj)]
    adj[zid] = common
    return SimpleGraph(g.n - 1, tuple(adj)), zid, tuple(v for v in range(g.n) if v != gone)


def minors_through_z(g: SimpleGraph, pairs):
    """(pair, minor) for each of `pairs` whose triangle minor has a hole
    through z, in the order of `pairs`; every other minor has no obstruction.

    Precondition: each pair is eligible, so z's neighbourhood, the common
    neighbourhood, is stable; and g − {z1, z2} has none of the obstructions
    the caller tests for (among C4, theta, prism and even wheel), as when g
    has none of them.  Contracting z1z2 into z leaves minor − z =
    g − {z1, z2}, so every such obstruction of the minor runs through z.
    Every vertex of a C4, theta or prism and every rim vertex of a wheel lies
    on a hole, and no wheel is centred at z, whose stable neighbourhood holds
    no hole: with no hole through z the minor has none of them.  A pair with
    at most one common neighbour (`z_may_lie_on_hole`) is skipped before its
    minor is built.
    """
    for pair in pairs:
        if not z_may_lie_on_hole(pair):
            continue
        minor, z, _ = triangle_minor(g, pair.z1, pair.z2)
        if hole_through(minor, z):
            yield pair, minor


def minor_record(g: SimpleGraph, pair: TrianglePair, minor: SimpleGraph, key: str, cert: dict) -> dict:
    """The report entry of a minor check: host, pair, minor and `key`: cert."""
    return {"graph6": write_graph6(g), "pair": [pair.z1, pair.z2], "minor_graph6": write_graph6(minor), key: cert}


@dataclass
class Thm31Report:
    """Per-graph result of the minor-stays-in-class check."""

    hypothesis_met: bool
    pairs_checked: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_thm31(g: SimpleGraph) -> Thm31Report:
    """For a class member, every eligible pair's minor must stay in the class."""
    if not in_class_e(g).member:
        return Thm31Report(hypothesis_met=False)
    pairs_checked, violations = thm31_minor_violations(g)
    return Thm31Report(True, pairs_checked, violations)


def thm31_minor_violations(g: SimpleGraph) -> tuple[int, list[dict]]:
    """Membership check of every eligible pair's minor, without re-checking
    that g itself is a member; returns (pairs checked, violation records).

    Precondition: g is in E, so `minors_through_z` applies, and each minor it
    yields runs `in_class_e` once, for its verdict and violation certificate.
    """
    pairs = eligible_pairs(g)
    violations = []
    for pair, minor in minors_through_z(g, pairs):
        verdict = in_class_e(minor)
        if not verdict.member:
            violations.append(minor_record(g, pair, minor, "certificate", verdict.violation.to_dict()))
    return len(pairs), violations


@dataclass(frozen=True)
class Thm32Verdict:
    status: str  # "ok" | "violation" | "skip"
    classes: tuple[WheelClass, WheelClass] | None = None
    reason: str = ""


def check_thm32(g: SimpleGraph, cycle: tuple[int, ...], z1: int, z2: int) -> Thm32Verdict:
    """Exactly one of an adjacent outside pair is hole-bad, given: membership,
    a hole, one neighbor each on it, and no common neighbor on it.

    Precondition failures are reported as skips, not failures.
    """
    if not is_hole(g, cycle):
        return Thm32Verdict("skip", reason="cycle is not a hole")
    cmask = mask_of(cycle)
    if z1 == z2 or cmask >> z1 & 1 or cmask >> z2 & 1:
        return Thm32Verdict("skip", reason="pair must be two vertices outside the hole")
    if not g.has_edge(z1, z2):
        return Thm32Verdict("skip", reason="pair not adjacent")
    if not (g.adj[z1] & cmask) or not (g.adj[z2] & cmask):
        return Thm32Verdict("skip", reason="pair must each have a neighbor on the hole")
    if g.adj[z1] & g.adj[z2] & cmask:
        return Thm32Verdict("skip", reason="pair shares a neighbor on the hole")
    if not in_class_e(g).member:
        return Thm32Verdict("skip", reason="graph not in class")
    return thm32_verdict(g, cycle, z1, z2)


def thm32_verdict(g: SimpleGraph, cycle: tuple[int, ...], z1: int, z2: int) -> Thm32Verdict:
    """The exactly-one-bad verdict itself, for an instance already known to
    meet the hypothesis (as every thm32_instances entry of a member does)."""
    cmask = mask_of(cycle)
    c1 = classify_attachment(g, g.adj[z1] & cmask)
    c2 = classify_attachment(g, g.adj[z2] & cmask)
    bad_count = (c1 is WheelClass.BAD) + (c2 is WheelClass.BAD)
    return Thm32Verdict("ok" if bad_count == 1 else "violation", classes=(c1, c2))


def thm32_instances(g: SimpleGraph):
    """All (hole, adjacent outside pair) instances meeting the hypothesis."""
    for cycle in all_holes(g):
        cmask = mask_of(cycle)
        outside = [v for v in range(g.n) if not cmask >> v & 1 and g.adj[v] & cmask]
        for i, z1 in enumerate(outside):
            for z2 in outside[i + 1 :]:
                if not g.has_edge(z1, z2):
                    continue
                if g.adj[z1] & g.adj[z2] & cmask:
                    continue
                yield cycle, z1, z2
