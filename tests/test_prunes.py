"""The anchored hereditary prunes against the full predicates they replace.

A prune only sees children of parents that passed it, so each gate walks
every parent in the class and every neighbour subset of the new vertex, and
compares the prune's verdict on the child with the full predicate's.
"""

import random
from functools import partial

import pytest

from obstruction_lab import sweeps
from obstruction_lab.detectors import (
    dirac_order,
    find_even_wheel,
    find_hole,
    find_prism,
    find_theta,
    has_clique,
    hole_through,
    in_class_e,
)
from obstruction_lab.graphs import SimpleGraph, add_vertex, cycle_graph, write_graph6
from obstruction_lab.sweeps import (
    PROCESSORS,
    _prune_chordal,
    prune_class_e,
    prune_even_hole_free,
    prune_tpw_free,
)

from conftest import all_graphs


def _full_chordal(g, k):
    return dirac_order(g) is not None and has_clique(g, k + 2) is None


# name: (anchored prune, full predicate)
PRUNES = {
    "class_e": (prune_class_e, lambda g: in_class_e(g).member),
    "tpw_free": (
        prune_tpw_free,
        lambda g: find_theta(g) is None and find_prism(g) is None and find_even_wheel(g) is None,
    ),
    "even_hole_free": (prune_even_hole_free, lambda g: find_hole(g, parity="even") is None),
    "chordal_k1": (partial(_prune_chordal, k=1), partial(_full_chordal, k=1)),
    "chordal_k2": (partial(_prune_chordal, k=2), partial(_full_chordal, k=2)),
    "chordal_k3": (partial(_prune_chordal, k=3), partial(_full_chordal, k=3)),
}


def _members(full, n):
    if n == 0:
        return [SimpleGraph(0, ())]
    return [g for g in all_graphs(n) if full(g)]


def _disagreements(prune, full, candidates):
    children = (add_vertex(parent, subset) for parent, subset in candidates)
    return [write_graph6(g) for g in children if prune(g) != full(g)]


@pytest.mark.parametrize("name", PRUNES)
def test_anchored_prune_matches_full_predicate_n7(name):
    prune, full = PRUNES[name]
    candidates = [(p, s) for n in range(7) for p in _members(full, n) for s in range(1 << n)]
    assert _disagreements(prune, full, candidates) == []


@pytest.mark.parametrize("name", PRUNES)
def test_anchored_prune_matches_full_predicate_n8_sample(name):
    prune, full = PRUNES[name]
    rng = random.Random(2024)
    parents = _members(full, 7)
    candidates = [(rng.choice(parents), rng.randrange(1 << 7)) for _ in range(1000)]
    assert _disagreements(prune, full, candidates) == []


def test_even_wheel_centred_at_the_new_vertex():
    # C6 plus a universal vertex: no hole through it, yet an even wheel
    g = add_vertex(cycle_graph(6), 0b111111)
    assert not hole_through(g, 6)
    assert not in_class_e(g).member
    assert not prune_class_e(g) and not prune_tpw_free(g)
    # W4: C4 plus a universal vertex; C4 alone is allowed, the wheel is not
    w4 = add_vertex(cycle_graph(4), 0b1111)
    assert not prune_tpw_free(w4)
    assert prune_tpw_free(cycle_graph(4))


def test_prunes_are_named_module_functions():
    # jobs pickle the prunes by name, and tracers wrap them by __name__
    for prune, _ in PROCESSORS.values():
        assert getattr(sweeps, prune.__name__) is prune
