import functools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from obstruction_lab.enumeration import enumerate_graphs
from obstruction_lab.graphs import (
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
)


def diamond() -> SimpleGraph:
    # K4 minus one edge; 0,1 are the adjacent degree-3 pair
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


@functools.cache
def all_graphs(n: int) -> tuple[SimpleGraph, ...]:
    return tuple(enumerate_graphs(n))


def random_graphs(count: int, seed: int, sizes: tuple[int, int]):
    """`count` seeded random graphs, each with n drawn from `sizes` and its
    own edge probability."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*sizes)
        p = rng.random()
        yield SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@pytest.fixture(scope="session")
def small_graphs():
    return {
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "K23": complete_bipartite(2, 3),
        "K33": complete_bipartite(3, 3),
        "diamond": diamond(),
    }
