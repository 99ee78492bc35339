import hashlib
import json

from obstruction_lab.graphs import SimpleGraph, complete_graph, cycle_graph, empty_graph, path_graph
from obstruction_lab.ktrees import KTree, recognize_ktree
from obstruction_lab.pipeline import pipeline_grow
from obstruction_lab.predicates import verify_blurry


def kaleidoscope_fixture_host(paths: int = 3):
    """Apex 0 with ends 1,2; `paths` 7-vertex connecting paths; the adjacent
    pair after them (18,19 for three paths) sees the three middle vertices of
    every path."""
    za, zb = 3 + 5 * paths, 4 + 5 * paths
    edges = [(0, 1), (0, 2), (za, zb)]
    vid = 3
    for _ in range(paths):
        ps = list(range(vid, vid + 5))
        vid += 5
        edges.append((1, ps[0]))
        edges.append((ps[4], 2))
        edges += [(ps[i], ps[i + 1]) for i in range(4)]
        for z in (za, zb):
            edges += [(z, ps[1]), (z, ps[2]), (z, ps[3])]
    return SimpleGraph.from_edges(zb + 1, edges)


def test_trivial_k2_target():
    target = KTree(complete_graph(2), 2, (0, 1))
    trace = pipeline_grow(complete_graph(2), target, budget=100)
    assert trace.status == "success"
    assert trace.hypothesis_ok
    assert trace.witness is not None and len(trace.witness.zset) == 2


def test_tree_inconclusive_at_stage_one():
    target = KTree(complete_graph(3), 2, (0, 1, 2))
    trace = pipeline_grow(path_graph(5), target, budget=5000)
    assert trace.status == "inconclusive"
    assert trace.stages[-1]["stage"] == "strong_block"
    assert trace.stages[-1]["ok"] is False


def test_fixture_one_extension_step():
    host = kaleidoscope_fixture_host()
    target = KTree(complete_graph(3), 2, (0, 1, 2))
    trace = pipeline_grow(host, target, budget=500000, t=5)
    # membership re-verification is recorded (this host is not a member) and
    # the mechanics still complete one extension step
    assert trace.stages[0]["stage"] == "membership"
    assert trace.hypothesis_ok is False
    assert trace.status == "success"
    extends = [s for s in trace.stages if s["stage"] == "extend"]
    assert len(extends) == 1 and extends[0]["ok"]
    assert len(trace.witness.zset) == 3  # grew by one vertex
    assert verify_blurry(host, trace.witness) is None
    assert {18, 19} < set(trace.witness.zset)


def test_budget_exhaustion_inconclusive():
    host = kaleidoscope_fixture_host()
    target = KTree(complete_graph(3), 2, (0, 1, 2))
    trace = pipeline_grow(host, target, budget=10, t=5)
    assert trace.status == "inconclusive"


def two_tree(n: int, edges) -> KTree:
    g = SimpleGraph.from_edges(n, edges)
    return KTree(g, 2, recognize_ktree(g, 2))


def exit_of(trace_dict: dict) -> str:
    last = trace_dict["stages"][-1]
    if last["stage"] == "seed":
        return "h = 2" if last["ok"] else "no seed edge"
    if last["stage"] == "extend" and last["ok"]:
        return "success after extension"
    return last.get("reason") or last["stage"]


# sha256 of the JSON of every trace.to_dict(host) on the grid below, pinned
# while pipeline_grow had one return per exit
GROW_PIN = "76db069e73c7864b28398a6e2a02cf2e011d652bbea00efcc772da012902daca"


def test_grow_output_pinned():
    hosts = [empty_graph(3), path_graph(5), cycle_graph(6)]
    hosts += [kaleidoscope_fixture_host(2), kaleidoscope_fixture_host(3)]
    targets = [
        KTree(complete_graph(2), 2, (0, 1)),
        KTree(complete_graph(3), 2, (0, 1, 2)),
        two_tree(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        two_tree(5, [(0, 1)] + [(i, j) for i in range(2, 5) for j in (0, i - 1)]),
        two_tree(5, [(i, j) for i in range(5) for j in (i + 1, i + 2) if j < 5]),
    ]
    # 1490 and 9115 run out inside the first extension step of the
    # two-path and three-path hosts, after their kaleidoscopes were found
    digest = hashlib.sha256()
    exits = set()
    for host in hosts:
        for target in targets:
            for budget in (10, 1490, 9115, 500000):
                for t in (4, 5):
                    out = pipeline_grow(host, target, budget=budget, t=t).to_dict(host)
                    exits.add(exit_of(out))
                    digest.update(json.dumps(out, sort_keys=True).encode())
    assert exits == {
        "no seed edge",
        "h = 2",
        "strong_block",
        "kaleidoscope",
        "budget",
        "no candidate",
        "success after extension",
    }
    assert digest.hexdigest() == GROW_PIN
