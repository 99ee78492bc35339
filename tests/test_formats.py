"""The JSON documents `find`, `check`, `grow` and `verify` exchange, pinned
byte for byte: one certificate of each kind and one witness of each kind.
Each pin also round-trips through its parser and still verifies."""

import json

import pytest

from obstruction_lab.detectors import Certificate, certificate_from_dict, validate_certificate
from obstruction_lab.graphs import parse_graph6
from obstruction_lab.ktrees import KTree
from obstruction_lab.predicates import (
    Alignment,
    BlurryWitness,
    Kaleidoscope,
    Palanquin,
    StrongBlockWitness,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)

CERTIFICATES = {
    "hole": (
        Certificate("hole", cycle=(0, 1, 2, 3, 4)),
        '{"kind": "hole", "cycle": [0, 1, 2, 3, 4], "graph6": "Dhc"}',
    ),
    "theta": (
        Certificate("theta", ends=(0, 1), paths=((0, 2, 1), (0, 3, 1), (0, 4, 1))),
        '{"kind": "theta", "ends": [0, 1], "paths": [[0, 2, 1], [0, 3, 1], [0, 4, 1]], "graph6": "D]o"}',
    ),
    "prism": (
        Certificate("prism", triangles=((0, 1, 2), (3, 4, 5)), paths=((0, 3), (1, 4), (2, 5))),
        '{"kind": "prism", "triangles": [[0, 1, 2], [3, 4, 5]], "paths": [[0, 3], [1, 4], [2, 5]],'
        ' "graph6": "E{Sw"}',
    ),
    "even_wheel": (
        Certificate("even_wheel", cycle=(0, 1, 2, 3), center=4),
        '{"kind": "even_wheel", "cycle": [0, 1, 2, 3], "center": 4, "graph6": "Dl{"}',
    ),
    "clique": (
        Certificate("clique", vertices=(0, 1, 2)),
        '{"kind": "clique", "vertices": [0, 1, 2], "graph6": "C~"}',
    ),
    "biclique": (
        Certificate("biclique", side_a=(0, 1), side_b=(2, 3)),
        '{"kind": "biclique", "side_a": [0, 1], "side_b": [2, 3], "graph6": "C]"}',
    ),
}


@pytest.mark.parametrize("kind", CERTIFICATES)
def test_certificate_json_pinned(kind):
    cert, pinned = CERTIFICATES[kind]
    doc = json.loads(pinned)
    g = parse_graph6(doc["graph6"])
    assert json.dumps(cert.to_dict(g)) == pinned
    assert certificate_from_dict(doc) == cert
    assert validate_certificate(g, cert)


DIAMOND_TARGET = KTree(parse_graph6("C}"), 2, (2, 0, 1, 3))
WITNESSES = {
    "kaleidoscope": (
        Kaleidoscope(5, 0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1))),
        '{"schema": "obstruction-lab/witness-v1", "graph6": "E]r?", "kind": "kaleidoscope",'
        ' "a": 5, "x": 0, "y": 1, "paths": [[0, 2, 1], [0, 3, 1], [0, 4, 1]]}',
    ),
    "palanquin": (
        Palanquin(0, (1, 2), ((3, 4), (5, 6), (7, 8))),
        '{"schema": "obstruction-lab/witness-v1", "graph6": "HqL@I?`", "kind": "palanquin",'
        ' "a": 0, "s_set": [1, 2], "paths": [[3, 4], [5, 6], [7, 8]]}',
    ),
    "alignment": (
        Alignment((0, 1), (2, 3, 4, 5, 6, 7), 2, (0, 1)),
        '{"schema": "obstruction-lab/witness-v1", "graph6": "HTDIGF?", "kind": "alignment",'
        ' "s_set": [0, 1], "path": [2, 3, 4, 5, 6, 7], "x": 2, "pi": [0, 1]}',
    ),
    "blurry": (
        BlurryWitness((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), (2, 0, 1, 3), DIAMOND_TARGET),
        '{"schema": "obstruction-lab/witness-v1", "graph6": "C}", "kind": "blurry",'
        ' "zset": [0, 1, 2, 3], "y_edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]],'
        ' "order": [2, 0, 1, 3], "target_graph6": "C}", "target_k": 2, "target_order": [2, 0, 1, 3]}',
    ),
    "strong_block": (
        StrongBlockWitness(2, (0, 2), (((0, 2), ((0, 1, 2), (0, 3, 2))),)),
        '{"schema": "obstruction-lab/witness-v1", "graph6": "Cl", "kind": "strong_block",'
        ' "k": 2, "block": [0, 2], "families": [{"pair": [0, 2], "paths": [[0, 1, 2], [0, 3, 2]]}]}',
    ),
}


@pytest.mark.parametrize("kind", WITNESSES)
def test_witness_json_pinned(kind):
    witness, pinned = WITNESSES[kind]
    g = parse_graph6(json.loads(pinned)["graph6"])
    assert json.dumps(witness_to_dict(g, witness)) == pinned
    assert witness_from_dict(json.loads(pinned)) == (g, witness)
    assert verify_witness(g, witness) is None
