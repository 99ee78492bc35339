import io
import json
import time

import pytest

from obstruction_lab import cli, ktrees
from obstruction_lab.cli import main
from obstruction_lab.errors import ContractViolation
from obstruction_lab.graphs import (
    MAX_VERTICES,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    parse_graph6,
    write_graph6,
)
from obstruction_lab.ktrees import KTree
from obstruction_lab.sweeps import sweep_thm31

from conftest import diamond


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_member(tmp_path, capsys):
    p = tmp_path / "c5.g6"
    p.write_text(write_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(capsys, "check", "--t", "4", str(p))
    assert code == 0 and "member of E_4" in out


def test_check_violation_exit_code(tmp_path, capsys):
    p = tmp_path / "c4.g6"
    p.write_text(write_graph6(cycle_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, "check", str(p))
    assert code == 1 and "violation" in out


def test_check_streams_multiple_lines(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_text(write_graph6(cycle_graph(5)) + "\n" + write_graph6(cycle_graph(6)) + "\n")
    code, out, _ = run_cli(capsys, "check", str(p))
    assert code == 0 and out.count("member") == 2


def test_check_output_for_valid_lines(tmp_path, capsys):
    # blank and whitespace-only lines are skipped, a CRLF ending is accepted
    p = tmp_path / "mixed.g6"
    p.write_bytes(b"Dhc\n\n  \nCr\r\nD~{\n")
    code, out, err = run_cli(capsys, "check", "--t", "3", str(p))
    assert (code, err) == (1, "")
    assert out == (
        "Dhc: member of E_3\n"
        'Cr: violation {"kind": "hole", "cycle": [0, 1, 3, 2]}\n'
        'D~{: violation {"kind": "clique", "vertices": [0, 1, 2]}\n'
    )


# input, the error it must raise, and what check prints before the error;
# Dhc is C5, and lines count from 1 with blank lines included
MALFORMED_LINES = {
    "second-line": ("Dhc\nzzz\n", "line 2: truncated graph6 body at offset 3", "Dhc: member of E\n"),
    "after-blank-line": ("Dhc\n\nzzz\n", "line 3: truncated graph6 body at offset 3", "Dhc: member of E\n"),
    "first-line": ("Dh\nDhc\n", "line 1: truncated graph6 body at offset 2", ""),
    "bad-byte": ("Dhc\nDhc\nDh c", "line 3: invalid graph6 byte at offset 2", "Dhc: member of E\n" * 2),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("case", MALFORMED_LINES)
def test_malformed_line_is_named(case, source, tmp_path, capsys, monkeypatch):
    text, error, checked = MALFORMED_LINES[case]
    # find prints what it prints for the lines before line N alone, and
    # nothing when N = 1
    number = int(error.split(":")[0].removeprefix("line "))
    before = tmp_path / "before.g6"
    before.write_text("".join(text.splitlines(keepends=True)[: number - 1]))
    found = run_cli(capsys, "find", "--structure", "hole", str(before))[1] if number > 1 else ""
    p = tmp_path / "graphs.g6"
    p.write_text(text)
    path = "-" if source == "stdin" else str(p)
    witness = tmp_path / "w.json"
    for argv, out_before in ((["check"], checked), (["find", "--structure", "hole", "--out", str(witness)], found)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, *argv, path) == (2, out_before, f"error: {error}\n")
    assert not witness.exists()


@pytest.mark.parametrize(
    "lines", [["Dhc"], ["Dhc", "", "Cr"], ["Dhc", "D~{", "Cr"], []], ids=["one", "two", "three", "none"]
)
def test_find_prints_one_object_or_the_indented_list(lines, tmp_path, capsys):
    # Dhc is C5 and Cr is C4, each with a hole; D~{ has none
    p = tmp_path / "graphs.g6"
    p.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run_cli(capsys, "find", "--structure", "hole", str(p))
    doc = json.loads(out)
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"
    results = doc if isinstance(doc, list) else [doc]
    assert isinstance(doc, dict) == (len(results) == 1)
    assert [r["graph6"] for r in results] == [line for line in lines if line]


def test_minor_diamond(tmp_path, capsys):
    p = tmp_path / "dia.g6"
    p.write_text(write_graph6(diamond()) + "\n")
    code, out, err = run_cli(capsys, "minor", "--z1", "0", "--z2", "1", "--explain", str(p))
    assert code == 0
    minor = parse_graph6(out.strip())
    assert minor.n == 3 and minor.edge_count() == 2  # the two-edge path
    assert err == "# z=0 mapping=[0, 2, 3]\n"  # z keeps index 0; vertex 1 is contracted into it


def test_find_writes_reverifiable_witness(tmp_path, capsys):
    src = tmp_path / "k33.g6"
    from obstruction_lab.graphs import complete_bipartite

    src.write_text(write_graph6(complete_bipartite(3, 3)) + "\n")
    out_file = tmp_path / "theta.json"
    code, out, _ = run_cli(capsys, "find", "--structure", "theta", str(src), "--out", str(out_file))
    assert code == 0 and json.loads(out)["found"]
    # the written file is the bare certificate and re-verifies as-is
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0 and "ok" in out


def test_find_nothing_writes_no_witness(tmp_path, capsys):
    src = tmp_path / "c6.g6"
    src.write_text(write_graph6(cycle_graph(6)) + "\n")
    out_file = tmp_path / "none.json"
    code, out, err = run_cli(capsys, "find", "--structure", "theta", str(src), "--out", str(out_file))
    assert code == 0 and not json.loads(out)["found"]
    assert not out_file.exists() and "no witness file" in err


def two_thetas_witness(tmp_path, capsys):
    """`find --out` on two graphs with a theta each; returns the file."""
    from obstruction_lab.graphs import complete_bipartite

    src = tmp_path / "two.g6"
    src.write_text("".join(write_graph6(complete_bipartite(3, m)) + "\n" for m in (3, 2)))
    out_file = tmp_path / "thetas.json"
    code, _, _ = run_cli(capsys, "find", "--structure", "theta", str(src), "--out", str(out_file))
    assert code == 0 and len(json.loads(out_file.read_text())) == 2
    return out_file


def test_find_out_list_reverifies(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", str(two_thetas_witness(tmp_path, capsys)))
    assert code == 0 and out.splitlines() == ["theta: ok", "theta: ok"]


def test_verify_list_flags_tampered_element(tmp_path, capsys):
    path = two_thetas_witness(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc[1]["paths"][2] = [0, 1]  # 0 and 1 are not adjacent in K_{3,2}
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1 and out.splitlines() == ["theta: ok", "theta: invalid certificate"]


def test_verify_rejects_malformed_document(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("[]")
    code, _, err = run_cli(capsys, "verify", str(p))
    assert code == 2 and err.startswith("error:") and "kind" in err


def test_verify_flags_wrong_certificate(tmp_path, capsys):
    # well formed, but 0-1-2-3 is no hole of C5
    p = tmp_path / "hole.json"
    p.write_text(json.dumps({"kind": "hole", "cycle": [0, 1, 2, 3], "graph6": C5}))
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1 and "hole: invalid certificate" in out


def test_verify_witness_file(tmp_path, capsys):
    from obstruction_lab.predicates import Kaleidoscope, witness_to_dict

    g = SimpleGraph.from_edges(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 0), (5, 1)])
    k = Kaleidoscope(5, 0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    p = tmp_path / "w.json"
    p.write_text(json.dumps(witness_to_dict(g, k)))
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 0 and "kaleidoscope: ok" in out


def test_verify_flags_bad_witness(tmp_path, capsys):
    from obstruction_lab.predicates import Kaleidoscope, witness_to_dict

    g = SimpleGraph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 0), (5, 1), (5, 2)]
    )
    k = Kaleidoscope(5, 0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    p = tmp_path / "w.json"
    p.write_text(json.dumps(witness_to_dict(g, k)))
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1 and "K3" in out


def test_embed_cli(tmp_path, capsys):
    p = tmp_path / "p3.g6"
    from obstruction_lab.graphs import path_graph

    p.write_text(write_graph6(path_graph(3)) + "\n")
    code, out, _ = run_cli(capsys, "embed", "--k", "2", str(p))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # graph6, ordering, embedding map


def test_embed_over_vertex_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    # the 127-tree holding P3 would have 254 vertices
    built = []
    monkeypatch.setattr(ktrees, "KTree", lambda g, k, order: built.append(g.n) or KTree(g, k, order))
    p = tmp_path / "p3.g6"
    p.write_text("Bg\n")
    code, out, err = run_cli(capsys, "embed", "--k", "127", str(p))
    assert code == 2 and err.startswith("error: k=127:") and out == ""
    assert max(built) <= MAX_VERTICES


# each is refused before any vertex or pair is built: tdr has 1 + 50 + ... +
# 50^50 vertices, random-graph 20000 would draw 2*10^8 pairs
OVER_CAP = {
    "tdr": ["--d", "50", "--r", "50"],
    "random-graph": ["--n", "20000", "--p", "0"],
    "ktree-random": ["--n", "5000"],
}


@pytest.mark.parametrize("what", OVER_CAP)
def test_gen_over_vertex_cap_is_usage_error(what, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "gen", what, *OVER_CAP[what])
    assert code == 2 and err.startswith("error:")
    assert time.perf_counter() - start < 1.0


def test_gen_commands(capsys):
    code, out, _ = run_cli(capsys, "gen", "tdr", "--d", "2", "--r", "2")
    assert code == 0 and parse_graph6(out.strip()).n == 7
    # d = 0 leaves every level below the root empty, whatever r is
    code, out, _ = run_cli(capsys, "gen", "tdr", "--d", "0", "--r", "1000000000000")
    assert code == 0 and out == "@\n"
    code, out, _ = run_cli(capsys, "gen", "random-graph", "--n", "6", "--p", "0.4", "--seed", "9")
    assert code == 0
    first = out.strip()
    code, out, _ = run_cli(capsys, "gen", "random-graph", "--n", "6", "--p", "0.4", "--seed", "9")
    assert out.strip() == first  # identical inputs, identical outputs
    code, out, _ = run_cli(capsys, "gen", "ktree-random", "--n", "6", "--seed", "4")
    assert code == 0
    from obstruction_lab.ktrees import KTree, validate_ktree

    t = KTree.from_text(out)
    assert validate_ktree(t.graph, 2, t.order) == (True, None)


def test_gen_cone(tmp_path, capsys):
    p = tmp_path / "c5.g6"
    p.write_text(write_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(capsys, "gen", "cone", str(p))
    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 6 and g.degree(5) == 5 and g.edge_count() == 10


def test_sweep_cli(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "sweep", "thm31", "--max-n", "5", "--out", str(out_file))
    assert code == 0 and "thm31" in out
    doc = json.loads(out_file.read_text())
    assert doc["violations"] == []
    code, out, _ = run_cli(capsys, "sweep", "thm31-mutated", "--max-n", "5", "--out", str(out_file))
    assert code == 1  # injected fault must surface as a violation exit
    doc = json.loads(out_file.read_text())
    del doc["wall_time_s"]
    assert json.dumps(doc, sort_keys=True) == sweep_thm31(5, threads=1, mutate=True).canonical_json()
    # the self-test is a suite of its own, not a flag other suites ignore
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "thm32", "--max-n", "3", "--mutate"])
    assert exc.value.code == 2


def test_sweep_c4_necessity_without_exemplar_exits_1(tmp_path, capsys):
    # the first exemplars are on 8 vertices; the report is still written
    out_file = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "sweep", "c4-necessity", "--max-n", "7", "--threads", "1", "--out", str(out_file))
    assert code == 1 and "[ok]" in out and err == "no exemplar found\n"
    assert json.loads(out_file.read_text())["findings"] == []


def test_sweep_bad_thread_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("OBSTRUCTION_LAB_THREADS", "abc")
    code, _, err = run_cli(capsys, "sweep", "thm31", "--max-n", "3")
    assert code == 2 and "OBSTRUCTION_LAB_THREADS" in err


# a thread count below 1, from the option or the environment, was once
# taken as 1; each case is (argv after the suite, OBSTRUCTION_LAB_THREADS)
BAD_THREAD_COUNTS = {
    "option-zero": (["--threads", "0"], None),
    "option-negative": (["--threads", "-2"], None),
    "env-zero": ([], "0"),
    "env-negative": ([], "-2"),
}


@pytest.mark.parametrize("case", BAD_THREAD_COUNTS)
def test_bad_thread_count_is_usage_error(case, monkeypatch, capsys):
    argv, env = BAD_THREAD_COUNTS[case]
    if env is not None:
        monkeypatch.setenv("OBSTRUCTION_LAB_THREADS", env)
    code, out, err = run_cli(capsys, "sweep", "thm31", "--max-n", "3", *argv)
    assert code == 2 and err.startswith("error:") and "at least 1" in err and out == ""


def test_grow_cli(tmp_path, capsys):
    target = tmp_path / "target.txt"
    from obstruction_lab.ktrees import KTree

    target.write_text(KTree(complete_graph(2), 2, (0, 1)).to_text())
    g = tmp_path / "k2.g6"
    g.write_text(write_graph6(complete_graph(2)) + "\n")
    code, out, _ = run_cli(capsys, "grow", "--target", str(target), str(g))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "success"


def test_usage_errors(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("\x19bad\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2 and "error" in err
    code, out, err = run_cli(capsys, "sweep", "obs51", "--trials", "-1")
    assert code == 2 and err.startswith("error:") and "[ok]" not in out
    # a finder that refuses its arguments on the first graph prints nothing
    one, two = tmp_path / "one.g6", tmp_path / "two.g6"
    one.write_text("Dhc\n")
    two.write_text("Dhc\nCr\n")
    assert run_cli(capsys, "find", "--structure", "clique", "--size", "0", str(one)) == (
        2, "", "error: clique size must be >= 1\n"
    )
    assert run_cli(capsys, "find", "--structure", "hole", "--min-len", "3", str(two)) == (
        2, "", "error: holes have at least 4 vertices\n"
    )
    # a minor vertex outside the graph is named with the range; "distinct"
    # is kept for z1 == z2
    c5 = tmp_path / "c5.g6"
    c5.write_text(write_graph6(cycle_graph(5)) + "\n")
    for z1, z2, message in (
        ("0", "9", "vertex 9 outside 0..4"),
        ("-1", "1", "vertex -1 outside 0..4"),
        ("2", "2", "need two distinct vertices"),
    ):
        assert run_cli(capsys, "minor", "--z1", z1, "--z2", z2, str(c5)) == (2, "", f"error: {message}\n")
    # an edge probability outside [0, 1], NaN included, is refused
    for p in ("-3", "7", "nan", "1.0000001"):
        assert run_cli(capsys, "gen", "random-graph", "--n", "6", "--p", p) == (
            2, "", f"error: edge probability {float(p)} outside [0, 1]\n"
        )
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad_line", [2, 3, 4])
def test_find_error_on_a_later_line_closes_the_output(bad_line, tmp_path, capsys, monkeypatch):
    # Dhc is C5, Cr is C4 and D~{ has no hole; the finder refuses line bad_line
    lines = ["Dhc", "Cr", "D~{", "Dhc"]
    before = tmp_path / "before.g6"
    before.write_text("".join(line + "\n" for line in lines[: bad_line - 1]))
    expected = run_cli(capsys, "find", "--structure", "hole", str(before))[1]
    p = tmp_path / "graphs.g6"
    p.write_text("".join(line + "\n" for line in lines))
    calls = iter(range(1, len(lines) + 1))
    real = cli._FINDERS["hole"]

    def refuse_at_bad_line(g, a):
        if next(calls) == bad_line:
            raise ContractViolation("refused")
        return real(g, a)

    monkeypatch.setitem(cli._FINDERS, "hole", refuse_at_bad_line)
    out_path = tmp_path / "w.json"
    result = run_cli(capsys, "find", "--structure", "hole", "--out", str(out_path), str(p))
    assert result == (2, expected, "error: refused\n")
    assert not out_path.exists()


def test_edgelist_format(tmp_path, capsys):
    p = tmp_path / "g.el"
    p.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "check", "--format", "edgelist", str(p))
    assert code == 0 and "member" in out


# each malformed document or k-tree file once ended in a traceback, or in
# exit code 2 without an `error:` line
C5 = write_graph6(cycle_graph(5))
K2 = write_graph6(complete_graph(2))
MALFORMED_INPUTS = {
    "clique-vertex-1e8": ("verify", {"kind": "clique", "vertices": [10**8], "graph6": C5}),
    "hole-vertex-negative": ("verify", {"kind": "hole", "cycle": [0, 1, 2, -1], "graph6": C5}),
    "kaleidoscope-without-a": ("verify", {"kind": "kaleidoscope", "graph6": C5}),
    "certificate-without-graph6": ("verify", {"kind": "hole", "cycle": [0, 1, 2, 3]}),
    "hole-vertex-not-int": ("verify", {"kind": "hole", "cycle": ["a", 1, 2, 3], "graph6": C5}),
    "graph6-not-ascii": ("verify", {"kind": "hole", "cycle": [0, 1, 2, 3], "graph6": "Dh\u00e9"}),
    "strong-block-pair-of-three": ("verify", {
        "kind": "strong_block", "graph6": C5, "k": 1, "block": [0, 1],
        "families": [{"pair": [0, 1, 1], "paths": [[0, 1]]}],
    }),
    "alignment-empty-path": (
        "verify", {"kind": "alignment", "graph6": C5, "s_set": [], "path": [], "x": 0, "pi": []}
    ),
    "ktree-ordering-not-int": ("grow", write_graph6(complete_graph(3)) + "\n2 x 1 2\n"),
    "ktree-target-not-a-2-tree": ("grow", write_graph6(cycle_graph(4)) + "\n2 0 1 2 3\n"),
    "blurry-edge-vertex-negative": ("verify", {
        "kind": "blurry", "graph6": K2, "zset": [0, 1], "y_edges": [[0, -1]], "order": [0, 1],
        "target_graph6": K2, "target_k": 2, "target_order": [0, 1],
    }),
    "blurry-target-order-not-bijection": ("verify", {
        "kind": "blurry", "graph6": K2, "zset": [0, 1], "y_edges": [[0, 1]], "order": [0, 1],
        "target_graph6": K2, "target_k": 2, "target_order": [0, 1, 1],
    }),
    # nested past the JSON decoder's depth, so given as text
    "json-nested-200000-deep": ("verify", "[" * 200000 + "\n"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    command, doc = MALFORMED_INPUTS[case]
    p = tmp_path / "input"
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if command == "verify":
        argv = ["verify", str(p)]
    else:
        host = tmp_path / "k3.g6"
        host.write_text(write_graph6(complete_graph(3)) + "\n")
        argv = ["grow", "--target", str(p), str(host)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error:")
    if case == "ktree-ordering-not-int":
        assert "line 2" in err


@pytest.mark.parametrize("command", [["minor", "--z1", "0", "--z2", "1"], ["embed", "--k", "2"]])
@pytest.mark.parametrize("count", [0, 2])
def test_single_graph_commands_need_exactly_one(command, count, tmp_path, capsys):
    p = tmp_path / "graphs.g6"
    p.write_text("".join(write_graph6(diamond()) + "\n" for _ in range(count)))
    code, _, err = run_cli(capsys, *command, str(p))
    assert code == 2 and f"expected exactly one graph, got {count}" in err


@pytest.mark.parametrize(
    "command", [["minor", "--z1", "0", "--z2", "1"], ["embed", "--k", "2"], ["gen", "cone"]]
)
def test_single_graph_commands_stop_at_second_graph(command, tmp_path, capsys):
    # the malformed third line is never read
    p = tmp_path / "graphs.g6"
    p.write_text(write_graph6(diamond()) + "\n" + write_graph6(diamond()) + "\n!!!\n")
    code, _, err = run_cli(capsys, *command, str(p))
    assert code == 2 and "expected exactly one graph, got 2 or more" in err


# each unreadable or non-UTF-8 input once ended in a traceback with exit
# code 1, the code for a violation; {dir} is a directory, {bad} holds byte
# 0xff, as does stdin, and {host} is K2
UNREADABLE_INPUTS = {
    "check-directory": ["check", "{dir}"],
    "check-not-utf8": ["check", "{bad}"],
    "check-stdin-not-utf8": ["check", "-"],
    "verify-not-utf8": ["verify", "{bad}"],
    "grow-target-not-utf8": ["grow", "--target", "{bad}", "{host}"],
    "sweep-out-directory": ["sweep", "thm31", "--max-n", "3", "--threads", "1", "--out", "{dir}"],
    "find-out-directory": ["find", "--structure", "clique", "--size", "2", "--out", "{dir}", "{host}"],
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_unreadable_input_is_usage_error(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\n")
    host = tmp_path / "k2.g6"
    host.write_text(K2 + "\n")
    paths = {"dir": str(tmp_path), "bad": str(bad), "host": str(host)}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in UNREADABLE_INPUTS[case]))
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    if "-out" in case:
        # an output path is checked before any work, so nothing is printed
        assert out == ""

