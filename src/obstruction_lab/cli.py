"""Command-line entry point: check, find, minor, embed, verify, sweep, gen, grow.

Graphs stream one graph6 line at a time (or a single edge-list document), so
external generators can be piped straight into the sweeps and checkers.  Exit
codes: 0 clean, 1 violation found, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import sys
import textwrap
from typing import Iterator

from . import detectors, sweeps
from .detectors import certificate_from_dict, validate_certificate
from .errors import ContractViolation, GraphFormatError
from .graphs import SimpleGraph, parse_edgelist, parse_graph6, write_graph6
from .ktrees import KTree, cone, embed_in_ktree, gen_tdr
from .minors import triangle_minor
from .pipeline import pipeline_grow
from .predicates import verify_witness, witness_from_dict
from .sweeps import random_two_tree

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _open_text(path: str):
    """The named file, or stdin for "-"; stdin stays open after the block."""
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path)


def _read_text(path: str) -> str:
    with _open_text(path) as fh:
        return fh.read()


def _check_writable(path: str | None) -> None:
    """Raise OSError now, before any work, if `path` cannot be written; a
    file this check creates is removed again."""
    if path is None:
        return
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _write_json(path: str, doc) -> None:
    """The one JSON writer for `--out` files: indented, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_graphs(path: str, fmt: str) -> Iterator[tuple[int, SimpleGraph]]:
    """(line number, graph) for each non-blank graph6 line, read and parsed
    one line at a time; a malformed line raises GraphFormatError naming its
    line.  An edge list is one document, reported as line 1."""
    if fmt == "edgelist":
        yield 1, parse_edgelist(_read_text(path))
        return
    with _open_text(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                g = parse_graph6(line)
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {number}: {exc}") from None
            yield number, g


def _read_one_graph(path: str, fmt: str) -> SimpleGraph:
    """The input's only graph; reading stops at a second one."""
    with contextlib.closing(_read_graphs(path, fmt)) as stream:
        graphs = [g for _, g in itertools.islice(stream, 2)]
    if len(graphs) != 1:
        raise ContractViolation(f"expected exactly one graph, got {'2 or more' if graphs else 0}")
    return graphs[0]


def _cmd_check(args) -> int:
    worst = EXIT_OK
    name = f"E_{args.t}" if args.t else "E"
    for _, g in _read_graphs(args.input, args.format):
        verdict = detectors.in_class_et(g, args.t) if args.t else detectors.in_class_e(g)
        if verdict.member:
            print(f"{write_graph6(g)}: member of {name}")
        else:
            worst = EXIT_VIOLATION
            print(f"{write_graph6(g)}: violation {json.dumps(verdict.violation.to_dict())}")
    return worst


_FINDERS = {
    "hole": lambda g, a: detectors.find_hole(g, parity=a.parity, min_len=a.min_len),
    "theta": lambda g, a: detectors.find_theta(g),
    "prism": lambda g, a: detectors.find_prism(g),
    "even-wheel": lambda g, a: detectors.find_even_wheel(g),
    "clique": lambda g, a: detectors.has_clique(g, a.size),
    "biclique": lambda g, a: detectors.has_biclique(g, a.size),
}


def _cmd_find(args) -> int:
    """Each result is printed as its line is read: one graph as an object, several
    as the indent=2 list, closed over the lines before one that fails."""
    _check_writable(args.out)
    found, count = [], 0
    try:
        for _, g in _read_graphs(args.input, args.format):
            cert = _FINDERS[args.structure](g, args)
            result = {"graph6": write_graph6(g), "found": cert is not None}
            if cert:
                result["certificate"] = cert.to_dict(g)
                found.append(result["certificate"])
            count += 1
            if count == 1:
                first = result  # printed once the next line shows whether it heads a list
                continue
            if count == 2:
                print("[\n" + textwrap.indent(json.dumps(first, indent=2), "  "), end="")
            print(",\n" + textwrap.indent(json.dumps(result, indent=2), "  "), end="")
    finally:
        if count:
            print(json.dumps(first, indent=2) if count == 1 else "\n]")
    if not count:
        print("[]")
    if args.out:
        # the file variant is the bare certificate so `verify` can consume it
        if not found:
            print("nothing found; no witness file written", file=sys.stderr)
        else:
            _write_json(args.out, found[0] if len(found) == 1 else found)
    return EXIT_OK


def _cmd_minor(args) -> int:
    g = _read_one_graph(args.input, args.format)
    minor, z, mapping = triangle_minor(g, args.z1, args.z2)
    print(write_graph6(minor))
    if args.explain:
        print(f"# z={z} mapping={list(mapping)}", file=sys.stderr)
    return EXIT_OK


def _cmd_embed(args) -> int:
    g = _read_one_graph(args.input, args.format)
    tree, emb = embed_in_ktree(g, args.k)
    sys.stdout.write(tree.to_text())
    print(" ".join(f"{i}:{v}" for i, v in enumerate(emb)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    """One `kind: …` line per object; a non-empty list, as `find --out`
    writes for several graphs, is checked element by element."""
    text = _read_text(args.witness)
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ContractViolation("witness file nests JSON too deeply to decode") from None
    failed = [_verify_one(d) for d in (doc if isinstance(doc, list) and doc else [doc])]
    return EXIT_VIOLATION if any(failed) else EXIT_OK


def _verify_one(doc) -> bool:
    """Print the verdict on one certificate or witness; True if it fails."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str):
        raise ContractViolation(
            "witness file must be a JSON object with a string 'kind' field, or a non-empty list of them"
        )
    if kind in detectors.CERTIFICATE_KINDS:
        if "graph6" not in doc:
            raise ContractViolation(f"{kind} certificate has no 'graph6' field")
        g = parse_graph6(doc["graph6"])
        bad = None if validate_certificate(g, certificate_from_dict(doc)) else "invalid certificate"
    else:
        clause = verify_witness(*witness_from_dict(doc))
        bad = None if clause is None else f"clause {clause} violated"
    print(f"{kind}: {bad or 'ok'}")
    return bad is not None


_SWEEPS = {
    "thm31": lambda args: sweeps.sweep_thm31(args.max_n, args.threads),
    "thm31-mutated": lambda args: sweeps.sweep_thm31(args.max_n, args.threads, mutate=True),
    "thm32": lambda args: sweeps.sweep_thm32(args.max_n, args.threads),
    "even-hole-subset": lambda args: sweeps.sweep_even_hole_subset_E(args.max_n, args.threads),
    "embed": lambda args: sweeps.sweep_embed(args.max_n, args.k, args.threads),
    "c4-necessity": lambda args: sweeps.sweep_c4_necessity(args.max_n, args.threads),
    "obs51": lambda args: sweeps.sweep_obs51(args.trials, args.seed),
}


def _cmd_sweep(args) -> int:
    _check_writable(args.out)
    report = _SWEEPS[args.suite](args)
    print(report.summary())
    if args.out:
        _write_json(args.out, report.to_dict())
    if args.suite == "c4-necessity" and not report.findings:
        print("no exemplar found", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_gen(args) -> int:
    if args.what == "cone":
        g = _read_one_graph(args.input, args.format)
        print(write_graph6(cone(g)))
        return EXIT_OK
    if args.what == "tdr":
        print(write_graph6(gen_tdr(args.d, args.r)))
        return EXIT_OK
    rng = random.Random(args.seed)
    if args.what == "ktree-random":
        sys.stdout.write(random_two_tree(rng, args.n)[0].to_text())
        return EXIT_OK
    if not 0 <= args.p <= 1:  # false for NaN too
        raise ContractViolation(f"edge probability {args.p} outside [0, 1]")
    # a generator, so from_edges refuses an over-cap n before any pair is drawn
    edges = ((i, j) for i in range(args.n) for j in range(i + 1, args.n) if rng.random() < args.p)
    print(write_graph6(SimpleGraph.from_edges(args.n, edges)))
    return EXIT_OK


def _cmd_grow(args) -> int:
    g = _read_one_graph(args.input, args.format)
    target = KTree.from_text(_read_text(args.target))
    trace = pipeline_grow(g, target, budget=args.budget, t=args.t)
    print(json.dumps(trace.to_dict(g), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="obstruction-lab")
    sub = top.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", default="-", help="path or - for stdin")
        p.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")

    p = sub.add_parser("check", help="class membership verdict with certificate")
    add_io(p)
    p.add_argument("--t", type=int, default=0, help="also require K_t-freeness")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("find", help="search one named structure")
    add_io(p)
    p.add_argument("--structure", required=True, choices=sorted(_FINDERS))
    p.add_argument("--parity", choices=["any", "even", "odd"], default="any")
    p.add_argument("--min-len", type=int, default=4, dest="min_len")
    p.add_argument("--size", type=int, default=3, help="clique/biclique size")
    p.add_argument("--out", help="write the result JSON here")
    p.set_defaults(fn=_cmd_find)

    p = sub.add_parser("minor", help="triangle minor of an adjacent pair")
    add_io(p)
    p.add_argument("--z1", type=int, required=True)
    p.add_argument("--z2", type=int, required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("embed", help="embed a chordal K_{k+2}-free graph in a k-tree")
    add_io(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("verify", help="re-verify a witness or certificate file")
    p.add_argument("witness", help="witness JSON path or - for stdin")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="run a named theorem suite")
    p.add_argument("suite", choices=sorted(_SWEEPS))
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("gen", help="generate cone | tdr | ktree-random | random-graph")
    p.add_argument("what", choices=["cone", "tdr", "ktree-random", "random-graph"])
    add_io(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("grow", help="best-effort blurry 2-tree growing pipeline")
    add_io(p)
    p.add_argument("--target", required=True, help="k-tree file: graph6 line + ordering line")
    p.add_argument("--budget", type=int, default=500000)
    p.add_argument("--t", type=int, default=4)
    p.set_defaults(fn=_cmd_grow)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ContractViolation, GraphFormatError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
