"""Fuzzed input boundary: every parser either parses its input or raises one
of the typed errors the CLI turns into exit code 2."""

from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab.detectors import certificate_from_dict, validate_certificate
from obstruction_lab.errors import ContractViolation, GraphFormatError
from obstruction_lab.graphs import parse_edgelist, parse_graph6, write_graph6
from obstruction_lab.graphs import complete_graph, cycle_graph
from obstruction_lab.ktrees import KTree
from obstruction_lab.predicates import verify_witness, witness_from_dict

TYPED = (GraphFormatError, ContractViolation)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

GRAPH6 = st.sampled_from([write_graph6(g) for g in (complete_graph(2), cycle_graph(5), complete_graph(4))])
# JSON values, biased toward small ints so that some documents are nearly valid
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers() | st.text(max_size=3) | GRAPH6,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
CERTIFICATE_FIELDS = ("kind", "cycle", "center", "ends", "paths", "triangles", "vertices", "side_a", "side_b")
WITNESS_FIELDS = (
    "kind", "graph6", "a", "x", "y", "paths", "s_set", "path", "pi", "zset", "y_edges", "order",
    "target_graph6", "target_k", "target_order", "k", "block", "families", "pair",
)
KINDS = ("hole", "theta", "prism", "even_wheel", "clique", "biclique", "kaleidoscope", "palanquin",
         "alignment", "blurry", "strong_block", "other")


def _documents(fields):
    values = st.one_of(st.sampled_from(KINDS), JSON)
    return st.dictionaries(st.sampled_from(fields), values, max_size=len(fields))


def _parses_or_typed(fn, *args):
    try:
        return fn(*args)
    except TYPED:
        return None


@given(st.text(max_size=40) | st.binary(max_size=20).map(lambda b: b.decode("latin-1")))
@FUZZ
def test_parse_graph6_fuzz(text):
    g = _parses_or_typed(parse_graph6, text)
    if g is not None:
        g.validate()


def _graph6_line(n: int, sextets: list[int], clear_padding: bool) -> str:
    """A graph6 line with header n and the body bytes 63 + sextets[i], cut or
    padded with zeros to the body length; `clear_padding` zeroes the bits
    past the upper triangle."""
    nbits = n * (n - 1) // 2
    body = (sextets + [0] * ((nbits + 5) // 6))[: (nbits + 5) // 6]
    if body and clear_padding:
        body[-1] &= (0x3F << (-nbits % 6)) & 0x3F
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    return head + "".join(chr(63 + b) for b in body)


@given(st.integers(0, 128), st.lists(st.integers(0, 63), max_size=1400), st.booleans())
@FUZZ
def test_parse_graph6_builds_valid_graphs(n, sextets, clear_padding):
    # the parser skips validate() on the rows it builds; every graph it
    # returns must still pass it, and write back to the same line
    line = _graph6_line(n, sextets, clear_padding)
    g = _parses_or_typed(parse_graph6, line)
    if clear_padding:
        assert g is not None
    if g is not None:
        assert g.validate() is g and g.n == n
        assert write_graph6(g) == line


@given(st.one_of(
    st.text(max_size=40),
    st.lists(st.tuples(st.integers(-3, 200), st.integers(-3, 200)), max_size=6).map(
        lambda rows: "\n".join(f"{u} {v}" for u, v in rows)
    ),
    st.tuples(st.integers(), st.text(max_size=20)).map(lambda t: f"{t[0]}\n{t[1]}"),
))
@FUZZ
def test_parse_edgelist_fuzz(text):
    _parses_or_typed(parse_edgelist, text)


@given(_documents(CERTIFICATE_FIELDS))
@FUZZ
def test_certificate_from_dict_fuzz(doc):
    cert = _parses_or_typed(certificate_from_dict, doc)
    if cert is not None:
        # validation either answers or rejects the certificate as malformed
        _parses_or_typed(validate_certificate, cycle_graph(5), cert)


@given(_documents(WITNESS_FIELDS))
@FUZZ
def test_witness_from_dict_fuzz(doc):
    parsed = _parses_or_typed(witness_from_dict, doc)
    if parsed is not None:
        # verification either answers or rejects the witness as malformed
        _parses_or_typed(verify_witness, *parsed)


@given(st.one_of(
    st.text(max_size=40),
    st.tuples(GRAPH6, st.lists(st.integers(-3, 6), max_size=6)).map(
        lambda t: t[0] + "\n" + " ".join(map(str, t[1]))
    ),
))
@FUZZ
def test_ktree_from_text_fuzz(text):
    _parses_or_typed(KTree.from_text, text)
