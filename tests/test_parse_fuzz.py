"""Fuzzing of the text parsers: token documents make them raise nothing
but ``ParseError`` subclasses, and the text formats round-trip.

Documents join tokens from a fixed alphabet with separators, never free
text: a long digit string in a header would make a parser allocate per
declared vertex.
"""

import itertools

import pytest

from fbranch.cutfn import FamilySelector
from fbranch.decomp import (
    BranchDecomposition,
    decomposition_to_text,
    parse_decomposition,
)
from fbranch.errors import ParseError
from fbranch.families import FAMILY_ORDER, OrderedBipartiteGraph, parse_ordered_bipartite
from fbranch.graph import Graph, graph_to_text, parse_graph
from fbranch.typseq import BOTTOM, format_sequence, parse_sequence
from test_decomp import enumerate_decompositions

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)
ROUND_TRIP = settings(max_examples=100, deadline=None, derandomize=True, database=None)

TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["tree", "t", "leaf", "_|_", ",", "x", "1.5", "-", "0x1",
                     "match", "chain", "ntc", "all", "primal"]))
SEPARATORS = st.sampled_from([" ", "\n", "\t", ",", "\n\n", " ,"])
DOCUMENTS = st.lists(st.tuples(TOKENS, SEPARATORS), max_size=40).map(
    lambda parts: "".join(token + sep for token, sep in parts))

PARSERS = (parse_graph, parse_decomposition, parse_ordered_bipartite,
           parse_sequence, FamilySelector.parse)


@FUZZ
@given(DOCUMENTS)
@example("-1")
@example("0")
@example("tree 5\nt 0 1\n")
@example("trees 3\n")
@example("3 1\n0 0\n")
@example("1,_|_,x")
def test_parsers_raise_only_parse_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ParseError:
            pass


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@ROUND_TRIP
@given(graphs())
def test_graph_text_round_trip(g):
    assert parse_graph(graph_to_text(g)) == g


@st.composite
def decompositions(draw):
    n = draw(st.integers(0, 6))
    shapes = list(enumerate_decompositions(n))
    shape = shapes[draw(st.integers(0, len(shapes) - 1))]
    perm = draw(st.permutations(range(n)))
    return BranchDecomposition(shape.num_nodes, shape.edges,
                               {leaf: perm[v] for leaf, v in shape.leaf_map.items()})


@ROUND_TRIP
@given(decompositions())
def test_decomposition_text_round_trip(bd):
    back = parse_decomposition(decomposition_to_text(bd))
    assert (back.num_nodes, back.edges, back.leaf_map) == (bd.num_nodes, bd.edges, bd.leaf_map)


@st.composite
def ordered_bipartite(draw):
    q = draw(st.integers(1, 5))
    cells = list(itertools.product(range(q), repeat=2))
    return OrderedBipartiteGraph(q, frozenset(draw(st.lists(st.sampled_from(cells)))))


@ROUND_TRIP
@given(ordered_bipartite())
def test_ordered_bipartite_text_round_trip(h):
    text = f"{h.q}\n" + "".join(f"{i + 1} {j + 1}\n" for i, j in sorted(h.edges))
    assert parse_ordered_bipartite(text) == h


@ROUND_TRIP
@given(st.lists(st.one_of(st.integers(0, 40), st.just(BOTTOM)), min_size=1, max_size=12))
def test_sequence_text_round_trip(entries):
    assert parse_sequence(format_sequence(entries)) == tuple(entries)


@ROUND_TRIP
@given(st.one_of(st.just(FamilySelector(ntc=True)),
                 st.sets(st.sampled_from(FAMILY_ORDER), min_size=1).map(
                     lambda fams: FamilySelector(families=frozenset(fams)))))
def test_family_selector_round_trip(sel):
    assert FamilySelector.parse(sel.name()) == sel
