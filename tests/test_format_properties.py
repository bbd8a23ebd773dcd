"""Round-trip properties parse(format(x)) == x for the text and JSON formats
other than tiles (those are in test_tile_properties.py)."""

import itertools
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidtiles.artin import Presentation  # noqa: E402
from braidtiles.braid import BraidWord, format_braid_word, parse_braid_word  # noqa: E402
from braidtiles.graphs import HalfEdge, MarkedGraph  # noqa: E402
from braidtiles.linalg import ExactMatrix, format_scalar, parse_scalar  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def _json_text(obj):
    """The object as the CLI reads it: through JSON text."""
    return json.loads(json.dumps(obj))


def _words(n, max_size):
    """Words of signed generator indices over n generators."""
    if not n:
        return st.just(())
    return st.lists(st.integers(1, n).flatmap(lambda i: st.sampled_from([i, -i])), max_size=max_size).map(tuple)


@st.composite
def braid_words(draw):
    n = draw(st.integers(1, 8) | st.just(10**12))
    return BraidWord(n, draw(_words(min(n - 1, 10**6), 20)))


@PROPERTY
@given(braid_words())
def test_braid_words_round_trip(word):
    assert parse_braid_word(format_braid_word(word)) == word


# a name is any nonempty run of characters other than ASCII spaces and '^',
# other than 'e' (the empty word)
_names = st.text(
    st.characters(exclude_characters=" \t\n\r^", exclude_categories=("Cs",)), min_size=1, max_size=4
).filter(lambda name: name != "e")


@st.composite
def presentations(draw):
    generators = tuple(draw(st.lists(_names, max_size=6, unique=True)))
    return Presentation(generators, tuple(draw(st.lists(_words(len(generators), 6), max_size=4))))


@PROPERTY
@given(presentations(), st.data())
def test_edge_words_round_trip(pres, data):
    word = data.draw(_words(len(pres.generators), 12))
    assert pres.parse_word(pres.format_word(word)) == word


@PROPERTY
@given(presentations())
def test_presentation_json_round_trips(pres):
    assert Presentation.from_json_obj(_json_text(pres.to_json_obj())) == pres


scalars = st.integers() | st.fractions()


@PROPERTY
@given(scalars)
def test_scalars_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4)) if rows else 0  # "[]" is the 0x0 matrix
    return ExactMatrix.from_rows([[draw(scalars) for _ in range(cols)] for _ in range(rows)], cols=cols)


@PROPERTY
@given(matrices())
def test_matrix_json_round_trips(m):
    assert ExactMatrix.from_json_obj(_json_text(m.to_json_obj())) == m


@st.composite
def graphs(draw):
    points = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(1, points + 1), 2))
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))) if pairs else ()
    half_edge = st.builds(HalfEdge, st.integers(1, points), st.sampled_from(["in", "out"]), st.integers(1, 4))
    half_edges = tuple(draw(st.lists(half_edge, max_size=4))) if points else ()
    return MarkedGraph(points, edges, half_edges)


@PROPERTY
@given(graphs())
def test_graph_json_round_trips(g):
    assert MarkedGraph.from_json_obj(_json_text(g.to_json_obj())) == g
