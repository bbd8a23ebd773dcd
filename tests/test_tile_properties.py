"""Property tests over random well-typed tile expressions."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidtiles.tiles import (  # noqa: E402
    AtomExpr,
    ComposeExpr,
    D,
    F,
    IdentityExpr,
    P,
    TileExpr,
    UnionExpr,
    format_tile_expression,
    marked_graph_of,
    marked_point_count,
    normal_form,
    parse_tile_expression,
    to_expression,
)

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def _glue(pair: tuple[TileExpr, TileExpr]) -> TileExpr:
    """``a ; b`` after padding the narrower side with through-wires."""
    a, b = pair
    if a.cod < b.dom:
        a = UnionExpr(a, IdentityExpr(b.dom - a.cod))
    elif b.dom < a.cod:
        b = UnionExpr(b, IdentityExpr(a.cod - b.dom))
    return ComposeExpr(a, b)


def _grow(parts: st.SearchStrategy) -> st.SearchStrategy:
    pairs = st.tuples(parts, parts)
    return pairs.map(lambda ab: UnionExpr(*ab)) | pairs.map(_glue)


expressions = st.recursive(
    st.sampled_from([D, P, F]) | st.integers(0, 2).map(IdentityExpr), _grow, max_leaves=12
)


def _atoms(expr: TileExpr) -> list[str]:
    tags, stack = [], [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, AtomExpr):
            tags.append(e.tag)
        elif isinstance(e, UnionExpr):
            stack += [e.left, e.right]
        elif isinstance(e, ComposeExpr):
            stack += [e.first, e.second]
    return tags


@PROPERTY
@given(expressions)
def test_format_parse_format_is_a_fixed_point(expr):
    text = format_tile_expression(expr)
    parsed = parse_tile_expression(text)
    assert parsed == expr
    assert format_tile_expression(parsed) == text


def _rebuilt(expr: TileExpr) -> TileExpr:
    """``expr`` rebuilt node by node with the public classes, which check
    every arity; each node must keep its type, dom and cod."""
    if isinstance(expr, ComposeExpr):
        out = ComposeExpr(_rebuilt(expr.first), _rebuilt(expr.second))
    elif isinstance(expr, UnionExpr):
        out = UnionExpr(_rebuilt(expr.left), _rebuilt(expr.right))
    elif isinstance(expr, AtomExpr):
        out = AtomExpr(expr.tag)
    else:
        out = IdentityExpr(expr.width)
    assert (type(out), out.dom, out.cod) == (type(expr), expr.dom, expr.cod)
    return out


@PROPERTY
@given(expressions)
def test_parsed_terms_match_the_public_constructors(expr):
    parsed = parse_tile_expression(format_tile_expression(expr))
    assert _rebuilt(parsed) == parsed


@PROPERTY
@given(expressions)
def test_normal_form_survives_the_canonical_expression(expr):
    nf = normal_form(expr)
    assert normal_form(to_expression(nf)) == nf


@PROPERTY
@given(expressions, expressions)
def test_normal_form_is_invariant_under_interchange(a, b):
    side_by_side = normal_form(UnionExpr(a, b))
    a_first = ComposeExpr(UnionExpr(a, IdentityExpr(b.dom)), UnionExpr(IdentityExpr(a.cod), b))
    b_first = ComposeExpr(UnionExpr(IdentityExpr(a.dom), b), UnionExpr(a, IdentityExpr(b.cod)))
    assert normal_form(a_first) == side_by_side == normal_form(b_first)
    # the graph is read off each staging's own diagram, whatever its numbering
    graph = marked_graph_of(normal_form(a_first))
    assert marked_graph_of(a_first) == marked_graph_of(UnionExpr(a, b)) == marked_graph_of(b_first) == graph


@PROPERTY
@given(expressions)
def test_marked_points_are_two_per_f_and_one_per_p(expr):
    tags = _atoms(expr)
    expected = 2 * tags.count("F") + tags.count("P")
    assert marked_point_count(expr) == expected
    assert marked_graph_of(expr).points == expected
