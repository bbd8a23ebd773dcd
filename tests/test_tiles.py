import itertools
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

import pytest

from braidtiles import artin, tiles
from braidtiles.graphs import HalfEdge, MarkedGraph
from braidtiles.tiles import (
    D,
    F,
    IdentityExpr,
    P,
    TileParseError,
    UnionExpr,
    compose,
    disjoint_union,
    endomorphism_presentation,
    enumerate_tiles,
    enumerate_trees,
    format_tile_expression,
    marked_graph_of,
    marked_point_count,
    normal_form,
    parse_tile_expression,
    to_expression,
)

WITNESS_TILE = "(((F + P) ; P) + 1_1) ; P"


def t(text: str):
    return parse_tile_expression(text)


# -- expressions and parsing ---------------------------------------------------

def test_atom_arities():
    assert (D.dom, D.cod) == (0, 1)
    assert (P.dom, P.cod) == (2, 1)
    assert (F.dom, F.cod) == (1, 1)
    assert (IdentityExpr(3).dom, IdentityExpr(3).cod) == (3, 3)


def test_compose_checks_arity():
    with pytest.raises(ValueError, match="produces 1 .* expects 2"):
        compose(F, P)


def test_union_binds_tighter_than_gluing():
    # D + D ; P only typechecks as (D + D) ; P
    expr = t("D + D ; P")
    assert (expr.dom, expr.cod) == (0, 1)


def test_parse_format_round_trip_frozen():
    for text in [
        "D",
        "1_0",
        "F ; F",
        "(F + P) ; P",
        "D + D ; P",
        WITNESS_TILE,
        "1_2 + F",
    ]:
        expr = t(text)
        assert t(format_tile_expression(expr)) == expr


def test_printer_emits_minimal_parens():
    assert format_tile_expression(t("(D + D) ; P")) == "D + D ; P"
    assert format_tile_expression(t("(F ; F) + P")) == "(F ; F) + P"


def test_parse_round_trip_over_enumeration():
    for level in enumerate_trees(3):
        for expr in level:
            assert t(format_tile_expression(expr)) == expr


@pytest.mark.parametrize(
    "text,position",
    [
        ("(F + P", 6),
        ("F ;", 3),
        ("F ; Q", 4),
        ("1_x", 0),
        ("F P", 2),
        ("", 0),
        ("1_３", 0),
        ("F ;\u3000F", 3),
        ("F\x0c; F", 1),
        # error order: a pending gluing is checked before a later syntax error or a missing ')'
        ("P ; D )", 2),
        ("(P ; D", 3),
        ("((F ; P", 4),
        ("(1_2 ; F) + P", 5),
        ("F ; 1_2 D", 2),
        ("(F F", 3),
        ("F )", 2),
        ("( )", 2),
        ("F ; (F ; F", 10),
        ("F + ;", 4),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(TileParseError) as err:
        t(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text,message,position",
    [
        # an unexpected character anywhere beats every grammar and gluing error
        ("F P Q", "unexpected character 'Q'", 4),
        ("F ; P Q", "unexpected character 'Q'", 6),
        ("P ; D ) Q", "unexpected character 'Q'", 8),
        ("F + ; Q", "unexpected character 'Q'", 6),
        ("F ; P )", "cannot glue: left tile produces 1 intervals, right tile expects 2", 2),
    ],
)
def test_parse_errors_come_in_the_order_of_a_full_tokenization(text, message, position):
    with pytest.raises(TileParseError) as err:
        t(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


NINES = "9" * 5000
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
@pytest.mark.parametrize(
    "text,position",
    [
        (f"1_{NINES}", 0),
        (f"F + 1_{NINES}", 4),
        # the numeral is read as a token, so it comes before a grammar or gluing error
        (f"F 1_{NINES}", 2),
        (f"F ; P ) 1_{NINES}", 8),
    ],
    ids=["alone", "in-a-union", "after-a-term", "after-a-gluing-error"],
)
def test_numerals_past_the_int_digit_limit_are_parse_errors(text, position):
    with pytest.raises(TileParseError) as err:
        t(text)
    assert str(err.value) == f"numeral too long: 5000 digits, the limit is {DIGIT_LIMIT} (at position {position})"
    assert err.value.position == position


def test_glue_mismatch_is_a_parse_error_with_position():
    with pytest.raises(TileParseError) as err:
        t("F ; P")
    assert "cannot glue" in str(err.value)
    assert err.value.position == 2


def test_identity_terms_are_built_once_per_spelling():
    expr = t("1_1 + 1_12 + 1_01 + 1_1")
    assert format_tile_expression(expr) == "1_1 + 1_12 + 1_1 + 1_1"
    assert (expr.dom, expr.cod) == (15, 15)
    ones = (expr.left.left.left, expr.left.right, expr.right)
    assert [e.width for e in ones] == [1, 1, 1]
    assert ones[0] is ones[2] and ones[1] is not ones[0]


def test_identity_terms_parse_in_linear_time(collector_off):
    # matching each 1_<n> term against a copy of the rest of the text would make this quadratic;
    # both sides are timed with the collector off, so the ratio measures the parser alone
    def parse_seconds(term):
        text = " + ".join([term] * 200_000)
        started = time.perf_counter()
        parse_tile_expression(text)
        return time.perf_counter() - started

    assert parse_seconds("1_1") <= 3 * parse_seconds("F")


# -- normal forms ----------------------------------------------------------------

def test_normal_form_of_single_atom():
    nf = normal_form(F)
    assert nf.to_json_obj() == {
        "dom": 1,
        "cod": 1,
        "nodes": [{"tag": "F", "inputs": [["in", 0]]}],
        "outputs": [["node", 0]],
    }


@pytest.mark.parametrize("text,obj", [
    ("(F + 1_1) ; P", {
        "dom": 2, "cod": 1,
        "nodes": [{"tag": "P", "inputs": [["node", 1], ["in", 1]]}, {"tag": "F", "inputs": [["in", 0]]}],
        "outputs": [["node", 0]],
    }),
    ("D + 1_2 ; P + F", {
        "dom": 2, "cod": 2,
        "nodes": [
            {"tag": "P", "inputs": [["node", 1], ["in", 0]]},
            {"tag": "D", "inputs": []},
            {"tag": "F", "inputs": [["in", 1]]},
        ],
        "outputs": [["node", 0], ["node", 2]],
    }),
    ("1_2 ; P", {
        "dom": 2, "cod": 1,
        "nodes": [{"tag": "P", "inputs": [["in", 0], ["in", 1]]}],
        "outputs": [["node", 0]],
    }),
])
def test_normal_form_json_frozen(text, obj):
    assert normal_form(t(text)).to_json_obj() == obj


def test_normal_form_wires_are_ints():
    # r >= 0 is the output of atom r, ~i is global input i
    nf = normal_form(t("D + 1_2 ; P + F"))
    assert nf.tags == ("P", "D", "F")
    assert nf.inputs == ((1, ~0), (), (~1,))
    assert nf.outputs == (0, 2)


def test_non_tiles_raise_type_error():
    @dataclass(frozen=True, slots=True, eq=False, repr=False)
    class Odd(tiles.TileExpr):
        def __post_init__(self) -> None:
            self._arity(1, 1)

    glued = compose(F, Odd())
    for stage in (format_tile_expression, normal_form, marked_graph_of):
        with pytest.raises(TypeError, match="^not a tile expression: Odd$"):
            stage(glued)
    with pytest.raises(TypeError, match="^not a tile expression: 'F'$"):
        normal_form("F")


class SubAtom(tiles.AtomExpr):
    pass


class SubIdentity(IdentityExpr):
    pass


class SubCompose(tiles.ComposeExpr):
    pass


class SubUnion(UnionExpr):
    pass


@pytest.mark.parametrize("make", [lambda: SubAtom("F"), lambda: SubIdentity(1), lambda: SubCompose(F, F),
                                  lambda: SubUnion(D, F)], ids=["atom", "identity", "compose", "union"])
def test_a_subclass_of_a_term_class_is_no_tile_expression(make):
    # every stage dispatches on the exact type, so none half-accepts a subclass
    message = f"not a tile expression: {type(make()).__name__}"
    for term, twin in [(make(), make()), (compose(F, make()), compose(F, make()))]:
        stages = (
            lambda: term == twin,
            lambda: twin == term,
            lambda: hash(term),
            lambda: format_tile_expression(term),
            lambda: normal_form(term),
            lambda: marked_graph_of(term),
            lambda: marked_point_count(term),
        )
        for stage in stages:
            with pytest.raises(TypeError) as err:
                stage()
            assert str(err.value) == message
    with pytest.raises(TypeError) as err:
        make() == F  # met at the root, before any comparison
    assert str(err.value) == message


def test_normal_form_round_trips_through_expression():
    rng = random.Random(6)
    pool = [expr for level in enumerate_trees(4) for expr in level]
    for expr in rng.sample(pool, 40):
        nf = normal_form(expr)
        assert normal_form(to_expression(nf)) == nf


def test_to_expression_rejects_an_atom_with_the_wrong_number_of_inputs():
    # P reads one wire where it takes two: the checked constructor says so,
    # and so does to_expression of the same fields built unchecked
    fields = (1, 1, ("P", "F"), ((1,), (~0,)), (0,))
    message = "^cannot glue: left tile produces 1 intervals, right tile expects 2$"
    with pytest.raises(ValueError, match=message):
        tiles.TileNormalForm(*fields)
    with pytest.raises(ValueError, match=message):
        to_expression(tiles._normal_form(*fields))


def test_interchange_frozen():
    lhs = compose(disjoint_union(F, P), disjoint_union(F, F))
    rhs = disjoint_union(compose(F, F), compose(P, F))
    assert normal_form(lhs) == normal_form(rhs)


def test_union_does_not_commute():
    assert normal_form(disjoint_union(F, P)) != normal_form(disjoint_union(P, F))


def test_identity_laws():
    assert normal_form(compose(IdentityExpr(1), F)) == normal_form(F)
    assert normal_form(compose(F, IdentityExpr(1))) == normal_form(F)
    assert normal_form(disjoint_union(t("1_0"), P)) == normal_form(P)


def test_associativity_of_both_operations():
    a, b, c = F, F, F
    assert normal_form(compose(compose(a, b), c)) == normal_form(compose(a, compose(b, c)))
    assert normal_form(disjoint_union(disjoint_union(a, b), c)) == normal_form(
        disjoint_union(a, disjoint_union(b, c))
    )


def test_interchange_random():
    rng = random.Random(17)
    trees = [expr for level in enumerate_trees(3) for expr in level]
    hits = 0
    while hits < 60:
        a, b, c, d = (rng.choice(trees) for _ in range(4))
        if a.cod != c.dom or b.cod != d.dom:
            continue
        hits += 1
        lhs = compose(disjoint_union(a, b), disjoint_union(c, d))
        rhs = disjoint_union(compose(a, c), compose(b, d))
        assert normal_form(lhs) == normal_form(rhs)


# -- marked graphs -----------------------------------------------------------------

def _is_forest_max_degree_3(g: MarkedGraph) -> bool:
    """A forest has one edge fewer than points per component; no point may
    lie on more than three edges."""
    degrees = Counter(itertools.chain.from_iterable(g.edges))
    return len(g.edges) == g.points - len(g.components()) and max(degrees.values(), default=0) <= 3


def test_graph_of_atoms():
    assert marked_graph_of(D) == MarkedGraph(0, ())
    p = marked_graph_of(P)
    assert (p.points, p.edges) == (1, ())
    assert [str(h) for h in p.half_edges] == ["in1->1", "in2->1", "out1->1"]
    f = marked_graph_of(F)
    assert (f.points, f.edges) == (2, ((1, 2),))
    assert [str(h) for h in f.half_edges] == ["in1->1", "out1->2"]


def test_graph_of_stacked_intervals_is_a_path():
    g = marked_graph_of(t("F ; F ; F"))
    assert MarkedGraph(g.points, g.edges) == MarkedGraph.path(6)
    assert [str(h) for h in g.half_edges] == ["in1->1", "out1->6"]


def test_cap_feeding_a_pair_of_pants_drops_its_stub():
    g = marked_graph_of(t("(D + 1_1) ; P"))
    assert (g.points, g.edges) == (1, ())
    assert [str(h) for h in g.half_edges] == ["in1->1", "out1->1"]


def test_witness_tile_graph():
    g = marked_graph_of(t(WITNESS_TILE))
    assert g.points == 5
    assert g.edges == ((1, 2), (2, 4), (3, 4), (4, 5))
    assert _is_forest_max_degree_3(g)


def test_marked_point_count_matches_graph():
    for level in enumerate_trees(3):
        for expr in level:
            assert marked_point_count(expr) == marked_graph_of(expr).points


def test_marked_point_count_of_a_padded_expression_matches_its_graph():
    # an expression is counted from its atoms, with no normal form; identity wires add no point
    for k, expr in enumerate(enumerate_tiles(5)):
        pad = IdentityExpr(k % 3)
        for padded in (disjoint_union(expr, IdentityExpr(k % 4)),
                       compose(disjoint_union(pad, expr), IdentityExpr(pad.cod + expr.cod))):
            assert marked_point_count(padded) == marked_graph_of(padded).points
            assert marked_graph_of(padded) == marked_graph_of(normal_form(padded))


def test_marked_point_count_of_a_deep_chain_needs_no_recursion():
    n = 100_000
    right_nested = F
    for _ in range(n - 1):
        right_nested = tiles.ComposeExpr(F, right_nested)
    assert marked_point_count(compose(*([F] * n))) == 2 * n
    assert marked_point_count(right_nested) == 2 * n


def test_all_small_tiles_yield_forests():
    for expr in enumerate_tiles(4):
        assert _is_forest_max_degree_3(marked_graph_of(expr))


def test_endomorphism_presentation_of_stacked_intervals():
    # 2k marked points on a path: the standard braid presentation appears
    for k in (1, 2, 3):
        expr = compose(*([F] * k))
        pres = tiles.endomorphism_presentation(expr)
        std = artin.braid_presentation(2 * k)
        assert len(pres.generators) == 2 * k - 1
        assert sorted(pres.relators) == sorted(std.relators)


# -- functoriality of the graph assignment -------------------------------------------

def test_union_graph_shifts_points_and_both_boundaries():
    # the second part comes after 3 points, 2 input and 1 output intervals
    left, right = t("(1_1 + F) ; P"), t("1_1 + F")
    halves = ((1, "in", 2), (3, "in", 1), (3, "out", 1), (4, "in", 4), (5, "out", 3))
    expected = MarkedGraph(5, ((1, 2), (2, 3), (4, 5)), tuple(HalfEdge(*h) for h in halves))
    assert marked_graph_of(disjoint_union(left, right)) == expected


# -- enumeration -----------------------------------------------------------------------

def test_tree_counts_match_recurrence():
    # t(1) = 3 atoms; a bigger tree is F or P over smaller ones
    counts = [len(level) for level in enumerate_trees(5)]
    expected = [3]
    for n in range(2, 6):
        total = 3 * expected[-1]  # F(sub), P(1_1 + sub), P(sub + 1_1)
        for a in range(1, n - 1):
            total += expected[a - 1] * expected[n - 2 - a]
        expected.append(total)
    assert counts == expected == [3, 9, 36, 162, 783]


def test_forest_counts_match_convolution():
    trees = [3, 9, 36, 162, 783]
    by_size = {}
    for expr in enumerate_tiles(5):
        by_size.setdefault(normal_form(expr).atom_count, []).append(expr)
    # ordered forests: compositions of tree sizes
    conv = {0: 1}
    for total in range(1, 6):
        conv[total] = sum(trees[first - 1] * conv[total - first] for first in range(1, total + 1))
    assert {k: len(v) for k, v in by_size.items()} == {k: conv[k] for k in range(1, 6)}
    assert sum(conv[k] for k in range(1, 6)) == 6240


def test_enumerated_tiles_are_distinct():
    seen = set()
    for expr in enumerate_tiles(4):
        nf = normal_form(expr)
        assert nf not in seen
        seen.add(nf)


def _recursive_tiles(max_atoms):
    """Ordered unions of trees by recursion over the remaining atoms."""
    trees = enumerate_trees(max_atoms)

    def forests(total, prefix):
        for size in range(1, total + 1):
            for tree in trees[size - 1]:
                union = tree if prefix is None else UnionExpr(prefix, tree)
                if size == total:
                    yield union
                else:
                    yield from forests(total - size, union)

    for total in range(1, max_atoms + 1):
        yield from forests(total, None)


@pytest.mark.parametrize("max_atoms", range(0, 7))
def test_enumerated_tiles_match_the_recursive_enumeration(max_atoms):
    assert list(enumerate_tiles(max_atoms)) == list(_recursive_tiles(max_atoms))


def test_distinct_graph_count_is_stable():
    shapes = {
        (marked_graph_of(expr).points, marked_graph_of(expr).edges)
        for expr in enumerate_tiles(5)
    }
    assert len(shapes) == 459


# -- the walks against recursive references --------------------------------------

def _format_by_recursion(e) -> str:
    if isinstance(e, tiles.AtomExpr):
        return e.tag
    if isinstance(e, IdentityExpr):
        return f"1_{e.width}"
    if isinstance(e, tiles.ComposeExpr):
        second = _format_by_recursion(e.second)
        if isinstance(e.second, tiles.ComposeExpr):
            second = f"({second})"
        return f"{_format_by_recursion(e.first)} ; {second}"
    left, right = _format_by_recursion(e.left), _format_by_recursion(e.right)
    if isinstance(e.left, tiles.ComposeExpr):
        left = f"({left})"
    if isinstance(e.right, (UnionExpr, tiles.ComposeExpr)):
        right = f"({right})"
    return f"{left} + {right}"


def _diagram_by_recursion(expr):
    tags, inputs = [], []

    def draw(e, src):  # e's output wires, for the input wires src
        if isinstance(e, tiles.AtomExpr):
            inputs.append(src)
            tags.append(e.tag)
            return [len(tags) - 1]
        if isinstance(e, IdentityExpr):
            return src
        if isinstance(e, tiles.ComposeExpr):
            return draw(e.second, draw(e.first, src))
        return draw(e.left, src[:e.left.dom]) + draw(e.right, src[e.left.dom:])

    outputs = draw(expr, [~i for i in range(expr.dom)])
    return tags, inputs, outputs


def _sweep_by_recursion(inputs, outputs, step):
    order = []

    def visit(wires):
        for w in wires[::step]:
            if w >= 0:
                order.append(w)
                visit(inputs[w])

    visit(outputs)
    return order


RIGHT_NESTED = ["F ; (F ; F)", "F + (F + (F ; F))", "F + (P ; (F ; (D + F ; P)))", "(F ; F) + (D ; F) + P",
                "F + (1_1 + P ; P)", "1_2 ; (P ; (F ; (1_1 ; F)))", "D + (D + (D + D)) ; (P + P ; P)"]


def test_the_walks_match_recursive_references():
    """The stack walks give what the recursive definitions give, on every
    tile of five atoms or fewer, bare and padded with identities, and on
    terms whose right parts nest, so that every step pushes one."""
    terms = [t(text) for text in RIGHT_NESTED]
    for expr in enumerate_tiles(5):
        terms += [expr, disjoint_union(IdentityExpr(1), expr, IdentityExpr(2)), compose(expr, IdentityExpr(expr.cod))]
    assert len(terms) == 3 * 6240 + len(RIGHT_NESTED)
    for expr in terms:
        assert format_tile_expression(expr) == _format_by_recursion(expr)
        tags, inputs, outputs = tiles._diagram(expr)
        assert (tags, inputs, outputs) == _diagram_by_recursion(expr)
        for step in (1, -1):
            assert tiles._sweep(inputs, outputs, step) == _sweep_by_recursion(inputs, outputs, step)
    assert [format_tile_expression(expr) for expr in terms[:len(RIGHT_NESTED)]] == RIGHT_NESTED


# -- deep inputs at the default recursion limit ---------------------------------

DEEP = 20_000


def _deep_cases():
    """(text, expected format, expected str(nf), points, edges, halves)."""
    n = DEEP
    chain = " ; ".join(["F"] * n)
    union = " + ".join(["F"] * n)
    caps = " + ".join(["D"] * n) + " ; " + union
    right_chain = "F ; (" * (n - 2) + "F ; F" + ")" * (n - 2)
    right_union = "F + (" * (n - 2) + "F + F" + ")" * (n - 2)
    return [
        pytest.param(chain, chain, chain, 2 * n, 2 * n - 1, 2, id="F-chain"),
        pytest.param(union, union, union, 2 * n, n, 2 * n, id="F-union"),
        pytest.param("(" * n + "F" + ")" * n, "F", "F", 2, 1, 2, id="nested-parentheses"),
        pytest.param(caps, caps, " + ".join(["(D ; F)"] * n), 2 * n, n, n, id="D-union-glued-to-F-union"),
        # every step of a walk pushes the right part that waits
        pytest.param(right_chain, right_chain, chain, 2 * n, 2 * n - 1, 2, id="right-nested-F-chain"),
        pytest.param(right_union, right_union, union, 2 * n, n, 2 * n, id="right-nested-F-union"),
    ]


@pytest.mark.parametrize("text,formatted,nf_text,points,edges,halves", _deep_cases())
def test_deep_inputs_through_the_library(text, formatted, nf_text, points, edges, halves):
    expr = parse_tile_expression(text)
    again = parse_tile_expression(formatted)
    assert expr == again and not expr != again
    assert hash(expr) == hash(again)
    assert repr(expr) == f"parse_tile_expression({formatted!r})"
    nf = normal_form(expr)
    graph = marked_graph_of(nf)
    assert format_tile_expression(expr) == formatted
    assert str(nf) == nf_text
    assert (graph.points, len(graph.edges), len(graph.half_edges)) == (points, edges, halves)
    assert marked_point_count(expr) == points
