"""Checked at the boundary, trusted inside.

Every class with a checked constructor has one private builder, which the
package uses for the values it derives from values already known to be
valid (atoms have none: ``to_expression`` builds them checked, from a
normal form's tags).  One table row per class: a corpus of derived values is built with the class's
check counted, and must run none; each value is then rebuilt through the
public constructor, which must run one check apiece and give a value that
is equal, hashes the same and holds the field types the row names.  The
public constructors and parsers keep every message.
"""

import dataclasses
import functools
import itertools
import random
import sys
from typing import Callable, NamedTuple

import pytest

from braidtiles import artin, braid, homs, tiles, verify
from braidtiles.artin import CoxeterSystem, Presentation
from braidtiles.braid import BraidParseError, BraidWord, Permutation, parse_braid_word
from braidtiles.graphs import HalfEdge, MarkedGraph
from braidtiles.linalg import ExactMatrix
from braidtiles.tiles import AtomExpr, ComposeExpr, IdentityExpr, TileExpr, TileNormalForm, UnionExpr

WITNESS_TILE = "(((F + P) ; P) + 1_1) ; P"


def _holds(x, spec) -> bool:
    """``x`` holds the type ``spec`` names: ``(container, item)`` is a
    container of exactly that type whose every entry holds ``item``; a class
    is an instance of it, never a bool."""
    if isinstance(spec, tuple):
        container, item = spec
        return type(x) is container and all(_holds(v, item) for v in x)
    return isinstance(x, spec) and type(x) is not bool


def _rebuilt(value):
    """``value`` built again by its class's public constructor."""
    return type(value)(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init})


# -- braid words and permutations ----------------------------------------------

def _words() -> list[BraidWord]:
    """Words from every path that derives one: products, inverses, mirrors,
    reductions, parsed text, cables, band generators, half-twist images,
    the word ``equal`` hands to ``is_trivial``, and verify's random words."""
    rng = random.Random(0)
    out = []
    for n, length in itertools.product(range(1, 7), (0, 1, 5, 16)):
        x, y = (verify._random_word(rng, n, length, length) for _ in range(2))
        out += [x, x * y, x.inverse(), braid.mirror(x), braid.handle_reduce(x * y),
                parse_braid_word(braid.format_braid_word(x))]
    for q, k in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 3)]:
        out.append(braid.cable(q, k, verify._random_word(rng, q, 6, 0),
                               [verify._random_word(rng, k, 4, 0) for _ in range(q)]))
    out += [homs.band_generator(k, i, j) for k in range(2, 7) for i, j in itertools.combinations(range(1, k + 1), 2)]
    for graph in (g for g in verify._distinct_graphs(4) if g.points):  # a braid needs a strand
        word = [rng.choice((1, -1)) * rng.randint(1, len(graph.edges)) for _ in range(6)] if graph.edges else []
        out.append(homs.half_twist_image(graph, word))
    with pytest.MonkeyPatch.context() as mp:  # equal builds one word and hands it to is_trivial
        mp.setattr(braid, "is_trivial", out.append)
        for x, y in zip(out[:40], out[40:80]):
            if x.n == y.n:
                braid.equal(x, y)
    # is_trivial reads the reduced letters and builds no word at all
    words = [parse_braid_word(text) for text in
             ("b4: s1 s2 s2^-1 s1^-1", "b4: s1 s2 s3^-1", "b3: " + " ".join(["s1 s2^-1"] * 50))]
    assert [braid.is_trivial(word) for word in words] == [True, False, False]
    return out + words + [braid.handle_reduce(words[1])]


def _permutations() -> list[Permutation]:
    return [braid.underlying_permutation(word) for word in _words()]


def _mirrored_pairs() -> list[homs.MirroredPair]:
    return [homs.mirrored_pair(word) for word in _words()]


# -- matrices -------------------------------------------------------------------

def _matrices() -> list[ExactMatrix]:
    """Identities, symplectic images, and edge-transvection and Coxeter
    images of random words, every one a fold of int factors; and wreath
    images placed from such rows: block permutation images and cabling's
    blockwise images."""
    rng = random.Random(0)
    out = [ExactMatrix.identity(n) for n in range(7)]
    for g, length in itertools.product((1, 2, 3), (0, 1, 8, 30)):
        out.append(homs.braid_to_symplectic(g, verify._random_word(rng, 2 * g, length, length)))
    for graph in verify._distinct_graphs(4):
        if graph.edges:
            word = [rng.choice((1, -1)) * rng.randint(1, len(graph.edges)) for _ in range(8)]
            out += [homs.edge_transvection_image(graph, word), CoxeterSystem(graph).image(word)]
    for k, g in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        out.append(homs.block_permutation_image(k, g, verify._random_word(rng, k, 8, 0)))
    for q, g in itertools.product((1, 2, 3), (1, 2)):
        sigma = verify._random_word(rng, q, 6, 0)
        mus = [verify._random_word(rng, 2 * g, 6, 0) for _ in range(q)]
        out.append(homs.cabling_discrepancy(g, q, sigma, mus).blockwise)
    return out


# -- what the package derives from a tile diagram -------------------------------

@functools.lru_cache(maxsize=None)
def _tiles() -> tuple:
    """The 921 forests of ``enumerate_tiles(4)``, the trees of
    ``enumerate_trees(5)``, F-chains of depth 1-100, and the witness tile."""
    forests = list(tiles.enumerate_tiles(4))
    assert len(forests) == 921
    trees = [e for level in tiles.enumerate_trees(5) for e in level]
    chains = [tiles.parse_tile_expression(" ; ".join(["F"] * depth)) for depth in range(1, 101)]
    return forests, trees, chains, tiles.parse_tile_expression(WITNESS_TILE)


def _normal_forms() -> list[TileNormalForm]:
    forests, trees, chains, witness = _tiles()
    return [tiles.normal_form(expr) for expr in forests + trees + chains + [witness]]


def _graphs() -> list[MarkedGraph]:
    """Each tile's marked graph, from the term and from its normal form
    (the two must agree), and verify's distinct graphs of up to 3 and 5
    atoms; the witness tile's presentations build graphs too."""
    forests, trees, chains, witness = _tiles()
    out = []
    for expr in forests + trees + chains + [witness]:
        graph = tiles.marked_graph_of(expr)
        assert tiles.marked_graph_of(tiles.normal_form(expr)) == graph
        out.append(graph)
    for tile in (witness, tiles.normal_form(witness)):
        tiles.endomorphism_presentation(tile)
    return out + verify._distinct_graphs(3) + verify._distinct_graphs(5)


def _presentations() -> list[Presentation]:
    forests, trees, chains, witness = _tiles()
    out = [tiles.endomorphism_presentation(tile) for tile in (witness, tiles.normal_form(witness))]
    out += [tiles.endomorphism_presentation(expr) for expr in forests + trees + chains]
    out += [artin.presentation_from_graph(graph) for graph in verify._distinct_graphs(5)]
    return out + [artin.braid_presentation(k) for k in range(1, 7)]


def _terms(cls: type) -> Callable[[], list]:
    """The nodes of type ``cls`` in every forest and tree, in the term parsed
    back from its text (which must equal it), and in the term rebuilt from
    its normal form: enumeration, parsing and ``to_expression`` build them.
    Every atom on the way must keep the arity its tag gives."""
    def corpus() -> list:
        forests, trees, _, witness = _tiles()
        stack = [witness]
        for expr in forests + trees:
            parsed = tiles.parse_tile_expression(tiles.format_tile_expression(expr))
            assert parsed == expr
            stack += [expr, parsed, tiles.to_expression(tiles.normal_form(expr))]
        out = []
        while stack:
            node = stack.pop()
            if type(node) is cls:
                out.append(node)
            if isinstance(node, ComposeExpr):
                stack += [node.first, node.second]
            elif isinstance(node, UnionExpr):
                stack += [node.left, node.right]
            elif isinstance(node, AtomExpr):
                assert (node.dom, node.cod) == (AtomExpr(node.tag).dom, AtomExpr(node.tag).cod)
        return out
    return corpus


class Row(NamedTuple):
    cls: type  # its __post_init__ checks
    fields: dict  # every field, and the type it holds (``_holds``)
    corpus: Callable[[], list]  # values that the package derives


ARITY = {"dom": int, "cod": int}
ROWS = [
    Row(BraidWord, {"n": int, "letters": (tuple, int)}, _words),
    Row(Permutation, {"images": (tuple, int)}, _permutations),
    Row(homs.MirroredPair, {"first": BraidWord, "second": BraidWord}, _mirrored_pairs),
    Row(ExactMatrix, {"rows": int, "cols": int, "entries": (tuple, (tuple, int))}, _matrices),
    Row(MarkedGraph, {"points": int, "edges": (tuple, (tuple, int)), "half_edges": (tuple, HalfEdge)}, _graphs),
    Row(TileNormalForm, {**ARITY, "tags": (tuple, str), "inputs": (tuple, (tuple, int)), "outputs": (tuple, int)},
        _normal_forms),
    Row(Presentation, {"generators": (tuple, str), "relators": (tuple, (tuple, int))}, _presentations),
    Row(ComposeExpr, {**ARITY, "first": TileExpr, "second": TileExpr}, _terms(ComposeExpr)),
    Row(UnionExpr, {**ARITY, "left": TileExpr, "right": TileExpr}, _terms(UnionExpr)),
    Row(IdentityExpr, {**ARITY, "width": int}, _terms(IdentityExpr)),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.cls.__name__)
def test_trusted_builder_matches_the_checked_constructor(row, monkeypatch):
    assert set(row.fields) == {f.name for f in dataclasses.fields(row.cls)}
    checked = []

    def counted(self, check=row.cls.__post_init__):
        checked.append(self)
        check(self)

    monkeypatch.setattr(row.cls, "__post_init__", counted)
    corpus = row.corpus()
    assert corpus and checked == []  # no derived value is checked again
    for value in corpus:
        public = _rebuilt(value)
        assert value == public and hash(value) == hash(public)
        for name, spec in row.fields.items():
            assert getattr(value, name) == getattr(public, name)
            assert _holds(getattr(value, name), spec) and _holds(getattr(public, name), spec)
    assert len(checked) == len(corpus)  # the public constructor checks each one


# -- the boundary ---------------------------------------------------------------

NINES = "9" * 5000
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = f"numeral too long: 5000 digits, the limit is {DIGIT_LIMIT}"
SCALAR = 'expected a string "p" or "p/q" with q nonzero'
NOT_A_NORMAL_FORM = "not a normal form: the output sweep of the diagram it draws gives other fields"

BOUNDARY = [
    ("word-strands", lambda: BraidWord(0), ValueError, "strand count must be at least 1"),
    ("word-letter", lambda: BraidWord(3, (3,)), ValueError, "letter 3 is not a generator index of a 3-strand braid"),
    ("word-zero", lambda: BraidWord(3, (0,)), ValueError, "letter 0 is not a generator index of a 3-strand braid"),
    ("word-float", lambda: BraidWord(3, (1.0,)), ValueError,
     "letter 1.0 is not a generator index of a 3-strand braid"),
    ("permutation-repeat", lambda: Permutation((1, 1)), ValueError, "not a permutation of 1..2: (1, 1)"),
    ("permutation-range", lambda: Permutation((2, 3)), ValueError, "not a permutation of 1..2: (2, 3)"),
    # a bool is an int to isinstance, and 1.0 sorts and compares as 1
    ("word-bool", lambda: BraidWord(3, (True, -2)), ValueError,
     "letter True is not a generator index of a 3-strand braid"),
    ("permutation-float", lambda: Permutation((1.0, 2)), ValueError, "not a permutation of 1..2: (1.0, 2)"),
    ("permutation-bool", lambda: Permutation((True, 2)), ValueError, "not a permutation of 1..2: (True, 2)"),
    # a normal form is the one value the output sweep gives for the diagram it draws
    ("normal-form-input", lambda: TileNormalForm(1, 1, ("F",), ((~5,),), (0,)), ValueError, NOT_A_NORMAL_FORM),
    ("normal-form-bool", lambda: TileNormalForm(1, 1, ("F",), ((~0,),), (False,)), ValueError, NOT_A_NORMAL_FORM),
    ("normal-form-missing-atom", lambda: TileNormalForm(1, 1, ("F",), ((~0,),), (1,)), ValueError,
     NOT_A_NORMAL_FORM),
    ("normal-form-list", lambda: TileNormalForm(1, 1, ["F"], ((~0,),), (0,)), ValueError, NOT_A_NORMAL_FORM),
    ("normal-form-tag", lambda: TileNormalForm(1, 1, ("X",), ((~0,),), (0,)), ValueError,
     "unknown atom 'X'; atoms are D, P, F"),
    ("matrix-shape", lambda: ExactMatrix(-1, 0, ()), ValueError, "matrix dimensions must be nonnegative"),
    ("matrix-rows", lambda: ExactMatrix(2, 1, ((1,),)), ValueError, "expected 2 rows, got 1"),
    ("matrix-columns", lambda: ExactMatrix(1, 2, ((1,),)), ValueError, "expected 2 columns, got 1"),
    ("matrix-bool", lambda: ExactMatrix(1, 1, ((True,),)), TypeError,
     "matrix entries must be int or Fraction, got bool"),
    ("matrix-float", lambda: ExactMatrix(1, 1, ((1.0,),)), TypeError,
     "matrix entries must be int or Fraction, got float"),
    ("matrix-identity", lambda: ExactMatrix.identity(-1), ValueError, "matrix dimensions must be nonnegative"),
    ("parse-header", lambda: parse_braid_word(""), BraidParseError, "expected a header like 'b3:' (at position 0)"),
    ("parse-strands", lambda: parse_braid_word("b0: e"), BraidParseError,
     "strand count must be at least 1 (at position 1)"),
    ("parse-empty", lambda: parse_braid_word("b3:"), BraidParseError,
     "expected letters or 'e' after the header (at position 3)"),
    ("parse-after-e", lambda: parse_braid_word("b3: e s1"), BraidParseError,
     "unexpected token 's1' after 'e' (at position 6)"),
    ("parse-token", lambda: parse_braid_word("b3: s1 t1"), BraidParseError, "unexpected token 't1' (at position 7)"),
    ("parse-range", lambda: parse_braid_word("b3: s3"), BraidParseError,
     "generator s3 out of range for 3 strands (at position 4)"),
    ("parse-zero", lambda: parse_braid_word("b3: s0^-1"), BraidParseError,
     "generator s0 out of range for 3 strands (at position 4)"),
    ("parse-long-strands", lambda: parse_braid_word(f"b{NINES}: s1"), BraidParseError, f"{LONG} (at position 1)"),
    ("parse-long-letter", lambda: parse_braid_word(f"b3: s{NINES}"), BraidParseError, f"{LONG} (at position 4)"),
    ("json-shape", lambda: ExactMatrix.from_json_obj([1]), ValueError,
     "matrix JSON must be a list of rows, each a list of scalar strings"),
    ("json-scalar", lambda: ExactMatrix.from_json_obj([["1.5"]]), ValueError, f"invalid scalar '1.5': {SCALAR}"),
    ("json-number", lambda: ExactMatrix.from_json_obj([[1]]), ValueError, f"invalid scalar 1: {SCALAR}"),
    ("json-zero-denominator", lambda: ExactMatrix.from_json_obj([["1/0"]]), ValueError,
     f"invalid scalar '1/0': {SCALAR}"),
    ("json-long", lambda: ExactMatrix.from_json_obj([[NINES]]), ValueError, f"invalid scalar: {LONG}"),
    ("json-ragged", lambda: ExactMatrix.from_json_obj([["1"], ["1", "2"]]), ValueError, "expected 1 columns, got 2"),
    # a map that builds its word unchecked says what the word's constructor said
    ("half-twist-no-point", lambda: homs.half_twist_image(MarkedGraph(0, ()), ()), ValueError,
     "strand count must be at least 1"),
]


@pytest.mark.parametrize("build,error,message", [case[1:] for case in BOUNDARY], ids=[case[0] for case in BOUNDARY])
def test_the_boundary_keeps_every_message(build, error, message):
    if "numeral too long" in message and not DIGIT_LIMIT:
        pytest.skip("this interpreter converts numerals of any length")
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message
