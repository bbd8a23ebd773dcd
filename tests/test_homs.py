import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from braidtiles import artin, braid, tiles
from braidtiles.braid import BraidWord, parse_braid_word
from braidtiles.graphs import MarkedGraph
from braidtiles.homs import (
    MirroredPair,
    band_generator,
    block_permutation_image,
    braid_to_symplectic,
    cabling_discrepancy,
    chain_classes,
    edge_transvection_image,
    half_twist_image,
    mirrored_pair,
    wreath_symplectic,
)
from braidtiles.linalg import ExactMatrix, SymplecticForm, is_symplectic, rank_one_product

WITNESS_GRAPH = MarkedGraph(5, ((1, 2), (2, 4), (3, 4), (4, 5)))


def w(text: str) -> BraidWord:
    return parse_braid_word(text)


def rand_word(rng: random.Random, n: int, length: int) -> BraidWord:
    if n == 1:
        return BraidWord(1, ())
    return BraidWord(
        n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    )


# -- chain classes and their transvections -----------------------------------

def test_chain_classes_frozen():
    assert chain_classes(1) == ((0, 1),)
    assert chain_classes(2) == (
        (0, 1, 0, 0),
        (1, 0, -1, 0),
        (0, 0, 0, 1),
    )


def test_chain_class_count():
    for g in range(1, 5):
        assert len(chain_classes(g)) == 2 * g - 1


def test_consecutive_chains_meet_once():
    for g in range(1, 7):
        form = SymplecticForm(g)
        chains = chain_classes(g)
        for i, a in enumerate(chains):
            for j, b in enumerate(chains):
                v = form.pairing(a, b)
                assert abs(v) == (1 if abs(i - j) == 1 else 0)


def test_transvection_frozen():
    # along y1: y1 is fixed and x1 -> x1 + <x1, y1> y1 = x1 + y1
    assert braid_to_symplectic(1, w("b2: s1")).entries == ((1, 1), (0, 1))
    assert braid_to_symplectic(1, w("b2: s1^-1")).entries == ((1, -1), (0, 1))
    # along c = x1 - x2: x1 is fixed and y1 -> y1 + <y1, c> c = y1 - x1 + x2
    image = braid_to_symplectic(2, w("b4: s2")).entries
    assert image[0] == (1, 0, 0, 0)
    assert image[1] == (-1, 1, 1, 0)


def test_transvection_fixes_its_curve():
    for g in range(1, 5):
        for i, c in enumerate(chain_classes(g), start=1):
            row = ExactMatrix.from_rows([list(c)], cols=2 * g)
            for l in (i, -i):
                assert row * braid_to_symplectic(g, BraidWord(2 * g, (l,))) == row


# -- the symplectic representation ----------------------------------------------

def test_phi_frozen_images():
    assert braid_to_symplectic(2, w("b4: s1")).entries == (
        (1, 1, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert braid_to_symplectic(2, w("b4: s2")).entries == (
        (1, 0, 0, 0),
        (-1, 1, 1, 0),
        (0, 0, 1, 0),
        (1, 0, -1, 1),
    )


def test_phi_is_multiplicative():
    rng = random.Random(8)
    for _ in range(10):
        a, b = rand_word(rng, 4, 5), rand_word(rng, 4, 5)
        assert braid_to_symplectic(2, a * b) == braid_to_symplectic(2, a) * braid_to_symplectic(2, b)


def test_phi_kills_relators():
    pres = artin.braid_presentation(4)
    factors = {i: braid_to_symplectic(2, BraidWord(4, (i,))) for i in (1, 2, 3)}
    for rel in pres.relators:
        assert _dense_image(factors, rel).is_identity()


def test_phi_strand_count_must_match_genus():
    with pytest.raises(ValueError):
        braid_to_symplectic(2, w("b3: s1"))


# -- band generators and half twists ----------------------------------------------

@pytest.mark.parametrize(
    "k,i,j,letters",
    [
        (5, 1, 2, (1,)),
        (4, 1, 3, (2, 1, -2)),
        (5, 2, 4, (3, 2, -3)),
        (6, 2, 5, (4, 3, 2, -3, -4)),
    ],
)
def test_band_generator_frozen(k, i, j, letters):
    assert band_generator(k, i, j).letters == letters


def test_band_generator_validation():
    with pytest.raises(ValueError):
        band_generator(5, 3, 3)
    with pytest.raises(ValueError):
        band_generator(5, 4, 6)


def test_band_generators_are_conjugate_transpositions():
    p = braid.underlying_permutation(band_generator(6, 2, 5))
    assert p.images == (1, 5, 3, 4, 2, 6)


def test_half_twist_images_on_witness_graph():
    expected = {1: "b5: s1", 2: "b5: s3 s2 s3^-1", 3: "b5: s3", 4: "b5: s4"}
    for gen, text in expected.items():
        img = half_twist_image(WITNESS_GRAPH, (gen,))
        assert braid.format_braid_word(img) == text


def test_half_twist_kills_relators():
    pres = artin.presentation_from_graph(WITNESS_GRAPH)
    for rel in pres.relators:
        assert braid.is_trivial(half_twist_image(WITNESS_GRAPH, rel))


def test_half_twist_image_concatenates_band_words():
    rng = random.Random(43)
    pool = [expr for level in tiles.enumerate_trees(5) for expr in level[-30:]]
    for expr in rng.sample(pool, 20):
        graph = tiles.marked_graph_of(expr)
        e = len(graph.edges)
        word = [rng.choice([1, -1]) * rng.randint(1, e) for _ in range(rng.randint(0, 12) if e else 0)]
        expected = BraidWord(graph.points, ())
        for l in word:
            band = band_generator(graph.points, *graph.edges[abs(l) - 1])
            expected = expected * (band if l > 0 else band.inverse())
        assert half_twist_image(graph, word) == expected


def test_half_twist_letter_validation():
    with pytest.raises(ValueError):
        half_twist_image(WITNESS_GRAPH, (9,))


# -- transvections over a graph's edges ---------------------------------------------

class _Signed:
    """Edge transvections in which each adjacent pair (a, b), a < b, 0-based,
    pairs to ``signs[a, b]`` and its mirror to the opposite sign: ``pairing``
    is that pairing dense, and ``image`` folds its columns, read at their
    nonzeros, through ``rank_one_product``."""

    def __init__(self, graph, signs):
        e = len(graph.edges)
        rows = [[0] * e for _ in range(e)]
        for (a, b), s in signs.items():
            rows[a][b], rows[b][a] = s, -s
        self.pairing = ExactMatrix.from_rows(rows, cols=e)
        self.columns = [[(b, rows[b][a]) for b in range(e) if rows[b][a]] for a in range(e)]

    def image(self, word):
        return rank_one_product(len(self.columns), lambda i: (self.columns[i - 1], ((i - 1, 1),)), word)


def test_edge_rep_default_pairing():
    # edges 1 < 2 pair to +1: v -> v - v_2 e_1 for edge 1, and v -> v + v_1 e_2 for edge 2
    graph = MarkedGraph.path(3)
    assert edge_transvection_image(graph, (1,)).entries == ((1, 0), (-1, 1))
    assert edge_transvection_image(graph, (2,)).entries == ((1, 1), (0, 1))


def test_edge_rep_braid_relation_all_signs():
    # adjacent transvections satisfy the braid relation under either sign
    graph = MarkedGraph.path(3)
    for s in (1, -1):
        rep = _Signed(graph, {(0, 1): s})
        t1, t2 = rep.image((1,)), rep.image((2,))
        assert t1 * t2 * t1 == t2 * t1 * t2


def test_edge_rep_commutation():
    graph = MarkedGraph(4, ((1, 2), (3, 4)))
    t1, t2 = edge_transvection_image(graph, (1,)), edge_transvection_image(graph, (2,))
    assert t1 * t2 == t2 * t1


def test_edge_rep_validation():
    with pytest.raises(ValueError, match="edge index 9 outside 1..2"):
        edge_transvection_image(MarkedGraph.path(3), (9,))


def _full_edges(graph):
    return MarkedGraph(graph.points, graph.edges)


def _adjacent_pairs(graph):
    e = len(graph.edges)
    return [
        (a, b)
        for a in range(e)
        for b in range(a + 1, e)
        if set(graph.edges[a]) & set(graph.edges[b])
    ]


def test_edge_rep_well_defined_under_every_sign_assignment():
    # exhaustive over the sign choices for every distinct small tree shape
    seen = set()
    for expr in tiles.enumerate_tiles(3):
        graph = _full_edges(tiles.marked_graph_of(expr))
        key = (graph.points, graph.edges)
        if key in seen or not graph.edges:
            continue
        seen.add(key)
        pres = artin.presentation_from_graph(graph)
        pairs = _adjacent_pairs(graph)
        for values in itertools.product((1, -1), repeat=len(pairs)):
            rep = _Signed(graph, dict(zip(pairs, values)))
            factors = {i: rep.image((i,)) for i in range(1, len(graph.edges) + 1)}
            for rel in pres.relators:
                assert _dense_image(factors, rel).is_identity()


def test_edge_rep_random_signs_on_larger_tiles():
    rng = random.Random(12)
    pool = [expr for level in tiles.enumerate_trees(5) for expr in level[-30:]]
    for expr in rng.sample(pool, 12):
        graph = _full_edges(tiles.marked_graph_of(expr))
        pres = artin.presentation_from_graph(graph)
        pairs = _adjacent_pairs(graph)
        rep = _Signed(graph, {p: rng.choice([1, -1]) for p in pairs})
        for rel in pres.relators:
            assert rep.image(rel).is_identity()


def test_chain_basis_compatibility():
    # on a stacked-interval tile the edge transvections are the restriction of
    # the symplectic representation to the span of the chain classes
    rng = random.Random(19)
    for g in (1, 2, 3):
        form = SymplecticForm(g)
        chains = chain_classes(g)
        c_rows = ExactMatrix.from_rows([list(c) for c in chains], cols=2 * g)
        gram_signs = {
            (a, b): form.pairing(chains[a], chains[b])
            for a in range(len(chains))
            for b in range(a + 1, len(chains))
            if abs(a - b) == 1
        }
        rep = _Signed(MarkedGraph.path(2 * g), gram_signs)
        for _ in range(8):
            word = rand_word(rng, 2 * g, rng.randint(0, 6))
            restricted = rep.image(word.letters)
            assert c_rows * braid_to_symplectic(g, word) == restricted * c_rows


# -- rank-one folds against dense products ----------------------------------------


def _dense_image(factors, word):
    """Reference image: the dense product of the generator matrices, with
    the exact inverse for every inverse letter."""
    result = None
    for l in word:
        m = factors[abs(l)] if l > 0 else factors[-l].inverse()
        result = m if result is None else result * m
    return ExactMatrix.identity(factors[1].rows) if result is None else result


def _dense_transvection(form, c):
    """Matrix of v -> v + <v, c> c, one basis row v at a time, paired
    through the form itself."""
    basis = ExactMatrix.identity(form.dim).entries
    return ExactMatrix.from_rows(
        [[x + form.pairing(v, c) * y for x, y in zip(v, c)] for v in basis], cols=form.dim
    )


def test_symplectic_fold_matches_dense_product():
    rng = random.Random(31)
    for g in (1, 2, 3, 4):
        form = SymplecticForm(g)
        factors = {i + 1: _dense_transvection(form, c) for i, c in enumerate(chain_classes(g))}
        for _ in range(6):
            word = rand_word(rng, 2 * g, rng.randint(0, 24))
            assert braid_to_symplectic(g, word) == _dense_image(factors, word.letters)


def _edge_transvection(pairing, i):
    """The identity with column i shifted by the pairing column of edge i."""
    e = pairing.rows
    return ExactMatrix.from_rows([
        [int(a == c) + (pairing.entries[a][i - 1] if c == i - 1 else 0) for c in range(e)] for a in range(e)
    ])


def test_edge_fold_matches_dense_product():
    rng = random.Random(32)
    pool = [expr for level in tiles.enumerate_trees(5) for expr in level[-30:]]
    for expr in rng.sample(pool, 10):
        graph = _full_edges(tiles.marked_graph_of(expr))
        pairs = _adjacent_pairs(graph)
        rep = _Signed(graph, {p: rng.choice([1, -1]) for p in pairs})
        default = _Signed(graph, dict.fromkeys(pairs, 1))
        e = len(graph.edges)
        factors = {i: _edge_transvection(rep.pairing, i) for i in range(1, e + 1)}
        for _ in range(4):
            word = tuple(rng.choice([1, -1]) * rng.randint(1, e) for _ in range(rng.randint(0, 24)))
            assert rep.image(word) == _dense_image(factors, word)
            assert edge_transvection_image(graph, word) == default.image(word)


def _default_pairing(graph):
    """The pairing ``edge_transvection_image`` stands for, entry by entry:
    +1 on an adjacent pair a < b, -1 on its mirror, 0 elsewhere."""
    e, adjacent = len(graph.edges), set(_adjacent_pairs(graph))
    return ExactMatrix.from_rows(
        [[1 if (a, b) in adjacent else -1 if (b, a) in adjacent else 0 for b in range(e)] for a in range(e)], cols=e
    )


def _dense_reflection(graph, s):
    """The identity with column s replaced: 1 at each edge sharing a vertex
    with edge s, -1 at s itself."""
    e, j = len(graph.edges), s - 1
    column = [-1 if a == j else int(bool(set(graph.edges[a]) & set(graph.edges[j]))) for a in range(e)]
    return ExactMatrix.from_rows([[column[a] if c == j else int(a == c) for c in range(e)] for a in range(e)], cols=e)


def test_images_match_dense_references_with_a_warm_memo():
    # One process, one shuffled schedule of symplectic images at genus 1..6,
    # edge and Coxeter images on the forests of enumerate_trees(5) and on the
    # 199-edge chain: when an image reads the letter-program memo, other
    # genera and graphs have filled it.  The references are built first, so
    # no reference fills the memo in between.
    rng = random.Random(34)
    jobs = []
    for g in range(1, 7):
        form = SymplecticForm(g)
        factors = {i + 1: _dense_transvection(form, c) for i, c in enumerate(chain_classes(g))}
        jobs += [("genus", g, factors, rand_word(rng, 2 * g, rng.randint(0, 16))) for _ in range(5)]
    graphs = {}
    for expr in itertools.chain.from_iterable(tiles.enumerate_trees(5)):
        graph = _full_edges(tiles.marked_graph_of(expr))
        if graph.edges:
            graphs.setdefault(graph.edges, graph)
    for graph in graphs.values():
        e = len(graph.edges)
        signed = _Signed(graph, {p: rng.choice([1, -1]) for p in _adjacent_pairs(graph)})
        default = _default_pairing(graph)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, e) for _ in range(rng.randint(0, 12)))
        jobs.append(("graph", graph, {
            "signed": (signed, {i: _edge_transvection(signed.pairing, i) for i in range(1, e + 1)}),
            "default": {i: _edge_transvection(default, i) for i in range(1, e + 1)},
            "coxeter": {i: _dense_reflection(graph, i) for i in range(1, e + 1)},
        }, word))
    chain = _full_edges(tiles.marked_graph_of(tiles.parse_tile_expression(" ; ".join(["F"] * 100))))
    chain_pairing, pairs = _default_pairing(chain), _adjacent_pairs(chain)
    chain_rep = _Signed(chain, dict.fromkeys(pairs, 1))
    assert len(chain.edges) == 199 and chain_rep.pairing == chain_pairing
    # (I + N)^-1 = I - N for these N, so an inverse letter's dense reference
    # is the transvection of the negated pairing, all signs flipped
    flipped = _Signed(chain, dict.fromkeys(pairs, -1)).pairing
    for l in (1, -7, 100, -199, 198):
        jobs.append(("chain letter", l, _edge_transvection(chain_pairing if l > 0 else flipped, abs(l)), None))
    jobs.append(("chain word", (57, -58), {i: _edge_transvection(chain_pairing, i) for i in (57, 58)}, None))
    jobs.append(("chain pairing", tuple(rng.choice([1, -1]) * rng.randint(1, 199) for _ in range(60)), None, None))
    rng.shuffle(jobs)
    for kind, x, reference, word in jobs:
        if kind == "genus":
            assert braid_to_symplectic(x, word) == _dense_image(reference, word.letters)
        elif kind == "graph":
            signed, factors = reference["signed"]
            assert signed.image(word) == _dense_image(factors, word)
            assert edge_transvection_image(x, word) == _dense_image(reference["default"], word)
            coxeter = artin.CoxeterSystem(x).image(word)
            assert coxeter == _dense_image(reference["coxeter"], [abs(l) for l in word])
        elif kind == "chain letter":
            assert edge_transvection_image(chain, (x,)) == reference
        elif kind == "chain word":
            assert edge_transvection_image(chain, x) == _dense_image(reference, x)
        else:
            assert edge_transvection_image(chain, x) == chain_rep.image(x)


def _graphs_no_tile_makes():
    """Seeded graphs with cycles, points on four or more edges, isolated
    points, and edges given out of order (``MarkedGraph`` sorts them)."""
    graphs = [
        MarkedGraph(6, ((1, 5), (1, 2), (1, 6), (1, 3))),  # a star of degree 4 beside an isolated point
        MarkedGraph(4, ((3, 4), (1, 2), (2, 3), (1, 4))),  # a 4-cycle
        MarkedGraph(6, ((2, 3), (1, 3), (1, 2), (4, 5))),  # a triangle, a disjoint edge, an isolated point
    ]
    rng = random.Random(41)
    for _ in range(40):
        points = rng.randint(2, 8)
        pairs = list(itertools.combinations(range(1, points + 1), 2))
        graphs.append(MarkedGraph(points, tuple(rng.sample(pairs, rng.randint(1, min(len(pairs), 12))))))
    return graphs


def test_edge_images_on_graphs_no_tile_makes():
    # tiles make forests with degree at most 3; the fold reads any adjacency
    graphs = _graphs_no_tile_makes()
    degrees = [Counter(itertools.chain(*g.edges)) for g in graphs]
    assert any(len(g.edges) > g.points - len(g.components()) for g in graphs)
    assert any(max(d.values()) >= 4 for d in degrees)
    assert any(len(d) < g.points for g, d in zip(graphs, degrees))
    rng = random.Random(42)
    for graph in graphs:
        e = len(graph.edges)
        for rel in artin.presentation_from_graph(graph).relators:
            assert edge_transvection_image(graph, rel).is_identity(), (graph, rel)
        pairing = _default_pairing(graph)
        factors = {i: _edge_transvection(pairing, i) for i in range(1, e + 1)}
        for _ in range(3):
            word = tuple(rng.choice([1, -1]) * rng.randint(1, e) for _ in range(rng.randint(0, 16)))
            assert edge_transvection_image(graph, word) == _dense_image(factors, word), (graph, word)


# -- blockwise wreath images ----------------------------------------------------------

def test_block_swap_frozen():
    eye = ExactMatrix.identity(2)
    m = wreath_symplectic(2, 1, w("b2: s1"), [eye, eye])
    assert m.entries == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def _block_diagonal(blocks):
    """Square blocks down the diagonal of a dense matrix."""
    size = sum(b.rows for b in blocks)
    rows, r0 = [], 0
    for b in blocks:
        rows += [[0] * r0 + list(row) + [0] * (size - r0 - b.cols) for row in b.entries]
        r0 += b.rows
    return ExactMatrix.from_rows(rows)


def test_wreath_blocks_land_on_the_diagonal():
    f = ExactMatrix.from_rows([[1, 1], [0, 1]])
    m = wreath_symplectic(2, 1, BraidWord(2, ()), [f, ExactMatrix.identity(2)])
    assert m == _block_diagonal([f, ExactMatrix.identity(2)])


def test_wreath_image_is_symplectic():
    rng = random.Random(27)
    for _ in range(10):
        q, g = rng.choice([(2, 1), (3, 1), (2, 2)])
        sigma = rand_word(rng, q, rng.randint(0, 4))
        fs = [braid_to_symplectic(g, rand_word(rng, 2 * g, rng.randint(0, 4))) for _ in range(q)]
        assert is_symplectic(wreath_symplectic(q, g, sigma, fs), SymplecticForm(q * g))


def test_wreath_is_multiplicative_under_the_wreath_law():
    rng = random.Random(33)
    for _ in range(10):
        q, g = 2, 1
        s1, s2 = rand_word(rng, q, 2), rand_word(rng, q, 2)
        mus1 = tuple(rand_word(rng, 2 * g, 2) for _ in range(q))
        mus2 = tuple(rand_word(rng, 2 * g, 2) for _ in range(q))
        sigma, mus = braid.wreath_multiply((s1, mus1), (s2, mus2))
        lhs = wreath_symplectic(q, g, s1, [braid_to_symplectic(g, m) for m in mus1]) * wreath_symplectic(
            q, g, s2, [braid_to_symplectic(g, m) for m in mus2]
        )
        rhs = wreath_symplectic(q, g, sigma, [braid_to_symplectic(g, m) for m in mus])
        assert lhs == rhs


def _dense_block_swap(q, block, width):
    """Permutation matrix exchanging blocks ``block`` and ``block`` + 1."""
    lo = (block - 1) * width
    target = list(range(q * width))
    target[lo:lo + 2 * width] = target[lo + width:lo + 2 * width] + target[lo:lo + width]
    return ExactMatrix.from_rows([[int(b == target[a]) for b in range(q * width)] for a in range(q * width)])


def test_wreath_matches_a_product_of_dense_block_swaps():
    rng = random.Random(44)
    for _ in range(60):
        q, g = rng.randint(1, 4), rng.randint(1, 3)
        sigma = rand_word(rng, q, rng.randint(0, 8))
        fs = [braid_to_symplectic(g, rand_word(rng, 2 * g, rng.randint(0, 5))) for _ in range(q)]
        swaps = ExactMatrix.identity(2 * q * g)
        for l in sigma.letters:
            swaps = swaps * _dense_block_swap(q, abs(l), 2 * g)
        assert wreath_symplectic(q, g, sigma, fs) == _block_diagonal(fs) * swaps
        assert block_permutation_image(q, g, sigma) == swaps  # identity blocks


def test_wreath_places_a_fractional_block_as_from_rows_does():
    # placed rows are kept as they are, so they must already be normalized
    f = ExactMatrix.from_rows([[Fraction(2), 0], [0, Fraction(1, 2)]])
    m = wreath_symplectic(2, 1, w("b2: s1"), [f, ExactMatrix.identity(2)])
    placed = ExactMatrix.from_rows([[0, 0, 2, 0], [0, 0, 0, Fraction(1, 2)], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert m == placed and hash(m) == hash(placed)
    assert (m.rows, m.cols) == (placed.rows, placed.cols) == (4, 4)
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    assert [list(map(type, row)) for row in m.entries] == [list(map(type, row)) for row in placed.entries]
    assert [type(x) for x in m.entries[1]] == [int, int, int, Fraction]


def test_wreath_validation():
    with pytest.raises(ValueError):
        wreath_symplectic(2, 1, w("b2: s1"), [])
    bad = ExactMatrix.from_rows([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        wreath_symplectic(2, 1, w("b2: s1"), [bad, bad])
    with pytest.raises(ValueError):
        wreath_symplectic(3, 1, w("b2: s1"), [ExactMatrix.identity(2)] * 3)


# -- the permutation factorization ------------------------------------------------------

def test_block_permutation_image_frozen():
    m = block_permutation_image(3, 1, w("b3: s1 s2"))
    assert m.entries == (
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
    )


def test_block_permutation_depends_only_on_the_permutation():
    assert block_permutation_image(2, 1, w("b2: s1 s1")).is_identity()
    a = block_permutation_image(3, 2, w("b3: s1 s2 s1"))
    b = block_permutation_image(3, 2, w("b3: s2 s1 s2"))
    assert a == b


def test_mirrored_pair_components():
    mp = mirrored_pair(w("b3: s1 s2^-1"))
    assert mp.first.letters == (1, -2)
    assert mp.second.letters == (-1, 2)


def test_mirrored_pair_shares_a_permutation():
    mp = mirrored_pair(w("b4: s1 s3 s2"))
    assert braid.underlying_permutation(mp.first) == braid.underlying_permutation(mp.second)


def test_mirrored_pair_validation():
    with pytest.raises(ValueError):
        MirroredPair(w("b3: s1"), w("b3: s2"))
    with pytest.raises(ValueError):
        MirroredPair(w("b3: s1"), w("b4: s1"))


def test_mirrored_pair_multiplies_componentwise():
    rng = random.Random(41)
    for _ in range(10):
        a, b = rand_word(rng, 3, 4), rand_word(rng, 3, 4)
        prod = mirrored_pair(a).multiply(mirrored_pair(b))
        expected = mirrored_pair(a * b)
        assert braid.equal(prod.first, expected.first)
        assert braid.equal(prod.second, expected.second)


# -- the cabling discrepancy --------------------------------------------------------------

def test_discrepancy_trivial_outer_word_agrees():
    eps = BraidWord(2, ())
    result = cabling_discrepancy(1, 2, eps, (w("b2: s1"), w("b2: s1^-1")))
    assert result.equal
    assert result.cabled == result.blockwise


def test_discrepancy_frozen_witness():
    eps = BraidWord(2, ())
    result = cabling_discrepancy(1, 2, w("b2: s1"), (eps, eps))
    assert not result.equal
    assert result.cabled.entries == (
        (0, 1, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 1),
        (0, 1, 0, 0),
    )
    assert result.blockwise.entries == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def test_discrepancy_square_is_blockwise_invisible():
    eps = BraidWord(2, ())
    result = cabling_discrepancy(1, 2, w("b2: s1") * w("b2: s1"), (eps, eps))
    assert result.blockwise.is_identity()
    assert not result.cabled.is_identity()


def test_discrepancy_json():
    eps = BraidWord(2, ())
    obj = cabling_discrepancy(1, 2, w("b2: s1"), (eps, eps)).to_json_obj()
    assert obj["equal"] is False
    assert obj["cabled"][0] == ["0", "1", "1", "0"]
