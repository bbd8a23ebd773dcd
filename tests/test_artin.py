import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from braidtiles import tiles, verify
from braidtiles.artin import (
    AbelianInvariants,
    Certificate,
    CoxeterSystem,
    Presentation,
    PresentationError,
    abelianization,
    braid_presentation,
    certify_nontrivial,
    presentation_from_graph,
)
from braidtiles.graphs import MarkedGraph, edge_neighbors
from braidtiles.linalg import ExactMatrix

WITNESS_GRAPH = MarkedGraph(5, ((1, 2), (2, 4), (3, 4), (4, 5)))


def test_braid_presentation_frozen():
    braid_12, braid_23, braid_34, braid_45 = (
        (1, 2, 1, -2, -1, -2), (2, 3, 2, -3, -2, -3), (3, 4, 3, -4, -3, -4), (4, 5, 4, -5, -4, -5)
    )
    expected = {
        1: (),
        2: (),
        3: (braid_12,),
        4: (braid_12, (1, 3, -1, -3), braid_23),
        5: (braid_12, (1, 3, -1, -3), (1, 4, -1, -4), braid_23, (2, 4, -2, -4), braid_34),
        6: (
            braid_12, (1, 3, -1, -3), (1, 4, -1, -4), (1, 5, -1, -5),
            braid_23, (2, 4, -2, -4), (2, 5, -2, -5),
            braid_34, (3, 5, -3, -5),
            braid_45,
        ),
    }
    for k, relators in expected.items():
        p = braid_presentation(k)
        assert p.generators == tuple(f"s{i}" for i in range(1, k))
        assert p.relators == relators
    with pytest.raises(ValueError):
        braid_presentation(0)


def test_braid_presentation_relator_counts():
    # adjacent pairs give braid relators, the rest commute
    for k in range(2, 7):
        p = braid_presentation(k)
        braids = [r for r in p.relators if len(r) == 6]
        comms = [r for r in p.relators if len(r) == 4]
        assert len(braids) == k - 2
        assert len(comms) == (k - 1) * (k - 2) // 2 - (k - 2)


def test_presentation_validates():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(PresentationError):
        Presentation(("a",), ((2,),))
    with pytest.raises(PresentationError):
        Presentation(("a",), ((0,),))


def test_word_parse_and_format():
    p = braid_presentation(3)
    assert p.parse_word("s1 s2^-1") == (1, -2)
    assert p.parse_word("e") == ()
    assert p.parse_word("\ts1\r\ns2^-1\n") == (1, -2)  # any of the ASCII spaces " \t\n\r" separate
    assert p.parse_word("\ne\t") == ()
    for bad in ("s1\u3000s2", "\u3000e", "s1\x0b"):  # other spaces are part of a name
        with pytest.raises(PresentationError, match="unknown generator"):
            p.parse_word(bad)
    assert p.format_word((1, -2)) == "s1 s2^-1"
    assert p.format_word(()) == "e"
    with pytest.raises(PresentationError):
        p.parse_word("s9")
    with pytest.raises(PresentationError):
        p.parse_word("s1 junk")
    for blank in ("", "   ", "\t\n"):  # 'e' is the only spelling of the empty word
        with pytest.raises(PresentationError, match="expected generator names or 'e'"):
            p.parse_word(blank)


def test_presentation_str():
    p = braid_presentation(3)
    assert str(p) == "< s1, s2 | s1 s2 s1 s2^-1 s1^-1 s2^-1 >"


def test_presentation_json_round_trip():
    p = presentation_from_graph(WITNESS_GRAPH)
    assert Presentation.from_json_obj(p.to_json_obj()) == p


def test_graph_presentation_adjacency():
    p = presentation_from_graph(WITNESS_GRAPH)
    assert p.generators == ("g1", "g2", "g3", "g4")
    # edges (1,2),(2,4) share a point; (1,2),(3,4) do not
    assert (1, 2, 1, -2, -1, -2) in p.relators
    assert (1, 3, -1, -3) in p.relators
    assert len(p.relators) == 6


def _sample_graphs() -> list[MarkedGraph]:
    """Every distinct graph of the tiles with at most 4 atoms, plus random
    graphs with isolated points, no edges, and vertices of degree 3 or more."""
    seen = {}
    for tile in tiles.enumerate_tiles(4):
        g = tiles.marked_graph_of(tile)
        seen.setdefault((g.points, g.edges), MarkedGraph(g.points, g.edges))
    graphs = list(seen.values())
    graphs += [MarkedGraph(0, ()), MarkedGraph(5, ()), MarkedGraph(4, ((1, 2), (1, 3), (1, 4)))]
    rng = random.Random(17)
    for _ in range(60):
        points = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(1, points + 1), 2))
        graphs.append(MarkedGraph(points, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 12))))))
    degrees = [Counter(itertools.chain(*g.edges)) for g in graphs]
    assert any(max(d.values(), default=0) >= 3 for d in degrees)
    assert any(g.points and not d for g, d in zip(graphs, degrees))
    assert any(g.edges and len({*itertools.chain(*g.edges)}) < g.points for g in graphs)
    return graphs


def test_edge_neighbors_is_the_shared_vertex_rule():
    for g in _sample_graphs():
        shares = lambda a, b: a != b and len({*g.edges[a], *g.edges[b]}) < 4
        expected = [{b for b in range(len(g.edges)) if shares(a, b)} for a in range(len(g.edges))]
        assert edge_neighbors(g.edges) == expected, g


def test_graph_presentation_pair_by_pair():
    for g in _sample_graphs():
        relators = []
        for a, b in itertools.combinations(range(1, len(g.edges) + 1), 2):
            (p, q), (r, t) = g.edges[a - 1], g.edges[b - 1]
            if p in (r, t) or q in (r, t):
                relators.append((a, b, a, -b, -a, -b))
            else:
                relators.append((a, b, -a, -b))
        pres = presentation_from_graph(g)
        assert pres.generators == tuple(f"g{i}" for i in range(1, len(g.edges) + 1))
        assert pres.relators == tuple(relators), g


def test_stacked_interval_graph_matches_braid_presentation():
    for k in (2, 3, 4):
        path = MarkedGraph.path(2 * k)
        p = presentation_from_graph(path)
        q = braid_presentation(2 * k)
        assert len(p.generators) == len(q.generators)
        assert sorted(p.relators) == sorted(q.relators)


# -- abelianization -------------------------------------------------------------

def _int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def _abelianization_oracle(pres):
    """Free rank and torsion from gcds of minors of the exponent matrix."""
    rows = [
        [sum(1 if x == j else -1 if x == -j else 0 for x in rel) for j in range(1, len(pres.generators) + 1)]
        for rel in pres.relators
    ]
    r, c = len(rows), len(pres.generators)
    divisors = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for rsel in itertools.combinations(range(r), k):
            for csel in itertools.combinations(range(c), k):
                g = math.gcd(g, _int_det([[rows[i][j] for j in csel] for i in rsel]))
        divisors.append(g)
    factors = []
    prev = 1
    for d in divisors:
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    free = c - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return free, torsion


def test_braid_groups_abelianize_to_z():
    for k in range(3, 9):
        inv = abelianization(braid_presentation(k))
        assert inv.free_rank == 1
        assert inv.torsion == ()


def test_torsion_example():
    inv = abelianization(Presentation(("a", "b"), ((1, 1),)))
    assert inv == AbelianInvariants(1, (2,))
    assert str(inv) == "Z + Z/2"
    assert inv.to_json_obj() == {"free_rank": 1, "torsion": [2]}


def test_free_group_case():
    inv = abelianization(Presentation(("a", "b", "c"), ()))
    assert inv.free_rank == 3
    assert str(inv) == "Z^3"


def test_trivial_group_case():
    inv = abelianization(Presentation(("a",), ((1,),)))
    assert inv.free_rank == 0
    assert inv.torsion == ()


def test_abelianization_against_minor_oracle():
    rng = random.Random(31)
    graphs = [
        WITNESS_GRAPH,
        MarkedGraph(4, ((1, 2), (3, 4))),
        MarkedGraph.path(5),
        MarkedGraph(3, ()),
    ]
    for g in graphs:
        pres = presentation_from_graph(g)
        inv = abelianization(pres)
        assert (inv.free_rank, inv.torsion) == _abelianization_oracle(pres)
    for _ in range(10):
        gens = rng.randint(1, 3)
        rels = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, gens) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3))
        )
        pres = Presentation(tuple(f"x{i}" for i in range(1, gens + 1)), rels)
        inv = abelianization(pres)
        assert (inv.free_rank, inv.torsion) == _abelianization_oracle(pres)
    # empty relators, relators with zero exponent sums, and repeated relators
    for _ in range(20):
        gens = rng.randint(1, 3)
        letter = lambda: rng.choice([1, -1]) * rng.randint(1, gens)
        base = [tuple(letter() for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
        rels = base + [(), (), rng.choice(base), rng.choice(base)[::-1]]
        rels += [(l, -l) for l in (letter(), letter())]
        rng.shuffle(rels)
        pres = Presentation(tuple(f"x{i}" for i in range(1, gens + 1)), tuple(rels))
        inv = abelianization(pres)
        assert (inv.free_rank, inv.torsion) == _abelianization_oracle(pres)


@pytest.mark.parametrize("relators, bad", [
    (((1, 3),), 3), (((1, 2), (0,)), 0), (((2, -5, 0, 7),), -5), (((-3,),), -3),
])
def test_presentation_names_the_first_letter_outside_the_generators(relators, bad):
    with pytest.raises(PresentationError, match=f"^letter {bad} outside generators 1..2$"):
        Presentation(("a", "b"), relators)


def test_validate_word_returns_the_word_as_a_tuple():
    pres = Presentation(("a", "b"), ())
    assert pres.validate_word(iter([1, -2, 2])) == (1, -2, 2)
    assert pres.validate_word([]) == ()
    with pytest.raises(PresentationError, match="^letter 3 outside generators 1..2$"):
        pres.validate_word([-1, 3])


def test_f_chains_abelianize_to_z():
    # the chain of depth k is a path on 2k - 1 edges; its relator rows are
    # e_a - e_b, so every Smith pivot is a unit
    for depth in range(1, 41):
        graph = tiles.marked_graph_of(tiles.parse_tile_expression(" ; ".join(["F"] * depth)))
        assert len(graph.edges) == 2 * depth - 1
        assert abelianization(presentation_from_graph(graph)) == AbelianInvariants(1, ())


def test_disjoint_edges_give_rank_two():
    inv = abelianization(presentation_from_graph(MarkedGraph(4, ((1, 2), (3, 4)))))
    assert inv.free_rank == 2
    assert inv.torsion == ()


def _edge_components(graph):
    """Components of the edge-adjacency graph (edges meet when they share a
    vertex), counted by a walk over ``edge_neighbors``: the free rank of the
    graph's H_1, since a braid relation identifies its two generators and a
    commutator adds nothing.  A test oracle only."""
    neighbors = edge_neighbors(graph.edges)
    seen: set[int] = set()
    count = 0
    for start in range(len(neighbors)):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for b in neighbors[stack.pop()] - seen:
                seen.add(b)
                stack.append(b)
    return count


def _random_forest(rng, points):
    """A forest on ``points`` vertices: each vertex after the first joins an
    earlier one with probability 1/2, so isolated points and several
    components come up."""
    edges = tuple((rng.randrange(1, v), v) for v in range(2, points + 1) if rng.random() < 0.5)
    return MarkedGraph(points, edges)


def test_graphs_abelianize_to_z_per_edge_component():
    # the chain of depth k is a path on 2k - 1 edges: one component, so Z
    chains = [tiles.marked_graph_of(tiles.parse_tile_expression(" ; ".join(["F"] * depth)))
              for depth in range(1, 41)]
    assert [len(g.edges) for g in chains] == [2 * depth - 1 for depth in range(1, 41)]
    rng = random.Random(31)
    forests = [_random_forest(rng, rng.randint(0, 24)) for _ in range(60)]
    counts = {_edge_components(g) for g in forests}
    assert {0, 1} < counts and max(counts) >= 4
    assert any(len({v for e in g.edges for v in e}) < g.points for g in forests)  # isolated points
    disjoint = MarkedGraph(4, ((1, 2), (3, 4)))
    graphs = [*chains, *verify._distinct_graphs(5), *forests, disjoint]
    for graph in graphs:
        c = _edge_components(graph)
        assert abelianization(presentation_from_graph(graph)) == AbelianInvariants(c, ()), graph
    assert _edge_components(disjoint) == 2


# -- reflection certificates -------------------------------------------------------

def _label(cox, i, j):
    """Coxeter label of generators i and j (0-based) read off the graph's
    edges: 1 on the diagonal, 3 when the two edges share an endpoint, 2
    otherwise."""
    edges = cox.graph.edges
    return 1 if i == j else 3 if set(edges[i]) & set(edges[j]) else 2


def test_coxeter_labels_from_graph():
    cox = CoxeterSystem(WITNESS_GRAPH)
    assert cox.rank == 4
    assert cox.graph is WITNESS_GRAPH
    assert [[_label(cox, i, j) for j in range(4)] for i in range(4)] == [
        [1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 3], [2, 3, 3, 1]
    ]
    assert CoxeterSystem(MarkedGraph(0, ())).rank == 0
    assert CoxeterSystem(MarkedGraph(3, ())).rank == 0


def _bilinear(cox, s, t):
    """B(a_s, a_t) = -cos(pi / label): 1, 0, -1/2 for labels 1, 2, 3."""
    return {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2)}[_label(cox, s - 1, t - 1)]


def _reflection(cox, s):
    """x -> x - 2B(x, a_s) a_s on row vectors: the identity with column s
    replaced by e_s - 2B(., a_s)."""
    return ExactMatrix.from_rows([
        [(1 if a == c else 0) - (2 * _bilinear(cox, a + 1, s) if c == s - 1 else 0) for c in range(cox.rank)]
        for a in range(cox.rank)
    ])


def test_reflections_are_integer_involutions():
    cox = CoxeterSystem(WITNESS_GRAPH)
    for s in range(1, cox.rank + 1):
        r = cox.image((s,))
        assert all(type(x) is int for row in r.entries for x in row)
        assert (r * r).is_identity()
        assert _int_det(r.entries) == -1


def _power(m, k):
    out = ExactMatrix.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def test_reflection_orders():
    cox = CoxeterSystem(WITNESS_GRAPH)
    refs = [cox.image((s,)) for s in range(1, 5)]
    for i, j in itertools.combinations(range(4), 2):
        prod = refs[i] * refs[j]
        order = _label(cox, i, j)
        assert _power(prod, order).is_identity()
        assert not _power(prod, order - 1).is_identity()


def test_image_is_multiplicative():
    cox = CoxeterSystem(WITNESS_GRAPH)
    rng = random.Random(2)
    for _ in range(10):
        u = tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        assert cox.image(u + v) == cox.image(u) * cox.image(v)


def test_reflection_matches_bilinear_form():
    cox = CoxeterSystem(WITNESS_GRAPH)
    for s in range(1, cox.rank + 1):
        assert cox.image((s,)) == _reflection(cox, s)


def test_coxeter_fold_matches_dense_product():
    rng = random.Random(33)
    pool = [expr for level in tiles.enumerate_trees(5) for expr in level[-30:]]
    graphs = [tiles.marked_graph_of(expr) for expr in rng.sample(pool, 10)]
    # no edges at all, and a vertex of degree 3 (all three edges pairwise neighbours)
    graphs += [MarkedGraph(3, ()), MarkedGraph(5, ((1, 2), (1, 3), (1, 4), (4, 5)))]
    for graph in graphs:
        cox = CoxeterSystem(graph)
        for _ in range(4):
            length = rng.randint(0, 24) if cox.rank else 0
            word = tuple(rng.choice([1, -1]) * rng.randint(1, cox.rank) for _ in range(length))
            dense = ExactMatrix.identity(cox.rank)
            for l in word:
                dense = dense * (_reflection(cox, l) if l > 0 else _reflection(cox, -l).inverse())
            assert cox.image(word) == dense


def test_inverse_letters_map_to_the_same_reflection():
    cox = CoxeterSystem(WITNESS_GRAPH)
    assert cox.image((2,)) == cox.image((-2,))


def test_certify_witness_word():
    # conjugated commutator that dies in the symmetric group quotient
    word = (-3, 2, 3, 4, -3, -2, 3, -4)
    assert certify_nontrivial(WITNESS_GRAPH, word) is Certificate.NONTRIVIAL


def test_certify_relator_is_inconclusive():
    word = (1, 2, 1, -2, -1, -2)
    assert certify_nontrivial(WITNESS_GRAPH, word) is Certificate.INCONCLUSIVE
    assert certify_nontrivial(WITNESS_GRAPH, ()) is Certificate.INCONCLUSIVE


def test_certify_single_generator():
    assert certify_nontrivial(WITNESS_GRAPH, (1,)) is Certificate.NONTRIVIAL


@pytest.mark.parametrize("word", [(0,), (9,)])
def test_certify_rejects_letters_outside_the_generators(word):
    with pytest.raises(PresentationError):
        certify_nontrivial(WITNESS_GRAPH, word)


def test_certify_agrees_with_the_full_image():
    # certify folds only the columns a word rewrites; the full image decides alike
    rng = random.Random(41)
    chains = [tiles.marked_graph_of(tiles.parse_tile_expression(" ; ".join(["F"] * depth)))
              for depth in range(1, 21)]
    for graph in verify._distinct_graphs(5) + chains:
        cox = CoxeterSystem(graph)
        words = [()] if not cox.rank else [
            tuple(rng.choice([1, -1]) * rng.randint(1, cox.rank) for _ in range(rng.randint(0, 12)))
            for _ in range(6)
        ]
        # a relator, a letter and its square: one inconclusive pair and one nontrivial
        words += [(1, 2, 1, -2, -1, -2), (1,), (1, -1)] if cox.rank > 1 else []
        for word in words:
            want = Certificate.INCONCLUSIVE if cox.image(word).is_identity() else Certificate.NONTRIVIAL
            assert certify_nontrivial(graph, word) is want


def test_witness_graph_from_tile():
    expr = tiles.parse_tile_expression("(((F + P) ; P) + 1_1) ; P")
    g = tiles.marked_graph_of(expr)
    assert MarkedGraph(g.points, g.edges) == WITNESS_GRAPH
