import itertools
import math
import random
from fractions import Fraction

import pytest

from braidtiles import tiles
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
    assert any(g.max_degree() >= 3 for g in graphs)
    assert any(g.points and g.max_degree() == 0 for g in graphs)
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


def test_disjoint_edges_give_rank_two():
    inv = abelianization(presentation_from_graph(MarkedGraph(4, ((1, 2), (3, 4)))))
    assert inv.free_rank == 2
    assert inv.torsion == ()


# -- reflection certificates -------------------------------------------------------

def test_coxeter_labels_from_graph():
    cox = CoxeterSystem.from_graph(WITNESS_GRAPH)
    assert cox.rank == 4
    # adjacent edge pairs get label 3, disjoint pairs label 2
    assert cox.labels[0][1] == 3
    assert cox.labels[0][2] == 2
    assert all(cox.labels[i][i] == 1 for i in range(4))


def test_coxeter_validation():
    with pytest.raises(ValueError):
        CoxeterSystem(((1, 2), (3, 1)))  # not symmetric
    with pytest.raises(ValueError):
        CoxeterSystem(((2,),))  # diagonal must be 1
    with pytest.raises(ValueError):
        CoxeterSystem(((1, 7), (7, 1)))  # only labels 2 and 3 are supported


def _bilinear(cox, s, t):
    """B(a_s, a_t) = -cos(pi / label): 1, 0, -1/2 for labels 1, 2, 3."""
    return {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2)}[cox.labels[s - 1][t - 1]]


def _reflection(cox, s):
    """x -> x - 2B(x, a_s) a_s on row vectors: the identity with column s
    replaced by e_s - 2B(., a_s)."""
    return ExactMatrix.from_rows([
        [(1 if a == c else 0) - (2 * _bilinear(cox, a + 1, s) if c == s - 1 else 0) for c in range(cox.rank)]
        for a in range(cox.rank)
    ])


def test_reflections_are_integer_involutions():
    cox = CoxeterSystem.from_graph(WITNESS_GRAPH)
    for s in range(1, cox.rank + 1):
        r = cox.image((s,))
        assert r.is_integer()
        assert (r * r).is_identity()
        assert _int_det(r.entries) == -1


def _power(m, k):
    out = ExactMatrix.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def test_reflection_orders():
    cox = CoxeterSystem.from_graph(WITNESS_GRAPH)
    refs = [cox.image((s,)) for s in range(1, 5)]
    for i, j in itertools.combinations(range(4), 2):
        prod = refs[i] * refs[j]
        order = cox.labels[i][j]
        assert _power(prod, order).is_identity()
        assert not _power(prod, order - 1).is_identity()


def test_image_is_multiplicative():
    cox = CoxeterSystem.from_graph(WITNESS_GRAPH)
    rng = random.Random(2)
    for _ in range(10):
        u = tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        assert cox.image(u + v) == cox.image(u) * cox.image(v)


def test_reflection_matches_bilinear_form():
    cox = CoxeterSystem.from_graph(WITNESS_GRAPH)
    for s in range(1, cox.rank + 1):
        assert cox.image((s,)) == _reflection(cox, s)


def test_coxeter_fold_matches_dense_product():
    rng = random.Random(33)
    pool = [expr for level in tiles.enumerate_trees(5) for expr in level[-30:]]
    for expr in rng.sample(pool, 10):
        cox = CoxeterSystem.from_graph(tiles.marked_graph_of(expr))
        for _ in range(4):
            word = tuple(rng.choice([1, -1]) * rng.randint(1, cox.rank) for _ in range(rng.randint(0, 24)))
            dense = ExactMatrix.identity(cox.rank)
            for l in word:
                dense = dense * (_reflection(cox, l) if l > 0 else _reflection(cox, -l).inverse())
            assert cox.image(word) == dense


def test_inverse_letters_map_to_the_same_reflection():
    cox = CoxeterSystem.from_graph(WITNESS_GRAPH)
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


def test_witness_graph_from_tile():
    expr = tiles.parse_tile_expression("(((F + P) ; P) + 1_1) ; P")
    g = tiles.marked_graph_of(expr)
    assert MarkedGraph(g.points, g.edges) == WITNESS_GRAPH
