import itertools
from collections import Counter

import pytest

from braidtiles.graphs import HalfEdge, MarkedGraph, edge_neighbors


def test_half_edge_validation():
    # a HalfEdge is a plain tuple; the graph that holds it checks its side and interval
    bad = [(HalfEdge(1, "up", 1), r"^half-edge side must be 'in' or 'out', got 'up'$"),
           (HalfEdge(1, "in", 0), r"^boundary interval must be >= 1, got 0$")]
    for h, message in bad:
        with pytest.raises(ValueError, match=message):
            MarkedGraph(2, (), (HalfEdge(2, "out", 1), h))
        with pytest.raises(ValueError, match=r"^graph JSON field 'half_edges': " + message[1:]):
            MarkedGraph.from_json_obj({"points": 2, "half_edges": [h._asdict()]})
    assert str(HalfEdge(3, "out", 2)) == "out2->3"
    # anything else, a plain tuple included, fails when the graph is built
    for h in [(1, "in", 1), [1, "in", 1], "in1->1", None]:
        with pytest.raises(TypeError, match=r"is not a HalfEdge$"):
            MarkedGraph(2, (), (HalfEdge(1, "in", 1), h))


def test_graph_validation():
    with pytest.raises(ValueError):
        MarkedGraph(2, ((2, 1),))  # endpoints must be ordered
    with pytest.raises(ValueError):
        MarkedGraph(2, ((1, 1),))
    with pytest.raises(ValueError):
        MarkedGraph(2, ((1, 3),))
    with pytest.raises(ValueError):
        MarkedGraph(3, ((1, 2), (1, 2)))  # no duplicate edges


def test_graph_errors_name_the_first_fault_in_input_order():
    # sorted, (1,1) would come first; the message names (3,9), the first in input order
    with pytest.raises(ValueError, match=r"^edge \(3,9\) is not an ordered pair of points 1\.\.3$"):
        MarkedGraph(3, ((1, 2), (3, 9), (1, 1)))
    # a duplicate after an out-of-range edge: the range error comes first
    with pytest.raises(ValueError, match=r"^edge \(2,7\) is not an ordered pair of points 1\.\.3$"):
        MarkedGraph(3, ((1, 2), (2, 7), (1, 2)))
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,2\)$"):
        MarkedGraph(3, ((1, 2), (1, 2), (2, 7)))
    # a bad edge is reported before a bad half-edge, and half-edges in input order
    with pytest.raises(ValueError, match=r"^edge \(2,7\)"):
        MarkedGraph(3, ((2, 7),), (HalfEdge(9, "in", 1),))
    with pytest.raises(ValueError, match=r"^edge \(2,7\)"):
        MarkedGraph(3, ((2, 7),), (HalfEdge(1, "up", 1),))
    with pytest.raises(ValueError, match=r"^half-edge at point 4 out of range 1\.\.2$"):
        MarkedGraph(2, ((1, 2),), (HalfEdge(1, "in", 1), HalfEdge(4, "in", 2), HalfEdge(0, "out", 1)))


def test_half_edges_sort_by_point_then_in_before_out_then_interval():
    halves = (HalfEdge(2, "in", 1), HalfEdge(1, "out", 1), HalfEdge(1, "in", 3), HalfEdge(1, "in", 2),
              HalfEdge(1, "out", 4))
    g = MarkedGraph(2, (), halves)
    assert [str(h) for h in g.half_edges] == ["in2->1", "in3->1", "out1->1", "out4->1", "in1->2"]
    assert g.half_edges == tuple(sorted(halves))  # the tuple order of (point, side, interval)


def test_edges_are_stored_sorted():
    g = MarkedGraph(3, ((2, 3), (1, 2)))
    assert g.edges == ((1, 2), (2, 3))


def test_path():
    g = MarkedGraph.path(4)
    assert g.points == 4
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert MarkedGraph.path(1).edges == ()


def test_degrees_and_neighbors():
    g = MarkedGraph(5, ((1, 2), (2, 4), (3, 4), (4, 5)))
    assert Counter(itertools.chain(*g.edges)) == {1: 1, 2: 2, 3: 1, 4: 3, 5: 1}
    assert edge_neighbors(g.edges) == [{1}, {0, 2, 3}, {1, 3}, {1, 2}]


def test_components():
    g = MarkedGraph(5, ((1, 2), (4, 5)))
    assert g.components() == ((1, 2), (3,), (4, 5))
    assert MarkedGraph(0, ()).components() == ()


def test_json_round_trip():
    g = MarkedGraph(3, ((1, 2),), (HalfEdge(1, "in", 1), HalfEdge(3, "out", 1)))
    assert MarkedGraph.from_json_obj(g.to_json_obj()) == g


def test_str():
    g = MarkedGraph(2, ((1, 2),), (HalfEdge(1, "in", 1),))
    assert str(g) == "2 points; edges (1,2); half-edges in1->1"
    assert str(MarkedGraph(1, ())) == "1 points; edges none"
