"""Marked graphs: vertices with full edges plus boundary-anchored half-edges.

Vertices are labeled 1..points and carry a total order (the planar order of
the marked points they came from).  Full edges join distinct vertices; a
half-edge hangs off one vertex and records which boundary interval of the
ambient diagram it points at, so later gluing can complete it into a full
edge.  Only full edges count for degrees and for the Artin presentation.
A ``HalfEdge`` is a plain named tuple: the ``MarkedGraph`` holding it is
the one check of its side, interval and point.

The public constructor and the JSON reader check their input.  The graphs
the package derives from a diagram (``tiles.marked_graph_of``) hold every
invariant by construction, so they are built unchecked (``_marked_graph``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .linalg import _trusted, json_field, json_int

_SIDES = ("in", "out")


def edge_neighbors(edges: Sequence[tuple[int, int]]) -> list[set[int]]:
    """For each edge (0-based index), the indices of the other edges that
    share a vertex with it, read off the edges at each vertex: the one
    adjacency rule of the package (adjacent edges braid, others commute)."""
    at: dict[int, list[int]] = {}
    for i, (a, b) in enumerate(edges):
        at.setdefault(a, []).append(i)
        at.setdefault(b, []).append(i)
    neighbors = []
    for i, (a, b) in enumerate(edges):
        around = {*at[a], *at[b]}
        around.discard(i)
        neighbors.append(around)
    return neighbors


class HalfEdge(NamedTuple):
    """Dangling edge end at ``point``, anchored to boundary interval
    ``interval`` (1-based) on the given side of the diagram."""

    point: int
    side: str
    interval: int

    def __str__(self) -> str:
        return f"{self.side}{self.interval}->{self.point}"


def _check_half_edges(halves: Sequence[HalfEdge]) -> None:
    """Raise for the first entry that is not a HalfEdge or has a bad side or interval."""
    for h in halves:
        if type(h) is not HalfEdge:
            raise TypeError(f"half-edge {h!r} is not a HalfEdge")
        if h.side not in _SIDES:
            raise ValueError(f"half-edge side must be 'in' or 'out', got {h.side!r}")
        if h.interval < 1:
            raise ValueError(f"boundary interval must be >= 1, got {h.interval}")


@dataclass(frozen=True)
class MarkedGraph:
    points: int
    edges: tuple[tuple[int, int], ...]
    half_edges: tuple[HalfEdge, ...] = ()

    def __post_init__(self) -> None:
        n = self.points
        if n < 0:
            raise ValueError("point count must be nonnegative")
        if not all(1 <= a < b <= n for a, b in self.edges) or len(set(self.edges)) < len(self.edges):
            raise self._first_fault()
        _check_half_edges(self.half_edges)
        halves = sorted(self.half_edges)  # by point, then side, then interval
        if halves and not 1 <= halves[0].point <= halves[-1].point <= n:
            raise self._first_fault()
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "half_edges", tuple(halves))

    def _first_fault(self) -> ValueError:
        """The error for the first bad edge, else the first half-edge point
        out of range, in input order; the caller has found that there is one."""
        n = self.points
        seen: set[tuple[int, int]] = set()
        for a, b in self.edges:
            if not (1 <= a < b <= n):
                return ValueError(f"edge ({a},{b}) is not an ordered pair of points 1..{n}")
            if (a, b) in seen:
                return ValueError(f"duplicate edge ({a},{b})")
            seen.add((a, b))
        for h in self.half_edges:
            if not (1 <= h.point <= n):
                return ValueError(f"half-edge at point {h.point} out of range 1..{n}")
        raise AssertionError("no faulty edge or half-edge")

    @staticmethod
    def path(k: int) -> "MarkedGraph":
        """Path graph on k vertices: edges (1,2), (2,3), ..."""
        return MarkedGraph(k, tuple((i, i + 1) for i in range(1, k)))

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components under full edges, each a sorted vertex tuple,
        ordered by smallest vertex."""
        parent = list(range(self.points + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, list[int]] = {}
        for v in range(1, self.points + 1):
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(g) for _, g in sorted(groups.items()))

    def to_json_obj(self) -> dict:
        return {
            "points": self.points,
            "edges": [list(e) for e in self.edges],
            "half_edges": [
                {"point": h.point, "side": h.side, "interval": h.interval} for h in self.half_edges
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "MarkedGraph":
        if not isinstance(obj, dict):
            raise ValueError("graph JSON must be an object with 'points', 'edges' and 'half_edges'")
        with json_field("graph", "points"):
            points = json_int(obj["points"])
        with json_field("graph", "edges"):
            edges = tuple((json_int(a), json_int(b)) for a, b in obj.get("edges", ()))
        with json_field("graph", "half_edges"):
            half_edges = tuple(
                HalfEdge(json_int(h["point"]), str(h["side"]), json_int(h["interval"]))
                for h in obj.get("half_edges", ())
            )
            _check_half_edges(half_edges)
        return MarkedGraph(points, edges, half_edges)

    def __str__(self) -> str:
        parts = [f"{self.points} points"]
        parts.append("edges " + (" ".join(f"({a},{b})" for a, b in self.edges) if self.edges else "none"))
        if self.half_edges:
            parts.append("half-edges " + " ".join(str(h) for h in self.half_edges))
        return "; ".join(parts)


def _marked_graph(points: int, edges: Iterable[tuple[int, int]],
                  half_edges: Iterable[HalfEdge]) -> MarkedGraph:
    """``MarkedGraph(points, edges, half_edges)`` for edges and half-edges
    already known to be valid: it sorts them into tuples, unchecked."""
    return _trusted(MarkedGraph, points=points, edges=tuple(sorted(edges)),
                    half_edges=tuple(sorted(half_edges)))
