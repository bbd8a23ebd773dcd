"""Untimed robustness probe: ``marked_graph_of`` on F-chains of depth 1000,
2000 and 20000, through the library at the default recursion limit.

    python3 benchmarks/deep_probe.py

Prints one line per depth and, last, the number of depths that failed.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
from braidtiles import tiles  # noqa: E402

failed = 0
for depth in (1000, 2000, 20000):
    try:
        graph = tiles.marked_graph_of(gen.chain(depth))
        ok = graph.points == 2 * depth and gen.is_forest_max_degree_3(graph.points, graph.edges)
        why = "ok" if ok else "wrong graph"
    except Exception as exc:  # the probe reports every failure and goes on
        ok, why = False, type(exc).__name__
    failed += not ok
    print(f"depth {depth}: {why}")
print(failed)
