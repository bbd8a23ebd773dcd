"""The four workloads as fixed, seeded batches of operations.

An operation is one call a user of the package would make.  Each carries
its size bucket (the tag the traced run groups layer times by), its class
(small or large), a ground-truth check that runs outside the timed region,
and a digest that later passes must reproduce exactly.

Batch sizes are fixed: the seed changes the content of every input, never
how many operations of each kind and size there are, so that a figure
moves between seeds only as much as the content of the inputs moves it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import gen
from braidtiles import artin, braid, cli, homs, tiles
from braidtiles.braid import BraidWord


def _same(result):
    return result


@dataclass
class Op:
    kind: str
    tag: str
    large: bool
    run: Callable[[], object]
    check: Callable[[object], bool]
    digest: Callable[[object], object] = _same
    parts: Callable[[object], list] | None = None  # per-check records of a suite result


# -- words ------------------------------------------------------------------

SHORT_LENGTHS = (16, 32, 48, 64)
LONG_LENGTHS = (200, 400, 800)
WORD_KINDS = ("is_trivial", "equal", "handle_reduce")


def _word_op(case: gen.WordCase, kind: str, rng: random.Random) -> Op:
    w = case.word
    n = w.n
    length = len(w.letters)
    tag = f"L{length}"
    large = length > max(SHORT_LENGTHS)
    if kind == "is_trivial":
        return Op(kind, tag, large, lambda: braid.is_trivial(w), lambda r: r is case.trivial)
    if kind == "equal":
        k = rng.randint(1, length - 1)
        a = BraidWord(n, w.letters[:k])
        b = BraidWord(n, gen.inverse(w.letters[k:]))  # a * b^-1 is the word itself
        return Op(kind, tag, large, lambda: braid.equal(a, b), lambda r: r is case.trivial)

    def check(r: BraidWord) -> bool:
        return (
            (len(r.letters) == 0) == case.trivial
            and gen.exponent_sum(r.letters) == gen.exponent_sum(w.letters)
            and gen.permutation(n, r.letters) == gen.permutation(n, w.letters)
        )

    return Op(kind, tag, large, lambda: braid.handle_reduce(w), check, lambda r: r.letters)


def words(seed: int) -> list[Op]:
    """Short words (cross-checked by the free-group oracle) and long words
    (handle reduction only), four short queries per long one; half of each
    cell trivial by construction, strands cycling through 4, 5, 6."""
    rng = random.Random(seed)
    # 400-letter words are the middle of the long class, where p90 falls
    cells = [(length, 480) for length in SHORT_LENGTHS] + list(zip(LONG_LENGTHS, (96, 288, 96)))
    ops = []
    for length, count in cells:
        for i in range(count):
            case = gen.word_case(rng, 4 + i % 3, length, trivial=i % 2 == 0)
            ops.append(_word_op(case, WORD_KINDS[(i // 2) % 3], rng))
    rng.shuffle(ops)
    return ops


# -- matrices ---------------------------------------------------------------


def _symplectic_op(rng: random.Random, g: int, length: int, trivial: bool) -> Op:
    letters = gen.trivial_word(rng, 2 * g, length) if trivial else gen.random_letters(rng, 2 * g, length)
    w = BraidWord(2 * g, tuple(letters))
    j = gen.standard_j(g)

    def check(m) -> bool:
        if trivial:
            return m.entries == gen.identity(2 * g)
        return gen.matmul(gen.matmul(gen.transpose(m.entries), j), m.entries) == j

    return Op("braid_to_symplectic", f"g{g}", g >= 5, lambda: homs.braid_to_symplectic(g, w), check,
              lambda m: m.entries)


def _edge_word(rng: random.Random, edges: int, length: int, trivial: bool) -> tuple[int, ...]:
    """Word over the edge generators of an F-chain.  The chain's marked graph
    is a path whose consecutive edges share a vertex, so its Artin group is
    the braid group on edges + 1 strands and braid-word constructions apply
    letter for letter.  Non-trivial words have odd length."""
    if trivial:
        return tuple(gen.trivial_word(rng, edges + 1, length))
    return tuple(gen.random_letters(rng, edges + 1, length | 1))


def _edge_ops(rng: random.Random, graph, edges: int, count: int) -> list[Op]:
    om = gen.path_pairing(edges)
    tag, large = f"E{edges}", edges >= 39
    ops = []
    for i in range(count):
        trivial = i % 2 == 0
        word = _edge_word(rng, edges, 20 + 10 * (i % 3), trivial)

        def check_image(m, trivial=trivial) -> bool:
            if trivial:
                return m.entries == gen.identity(edges)
            return gen.matmul(gen.matmul(m.entries, om), gen.transpose(m.entries)) == om

        ops.append(Op("edge_transvection_image", tag, large,
                      lambda word=word: homs.edge_transvection_image(graph, word), check_image,
                      lambda m: m.entries))
        # reflections have determinant -1, so odd words never map to the identity;
        # trivial words map to it, and then the certificate cannot decide
        want = artin.Certificate.INCONCLUSIVE if trivial else artin.Certificate.NONTRIVIAL
        ops.append(Op("certify_nontrivial", tag, large,
                      lambda word=word: artin.certify_nontrivial(graph, word),
                      lambda r, want=want: r is want))
    return ops


def _abelianization_op(graph, edges: int) -> Op:
    return Op("abelianization", f"E{edges}", edges >= 39,
              lambda: artin.abelianization(artin.presentation_from_graph(graph)),
              lambda r: r.free_rank == 1 and r.torsion == (),
              lambda r: (r.free_rank, r.torsion))


def chain_graph(depth: int):
    return tiles.marked_graph_of(gen.chain(depth))


def matrices(seed: int, with_e79: bool = False) -> list[Op]:
    """Symplectic images at genus 2, 5, 10, 20; edge-transvection images and
    Coxeter certificates on F-chains of 9, 19 and 39 edges; abelianizations
    of those chains.  The 79-edge abelianization (seconds a call) is added
    only to the traced run, where it gives the E79 scaling point."""
    rng = random.Random(seed)
    ops = []
    for g, lengths, count in ((2, (50, 100, 150, 200), 72), (5, (50, 100, 150, 200), 16),
                              (10, (50, 100), 4), (20, (50,), 2)):
        for i in range(count):
            ops.append(_symplectic_op(rng, g, lengths[i % len(lengths)], trivial=i % 2 == 1))
    for depth, count, abel in ((5, 32, 8), (10, 12, 4), (20, 2, 2)):
        graph = chain_graph(depth)
        edges = 2 * depth - 1
        ops.extend(_edge_ops(rng, graph, edges, count))
        ops.extend(_abelianization_op(graph, edges) for _ in range(abel))
    if with_e79:
        ops.append(_abelianization_op(chain_graph(40), 79))
    rng.shuffle(ops)
    return ops


# -- tiles ------------------------------------------------------------------


SMALL_TILES, FORESTS, CHAINS = 1350, 240, 40


def _tile_op(expr, tag: str, large: bool, presentation: bool = True) -> Op:
    """format -> parse -> normal_form -> marked_graph_of (->
    endomorphism_presentation)."""
    counts = gen.atom_counts(expr)
    rewritten = gen.interchange_rewrite(expr)

    def run():
        text = tiles.format_tile_expression(expr)
        parsed = tiles.parse_tile_expression(text)
        nf = tiles.normal_form(parsed)
        graph = tiles.marked_graph_of(nf)
        pres = tiles.endomorphism_presentation(nf) if presentation else None
        return parsed, nf, graph, pres

    def check(r) -> bool:
        parsed, nf, graph, pres = r
        return (
            gen.same_expr(parsed, expr)
            and tiles.normal_form(rewritten) == nf
            and nf.atom_count == sum(counts.values())
            and graph.points == 2 * counts["F"] + counts["P"]
            and gen.is_forest_max_degree_3(graph.points, graph.edges)
            and (pres is None or len(pres.relators) == len(graph.edges) * (len(graph.edges) - 1) // 2)
        )

    def digest(r):
        _, nf, graph, pres = r
        return nf, graph.edges, None if pres is None else len(pres.relators)

    return Op("tile", tag, large, run, check, digest)


def _enumerate_op(max_atoms: int) -> Op:
    want = gen.tile_counts(max_atoms)
    return Op("enumerate", f"N{max_atoms}", True,
              lambda: sum(1 for _ in tiles.enumerate_tiles(max_atoms)), lambda r: r == want)


def sample_tiles(rng: random.Random, max_atoms: int, count: int) -> list:
    """``count`` distinct tiles of ``enumerate_tiles(max_atoms)``, picked by
    position while the enumeration streams past."""
    picks = set(rng.sample(range(gen.tile_counts(max_atoms)), count))
    return [t for i, t in enumerate(tiles.enumerate_tiles(max_atoms)) if i in picks]


def tile_workload(seed: int) -> list[Op]:
    """Many small tiles sampled from the 6-atom enumeration against fewer
    deep ones: random forests of 50 to 300 atoms, F-chains of depth 100,
    300 and 900, and the 5- and 6-atom enumerations themselves.  Large tiles
    stop at the marked graph: their presentation has a relator for every
    pair of edges (about 70,000 for a 300-atom forest, 1.6 million at depth
    900), which would measure the artin layer's relator list instead of
    the tile layer."""
    rng = random.Random(seed)
    ops = [_tile_op(t, "small", False) for t in sample_tiles(rng, 6, SMALL_TILES)]
    for i in range(FORESTS):
        atoms = (50, 100, 200, 300)[i % 4]
        ops.append(_tile_op(gen.random_forest(rng, atoms), f"A{atoms}", True, presentation=False))
    for depth in (100, 300, 900):
        ops.extend(_tile_op(gen.chain(depth), f"D{depth}", True, presentation=False) for _ in range(CHAINS))
    ops += [_enumerate_op(5), _enumerate_op(6)]
    rng.shuffle(ops)
    return ops


# -- verify -----------------------------------------------------------------


def _suite_op(argv: list[str], large: bool) -> Op:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, json.loads(out.getvalue())

    def check(r) -> bool:
        code, report = r
        return code == 0 and report["summary"]["overall"] == "pass"

    def digest(r):
        code, report = r
        return code, [(c["name"], c["status"], c["details"]) for c in report["checks"]]

    return Op(argv[1], argv[1], large, run, check, digest, check_records)


def verify(seed: int) -> list[Op]:
    """``verify paper`` then ``verify random`` through ``cli.main`` with
    ``--json``; the suite seed is the benchmark seed."""
    return [
        _suite_op(["verify", "paper", "--seed", str(seed), "--json"], True),
        _suite_op(["verify", "random", "--seed", str(seed), "--json"], False),
    ]


def check_records(result) -> list[tuple[str, float, bool]]:
    """(name, wall time, failed) for each check of a suite result.  The JSON
    does not say which checks are required, so an inconclusive check counts
    as failed only when the suite as a whole failed."""
    _, report = result
    suite_failed = report["summary"]["overall"] != "pass"
    return [
        (c["name"], c["wall_time"], c["status"] == "fail" or (suite_failed and c["status"] == "inconclusive"))
        for c in report["checks"]
    ]


BUILDERS = {"verify": verify, "words": words, "matrices": matrices, "tiles": tile_workload}
