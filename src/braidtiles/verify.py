"""Verification suites: the pinned checks behind every headline claim, plus
a seeded randomized property suite.

Each check is wrapped so that an exception is recorded as a failure rather
than aborting the run, the report lists checks in declaration order, and a
fixed seed makes both suites fully deterministic.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, Sequence

from . import artin, braid, homs, tiles
from .graphs import MarkedGraph, _marked_graph
from .linalg import SymplecticForm, is_symplectic
from .reporting import CheckRecord, Report

Outcome = tuple[object, str]  # (True | False | "inconclusive", details)

_WITNESS_TILE = "(((F + P) ; P) + 1_1) ; P"
_WITNESS_WORD = (-3, 2, 3, 4, -3, -2, 3, -4)  # commutator of g3^-1 g2 g3 with g4


def _run(name: str, fn: Callable[[], Outcome]) -> CheckRecord:
    started = time.perf_counter()
    try:
        verdict, details = fn()
    except Exception as exc:
        return CheckRecord(name, "fail", f"exception: {exc!r}", time.perf_counter() - started)
    elapsed = time.perf_counter() - started
    if verdict == "inconclusive":
        return CheckRecord(name, "inconclusive", details, elapsed)
    return CheckRecord(name, "pass" if verdict else "fail", details, elapsed)


def _random_word(rng: random.Random, n: int, max_len: int, min_len: int = 1) -> braid.BraidWord:
    if n == 1:
        return braid._braid_word(1, ())
    length = rng.randint(min_len, max(min_len, max_len))
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    return braid._braid_word(n, letters)


# -- pinned checks ---------------------------------------------------------

def _check_word_problem(seed: int) -> Outcome:
    """Handle reduction against the free-group action on every 3-strand
    word of length <= 8 and on 1000 random 5-strand words; a disagreement
    raises WordProblemMismatch.

    ``braid._suffix_walk`` gives the exhaustive words as states, a free
    reduction and its action images, with the number of words in each.
    Both verdicts on a word are functions of its state: handle
    reduction's is its verdict on the free reduction, the oracle's is
    ``images == identity``.  So each entry is compared once and counts for
    all its words, and a disagreement names the entry's free reduction.
    The kernel runs once per distinct free reduction (13,121 at depth 8).
    Only reductions of at most depth - 2 letters are remembered: a word
    that is not freely reduced loses at least two letters, so a longer
    reduction is a freely reduced word, which the walk meets exactly
    once."""
    rng = random.Random(seed)
    depth = 8
    identity = ((1,), (2,), (3,))
    verdicts: dict[tuple[int, ...], bool] = {}  # free reduction -> handle-reduction verdict
    checked = 0
    for reduced, images, count in braid._suffix_walk(3, depth):
        fast = verdicts.get(reduced)
        if fast is None:
            fast = not braid._handle_reduce_letters(reduced)
            if len(reduced) <= depth - 2:
                verdicts[reduced] = fast
        slow = images == identity
        if fast != slow:
            braid._require_agreement(fast, slow, braid.BraidWord(3, reduced), "the free-group action")
        checked += count
    for _ in range(1000):
        word = _random_word(rng, 5, 16)
        fast = not braid._handle_reduce_letters(word.letters)
        braid._require_agreement(fast, braid.artin_action(word).is_identity(), word, "the free-group action")
        checked += 1
    return True, f"{checked} words, both routes agree"


def _check_tau_relation() -> Outcome:
    tau = braid.BraidWord(5, (3, 2, -3))
    s3 = braid.BraidWord(5, (3,))
    if not braid.equal(tau * s3 * tau, s3 * tau * s3):
        return False, "tau s3 tau != s3 tau s3"
    graph = tiles.marked_graph_of(tiles.parse_tile_expression(_WITNESS_TILE))
    theta_tau = homs.half_twist_image(graph, (2,))
    if theta_tau.letters != tau.letters:
        return False, f"half twist of the long edge is {braid.format_braid_word(theta_tau)}"
    pres = artin.presentation_from_graph(graph)
    braid_rels_with_long_edge = [
        r for r in pres.relators if len(r) == 6 and 2 in {abs(l) for l in r}
    ]
    if len(braid_rels_with_long_edge) != 3:
        return False, f"expected 3 braid relators through the long edge, found {len(braid_rels_with_long_edge)}"
    for rel in braid_rels_with_long_edge:
        if not braid.is_trivial(homs.half_twist_image(graph, rel)):
            return False, f"half-twist image of {pres.format_word(rel)} is not trivial"
    return True, "tau relation and all 3 long-edge relator images verified"


def _distinct_graphs(max_atoms: int) -> list[MarkedGraph]:
    """The distinct marked graphs of ``tiles.enumerate_tiles(max_atoms)``,
    points and edges only, in the order their first tiles come.  Both
    consumers read only the full edges, so no half-edge is kept.

    Those tiles are the ordered forests of trees, and a forest's points and
    edges are its trees' side by side.  So each tree's graph is built once,
    and the forest walk of ``enumerate_tiles`` (``tiles._forests``) folds
    each forest's point count and edges.  The trees' edges are sorted and
    shift into disjoint ascending ranges, so a folded key is already the
    ``(points, edges)`` of the forest's graph, and it is built unchecked."""
    def join(forest: tuple, tree: tuple) -> tuple:
        points, edges = forest
        return points + tree[0], edges + tuple((a + points, b + points) for a, b in tree[1])

    seen: set[tuple] = set()
    out: list[MarkedGraph] = []
    trees = [[(g.points, g.edges) for g in map(tiles.marked_graph_of, group)]
             for group in tiles.enumerate_trees(max_atoms)]
    for key in tiles._forests(trees, join):
        if key not in seen:
            seen.add(key)
            out.append(_marked_graph(*key, ()))
    return out


def _check_theta_all_tiles(graphs: Sequence[MarkedGraph]) -> Outcome:
    # keyed on what half_twist_image reads: the point count and each
    # letter's edge and sign, so an image is built only on a miss
    trivial_cache: dict[tuple[int, tuple[tuple[tuple[int, int], bool], ...]], bool] = {}
    relators = 0
    for g in graphs:
        pres = artin.presentation_from_graph(g)
        for rel in pres.relators:
            key = (g.points, tuple((g.edges[abs(x) - 1], x > 0) for x in rel))
            if key not in trivial_cache:
                trivial_cache[key] = braid.is_trivial(homs.half_twist_image(g, rel))
            if not trivial_cache[key]:
                return False, f"relator {pres.format_word(rel)} on {g} has nontrivial image"
            relators += 1
    return True, f"{relators} relator images over {len(graphs)} distinct graphs, all trivial"


def _check_witness_theta() -> Outcome:
    graph = tiles.marked_graph_of(tiles.parse_tile_expression(_WITNESS_TILE))
    image = homs.half_twist_image(graph, _WITNESS_WORD)
    if not braid.is_trivial(image):
        return False, f"witness image {braid.format_braid_word(image)} is not trivial"
    return True, "witness maps to the trivial braid"


def _check_witness_certificate() -> Outcome:
    graph = tiles.marked_graph_of(tiles.parse_tile_expression(_WITNESS_TILE))
    cert = artin.certify_nontrivial(graph, _WITNESS_WORD)
    if cert is artin.Certificate.NONTRIVIAL:
        return True, "reflection image differs from the identity"
    return "inconclusive", "reflection image is the identity; certificate cannot decide"


def _check_phi_well_defined() -> Outcome:
    """The braid relations of phi on homology, through
    ``homs.braid_to_symplectic`` itself, for genus 2..5: each generator's
    image is symplectic, s_i s_i^-1 maps to the identity (so the
    sign-flipped factor of an inverse letter is the inverse), and every
    relator of the braid presentation maps to the identity."""
    total = 0
    for g in range(2, 6):
        n, form = 2 * g, SymplecticForm(g)
        for i in range(1, n):
            if not is_symplectic(homs.braid_to_symplectic(g, braid.BraidWord(n, (i,))), form):
                return False, f"genus {g}: image of s{i} is not symplectic"
            if not homs.braid_to_symplectic(g, braid.BraidWord(n, (i, -i))).is_identity():
                return False, f"genus {g}: image of s{i} s{i}^-1 is not the identity"
        pres = artin.braid_presentation(n)
        for k, rel in enumerate(pres.relators, start=1):
            if not homs.braid_to_symplectic(g, braid.BraidWord(n, rel)).is_identity():
                return False, f"genus {g}: relator {k}: {pres.format_word(rel)}"
        total += len(pres.relators)
    return True, f"{total} relators over genus 2..5, plus symplectic generator images"


def _check_chain_pairing() -> Outcome:
    for g in range(1, 7):
        classes = homs.chain_classes(g)
        form = SymplecticForm(g)
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                v = form.pairing(a, b)
                if abs(i - j) == 1 and v not in (1, -1):
                    return False, f"genus {g}: adjacent pairing ({i + 1},{j + 1}) = {v}"
                if abs(i - j) != 1 and v != 0:
                    return False, f"genus {g}: non-adjacent pairing ({i + 1},{j + 1}) = {v}"
    return True, "tridiagonal with ±1 off-diagonal for genus 1..6"


def _check_cabling_homomorphism(seed: int) -> Outcome:
    rng = random.Random(seed)
    for trial in range(200):
        q = rng.randint(1, 3)
        k = rng.randint(1, 2)
        left = (_random_word(rng, q, 6, 0), [_random_word(rng, k, 4, 0) for _ in range(q)])
        right = (_random_word(rng, q, 6, 0), [_random_word(rng, k, 4, 0) for _ in range(q)])
        sigma, mus = braid.wreath_multiply(left, right)
        of_product = braid.cable(q, k, sigma, mus)
        product_of = braid.cable(q, k, *left) * braid.cable(q, k, *right)
        if not braid.equal(of_product, product_of):
            return False, f"trial {trial}: cable of product differs from product of cables"
    return True, "200 random pairs with q <= 3, k <= 2"


def _check_discrepancy() -> Outcome:
    mus_pool = [braid.BraidWord(2, letters) for letters in
                [()] + [(a,) for a in (1, -1)] + [(a, b) for a in (1, -1) for b in (1, -1)]]
    eps = braid.BraidWord(2, ())
    for m1 in mus_pool:
        for m2 in mus_pool:
            if not homs.cabling_discrepancy(1, 2, eps, [m1, m2]).equal:
                return False, "routes differ on a trivial permutation input"
    witnesses = 0
    for sigma in (braid.BraidWord(2, (1,)), braid.BraidWord(2, (1, 1))):
        for m1 in mus_pool:
            for m2 in mus_pool:
                if not homs.cabling_discrepancy(1, 2, sigma, [m1, m2]).equal:
                    witnesses += 1
    if witnesses == 0:
        return False, "no input separated the two routes"
    return True, f"all 49 trivial-sigma inputs agree; {witnesses} of 98 twisted inputs differ"


def _interchange_holds(t1: tiles.TileExpr, t2: tiles.TileExpr) -> bool:
    """``t1 + t2`` has the normal form of both stagings, t1 first and t2 first."""
    direct = tiles.normal_form(tiles.UnionExpr(t1, t2))
    first_then = tiles.normal_form(
        tiles.ComposeExpr(
            tiles.UnionExpr(t1, tiles.IdentityExpr(t2.dom)),
            tiles.UnionExpr(tiles.IdentityExpr(t1.cod), t2),
        )
    )
    second_then = tiles.normal_form(
        tiles.ComposeExpr(
            tiles.UnionExpr(tiles.IdentityExpr(t1.dom), t2),
            tiles.UnionExpr(t1, tiles.IdentityExpr(t2.cod)),
        )
    )
    return direct == first_then == second_then


def _check_tile_algebra(seed: int) -> Outcome:
    rng = random.Random(seed)
    pool = [t for group in tiles.enumerate_trees(3) for t in group]
    for trial in range(100):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        if not _interchange_holds(t1, t2):
            return False, f"trial {trial}: interchange failed for {t1} and {t2}"
    fp, pf = tiles.UnionExpr(tiles.F, tiles.P), tiles.UnionExpr(tiles.P, tiles.F)
    if tiles.normal_form(fp) == tiles.normal_form(pf):
        return False, "F + P and P + F have equal normal forms"
    for k in range(1, 5):
        chain = tiles.compose(*([tiles.F] * k))
        pres = tiles.endomorphism_presentation(chain)
        std = artin.braid_presentation(2 * k)
        if len(pres.generators) != 2 * k - 1:
            return False, f"F^{k}: expected {2 * k - 1} generators, got {len(pres.generators)}"
        if sorted(pres.relators) != sorted(std.relators):
            return False, f"F^{k}: relator multiset differs from the braid presentation"
    return True, "interchange on 100 pairs; union asymmetry; F-chain presentations match braid groups"


def _check_abelianizations(graphs: Sequence[MarkedGraph]) -> Outcome:
    for k in range(3, 9):
        inv = artin.abelianization(artin.braid_presentation(k))
        if inv.free_rank != 1 or inv.torsion:
            return False, f"braid group on {k} strands abelianized to {inv}"
    connected = 0
    for g in graphs:
        if not g.edges:
            continue
        comps_with_edges = [c for c in g.components() if len(c) > 1]
        if len(comps_with_edges) != 1 or len(comps_with_edges[0]) != g.points:
            continue  # disconnected or has isolated points: not a connected-graph case
        inv = artin.abelianization(artin.presentation_from_graph(g))
        if inv.free_rank != 1 or inv.torsion:
            return False, f"connected graph {g} abelianized to {inv}"
        connected += 1
    disjoint = artin.abelianization(
        artin.presentation_from_graph(MarkedGraph(4, ((1, 2), (3, 4))))
    )
    if disjoint.free_rank != 2 or disjoint.torsion:
        return False, f"two disjoint edges abelianized to {disjoint}"
    return True, f"braid groups k=3..8 and {connected} connected graphs all give Z; disjoint pair gives Z^2"


def _pure_word(rng: random.Random, n: int, factors: int) -> braid.BraidWord:
    """Random word with trivial underlying permutation: a product of squared
    band generators."""
    out = braid.BraidWord(n, ())
    for _ in range(factors):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        band = homs.band_generator(n, i, j)
        squared = band * band
        out = out * (squared if rng.random() < 0.5 else squared.inverse())
    return out


def _check_phi1_phi2(seed: int) -> Outcome:
    rng = random.Random(seed)
    k, g = 3, 1
    for trial in range(100):
        b = _random_word(rng, k, 8, 0)
        b2 = b * _pure_word(rng, k, 2)
        if braid.underlying_permutation(b) != braid.underlying_permutation(b2):
            return False, f"trial {trial}: pure multiplier changed the permutation"
        if homs.block_permutation_image(k, g, b) != homs.block_permutation_image(k, g, b2):
            return False, f"trial {trial}: images differ despite equal permutations"
    for trial in range(100):
        w1 = _random_word(rng, 4, 8, 0)
        w2 = _random_word(rng, 4, 8, 0)
        pair1, pair2 = homs.mirrored_pair(w1), homs.mirrored_pair(w2)
        product = pair1.multiply(pair2)  # construction re-checks the pullback condition
        of_product = homs.mirrored_pair(w1 * w2)
        if not braid.equal(product.first, of_product.first) or not braid.equal(
            product.second, of_product.second
        ):
            return False, f"trial {trial}: mirrored pair is not multiplicative"
    return True, "100 equal-permutation pairs and 100 homomorphism pairs"


def paper_suite(seed: int = 0) -> Report:
    """Every pinned claim as one named check, in a fixed order."""
    graphs = _distinct_graphs(5)
    checks = (
        _run("word-problem-agreement", lambda: _check_word_problem(seed)),
        _run("half-twist-relation", _check_tau_relation),
        _run("half-twist-well-defined", lambda: _check_theta_all_tiles(graphs)),
        _run("witness-half-twist-trivial", _check_witness_theta),
        _run("witness-coxeter-certificate", _check_witness_certificate),
        _run("symplectic-well-defined", _check_phi_well_defined),
        _run("chain-pairing-tridiagonal", _check_chain_pairing),
        _run("cabling-homomorphism", lambda: _check_cabling_homomorphism(seed)),
        _run("cabling-blockwise-discrepancy", _check_discrepancy),
        _run("tile-algebra", lambda: _check_tile_algebra(seed)),
        _run("abelianizations", lambda: _check_abelianizations(graphs)),
        _run("permutation-factorization-and-mirroring", lambda: _check_phi1_phi2(seed)),
    )
    return Report("pinned verification", checks)


# -- randomized suite ------------------------------------------------------

def _check_random_words(seed: int, max_len: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(200):
        w = _random_word(rng, 5, max_len, 0)
        braid.is_trivial(w)  # raises on any cross-check disagreement
    return True, f"200 words of length <= {max_len}, no route disagreement"


def _check_random_inverses(seed: int, max_len: int, genus: int) -> Outcome:
    rng = random.Random(seed)
    form = SymplecticForm(genus)
    for trial in range(50):
        w = _random_word(rng, 2 * genus, max_len, 0)
        m = homs.braid_to_symplectic(genus, w)
        if not is_symplectic(m, form):
            return False, f"trial {trial}: image is not symplectic"
        if not (m * homs.braid_to_symplectic(genus, w.inverse())).is_identity():
            return False, f"trial {trial}: image of the inverse is not the inverse"
    return True, f"50 words at genus {genus}: symplectic images, inverses match"


def _check_random_interchange(seed: int) -> Outcome:
    rng = random.Random(seed)
    pool = [t for group in tiles.enumerate_trees(4) for t in group]
    for trial in range(50):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        if not _interchange_holds(t1, t2):
            return False, f"trial {trial}: interchange failed"
    return True, "50 random pairs"


def _check_random_wreath(seed: int, genus: int) -> Outcome:
    rng = random.Random(seed)
    for trial in range(25):
        q = rng.randint(1, 3)
        sigma1 = _random_word(rng, q, 4, 0)
        sigma2 = _random_word(rng, q, 4, 0)
        fs1 = [homs.braid_to_symplectic(genus, _random_word(rng, 2 * genus, 3, 0)) for _ in range(q)]
        fs2 = [homs.braid_to_symplectic(genus, _random_word(rng, 2 * genus, 3, 0)) for _ in range(q)]
        p = braid.underlying_permutation(sigma1)
        fs_product = [fs1[i] * fs2[p(i + 1) - 1] for i in range(q)]
        lhs = homs.wreath_symplectic(q, genus, sigma1, fs1) * homs.wreath_symplectic(q, genus, sigma2, fs2)
        rhs = homs.wreath_symplectic(q, genus, sigma1 * sigma2, fs_product)
        if lhs != rhs:
            return False, f"trial {trial}: wreath images are not multiplicative"
    return True, f"25 random pairs at genus {genus}"


def random_suite(seed: int = 0, max_len: int = 16, genus: int = 2) -> Report:
    """Seeded spot checks of the core algebraic properties on fresh samples."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if max_len < 0:
        raise ValueError(f"maximum word length must be nonnegative, got {max_len}")
    checks = (
        _run("random-word-problem", lambda: _check_random_words(seed, max_len)),
        _run("random-symplectic-images", lambda: _check_random_inverses(seed, max_len, genus)),
        _run("random-interchange", lambda: _check_random_interchange(seed)),
        _run("random-wreath-multiplicative", lambda: _check_random_wreath(seed, genus)),
        _run("random-cabling", lambda: _check_cabling_homomorphism(seed + 1)),
        _run("random-factorization-mirroring", lambda: _check_phi1_phi2(seed + 1)),
    )
    return Report("randomized verification", checks)
