"""Command line front end.

Braid words use the text format ``b<n>: s1 s2^-1`` (``e`` for the empty
word); tile expressions use atoms D, P, F, identities ``1_<n>``, ``+`` for
side-by-side union (binds tighter) and ``;`` for gluing.  Words over a
graph's edge generators are written ``g1 g2^-1``.  ``--json`` switches
every subcommand to a machine-readable object on stdout.

Exit codes: 0 for answered queries and passing verification, 1 for a
failing verification suite, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import artin, braid, homs, tiles, verify
from .graphs import MarkedGraph
from .linalg import ExactMatrix


def _emit(args: argparse.Namespace, human: str, obj: object) -> None:
    if args.json:
        print(json.dumps(obj, indent=2))
    elif not args.quiet:
        print(human)


# -- braid subcommands -----------------------------------------------------

def _cmd_braid_reduce(args: argparse.Namespace) -> int:
    word = braid.parse_braid_word(args.word)
    reduced = braid.handle_reduce(word)
    _emit(args, braid.format_braid_word(reduced), {"word": braid.format_braid_word(reduced)})
    return 0


def _cmd_braid_trivial(args: argparse.Namespace) -> int:
    result = braid.is_trivial(braid.parse_braid_word(args.word))
    _emit(args, "true" if result else "false", {"trivial": result})
    return 0


def _cmd_braid_equal(args: argparse.Namespace) -> int:
    result = braid.equal(braid.parse_braid_word(args.first), braid.parse_braid_word(args.second))
    _emit(args, "true" if result else "false", {"equal": result})
    return 0


def _cmd_braid_cable(args: argparse.Namespace) -> int:
    sigma = braid.parse_braid_word(args.sigma)
    mus = [braid.parse_braid_word(m) for m in args.mus]
    if not mus:
        raise ValueError("cable needs one inner word per strand of the outer word")
    k = mus[0].n
    cabled = braid.cable(sigma.n, k, sigma, mus)
    _emit(args, braid.format_braid_word(cabled), {"word": braid.format_braid_word(cabled)})
    return 0


def _cmd_braid_mirror(args: argparse.Namespace) -> int:
    mirrored = braid.mirror(braid.parse_braid_word(args.word))
    _emit(args, braid.format_braid_word(mirrored), {"word": braid.format_braid_word(mirrored)})
    return 0


# -- tile subcommands ------------------------------------------------------

def _cmd_tile_nf(args: argparse.Namespace) -> int:
    nf = tiles.normal_form(tiles.parse_tile_expression(args.expr))
    _emit(args, str(nf), nf.to_json_obj())
    return 0


def _cmd_tile_tree(args: argparse.Namespace) -> int:
    graph = tiles.marked_graph_of(tiles.parse_tile_expression(args.expr))
    _emit(args, str(graph), graph.to_json_obj())
    return 0


def _cmd_tile_group(args: argparse.Namespace) -> int:
    pres = tiles.endomorphism_presentation(tiles.parse_tile_expression(args.expr))
    _emit(args, str(pres), pres.to_json_obj())
    return 0


def _cmd_tile_mcg(args: argparse.Namespace) -> int:
    k = tiles.marked_point_count(tiles.parse_tile_expression(args.expr))
    human = f"{k} marked points; completed endomorphism group: braid group on {k} strands"
    _emit(args, human, {"marked_points": k, "braid_strands": k})
    return 0


# -- artin subcommands -----------------------------------------------------

def _graph_from_args(args: argparse.Namespace) -> MarkedGraph:
    if getattr(args, "tile", None) is not None:
        return tiles.marked_graph_of(tiles.parse_tile_expression(args.tile))
    return MarkedGraph.from_json_obj(json.loads(args.graph))


def _cmd_artin_abelianize(args: argparse.Namespace) -> int:
    if args.presentation is not None:
        pres = artin.Presentation.from_json_obj(json.loads(args.presentation))
    else:
        pres = artin.presentation_from_graph(_graph_from_args(args))
    inv = artin.abelianization(pres)
    _emit(args, str(inv), inv.to_json_obj())
    return 0


def _cmd_artin_coxeter(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    pres = artin.presentation_from_graph(graph)
    system = artin.CoxeterSystem.from_graph(graph)
    image = system.image(pres.parse_word(args.word))
    _emit(args, str(image), image.to_json_obj())
    return 0


def _cmd_artin_certify(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    pres = artin.presentation_from_graph(graph)
    cert = artin.certify_nontrivial(graph, pres.parse_word(args.word))
    _emit(args, cert.value, {"certificate": cert.value})
    return 0


# -- hom subcommands -------------------------------------------------------

def _cmd_hom_phi(args: argparse.Namespace) -> int:
    word = braid.parse_braid_word(args.word)
    image = homs.braid_to_symplectic(args.genus, word)
    _emit(args, str(image), image.to_json_obj())
    return 0


def _cmd_hom_theta(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    pres = artin.presentation_from_graph(graph)
    image = homs.half_twist_image(graph, pres.parse_word(args.word))
    _emit(args, braid.format_braid_word(image), {"word": braid.format_braid_word(image)})
    return 0


def _cmd_hom_phitile(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    pres = artin.presentation_from_graph(graph)
    image = homs.edge_transvection_image(graph, pres.parse_word(args.word))
    _emit(args, str(image), image.to_json_obj())
    return 0


def _cmd_hom_omega_gamma(args: argparse.Namespace) -> int:
    sigma = braid.parse_braid_word(args.sigma)
    if args.blocks is not None:
        blocks = json.loads(args.blocks)
        if not isinstance(blocks, list):
            raise ValueError("blocks must be a JSON list of matrices")
        blocks = [ExactMatrix.from_json_obj(b) for b in blocks]
    else:
        blocks = [ExactMatrix.identity(2 * args.genus)] * sigma.n
    image = homs.wreath_symplectic(sigma.n, args.genus, sigma, blocks)
    _emit(args, str(image), image.to_json_obj())
    return 0


def _cmd_hom_phi1(args: argparse.Namespace) -> int:
    word = braid.parse_braid_word(args.word)
    image = homs.block_permutation_image(word.n, args.genus, word)
    _emit(args, str(image), image.to_json_obj())
    return 0


def _cmd_hom_discrepancy(args: argparse.Namespace) -> int:
    sigma = braid.parse_braid_word(args.sigma)
    mus = [braid.parse_braid_word(m) for m in args.mus]
    result = homs.cabling_discrepancy(args.genus, sigma.n, sigma, mus)
    human = "\n".join(
        [
            f"equal: {'true' if result.equal else 'false'}",
            "image of the cabled word:",
            str(result.cabled),
            "blockwise image permuted by sigma:",
            str(result.blockwise),
        ]
    )
    _emit(args, human, result.to_json_obj())
    return 0


# -- verify subcommands ----------------------------------------------------

def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = verify.paper_suite(seed=args.seed)
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        print(report.render(quiet=args.quiet))
    return 0 if report.passed else 1


def _cmd_verify_random(args: argparse.Namespace) -> int:
    report = verify.random_suite(seed=args.seed, max_len=args.max_len, genus=args.genus)
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        print(report.render(quiet=args.quiet))
    return 0 if report.passed else 1


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress routine output")

    parser = argparse.ArgumentParser(
        prog="braidtiles",
        description="exact computations with braid groups, tile diagrams, and their homomorphisms",
    )
    top = parser.add_subparsers(dest="group", required=True)

    braid_p = top.add_parser("braid", help="braid word operations").add_subparsers(
        dest="command", required=True
    )
    p = braid_p.add_parser("reduce", parents=[common], help="fully handle-reduce a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_braid_reduce)
    p = braid_p.add_parser("trivial", parents=[common], help="decide triviality")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_braid_trivial)
    p = braid_p.add_parser("equal", parents=[common], help="decide equality of two words")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_braid_equal)
    p = braid_p.add_parser(
        "cable", parents=[common], help="replace each strand of the outer word by a cable"
    )
    p.add_argument("sigma", help="outer word on q strands")
    p.add_argument("mus", nargs="+", help="q inner words, all on the same strand count")
    p.set_defaults(handler=_cmd_braid_cable)
    p = braid_p.add_parser("mirror", parents=[common], help="invert every letter")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_braid_mirror)

    tile_p = top.add_parser("tile", help="tile expression operations").add_subparsers(
        dest="command", required=True
    )
    p = tile_p.add_parser("nf", parents=[common], help="canonical form of an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_tile_nf)
    p = tile_p.add_parser("tree", parents=[common], help="marked graph of a tile")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_tile_tree)
    p = tile_p.add_parser("group", parents=[common], help="Artin presentation on the tile's edges")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_tile_group)
    p = tile_p.add_parser("mcg", parents=[common], help="marked point count (braid strands after completion)")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_tile_mcg)

    def add_graph_source(p: argparse.ArgumentParser, with_presentation: bool = False) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--tile", help="tile expression whose marked graph to use")
        group.add_argument("--graph", help="marked graph as JSON")
        if with_presentation:
            group.add_argument("--presentation", help="presentation as JSON")

    artin_p = top.add_parser("artin", help="graph Artin group operations").add_subparsers(
        dest="command", required=True
    )
    p = artin_p.add_parser("abelianize", parents=[common], help="first homology of the group")
    add_graph_source(p, with_presentation=True)
    p.set_defaults(handler=_cmd_artin_abelianize, presentation=None)
    p = artin_p.add_parser("coxeter", parents=[common], help="reflection image of a word")
    add_graph_source(p)
    p.add_argument("word", help="word over the edge generators, e.g. 'g1 g2^-1'")
    p.set_defaults(handler=_cmd_artin_coxeter)
    p = artin_p.add_parser("certify", parents=[common], help="sound nontriviality certificate")
    add_graph_source(p)
    p.add_argument("word", help="word over the edge generators")
    p.set_defaults(handler=_cmd_artin_certify)

    hom_p = top.add_parser("hom", help="homomorphism images").add_subparsers(
        dest="command", required=True
    )
    p = hom_p.add_parser("phi", parents=[common], help="symplectic image of a braid word on 2g strands")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(handler=_cmd_hom_phi)
    p = hom_p.add_parser("theta", parents=[common], help="braid image of an edge word by half twists")
    add_graph_source(p)
    p.add_argument("word")
    p.set_defaults(handler=_cmd_hom_theta)
    p = hom_p.add_parser("phitile", parents=[common], help="edge-transvection image of an edge word")
    add_graph_source(p)
    p.add_argument("word")
    p.set_defaults(handler=_cmd_hom_phitile)
    p = hom_p.add_parser("omega-gamma", parents=[common], help="blockwise symplectic image permuted by a braid")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("sigma", help="outer braid word on q strands")
    p.add_argument("blocks", nargs="?", default=None, help="JSON list of q symplectic matrices (default: identities)")
    p.set_defaults(handler=_cmd_hom_omega_gamma)
    p = hom_p.add_parser("phi1", parents=[common], help="block-permutation symplectic image of a braid word")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(handler=_cmd_hom_phi1)
    p = hom_p.add_parser("discrepancy", parents=[common], help="cabled versus blockwise symplectic images")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("sigma")
    p.add_argument("mus", nargs="+", help="inner words on 2*genus strands, one per outer strand")
    p.set_defaults(handler=_cmd_hom_discrepancy)

    verify_p = top.add_parser("verify", help="verification suites").add_subparsers(
        dest="command", required=True
    )
    p = verify_p.add_parser("paper", parents=[common], help="run the pinned verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_paper)
    p = verify_p.add_parser("random", parents=[common], help="run seeded randomized property checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=16, help="maximum random word length")
    p.add_argument("--genus", type=int, default=2, help="genus for symplectic checks")
    p.set_defaults(handler=_cmd_verify_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    sys.setrecursionlimit(20000)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
