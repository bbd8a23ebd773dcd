"""Command line front end.

Braid words use the text format ``b<n>: s1 s2^-1`` (``e`` for the empty
word); tile expressions use atoms D, P, F, identities ``1_<n>``, ``+`` for
side-by-side union (binds tighter) and ``;`` for gluing.  Words over a
graph's edge generators are written ``g1 g2^-1``.  Spaces in these
formats are ASCII (space, tab, newline, carriage return), and numerals,
integer options (``--genus``, ``--seed``, ``--max-len``) included, are
ASCII decimal.  ``--json`` switches every subcommand to a machine-readable
object on stdout.

Exit codes: 0 for answered queries and passing verification, 1 for a
failing verification suite, 2 for usage, parse or input errors, 3 for an
internal failure (the word-problem routes disagree, handle reduction
exceeds its step budget, or an allocation raises MemoryError), 141 when
the reader closes stdout early, with nothing more printed.  Errors print
``error: ...`` on stderr.  ``tile tree '1_1000000000000'`` exits 3
only under an address-space limit (``ulimit -v``); without one the
operating system may kill the process before Python raises MemoryError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import artin, braid, homs, tiles, verify
from .graphs import MarkedGraph
from .linalg import ExactMatrix, decimal, long_numeral
from .reporting import Report

Result = tuple[str, object]  # (human-readable text, JSON object)


def _json_numeral(digits: str) -> int:
    """A JSON integer literal; one of more digits than ``int`` converts is
    named by its length, with no advice about interpreter settings."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(long_numeral(digits.lstrip("-"))) from None


def _json_arg(text: str) -> object:
    """Parse a JSON argument; nesting too deep to parse, or an integer too
    long to convert, is a ValueError."""
    try:
        return json.loads(text, parse_int=_json_numeral)
    except RecursionError:
        raise ValueError("JSON argument is nested too deeply") from None


def _shown(value) -> Result:
    """Text and JSON of a value that has both (``__str__`` and ``to_json_obj``)."""
    return str(value), value.to_json_obj()


def _word_result(word: braid.BraidWord) -> Result:
    text = braid.format_braid_word(word)
    return text, {"word": text}


# -- braid subcommands -----------------------------------------------------

def _cmd_braid_reduce(args: argparse.Namespace) -> Result:
    return _word_result(braid.handle_reduce(braid.parse_braid_word(args.word)))


def _cmd_braid_trivial(args: argparse.Namespace) -> Result:
    result = braid.is_trivial(braid.parse_braid_word(args.word))
    return ("true" if result else "false"), {"trivial": result}


def _cmd_braid_equal(args: argparse.Namespace) -> Result:
    result = braid.equal(braid.parse_braid_word(args.first), braid.parse_braid_word(args.second))
    return ("true" if result else "false"), {"equal": result}


def _cmd_braid_cable(args: argparse.Namespace) -> Result:
    sigma = braid.parse_braid_word(args.sigma)
    mus = [braid.parse_braid_word(m) for m in args.mus]
    return _word_result(braid.cable(sigma.n, mus[0].n, sigma, mus))


def _cmd_braid_mirror(args: argparse.Namespace) -> Result:
    return _word_result(braid.mirror(braid.parse_braid_word(args.word)))


# -- tile subcommands ------------------------------------------------------

def _cmd_tile_nf(args: argparse.Namespace) -> Result:
    return _shown(tiles.normal_form(tiles.parse_tile_expression(args.expr)))


def _cmd_tile_tree(args: argparse.Namespace) -> Result:
    return _shown(tiles.marked_graph_of(tiles.parse_tile_expression(args.expr)))


def _cmd_tile_group(args: argparse.Namespace) -> Result:
    return _shown(tiles.endomorphism_presentation(tiles.parse_tile_expression(args.expr)))


def _cmd_tile_mcg(args: argparse.Namespace) -> Result:
    k = tiles.marked_point_count(tiles.parse_tile_expression(args.expr))
    human = f"{k} marked points; completed endomorphism group: braid group on {k} strands"
    return human, {"marked_points": k, "braid_strands": k}


# -- artin subcommands -----------------------------------------------------

def _graph_from_args(args: argparse.Namespace) -> MarkedGraph:
    if args.tile is not None:
        return tiles.marked_graph_of(tiles.parse_tile_expression(args.tile))
    return MarkedGraph.from_json_obj(_json_arg(args.graph))


def _graph_and_word(args: argparse.Namespace) -> tuple[MarkedGraph, tuple[int, ...]]:
    """The graph of ``--tile``/``--graph`` and ``args.word`` over its edge generators."""
    graph = _graph_from_args(args)
    return graph, artin.Presentation(artin.edge_generators(graph), ()).parse_word(args.word)


def _cmd_artin_abelianize(args: argparse.Namespace) -> Result:
    if args.presentation is not None:
        pres = artin.Presentation.from_json_obj(_json_arg(args.presentation))
    else:
        pres = artin.presentation_from_graph(_graph_from_args(args))
    return _shown(artin.abelianization(pres))


def _cmd_artin_coxeter(args: argparse.Namespace) -> Result:
    graph, word = _graph_and_word(args)
    return _shown(artin.CoxeterSystem(graph).image(word))


def _cmd_artin_certify(args: argparse.Namespace) -> Result:
    cert = artin.certify_nontrivial(*_graph_and_word(args))
    return cert.value, {"certificate": cert.value}


# -- hom subcommands -------------------------------------------------------

def _cmd_hom_phi(args: argparse.Namespace) -> Result:
    return _shown(homs.braid_to_symplectic(args.genus, braid.parse_braid_word(args.word)))


def _cmd_hom_theta(args: argparse.Namespace) -> Result:
    return _word_result(homs.half_twist_image(*_graph_and_word(args)))


def _cmd_hom_phitile(args: argparse.Namespace) -> Result:
    return _shown(homs.edge_transvection_image(*_graph_and_word(args)))


def _cmd_hom_omega_gamma(args: argparse.Namespace) -> Result:
    sigma = braid.parse_braid_word(args.sigma)
    if args.blocks is None:
        return _shown(homs.block_permutation_image(sigma.n, args.genus, sigma))
    blocks = _json_arg(args.blocks)
    if not isinstance(blocks, list):
        raise ValueError("blocks must be a JSON list of matrices")
    blocks = [ExactMatrix.from_json_obj(b) for b in blocks]
    return _shown(homs.wreath_symplectic(sigma.n, args.genus, sigma, blocks))


def _cmd_hom_phi1(args: argparse.Namespace) -> Result:
    word = braid.parse_braid_word(args.word)
    return _shown(homs.block_permutation_image(word.n, args.genus, word))


def _cmd_hom_discrepancy(args: argparse.Namespace) -> Result:
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
    return human, result.to_json_obj()


# -- verify subcommands ----------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> Report:
    if args.command == "paper":
        return verify.paper_suite(seed=args.seed)
    return verify.random_suite(seed=args.seed, max_len=args.max_len, genus=args.genus)


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

    def group(name: str, help: str) -> argparse._SubParsersAction:
        return top.add_parser(name, help=help).add_subparsers(dest="command", required=True)

    def command(sub: argparse._SubParsersAction, name: str, handler, help: str,
                *positionals: str | tuple[str, dict]) -> argparse.ArgumentParser:
        """Register a subcommand; a positional is a name or (name, add_argument keywords)."""
        p = sub.add_parser(name, parents=[common], help=help)
        for arg in positionals:
            dest, kwargs = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(dest, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def graph_source(p: argparse.ArgumentParser, with_presentation: bool = False) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--tile", help="tile expression whose marked graph to use")
        source.add_argument("--graph", help="marked graph as JSON")
        if with_presentation:
            source.add_argument("--presentation", help="presentation as JSON")

    def genus(p: argparse.ArgumentParser) -> None:
        p.add_argument("--genus", type=decimal, required=True)

    sub = group("braid", "braid word operations")
    command(sub, "reduce", _cmd_braid_reduce, "fully handle-reduce a word", "word")
    command(sub, "trivial", _cmd_braid_trivial, "decide triviality", "word")
    command(sub, "equal", _cmd_braid_equal, "decide equality of two words", "first", "second")
    command(sub, "cable", _cmd_braid_cable, "replace each strand of the outer word by a cable",
            ("sigma", {"help": "outer word on q strands"}),
            ("mus", {"nargs": "+", "help": "q inner words, all on the same strand count"}))
    command(sub, "mirror", _cmd_braid_mirror, "invert every letter", "word")

    sub = group("tile", "tile expression operations")
    command(sub, "nf", _cmd_tile_nf, "canonical form of an expression", "expr")
    command(sub, "tree", _cmd_tile_tree, "marked graph of a tile", "expr")
    command(sub, "group", _cmd_tile_group, "Artin presentation on the tile's edges", "expr")
    command(sub, "mcg", _cmd_tile_mcg, "marked point count (braid strands after completion)", "expr")

    sub = group("artin", "graph Artin group operations")
    graph_source(command(sub, "abelianize", _cmd_artin_abelianize, "first homology of the group"),
                 with_presentation=True)
    graph_source(command(sub, "coxeter", _cmd_artin_coxeter, "reflection image of a word",
                         ("word", {"help": "word over the edge generators, e.g. 'g1 g2^-1'"})))
    graph_source(command(sub, "certify", _cmd_artin_certify, "sound nontriviality certificate",
                         ("word", {"help": "word over the edge generators"})))

    sub = group("hom", "homomorphism images")
    genus(command(sub, "phi", _cmd_hom_phi, "symplectic image of a braid word on 2g strands", "word"))
    graph_source(command(sub, "theta", _cmd_hom_theta, "braid image of an edge word by half twists", "word"))
    graph_source(command(sub, "phitile", _cmd_hom_phitile, "edge-transvection image of an edge word", "word"))
    genus(command(sub, "omega-gamma", _cmd_hom_omega_gamma, "blockwise symplectic image permuted by a braid",
                  ("sigma", {"help": "outer braid word on q strands"}),
                  ("blocks", {"nargs": "?", "default": None,
                              "help": "JSON list of q symplectic matrices (default: identities)"})))
    genus(command(sub, "phi1", _cmd_hom_phi1, "block-permutation symplectic image of a braid word", "word"))
    genus(command(sub, "discrepancy", _cmd_hom_discrepancy, "cabled versus blockwise symplectic images", "sigma",
                  ("mus", {"nargs": "+", "help": "inner words on 2*genus strands, one per outer strand"})))

    sub = group("verify", "verification suites")
    p = command(sub, "paper", _cmd_verify, "run the pinned verification suite")
    p.add_argument("--seed", type=decimal, default=0)
    p = command(sub, "random", _cmd_verify, "run seeded randomized property checks")
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--max-len", type=decimal, default=16, help="maximum random word length")
    p.add_argument("--genus", type=decimal, default=2, help="genus for symplectic checks")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit flush
    except BrokenPipeError:  # the reader is gone: print nothing more, and let the exit flush write nowhere
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        code = 141  # what a shell reports for a writer ended by SIGPIPE
    return code


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 3
    code, quiet = 0, args.quiet
    if isinstance(result, Report):  # a suite itemizes its non-passing checks even when quiet
        code, quiet = (0 if result.passed else 1), False
        result = result.render(quiet=args.quiet), result.to_json_obj()
    human, obj = result
    if args.json:
        print(json.dumps(obj, indent=2))
    elif not quiet:
        print(human)
    return code


if __name__ == "__main__":
    sys.exit(main())
