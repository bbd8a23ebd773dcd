"""The package root's public names: ``__all__`` lists exactly what it binds,
and the census says what reaches each one."""

import operator
import pathlib
import re
import types

import braidtiles


def test_every_listed_name_imports_from_the_root():
    for name in braidtiles.__all__:
        namespace: dict = {}
        exec(f"from braidtiles import {name}", namespace)
        assert namespace[name] is getattr(braidtiles, name)


def test_all_is_sorted_without_duplicates():
    assert braidtiles.__all__ == sorted(set(braidtiles.__all__))


def test_every_public_binding_is_listed():
    public = {
        name for name, value in vars(braidtiles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(braidtiles.__all__)


# -- API census ---------------------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = {  # each kind of user, and the files it reads the package through
    "cli": ["src/braidtiles/cli.py"],
    "verify": ["src/braidtiles/verify.py"],
    "README": ["README.md"],
    "tests": sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("*.py")),
    "benchmarks": sorted(str(p.relative_to(ROOT)) for p in (ROOT / "benchmarks").rglob("*.py")),
}

# Each public name, with the widest user that reaches it (in the order of
# SOURCES) and the name through which that user does: the name itself, or
# the function that returns or raises it.  Nothing here is reached by tests
# alone.  What benchmarks/ alone reaches stays while the benchmark reads it:
# ``disjoint_union`` builds its wide tiles, and the two members below are
# patched or counted by its tracer (benchmarks/spans.py).
CENSUS = {
    "AbelianInvariants": ("cli", "abelianization"),
    "BraidParseError": ("cli", "parse_braid_word"),
    "BraidWord": ("cli", "BraidWord"),
    "Certificate": ("verify", "Certificate"),
    "CheckRecord": ("verify", "CheckRecord"),
    "CoxeterSystem": ("cli", "CoxeterSystem"),
    "DiscrepancyResult": ("cli", "cabling_discrepancy"),
    "ExactMatrix": ("cli", "ExactMatrix"),
    "HalfEdge": ("cli", "marked_graph_of"),
    "MarkedGraph": ("cli", "MarkedGraph"),
    "MirroredPair": ("verify", "mirrored_pair"),
    "Permutation": ("verify", "underlying_permutation"),
    "Presentation": ("cli", "Presentation"),
    "PresentationError": ("cli", "Presentation"),
    "Report": ("cli", "Report"),
    "SymplecticForm": ("verify", "SymplecticForm"),
    "TileExpr": ("verify", "TileExpr"),
    "TileNormalForm": ("cli", "normal_form"),
    "TileParseError": ("cli", "parse_tile_expression"),
    "WordProblemMismatch": ("verify", "WordProblemMismatch"),
    "abelianization": ("cli", "abelianization"),
    "artin_action": ("verify", "artin_action"),
    "band_generator": ("verify", "band_generator"),
    "block_permutation_image": ("cli", "block_permutation_image"),
    "braid_presentation": ("verify", "braid_presentation"),
    "braid_to_symplectic": ("cli", "braid_to_symplectic"),
    "cable": ("cli", "cable"),
    "cabling_discrepancy": ("cli", "cabling_discrepancy"),
    "certify_nontrivial": ("cli", "certify_nontrivial"),
    "chain_classes": ("verify", "chain_classes"),
    "compose": ("verify", "compose"),
    "disjoint_union": ("benchmarks", "disjoint_union"),
    "edge_transvection_image": ("cli", "edge_transvection_image"),
    "endomorphism_presentation": ("cli", "endomorphism_presentation"),
    "enumerate_tiles": ("verify", "enumerate_tiles"),
    "enumerate_trees": ("verify", "enumerate_trees"),
    "equal": ("cli", "equal"),
    "format_braid_word": ("cli", "format_braid_word"),
    "format_tile_expression": ("cli", "normal_form"),
    "half_twist_image": ("cli", "half_twist_image"),
    "handle_reduce": ("cli", "handle_reduce"),
    "is_symplectic": ("verify", "is_symplectic"),
    "is_trivial": ("cli", "is_trivial"),
    "marked_graph_of": ("cli", "marked_graph_of"),
    "marked_point_count": ("cli", "marked_point_count"),
    "mirror": ("cli", "mirror"),
    "mirrored_pair": ("verify", "mirrored_pair"),
    "normal_form": ("cli", "normal_form"),
    "paper_suite": ("cli", "paper_suite"),
    "parse_braid_word": ("cli", "parse_braid_word"),
    "parse_tile_expression": ("cli", "parse_tile_expression"),
    "presentation_from_graph": ("cli", "presentation_from_graph"),
    "random_suite": ("cli", "random_suite"),
    "smith_normal_form": ("README", "smith_normal_form"),
    "to_expression": ("cli", "normal_form"),
    "underlying_permutation": ("verify", "underlying_permutation"),
    "wreath_multiply": ("verify", "wreath_multiply"),
    "wreath_symplectic": ("cli", "wreath_symplectic"),
}
MEMBERS = {  # public members that only benchmarks/ reaches outside the tests
    "ExactMatrix.inverse": ("benchmarks", "inverse"),
    "TileNormalForm.atom_count": ("benchmarks", "atom_count"),
}


def test_every_public_name_has_a_user():
    assert set(CENSUS) == set(braidtiles.__all__)  # a new name needs an entry
    for name, (user, via) in {**CENSUS, **MEMBERS}.items():
        assert operator.attrgetter(name)(braidtiles) is not None
        text = "\n".join((ROOT / path).read_text(encoding="utf-8") for path in SOURCES[user])
        assert re.search(rf"\b{via}\b", text), (name, user, via)
