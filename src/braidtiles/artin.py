"""Artin groups attached to graphs, their abelianizations, and a sound
nontriviality certificate.

A graph yields a group with one generator per full edge.  Two edges that
share a vertex (``graphs.edge_neighbors``) satisfy the braid relation
efe = fef; two disjoint edges commute.  The braid groups themselves arise
this way: ``braid_presentation`` is the path graph's presentation with its
generators renamed s1, s2, ...

Nontriviality is certified through the Coxeter quotient (add e² = 1): the
quotient kills information, so a word whose reflection image is not the
identity is certainly nontrivial, while the identity image decides
nothing.  The reflection images are integer matrices: a graph's Coxeter
labels, 3 for neighbouring edges and 2 otherwise, make -2B(a_t, a_s) 1 or 0.
``CoxeterSystem`` holds its graph alone, and it and ``certify_nontrivial``
read each reflection from the adjacency (``_reflection_factor``).

The public ``Presentation`` constructor and its JSON reader check their
input.  A graph's presentation holds every invariant by construction (its
generators are named g1, g2, ... and its relators use only them), so
``presentation_from_graph`` builds it unchecked (``_presentation``).

The matrix work here costs by adjacency: a reflection rewrites one column
from its neighbours' columns, a certificate compares only the columns its
word rewrote, and H_1 sums each relator's letters into a sparse row that
goes straight to the Smith elimination, so a commutator gives no row and
the cost is set by the nonzeros, not by generators x relators.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .graphs import MarkedGraph, edge_neighbors
from .linalg import (
    WORD,
    ExactMatrix,
    Terms,
    _smith_diagonal,
    _trusted,
    json_field,
    json_int,
    json_list,
    rank_one_is_identity,
    rank_one_product,
)

Word = tuple[int, ...]


class PresentationError(ValueError):
    """Word or relator refers to a generator outside the presentation."""


@dataclass(frozen=True)
class Presentation:
    """Finite presentation; relators are words of signed 1-based generator
    indices (+i for the i-th generator, -i for its inverse)."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        names = set(self.generators)
        if len(names) != len(self.generators):
            raise ValueError("duplicate generator names")
        self.validate_word(itertools.chain.from_iterable(self.relators))

    def validate_word(self, word: Iterable[int]) -> Word:
        """The word as a tuple, once every letter is checked at C speed; a
        word that fails is walked to name its first bad letter."""
        w = tuple(word)
        n = len(self.generators)
        if 0 in w or max(map(abs, w), default=0) > n:
            for l in w:
                if not 0 < abs(l) <= n:
                    raise PresentationError(f"letter {l} outside generators 1..{n}")
        return w

    def parse_word(self, text: str) -> Word:
        """Word from text: generator names separated by ASCII spaces, each
        with an optional ^-1; 'e' alone is the empty word, and blank text is
        an error."""
        tokens = WORD.findall(text)
        if tokens == ["e"]:
            return ()
        if not tokens:
            raise PresentationError("expected generator names or 'e'")
        index = {name: i + 1 for i, name in enumerate(self.generators)}
        letters: list[int] = []
        for tok in tokens:
            inv = len(tok) > 3 and tok.endswith("^-1")
            name = tok[:-3] if inv else tok
            if name not in index:
                raise PresentationError(f"unknown generator {name!r}")
            letters.append(-index[name] if inv else index[name])
        return tuple(letters)

    def format_word(self, word: Iterable[int]) -> str:
        return self._format(self.validate_word(word))

    def _format(self, w: Word) -> str:
        """A word already checked against the generators, as text."""
        return " ".join(self.generators[l - 1] if l > 0 else f"{self.generators[-l - 1]}^-1" for l in w) or "e"

    def to_json_obj(self) -> dict:
        return {"generators": list(self.generators), "relators": [list(r) for r in self.relators]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Presentation":
        if not isinstance(obj, dict):
            raise ValueError("presentation JSON must be an object with 'generators' and 'relators'")
        with json_field("presentation", "generators"):
            generators = tuple(json_list(obj["generators"], str))
        with json_field("presentation", "relators"):
            relators = tuple(tuple(json_int(l) for l in r) for r in json_list(obj.get("relators", []), list))
        return Presentation(generators, relators)

    def __str__(self) -> str:
        gens = ", ".join(self.generators) if self.generators else "-"
        rels = ", ".join(map(self._format, self.relators))  # checked when the presentation was made
        return f"< {gens} | {rels} >" if self.relators else f"< {gens} | >"


def _presentation(generators: tuple[str, ...], relators: tuple[Word, ...]) -> Presentation:
    """``Presentation(generators, relators)`` for distinct names and relators
    whose letters are known to be in range, unchecked."""
    return _trusted(Presentation, generators=generators, relators=relators)


def braid_presentation(k: int) -> Presentation:
    """Standard presentation of the braid group on k strands: the path
    graph's presentation with generators renamed s1..s(k-1)."""
    if k < 1:
        raise ValueError("strand count must be >= 1")
    pres = presentation_from_graph(MarkedGraph.path(k))
    return _presentation(tuple(f"s{i}" for i in range(1, k)), pres.relators)


def edge_generators(graph: MarkedGraph) -> tuple[str, ...]:
    """Names g1, g2, ... of the Artin generators, one per full edge in sorted order."""
    return tuple(f"g{i}" for i in range(1, len(graph.edges) + 1))


def presentation_from_graph(graph: MarkedGraph) -> Presentation:
    """Artin group of the graph: one generator per full edge (see
    ``edge_generators``), braid relator for each pair of edges sharing a
    vertex, commutator for each disjoint pair."""
    neighbors = edge_neighbors(graph.edges)
    relators = tuple(
        (a, b, a, -b, -a, -b) if b - 1 in neighbors[a - 1] else (a, b, -a, -b)
        for a, b in itertools.combinations(range(1, len(neighbors) + 1), 2)
    )
    return _presentation(edge_generators(graph), relators)


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 of a presented group: free rank plus nontrivial torsion divisors
    in the divisibility order."""

    free_rank: int
    torsion: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def abelianization(pres: Presentation) -> AbelianInvariants:
    """Invariant factors of the relators' exponent-sum rows: their nonzero
    Smith diagonal.  Each row is summed from its relator's letters as its
    nonzeros (generator -> exponent) and goes straight to the sparse
    elimination, which clears a repeated row at its first pivot; a zero row
    (a graph's commutator) is not made."""
    rows = []
    for rel in pres.relators:
        exponents: dict[int, int] = {}
        for l in rel:
            if l > 0:
                exponents[l] = exponents.get(l, 0) + 1
            else:
                exponents[-l] = exponents.get(-l, 0) - 1
        if any(exponents.values()):
            rows.append({i: e for i, e in exponents.items() if e})
    factors = _smith_diagonal(rows)
    return AbelianInvariants(
        free_rank=len(pres.generators) - len(factors),
        torsion=tuple(f for f in factors if f > 1),
    )


def _reflection_factor(graph: MarkedGraph) -> Callable[[int], tuple[Terms, Terms]]:
    """s -> (u, d) of the s-th simple reflection x -> x - 2B(x, a_s) a_s on
    row vectors, as their nonzeros (index, coefficient), read from the graph's
    adjacency (``edge_neighbors``): its matrix I + u^T d is the identity
    with column s replaced.  B(a_t, a_s) = -cos(pi / label) is 1 for t = s,
    -1/2 for a neighbour (label 3) and 0 otherwise (label 2), so u =
    -2B(., a_s) is 1 at each neighbour, in ascending order, and -2 at s, and
    d = a_s."""
    r, neighbors = len(graph.edges), edge_neighbors(graph.edges)

    def factor(s: int) -> tuple[Terms, Terms]:
        if not (1 <= s <= r):
            raise PresentationError(f"generator {s} outside 1..{r}")
        return [(t, 1) for t in sorted(neighbors[s - 1])] + [(s - 1, -2)], [(s - 1, 1)]

    return factor


@dataclass(frozen=True)
class CoxeterSystem:
    """Coxeter system of a graph's edges: edges that share a vertex have
    label 3, other distinct pairs 2, the only labels that graphs produce.
    It holds the checked graph alone and checks nothing again."""

    graph: MarkedGraph

    @property
    def rank(self) -> int:
        return len(self.graph.edges)

    def image(self, word: Iterable[int]) -> ExactMatrix:
        """Image of a word in the reflection representation; a generator and
        its inverse map to the same reflection (reflections are involutions),
        letters act left to right on row vectors."""
        return rank_one_product(self.rank, _reflection_factor(self.graph), map(abs, word))


class Certificate(enum.Enum):
    NONTRIVIAL = "nontrivial"
    INCONCLUSIVE = "inconclusive"


def certify_nontrivial(graph: MarkedGraph, word: Iterable[int]) -> Certificate:
    """Sound one-sided test for nontriviality of a word in the graph's Artin
    group, via the Coxeter quotient in its reflection representation: a
    non-identity image certifies nontriviality, an identity image decides
    nothing.  The image is never built: the fold of ``image`` runs on the
    columns the word rewrites, each a combination of its generator's
    neighbour columns, and only those are compared with unit vectors
    (``linalg.rank_one_is_identity``)."""
    trivial = rank_one_is_identity(len(graph.edges), _reflection_factor(graph), map(abs, word))
    return Certificate.INCONCLUSIVE if trivial else Certificate.NONTRIVIAL
