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
nothing.  The reflection images are integer matrices: the only Coxeter
labels arising from graphs are 2 and 3, so -2B(a_t, a_s) is 0 or 1.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Iterable

from .graphs import MarkedGraph, edge_neighbors
# smith_normal_form stays importable from here: the benchmark's tracer test
# (benchmarks/tests) patches and compares it as artin.smith_normal_form.
from .linalg import ExactMatrix, invariant_factors, json_field, json_int, json_list, rank_one_product, smith_normal_form  # noqa: F401

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
        w = tuple(word)
        n = len(self.generators)
        for l in w:
            if not 0 < abs(l) <= n:
                raise PresentationError(f"letter {l} outside generators 1..{n}")
        return w

    def parse_word(self, text: str) -> Word:
        """Word from text: generator names separated by spaces, each with an
        optional ^-1; 'e' alone is the empty word, and blank text is an error."""
        stripped = text.strip()
        if stripped == "e":
            return ()
        if not stripped:
            raise PresentationError("expected generator names or 'e'")
        index = {name: i + 1 for i, name in enumerate(self.generators)}
        letters: list[int] = []
        for tok in stripped.split():
            m = re.fullmatch(r"(.+?)(\^-1)?", tok)
            assert m is not None
            name, inv = m.group(1), m.group(2)
            if name not in index:
                raise PresentationError(f"unknown generator {name!r}")
            letters.append(-index[name] if inv else index[name])
        return tuple(letters)

    def format_word(self, word: Iterable[int]) -> str:
        w = self.validate_word(word)
        if not w:
            return "e"
        return " ".join(
            self.generators[l - 1] if l > 0 else f"{self.generators[-l - 1]}^-1" for l in w
        )

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
        rels = ", ".join(self.format_word(r) for r in self.relators)
        return f"< {gens} | {rels} >" if self.relators else f"< {gens} | >"


def braid_presentation(k: int) -> Presentation:
    """Standard presentation of the braid group on k strands: the path
    graph's presentation with generators renamed s1..s(k-1)."""
    if k < 1:
        raise ValueError("strand count must be >= 1")
    pres = presentation_from_graph(MarkedGraph.path(k))
    return Presentation(tuple(f"s{i}" for i in range(1, k)), pres.relators)


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
    return Presentation(edge_generators(graph), relators)


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
    """Invariant factors of the relators' exponent-sum rows via Smith normal
    form.  Zero and repeated rows leave the row lattice unchanged, so only
    the distinct nonzero rows are built (a graph's commutators give none)."""
    n = len(pres.generators)
    rows: dict[tuple[int, ...], None] = {}
    for rel in pres.relators:
        row = [0] * n
        for l in rel:
            row[abs(l) - 1] += 1 if l > 0 else -1
        if any(row):
            rows[tuple(row)] = None
    factors = invariant_factors(ExactMatrix.from_rows(list(rows), cols=n))
    return AbelianInvariants(
        free_rank=len(pres.generators) - len(factors),
        torsion=tuple(f for f in factors if f > 1),
    )


@dataclass(frozen=True)
class CoxeterSystem:
    """Coxeter matrix with labels in {2, 3} off the diagonal, as produced by
    graphs (adjacent edges 3, disjoint edges 2)."""

    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        r = len(self.labels)
        for i, row in enumerate(self.labels):
            if len(row) != r:
                raise ValueError("Coxeter matrix must be square")
            for j, m in enumerate(row):
                if i == j and m != 1:
                    raise ValueError("diagonal Coxeter labels must be 1")
                if i != j and m not in (2, 3):
                    raise ValueError(f"unsupported Coxeter label {m} at ({i + 1},{j + 1})")
                if m != self.labels[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")

    @staticmethod
    def from_graph(graph: MarkedGraph) -> "CoxeterSystem":
        neighbors = edge_neighbors(graph.edges)
        r = len(neighbors)
        return CoxeterSystem(tuple(
            tuple(1 if a == b else 3 if b in neighbors[a] else 2 for b in range(r)) for a in range(r)
        ))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def _factor(self, s: int) -> tuple[list[int], list[int]]:
        """(u, d) of the s-th simple reflection x -> x - 2B(x, a_s) a_s on
        row vectors, whose matrix I + u^T d is the identity with column s
        replaced.  B(a_t, a_s) = -cos(pi / label) is 1, 0, -1/2 for labels
        1, 2, 3, so u = -2B(., a_s) reads -2, 0, 1 off the integer labels,
        and d = a_s is the basis vector at the column's only label 1."""
        if not (1 <= s <= self.rank):
            raise PresentationError(f"generator {s} outside 1..{self.rank}")
        column = [row[s - 1] for row in self.labels]
        return [{1: -2, 2: 0, 3: 1}[m] for m in column], [int(m == 1) for m in column]

    def image(self, word: Iterable[int]) -> ExactMatrix:
        """Image of a word in the reflection representation; a generator and
        its inverse map to the same reflection (reflections are involutions),
        letters act left to right on row vectors."""
        return rank_one_product(self.rank, self._factor, map(abs, word))


class Certificate(enum.Enum):
    NONTRIVIAL = "nontrivial"
    INCONCLUSIVE = "inconclusive"


def certify_nontrivial(graph: MarkedGraph, word: Iterable[int]) -> Certificate:
    """Sound one-sided test for nontriviality of a word in the graph's Artin
    group, via the Coxeter quotient in its reflection representation: a
    non-identity image certifies nontriviality, an identity image decides
    nothing."""
    image = CoxeterSystem.from_graph(graph).image(word)
    return Certificate.INCONCLUSIVE if image.is_identity() else Certificate.NONTRIVIAL
