"""Group homomorphisms realized on first homology, in exact arithmetic.

Everything here acts on row vectors from the right, so images compose
covariantly with words: image(w1 * w2) = image(w1) * image(w2).

The braid group on 2g strands maps to Sp(2g, Z) by sending each generator
to the transvection along the matching curve class of the standard chain;
a tile's Artin generators map to braids by half twists along bands, and to
transvections over the free module on the tile's edges.  Wreath-shaped
maps place symplectic blocks side by side and let a braid permute the
blocks.  These are homology shadows, not faithful images: identities of
images are necessary conditions only, but any two distinct images
certify a genuine difference, which is what the discrepancy witness uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .braid import BraidWord, cable, mirror, underlying_permutation
from .graphs import MarkedGraph, edge_neighbors
from .linalg import ExactMatrix, SymplecticForm, is_symplectic, rank_one_product


@dataclass(frozen=True)
class CurveClass:
    """Homology class of a curve on the genus-g surface, in coordinates
    over the basis x1, y1, ..., xg, yg."""

    genus: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if len(self.coords) != 2 * self.genus:
            raise ValueError(f"expected {2 * self.genus} coordinates, got {len(self.coords)}")


def chain_classes(g: int) -> tuple[CurveClass, ...]:
    """Classes of the 2g-1 chain curves: odd positions give y_i, even
    positions give x_i - x_{i+1}.  Consecutive classes pair to ±1 and all
    others to 0, matching curves that meet exactly once."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    out: list[CurveClass] = []
    for j in range(1, 2 * g):
        coords = [0] * (2 * g)
        if j % 2 == 1:
            i = (j + 1) // 2
            coords[2 * i - 1] = 1  # y_i
        else:
            i = j // 2
            coords[2 * i - 2] = 1  # x_i
            coords[2 * i] = -1  # -x_{i+1}
        out.append(CurveClass(g, tuple(coords)))
    return tuple(out)


# Every transvection below is I + u^T d with d . u = 0 (a class pairs to 0
# with itself; the edge pairing has a zero diagonal), so (I + u^T d)(I - u^T d)
# = I: an inverse letter just flips the sign, and nothing is ever inverted.
# verify's symplectic-well-defined check confirms it through
# braid_to_symplectic: s_i s_i^-1 maps to the identity for every chain
# generator of genus 2..5.


def _transvection_factor(c: CurveClass) -> tuple[list[int], tuple[int, ...]]:
    """(u, d) with <v, c> = v . u and d = c, for v -> v + <v, c> c."""
    x = c.coords
    # <v, c> = sum_i v[2i] c[2i+1] - v[2i+1] c[2i]
    return [x[a + 1] if a % 2 == 0 else -x[a - 1] for a in range(len(x))], x


def transvection(c: CurveClass) -> ExactMatrix:
    """Matrix of x -> x + <x, c> c on row vectors of Z^(2g); always symplectic."""
    return rank_one_product(2 * c.genus, lambda _: _transvection_factor(c), (1,))


def braid_to_symplectic(g: int, word: BraidWord) -> ExactMatrix:
    """Symplectic image of a braid word on 2g strands: generator i goes to
    the transvection along the i-th chain class."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if word.n != 2 * g:
        raise ValueError(f"word is on {word.n} strands, genus {g} needs {2 * g}")
    classes = chain_classes(g)
    return rank_one_product(2 * g, lambda i: _transvection_factor(classes[i - 1]), word.letters)


def _band_letters(i: int, j: int) -> list[int]:
    """Letters of the band generator on strands i < j, unchecked."""
    return [*range(j - 1, i, -1), i, *range(-i - 1, -j, -1)]


def band_generator(k: int, i: int, j: int) -> BraidWord:
    """Half twist exchanging strands i < j along a band passing in front of
    the strands between them: (s_{j-1} ... s_{i+1}) s_i (s_{i+1}^-1 ... s_{j-1}^-1)."""
    if not (1 <= i < j <= k):
        raise ValueError(f"need 1 <= i < j <= {k}, got ({i}, {j})")
    return BraidWord(k, tuple(_band_letters(i, j)))


def half_twist_image(graph: MarkedGraph, word: Iterable[int]) -> BraidWord:
    """Braid image of a word in the graph's Artin generators: the edge
    between points i < j maps to the band generator on (i, j), on as many
    strands as the graph has points."""
    edges = graph.edges
    letters: list[int] = []
    for l in word:
        if l == 0 or abs(l) > len(edges):
            raise ValueError(f"letter {l} outside edge generators 1..{len(edges)}")
        i, j = edges[abs(l) - 1]
        band = _band_letters(i, j)
        if l < 0:  # the band is a conjugate of s_i, so its inverse flips only s_i
            band[j - i - 1] = -i
        letters += band
    return BraidWord(graph.points, tuple(letters))


@dataclass(frozen=True)
class EdgeTransvectionRep:
    """Transvections over the free module on a tree's edges: the pairing of
    two edges is ±1 when they share a vertex and 0 otherwise, mirroring
    curves that intersect once exactly when their edges are adjacent."""

    edges: tuple[tuple[int, int], ...]
    pairing: ExactMatrix

    def __post_init__(self) -> None:
        e = len(self.edges)
        if self.pairing.rows != e or self.pairing.cols != e:
            raise ValueError("pairing matrix must be square on the edge set")
        neighbors = edge_neighbors(self.edges)
        for a in range(e):
            for b in range(e):
                v = self.pairing.entries[a][b]
                if v != -self.pairing.entries[b][a]:
                    raise ValueError("pairing must be skew-symmetric")
                adjacent = b in neighbors[a]
                if adjacent and v not in (1, -1):
                    raise ValueError(f"adjacent edges {a + 1},{b + 1} must pair to ±1")
                if not adjacent and v != 0:
                    raise ValueError(f"non-adjacent edges {a + 1},{b + 1} must pair to 0")

    @staticmethod
    def from_graph(graph: MarkedGraph) -> "EdgeTransvectionRep":
        """Representation on the graph's sorted edges, with each adjacent
        pair a < b pairing to +1.  Any signs satisfy the Artin relations,
        so the choice is a convention; the constructor takes any other."""
        neighbors = edge_neighbors(graph.edges)
        e = len(neighbors)
        rows = [[0] * e for _ in range(e)]
        for a in range(e):
            for b in neighbors[a]:
                rows[a][b] = 1 if a < b else -1
        return EdgeTransvectionRep(graph.edges, ExactMatrix.from_rows(rows, cols=e))

    def _factor(self, index: int) -> tuple[list[int], list[int]]:
        """(u, d) of the transvection along edge ``index`` (1-based): the
        pairing column of the edge and its basis vector."""
        e = len(self.edges)
        if not (1 <= index <= e):
            raise ValueError(f"edge index {index} outside 1..{e}")
        return [row[index - 1] for row in self.pairing.entries], [int(b == index - 1) for b in range(e)]

    def image(self, word: Iterable[int]) -> ExactMatrix:
        return rank_one_product(len(self.edges), self._factor, word)


def edge_transvection_image(graph: MarkedGraph, word: Iterable[int]) -> ExactMatrix:
    """Image of an Artin word in the edge-transvection representation."""
    return EdgeTransvectionRep.from_graph(graph).image(word)


def wreath_symplectic(q: int, g: int, sigma: BraidWord, fs: Sequence[ExactMatrix]) -> ExactMatrix:
    """Place q symplectic genus-g blocks on the diagonal, then let the braid
    permute the blocks: blocks act first, then per letter of sigma the
    matching adjacent block swap.  A letter and its inverse swap alike (the
    curve enclosing two blocks is separating, so the square of the swap
    acts trivially on homology), hence the image depends only on the
    underlying permutation p of sigma once the blocks are fixed: block i
    sits in block row i and block column p(i)."""
    if sigma.n != q:
        raise ValueError(f"sigma is on {sigma.n} strands, expected {q}")
    if len(fs) != q:
        raise ValueError(f"expected {q} block matrices, got {len(fs)}")
    form = SymplecticForm(g)
    for i, f in enumerate(fs):
        if not is_symplectic(f, form):
            raise ValueError(f"block {i + 1} is not symplectic for genus {g}")
    p, width = underlying_permutation(sigma), 2 * g
    rows = [[0] * (q * width) for _ in range(q * width)]
    for i, f in enumerate(fs):
        col = (p(i + 1) - 1) * width
        for r, row in enumerate(f.entries):
            rows[i * width + r][col:col + width] = row
    return ExactMatrix.from_rows(rows, cols=q * width)


def block_permutation_image(k: int, g: int, word: BraidWord) -> ExactMatrix:
    """Symplectic image of a braid through block permutations alone
    (identity blocks), so it only sees the underlying permutation."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    return wreath_symplectic(k, g, word, [ExactMatrix.identity(2 * g)] * k)


@dataclass(frozen=True)
class MirroredPair:
    """Pair of braid words with the same underlying permutation, the
    substrate of the permutation-pullback of two braid groups."""

    first: BraidWord
    second: BraidWord

    def __post_init__(self) -> None:
        if self.first.n != self.second.n:
            raise ValueError("components must share the strand count")
        if underlying_permutation(self.first) != underlying_permutation(self.second):
            raise ValueError("components must have equal underlying permutations")

    def multiply(self, other: "MirroredPair") -> "MirroredPair":
        return MirroredPair(self.first * other.first, self.second * other.second)


def mirrored_pair(word: BraidWord) -> MirroredPair:
    """The pair (word, mirror of word); mirroring preserves the underlying
    permutation, so the pullback condition always holds."""
    return MirroredPair(word, mirror(word))


@dataclass(frozen=True)
class DiscrepancyResult:
    cabled: ExactMatrix
    blockwise: ExactMatrix

    @property
    def equal(self) -> bool:
        return self.cabled == self.blockwise

    def to_json_obj(self) -> dict:
        return {
            "cabled": self.cabled.to_json_obj(),
            "blockwise": self.blockwise.to_json_obj(),
            "equal": self.equal,
        }


def cabling_discrepancy(g: int, q: int, sigma: BraidWord, mus: Sequence[BraidWord]) -> DiscrepancyResult:
    """Compare the two routes from (sigma; mus) to Sp(2qg, Z): symplectic
    image of the cabled braid versus blockwise images permuted by sigma.
    The two agree when sigma is trivial and differ in general, which is the
    finite-level witness that cabling does not commute with taking
    homology blockwise."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if sigma.n != q:
        raise ValueError(f"sigma is on {sigma.n} strands, expected {q}")
    for i, mu in enumerate(mus):
        if mu.n != 2 * g:
            raise ValueError(f"mu {i + 1} is on {mu.n} strands, genus {g} needs {2 * g}")
    cabled = braid_to_symplectic(q * g, cable(q, 2 * g, sigma, mus))
    blockwise = wreath_symplectic(q, g, sigma, [braid_to_symplectic(g, mu) for mu in mus])
    return DiscrepancyResult(cabled, blockwise)
