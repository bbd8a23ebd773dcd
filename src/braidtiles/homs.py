"""Group homomorphisms realized on first homology, in exact arithmetic.

Everything here acts on row vectors from the right, so images compose
covariantly with words: image(w1 * w2) = image(w1) * image(w2).

The braid group on 2g strands maps to Sp(2g, Z) by sending each generator
to the transvection along the matching curve class of the standard chain;
a tile's Artin generators map to braids by half twists along bands, and
(``edge_transvection_image``) to transvections over the free module on the
tile's edges, one per edge, folded from the graph's adjacency.  Wreath-shaped
maps place symplectic blocks side by side and let a braid permute the
blocks.  These are homology shadows, not faithful images: identities of
images are necessary conditions only, but any two distinct images
certify a genuine difference, which is what the discrepancy witness uses.

Every transvection here is I + u^T d with d . u = 0: a class pairs to 0
with itself, and the edge pairing has a zero diagonal.  Two factors along
the same (u, d) multiply as

    (I + s u^T d)(I + t u^T d) = I + (s + t + st d.u) u^T d,

so with d . u = 0 the letters l and -l (t = -s) give I: an inverse letter
just flips the sign, and nothing is ever inverted.  ``braid_to_symplectic``
and ``edge_transvection_image`` therefore fold the word's free reduction
(``braid._free_reduce``), so an image costs by the reduced word; l, l
(t = s) does not cancel.  verify's symplectic-well-defined check confirms
the rule: the images of s_i and s_i^-1 multiply to the identity for every
chain generator of genus 2..5.

Checked at the boundary, trusted inside: each map checks its arguments,
then builds its image unchecked.  ``wreath_symplectic`` checks the strand
count, the block count and that every block is symplectic; the wreath
images of ``block_permutation_image`` (identity blocks) and
``cabling_discrepancy`` (symplectic images) need no block check.  All
three place the block rows by ``_wreath``, with no entry checked again.
``mirrored_pair`` builds its pair unchecked, since mirroring keeps the
underlying permutation; the ``MirroredPair`` constructor and ``multiply``
check the pullback condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .braid import BraidWord, _braid_word, _free_reduce, cable, mirror, underlying_permutation
from .graphs import MarkedGraph, edge_neighbors
from .linalg import ExactMatrix, SymplecticForm, _exact_matrix, _trusted, is_symplectic, rank_one_product


def chain_classes(g: int) -> tuple[tuple[int, ...], ...]:
    """Classes of the 2g-1 chain curves, as coordinates over the basis x1,
    y1, ..., xg, yg: odd positions give y_i, even positions give
    x_i - x_{i+1}.  Consecutive classes pair to ±1 and all others to 0,
    matching curves that meet exactly once."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    out: list[tuple[int, ...]] = []
    for j in range(1, 2 * g):
        coords = [0] * (2 * g)
        if j % 2 == 1:
            i = (j + 1) // 2
            coords[2 * i - 1] = 1  # y_i
        else:
            i = j // 2
            coords[2 * i - 2] = 1  # x_i
            coords[2 * i] = -1  # -x_{i+1}
        out.append(tuple(coords))
    return tuple(out)


def _transvection_factor(c: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(u, d) with <v, c> = v . u and d = c, for v -> v + <v, c> c, as their
    nonzeros (index, coefficient); a chain class has at most two."""
    # <v, c> = sum_i v[2i] c[2i+1] - v[2i+1] c[2i]: c[a] lands in u at a ^ 1
    u, d = [], []  # one loop for both: a first image makes a factor per generator
    for a in itertools.compress(range(len(c)), c):
        y = c[a]
        u.append((a ^ 1, y if a % 2 else -y))
        d.append((a, y))
    return u, d


def braid_to_symplectic(g: int, word: BraidWord) -> ExactMatrix:
    """Symplectic image of a braid word on 2g strands: generator i goes to
    the transvection along the i-th chain class."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if word.n != 2 * g:
        raise ValueError(f"word is on {word.n} strands, genus {g} needs {2 * g}")
    classes = chain_classes(g)
    return rank_one_product(2 * g, lambda i: _transvection_factor(classes[i - 1]), _free_reduce(word.letters))


def _band_letters(i: int, j: int) -> list[int]:
    """Letters of the band generator on strands i < j, unchecked."""
    return [*range(j - 1, i, -1), i, *range(-i - 1, -j, -1)]


def band_generator(k: int, i: int, j: int) -> BraidWord:
    """Half twist exchanging strands i < j along a band passing in front of
    the strands between them: (s_{j-1} ... s_{i+1}) s_i (s_{i+1}^-1 ... s_{j-1}^-1)."""
    if not (1 <= i < j <= k):
        raise ValueError(f"need 1 <= i < j <= {k}, got ({i}, {j})")
    return _braid_word(k, tuple(_band_letters(i, j)))


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
    if graph.points < 1:
        raise ValueError("strand count must be at least 1")
    return _braid_word(graph.points, tuple(letters))


def edge_transvection_image(graph: MarkedGraph, word: Iterable[int]) -> ExactMatrix:
    """Image of an Artin word under the transvections over the free module on
    the graph's edges, mirroring curves that meet once exactly when their
    edges share a vertex: edge a (0-based) sends v to v + <v, e_a> e_a, where
    edges a < b pair to +1 when adjacent and to 0 otherwise, and the pairing
    is skew.  Any signs satisfy the Artin relations, so +1 for a < b is a
    convention.  The transvection of an edge is built from its neighbours
    (``edge_neighbors``) when the word first uses it, never from an E x E
    pairing: u holds the pairing's column a at the neighbours in ascending
    order, so equal content meets one ``_letter_terms`` program, and d = e_a.
    Every letter is checked first, in word order; then the word's free
    reduction is folded, since u_a = 0 makes a letter and its inverse cancel."""
    e, neighbors = len(graph.edges), edge_neighbors(graph.edges)
    letters = tuple(word)
    if letters and not 1 <= min(map(abs, letters)) <= max(map(abs, letters)) <= e:
        for l in letters:
            if not 1 <= abs(l) <= e:
                raise ValueError(f"edge index {abs(l)} outside 1..{e}")

    def factor(index: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        a = index - 1
        return tuple((b, 1 if b < a else -1) for b in sorted(neighbors[a])), ((a, 1),)

    return rank_one_product(e, factor, _free_reduce(letters))


def _check_sigma(q: int, sigma: BraidWord) -> None:
    if sigma.n != q:
        raise ValueError(f"sigma is on {sigma.n} strands, expected {q}")


def _wreath(q: int, g: int, sigma: BraidWord, blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """``wreath_symplectic(q, g, sigma, blocks)`` for sigma on q strands and
    q symplectic 2g x 2g blocks, unchecked: the underlying permutation is
    read once, and each block row goes into one zero-padded row tuple.  The
    blocks' entries are already normalized, so the rows are kept as they are."""
    width = 2 * g
    zeros = (0,) * (q * width)
    rows: list[tuple] = []
    for f, target in zip(blocks, underlying_permutation(sigma).images):
        col = (target - 1) * width
        left, right = zeros[:col], zeros[col + width:]
        rows += [left + row + right for row in f.entries]
    return _exact_matrix(q * width, q * width, tuple(rows))


def wreath_symplectic(q: int, g: int, sigma: BraidWord, fs: Sequence[ExactMatrix]) -> ExactMatrix:
    """Place q symplectic genus-g blocks on the diagonal, then let the braid
    permute the blocks: blocks act first, then per letter of sigma the
    matching adjacent block swap.  A letter and its inverse swap alike (the
    curve enclosing two blocks is separating, so the square of the swap
    acts trivially on homology), hence the image depends only on the
    underlying permutation p of sigma once the blocks are fixed: block i
    sits in block row i and block column p(i)."""
    _check_sigma(q, sigma)
    if len(fs) != q:
        raise ValueError(f"expected {q} block matrices, got {len(fs)}")
    form = SymplecticForm(g)
    for i, f in enumerate(fs):
        if not is_symplectic(f, form):
            raise ValueError(f"block {i + 1} is not symplectic for genus {g}")
    return _wreath(q, g, sigma, fs)


def block_permutation_image(k: int, g: int, word: BraidWord) -> ExactMatrix:
    """Symplectic image of a braid through block permutations alone
    (identity blocks), so it only sees the underlying permutation."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    _check_sigma(k, word)
    return _wreath(k, g, word, [ExactMatrix.identity(2 * g)] * k)


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
    permutation, so the pullback condition always holds: the pair is built
    unchecked, while the constructor and ``multiply`` check it."""
    return _trusted(MirroredPair, first=word, second=mirror(word))


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
    _check_sigma(q, sigma)
    for i, mu in enumerate(mus):
        if mu.n != 2 * g:
            raise ValueError(f"mu {i + 1} is on {mu.n} strands, genus {g} needs {2 * g}")
    cabled = braid_to_symplectic(q * g, cable(q, 2 * g, sigma, mus))
    # cable has checked the count of mus, and each image is symplectic
    blockwise = _wreath(q, g, sigma, [braid_to_symplectic(g, mu) for mu in mus])
    return DiscrepancyResult(cabled, blockwise)
