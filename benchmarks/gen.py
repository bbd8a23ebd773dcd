"""Seeded input generators and the ground truth the benchmark checks answers
against.

Every answer is known by construction and is checked with arithmetic done
here: exponent sums and permutations of braid words, integer matrix
products, union-find on marked graphs, atom counts of tile expressions.
The one check that goes through the package compares its normal forms of
two expressions that denote the same tile by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from braidtiles import tiles
from braidtiles.braid import BraidWord
from braidtiles.tiles import AtomExpr, ComposeExpr, IdentityExpr, TileExpr, UnionExpr

# -- braid words ------------------------------------------------------------


def exponent_sum(letters) -> int:
    return sum(1 if l > 0 else -1 for l in letters)


def permutation(n: int, letters) -> tuple[int, ...]:
    """Final position of each strand; the identity is (0, 1, ..., n-1)."""
    at = list(range(n))  # at[p]: strand at position p
    for l in letters:
        i = abs(l) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    pos = [0] * n
    for p, s in enumerate(at):
        pos[s] = p
    return tuple(pos)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


def random_letters(rng: random.Random, n: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def rewrite(rng: random.Random, letters, pairs: int) -> list[int]:
    """Another word for the same braid: random braid moves (same-sign
    s_i s_j s_i -> s_j s_i s_j with |i-j| = 1), commutations of far
    generators, and ``pairs`` inserted s s^-1 pairs."""
    w = list(letters)
    for _ in range(2):
        p = 0
        while p < len(w) - 1:
            a, b = w[p], w[p + 1]
            if p < len(w) - 2 and w[p + 2] == a and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                if rng.random() < 0.7:
                    w[p:p + 3] = [b, a, b]
                    p += 3
                    continue
            if abs(abs(a) - abs(b)) >= 2 and rng.random() < 0.7:
                w[p], w[p + 1] = b, a
                p += 2
                continue
            p += 1
    n1 = max(abs(l) for l in w) if w else 1
    for _ in range(pairs):
        x = rng.choice((1, -1)) * rng.randint(1, n1)
        p = rng.randint(0, len(w))
        w[p:p] = [x, -x]
    return w


def braidy_letters(rng: random.Random, n: int, length: int) -> list[int]:
    """Random word seeded with same-sign triples s_i s_j s_i, so that
    ``rewrite`` finds braid moves to apply."""
    w: list[int] = []
    while len(w) < length:
        if n > 2 and length - len(w) >= 3 and rng.random() < 0.3:
            i = rng.randint(1, n - 2)
            e = rng.choice((1, -1))
            a, b = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
            w.extend((e * a, e * b, e * a))
        else:
            w.append(rng.choice((1, -1)) * rng.randint(1, n - 1))
    return w


def fold(rng: random.Random, n: int, length: int) -> list[int]:
    """w . rewrite(w)^-1 of exactly ``length`` letters (even)."""
    if length == 0:
        return []
    pairs = max(1, length // 32)
    w = braidy_letters(rng, n, length // 2 - pairs)
    return w + list(inverse(rewrite(rng, w, pairs)))


def _halves(rest: int) -> tuple[int, int]:
    left = 2 * (rest // 4)
    return left, rest - left


def trivial_word(rng: random.Random, n: int, length: int) -> list[int]:
    """Two folds w . rewrite(w)^-1 of half the length each (``length``
    even).  Nontrivial words have the same two folds around a short core,
    so that both halves of a size bucket cost alike."""
    left, right = _halves(length)
    return fold(rng, n, left) + fold(rng, n, right)


def nontrivial_core(rng: random.Random, n: int, kind: int) -> list[int]:
    """Short certified nontrivial word.  kind 0: s_i s_j, exponent sum +-2;
    kind 1: s_i s_j^-1 with i != j, exponent sum zero but a non-identity
    permutation; kind 2: u [s_i^2, s_{i+1}^2] rewrite(u)^-1 with |u| = 2,
    exponent sum zero and identity permutation, nontrivial because s_i^2
    and s_{i+1}^2 generate a free group."""
    e = rng.choice((1, -1))
    if kind == 0:
        return [e * rng.randint(1, n - 1), e * rng.randint(1, n - 1)]
    if kind == 1:
        i, j = rng.sample(range(1, n), 2)
        return [e * i, -e * j]
    i = rng.randint(1, n - 2)
    u = random_letters(rng, n, 2)
    c = [e * i, e * i, e * (i + 1), e * (i + 1), -e * i, -e * i, -e * (i + 1), -e * (i + 1)]
    return u + c + list(inverse(rewrite(rng, u, 1)))


def nontrivial_word(rng: random.Random, n: int, length: int, kind: int) -> list[int]:
    """fold . core . fold of exactly ``length`` letters (even, at least 14):
    a certified nontrivial core between two trivial folds."""
    core = nontrivial_core(rng, n, kind)
    left, right = _halves(length - len(core))
    return fold(rng, n, left) + core + fold(rng, n, right)


def certified_nontrivial(n: int, letters, kind: int) -> bool:
    """The certificate each kind relies on, recomputed from the letters."""
    ident = tuple(range(n))
    if kind == 0:
        return exponent_sum(letters) != 0
    if kind == 1:
        return exponent_sum(letters) == 0 and permutation(n, letters) != ident
    return exponent_sum(letters) == 0 and permutation(n, letters) == ident


@dataclass(frozen=True)
class WordCase:
    word: BraidWord
    trivial: bool
    kind: int  # -1 for trivial words, else the nontrivial kind


def word_case(rng: random.Random, n: int, length: int, trivial: bool) -> WordCase:
    if trivial:
        return WordCase(BraidWord(n, tuple(trivial_word(rng, n, length))), True, -1)
    kind = rng.randrange(3) if n > 2 else 0
    return WordCase(BraidWord(n, tuple(nontrivial_word(rng, n, length, kind))), False, kind)


# -- integer matrices -------------------------------------------------------


def matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def transpose(a):
    return tuple(zip(*a))


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def standard_j(g: int):
    """Gram matrix of the standard symplectic form on x1, y1, ..., xg, yg."""
    j = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return tuple(tuple(r) for r in j)


def path_pairing(e: int):
    """Edge pairing of a path with e edges: consecutive edges pair to +1."""
    om = [[0] * e for _ in range(e)]
    for a in range(e - 1):
        om[a][a + 1] = 1
        om[a + 1][a] = -1
    return tuple(tuple(r) for r in om)


# -- tiles ------------------------------------------------------------------

_TREE_ATOMS = ("D", "F", "P")


def chain(depth: int) -> TileExpr:
    """F ; F ; ... ; F, left-associated as the parser builds it."""
    out: TileExpr = tiles.F
    for _ in range(depth - 1):
        out = ComposeExpr(out, tiles.F)
    return out


def random_tree(rng: random.Random, atoms: int) -> TileExpr:
    """Random single-output tile with exactly ``atoms`` atoms and no
    through-wires (the shape ``enumerate_trees`` produces)."""
    if atoms == 1:
        return AtomExpr(rng.choice(_TREE_ATOMS))
    if rng.random() < 0.4:
        return ComposeExpr(random_tree(rng, atoms - 1), tiles.F)
    a = rng.randint(0, atoms - 1)  # atoms in the left subtree; 0 is a bare wire
    b = atoms - 1 - a
    left = random_tree(rng, a) if a else IdentityExpr(1)
    right = random_tree(rng, b) if b else IdentityExpr(1)
    return ComposeExpr(UnionExpr(left, right), tiles.P)


def random_forest(rng: random.Random, atoms: int) -> TileExpr:
    """Union of random trees with ``atoms`` atoms in total."""
    parts: list[TileExpr] = []
    left = atoms
    while left:
        size = min(left, rng.randint(1, 40))
        parts.append(random_tree(rng, size))
        left -= size
    return tiles.disjoint_union(*parts)


def _children(e: TileExpr) -> tuple[TileExpr, ...]:
    if isinstance(e, ComposeExpr):
        return (e.first, e.second)
    if isinstance(e, UnionExpr):
        return (e.left, e.right)
    return ()


def atom_counts(e: TileExpr) -> dict[str, int]:
    counts = {"D": 0, "F": 0, "P": 0}
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, AtomExpr):
            counts[x.tag] += 1
        stack.extend(_children(x))
    return counts


def same_expr(a: TileExpr, b: TileExpr) -> bool:
    """Structural equality without recursion (deep chains exceed the
    default recursion limit in dataclass ``__eq__``)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, AtomExpr) and x.tag != y.tag:
            return False
        if isinstance(x, IdentityExpr) and x.width != y.width:
            return False
        stack.extend(zip(_children(x), _children(y)))
    return True


def is_forest_max_degree_3(points: int, edges) -> bool:
    parent = list(range(points + 1))
    degree = [0] * (points + 1)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return max(degree, default=0) <= 3


def interchange_rewrite(e: TileExpr) -> TileExpr:
    """An expression for the same tile that differs by the interchange law
    (a top-level union a + b becomes (a + 1) ; (1 + b)) or, for anything
    else, by the unit law (1 ; e)."""
    if isinstance(e, UnionExpr):
        a, b = e.left, e.right
        return ComposeExpr(UnionExpr(a, IdentityExpr(b.dom)), UnionExpr(IdentityExpr(a.cod), b))
    return ComposeExpr(IdentityExpr(e.dom), e)


def tile_counts(max_atoms: int) -> int:
    """Number of tiles ``enumerate_tiles(max_atoms)`` yields: ordered
    forests of trees, where a tree is F over a tree, P over two slots
    (bare wire or tree), or a single atom."""
    trees = [0] * (max_atoms + 1)
    for n in range(1, max_atoms + 1):
        if n == 1:
            trees[n] = 3
        else:
            trees[n] = 3 * trees[n - 1] + sum(trees[a] * trees[n - 1 - a] for a in range(1, n - 1))
    forests = [1] + [0] * max_atoms
    for t in range(1, max_atoms + 1):
        forests[t] = sum(trees[s] * forests[t - s] for s in range(1, t + 1))
    return sum(forests[1:])
