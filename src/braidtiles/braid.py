"""Braid words, the word problem, cabling, and the mirror involution.

Convention, used package-wide: in a product ``w1 * w2`` the letters of w1
act first.  So underlying permutations compose diagrammatically: with p
and q those of w1 and w2, the strand starting at i in w1 * w2 ends at
q(p(i)), which is how ``wreath_multiply`` reads them.  Likewise the
free-group action of a word is the composite of its letter substitutions
applied left to right.

The word problem has three routes.  The normative oracle is the action on
the free group F_n (sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1}
to x_i); a word is trivial iff it acts as the identity.  The fast path is
handle reduction: repeatedly rewrite the handle with the leftmost closing
letter until none remains.  The scan for that handle keeps one link per
position, to the nearest letter left of it with a smaller index, so it
allocates by letters, never by strands, and passes over each position at
most once.  A fully reduced word is empty or keeps a constant sign on its
lowest-index generator, and the latter kind is never trivial, so
emptiness decides.  The cross-check is the faithful action on Dynnikov
coordinates of laminations of the punctured disk: one exact, piecewise
linear update of four integers per letter, and their bit length grows at
most linearly with the word.  It keeps only the pairs a word touches,
so it too allocates by letters, never by strands.
``is_trivial`` decides every word, of any length, by handle reduction,
checks it with Dynnikov coordinates, and raises ``WordProblemMismatch``
if they ever disagree.

``_suffix_walk`` feeds every short word to the exhaustive agreement gate
in ``verify`` as states, a free reduction with its action images, each
with the number of words that reach it.

Checked at the boundary, trusted inside: ``BraidWord``, ``Permutation``
and ``parse_braid_word`` check their input; words and permutations derived
from valid ones are built unchecked (``_braid_word``, ``_permutation``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .linalg import SPACE, WORD, _trusted, long_numeral

# Rewrites per word before handle reduction gives up (exit 3 in the CLI).
# The largest counts measured sit at least 20 times below it: 1,621 over
# the `words` benchmark workload's words at seeds 0-2, 9,712 over the 200
# words of `verify random --max-len 1600`, and 23,970 over ten random
# 3,200-letter 5-strand words.
_HANDLE_STEP_LIMIT = 500_000


class BraidParseError(ValueError):
    """Malformed braid word text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WordProblemMismatch(RuntimeError):
    """Two word-problem routes disagreed on a word: an implementation bug."""


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n}; ``images[i-1]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = self.images
        if any(type(i) is not int for i in images) or sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]


def _permutation(images: tuple[int, ...]) -> Permutation:
    """``Permutation(images)`` for images known to permute 1..n, unchecked."""
    return _trusted(Permutation, images=images)


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid group on ``n`` strands.

    Letters are nonzero ints: +i is the generator crossing strands i and
    i+1 positively, -i its inverse.  Words are not reduced implicitly.
    """

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("strand count must be at least 1")
        letters = self.letters
        if type(letters) is not tuple:
            letters = tuple(letters)
            object.__setattr__(self, "letters", letters)
        top = self.n - 1
        for l in letters:
            if not (type(l) is int and (0 < l <= top or -top <= l < 0)):
                raise ValueError(f"letter {l!r} is not a generator index of a {self.n}-strand braid")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError(f"strand count mismatch: {self.n} vs {other.n}")
        return _braid_word(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return _braid_word(self.n, tuple(-l for l in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid_word(self)


def _braid_word(n: int, letters: tuple[int, ...]) -> BraidWord:
    """``BraidWord(n, letters)`` for n >= 1 and letters known to be in range, unchecked."""
    return _trusted(BraidWord, n=n, letters=letters)


@dataclass(frozen=True)
class FreeGroupEndo:
    """Endomorphism of the free group F_n, n = len(images); image words are
    freely reduced."""

    images: tuple[tuple[int, ...], ...]

    def is_identity(self) -> bool:
        return all(w == (i,) for i, w in enumerate(self.images, start=1))


def _inverse(word: Sequence[int]) -> list[int]:
    return [-x for x in reversed(word)]


def _free_reduce(letters: Iterable[int], out: list[int] | None = None) -> list[int]:
    """Push the letters onto ``out`` (freely reduced, empty by default),
    cancelling each against the top when they are inverse; returns ``out``."""
    out = [] if out is None else out
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def underlying_permutation(word: BraidWord) -> Permutation:
    """Strand-start to strand-end permutation of the word."""
    images = list(range(1, word.n + 1))        # images[s-1]: current position of strand s
    at = list(range(1, word.n + 1))            # at[p-1]: strand currently at position p
    for l in word.letters:
        i = abs(l)
        s, t = at[i - 1], at[i]
        images[s - 1], images[t - 1] = i + 1, i
        at[i - 1], at[i] = t, s
    return _permutation(tuple(images))


def _fold_letters(images: list[Sequence[int]], letters: Sequence[int]) -> list[Sequence[int]]:
    """Turn the images under a word w into the images under ``letters`` w,
    in place, and return them.
    Letters fold in from the right: with a, b the images of x_i, x_{i+1}
    under w, sigma_i w sends x_i to a b a^-1 and x_{i+1} to a, sigma_i^-1 w
    sends x_i to b and x_{i+1} to b^-1 a b, and other images stay.

    Only the slots of ``images`` are rebound; no image is mutated
    (``list(a)`` and ``_inverse`` copy before ``_free_reduce`` pushes), and
    an image that moves to the other slot is the same object.  So the
    images may be lists or tuples: ``_suffix_walk`` folds a two-slot frame
    of the tuples a, b and keeps the moved one as it is."""
    for l in reversed(letters):
        i = abs(l)
        a, b = images[i - 1], images[i]
        if l > 0:
            images[i - 1], images[i] = _free_reduce(_inverse(a), _free_reduce(b, list(a))), a
        else:
            images[i - 1], images[i] = b, _free_reduce(b, _free_reduce(a, _inverse(b)))
    return images


def _suffix_walk(
    n: int, depth: int
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]]:
    """The states of the n-strand words of length at most ``depth``, with
    the number of words in each, as ``(reduced, images, count)``.  A
    word's state is its free reduction and its action images; every word
    is counted in exactly one entry, so the counts sum to the number of
    words.

    The walk goes by length over the suffix tree: the children of w are
    the words l w.  The action folds letters in from the right, so a
    child's images are its parent's with the two slots l moves replaced,
    and its free reduction is its parent's with l pushed on the front:
    ``reduced[1:]`` if ``reduced`` starts with -l, else ``(l,) + reduced``.
    Neither is computed from the other, so a route that reads one stays
    independent of a route that reads the other.  Words of one length
    with the same state have children with the same states, so each
    length below ``depth`` is one dict from state to word count, and a
    state's children are made once, not once per word.  Images that
    depend on the path, not only on the reduction, stay separate states.
    The last length is not merged: each (state, letter) step is yielded
    as it is made, with its parent's count (at n = 3, depth 8: 4,916
    states for lengths 0-7 and 13,120 steps, for 87,381 words).

    Image words are interned to ints.  A letter step reads only the ids
    a, b of the images of x_i, x_{i+1} and the sign of l, never i, and a
    table that lives for one walk maps each ``(a, b, sign)`` to the ids of
    the pair ``_fold_letters`` makes from the frame of those two words and
    the letter ``sign``; so each distinct step is folded once (3,230 at
    n = 3, depth 8)."""
    alphabet = [(s * i, i, s) for i in range(1, n) for s in (1, -1)]
    words: list[tuple[int, ...]] = []          # id -> image word
    ids: dict[tuple[int, ...], int] = {}       # image word -> id

    def intern(word: Sequence[int]) -> int:
        word = tuple(word)
        k = ids.get(word)
        if k is None:
            k = ids[word] = len(words)
            words.append(word)
        return k

    steps: dict[tuple[int, int, int], tuple[int, int]] = {}
    level = {((), tuple(intern((i,)) for i in range(1, n + 1))): 1}
    for length in range(depth + 1):
        last = length == depth - 1
        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (reduced, images), count in level.items():
            yield reduced, tuple(map(words.__getitem__, images)), count
            if length == depth:
                continue
            for l, i, sign in alphabet:
                a, b = images[i - 1], images[i]
                step = steps.get((a, b, sign))
                if step is None:
                    x, y = _fold_letters([words[a], words[b]], (sign,))
                    step = steps[a, b, sign] = intern(x), intern(y)
                child = reduced[1:] if reduced and reduced[0] == -l else (l,) + reduced
                child_images = images[:i - 1] + step + images[i + 1:]
                if last:
                    yield child, tuple(map(words.__getitem__, child_images)), count
                else:
                    key = child, child_images
                    merged[key] = merged.get(key, 0) + count
        level = merged


def artin_action(word: BraidWord) -> FreeGroupEndo:
    """Action of the word on F_n, letters applied left to right.

    This is the package's normative word-problem oracle: the action is
    faithful, so the image is the identity iff the word is trivial.  Only
    the free reduction is folded, into x_1 .. x_{m+1} for m its largest
    index; every later generator is fixed.
    """
    letters = _free_reduce(word.letters)
    images = _fold_letters([[i] for i in range(1, max(map(abs, letters), default=0) + 2)], letters)
    fixed = ((i,) for i in range(len(images) + 1, word.n + 1))
    return FreeGroupEndo((*map(tuple, images), *fixed))


def _first_handle(word: Sequence[int]) -> tuple[int, int] | None:
    """Leftmost-closing handle (p, t): word[p..t] = s_i^e ... s_i^-e with
    every interior letter of index > i.  Such a handle contains no nested
    handle, so rewriting it is always permitted.

    One link per scanned position: ``below[q]`` is the nearest position
    left of q whose letter has a smaller index, or -1.  Following links
    from t - 1 past indices > i reaches the nearest letter of index <= i;
    (p, t) is a handle exactly when that letter has index i and the
    opposite sign.  A letter of index i and the same sign is linked past,
    so the chain from t holds strictly falling indices and every position
    is passed over at most once per scan."""
    below: list[int] = []
    for t, l in enumerate(word):
        i = abs(l)
        q = t - 1
        while q >= 0 and abs(word[q]) > i:
            q = below[q]
        if q >= 0:
            if word[q] == -l:
                return q, t
            if word[q] == l:
                q = below[q]
        below.append(q)
    return None


def _reduce_handle(word: list[int], s: int, t: int) -> list[int]:
    i = abs(word[s])
    e = 1 if word[s] > 0 else -1
    mid: list[int] = []
    for l in word[s + 1:t]:
        if abs(l) == i + 1:
            d = 1 if l > 0 else -1
            mid.extend((-e * (i + 1), d * i, e * (i + 1)))
        else:
            mid.append(l)
    return word[:s] + mid + word[t + 1:]


def _handle_reduce_letters(letters: Sequence[int]) -> list[int]:
    """Letters of the fully handle-reduced word: rewrite the leftmost-closing
    handle until none remains.  The input is freely reduced first, so the
    result for a word is the result for its free reduction."""
    letters = _free_reduce(letters)
    steps = 0
    while True:
        h = _first_handle(letters)
        if h is None:
            return letters
        letters = _free_reduce(_reduce_handle(letters, *h))
        steps += 1
        if steps > _HANDLE_STEP_LIMIT:
            raise RuntimeError("handle reduction exceeded its step budget")


def handle_reduce(word: BraidWord) -> BraidWord:
    """Fully handle-reduced word representing the same braid."""
    return _braid_word(word.n, tuple(_handle_reduce_letters(word.letters)))


def _dynnikov_trivial(letters: Sequence[int]) -> bool:
    """Decide triviality by the word's action on Dynnikov coordinates.

    The coordinates are pairs (a_k, b_k), kept in a dict that holds only
    the pairs the word touches; a missing pair is (0, 1).  +i and -i
    rewrite only (a, b, c, d) = (a_{i-1}, b_{i-1}, a_i, b_i).  Letters
    apply left to right; with x+ = max(x, 0) and x- = min(x, 0),

    - sigma_i:    e = a - b- - c + d+ gives
      (a + b+ + (d+ - e)+, d - e+, c + d- + (b- + e)-, b + e+);
    - sigma_i^-1: e = a + b- - c - d+ gives
      (a - b+ - (d+ + e)+, d + e-, c - d- - (b- - e)-, b - e-).

    The action is faithful, and a braid is trivial iff it fixes every pair
    at (0, 1) (Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering Braids*,
    2008)."""
    x: dict[int, tuple[int, int]] = {}
    for l in letters:
        i = abs(l)
        a, b = x.get(i - 1, (0, 1))
        c, d = x.get(i, (0, 1))
        bp, bm = (b, 0) if b > 0 else (0, b)
        dp, dm = (d, 0) if d > 0 else (0, d)
        if l > 0:
            e = a - bm - c + dp
            t, u, ep = dp - e, bm + e, (e if e > 0 else 0)
            x[i - 1] = a + bp + (t if t > 0 else 0), d - ep
            x[i] = c + dm + (u if u < 0 else 0), b + ep
        else:
            e = a + bm - c - dp
            t, u, em = dp + e, bm - e, (e if e < 0 else 0)
            x[i - 1] = a - bp - (t if t > 0 else 0), d + em
            x[i] = c - dm - (u if u < 0 else 0), b - em
    return all(pair == (0, 1) for pair in x.values())


def is_trivial(word: BraidWord) -> bool:
    """Decide whether the word represents the identity braid.

    Handle reduction decides every word, of any length, and the action on
    Dynnikov coordinates checks it: WordProblemMismatch is raised if the
    two verdicts differ.  No word skips the check.  Only the reduced
    letters are read, so no reduced ``BraidWord`` is built.
    """
    fast = not _handle_reduce_letters(word.letters)
    _require_agreement(fast, _dynnikov_trivial(word.letters), word, "Dynnikov coordinates")
    return fast


def _require_agreement(fast: bool, slow: bool, word: BraidWord, route: str) -> None:
    if slow != fast:
        raise WordProblemMismatch(
            f"handle reduction says trivial={fast} but {route} says trivial={slow} "
            f"for {format_braid_word(word)}"
        )


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """True iff the two words represent the same braid: w1 w2^-1 is trivial."""
    if w1.n != w2.n:
        raise ValueError(f"strand count mismatch: {w1.n} vs {w2.n}")
    return is_trivial(_braid_word(w1.n, w1.letters + tuple(_inverse(w2.letters))))


def mirror(word: BraidWord) -> BraidWord:
    """Mirror involution sigma_i -> sigma_i^-1 (an automorphism of the
    braid group that preserves the underlying permutation)."""
    return _braid_word(word.n, tuple(-l for l in word.letters))


def _block_crossing(a: int, k: int) -> list[int]:
    """Positive crossing of two adjacent width-k cables over strands
    a+1..a+2k; the left cable passes over the right one."""
    out: list[int] = []
    for c in range(k):
        out.extend(range(a + k + c, a + c, -1))
    return out


def cable(q: int, k: int, sigma: BraidWord, mus: Sequence[BraidWord]) -> BraidWord:
    """Replace each strand of sigma (a q-strand word) by a width-k cable,
    inserting mu_i on cable i where strand i of sigma begins.

    The result lives in the braid group on q*k strands.  With the fixed
    composition convention this is a homomorphism from the wreath-product
    law implemented by ``wreath_multiply``.
    """
    if sigma.n != q:
        raise ValueError(f"sigma must have {q} strands, has {sigma.n}")
    if len(mus) != q:
        raise ValueError(f"expected {q} cable words, got {len(mus)}")
    for c, mu in enumerate(mus):
        if mu.n != k:
            raise ValueError(f"cable word {c + 1} must have {k} strands, has {mu.n}")
    letters: list[int] = []
    for c, mu in enumerate(mus):
        off = c * k
        letters.extend(l + off if l > 0 else l - off for l in mu.letters)
    for l in sigma.letters:
        block = _block_crossing((abs(l) - 1) * k, k)
        if l > 0:
            letters.extend(block)
        else:
            letters.extend(-x for x in reversed(block))
    return _braid_word(q * k, tuple(letters))


def wreath_multiply(
    left: tuple[BraidWord, Sequence[BraidWord]],
    right: tuple[BraidWord, Sequence[BraidWord]],
) -> tuple[BraidWord, tuple[BraidWord, ...]]:
    """Product in the wreath product: (s; m) * (s'; m') = (s*s'; nu) with
    nu_i = m_i * m'_{p(i)} and p the underlying permutation of s.  This is
    the unique law making ``cable`` multiplicative under the package's
    composition convention."""
    sigma, mus = left
    sigma2, mus2 = right
    p = underlying_permutation(sigma)
    nu = tuple(mus[i] * mus2[p(i + 1) - 1] for i in range(len(mus)))
    return sigma * sigma2, nu


_HEADER_RE = re.compile(f"[{SPACE}]*b([0-9]+)[{SPACE}]*:")
_LETTER_RE = re.compile(r"^s([0-9]+)(\^-1)?$")


def parse_braid_word(text: str) -> BraidWord:
    """Parse the text format ``b<n>: s1 s2^-1`` (``e`` for the empty word)."""
    m = _HEADER_RE.match(text)
    if not m:
        raise BraidParseError("expected a header like 'b3:'", 0)
    try:
        n = int(m.group(1))
    except ValueError:  # more digits than int() converts
        raise BraidParseError(long_numeral(m.group(1)), m.start(1)) from None
    if n < 1:
        raise BraidParseError("strand count must be at least 1", m.start(1))
    body_start = m.end()
    tokens = [(tok.start(), tok.group()) for tok in WORD.finditer(text, body_start)]
    if not tokens:
        raise BraidParseError("expected letters or 'e' after the header", body_start)
    if tokens[0][1] == "e":
        if len(tokens) > 1:
            raise BraidParseError(f"unexpected token {tokens[1][1]!r} after 'e'", tokens[1][0])
        return _braid_word(n, ())
    letters = []
    for pos, tok in tokens:
        lm = _LETTER_RE.match(tok)
        if not lm:
            raise BraidParseError(f"unexpected token {tok!r}", pos)
        try:
            i = int(lm.group(1))
        except ValueError:
            raise BraidParseError(long_numeral(lm.group(1)), pos) from None
        if not 1 <= i <= n - 1:
            raise BraidParseError(f"generator s{i} out of range for {n} strands", pos)
        letters.append(-i if lm.group(2) else i)
    return _braid_word(n, tuple(letters))


def format_braid_word(word: BraidWord) -> str:
    """Inverse of ``parse_braid_word``; round-trips bit-exactly."""
    if not word.letters:
        return f"b{word.n}: e"
    body = " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in word.letters)
    return f"b{word.n}: {body}"
