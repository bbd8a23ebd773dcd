import collections
import itertools
import random
import re
import sys
import time

import pytest

from braidtiles import braid
from braidtiles.braid import (
    BraidParseError,
    BraidWord,
    FreeGroupEndo,
    artin_action,
    cable,
    equal,
    format_braid_word,
    handle_reduce,
    is_trivial,
    mirror,
    parse_braid_word,
    underlying_permutation,
    wreath_multiply,
)


def w(text: str) -> BraidWord:
    return parse_braid_word(text)


def rand_word(rng: random.Random, n: int, length: int) -> BraidWord:
    if n == 1:
        return BraidWord(1, ())
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(n, tuple(letters))


# -- construction and validation ---------------------------------------------

def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    assert BraidWord(1, ()).n == 1  # one strand, no generators


@pytest.mark.parametrize("n, letters", [
    (3, (1, -1, 2)),        # ints: True, which isinstance takes for generator 1, is rejected below
    (3, [1, -2]),           # any iterable of ints, stored as a tuple
    (2, (1, -1, 1)),
    (5, ()),
])
def test_word_validation_accepts(n, letters):
    assert BraidWord(n, letters).letters == tuple(letters)


@pytest.mark.parametrize("n, letters, bad", [
    (3, (1, 1.0, 0), "1.0"),         # a float equal to a generator index is not one
    (3, (2, 0, 5), "0"),
    (3, (1, -3, 5), "-3"),           # the first bad letter is named
    (3, (3,), "3"),
    (2, (False,), "False"),
    (4, (1, "2"), "'2'"),
    (3, (True, -1, 2), "True"),      # a bool is no letter, though isinstance calls it an int
])
def test_word_validation_names_the_first_bad_letter(n, letters, bad):
    with pytest.raises(ValueError, match=re.escape(f"letter {bad} is not a generator index of a {n}-strand braid")):
        BraidWord(n, letters)


def test_mul_requires_same_strand_count():
    with pytest.raises(ValueError):
        w("b3: s1") * w("b4: s1")


def test_inverse_reverses_and_flips():
    word = w("b4: s1 s2^-1 s3")
    assert word.inverse().letters == (-3, 2, -1)
    assert is_trivial(word * word.inverse())


# -- text format --------------------------------------------------------------

def test_parse_format_round_trip():
    for text in ["b3: s1 s2^-1", "b1: e", "b5: s4 s4 s1^-1", "b2: e"]:
        assert format_braid_word(parse_braid_word(text)) == text


def test_parse_empty_word():
    assert parse_braid_word("b3: e").letters == ()


@pytest.mark.parametrize(
    "text,position",
    [
        ("nope", 0),
        ("b3 s1", 0),
        ("b0: e", 1),
        ("b3:", 3),
        ("b3: s9", 4),
        ("b3: s0", 4),
        ("b3: t2", 4),
        ("b3: s1^2", 4),
        ("b３: s１", 0),
        ("b3: s１", 4),
        # spaces are ASCII " \t\n\r": another space is part of a token
        ("\u3000b3: e", 0),
        ("b3\u3000: e", 0),
        ("b3:\u3000e", 3),
        ("b3: s1\u3000s1^-1", 4),
        ("b3:\ts1\x0bs2", 4),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(BraidParseError) as err:
        parse_braid_word(text)
    assert err.value.position == position


NINES = "9" * 5000
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
@pytest.mark.parametrize(
    "text,position",
    [(f"b{NINES}: s1", 1), (f"b3: s{NINES}", 4), (f"b3: s1 s{NINES}^-1", 7)],
    ids=["strands", "generator", "inverse-generator"],
)
def test_numerals_past_the_int_digit_limit_are_parse_errors(text, position):
    with pytest.raises(BraidParseError) as err:
        parse_braid_word(text)
    assert str(err.value) == f"numeral too long: 5000 digits, the limit is {DIGIT_LIMIT} (at position {position})"
    assert err.value.position == position


# -- permutations --------------------------------------------------------------

def test_permutation_composition_order():
    # letters act left to right: 1 goes to 2 under s1, then to 3 under s2
    p = underlying_permutation(w("b3: s1 s2"))
    assert p.images == (3, 1, 2)


def test_permutation_of_a_product_is_the_product_of_permutations():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = rand_word(rng, n, rng.randint(0, 8)), rand_word(rng, n, rng.randint(0, 8))
        p, q = underlying_permutation(a), underlying_permutation(b)
        # diagrammatic composite: the strand p sends i to, q then sends on
        assert underlying_permutation(a * b).images == tuple(q(p(i)) for i in range(1, n + 1))


def test_sign_does_not_change_permutation():
    assert underlying_permutation(w("b3: s1")) == underlying_permutation(w("b3: s1^-1"))


# -- the free group action ------------------------------------------------------

def _apply(endo: FreeGroupEndo, word) -> tuple[int, ...]:
    """Image of a free-group word under ``endo``, freely reduced."""
    out: list[int] = []
    for x in word:
        image = endo.images[x - 1] if x > 0 else [-y for y in reversed(endo.images[-x - 1])]
        for y in image:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def test_action_on_generators():
    # first strand generator: x1 -> x1 x2 x1^-1, x2 -> x1
    endo = artin_action(w("b2: s1"))
    assert endo.images == ((1, 2, -1), (1,))
    inv = artin_action(w("b2: s1^-1"))
    assert inv.images == ((2,), (-2, 1, 2))
    # the two compose back to the identity
    assert all(_apply(endo, img) == (i,) for i, img in enumerate(inv.images, start=1))


def test_action_composes_with_concatenation():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_word(rng, 4, rng.randint(0, 6))
        b = rand_word(rng, 4, rng.randint(0, 6))
        lhs = artin_action(a * b)
        composed = FreeGroupEndo(tuple(_apply(artin_action(b), img) for img in artin_action(a).images))
        assert lhs == composed


def test_action_of_inverse_composes_to_identity():
    word = w("b4: s1 s2^-1 s3 s1")
    endo = artin_action(word * word.inverse())
    assert endo.is_identity()


def _substitution_action(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Reference action: every letter, left to right, substitutes into every
    image, and each image is then freely reduced on its own."""
    images = [[i] for i in range(1, word.n + 1)]
    for l in word.letters:
        i = abs(l)
        if l > 0:
            rep = {i: [i, i + 1, -i], i + 1: [i]}
        else:
            rep = {i: [i + 1], i + 1: [-(i + 1), i, i + 1]}

        def image(x: int) -> list[int]:
            y = rep.get(abs(x), [abs(x)])
            return y if x > 0 else [-z for z in reversed(y)]

        images = [[y for x in img for y in image(x)] for img in images]
        for img in images:
            changed = True
            while changed:
                changed = False
                for k in range(len(img) - 1):
                    if img[k] == -img[k + 1]:
                        del img[k:k + 2]
                        changed = True
                        break
    return tuple(tuple(img) for img in images)


def test_action_matches_left_to_right_substitution():
    rng = random.Random(41)
    for _ in range(300):
        word = rand_word(rng, rng.randint(1, 6), rng.randint(0, 14))
        assert artin_action(word).images == _substitution_action(word)


def test_cancelling_pairs_do_not_skip_the_cross_check(monkeypatch):
    # the free reduction of x x^-1 is empty, yet the cross-check still runs
    # and catches a wrong fast path
    x = BraidWord(3, (1, -2) * 12)
    monkeypatch.setattr(braid, "_handle_reduce_letters", lambda letters: [1])
    with pytest.raises(braid.WordProblemMismatch):
        is_trivial(x * x.inverse())
    with pytest.raises(braid.WordProblemMismatch):
        equal(x, x)


def _walked_states(n: int, depth: int) -> collections.Counter:
    """The walk's entries as a multiset: (reduced, images) -> words."""
    states: collections.Counter = collections.Counter()
    for reduced, images, count in braid._suffix_walk(n, depth):
        states[reduced, images] += count
    return states


def _states_from_scratch(n: int, depth: int) -> collections.Counter:
    """Every word's free reduction and images, each folded from the identity."""
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    states: collections.Counter = collections.Counter()
    for length in range(depth + 1):
        for letters in itertools.product(alphabet, repeat=length):
            images = braid._fold_letters([(i,) for i in range(1, n + 1)], letters)
            states[tuple(braid._free_reduce(letters)), tuple(map(tuple, images))] += 1
    return states


def test_suffix_walk_counts_every_word_once():
    entries = list(braid._suffix_walk(3, 8))
    # 4,916 merged states for lengths 0-7, then 3,280 * 4 last-length steps;
    # a walk that yields one entry per word would give 87,381
    assert len(entries) == 4_916 + 13_120
    assert sum(count for _, _, count in entries) == 87_381
    assert all(reduced == tuple(braid._free_reduce(reduced)) for reduced, _, _ in entries)


def test_suffix_walk_images_are_the_action():
    for reduced, images, _ in braid._suffix_walk(3, 6):
        assert images == artin_action(BraidWord(3, reduced)).images, reduced


def test_suffix_walk_images_match_a_fold_from_scratch():
    assert _walked_states(3, 8) == _states_from_scratch(3, 8)


@pytest.mark.parametrize("n, depth", [(4, 5), (5, 4)])
def test_suffix_walk_matches_a_fold_from_scratch_with_far_commutation(n, depth):
    assert _walked_states(n, depth) == _states_from_scratch(n, depth)


@pytest.mark.parametrize("n, depth, trivial, freely_trivial", [(3, 8, 2_689, 2_357), (4, 5, 81, 73)])
def test_suffix_walk_counts_the_trivial_words(n, depth, trivial, freely_trivial):
    identity = tuple((i,) for i in range(1, n + 1))
    states = _walked_states(n, depth)
    assert sum(count for (_, images), count in states.items() if images == identity) == trivial
    assert states[(), identity] == freely_trivial


def test_suffix_walk_folds_each_distinct_step_once_per_walk(monkeypatch):
    real = braid._fold_letters
    calls = []

    def counted(images, letters):
        calls.append(letters)
        return real(images, letters)

    monkeypatch.setattr(braid, "_fold_letters", counted)
    for walk in (1, 2):  # the step table lives for one walk: a second walk folds as many
        calls.clear()
        for _ in braid._suffix_walk(3, 8):
            pass
        assert len(calls) == 3_230, walk  # of 19,664 state steps (87,380 letter steps)
        assert set(calls) == {(1,), (-1,)}


def test_free_reduce():
    assert braid._free_reduce((1, -1, 2)) == [2]
    assert braid._free_reduce((1, 2, -2, -1)) == []


# -- word problem ----------------------------------------------------------------

def test_braid_relation():
    assert equal(w("b3: s1 s2 s1"), w("b3: s2 s1 s2"))
    assert equal(w("b4: s1 s3"), w("b4: s3 s1"))
    assert not equal(w("b3: s1"), w("b3: s2"))


def test_braid_relation_conjugated():
    assert is_trivial(w("b3: s1 s2 s1 s2^-1 s1^-1 s2^-1"))


def test_handle_reduce_examples():
    assert handle_reduce(w("b3: s1 s2 s2^-1 s1^-1")).letters == ()
    # a reduced nontrivial word stays nontrivial
    assert handle_reduce(w("b3: s1 s2")).letters != ()


def _reference_first_handle(word):
    """The rule stated directly: at the first t where it exists, the most
    recent letter of the same index, of opposite sign, with no letter of
    a lower index in between."""
    for t, l in enumerate(word):
        i = abs(l)
        p = next((p for p in range(t - 1, -1, -1) if abs(word[p]) == i), None)
        if p is not None and word[p] == -l and all(abs(x) > i for x in word[p + 1:t]):
            return p, t
    return None


def _table_handle_reduce(letters):
    """Handle reduction with a per-index table of most recent positions,
    which the nearest-smaller-index links replaced."""

    def first_handle(word, size):
        last = [-1] * size
        for t, l in enumerate(word):
            i = abs(l)
            p = last[i]
            if p >= 0 and word[p] == -l and all(last[j] <= p for j in range(1, i)):
                return p, t
            last[i] = t
        return None

    letters = braid._free_reduce(letters)
    size = max(map(abs, letters), default=0) + 1
    while (h := first_handle(letters, size)) is not None:
        letters = braid._free_reduce(braid._reduce_handle(letters, *h))
    return letters


def test_first_handle_matches_the_rule_on_every_short_word():
    alphabet = (1, -1, 2, -2, 3, -3)
    for length in range(7):
        for word in itertools.product(alphabet, repeat=length):
            assert braid._first_handle(word) == _reference_first_handle(word), word


def test_first_handle_matches_the_rule_on_random_words():
    # A prefix that keeps one sign per index has no handle, so a random
    # prefix length puts the first handle anywhere in the word, or nowhere.
    rng = random.Random(20)
    found = 0
    for _ in range(2000):
        n, length = rng.randint(2, 8), rng.randint(0, 200)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        prefix = rng.randint(0, length)
        letters = tuple(
            i * (signs[i] if k < prefix else rng.choice((1, -1)))
            for k, i in enumerate(rng.randint(1, n - 1) for _ in range(length))
        )
        h = braid._first_handle(letters)
        assert h == _reference_first_handle(letters), letters
        found += h is not None
    assert 1500 < found < 2000


def test_first_handle_links_run_back_past_the_first_letter():
    # no s1: the lowest letters link to -1, and a same-sign s3 is linked past
    assert braid._first_handle((3, 4, 2, 4)) is None
    assert braid._first_handle((3, 4, 2, 3, -2)) == (2, 4)
    assert braid._first_handle((2, 3, 4, 3, -2)) == (0, 4)
    assert braid._first_handle((4, 3, 2, -4)) is None
    for word in ((3, 4, 2, 4), (3, 4, 2, 3, -2), (2, 3, 4, 3, -2), (4, 3, 2, -4)):
        assert _reference_first_handle(word) == braid._first_handle(word)
    assert handle_reduce(BraidWord(5, (2, 3, 4, 3, -2))) == BraidWord(5, (-3, 2, -4, 3, 4, 2, 3))


def test_handle_reduce_matches_the_table_scan():
    # every tenth word up to 400 letters, the rest up to 40: a uniform random
    # word of 400 letters takes about 0.1 s to reduce
    rng = random.Random(21)
    for k in range(2000):
        letters = rand_word(rng, rng.randint(2, 7), rng.randint(0, 400 if k % 10 == 0 else 40)).letters
        assert braid._handle_reduce_letters(letters) == _table_handle_reduce(letters), letters


def test_handle_reduce_cost_follows_the_letters_not_the_strand_count():
    # the scan keeps one link per letter and nothing per strand, so a
    # trillion strands cost what three do
    assert handle_reduce(BraidWord(10**12, (1, -1))) == BraidWord(10**12, ())
    assert handle_reduce(BraidWord(10**12, (1, 2, -1))) == BraidWord(10**12, (-2, 1, 2))


def test_random_long_words_stay_far_inside_the_step_budget(monkeypatch):
    # the largest counts measured sit at least 20 times below the budget
    # (see _HANDLE_STEP_LIMIT); these ten words need at most 3,316 steps
    # each, so a kernel that multiplies the step count by 3 fails here
    monkeypatch.setattr(braid, "_HANDLE_STEP_LIMIT", 10_000)
    rng = random.Random(40)
    for _ in range(10):
        handle_reduce(rand_word(rng, 5, rng.randint(400, 800)))


def test_nontrivial_words():
    assert not is_trivial(w("b3: s1"))
    assert not is_trivial(w("b3: s1 s2 s1 s2 s1 s2"))  # full twist squared root
    assert not is_trivial(w("b2: s1 s1"))


def test_trivial_on_one_strand():
    assert is_trivial(BraidWord(1, ()))


def test_oracle_agreement_explicit():
    # the checked answer agrees with the free-group oracle and with the
    # Dynnikov route on its own
    rng = random.Random(9)
    for _ in range(50):
        word = rand_word(rng, 4, rng.randint(0, 10))
        answer = is_trivial(word)
        assert answer == artin_action(word).is_identity() == braid._dynnikov_trivial(word.letters)


def test_oracle_flag_off_still_answers():
    # there is no flag that turns the cross-check off: one policy answers
    word = w("b3: s1 s2^-1")
    assert is_trivial(word) is False
    with pytest.raises(TypeError):
        is_trivial(word, oracle=False)
    with pytest.raises(TypeError):
        equal(word, word, oracle=False)


def test_explicit_oracle_cross_checks_long_words(monkeypatch):
    # a broken Dynnikov route that calls every word nontrivial is caught on
    # a 100-letter word, through is_trivial and through equal
    calls = []

    def every_word_nontrivial(letters):
        calls.append(len(letters))
        return False

    monkeypatch.setattr(braid, "_dynnikov_trivial", every_word_nontrivial)
    half = rand_word(random.Random(12), 5, 50)
    word = half * half.inverse()
    assert len(word) == 100
    with pytest.raises(braid.WordProblemMismatch, match="Dynnikov coordinates says trivial=False"):
        is_trivial(word)
    with pytest.raises(braid.WordProblemMismatch, match="Dynnikov coordinates says trivial=False"):
        equal(half, half)
    assert calls == [100, 100]


def test_pseudo_anosov_power_fast():
    # the free-group images grow exponentially here; the check must not stall
    word = BraidWord(3, (1, -2) * 16)
    assert len(word) == 32
    assert not is_trivial(word)


# -- Dynnikov coordinates ------------------------------------------------------------

def test_dynnikov_agrees_with_the_walk_images():
    identity = ((1,), (2,), (3,))
    oracle = {}  # free reduction -> the walk's oracle verdict
    for reduced, images, _ in braid._suffix_walk(3, 8):
        assert oracle.setdefault(reduced, images == identity) == (images == identity), reduced
    walked = 0
    for length in range(9):
        for letters in itertools.product((1, -1, 2, -2), repeat=length):
            assert braid._dynnikov_trivial(letters) == oracle[tuple(braid._free_reduce(letters))], letters
            walked += 1
    assert walked == 87_381


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dynnikov_kills_the_defining_relations(n):
    dyn = braid._dynnikov_trivial
    for i in range(1, n):
        assert dyn((i, -i)) and dyn((-i, i))
        assert not dyn((i,)) and not dyn((i, i))
        for j in range(i + 1, n):
            if j == i + 1:
                assert dyn((i, j, i, -j, -i, -j))
            else:
                assert dyn((i, j, -i, -j))


def test_dynnikov_full_twist_is_central():
    rng = random.Random(15)
    for n in (3, 4, 5, 6):
        delta = [i for k in range(n - 1, 0, -1) for i in range(1, k + 1)]
        full_twist = BraidWord(n, tuple(delta * 2))
        assert not braid._dynnikov_trivial(full_twist.letters)
        for _ in range(20):
            x = rand_word(rng, n, rng.randint(0, 20))
            commutator = full_twist * x * full_twist.inverse() * x.inverse()
            assert braid._dynnikov_trivial(commutator.letters)


def test_dynnikov_agrees_with_the_action_on_gapped_indices():
    # {1, 2}, {5, 6} and {9} touch disjoint sets of coordinate pairs
    rng = random.Random(21)
    indices = (1, 2, 5, 6, 9)
    trivial = 0
    for _ in range(400):
        x = BraidWord(10, tuple(rng.choice(indices) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8))))
        y = BraidWord(10, tuple(rng.choice(indices) * rng.choice((1, -1)) for _ in range(rng.randint(0, 4))))
        # a commutator of words on disjoint blocks is trivial; others mostly not
        if rng.random() < 0.5:
            low = BraidWord(10, tuple(l for l in x.letters if abs(l) < 5))
            high = BraidWord(10, tuple(l for l in y.letters if abs(l) > 4))
            word = low * high * low.inverse() * high.inverse()
        else:
            word = x * y * x.inverse()
        expected = artin_action(word).is_identity()
        trivial += expected
        assert braid._dynnikov_trivial(word.letters) == expected, word
    assert 100 < trivial < 300


def _laid_out_dynnikov_trivial(letters):
    """Reference: the same update over a flat list laid out for the indices
    the word uses, a fresh block after each index gap."""
    offset, x = {}, []
    for i in sorted(set(map(abs, letters))):
        if i - 1 not in offset:
            x += (0, 1)
        offset[i] = offset[-i] = len(x) - 2
        x += (0, 1)
    start = x[:]
    for l in letters:
        j = offset[l]
        a, b, c, d = x[j:j + 4]
        bp, bm, dp, dm = max(b, 0), min(b, 0), max(d, 0), min(d, 0)
        if l > 0:
            e = a - bm - c + dp
            x[j:j + 4] = a + bp + max(dp - e, 0), d - max(e, 0), c + dm + min(bm + e, 0), b + max(e, 0)
        else:
            e = a + bm - c - dp
            x[j:j + 4] = a - bp - max(dp + e, 0), d + min(e, 0), c - dm - min(bm - e, 0), b - min(e, 0)
    return x == start


def test_dynnikov_matches_the_laid_out_coordinates():
    checked = trivial = 0
    for length in range(7):
        for letters in itertools.product((1, -1, 2, -2, 3, -3), repeat=length):
            verdict = braid._dynnikov_trivial(letters)
            assert verdict == _laid_out_dynnikov_trivial(letters), letters
            checked += 1
            trivial += verdict
    assert (checked, trivial) == (55_987, 1_245)  # the B_4 depth-6 walk
    # indices with gaps, up to 10^12; conjugates and commutators are often trivial
    rng = random.Random(22)
    trivial = 0
    for _ in range(2000):
        indices = [rng.choice((1, 2, 3, 10 ** rng.randint(1, 12))) + rng.randint(0, 2) for _ in range(4)]
        x = [rng.choice(indices) * rng.choice((1, -1)) for _ in range(rng.randint(0, 10))]
        y = [rng.choice(indices) * rng.choice((1, -1)) for _ in range(rng.randint(0, 6))]
        letters = x + y + [-l for l in reversed(x)]
        if rng.random() < 0.5:
            letters += [-l for l in reversed(y)]
        verdict = braid._dynnikov_trivial(letters)
        assert verdict == _laid_out_dynnikov_trivial(letters), letters
        trivial += verdict
    assert 500 < trivial < 1500


def test_dynnikov_separates_a_commutator_of_squares():
    # s1^2 and s2^2 generate a free group, so their commutator is nontrivial
    assert not braid._dynnikov_trivial((1, 1, 2, 2, -1, -1, -2, -2))
    assert not is_trivial(w("b3: s1 s1 s2 s2 s1^-1 s1^-1 s2^-1 s2^-1"))


@pytest.mark.parametrize("length", [64, 200, 800, 6400])
def test_no_word_skips_its_cross_check(monkeypatch, length):
    real = braid._dynnikov_trivial
    calls = []

    def counted(letters):
        calls.append(len(letters))
        return real(letters)

    monkeypatch.setattr(braid, "_dynnikov_trivial", counted)
    x = rand_word(random.Random(length), 5, length // 2)
    assert is_trivial(x * x.inverse())
    assert calls == [length]
    assert equal(x, x)
    assert calls == [length, length]
    y = BraidWord(5, (1, -2) * (length // 2))  # y and y y have no handle
    assert not is_trivial(y)
    assert not equal(y, y.inverse())
    assert calls == [length, length, length, 2 * length]


def test_long_pseudo_anosov_words_run_both_routes_quickly(monkeypatch, collector_off):
    # the free-group images of (s1 s2^-1)^k have exponential length; its
    # Dynnikov coordinates have linear bit length.  Both timed spans run
    # with the collector off, so they measure the word problem alone.
    ran = []

    def recorded(name):
        real = getattr(braid, name)

        def route(letters):
            ran.append(name)
            return real(letters)
        return route

    for name in ("_handle_reduce_letters", "_dynnikov_trivial"):
        monkeypatch.setattr(braid, name, recorded(name))
    x = BraidWord(3, (1, -2) * 4000)
    started = time.perf_counter()
    assert not is_trivial(x)
    assert time.perf_counter() - started < 1.0
    assert ran == ["_handle_reduce_letters", "_dynnikov_trivial"]
    x = BraidWord(3, (1, -2) * 5000)
    started = time.perf_counter()
    assert equal(x, x)
    assert time.perf_counter() - started < 1.0
    assert ran == ["_handle_reduce_letters", "_dynnikov_trivial"] * 2


def test_equal_respects_strand_count():
    with pytest.raises(ValueError):
        equal(w("b3: s1"), w("b4: s1"))


# -- mirroring --------------------------------------------------------------------

def test_mirror_flips_crossings():
    assert mirror(w("b3: s1 s2^-1")).letters == (-1, 2)
    assert mirror(mirror(w("b3: s1 s2"))) == w("b3: s1 s2")


def test_mirror_is_a_homomorphism():
    rng = random.Random(21)
    for _ in range(10):
        a = rand_word(rng, 3, 5)
        b = rand_word(rng, 3, 5)
        assert equal(mirror(a * b), mirror(a) * mirror(b))


def test_mirror_preserves_permutation():
    word = w("b4: s1 s2 s3 s1")
    assert underlying_permutation(mirror(word)) == underlying_permutation(word)


# -- cabling -----------------------------------------------------------------------

def test_cable_frozen_example():
    # one crossing of two 2-strand cables: the four strands cross blockwise
    eps = BraidWord(2, ())
    out = cable(2, 2, w("b2: s1"), (eps, eps))
    assert format_braid_word(out) == "b4: s2 s1 s3 s2"
    assert underlying_permutation(out).images == (3, 4, 1, 2)


def test_cable_inserts_inner_words_first():
    out = cable(2, 2, BraidWord(2, ()), (w("b2: s1"), w("b2: s1^-1")))
    assert out.letters == (1, -3)


def test_cable_validates_shapes():
    with pytest.raises(ValueError):
        cable(2, 2, w("b2: s1"), (w("b2: e"),))  # needs one word per strand
    with pytest.raises(ValueError):
        cable(2, 2, w("b3: s1"), (w("b2: e"), w("b2: e")))
    with pytest.raises(ValueError):
        cable(2, 2, w("b2: s1"), (w("b2: e"), w("b3: e")))


def test_cable_is_multiplicative():
    rng = random.Random(14)
    for _ in range(15):
        q, k = rng.choice([(2, 2), (3, 2), (2, 3)])
        s1 = rand_word(rng, q, rng.randint(0, 3))
        s2 = rand_word(rng, q, rng.randint(0, 3))
        mus1 = tuple(rand_word(rng, k, rng.randint(0, 2)) for _ in range(q))
        mus2 = tuple(rand_word(rng, k, rng.randint(0, 2)) for _ in range(q))
        sigma, mus = wreath_multiply((s1, mus1), (s2, mus2))
        lhs = cable(q, k, s1, mus1) * cable(q, k, s2, mus2)
        assert equal(lhs, cable(q, k, sigma, mus))


def test_wreath_multiply_twists_by_the_first_permutation():
    # with sigma = s1 in the outer group, the second pair's inner words swap slots
    s1 = w("b2: s1")
    eps2 = BraidWord(2, ())
    a = w("b2: s1")
    b = w("b2: s1^-1")
    _, mus = wreath_multiply((s1, (a, eps2)), (eps2, (b, eps2)))
    assert mus[0] == a * eps2
    assert mus[1] == eps2 * b
