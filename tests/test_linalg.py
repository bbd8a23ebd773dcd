import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from braidtiles.braid import BraidWord
from braidtiles.homs import braid_to_symplectic
from braidtiles.linalg import (
    ExactMatrix,
    SymplecticForm,
    decimal,
    format_scalar,
    is_symplectic,
    parse_scalar,
    rank_one_is_identity,
    rank_one_product,
    smith_normal_form,
)


def _int_det(rows):
    """Laplace expansion over Python ints; independent of ExactMatrix."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def _zeros(rows, cols):
    return ExactMatrix.from_rows([[0] * cols for _ in range(rows)], cols=cols)


def _determinantal_divisors(rows):
    """gcd of all k-by-k minors, for k = 1..min shape."""
    r, c = len(rows), len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for rsel in itertools.combinations(range(r), k):
            for csel in itertools.combinations(range(c), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, _int_det(sub))
        out.append(g)
    return out


def _factors_from_divisors(divs):
    factors = []
    prev = 1
    for d in divs:
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def test_constructor_normalizes_fractions():
    m = ExactMatrix.from_rows([[Fraction(4, 2), Fraction(1, 3)]], cols=2)
    assert m.entries[0][0] == 2
    assert isinstance(m.entries[0][0], int)
    assert m.entries[0][1] == Fraction(1, 3)
    # a row with one Fraction is normalized whole; all-int rows are kept
    m = ExactMatrix.from_rows([[Fraction(6, 3), 5], [1, 2]])
    assert m.entries == ((2, 5), (1, 2))
    assert type(m.entries[0][0]) is int
    assert all(type(row) is tuple for row in m.entries)


class _Count(int):
    pass


def test_constructor_rejects_inexact_entries():
    # one bad entry in an otherwise all-int row fails the row's fast path
    for bad in (True, False, 1.0, 0.5):
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([[1, 2, bad]])
    # an int subclass is exact: it keeps its value
    m = ExactMatrix.from_rows([[_Count(7), 1]])
    assert m.entries == ((7, 1),)
    assert all(isinstance(x, int) for x in m.entries[0])


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_identity_and_zeros():
    assert ExactMatrix.identity(3).is_identity()
    assert not _zeros(2, 2).is_identity()
    assert ExactMatrix.identity(3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert ExactMatrix.from_rows([], cols=0).is_identity()
    assert ExactMatrix.from_rows([[Fraction(1), Fraction(0)], [0, Fraction(2, 2)]]).is_identity()
    assert not ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]]).is_identity()
    assert not ExactMatrix.from_rows([[1, 0], [3, 1]]).is_identity()
    assert not ExactMatrix.from_rows([[1, 0], [0, -1]]).is_identity()


def test_product_and_shape_errors():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).entries == ((2, 1), (4, 3))
    with pytest.raises(ValueError):
        a * _zeros(3, 2)


def test_inverse():
    a = ExactMatrix.from_rows([[1, 1], [0, 1]])
    assert a.inverse().entries == ((1, -1), (0, 1))
    assert (a.inverse() * a).is_identity()
    with pytest.raises(ValueError):
        _zeros(2, 2).inverse()


def test_inverse_has_exact_fractions():
    a = ExactMatrix.from_rows([[2, 0], [0, 3]])
    inv = a.inverse()
    assert inv.entries == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))


def test_degenerate_shapes():
    e = _zeros(0, 3)
    assert (e * _zeros(3, 2)).cols == 2
    assert ExactMatrix.identity(0).is_identity()


def test_scalar_text_round_trip():
    for x in (0, -7, Fraction(3, 4), Fraction(-1, 2)):
        assert parse_scalar(format_scalar(x)) == x
    for bad in ("1.5", "1/0", "1/2/3", "", 1, None, "1_0", " 1", "+3", "1/-2", "٣/4"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
@pytest.mark.parametrize(
    "text",
    ["9" * 5000, "-" + "9" * 5000, "9" * 5000 + "/7", "-1/" + "0" * 5000],
    ids=["numerator", "negative-numerator", "numerator-over-7", "zero-denominator"],
)
def test_scalar_numeral_past_the_digit_limit_is_named_by_its_length(text):
    with pytest.raises(ValueError) as err:
        parse_scalar(text)
    assert str(err.value) == f"invalid scalar: numeral too long: 5000 digits, the limit is {DIGIT_LIMIT}"


def test_decimal_takes_ascii_digits_only():
    for text, value in (("0", 0), ("-3", -3), ("0042", 42), ("10" * 20, int("10" * 20))):
        assert decimal(text) == value
    for bad in ("", "-", "+3", " 3", "3\n", "1_0", "\u0663", "３", "0x3", "1.0", "--3"):
        with pytest.raises(ValueError, match="invalid decimal integer"):
            decimal(bad)


@pytest.mark.parametrize("obj", [1, [1], [["1", "x"]], [[1, 0]], [["1/0"]]])
def test_matrix_json_rejects_wrong_shapes(obj):
    with pytest.raises(ValueError):
        ExactMatrix.from_json_obj(obj)


def test_json_round_trip():
    m = ExactMatrix.from_rows([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    assert m.to_json_obj() == [["1/2", "-3"], ["0", "7/5"]]
    assert ExactMatrix.from_json_obj(m.to_json_obj()) == m


def test_str_rendering():
    m = ExactMatrix.from_rows([[1, -10], [0, 2]])
    assert str(m) == "[  1  -10]\n[  0    2]"


# -- Smith normal form -------------------------------------------------------

# expected diagonals cross-checked against an independent implementation
SNF_CASES = [
    ([[2, 0], [0, 3]], [1, 6]),  # both pivots are recorded; gcd and lcm put (2, 3) in order as (1, 6)
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 3, 0]),
    ([[0, 0], [0, 0]], [0, 0]),
    ([[2], [3]], [1]),  # a remainder 1 is left in the pivot's column
    ([[2, 3]], [1]),  # the pivot row is reduced mod 2 to [2, 1]
]


@pytest.mark.parametrize("rows,diag", SNF_CASES)
def test_smith_frozen_diagonals(rows, diag):
    assert smith_normal_form(ExactMatrix.from_rows(rows)) == tuple(diag)


def test_smith_rejects_non_integer():
    with pytest.raises(ValueError):
        smith_normal_form(ExactMatrix.from_rows([[Fraction(1, 2)]]))


def test_smith_checks_the_nonzeros_it_collects():
    # every zero is stored as an int, so checking the sparse rows' nonzeros
    # finds a fraction among them; an exact int subclass still passes
    rows = [[0, 0, 0, 0, 0], [0, 0, Fraction(1, 2), 0, 0], [1, 0, 0, 0, 0]]
    with pytest.raises(ValueError, match="^smith_normal_form requires integer entries$"):
        smith_normal_form(ExactMatrix.from_rows(rows))
    assert smith_normal_form(ExactMatrix.from_rows([[0, _Count(2)], [0, 0]])) == (2, 0)


def test_smith_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        m = ExactMatrix.from_rows(rows, cols=c)
        diag = smith_normal_form(m)
        assert len(diag) == min(r, c)
        assert all(isinstance(x, int) and x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        # invariant factors agree with the gcd-of-minors definition
        assert nonzero == _factors_from_divisors(_determinantal_divisors(rows))


@pytest.mark.parametrize("entries", [
    (0, 0, -9, -6, -4, -2, 2, 3, 4, 6, 10, 15),  # no unit: every pivot is reduced or recorded by the non-unit rules
    (0, 1, -1, 1, -1, 2),  # units nearly everywhere: the heap's least key is a unit, recorded at once
], ids=["no-unit", "units"])
def test_smith_pivot_paths_match_minor_oracle(entries):
    rng = random.Random(11)
    units = 0
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice(entries) for _ in range(c)] for _ in range(r)]
        units += any(abs(x) == 1 for row in rows for x in row)
        nonzero = [x for x in smith_normal_form(ExactMatrix.from_rows(rows, cols=c)) if x]
        assert nonzero == _factors_from_divisors(_determinantal_divisors(rows))
    assert units > 60 if 1 in entries else units == 0


def _dense_smith_reference(m):
    """The Smith diagonal by a dense loop that pivots on the smallest
    nonzero |entry|, ties by row-major position, not by the heap order
    (least |entry|, row length, row) that smith_normal_form takes."""
    def add_multiple(w, c, v):
        return [a + c * b for a, b in zip(w, v)]

    def pivot_position(a):
        least, i = 0, -1
        for r, row in enumerate(a):
            m = min(map(abs, filter(None, row)), default=0)
            if m and (m < least or not least):
                least, i = m, r
                if m == 1:
                    break
        return i, [*map(abs, a[i])].index(least)

    a = [list(row) for row in m.entries if any(row)]
    diag = []
    while a:
        i, j = pivot_position(a)
        p, pivot = a[i][j], a[i]
        for r, row in enumerate(a):
            if row[j] and r != i:
                a[r] = add_multiple(row, -(row[j] // p), pivot)
        if p != 1 and p != -1:
            if any(row[j] for row in a if row is not pivot):
                continue
            if not any(x % p for x in pivot):
                offender = next((row for row in a if any(x % p for x in row)), None)
                pivot = None if offender is None else [x + y for x, y in zip(pivot, offender)]
            if pivot is not None:
                a[i] = [x % p for x in pivot]
                a[i][j] = p
                continue
        diag.append(abs(p))
        a = [row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i and any(row)]
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag))


SMITH_POOLS = {
    "units": (0, 0, 1, -1, 2, -3),
    "minus-one": (0, 0, -1, -1, 2, 4),
    "no-unit": (0, 0, 2, -2, 3, -4, 6, 9),
    "mixed": (0, 0, 0, 1, -1, 2, -2, 3, 4, -5),
    "wide": tuple(range(-12, 13)),
}


def test_smith_matches_the_dense_reference():
    # pivots in heap order on sparse rows must leave the dense reference's
    # diagonal, whatever the mix of unit and non-unit pivots, zero and
    # repeated rows, and zero columns
    rng = random.Random(27)
    seen = set()
    for trial in range(2400):
        pool = SMITH_POOLS[rng.choice(sorted(SMITH_POOLS))]
        r, c = rng.randint(0, 7), rng.randint(0, 6)
        rows = [[rng.choice(pool) for _ in range(c)] for _ in range(r)]
        if rows and trial % 3 == 0:
            rows.insert(rng.randrange(r + 1), list(rng.choice(rows)))
        if trial % 4 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * c)
        if trial % 5 == 0 and c:
            k = rng.randrange(c)
            rows = [row[:k] + [0] + row[k + 1:] for row in rows]
        m = ExactMatrix.from_rows(rows, cols=c)
        diag = smith_normal_form(m)
        assert diag == _dense_smith_reference(m), rows
        entries = {x for row in rows for x in row}
        seen.add("no column" if not c else "columns")
        seen.add("zero row" if [0] * c in rows else "no zero row")
        seen.add("repeated row" if len({tuple(row) for row in rows}) < len(rows) else "distinct rows")
        seen.add("zero column" if any(not any(col) for col in zip(*rows)) else "no zero column")
        seen.add("-1" if -1 in entries else "no -1")
        seen.add("no unit" if entries.isdisjoint({1, -1}) and entries - {0} else "a unit")
        if any(x > 1 for x in diag):
            seen.add("non-unit pivot after a unit" if 1 in diag else "non-unit pivots only")
    assert {"no column", "zero row", "repeated row", "zero column", "-1", "no unit", "a unit",
            "non-unit pivot after a unit", "non-unit pivots only"} <= seen


def _invariant_factors(m):
    """The nonzero entries of the Smith diagonal, as abelianization keeps them."""
    return [d for d in smith_normal_form(m) if d]


def test_invariant_factors_ignore_zero_and_repeated_rows():
    # zero rows never reach the elimination, and it clears a repeated row at
    # its first pivot, so abelianization dedupes none of its relator rows
    rng = random.Random(9)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        padded = rows + [[0] * c for _ in range(rng.randint(1, 3))]
        padded += [list(rng.choice(rows)) for _ in range(rng.randint(1, 3))]
        rng.shuffle(padded)
        assert _invariant_factors(ExactMatrix.from_rows(padded, cols=c)) == _invariant_factors(
            ExactMatrix.from_rows(rows, cols=c)
        )


def test_invariant_factors_frozen():
    assert _invariant_factors(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == [1, 3]
    assert _invariant_factors(_zeros(2, 2)) == []


# -- rank-one products --------------------------------------------------------------

def _sparse_vector(rng, n, size, values):
    out = [0] * n
    for k in rng.sample(range(n), min(size, n)):
        out[k] = rng.choice(values)
    return out


def _nonzeros(v):
    return [(k, x) for k, x in enumerate(v) if x]


def _dense_rank_one_product(n, pairs, word):
    """The product of the dense factors I + sign(l) u^T d, one matrix product a letter."""
    dense = ExactMatrix.identity(n)
    for l in word:
        u, d = pairs[abs(l)]
        s = 1 if l > 0 else -1
        dense = dense * ExactMatrix.from_rows(
            [[(1 if a == b else 0) + s * u[a] * d[b] for b in range(n)] for a in range(n)], cols=n
        )
    return dense


def _zero_combination(u, d, s):
    """Whether a letter with one nonzero in d rewrites its column as 0."""
    (j,) = [j for j, y in enumerate(d) if y]
    return all(s * d[j] * x + (k == j) == 0 for k, x in enumerate(u))


def test_rank_one_product_matches_dense_factors():
    # letter l is the factor I + sign(l) u^T d of generator |l|, whether or
    # not d . u = 0, with u and d handed over as their nonzeros; each
    # generator's (u, d) is requested once
    rng = random.Random(5)
    seen = set()
    cases = []
    for _ in range(300):
        n, gens = rng.randint(0, 8), rng.randint(1, 3)
        pairs = {
            i: (_sparse_vector(rng, n, rng.choice([0, 1, 2, 3, 5]), [1, -1, 2, -2, 3]),
                _sparse_vector(rng, n, rng.choice([0, 1, 2]), [1, -1, 2, -2]))
            for i in range(1, gens + 1)
        }
        cases.append((n, pairs, [rng.choice([1, -1]) * rng.randint(1, gens) for _ in range(rng.randint(0, 8))]))
    # a one-column letter whose combination is all 0: I - e_1^T e_1 clears column 1,
    # alone and after letters that filled it
    cases.append((3, {1: ([0, 1, 0], [0, 1, 0]), 2: ([1, 0, 2], [0, 1, 1])}, [2, -1, 2, -2, -1, 1]))
    for n, pairs, word in cases:
        requested = []

        def factor(i):
            requested.append(i)
            u, d = pairs[i]
            return _nonzeros(u), _nonzeros(d)

        for l in word:
            u, d = pairs[abs(l)]
            s = 1 if l > 0 else -1
            seen.add((sum(map(bool, u)), sum(map(bool, d))))
            seen.update(("u", x) for x in u if x)
            seen.update(("d", s * y) for y in d if y)
            seen.add(("d.u", sum(x * y for x, y in zip(u, d)) != 0))
            if sum(map(bool, d)) == 1:
                seen.add(("zero column", _zero_combination(u, d, s)))
        dense = _dense_rank_one_product(n, pairs, word)
        assert rank_one_product(n, factor, word) == dense
        assert sorted(requested) == sorted(set(map(abs, word)))
        # the identity test folds only the columns the word rewrites
        assert rank_one_is_identity(n, factor, word) is dense.is_identity()
        seen.add(("identity", dense.is_identity(), len(word) > 0))
    # every support size, both signs of every coefficient, d . u zero or not,
    # and one-column letters whose combination is 0 or not
    assert {(a, b) for a in (0, 1, 2, 3, 5) for b in (0, 1, 2)} <= seen
    assert {("u", x) for x in (1, -1, 2, -2)} | {("d", y) for y in (1, -1, 2, -2)} <= seen
    assert {("d.u", False), ("d.u", True)} <= seen
    assert {("zero column", False), ("zero column", True)} <= seen
    assert {("identity", True, True), ("identity", False, True)} <= seen


# -- symplectic form ----------------------------------------------------------

def test_form_matrix_genus_one():
    f = SymplecticForm(1)
    assert f.dim == 2


def test_pairing_is_alternating():
    f = SymplecticForm(2)
    u, v = (1, 2, 0, -1), (0, 1, 1, 3)
    assert f.pairing(u, v) == -f.pairing(v, u)
    assert f.pairing(u, u) == 0


def test_pairing_basis_values():
    # x_i pairs with y_i to 1 and with everything else to 0
    f = SymplecticForm(2)
    basis = [tuple(1 if k == j else 0 for k in range(4)) for j in range(4)]
    x1, y1, x2, y2 = basis
    assert f.pairing(x1, y1) == 1
    assert f.pairing(y1, x1) == -1
    assert f.pairing(x1, x2) == 0
    assert f.pairing(x1, y2) == 0


def test_is_symplectic():
    f = SymplecticForm(1)
    assert is_symplectic(ExactMatrix.identity(2), f)
    assert is_symplectic(ExactMatrix.from_rows([[1, 1], [0, 1]]), f)
    assert not is_symplectic(ExactMatrix.from_rows([[2, 0], [0, 1]]), f)
    assert is_symplectic(ExactMatrix.from_rows([[2, 0], [0, Fraction(1, 2)]]), f)
    assert not is_symplectic(ExactMatrix.from_rows([[0, 1], [1, 0]]), f)  # <x_1, y_1> pairs to -1
    with pytest.raises(ValueError, match="^expected a 2x2 matrix, got 3x3$"):
        is_symplectic(_zeros(3, 3), f)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]],  # only rows 1 and 3 pair wrongly, to 1
    [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],  # only y_1 and x_2, consecutive rows, pair to -1
], ids=["non-adjacent", "y1-x2"])
def test_is_symplectic_sees_a_single_wrong_pair(rows):
    m = ExactMatrix.from_rows(rows)
    wrong = [(a, b) for a in range(4) for b in range(a + 1, 4)
             if SymplecticForm(2).pairing(m.entries[a], m.entries[b]) != (b == a + 1 and a % 2 == 0)]
    assert len(wrong) == 1
    assert not is_symplectic(m, SymplecticForm(2))


def _dense_is_symplectic(rows):
    """m^T J m == J by dense products over plain lists, J block diagonal in
    [[0, 1], [-1, 0]]; independent of SymplecticForm."""
    n = len(rows)
    j = [[(a % 2 == 0 and b == a + 1) - (b % 2 == 0 and a == b + 1) for b in range(n)] for a in range(n)]

    def mul(x, y):
        return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]

    return mul(mul([list(col) for col in zip(*rows)], j), rows) == j


def _diagonal(entries):
    return ExactMatrix.from_rows([[x if i == k else 0 for k in range(len(entries))] for i, x in enumerate(entries)])


def _symplectic_cases(rng):
    """(kind, matrix) pairs: symplectic images, perturbed images, random
    integer matrices, rational diag(d, 1/d) products, singular matrices."""
    for _ in range(60):
        g = rng.randint(1, 3)
        n = 2 * g
        word = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))))
        image = braid_to_symplectic(g, word)
        yield "image", image
        rows = [list(r) for r in image.entries]
        rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
        yield "perturbed", ExactMatrix.from_rows(rows)
        yield "random", ExactMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        ds = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in range(g)]
        yield "rational", _diagonal([x for d in ds for x in (d, 1 / d)]) * image
        yield "rational", image * _diagonal([x for d in ds for x in (d, d)])
        rows = [list(r) for r in image.entries]
        rows[rng.randrange(n)] = [0] * n
        yield "singular", ExactMatrix.from_rows(rows)


def test_is_symplectic_matches_the_dense_product():
    rng = random.Random(8)
    seen = {}
    for kind, m in _symplectic_cases(rng):
        expected = _dense_is_symplectic([list(r) for r in m.entries])
        assert is_symplectic(m, SymplecticForm(m.rows // 2)) == expected, (kind, m)
        seen.setdefault(kind, set()).add(expected)
    # a perturbation can land on another symplectic matrix, a transvection
    assert seen["image"] == {True} and seen["singular"] == {False} and False in seen["perturbed"]
    assert seen["random"] == seen["rational"] == {True, False}


def test_is_symplectic_takes_no_matrix_product(monkeypatch):
    cases = list(_symplectic_cases(random.Random(9)))
    products = []
    mul = ExactMatrix.__mul__
    monkeypatch.setattr(ExactMatrix, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for _, m in cases:
        is_symplectic(m, SymplecticForm(m.rows // 2))
    assert products == []
