"""Exact linear algebra over the integers and rationals.

Everything in this package that looks like a linear map acts on *row*
vectors from the right, so the matrix of "f then g" is ``matrix(f) *
matrix(g)`` and every representation of a word w1*w2 is the product of
the representations of w1 and w2 in that order.

Word images are not dense products: ``rank_one_product`` folds their
rank-one letters, and each letter's factor comes as its nonzeros, so a
letter costs by its generator's degree, not by n.  A letter whose d has one
nonzero rewrites one column as a combination of columns; a reflection is
column s := (sum of the neighbour columns) - column s.  Each letter's
program is made once per factor content ``(u, d, sign)``, in one capped
memo that the symplectic, edge-transvection and Coxeter folds share, so an
image call pays for its fold, not for remaking its representation.
``rank_one_is_identity`` runs the same fold on the columns a word rewrites
and compares only those with unit vectors.  The fold takes every letter it
is given; each representation hands it its word with the letters that
cancel already removed, by the rule its factors obey (``homs``: a
transvection and its inverse; ``artin``: two equal reflections), so an
image costs by the reduced word.  The dense product and
``inverse`` are the exact reference.  ``is_symplectic`` pairs rows by one
dot product against J's known entries and takes no matrix product;
``homs._transvection_factor`` writes the same pairing as a dot product with
a rearranged class.  Integer-valued entries are stored as ``int`` and only
genuinely fractional entries as ``Fraction``, and no floating point is
involved anywhere.  ``smith_normal_form`` returns only the Smith diagonal,
which is unique; it keeps no unimodular certificate.  One elimination loop
on sparse rows makes it (``_smith_diagonal``), pivoting on the smallest
|entry| in the shortest row that holds it and recording a pivot as soon as
its row and column are clear; gcd/lcm steps over the distinct values then
put the diagonal in divisibility order (``_invariant_factors``).
``smith_normal_form`` feeds it a checked matrix's rows, and
``artin.abelianization`` its relators' exponent rows with no matrix in
between, so H_1 costs by the nonzeros.

Per-entry work runs at C speed where the entries allow it, with the same
results as entry-by-entry code: a row of exact ``int`` entries is stored
as it is after one type check, rows are always tuples so whole rows
compare at once, and an update by a coefficient 1 or -1 (nearly every one
that transvections and reflections make) is a ``map`` of ``operator.add``
or ``operator.sub``.  A Smith pivot 1 or -1, which divides every entry, is
recorded without looking for what it does not divide.

Checked at the boundary, trusted inside: the constructor, ``from_rows``,
products and the JSON reader check every entry; an identity, a fold of
int factors and a placement of rows that a matrix already holds
(``homs``' wreath images) are built unchecked (``_exact_matrix``).
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import operator
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

Scalar = int | Fraction
T = TypeVar("T")


def _trusted(cls: type[T], **fields: object) -> T:
    """``cls(**fields)`` with no ``__init__`` or ``__post_init__``, for a frozen
    dataclass and fields known to be valid; every dict-storage builder's core."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _norm(x: Scalar) -> Scalar:
    """Collapse integer-valued Fractions to int; reject anything inexact."""
    if isinstance(x, bool):
        raise TypeError("matrix entries must be int or Fraction, got bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


SPACE = " \t\n\r"  # the spaces of every text format: ASCII only, as in JSON
WORD = re.compile(f"[^{SPACE}]+")  # a maximal run of anything else


def long_numeral(digits: str) -> str:
    """The text parsers' message for a numeral that ``int`` refuses: one of
    more digits than ``sys.get_int_max_str_digits()``."""
    return f"numeral too long: {len(digits)} digits, the limit is {sys.get_int_max_str_digits()}"


def decimal(text: str) -> int:
    """Parse an ASCII decimal integer, ``-?[0-9]+``, as the CLI's integer
    options take it; ``int`` would also take other scripts' digits, ``_``
    and surrounding spaces.  Anything else raises ValueError."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid decimal integer {text!r}")
    return int(text)


def parse_scalar(text: str) -> Scalar:
    """Parse "p" or "p/q" into an exact scalar: ASCII decimal numerals, a
    "-" allowed only in front of p, as ``format_scalar`` prints them.
    Anything else, a zero denominator included, raises ValueError naming
    the text; a numeral of more digits than ``int`` converts is named by
    its length alone."""
    if isinstance(text, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        parts = []
        for numeral in text.split("/"):
            try:
                parts.append(int(numeral))
            except ValueError:  # more digits than int() converts
                raise ValueError(f"invalid scalar: {long_numeral(numeral.lstrip('-'))}") from None
        if len(parts) == 1 or parts[1]:  # q nonzero
            return _norm(Fraction(*parts))
    raise ValueError(f"invalid scalar {text!r}: expected a string \"p\" or \"p/q\" with q nonzero")


@contextmanager
def json_field(kind: str, field: str) -> Iterator[None]:
    """Raise a missing or malformed JSON field as a ValueError naming it."""
    try:
        yield
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{kind} JSON field {field!r}: {detail}") from None


def json_int(x: object) -> int:
    """A JSON integer as is; a bool, float, str or anything else that is not
    an int raises TypeError instead of being truncated or coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def json_list(x: object, item: type) -> list:
    """A JSON array whose entries are all of type ``item``; a string, an
    object or an array with any other entry raises TypeError instead of
    being iterated as if it were the array."""
    if not isinstance(x, list):
        raise TypeError(f"expected a list, got {type(x).__name__}")
    for v in x:
        if not isinstance(v, item):
            raise TypeError(f"expected a list of {item.__name__}, got entry {v!r}")
    return x


def format_scalar(x: Scalar) -> str:
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix with exact int/Fraction entries, stored as a
    tuple of row tuples.  A row whose entries are all exactly ``int`` (not
    ``bool``, not an int subclass) is kept after a type check at C speed;
    any other row goes through ``_norm`` entry by entry, which collapses
    integral Fractions to int and rejects bool, float and the rest."""

    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        norm_rows = []
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")
            norm_rows.append(tuple(row) if set(map(type, row)) <= {int} else tuple(map(_norm, row)))
        object.__setattr__(self, "entries", tuple(norm_rows))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "ExactMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return ExactMatrix(len(rows), width, tuple(rows))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return _exact_matrix(n, n, _identity_rows(n))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ocols = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = []
        for row in self.entries:
            out.append(tuple(sum(map(operator.mul, row, col)) for col in ocols))
        return ExactMatrix(self.rows, other.cols, tuple(out))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        """Rows are stored as tuples, so this is one comparison with the
        identity's rows, entry by entry at C speed."""
        return self.is_square and self.entries == _identity_rows(self.rows)

    def inverse(self) -> "ExactMatrix":
        """Exact inverse by Gauss-Jordan; raises ValueError when singular."""
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
             for i, row in enumerate(self.entries)]
        for k in range(n):
            pivot = next((i for i in range(k, n) if a[i][k]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            a[k], a[pivot] = a[pivot], a[k]
            inv = 1 / a[k][k]
            a[k] = [x * inv for x in a[k]]
            for i in range(n):
                if i != k and a[i][k]:
                    factor = a[i][k]
                    a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
        return ExactMatrix.from_rows([row[n:] for row in a], cols=n)

    def to_json_obj(self) -> list[list[str]]:
        """Row-major nested lists of exact scalar strings ("p" or "p/q")."""
        return [[format_scalar(x) for x in row] for row in self.entries]

    @staticmethod
    def from_json_obj(obj: Sequence[Sequence[str]]) -> "ExactMatrix":
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError("matrix JSON must be a list of rows, each a list of scalar strings")
        return ExactMatrix.from_rows([[parse_scalar(x) for x in row] for row in obj])

    def __str__(self) -> str:
        if not self.entries:
            return f"<{self.rows}x{self.cols}>"
        cells = [[format_scalar(x) for x in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def _exact_matrix(rows: int, cols: int, entries: tuple[tuple[Scalar, ...], ...]) -> ExactMatrix:
    """``ExactMatrix(rows, cols, entries)``, unchecked, for tuple rows of
    normalized entries: exact ints, and a ``Fraction`` only where the value
    is not an integer, as a checked matrix's rows hold them."""
    return _trusted(ExactMatrix, rows=rows, cols=cols, entries=entries)


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the n x n identity, each a slice of one tuple."""
    unit = (0,) * n + (1,) + (0,) * n
    return tuple(unit[n - i:2 * n - i] for i in range(n))


def _adder(c: int) -> Callable[[int, int], int]:
    """(a, b) -> a + c b, as ``operator.add`` or ``operator.sub`` for c = 1
    or -1, so that mapping it over two rows or columns runs at C speed."""
    if c == 1 or c == -1:
        return operator.add if c == 1 else operator.sub
    return lambda a, b: a + c * b


Terms = Sequence[tuple[int, int]]  # the nonzeros (index, coefficient) of a vector


# letter programs kept by ``_letter_terms``; a genus g image needs at most
# 4g - 2 of them, and an image on E edges at most 2E
_PROGRAMS_MAX = 4096


@functools.lru_cache(maxsize=_PROGRAMS_MAX)
def _letter_terms(u: Terms, d: Terms, s: int) -> tuple[int, int, tuple, int, tuple]:
    """Program (k, x, rest, j, sd) of the letter of sign s of the factor
    I + s u^T d, from the nonzeros of u and d, both nonempty tuples.  One
    memo keyed by that content, at most ``_PROGRAMS_MAX`` programs, serves
    every fold: transvections and reflections alike, at any size.  The program
    forms the combination of x times column k plus c times column k' for
    each term of rest, held as (k', ``_adder(c)``), and leads with a
    coefficient 1 when there is one, so that it starts from the column
    itself.

    When d has one nonzero (j, y), the letter rewrites column j alone, as
    that combination: column k gets s y u_k, and column j gets 1 more; sd is
    empty.  So a reflection, with u -2 at j and 1 at each neighbour, makes
    column j := (sum of the neighbour columns) - column j, all in passes by
    1 and -1.  A combination whose coefficients are all 0 is 0 times column
    j.  Otherwise the combination is R u^T, and column j gains y times it
    for each nonzero (j, y) of d, held in sd as (j, ``_adder(s y)``); a
    leading coefficient -1 of u moves its sign into sd too."""
    if len(d) == 1:
        ((j, y),) = d
        coefficients = {j: 1}
        for k, x in u:
            coefficients[k] = coefficients.get(k, 0) + s * y * x
        terms = [term for term in coefficients.items() if term[1]] or [(j, 0)]
        sd: list = []
    else:
        terms, j, sd = list(u), -1, d
    cs = [c for _, c in terms]
    i = cs.index(1) if 1 in cs else cs.index(-1) if -1 in cs else 0
    (k, x), rest = terms[i], terms[:i] + terms[i + 1:]
    if sd and x == -1:
        rest, x, s = [(k2, -c) for k2, c in rest], 1, -s
    # tuples: a kept program is shared by every later call
    return k, x, tuple([(k2, _adder(c)) for k2, c in rest]), j, tuple([(j2, _adder(s * y)) for j2, y in sd])


def _fold(
    cols: list[Sequence[int]] | dict[int, Sequence[int]],
    factor: Callable[[int], tuple[Terms, Terms]],
    word: Iterable[int],
) -> None:
    """Multiply the columns ``cols`` of a product on the right by the letters
    of ``word`` in order, rewriting them in place (see ``rank_one_product``).
    Each generator's factor is fetched once per call, and each letter's
    program (``_letter_terms``) made once per factor content, shared by every
    representation and call: a factor that changes content, however it is
    made, gets its own program.  A rewritten column is a new list, never one
    changed in place, so columns may share one."""
    factors: dict[int, tuple[Terms, Terms]] = {}
    programs: dict[int, tuple] = {}
    for l in word:
        if l not in programs:
            if abs(l) not in factors:
                factors[abs(l)] = factor(abs(l))
            u, d = factors[abs(l)]
            if not (u and d):  # the identity
                continue
            programs[l] = _letter_terms(tuple(u), tuple(d), 1 if l > 0 else -1)
        k, x, rest, j, d = programs[l]
        ru = cols[k] if x == 1 else [x * b for b in cols[k]]
        for k, add in rest:
            ru = list(map(add, ru, cols[k]))
        if d:
            for j, add in d:
                cols[j] = list(map(add, cols[j], ru))
        else:
            cols[j] = ru


def rank_one_product(
    n: int, factor: Callable[[int], tuple[Terms, Terms]], word: Iterable[int]
) -> ExactMatrix:
    """Product, in word order, of n x n integer factors I + s * u^T d acting
    on row vectors as v -> v + s (v . u) d: letter l gives (u, d) =
    factor(|l|), each as its nonzeros (index, coefficient), fetched once per
    generator, and s = sign(l).  Kept by columns, a factor adds s * d[j] *
    (R u^T) to column j of the product R for each nonzero d[j].

    A letter costs passes over the columns its nonzeros name, never over
    all n (``_letter_terms``): when d has one nonzero, as for every
    reflection and edge transvection, one combination of columns replaces
    column j; otherwise one combination forms R u^T and one pass adds it to
    each column d names.  Transvections and reflections have coefficients
    1 and -1 almost everywhere, and those passes add or subtract at C
    speed."""
    cols = list(_identity_rows(n))  # the identity's columns are its rows
    _fold(cols, factor, word)
    return _exact_matrix(n, n, tuple(zip(*cols)))


class _UnitColumns(dict):
    """Columns of a product that starts from the n x n identity, keeping
    only those assigned: any other column k is read as the unit vector e_k."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n, self.unit = n, (0,) * n + (1,) + (0,) * n

    def __missing__(self, k: int) -> tuple[int, ...]:
        return self.unit[self.n - k:2 * self.n - k]


def rank_one_is_identity(n: int, factor: Callable[[int], tuple[Terms, Terms]], word: Iterable[int]) -> bool:
    """``rank_one_product(n, factor, word).is_identity()``, from the same
    fold kept on the columns the word rewrites: every other column is a
    unit column, and a rewritten column k is e_k when it holds 1 at k and
    n - 1 zeros.  No identity, transpose or ExactMatrix is built."""
    cols = _UnitColumns(n)
    _fold(cols, factor, word)
    return all(col[k] == 1 and col.count(0) == n - 1 for k, col in cols.items())


@dataclass(frozen=True)
class SymplecticForm:
    """Standard symplectic form of genus g on Z^(2g), basis x1,y1,...,xg,yg."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be >= 1")

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def pairing(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
        """<u, v> = u J v^T; antisymmetric, <x_i, y_i> = 1."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vectors must have length {self.dim}")
        total: Scalar = 0
        for i in range(self.genus):
            total += u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
        return _norm(total)


def is_symplectic(m: ExactMatrix, form: SymplecticForm) -> bool:
    """True iff <row_a, row_b> = <e_a, e_b> for all a < b, by one dot
    product each: that is m J m^T = J, whose two sides alternate.  It
    is the same as m^T J m = J, for rational or singular m too: either
    identity makes m invertible (det(m)^2 = 1), and J^-1 = -J turns
    m J m^T = J into m^T = -J m^-1 J, so m^T J m = J; and back on m^T.

    A shape mismatch is a usage bug, not a negative answer.
    """
    if m.rows != form.dim or m.cols != form.dim:
        raise ValueError(f"expected a {form.dim}x{form.dim} matrix, got {m.rows}x{m.cols}")
    n, rows = form.dim, m.entries
    turned = [tuple(x for i in range(0, n, 2) for x in (v[i + 1], -v[i])) for v in rows]  # <u, v> = u . turned v
    return all(
        sum(map(operator.mul, rows[a], turned[b])) == (b == a + 1 and a % 2 == 0)  # <e_a, e_b>: 1 at x_i, y_i
        for a in range(n) for b in range(a + 1, n)
    )


def _smith_diagonal(rows: list[dict[int, int] | None]) -> list[int]:
    """The nonzero Smith diagonal, in divisibility order, of the nonzero
    sparse rows ``rows`` (column -> nonzero entry), eliminated in place; a
    row that becomes zero, or is a recorded pivot's, is set to None.

    Each round pivots on the smallest |entry| left, in the shortest row that
    holds it: a heap keyed (least |entry|, length, row) orders the rows, a
    row that changes is queued again at its new key, and an entry whose row
    no longer has that key is skipped.  The pivot p clears its column modulo
    p from the rows that hold it, found through an index from each column to
    its rows.  A pivot 1 or -1 divides every entry, so column steps then
    clear its row without changing any other, and it is recorded at once.
    Any other pivot leaves a smaller entry to pivot on next when a remainder
    is left in its column, or when its row has an entry p does not divide
    (reduced mod p by column steps); otherwise column steps clear its row,
    and |p| is recorded with no look at the other rows.  The recorded values
    are then a diagonal equivalent to the rows, which ``_invariant_factors``
    puts in divisibility order.  Rows stay sparse throughout, and the
    shortest pivot row brings the least fill-in (Dumas, Saunders and
    Villard, J. Symbolic Comput. 32, 2001)."""
    holding: dict[int, set[int]] = {}  # column -> the rows that hold it
    for r, row in enumerate(rows):
        for c in row:
            holding.setdefault(c, set()).add(r)
    queue = [(min(map(abs, row.values())), len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(queue)
    diag: list[int] = []
    while queue:
        least, size, r = heapq.heappop(queue)
        pivot = rows[r]
        if pivot is None or len(pivot) != size:  # stale: gone, or its length changed
            continue
        c = next((c for c, x in pivot.items() if x == least or x == -least), None)
        if c is None:  # stale: its least |entry| changed
            continue
        p = pivot[c]
        for r2 in holding[c] - {r}:
            row = rows[r2]
            f = row[c] // p
            for c2, x in pivot.items():
                v = row.get(c2, 0) - f * x
                if v:
                    if c2 not in row:
                        holding[c2].add(r2)
                    row[c2] = v
                else:
                    del row[c2]
                    holding[c2].discard(r2)
            if row:
                heapq.heappush(queue, (min(map(abs, row.values())), len(row), r2))
            else:
                rows[r2] = None
        if p != 1 and p != -1:
            if len(holding[c]) > 1:  # a remainder is left in column c
                heapq.heappush(queue, (least, size, r))
                continue
            # Column c is now p at row r alone, so column steps change only row r.
            if any(x % p for x in pivot.values()):
                for c2 in rows[r]:
                    holding[c2].discard(r)
                rows[r] = pivot = {c2: x % p for c2, x in pivot.items() if x % p} | {c: p}
                for c2 in pivot:
                    holding[c2].add(r)
                heapq.heappush(queue, (min(map(abs, pivot.values())), len(pivot), r))
                continue
        diag.append(abs(p))
        rows[r] = None
        for c2 in pivot:
            holding[c2].discard(r)
    return _invariant_factors(diag)


def _invariant_factors(diag: list[int]) -> list[int]:
    """The positive diagonal ``diag`` put in divisibility order.  Two
    distinct values a, b that divide neither way become (gcd, lcm), an
    equivalence of diag(a, b), as many times as both occur; the step keeps
    their product and spreads them apart, so the sum of squared logs grows
    among finitely many diagonals, and the sweeps end in a chain: the Smith
    form, sorted.  Only the distinct non-unit values are compared, with
    their counts, so a repeated factor costs nothing (Newman, *Integral
    Matrices*, Academic Press 1972, ch. II); a unit divides every value and
    stays in front, and a diagonal of units alone, as a graph's H_1 gives,
    is returned as it is."""
    units = diag.count(1)
    if units == len(diag):
        return diag
    counts = collections.Counter(d for d in diag if d != 1)
    steps = True
    while steps:
        steps = False
        for a, b in itertools.combinations(sorted(counts), 2):
            if counts[a] and counts[b] and b % a:
                k, g = min(counts[a], counts[b]), math.gcd(a, b)
                counts[a] -= k
                counts[b] -= k
                counts[g] += k
                counts[a // g * b] += k
                steps = True
        counts = +counts  # drop the values whose count fell to 0
    return [1] * units + sorted(counts.elements())


def smith_normal_form(m: ExactMatrix) -> tuple[int, ...]:
    """Diagonal d1 | d2 | ... of the Smith normal form of an integer matrix:
    min(rows, cols) nonnegative ints, zeros last.  The diagonal is unique,
    so no unimodular certificate is kept.

    The nonzero rows, as sparse rows, go to one elimination loop
    (``_smith_diagonal``), smallest |entry| first, shortest row first among
    equals; a relator matrix of exponent rows is eliminated by unit pivots
    nearly all the way.  Only the nonzeros are type-checked: ``ExactMatrix``
    stores an integral Fraction as an int, so a zero is never fractional.
    """
    columns = range(m.cols)
    rows = [dict(zip(itertools.compress(columns, row), filter(None, row))) for row in m.entries if any(row)]
    if not all(issubclass(t, int) for t in set(map(type, itertools.chain.from_iterable(map(dict.values, rows))))):
        raise ValueError("smith_normal_form requires integer entries")
    diag = _smith_diagonal(rows)
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag))
