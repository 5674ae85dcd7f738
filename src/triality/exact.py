"""Exact rational linear algebra: dense matrices, characteristic polynomials,
kernels, and the rational vectors of the rest of the package. Scalars are
`fractions.Fraction`; no floating point is used anywhere in this package.

A `SquareMatrix` stores integer numerators over one positive denominator,
kept in lowest terms (the gcd of the denominator and all numerators is 1,
so the zero matrix has denominator 1). Equal matrices therefore have equal
representations, and `==` and `hash` compare integers. `integer_rows`
writes rational input in that form; products, sums, scaling, transposes,
traces and the Faddeev-LeVerrier steps of characteristic polynomials run on
the integers, and `lowest_terms` reduces each result once. The `Fraction`
entries (`rows`, indexing) are built on each read and not stored. JSON is
read (`read_integer_rows`) and written (`format_numerators`) on the integers
too.

`RationalVector` is the same form for a fixed-length vector, the one core
of so(8) elements and octonions; its `Fraction` view is `coeffs`.

One fraction-free Gauss-Jordan elimination on integer rows, `rref`, serves
every elimination: determinants, kernels, ranks and `SpanSolver`'s span
membership and coordinates. Kernels stay integers: `kernel_basis_of_rows`
takes integer rows and returns primitive integer vectors. `SpanSolver`
coordinates become `Fraction`s only at its API. All results are exact,
which is what the rest of the toolkit relies on: every downstream check is
an identity, never a tolerance.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConsistencyError(RuntimeError):
    """An internal invariant failed; signals a construction bug, not bad input."""


def format_rational(value: Rational) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" when q == 1."""
    return str(Fraction(value))


# exactly the strings `format_rational` emits: no sign on zero, no leading
# zeros, and a denominator only when it is not 1
_RATIONAL_STRING = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def read_ratio(value: object) -> tuple[int, int]:
    """A JSON input entry as integers (p, q): a string "p/q" or "p" of ASCII
    digits in the canonical form `format_rational` writes, with q > 1 and
    gcd(p, q) == 1 in the first. Anything else raises ValueError: JSON
    numbers, spaces, decimals, exponents, leading zeros, "-0" and "p/1"."""
    match = _RATIONAL_STRING.fullmatch(value) if isinstance(value, str) else None
    if match and match[2] != "1":
        p, q = int(match[1]), int(match[2] or 1)
        if gcd(p, q) == 1:
            return p, q
    raise ValueError(f'{value!r} is not a rational string "p/q" or "p" in lowest terms')


def read_integer_rows(rows: Iterable[Iterable[object]]) -> tuple[list[list[int]], int]:
    """JSON input entries read by `read_ratio`, as (numerators, den) with den
    the lcm of the q's; in lowest terms for the reason given in `integer_rows`."""
    ratios = [[read_ratio(x) for x in row] for row in rows]
    den = lcm(*(q for row in ratios for _, q in row))
    return [[p * (den // q) for p, q in row] for row in ratios], den


def is_square_table(rows: object, n: Optional[int] = None) -> bool:
    """Whether `rows` is a JSON array of n arrays of n entries, n >= 1; n
    defaults to the number of rows."""
    if not isinstance(rows, list) or not rows:
        return False
    n = len(rows) if n is None else n
    return len(rows) == n and all(isinstance(row, list) and len(row) == n for row in rows)


def format_numerators(numerators: Iterable[int], den: int) -> list[str]:
    """`format_rational(n / den)` for each n, with one gcd per entry and no
    `Fraction`."""
    out = []
    for n in numerators:
        g = gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return out


class RationalVector:
    """Immutable vector of LENGTH rationals: `numerators` (a tuple of
    integers) over `denominator`, in lowest terms; `coeffs` is the
    `Fraction` view, built on each read.

    A subclass sets LENGTH and NOUN, the plural its length error names.
    Results of arithmetic have the type of the left operand.
    """

    __slots__ = ("numerators", "denominator")

    LENGTH: int
    NOUN: str

    def __init__(self, coeffs: Iterable[Rational]):
        (num,), den = integer_rows([[Fraction(c) for c in coeffs]])
        self._assign(num, den)

    @classmethod
    def from_integers(cls, numerators: Iterable[int], den: int) -> "RationalVector":
        """The vector numerators[k] / den, reduced to lowest terms."""
        v = cls.__new__(cls)
        v._assign(numerators, den)
        return v

    def _assign(self, numerators: Iterable[int], den: int) -> None:
        (num,), den = lowest_terms((tuple(numerators),), den)
        if len(num) != self.LENGTH:
            raise ValueError(f"{self.NOUN} have {self.LENGTH} coefficients, got {len(num)}")
        self.numerators: tuple[int, ...] = num
        self.denominator = den

    @classmethod
    def _from_json_list(cls, values: object, what: str) -> "RationalVector":
        """Read `values`, which must be a JSON list of LENGTH rational strings
        in the format `read_ratio` accepts; `what` names it in the error."""
        if not isinstance(values, list) or len(values) != cls.LENGTH:
            raise ValueError(f"{what} must be a list of {cls.LENGTH} rational strings")
        (num,), den = read_integer_rows([values])
        return cls.from_integers(num, den)

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """The coefficients as `Fraction`s, built on each read."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.denominator == other.denominator and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __add__(self, other: "RationalVector") -> "RationalVector":
        return self._combine(other, add)

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        return self._combine(other, sub)

    def _combine(self, other: "RationalVector", op) -> "RationalVector":
        den = lcm(self.denominator, other.denominator)
        fa = den // self.denominator
        fb = den // other.denominator
        return self.from_integers(
            [op(a * fa, b * fb) for a, b in zip(self.numerators, other.numerators)], den)

    def __neg__(self) -> "RationalVector":
        return self.from_integers([-a for a in self.numerators], self.denominator)

    def scale(self, factor: Rational) -> "RationalVector":
        f = Fraction(factor)
        return self.from_integers([f.numerator * a for a in self.numerators],
                                  f.denominator * self.denominator)


class SquareMatrix:
    """Immutable dense square matrix of rationals: `numerators` (a tuple of
    integer rows) over `denominator`, in lowest terms; `rows` is the
    `Fraction` view, built on each read.

    Sized for this toolkit: 4x4 transformation blocks, 8x8 antisymmetric
    matrices, and the 28x28 action on so(8) coefficients.
    """

    __slots__ = ("dim", "numerators", "denominator")

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        self._assign(*integer_rows([[Fraction(x) for x in row] for row in rows]))

    @classmethod
    def from_integers(cls, numerators: Iterable[Iterable[int]], den: int) -> "SquareMatrix":
        """The matrix numerators[i][j] / den, reduced to lowest terms."""
        m = cls.__new__(cls)
        m._assign(numerators, den)
        return m

    def _assign(self, numerators: Iterable[Iterable[int]], den: int) -> None:
        num, den = lowest_terms(tuple(map(tuple, numerators)), den)
        n = len(num)
        if n == 0 or any(len(row) != n for row in num):
            raise ValueError("matrix must be square and non-empty")
        self.dim = n
        self.numerators: tuple[tuple[int, ...], ...] = num
        self.denominator = den

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls.from_integers([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zero(cls, n: int) -> "SquareMatrix":
        return cls.from_integers([[0] * n for _ in range(n)], 1)

    @classmethod
    def diagonal(cls, entries: Sequence[Rational]) -> "SquareMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[tuple[Rational, ...], ...]:
        """The entries as `Fraction`s, built on each read."""
        return tuple(map(self.__getitem__, range(self.dim)))

    def __getitem__(self, i: int) -> tuple[Rational, ...]:
        """Row i as `Fraction`s."""
        den = self.denominator
        return tuple(Fraction(x, den) for x in self.numerators[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.denominator == other.denominator and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __repr__(self) -> str:
        return f"SquareMatrix({[list(map(str, row)) for row in self.rows]})"

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._combine(other, sub)

    def _combine(self, other: "SquareMatrix", op) -> "SquareMatrix":
        self._check_dim(other)
        den = lcm(self.denominator, other.denominator)
        fa = den // self.denominator
        fb = den // other.denominator
        return SquareMatrix.from_integers(
            (tuple(op(x * fa, y * fb) for x, y in zip(ra, rb))
             for ra, rb in zip(self.numerators, other.numerators)), den)

    def __neg__(self) -> "SquareMatrix":
        return SquareMatrix.from_integers((tuple(-x for x in row) for row in self.numerators),
                                          self.denominator)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_dim(other)
        cols = tuple(zip(*other.numerators))
        return SquareMatrix.from_integers(
            (tuple(sum(map(mul, row, col)) for col in cols) for row in self.numerators),
            self.denominator * other.denominator)

    def _check_dim(self, other: "SquareMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def scale(self, factor: Rational) -> "SquareMatrix":
        f = Fraction(factor)
        return SquareMatrix.from_integers(
            (tuple(f.numerator * x for x in row) for row in self.numerators),
            f.denominator * self.denominator)

    def power(self, k: int) -> "SquareMatrix":
        """k-th power by repeated exact multiplication; the 0-th power is I."""
        if k < 0 or k != int(k):
            raise ValueError("exponent must be a non-negative integer")
        result = SquareMatrix.identity(self.dim)
        for _ in range(int(k)):
            result = result * self
        return result

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix.from_integers(zip(*self.numerators), self.denominator)

    def trace(self) -> Rational:
        return Fraction(sum(self.numerators[i][i] for i in range(self.dim)), self.denominator)

    def product_trace(self, other: "SquareMatrix") -> Rational:
        """Tr(self * other) = sum_ij self[i][j] * other[j][i], without forming the product."""
        self._check_dim(other)
        total = sum(map(mul, chain.from_iterable(self.numerators),
                        chain.from_iterable(zip(*other.numerators))))
        return Fraction(total, self.denominator * other.denominator)

    def apply(self, vector: Sequence[Rational]) -> tuple[Rational, ...]:
        if len(vector) != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {len(vector)}")
        (vec,), vden = integer_rows([[Fraction(v) for v in vector]])
        nz = [(j, v) for j, v in enumerate(vec) if v]
        den = self.denominator * vden
        return tuple(Fraction(sum(row[j] * v for j, v in nz), den) for row in self.numerators)

    def is_antisymmetric(self) -> bool:
        num = self.numerators
        return all(num[i][j] == -num[j][i] for i in range(self.dim) for j in range(i, self.dim))

    def determinant(self) -> Rational:
        """Exact determinant via fraction-free elimination of the integer
        numerators N over den: det(N / den) = det(N) / den^n."""
        _, pivots, d, sign = rref(list(self.numerators))
        det = sign * d if len(pivots) == self.dim else 0
        return Fraction(det, self.denominator ** self.dim)

    def char_poly(self) -> tuple[Rational, ...]:
        """Characteristic polynomial det(self - x*I), exact, as its n + 1
        coefficients: entry k is the coefficient of x^k.

        Computed with the Faddeev-LeVerrier recursion; the divisions it
        performs are exact over the rationals.
        """
        n = self.dim
        cs: list[Rational] = []
        mk = SquareMatrix.identity(n)
        for k in range(1, n + 1):
            nk = self * mk
            ck = -nk.trace() / k
            cs.append(ck)
            if k < n:
                # mk = nk + ck*I, over the common denominator of nk and ck
                q = ck.denominator
                shift = ck.numerator * nk.denominator
                mk = SquareMatrix.from_integers(
                    (tuple(x * q + shift if i == j else x * q for j, x in enumerate(row))
                     for i, row in enumerate(nk.numerators)), nk.denominator * q)
        # det(x*I - A) = x^n + c1 x^(n-1) + ... + cn; flip by (-1)^n for det(A - x*I)
        sign = _ONE if n % 2 == 0 else -_ONE
        coeffs = [_ZERO] * (n + 1)
        coeffs[n] = sign
        for k, ck in enumerate(cs, start=1):
            coeffs[n - k] = sign * ck
        return tuple(coeffs)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Primitive integer basis of the exact null space; empty iff invertible."""
        return kernel_basis_of_rows(self.numerators, self.dim)

    def to_json(self) -> list[list[str]]:
        return [format_numerators(row, self.denominator) for row in self.numerators]

    @classmethod
    def from_json(cls, rows: Sequence[Sequence[str]]) -> "SquareMatrix":
        """Read a JSON array of n arrays of n rational strings (see `read_ratio`)."""
        if not is_square_table(rows):
            raise ValueError("a matrix must be an n x n array of rational strings")
        return cls.from_integers(*read_integer_rows(rows))


def integer_rows(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[int]], int]:
    """(numerators, den) with den > 0 the lcm of all denominators, so that
    rows[i][j] == numerators[i][j] / den. For entries in lowest terms the
    result is in lowest terms too: each prime of den divides the denominator
    of some entry to its full power, and that entry's numerator is prime to it."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def lowest_terms(rows: tuple[tuple[int, ...], ...], den: int
                 ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, den) divided by the gcd of den and every entry, so that equal
    rational values have equal integer forms; all-zero rows get den 1."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    g = gcd(den, *chain.from_iterable(rows))
    if g == 1:
        return rows, den
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def rref(rows: list[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in place.

    Returns (rows, pivots, d, sign): the first len(pivots) rows are d times
    the reduced row echelon form and the other rows are zero; d is the last
    pivot (1 when there is none) and sign the parity of the row swaps, so a
    square matrix of full rank has determinant sign * d. Each step replaces
    every other row by (row * pivot - f * lead) // prev; after it, every
    entry is a minor of the input, so the division is exact (Bareiss, Math.
    Comp. 22, 1968).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    prev = sign = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        lead = rows[r]
        piv = lead[c]
        for i in range(n_rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(x * piv - f * y) // prev for x, y in zip(rows[i], lead)]
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots, prev, sign


def kernel_basis_of_rows(rows: Sequence[Sequence[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Kernel basis of the linear map given by the integer `rows`, one vector
    per free column: d in that column and minus the reduced column in the
    pivot columns, scaled to coprime integers with first nonzero entry > 0.
    Rational rows go through `integer_rows` first; other entries raise
    TypeError, since the elimination's exact divisions need integers."""
    rows = list(rows)
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("kernel_basis_of_rows needs integer entries")
    reduced, pivots, d, _ = rref(rows)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        v = [0] * n_cols
        v[free] = d
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append(tuple(x // g for x in v))
    return basis


class SpanSolver:
    """Expresses vectors in the span of a fixed independent family, exactly.

    Eliminates [columns | I] once, on integers: the first dim rows of the
    identity part are a scaled left inverse of the column matrix, and the
    remaining rows an annihilator whose kernel is exactly the span. Repeated
    membership queries (bracket-closure checks, adjoint representations)
    then cost two sparse integer products each.
    """

    def __init__(self, columns: Sequence[Sequence[Rational]]):
        if not columns:
            raise ValueError("need at least one column")
        self.n_rows = len(columns[0])
        if any(len(col) != self.n_rows for col in columns):
            raise ValueError("columns must have equal length")
        self.dim = d = len(columns)
        cols, self._den = integer_rows([[Fraction(x) for x in col] for col in columns])
        aug = [[col[r] for col in cols] + [1 if k == r else 0 for k in range(self.n_rows)]
               for r in range(self.n_rows)]
        reduced, pivots, self._scale, _ = rref(aug)
        if pivots[:d] != list(range(d)):
            raise ValueError("columns are linearly dependent")
        # with cols = den * columns: left_inverse * cols = scale * I and
        # annihilator * cols = 0, the annihilator having full row rank
        self._left_inverse = [row[d:] for row in reduced[:d]]
        self._annihilator = [row[d:] for row in reduced[d:]]

    def coords(self, vector: Sequence[Rational]) -> Optional[tuple[Rational, ...]]:
        """Coordinates of `vector` in the span, or None if it lies outside."""
        if len(vector) != self.n_rows:
            raise ValueError("dimension mismatch")
        (vec,), vden = integer_rows([[Fraction(x) for x in vector]])
        nz = [(j, v) for j, v in enumerate(vec) if v]
        if any(sum(row[j] * v for j, v in nz) for row in self._annihilator):
            return None
        den = self._scale * vden
        return tuple(Fraction(self._den * sum(row[j] * v for j, v in nz), den)
                     for row in self._left_inverse)
