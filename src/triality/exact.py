"""Exact rational linear algebra: dense matrices, characteristic polynomials,
kernels. Scalars are `fractions.Fraction`; no floating point is used
anywhere in this package.

A `SquareMatrix` stores integer numerators over one positive denominator,
kept in lowest terms (the gcd of the denominator and all numerators is 1,
so the zero matrix has denominator 1). Equal matrices therefore have equal
representations, and `==` and `hash` compare integers. `integer_rows`
writes rational input in that form; products, sums, scaling, transposes,
traces, fraction-free Bareiss determinants and the Faddeev-LeVerrier steps
of characteristic polynomials run on the integers, and `lowest_terms`
reduces each result once. The `Fraction` entries (`rows`, indexing) are a
view built on first read. Null spaces come from exact reduced row echelon
form on `Fraction`s. All results are exact, which is what the rest of the
toolkit relies on: every downstream check is an identity, never a
tolerance.
"""

from __future__ import annotations

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


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p"; raises ValueError on anything else."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


class Polynomial:
    """Univariate polynomial over the rationals, coefficients indexed by degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Rational]):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Rational, ...] = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Rational:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return _ZERO

    def __call__(self, x: Rational) -> Rational:
        acc = _ZERO
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"


class SquareMatrix:
    """Immutable dense square matrix of rationals: `numerators` (a tuple of
    integer rows) over `denominator`, in lowest terms; `rows` is the
    `Fraction` view.

    Sized for this toolkit: 4x4 transformation blocks, 8x8 antisymmetric
    matrices, and the 28x28 action on so(8) coefficients.
    """

    __slots__ = ("dim", "numerators", "denominator", "_rows")

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
        self._rows: Optional[tuple[tuple[Rational, ...], ...]] = None

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
        """The entries as `Fraction`s, built on first read."""
        if self._rows is None:
            den = self.denominator
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in self.numerators)
        return self._rows

    def __getitem__(self, i: int) -> tuple[Rational, ...]:
        return self.rows[i]

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
        """Exact determinant via fraction-free Bareiss elimination on the
        integer numerators N over den: det(N / den) = det(N) / den^n."""
        det = _bareiss_determinant([list(row) for row in self.numerators])
        return Fraction(det, self.denominator ** self.dim)

    def char_poly(self) -> Polynomial:
        """Characteristic polynomial det(self - x*I), exact.

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
        return Polynomial(coeffs)

    def kernel_basis(self) -> list[tuple[Rational, ...]]:
        """Basis of the exact null space; empty list iff the matrix is invertible."""
        return kernel_basis_of_rows([list(row) for row in self.rows], self.dim)

    def to_json(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, rows: Sequence[Sequence[str]]) -> "SquareMatrix":
        return cls([[parse_rational(x) for x in row] for row in rows])


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


def _bareiss_determinant(a: list[list[int]]) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rref(rows: list[list[Rational]]) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form (in place on the given copy) and pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def kernel_basis_of_rows(rows: list[list[Rational]], n_cols: int) -> list[tuple[Rational, ...]]:
    """Kernel basis of the linear map given by `rows`, one vector per free column."""
    reduced, pivots = rref([list(r) for r in rows])
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * n_cols
        v[free] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(tuple(v))
    return basis


def primitive_integer_vector(vector: Sequence[Rational]) -> tuple[Rational, ...]:
    """Rescale a nonzero rational vector to coprime integers, first nonzero > 0."""
    (scaled,), _ = integer_rows([vector])
    g = gcd(*scaled)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    scaled = [x // g for x in scaled]
    lead = next(x for x in scaled if x != 0)
    if lead < 0:
        scaled = [-x for x in scaled]
    return tuple(Fraction(x) for x in scaled)


class SpanSolver:
    """Expresses vectors in the span of a fixed independent family, exactly.

    Precomputes a left inverse of the column matrix once, so repeated
    membership queries (bracket-closure checks, adjoint representations)
    cost one small matrix-vector product each.
    """

    def __init__(self, columns: Sequence[Sequence[Rational]]):
        if not columns:
            raise ValueError("need at least one column")
        self.columns = [tuple(Fraction(x) for x in col) for col in columns]
        self.n_rows = len(self.columns[0])
        d = len(self.columns)
        if any(len(col) != self.n_rows for col in self.columns):
            raise ValueError("columns must have equal length")
        aug = [[self.columns[c][r] for c in range(d)]
               + [_ONE if k == r else _ZERO for k in range(self.n_rows)]
               for r in range(self.n_rows)]
        reduced, pivots = rref(aug)
        if pivots[:d] != list(range(d)):
            raise ValueError("columns are linearly dependent")
        # rows 0..d-1 of the elimination record form a left inverse
        self._left_inverse = [tuple(reduced[r][d:]) for r in range(d)]

    @property
    def dim(self) -> int:
        return len(self.columns)

    def coords(self, vector: Sequence[Rational]) -> Optional[tuple[Rational, ...]]:
        """Coordinates of `vector` in the span, or None if it lies outside."""
        if len(vector) != self.n_rows:
            raise ValueError("dimension mismatch")
        vec = [Fraction(x) for x in vector]
        nz = [(j, v) for j, v in enumerate(vec) if v != 0]
        x = tuple(sum((row[j] * v for j, v in nz), _ZERO) for row in self._left_inverse)
        for r in range(self.n_rows):
            recon = sum((self.columns[c][r] * x[c] for c in range(len(x)) if x[c] != 0),
                        _ZERO)
            if recon != vec[r]:
                return None
        return x
