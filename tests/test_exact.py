import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import NON_CANONICAL_ENTRIES
from triality.exact import (SpanSolver, SquareMatrix, format_rational, integer_rows,
                            kernel_basis_of_rows, read_ratio)
from triality.invariants import pfaffian_matchings, pfaffian_permutation_sum
from triality.so8 import DIMENSION, So8Element

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)

# numerators and denominators drawn independently, so the entries of one
# matrix have unrelated denominators and the common denominator grows large
entries = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))


@st.composite
def square_matrices(draw, max_n=5, count=1):
    """`count` n x n matrices of one random size n <= max_n; some rows are zero."""
    n = draw(st.integers(1, max_n))
    row = st.lists(entries, min_size=n, max_size=n) | st.just([Fraction(0)] * n)
    return [SquareMatrix(draw(st.lists(row, min_size=n, max_size=n)))
            for _ in range(count)]


class TestRationals:
    @given(a=rationals, b=rationals, c=rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1

    @given(a=rationals)
    def test_string_roundtrip(self, a):
        text = format_rational(a)
        assert Fraction(*read_ratio(text)) == a
        # canonical: lowest terms, no spaces, denominator omitted when 1
        assert " " not in text
        if a.denominator == 1:
            assert "/" not in text

    def test_read_accepts_canonical_strings(self):
        assert read_ratio("-3/7") == (-3, 7)
        assert read_ratio("0") == (0, 1)
        assert read_ratio("12") == (12, 1)

    @given(a=rationals)
    def test_read_accepts_every_formatted_string(self, a):
        assert read_ratio(format_rational(a)) == (a.numerator, a.denominator)

    @given(text=st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,4})?", fullmatch=True)
           | st.text(alphabet="-/0123456789 .e", max_size=8))
    def test_read_is_the_inverse_of_format(self, text):
        try:
            value = Fraction(*read_ratio(text))
        except ValueError:
            return
        assert format_rational(value) == text

    @pytest.mark.parametrize("entry", NON_CANONICAL_ENTRIES)
    def test_read_rejects_non_canonical_forms(self, entry):
        with pytest.raises(ValueError, match="lowest terms"):
            read_ratio(entry)

    @pytest.mark.parametrize("entry", NON_CANONICAL_ENTRIES)
    def test_matrix_from_json_rejects_non_canonical_forms(self, entry):
        assert SquareMatrix.from_json([["0", "1/2"], ["-1/2", "0"]]) == \
            SquareMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        with pytest.raises(ValueError, match="lowest terms"):
            SquareMatrix.from_json([["0", entry], ["-1/2", "0"]])


    @pytest.mark.parametrize("rows", [
        ["12", "34"],                    # string rows
        {"a": "1"},                      # not an array
        [["1", "2"], ["3"]],             # ragged
        [["1", "2"], ["3", "4"], ["5", "6"]],  # not square
        [],
    ])
    def test_matrix_from_json_needs_n_arrays_of_n(self, rows):
        with pytest.raises(ValueError, match="n x n array"):
            SquareMatrix.from_json(rows)


class TestMatrixBasics:
    def test_identity_multiplication(self):
        rng = random.Random(0)
        a = SquareMatrix([[Fraction(rng.randint(-9, 9)) for _ in range(5)]
                          for _ in range(5)])
        assert SquareMatrix.identity(5) * a == a
        assert a * SquareMatrix.identity(5) == a

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SquareMatrix.identity(3) * SquareMatrix.identity(4)
        with pytest.raises(ValueError):
            SquareMatrix([[1, 2], [3, 4], [5, 6]])

    def test_power(self):
        a = SquareMatrix([[0, 3], [-3, 0]])
        assert a.power(0) == SquareMatrix.identity(2)
        assert a.power(1) == a
        assert a.power(2) == SquareMatrix.diagonal([-9, -9])
        with pytest.raises(ValueError):
            a.power(-1)

    def test_trace(self):
        assert SquareMatrix.identity(8).trace() == 8
        anti = SquareMatrix([[0, 5], [-5, 0]])
        assert anti.trace() == 0
        # block-diagonal squares trace to -2 * sum of squared parameters
        lams = [1, 2, 3, 4]
        rows = [[Fraction(0)] * 8 for _ in range(8)]
        for t, lam in enumerate(lams):
            rows[2 * t][2 * t + 1] = Fraction(lam)
            rows[2 * t + 1][2 * t] = Fraction(-lam)
        block = SquareMatrix(rows)
        assert block.power(2).trace() == -2 * sum(l * l for l in lams)


class TestDeterminant:
    def test_identity(self):
        assert SquareMatrix.identity(8).determinant() == 1

    def test_singular(self):
        a = SquareMatrix([[1, 2, 3], [1, 2, 3], [0, 1, 4]])
        assert a.determinant() == 0

    def test_multiplicative_on_random_samples(self):
        rng = random.Random(5)
        for _ in range(50):
            a = SquareMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                               for _ in range(8)] for _ in range(8)])
            b = SquareMatrix([[Fraction(rng.randint(-9, 9)) for _ in range(8)]
                              for _ in range(8)])
            assert (a * b).determinant() == a.determinant() * b.determinant()


def evaluate(coefficients, x):
    """The polynomial with coefficients[k] the coefficient of x^k, at x (Horner)."""
    return functools.reduce(lambda acc, c: acc * x + c, reversed(coefficients), Fraction(0))


class TestCharPoly:
    def test_zero_matrix(self):
        cp = SquareMatrix.zero(8).char_poly()
        assert cp == (0, 0, 0, 0, 0, 0, 0, 0, 1)

    def test_identity_two(self):
        # det(I - x I) = (1 - x)^2
        cp = SquareMatrix.identity(2).char_poly()
        assert cp == (1, -2, 1)
        assert all(type(c) is Fraction for c in cp)

    def test_block_spectrum(self):
        # det(B - x I) = prod(x^2 + l^2) for the antisymmetric block model;
        # elementary symmetric functions of (1, 4, 9, 16) expanded by hand
        lams = [1, 2, 3, 4]
        rows = [[Fraction(0)] * 8 for _ in range(8)]
        for t, lam in enumerate(lams):
            rows[2 * t][2 * t + 1] = Fraction(lam)
            rows[2 * t + 1][2 * t] = Fraction(-lam)
        cp = SquareMatrix(rows).char_poly()
        assert cp == (576, 0, 820, 0, 273, 0, 30, 0, 1)

    def test_agrees_with_determinant_route(self):
        rng = random.Random(11)
        for _ in range(10):
            a = SquareMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(6)]
                              for _ in range(6)])
            r = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            shifted = a - SquareMatrix.identity(6).scale(r)
            assert evaluate(a.char_poly(), r) == shifted.determinant()

    def test_rational_roots_match_kernels(self):
        a = SquareMatrix([[2, 1, 0], [0, 3, 0], [0, 0, 2]])
        cp = a.char_poly()
        for r in (Fraction(2), Fraction(3)):
            assert evaluate(cp, r) == 0
            assert (a - SquareMatrix.identity(3).scale(r)).kernel_basis()
        for r in (Fraction(5), Fraction(1, 2)):
            assert evaluate(cp, r) != 0
            assert not (a - SquareMatrix.identity(3).scale(r)).kernel_basis()


class TestKernel:
    def test_invertible_has_empty_kernel(self):
        assert SquareMatrix.identity(6).kernel_basis() == []

    def test_zero_matrix_kernel(self):
        basis = SquareMatrix.zero(4).kernel_basis()
        assert len(basis) == 4

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        # rank <= 3 by construction, so the kernel has dimension >= 5
        left = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(8)]
        right = [[Fraction(rng.randint(-4, 4)) for _ in range(8)] for _ in range(3)]
        prod = SquareMatrix([[sum(left[i][k] * right[k][j] for k in range(3))
                              for j in range(8)] for i in range(8)])
        basis = prod.kernel_basis()
        assert len(basis) >= 5
        for v in basis:
            assert all(x == 0 for x in prod.apply(v))


class TestSpanSolver:
    def test_coords_roundtrip(self):
        cols = [(1, 0, 2, 0), (0, 1, 1, 1)]
        solver = SpanSolver(cols)
        combo = [Fraction(3), Fraction(-2), Fraction(4), Fraction(-2)]
        assert solver.coords(combo) == (3, -2)

    def test_outside_span(self):
        solver = SpanSolver([(1, 0, 0), (0, 1, 0)])
        assert solver.coords((0, 0, 1)) is None

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            SpanSolver([(1, 2), (2, 4)])


def _fraction_rank(rows):
    """Rank by Gaussian elimination on Fraction entries, the definition the
    integer elimination is checked against."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_products(draw):
    """An m x n product L * R with an inner dimension k < n, so rank <= k < n."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(m)]


@st.composite
def span_problems(draw):
    """d < n independent columns of length n with non-integer entries, and
    rational coefficients for a combination of them."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, n - 1))
    cols = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=d, max_size=d))
    assume(any(x.denominator > 1 for col in cols for x in col))
    assume(_fraction_rank(cols) == d)
    return cols, draw(st.lists(entries, min_size=d, max_size=d))


class TestIntegerElimination:
    """Kernels and span membership come from one fraction-free elimination on
    integers; each is checked against the Fraction definition."""

    @given(rows=low_rank_products())
    def test_kernel_of_rank_deficient_rows(self, rows):
        n = len(rows[0])
        basis = kernel_basis_of_rows(integer_rows(rows)[0], n)
        assert len(basis) + _fraction_rank(rows) == n
        for v in basis:
            assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0 for row in rows)
            # primitive integer vectors, first nonzero entry positive
            assert all(type(x) is int for x in v)
            assert math.gcd(*v) == 1 and next(x for x in v if x) > 0
        # one vector per free column, ending there: triangular, so independent
        last = [max(j for j, x in enumerate(v) if x != 0) for v in basis]
        assert len(set(last)) == len(basis)

    @given(problem=span_problems())
    def test_span_solver_on_rational_columns(self, problem):
        cols, coeffs = problem
        n, d = len(cols[0]), len(cols)
        solver = SpanSolver(cols)
        assert solver.dim == d
        combo = [sum((c * col[r] for c, col in zip(coeffs, cols)), Fraction(0))
                 for r in range(n)]
        assert solver.coords(combo) == tuple(coeffs)
        outside = 0
        for j in range(n):
            shifted = list(combo)
            shifted[j] += 1
            if _fraction_rank(cols + [shifted]) > d:
                outside += 1
                assert solver.coords(shifted) is None
            else:
                x = solver.coords(shifted)
                assert [sum((c * col[r] for c, col in zip(x, cols)), Fraction(0))
                         for r in range(n)] == shifted
        assert outside > 0


class TestPrimitiveVector:
    """Kernel vectors come as coprime integers with first nonzero entry > 0."""

    def test_scaling(self):
        # the kernel of these rows is spanned by (-1/2, 0, 3/4)
        rows = [[3, 0, 2], [0, 1, 0]]
        assert kernel_basis_of_rows(rows, 3) == [(2, 0, -3)]
        assert kernel_basis_of_rows([[-3, 0, -2], [0, -5, 0]], 3) == [(2, 0, -3)]

    def test_kernel_rows_helper(self):
        basis = kernel_basis_of_rows([[1, 1, 0]], 3)
        assert basis == [(1, -1, 0), (0, 0, 1)]

    def test_rational_rows_rejected(self):
        # the elimination's exact divisions would floor a Fraction silently
        with pytest.raises(TypeError):
            kernel_basis_of_rows([[Fraction(1, 2), Fraction(1, 3), 0]], 3)


def _permutation_sign(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


class TestIntegerForm:
    """Products, determinants and the permutation-sum Pfaffian run on integer
    numerators over one common denominator; each is checked here against its
    definition on the Fraction entries."""

    @given(mats=square_matrices())
    def test_integer_rows_reproduce_entries(self, mats):
        (a,) = mats
        rows, den = integer_rows(a.rows)
        assert den > 0
        assert [[Fraction(x, den) for x in row] for row in rows] == [list(r) for r in a.rows]

    @given(mats=square_matrices())
    def test_json_roundtrip_and_writer_matches_fraction_view(self, mats):
        (a,) = mats
        assert a.to_json() == [[format_rational(x) for x in row] for row in a.rows]
        back = SquareMatrix.from_json(a.to_json())
        assert (back.numerators, back.denominator) == (a.numerators, a.denominator)

    @given(mats=square_matrices(count=2))
    def test_product_matches_entrywise_sum(self, mats):
        a, b = mats
        n = a.dim
        expected = [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                     for j in range(n)] for i in range(n)]
        assert (a * b).rows == tuple(tuple(row) for row in expected)

    @given(mats=square_matrices(max_n=4))
    def test_determinant_matches_leibniz_sum(self, mats):
        (a,) = mats
        n = a.dim
        leibniz = Fraction(0)
        for perm in itertools.permutations(range(n)):
            term = Fraction(_permutation_sign(perm))
            for i, j in enumerate(perm):
                term *= a[i][j]
            leibniz += term
        assert a.determinant() == leibniz

    @settings(max_examples=40)
    @given(coeffs=st.lists(entries | st.just(Fraction(0)),
                           min_size=DIMENSION, max_size=DIMENSION))
    def test_permutation_sum_pfaffian_matches_matchings(self, coeffs):
        m = So8Element(coeffs)
        assert pfaffian_permutation_sum(m) == pfaffian_matchings(m)


def _is_canonical(m: SquareMatrix) -> bool:
    """Positive denominator and gcd(den, all numerators) == 1; the zero
    matrix therefore has denominator 1."""
    flat = [x for row in m.numerators for x in row]
    return m.denominator > 0 and math.gcd(m.denominator, *flat) == 1


def _entrywise(a, b, op):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]


class TestCanonicalForm:
    """A matrix is stored as integer numerators over one positive
    denominator in lowest terms, so equal values have equal representations;
    every operation must leave its result in that form."""

    def test_from_integers_is_canonical(self):
        half = SquareMatrix([[Fraction(1, 2)]])
        for same in (SquareMatrix([[Fraction(2, 4)]]), SquareMatrix([["3/6"]]),
                     SquareMatrix.from_integers([[2]], 4), SquareMatrix.from_integers([[3]], 6)):
            assert same == half
            assert hash(same) == hash(half)
            assert same.numerators == ((1,),) and same.denominator == 2
        zero = SquareMatrix.from_integers([[0, 0], [0, 0]], 12)
        assert zero.denominator == 1
        assert zero == SquareMatrix.zero(2) and hash(zero) == hash(SquareMatrix.zero(2))
        for den in (0, -2):
            with pytest.raises(ValueError):
                SquareMatrix.from_integers([[1]], den)

    @given(mats=square_matrices(count=2), factor=entries)
    def test_operations_match_entrywise_fractions(self, mats, factor):
        a, b = mats
        n = a.dim
        vector = [a[0][j] for j in range(n)]
        cases = [
            (a + b, _entrywise(a, b, lambda x, y: x + y)),
            (a - b, _entrywise(a, b, lambda x, y: x - y)),
            (a - a, [[Fraction(0)] * n for _ in range(n)]),
            (-a, [[-x for x in row] for row in a.rows]),
            (a * b, [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                      for j in range(n)] for i in range(n)]),
            (a.scale(factor), [[factor * x for x in row] for row in a.rows]),
            (a.scale(0), [[Fraction(0)] * n for _ in range(n)]),
            (a.transpose(), [[a[j][i] for j in range(n)] for i in range(n)]),
        ]
        for got, expected in cases:
            assert _is_canonical(got)
            assert got.rows == tuple(tuple(row) for row in expected)
            assert all(type(x) is Fraction for row in got.rows for x in row)
            # built from the Fraction entries, the same value has the same form
            same = SquareMatrix(expected)
            assert got == same and hash(got) == hash(same)
            assert (got.numerators, got.denominator) == (same.numerators, same.denominator)
        assert a.trace() == sum((a[i][i] for i in range(n)), Fraction(0))
        assert a.product_trace(b) == sum((a[i][j] * b[j][i] for i in range(n)
                                          for j in range(n)), Fraction(0))
        assert a.apply(vector) == tuple(sum((a[i][j] * vector[j] for j in range(n)), Fraction(0))
                                        for i in range(n))
