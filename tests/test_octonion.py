import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import NON_CANONICAL_ENTRIES
from triality import SquareMatrix
from triality.octonion import (FANO_LINES, Octonion, basis_product, inner_product,
                               is_algebra_automorphism, multiplication_table_symbols,
                               rotation_automorphism, rotation_matrix,
                               structure_constants)

octonions = st.builds(
    Octonion,
    st.lists(st.integers(min_value=-9, max_value=9).map(Fraction), min_size=8, max_size=8))


def random_octonion(rng, bound=9):
    return Octonion([Fraction(rng.randint(-bound, bound)) for _ in range(8)])


class TestTable:
    def test_anchor_product(self):
        assert basis_product(5, 2) == (3, 1)

    def test_squares(self):
        for i in range(1, 8):
            assert basis_product(i, i) == (0, -1)

    def test_anticommutativity_consequence(self):
        assert basis_product(2, 5) == (3, -1)

    def test_unit(self):
        for j in range(8):
            assert basis_product(0, j) == (j, 1)
            assert basis_product(j, 0) == (j, 1)

    def test_line_list(self):
        assert len(FANO_LINES) == 7
        assert (1, 2, 4) in FANO_LINES
        for i in range(1, 8):
            assert sum(1 for line in FANO_LINES if i in line) == 3

    def test_table_shape(self):
        table = structure_constants()
        assert len(table) == 8 and all(len(row) == 8 for row in table)
        symbols = multiplication_table_symbols()
        assert symbols[5][2] == "e3"
        assert symbols[2][5] == "-e3"
        assert symbols[1][1] == "-e0"


class TestMultiplication:
    def test_unit_element(self):
        rng = random.Random(1)
        x = random_octonion(rng)
        assert Octonion.one() * x == x
        assert x * Octonion.one() == x

    def test_bilinear_expansion(self):
        lhs = (Octonion.basis(1) + Octonion.basis(2)) * Octonion.basis(4)
        k1, s1 = basis_product(1, 4)
        k2, s2 = basis_product(2, 4)
        rhs = Octonion.basis(k1).scale(s1) + Octonion.basis(k2).scale(s2)
        assert lhs == rhs

    @given(x=octonions, y=octonions, z=octonions)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    def test_norm_composition_on_samples(self):
        rng = random.Random(7)
        for _ in range(50):
            x = random_octonion(rng)
            y = random_octonion(rng)
            assert (x * y).norm_squared() == x.norm_squared() * y.norm_squared()

    def test_alternativity_on_samples(self):
        rng = random.Random(8)
        for _ in range(50):
            x = random_octonion(rng)
            y = random_octonion(rng)
            assert x * (x * y) == (x * x) * y
            assert (y * x) * x == y * (x * x)

    def test_not_associative_in_general(self):
        e1, e2, e5 = Octonion.basis(1), Octonion.basis(2), Octonion.basis(5)
        assert (e1 * e2) * e5 != e1 * (e2 * e5)


class TestConjugation:
    def test_real_unit(self):
        assert Octonion.one().conjugate() == Octonion.one()

    def test_imaginary_basis(self):
        assert Octonion.basis(3).conjugate() == -Octonion.basis(3)

    @given(x=octonions)
    def test_involution(self, x):
        assert x.conjugate().conjugate() == x


class TestInnerProduct:
    def test_orthonormal_basis(self):
        for i in range(8):
            for j in range(8):
                expected = Fraction(1) if i == j else Fraction(0)
                assert inner_product(Octonion.basis(i), Octonion.basis(j)) == expected

    def test_norm_from_inner_product(self):
        rng = random.Random(2)
        x = random_octonion(rng)
        assert inner_product(x, x) == x.norm_squared()
        assert inner_product(x, x) >= 0

    def test_agrees_with_real_part_form(self):
        rng = random.Random(3)
        for _ in range(50):
            x = random_octonion(rng)
            y = random_octonion(rng)
            assert inner_product(x, y) == (x * y.conjugate()).real_part()


class TestRotation:
    def test_basis_images(self):
        assert rotation_automorphism(Octonion.basis(1)) == Octonion.basis(2)
        assert rotation_automorphism(Octonion.basis(0)) == Octonion.basis(0)
        assert rotation_automorphism(Octonion.basis(7)) == Octonion.basis(7)

    def test_order_three(self):
        for k in range(8):
            x = Octonion.basis(k)
            assert rotation_automorphism(
                rotation_automorphism(rotation_automorphism(x))) == x

    def test_is_automorphism(self):
        assert is_algebra_automorphism(rotation_matrix())

    def test_preserves_inner_products(self):
        m = rotation_matrix()
        images = [Octonion(m.apply(Octonion.basis(k).coeffs)) for k in range(8)]
        for i in range(8):
            for j in range(8):
                assert inner_product(images[i], images[j]) == \
                    inner_product(Octonion.basis(i), Octonion.basis(j))


class TestAutomorphismPredicate:
    def test_identity(self):
        assert is_algebra_automorphism(SquareMatrix.identity(8))

    def test_swap_is_not(self):
        rows = [[Fraction(0)] * 8 for _ in range(8)]
        for k in range(8):
            rows[k][k] = Fraction(1)
        rows[1][1] = rows[2][2] = Fraction(0)
        rows[1][2] = rows[2][1] = Fraction(1)
        assert not is_algebra_automorphism(SquareMatrix(rows))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            is_algebra_automorphism(SquareMatrix.identity(4))

    def test_zero_map_is_not(self):
        # satisfies every product identity vacuously, but is not invertible
        assert not is_algebra_automorphism(SquareMatrix.zero(8))


class TestQuaternionLines:
    def test_each_line_spans_closed_subalgebra(self):
        for line in FANO_LINES:
            members = {0} | set(line)
            for a in members:
                for b in members:
                    k, _ = basis_product(a, b)
                    assert k in members


class TestSerialization:
    def test_roundtrip(self):
        rng = random.Random(4)
        x = random_octonion(rng)
        assert Octonion.from_json(x.to_json()) == x

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            Octonion([Fraction(1)] * 7)

    @pytest.mark.parametrize("entry", NON_CANONICAL_ENTRIES)
    def test_from_json_rejects_non_canonical_forms(self, entry):
        with pytest.raises(ValueError, match="lowest terms"):
            Octonion.from_json(["1"] * 7 + [entry])

    @pytest.mark.parametrize("value", ["12345678", {str(k): "0" for k in range(1, 9)},
                                       ["1"] * 7, ["1"] * 9, None])
    def test_from_json_needs_a_list_of_eight(self, value):
        # a string or an object of length 8 is no octonion, even though its
        # characters or keys would read as rational strings
        with pytest.raises(ValueError, match="list of 8 rational strings"):
            Octonion.from_json(value)


# coefficients p/q with unrelated denominators, and zeros
rational_coefficients = st.lists(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))
    | st.just(Fraction(0)), min_size=8, max_size=8)


def reference_product(a, b):
    """The product of coefficient lists a and b on Fractions, from the table."""
    out = [Fraction(0)] * 8
    for i in range(8):
        for j in range(8):
            k, s = basis_product(i, j)
            out[k] += s * a[i] * b[j]
    return out


def assert_holds(x: Octonion, expected) -> None:
    """x has the Fraction coefficients `expected`, stored as integer
    numerators over a positive denominator in lowest terms (1 for zero)."""
    assert x.denominator > 0 and math.gcd(x.denominator, *x.numerators) == 1
    assert x.coeffs == tuple(expected)
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x == Octonion(expected) and hash(x) == hash(Octonion(expected))


class TestIntegerForm:
    """Octonions are stored as 8 integer numerators over one positive
    denominator in lowest terms; every operation must keep that form and
    agree with the same operation on Fraction coefficients."""

    @example(a=[Fraction(1, 6)] * 8, b=[Fraction(-1, 6)] * 8, factor=Fraction(0))
    @given(a=rational_coefficients, b=rational_coefficients,
           factor=rational_coefficients.map(lambda c: c[0]))
    def test_operations_match_fraction_reference(self, a, b, factor):
        x, y = Octonion(a), Octonion(b)
        assert_holds(x, a)
        assert_holds(x * y, reference_product(a, b))
        assert_holds(x + y, [p + q for p, q in zip(a, b)])
        assert_holds(x - y, [p - q for p, q in zip(a, b)])
        assert_holds(x - x, [Fraction(0)] * 8)
        assert_holds(x.scale(factor), [factor * p for p in a])
        assert_holds(x.conjugate(), [a[0]] + [-p for p in a[1:]])
        assert x.norm_squared() == sum(p * p for p in a)
        assert x.real_part() == a[0]
        assert Octonion.from_json(x.to_json()) == x

    def test_from_integers_reduces(self):
        x = Octonion.from_integers([2, 4, 0, -6, 8, 10, 12, 14], 4)
        assert (x.numerators, x.denominator) == ((1, 2, 0, -3, 4, 5, 6, 7), 2)
        assert x.to_json() == ["1/2", "1", "0", "-3/2", "2", "5/2", "3", "7/2"]
        zero = Octonion.from_integers([0] * 8, 6)
        assert (zero.numerators, zero.denominator) == ((0,) * 8, 1)
