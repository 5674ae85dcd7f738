import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NON_CANONICAL_ENTRIES
from triality import SquareMatrix, so8
from triality.automorphisms import TrialityMap, sigma
from triality.exact import ConsistencyError, format_rational
from triality.so8 import (DIMENSION, GENERATORS, Generator, So8Element, bracket,
                          quadruples, random_element, structure_constants)


def random_elements(count: int, seed: int, bound: int = 9) -> list:
    """Samples k = 0..count-1 drawn as random_element(seed + k, bound)."""
    return [random_element(seed + k, bound) for k in range(count)]


class TestGenerators:
    def test_count(self):
        assert len(GENERATORS) == DIMENSION == 28

    def test_index_validation(self):
        with pytest.raises(ValueError):
            Generator(3, 3)
        with pytest.raises(ValueError):
            Generator(5, 2)
        with pytest.raises(ValueError):
            Generator(0, 8)

    def test_defining_action(self):
        g = So8Element.from_generator(Generator(0, 1)).matrix
        e0 = [Fraction(1)] + [Fraction(0)] * 7
        e1 = [Fraction(0), Fraction(1)] + [Fraction(0)] * 6
        assert list(g.apply(e1)) == e0
        assert list(g.apply(e0)) == [Fraction(0), Fraction(-1)] + [Fraction(0)] * 6

    def test_kills_other_basis_vectors(self):
        g = So8Element.from_generator(Generator(2, 5)).matrix
        e3 = [Fraction(0)] * 8
        e3[3] = Fraction(1)
        assert all(x == 0 for x in g.apply(e3))

    def test_matrices_antisymmetric_with_square_structure(self):
        for g in GENERATORS:
            m = So8Element.from_generator(g).matrix
            assert m.is_antisymmetric()
            sq = m * m
            diag = [sq[i][i] for i in range(8)]
            assert diag.count(Fraction(-1)) == 2
            assert all(sq[i][j] == 0 for i in range(8) for j in range(8) if i != j)


class TestElementRepresentation:
    def test_roundtrip_on_basis(self):
        for g in GENERATORS:
            elem = So8Element.from_generator(g)
            assert So8Element.from_matrix(elem.matrix) == elem

    def test_roundtrip_on_samples(self):
        for k in range(50):
            elem = random_element(900 + k)
            assert So8Element.from_matrix(elem.matrix) == elem

    def test_matrix_layout(self):
        elem = So8Element.from_generator(Generator(0, 1))
        assert elem.matrix[0][1] == 1
        assert elem.matrix[1][0] == -1

    def test_non_antisymmetric_rejected_with_entry_pair(self):
        rows = [[Fraction(0)] * 8 for _ in range(8)]
        rows[0][1] = Fraction(2)
        rows[1][0] = Fraction(3)
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            So8Element.from_matrix(SquareMatrix(rows))


class TestBracket:
    def test_self_bracket_vanishes(self):
        x = random_element(17)
        assert bracket(x, x).is_zero()

    def test_generator_bracket_value(self):
        # direct matrix commutator: [G(0,1), G(1,2)] = +G(0,2)
        lhs = bracket(So8Element.from_generator(Generator(0, 1)),
                      So8Element.from_generator(Generator(1, 2)))
        assert lhs == So8Element.from_generator(Generator(0, 2))

    def test_antisymmetry_exhaustive(self):
        elems = [So8Element.from_generator(g) for g in GENERATORS]
        for a in range(DIMENSION):
            for b in range(a, DIMENSION):
                assert bracket(elems[a], elems[b]) == -bracket(elems[b], elems[a])

    def test_jacobi_on_samples(self):
        for k in range(20):
            x = random_element(300 + 3 * k, bound=5)
            y = random_element(301 + 3 * k, bound=5)
            z = random_element(302 + 3 * k, bound=5)
            total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                     + bracket(z, bracket(x, y)))
            assert total.is_zero()


def index_rule_bracket(i: int, j: int, k: int, l: int) -> dict:
    """[G_ij, G_kl] = d_jk G_il - d_ik G_jl - d_jl G_ik + d_il G_jk as
    {(a, b): coefficient} over a < b, with G_ab = -G_ba and G_aa = 0."""
    out: dict = {}
    for delta, sign, a, b in ((j == k, 1, i, l), (i == k, -1, j, l),
                              (j == l, -1, i, k), (i == l, 1, j, k)):
        if delta and a != b:
            if a > b:
                a, b, sign = b, a, -sign
            out[(a, b)] = out.get((a, b), 0) + sign
    return {key: c for key, c in out.items() if c}


@pytest.fixture
def uncached_table():
    """Empty the structure-constant cache before and after the test, so that
    a table built under a perturbation reaches no other test."""
    structure_constants.cache_clear()
    yield
    structure_constants.cache_clear()


class TestStructureConstants:
    """The table of single-term generator brackets (c, s), meaning s * G_c."""

    def test_matches_the_index_rule(self):
        table = structure_constants()
        assert sum(t is not None for row in table for t in row) == 336
        for a, x in enumerate(GENERATORS):
            for b, y in enumerate(GENERATORS):
                t = table[a][b]
                got = {} if t is None else {(GENERATORS[t[0]].i, GENERATORS[t[0]].j): t[1]}
                assert got == index_rule_bracket(x.i, x.j, y.i, y.j), (x, y)

    def test_antisymmetric(self):
        table = structure_constants()
        for a in range(DIMENSION):
            assert table[a][a] is None
            for b in range(DIMENSION):
                t = table[b][a]
                assert table[a][b] == (None if t is None else (t[0], -t[1]))

    def test_matches_dense_brackets_one_by_one(self):
        # the table is checked against one commutator; each pair's own
        # commutator is the oracle
        elems = [So8Element.from_generator(g) for g in GENERATORS]
        table = structure_constants()
        for a, x in enumerate(elems):
            for b, y in enumerate(elems):
                t = table[a][b]
                expected = So8Element.zero() if t is None else elems[t[0]].scale(t[1])
                assert bracket(x, y) == expected, (GENERATORS[a], GENERATORS[b])

    @pytest.mark.parametrize("factor, message", [
        (2, r"\[G\(0,1\), G\(0,2\)\] disagrees with the index rule"),
        # every coefficient of the combined commutator is a multiple of 8, so
        # halving it leaves an integer, first off at the digit below the
        # first nonzero bracket
        (Fraction(1, 2), r"\[G\(0,1\), G\(0,1\)\] disagrees with the index rule"),
        (Fraction(1, 3), "the generator brackets have denominator 3"),
        (-1, r"\[G\(0,1\), G\(0,2\)\] disagrees with the index rule"),
        (8 ** 784, r"\[G\(0,1\), G\(0,2\)\] disagrees with the index rule"),
        (-(8 ** 784), r"\[G\(0,1\), G\(0,2\)\] disagrees with the index rule"),
    ], ids=["doubled", "halved", "thirds", "negated", "too_long", "negative"])
    def test_a_scaled_bracket_raises(self, factor, message, monkeypatch, uncached_table):
        monkeypatch.setattr(so8, "bracket", lambda x, y: bracket(x, y).scale(factor))
        with pytest.raises(ConsistencyError, match=message):
            structure_constants()

    def test_a_difference_past_the_last_pair_raises(self, monkeypatch, uncached_table):
        # 8^784 G(0,1) added to [X, Y] is a digit beyond pair 783
        extra = So8Element.from_integers([8 ** 784] + [0] * (DIMENSION - 1), 1)
        monkeypatch.setattr(so8, "bracket", lambda x, y: bracket(x, y) + extra)
        with pytest.raises(ConsistencyError, match="index rule past the last pair"):
            structure_constants()

    @pytest.mark.parametrize("pairs, named", [
        ([((0, 1), (1, 2))], r"\[G\(0,1\), G\(1,2\)\]"),
        ([((6, 7), (5, 7))], r"\[G\(6,7\), G\(5,7\)\]"),
        ([((6, 7), (5, 7)), ((0, 1), (1, 2))], r"\[G\(0,1\), G\(1,2\)\]"),
    ], ids=["early", "late", "first_of_two"])
    def test_a_sign_flipped_index_rule_raises(self, pairs, named, monkeypatch,
                                              uncached_table):
        rule = so8._index_rule
        flips = {(Generator(*x), Generator(*y)) for x, y in pairs}

        def flipped(x, y):
            entry = rule(x, y)
            return (entry[0], -entry[1]) if (x, y) in flips else entry

        monkeypatch.setattr(so8, "_index_rule", flipped)
        with pytest.raises(ConsistencyError, match=named + " disagrees with the index rule"):
            structure_constants()


class TestQuadruples:
    def test_first_quadruple(self):
        q = quadruples()[0]
        assert [(g.i, g.j) for g in q.generators] == [(0, 1), (2, 4), (3, 7), (5, 6)]
        assert q.signs == (1, 1, 1, 1)

    def test_last_quadruple(self):
        q = quadruples()[6]
        assert [(g.i, g.j) for g in q.generators] == [(0, 7), (1, 3), (2, 6), (4, 5)]
        assert q.signs == (1, 1, 1, 1)

    def test_partition(self):
        seen = [g for q in quadruples() for g in q.generators]
        assert sorted(seen) == sorted(GENERATORS)
        assert len(set(seen)) == DIMENSION

    def test_sign_flips_are_recorded(self):
        # index reduction swaps some pairs, e.g. i=2 yields (4,8) -> (4,1) -> -G(1,4)
        q2 = quadruples()[1]
        assert (q2.generators[2].i, q2.generators[2].j) == (1, 4)
        assert q2.signs[2] == -1
        flips = sum(1 for q in quadruples() for s in q.signs if s < 0)
        assert flips == 7


class TestRandomElements:
    def test_determinism(self):
        assert random_element(123) == random_element(123)

    def test_bound_one(self):
        elem = random_element(5, bound=1)
        assert all(c in (-1, 0, 1) for c in elem.coeffs)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            random_element(5, bound=0)

    def test_matrix_is_antisymmetric(self):
        assert random_element(99).matrix.is_antisymmetric()

    def test_batch(self):
        batch = random_elements(3, 50)
        assert batch[0] == random_element(50)
        assert batch[2] == random_element(52)


class TestSerialization:
    def test_both_encodings_roundtrip(self):
        elem = random_element(31)
        obj = json.loads(json.dumps(elem.to_json("both")))
        assert So8Element.from_json(obj) == elem

    def test_single_encodings(self):
        elem = random_element(32)
        assert So8Element.from_json(elem.to_json("coeffs")) == elem
        assert So8Element.from_json(elem.to_json("matrix")) == elem

    def test_cross_validation_failure(self):
        elem = random_element(33)
        other = random_element(34)
        obj = elem.to_json("coeffs")
        obj.update(other.to_json("matrix"))
        with pytest.raises(ValueError, match="disagree"):
            So8Element.from_json(obj)

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            So8Element.from_json({})

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            So8Element.from_json({"coeffs": ["1"] * 27})
        with pytest.raises(ValueError):
            So8Element.from_json({"matrix": [["0"] * 7] * 8})

    @pytest.mark.parametrize("matrix", [
        ["0" * 8] * 8,                   # string rows
        {str(i): ["0"] * 8 for i in range(8)},
        [["0"] * 8] * 7 + [["0"] * 7],   # ragged
        [["0"] * 4] * 4,                 # square, but not 8x8
    ])
    def test_matrix_needs_eight_arrays_of_eight(self, matrix):
        with pytest.raises(ValueError, match="'matrix' must be an 8x8 array of rational strings"):
            So8Element.from_json({"matrix": matrix})

    @pytest.mark.parametrize("entry", NON_CANONICAL_ENTRIES)
    def test_rejects_non_canonical_forms(self, entry):
        coeffs = ["0"] * DIMENSION
        coeffs[0] = entry
        matrix = [["0"] * 8 for _ in range(8)]
        matrix[0][1] = entry
        for obj in ({"coeffs": coeffs}, {"matrix": matrix}):
            with pytest.raises(ValueError, match="lowest terms"):
                So8Element.from_json(obj)


coefficients = st.lists(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))
    | st.just(Fraction(0)), min_size=DIMENSION, max_size=DIMENSION)


def _is_canonical(x) -> bool:
    """Positive denominator and gcd(den, all numerators) == 1."""
    return x.denominator > 0 and math.gcd(x.denominator, *x.numerators) == 1


def _assert_same_value(got: So8Element, expected) -> None:
    """got holds exactly the Fraction coefficients `expected`, in the one
    canonical integer form that So8Element(expected) also has."""
    assert _is_canonical(got)
    assert got.coeffs == tuple(expected)
    assert all(type(c) is Fraction for c in got.coeffs)
    same = So8Element(expected)
    assert got == same and hash(got) == hash(same)
    assert (got.numerators, got.denominator) == (same.numerators, same.denominator)


class TestIntegerForm:
    """Elements are stored as 28 integer numerators over one positive
    denominator in lowest terms; every operation must keep that form."""

    def test_zero_has_denominator_one(self):
        x = So8Element([Fraction(k + 1, 6) for k in range(DIMENSION)])
        for zero in (So8Element.zero(), x - x, x.scale(0),
                     So8Element.from_integers([0] * DIMENSION, 6)):
            assert zero.denominator == 1 and zero.is_zero()
            assert zero == So8Element.zero() and hash(zero) == hash(So8Element.zero())

    @given(coeffs=coefficients, k=st.integers(2, 10 ** 3))
    def test_scale_roundtrip_compares_and_hashes_equal(self, coeffs, k):
        x = So8Element(coeffs)
        for factor in (k, -k):
            back = x.scale(factor).scale(Fraction(1, factor))
            assert back == x and hash(back) == hash(x)
            assert (back.numerators, back.denominator) == (x.numerators, x.denominator)

    @given(a=coefficients, b=coefficients, factor=coefficients.map(lambda c: c[0]))
    def test_operations_match_entrywise_fractions(self, a, b, factor):
        x, y = So8Element(a), So8Element(b)
        _assert_same_value(x + y, [p + q for p, q in zip(a, b)])
        _assert_same_value(x - y, [p - q for p, q in zip(a, b)])
        _assert_same_value(x - x, [Fraction(0)] * DIMENSION)
        _assert_same_value(-x, [-p for p in a])
        _assert_same_value(x.scale(factor), [factor * p for p in a])
        m = x.matrix
        assert m.is_antisymmetric()
        assert math.gcd(m.denominator, *(c for row in m.numerators for c in row)) == 1
        for g, c in zip(GENERATORS, a):
            assert m[g.i][g.j] == c and m[g.j][g.i] == -c
            assert x.coefficient(g) == c and type(x.coefficient(g)) is Fraction
        assert So8Element.from_matrix(m) == x

    @settings(max_examples=60)
    @example(a=[Fraction(8 ** (DIMENSION * k)) for k in range(DIMENSION)],
             b=[Fraction(8 ** k) for k in range(DIMENSION)])
    @example(a=[Fraction(0)] * DIMENSION, b=[Fraction(k - 13, 7) for k in range(DIMENSION)])
    @given(a=coefficients, b=coefficients)
    def test_bracket_matches_the_dense_matrix_commutator(self, a, b):
        # the first example is the Kronecker pair of `structure_constants()`
        x, y = So8Element(a), So8Element(b)
        for u, v in ((x, y), (y, x), (x, x), (x, So8Element.zero())):
            got = bracket(u, v)
            assert _is_canonical(got)
            assert got == So8Element.from_matrix(u.matrix * v.matrix - v.matrix * u.matrix)

    @settings(max_examples=40)
    @example(coeffs=[Fraction(2)] * DIMENSION)
    @given(coeffs=coefficients)
    def test_sigma_matches_dense_fraction_product(self, coeffs):
        full = TrialityMap.standard().full.rows
        expected = [sum((full[i][j] * coeffs[j] for j in range(DIMENSION)), Fraction(0))
                    for i in range(DIMENSION)]
        _assert_same_value(sigma(So8Element(coeffs)), expected)


class TestJsonOnIntegers:
    """The JSON writer formats the integer numerators and the reader builds
    them back; formatting the `Fraction` views is the oracle."""

    @given(coeffs=coefficients, encoding=st.sampled_from(["coeffs", "matrix", "both"]))
    def test_roundtrip(self, coeffs, encoding):
        x = So8Element(coeffs)
        back = So8Element.from_json(json.loads(json.dumps(x.to_json(encoding))))
        assert back == x
        assert (back.numerators, back.denominator) == (x.numerators, x.denominator)

    @given(coeffs=coefficients)
    def test_writer_matches_fraction_views(self, coeffs):
        x = So8Element(coeffs)
        assert x.to_json("both") == {
            "coeffs": [format_rational(c) for c in x.coeffs],
            "matrix": [[format_rational(c) for c in row] for row in x.matrix.rows]}
