import json
from fractions import Fraction

import pytest

from triality import SquareMatrix
from triality.so8 import (DIMENSION, GENERATORS, Generator, So8Element, bracket,
                          generator_matrix, quadruples, random_element)


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
        g = generator_matrix(Generator(0, 1))
        e0 = [Fraction(1)] + [Fraction(0)] * 7
        e1 = [Fraction(0), Fraction(1)] + [Fraction(0)] * 6
        assert list(g.apply(e1)) == e0
        assert list(g.apply(e0)) == [Fraction(0), Fraction(-1)] + [Fraction(0)] * 6

    def test_kills_other_basis_vectors(self):
        g = generator_matrix(Generator(2, 5))
        e3 = [Fraction(0)] * 8
        e3[3] = Fraction(1)
        assert all(x == 0 for x in g.apply(e3))

    def test_matrices_antisymmetric_with_square_structure(self):
        for g in GENERATORS:
            m = generator_matrix(g)
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
