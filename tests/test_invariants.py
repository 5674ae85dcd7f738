import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signed_permutation
from triality.automorphisms import (g2_fixed_subalgebra, sigma,
                                    so7_fixed_subalgebra)
from triality.invariants import (C3_COEFFICIENTS, CANDIDATE_C3_COEFFICIENTS,
                                 ETA_MODEL_POINTS, InvariantVector, T_MATRIX,
                                 canonical_block_element,
                                 candidate_eta2_coefficient,
                                 candidate_eta4_coefficient,
                                 derive_c3_coefficients, eigenstructure_check,
                                 eta_model_values, fixed_degree6_space,
                                 g2_restriction, invariant_vector,
                                 newton_coefficients, pfaffian_matchings,
                                 pfaffian_permutation_sum,
                                 sigma_transform_invariants,
                                 spectral_coefficients, spectral_discriminant,
                                 tr_power)
from triality.exact import SquareMatrix
from triality.so8 import DIMENSION, Generator, So8Element, random_element

BLOCK_1234 = canonical_block_element([1, 2, 3, 4])

# numerators and denominators drawn independently, so the coefficients of one
# element have unrelated denominators; zeros thin out the principal minors
coefficients = st.lists(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))
    | st.just(Fraction(0)), min_size=DIMENSION, max_size=DIMENSION)

BLOCK_TUPLES = (
    (1, 2, 3, 4), (1, 1, 1, 1), (2, 3, 5, 7), (1, -2, 3, -4), (0, 1, 2, 3), (0, 0, 0, 5),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
    (Fraction(3, 2), 2, Fraction(-5, 4), 1), (Fraction(7, 3), Fraction(-1, 3), Fraction(2, 3), 3),
)


def degree6_vector(v: InvariantVector) -> tuple:
    """The degree-6 monomial basis (p1^3, p1*p2, p1*pf, p3), the order T_MATRIX uses."""
    return (v.p1 ** 3, v.p1 * v.p2, v.p1 * v.pf, v.p3)


class TestTracePowers:
    def test_zero_element(self):
        z = So8Element.zero()
        for k in (2, 4, 6):
            assert tr_power(z, k) == 0

    def test_block_values(self):
        assert tr_power(BLOCK_1234, 2) == -60
        assert tr_power(BLOCK_1234, 4) == 708
        assert tr_power(BLOCK_1234, 6) == -9780

    @settings(max_examples=40)
    @given(coeffs=coefficients)
    def test_invariant_vector_matches_dense_oracles(self, coeffs):
        m = So8Element(coeffs)
        v = invariant_vector(m)
        assert (v.p1, v.p2, v.p3) == (tr_power(m, 2), tr_power(m, 4), tr_power(m, 6))
        assert v.pf == pfaffian_permutation_sum(m)

    def test_odd_power_rejected(self):
        with pytest.raises(ValueError):
            tr_power(BLOCK_1234, 3)
        with pytest.raises(ValueError):
            tr_power(BLOCK_1234, 0)

    def test_quadratic_invariant_under_sigma(self):
        for k in range(100):
            m = random_element(1000 + k)
            assert tr_power(sigma(m), 2) == tr_power(m, 2)


class TestPfaffian:
    def test_zero(self):
        z = So8Element.zero()
        assert pfaffian_matchings(z) == 0
        assert pfaffian_permutation_sum(z) == 0

    def test_block_model(self):
        assert pfaffian_matchings(BLOCK_1234) == 24
        assert pfaffian_matchings(canonical_block_element([1, 1, 1, 1])) == 1
        lam = [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(5)]
        assert pfaffian_matchings(canonical_block_element(lam)) == \
            Fraction(1, 2) * Fraction(-2, 3) * 3 * 5

    def test_three_algorithms_agree(self):
        for k in range(50):
            m = random_element(2000 + k)
            value = pfaffian_matchings(m)
            assert pfaffian_permutation_sum(m) == value

    def test_square_is_determinant(self):
        for k in range(50):
            m = random_element(2100 + k)
            assert pfaffian_matchings(m) ** 2 == m.matrix.determinant()

    def test_fractional_entries(self):
        m = So8Element([Fraction(1, 3)] * 28)
        assert pfaffian_permutation_sum(m) == pfaffian_matchings(m)


class TestSpectral:
    def test_block_coefficients(self):
        e = spectral_coefficients(BLOCK_1234)
        assert e.as_tuple() == (30, 273, 820, 576)

    def test_zero(self):
        assert spectral_coefficients(So8Element.zero()).as_tuple() == (0, 0, 0, 0)

    def test_e4_is_pfaffian_squared(self):
        for k in range(50):
            m = random_element(2200 + k)
            assert spectral_coefficients(m).e4 == pfaffian_matchings(m) ** 2

    @pytest.mark.parametrize("lams", BLOCK_TUPLES, ids=str)
    def test_block_models_give_elementary_symmetric_functions(self, lams):
        squares = [Fraction(lam) ** 2 for lam in lams]
        expected = tuple(sum(math.prod(c) for c in itertools.combinations(squares, j))
                         for j in (1, 2, 3, 4))
        assert spectral_coefficients(canonical_block_element(lams)).as_tuple() == expected

    @settings(max_examples=60)
    @given(coeffs=coefficients)
    def test_matches_faddeev_leverrier(self, coeffs):
        # det(M - x*I) = x^8 + e1 x^6 + e2 x^4 + e3 x^2 + e4 for antisymmetric M
        m = So8Element(coeffs)
        cp = m.matrix.char_poly()
        expected = (cp[6], cp[4], cp[2], cp[0])
        assert spectral_coefficients(m).as_tuple() == expected


def _squared_differences(lams):
    squares = [Fraction(lam) ** 2 for lam in lams]
    return math.prod((a - b) ** 2 for a, b in itertools.combinations(squares, 2))


class TestDiscriminant:
    @pytest.mark.parametrize("lams", [(1, 2, 3, 4), (Fraction(1, 2), Fraction(1, 3), 5, 7),
                                      (0, 1, 2, 3)], ids=str)
    def test_regular_block_models(self, lams):
        disc = spectral_discriminant(spectral_coefficients(canonical_block_element(lams)))
        assert disc == _squared_differences(lams) != 0

    def test_a_zero_pfaffian_is_regular(self):
        m = canonical_block_element((0, 1, 2, 3))
        assert invariant_vector(m).pf == 0
        assert spectral_discriminant(spectral_coefficients(m)) == 18662400

    @pytest.mark.parametrize("lams", [(1, 1, 2, 3), (2, -2, 1, 3)], ids=str)
    def test_singular_block_models(self, lams):
        assert spectral_discriminant(spectral_coefficients(canonical_block_element(lams))) == 0

    @settings(max_examples=60)
    @given(lams=st.lists(st.builds(Fraction, st.integers(-10 ** 3, 10 ** 3),
                                   st.integers(1, 10 ** 2)), min_size=4, max_size=4))
    def test_rational_block_models(self, lams):
        # parameters with unrelated denominators, and repeats up to sign
        e = spectral_coefficients(canonical_block_element(lams))
        assert spectral_discriminant(e) == _squared_differences(lams)


class TestNewton:
    def test_hand_worked_example(self):
        # q = (30, 354, 4890) gives e = (30, 273, 820):
        # (900-354)/2 = 273 and (27000 - 3*30*354 + 2*4890)/6 = 820
        v = InvariantVector(Fraction(-60), Fraction(708), Fraction(-9780), Fraction(24))
        e = newton_coefficients(v)
        assert e.as_tuple() == (30, 273, 820, 576)

    def test_zero(self):
        v = InvariantVector(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        assert newton_coefficients(v).as_tuple() == (0, 0, 0, 0)

    def test_matches_char_poly_on_samples(self):
        for k in range(100):
            m = random_element(2300 + k)
            assert newton_coefficients(invariant_vector(m)) == spectral_coefficients(m)

    def test_rejected_candidates_differ(self):
        v = invariant_vector(BLOCK_1234)
        e = spectral_coefficients(BLOCK_1234)
        assert candidate_eta4_coefficient(v) == Fraction(1977, 2)
        assert candidate_eta4_coefficient(v) != e.e2
        assert candidate_eta2_coefficient(v) == 172140
        assert candidate_eta2_coefficient(v) != e.e3


class TestTransformationLaw:
    def test_headline_identity(self):
        for k in range(100):
            m = random_element(3000 + k)
            assert invariant_vector(sigma(m)) == \
                sigma_transform_invariants(invariant_vector(m))

    def test_order_three(self):
        for k in range(100):
            m = random_element(3100 + k)
            v = invariant_vector(m)
            w = sigma_transform_invariants(
                sigma_transform_invariants(sigma_transform_invariants(v)))
            assert w == v

    def test_zero_vector(self):
        zero = InvariantVector(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        assert sigma_transform_invariants(zero) == zero

    def test_degree6_covariance(self):
        for k in range(25):
            m = random_element(3200 + k)
            before = degree6_vector(invariant_vector(m))
            after = degree6_vector(invariant_vector(sigma(m)))
            assert T_MATRIX.apply(before) == after


class TestTMatrix:
    def test_powers(self):
        assert T_MATRIX.power(0) == SquareMatrix.identity(4)
        assert T_MATRIX.power(3) == SquareMatrix.identity(4)

    def test_square_entries(self):
        expected = SquareMatrix([
            [Fraction(1), 0, 0, 0],
            [Fraction(3, 8), Fraction(-1, 2), Fraction(12), 0],
            [Fraction(1, 64), Fraction(-1, 16), Fraction(-1, 2), 0],
            [Fraction(15, 64), Fraction(-15, 16), Fraction(15, 2), Fraction(1)],
        ])
        assert T_MATRIX.power(2) == expected

    def test_fixed_space(self):
        basis = fixed_degree6_space()
        assert len(basis) == 2
        tt = T_MATRIX.transpose()
        for v in basis:
            assert tt.apply(v) == v

    def test_fixed_functionals_evaluate_invariantly(self):
        for k in range(50):
            m = random_element(3300 + k)
            v = invariant_vector(m)
            w = invariant_vector(sigma(m))
            assert v.p1 ** 3 == w.p1 ** 3
            assert 5 * v.p1 * v.p2 - 8 * v.p3 == 5 * w.p1 * w.p2 - 8 * w.p3


class TestConjugationInvariance:
    def test_special_orthogonal_conjugation(self):
        m = random_element(3400)
        v = invariant_vector(m)
        found = 0
        seed = 0
        while found < 10:
            a = signed_permutation(seed)
            seed += 1
            if a.determinant() != 1:
                continue
            found += 1
            conj = So8Element.from_matrix(a * m.matrix * a.transpose())
            assert invariant_vector(conj) == v

    def test_determinant_minus_one_flips_pfaffian(self):
        m = random_element(3401)
        v = invariant_vector(m)
        found = 0
        seed = 0
        while found < 10:
            a = signed_permutation(seed)
            seed += 1
            if a.determinant() != -1:
                continue
            found += 1
            w = invariant_vector(So8Element.from_matrix(a * m.matrix * a.transpose()))
            assert (w.p1, w.p2, w.p3) == (v.p1, v.p2, v.p3)
            assert w.pf == -v.pf


class TestEtaModel:
    def test_anchor_point(self):
        p1, p2, p3, c3 = eta_model_values(Fraction(1), Fraction(1))
        assert (p1, p2, p3) == (12, 36, 132)
        assert c3 == 4

    def test_degenerate_point(self):
        assert eta_model_values(Fraction(1), Fraction(-1))[3] == 0

    def test_newton_representative_on_all_points(self):
        a, b, g = C3_COEFFICIENTS
        assert len(ETA_MODEL_POINTS) >= 20
        for (h1, h2) in ETA_MODEL_POINTS:
            p1, p2, p3, c3 = eta_model_values(h1, h2)
            assert a * p1 ** 3 + b * p1 * p2 + g * p3 == c3

    def test_candidate_fails_at_anchor(self):
        a, b, g = CANDIDATE_C3_COEFFICIENTS
        p1, p2, p3, c3 = eta_model_values(Fraction(1), Fraction(1))
        assert a * p1 ** 3 + b * p1 * p2 + g * p3 == -996
        assert c3 == 4

    def test_derivation_report(self):
        kernel_dimension, derived, candidate = derive_c3_coefficients()
        assert kernel_dimension == 1
        assert len(derived) == len(candidate) == len(ETA_MODEL_POINTS)
        assert not any(derived)
        # the first model point, eta = (1, 1, -2): the candidate gives -996, c3 is 4
        assert candidate[0] == -996 - 4


class TestRestriction:
    def test_precondition(self):
        with pytest.raises(ValueError):
            g2_restriction(So8Element.from_generator(Generator(0, 1)))

    def test_c1_on_locus(self):
        sub = g2_fixed_subalgebra()
        for k in range(20):
            m = sub.random_element(4000 + k)
            c1, _ = g2_restriction(m)
            assert c1 == invariant_vector(m).p1 / 2

    def test_c3_cross_check_against_spectrum(self):
        # on the fixed locus the chosen representative evaluates to -e3
        sub = g2_fixed_subalgebra()
        for k in range(20):
            m = sub.random_element(4100 + k)
            _, c3 = g2_restriction(m)
            assert c3 == -spectral_coefficients(m).e3

    def test_locus_constraints(self):
        sub = g2_fixed_subalgebra()
        for k in range(50):
            m = sub.random_element(4200 + k)
            v = invariant_vector(m)
            e = spectral_coefficients(m)
            assert v.pf == 0
            assert 4 * v.p2 == v.p1 ** 2
            assert 4 * e.e2 == e.e1 ** 2
            assert e.e4 == 0

    def test_so7_locus_constraints(self):
        sub = so7_fixed_subalgebra()
        for k in range(50):
            m = sub.random_element(4300 + k)
            assert invariant_vector(m).pf == 0
            assert spectral_coefficients(m).e4 == 0


def _eigenstructure(m, tag):
    return eigenstructure_check(m, tag, invariant_vector(m), spectral_coefficients(m))


class TestEigenstructure:
    def test_so7_tag(self):
        m = so7_fixed_subalgebra().random_element(4400)
        assert _eigenstructure(m, "so7") == {"pf_zero": True, "e4_zero": True}

    def test_g2_tag(self):
        m = g2_fixed_subalgebra().random_element(4401)
        assert _eigenstructure(m, "g2") == {
            "pf_zero": True, "e4_zero": True, "e2_is_quarter_e1_squared": True,
            "p2_is_quarter_p1_squared": True, "c3_is_minus_e3": True, "sigma_fixed": True}

    def test_so8_tag_is_rejected(self):
        # a generic element meets no locus constraint; its regularity is
        # read off spectral_discriminant instead
        with pytest.raises(ValueError, match="'so8'; expected so7 or g2"):
            _eigenstructure(random_element(4402), "so8")

    def test_failing_constraint_detected(self):
        constraints = _eigenstructure(random_element(4403), "g2")
        assert not all(constraints.values())
        assert constraints["sigma_fixed"] is False

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            _eigenstructure(random_element(4404), "e8")


class TestBlockElementConstructor:
    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            canonical_block_element([1, 2, 3])
