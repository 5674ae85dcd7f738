import random
from fractions import Fraction

import pytest

from triality import SquareMatrix
from triality.automorphisms import (ORDER3_BLOCK, FixedSubalgebra, TrialityMap,
                                    _involution_matrix, fixed_subalgebra,
                                    g2_fixed_subalgebra, identify_fixed_algebra,
                                    killing_form, outer_involution, sigma,
                                    so7_fixed_subalgebra,
                                    verify_bracket_preservation)
from triality.exact import (ConsistencyError, format_rational, integer_rows,
                            kernel_basis_of_rows, rref)
from triality.so8 import GENERATORS, Generator, So8Element, bracket, random_element
from triality.verify import RunConfig, _check_bracket_preservation

HALF = Fraction(1, 2)

# the documented involution: conjugation by this orthogonal matrix of determinant -1
OUTER_CONJUGATOR = SquareMatrix.diagonal([1] * 7 + [-1])


def conjugated(x: So8Element) -> So8Element:
    """The dense 8x8 definition of the involution, A * X * A with A = OUTER_CONJUGATOR."""
    return So8Element.from_matrix(OUTER_CONJUGATOR * x.matrix * OUTER_CONJUGATOR)


def span_intersection_dimension(a: FixedSubalgebra, b: FixedSubalgebra) -> int:
    """dim(span A intersect span B) = dim A + dim B - rank [A B]."""
    columns = [x.coeffs for x in a.basis] + [y.coeffs for y in b.basis]
    _, pivots, _, _ = rref(integer_rows([list(col) for col in zip(*columns)])[0])
    return a.dim + b.dim - len(pivots)


def intersection_basis(a: FixedSubalgebra, b: FixedSubalgebra) -> list:
    """A basis of span A intersect span B, as so(8) elements."""
    columns = [x.coeffs for x in a.basis] + [tuple(-c for c in y.coeffs) for y in b.basis]
    rows = integer_rows([list(col) for col in zip(*columns)])[0]
    out = []
    for v in kernel_basis_of_rows(rows, a.dim + b.dim):
        elem = So8Element.zero()
        for i in range(a.dim):
            if v[i] != 0:
                elem = elem + a.basis[i].scale(v[i])
        if not elem.is_zero():
            out.append(elem)
    return out


class TestBlock:
    def test_square_is_transpose(self):
        assert ORDER3_BLOCK * ORDER3_BLOCK == ORDER3_BLOCK.transpose()

    def test_cube_is_identity(self):
        assert ORDER3_BLOCK.power(3) == SquareMatrix.identity(4)

    def test_entries(self):
        assert ORDER3_BLOCK[0] == (-HALF, -HALF, -HALF, -HALF)
        assert ORDER3_BLOCK[3] == (HALF, -HALF, -HALF, HALF)


class TestSigma:
    def test_zero(self):
        assert sigma(So8Element.zero()).is_zero()

    def test_order_three_on_basis(self):
        for g in GENERATORS:
            e = So8Element.from_generator(g)
            assert sigma(sigma(sigma(e))) == e

    def test_not_identity(self):
        assert TrialityMap.standard().full != SquareMatrix.identity(28)

    def test_image_of_first_generator(self):
        image = sigma(So8Element.from_generator(Generator(0, 1)))
        expected = {(0, 1): -HALF, (2, 4): HALF, (3, 7): HALF, (5, 6): HALF}
        for g in GENERATORS:
            assert image.coefficient(g) == expected.get((g.i, g.j), Fraction(0))

    def test_matrix_first_column_forms(self):
        # the image matrix column X[i][0] expands blockwise over the quadruples,
        # picking up the recorded normalization signs
        m = random_element(57)
        x = sigma(m).matrix
        a = m.matrix
        assert x[1][0] == HALF * (a[0][1] + a[2][4] + a[3][7] + a[5][6])
        assert x[2][0] == HALF * (a[0][2] + a[3][5] + a[6][7] - a[1][4])
        assert x[3][0] == HALF * (a[0][3] + a[4][6] - a[1][7] - a[2][5])
        assert x[4][0] == HALF * (a[0][4] + a[1][2] + a[5][7] - a[3][6])
        assert x[5][0] == HALF * (a[0][5] + a[2][3] - a[1][6] - a[4][7])
        assert x[6][0] == HALF * (a[0][6] + a[1][5] + a[3][4] - a[2][7])
        assert x[7][0] == HALF * (a[0][7] + a[1][3] + a[2][6] + a[4][5])

    def test_linear(self):
        x = random_element(70)
        y = random_element(71)
        assert sigma(x + y) == sigma(x) + sigma(y)
        assert sigma(x.scale(Fraction(3, 5))) == sigma(x).scale(Fraction(3, 5))

    def test_power_application(self):
        tmap = TrialityMap.standard()
        x = random_element(72)
        assert tmap.apply_power(x, 0) == x
        assert tmap.apply_power(x, 3) == x
        assert tmap.apply_power(x, 4) == tmap.apply(x)
        with pytest.raises(ValueError):
            tmap.apply_power(x, -1)

    def test_bracket_of_element_with_itself_maps_to_zero(self):
        x = random_element(73)
        assert sigma(bracket(x, x)).is_zero()


def dense_bracket_preservation(samples: int, seed: int, tmap: TrialityMap,
                               bound: int = 9) -> dict:
    """The `triality.bracket_preservation` entry with every pair, generator
    pairs included, checked through the dense matrix commutator."""
    violations = 0
    violating_pairs: list = []
    counterexample = None
    basis_elements = [So8Element.from_generator(g) for g in GENERATORS]
    images = [tmap.apply(b) for b in basis_elements]

    def check(x, sx, y, sy, tag):
        nonlocal violations, counterexample
        lhs = tmap.apply(bracket(x, y))
        rhs = bracket(sx, sy)
        if lhs != rhs:
            violations += 1
            if len(violating_pairs) < 10:
                violating_pairs.append(tag)
            if counterexample is None:
                counterexample = {
                    "pair": tag,
                    "image_of_bracket": [format_rational(c) for c in lhs.coeffs],
                    "bracket_of_images": [format_rational(c) for c in rhs.coeffs],
                }

    checked = 0
    for a in range(28):
        for b in range(28):
            check(basis_elements[a], images[a], basis_elements[b], images[b],
                  [GENERATORS[a].label, GENERATORS[b].label])
            checked += 1
    for k in range(samples):
        x = random_element(seed + 2 * k, bound)
        y = random_element(seed + 2 * k + 1, bound)
        check(x, tmap.apply(x), y, tmap.apply(y), ["sample", k])
        checked += 1
    report = {"status": "pass" if violations == 0 else "fail",
              "pairs_checked": checked, "violations": violations}
    if counterexample is not None:
        report["counterexample"] = counterexample
        report["violating_pairs"] = violating_pairs
    return report


def _sign_flipped_block(r: int, c: int) -> SquareMatrix:
    rows = [list(row) for row in ORDER3_BLOCK.rows]
    rows[r][c] = -rows[r][c]
    return SquareMatrix(rows)


class TestBracketPreservation:
    def test_clean_map_has_no_violations(self):
        assert verify_bracket_preservation(TrialityMap.standard()) == []

    def test_corrupted_block_fails(self):
        tmap = TrialityMap.corrupted()
        failures = verify_bracket_preservation(tmap)
        assert failures
        pairs = [(a, b) for a, b, _, _ in failures]
        assert pairs == sorted(set(pairs))
        elems = [So8Element.from_generator(g) for g in GENERATORS]
        for a, b, image_of_bracket, bracket_of_images in failures:
            assert image_of_bracket == tmap.apply(bracket(elems[a], elems[b]))
            assert bracket_of_images == bracket(tmap.apply(elems[a]), tmap.apply(elems[b]))
            assert image_of_bracket != bracket_of_images

    @pytest.mark.parametrize("flip", [None, "corrupted"]
                             + [(r, c) for r in range(4) for c in range(4)], ids=str)
    def test_report_matches_the_dense_route(self, flip):
        if flip is None:
            tmap = TrialityMap.standard()
        elif flip == "corrupted":
            tmap = TrialityMap.corrupted()
        else:
            tmap = TrialityMap(_sign_flipped_block(*flip))
        report = _check_bracket_preservation(RunConfig(samples=3, seed=42), tmap)
        assert report == dense_bracket_preservation(3, 42, tmap)
        # every sign flip breaks the automorphism, on over a third of the pairs
        assert (report["violations"] > 28 * 28 / 3) == (flip is not None)

    def test_trace_form_preserved(self):
        elems = [So8Element.from_generator(g) for g in GENERATORS]
        for a in range(28):
            for b in range(28):
                before = (elems[a].matrix * elems[b].matrix).trace()
                after = (sigma(elems[a]).matrix * sigma(elems[b]).matrix).trace()
                assert before == after


class TestOuterInvolution:
    def test_involution(self):
        x = random_element(80)
        assert outer_involution(outer_involution(x)) == x

    def test_generator_images(self):
        g07 = So8Element.from_generator(Generator(0, 7))
        assert outer_involution(g07) == -g07
        g12 = So8Element.from_generator(Generator(1, 2))
        assert outer_involution(g12) == g12

    def test_sign_flip_matches_dense_conjugation(self):
        for g in GENERATORS:
            e = So8Element.from_generator(g)
            assert outer_involution(e) == conjugated(e)
        for seed in range(80, 90):
            x = random_element(seed)
            assert outer_involution(x) == conjugated(x)

    def test_action_matrix_is_conjugation_diagonal(self):
        columns = [conjugated(So8Element.from_generator(g)).coeffs for g in GENERATORS]
        expected = SquareMatrix(zip(*columns))
        assert _involution_matrix() == expected
        assert expected == SquareMatrix.diagonal(
            [-1 if g.j == 7 else 1 for g in GENERATORS])


class TestFixedSubalgebras:
    def test_g2_dimension_and_fixedness(self):
        sub = g2_fixed_subalgebra()
        assert sub.dim == 14
        for b in sub.basis:
            assert sigma(b) == b

    def test_g2_bracket_closure_coordinates(self):
        for sub in (g2_fixed_subalgebra(), so7_fixed_subalgebra()):
            for i in range(sub.dim):
                for j in range(i + 1, sub.dim):
                    target = bracket(sub.basis[i], sub.basis[j])
                    coords = sub.coords(target)
                    assert coords is not None
                    rebuilt = So8Element.zero()
                    for c, b in zip(coords, sub.basis):
                        rebuilt = rebuilt + b.scale(c)
                    assert rebuilt == target

    def test_so7_dimension_and_shape(self):
        sub = so7_fixed_subalgebra()
        assert sub.dim == 21
        for b in sub.basis:
            assert outer_involution(b) == b
            # the embedded so(7) leaves the last coordinate direction untouched
            assert all(b.matrix[i][7] == 0 for i in range(8))

    def test_so7_span_is_small_generators(self):
        sub = so7_fixed_subalgebra()
        for g in GENERATORS:
            elem = So8Element.from_generator(g)
            assert sub.contains(elem) == (g.j <= 6)

    def test_locus_membership_probe(self):
        sub = g2_fixed_subalgebra()
        assert sub.contains(sub.random_element(5))
        assert not sub.contains(So8Element.from_generator(Generator(0, 1)))

    def test_random_element_is_the_seeded_basis_combination(self):
        # a basis with unrelated denominators, against the sum of scaled
        # basis elements under the same draws
        g2 = g2_fixed_subalgebra()
        sub = FixedSubalgebra([b.scale(Fraction(1, k + 2)) for k, b in enumerate(g2.basis)],
                              "scaled")
        for seed in range(5):
            rng = random.Random(seed)
            expected = So8Element.zero()
            for b in sub.basis:
                expected = expected + b.scale(rng.randint(-9, 9))
            assert sub.random_element(seed) == expected

    def test_random_element_rejects_bound_below_one(self):
        sub = g2_fixed_subalgebra()
        for bound in (0, -1):
            with pytest.raises(ValueError):
                sub.random_element(5, bound=bound)

    def test_ad_matrix_needs_one_coefficient_per_basis_element(self):
        sub = g2_fixed_subalgebra()
        for n in (sub.dim - 1, sub.dim + 1):
            with pytest.raises(ValueError):
                sub.ad_matrix([Fraction(1)] * n)

    @pytest.mark.parametrize("make", [g2_fixed_subalgebra, so7_fixed_subalgebra],
                             ids=["g2", "so7"])
    def test_ad_matrix_columns_are_brackets_in_span_coordinates(self, make):
        # column j of ad(x) is [x, b_j] in the basis, taken through the dense
        # bracket and the span solver rather than the stored structure table;
        # a transposed ad(x) keeps every centralizer dimension and fails here
        sub = make()
        for seed in (1, 2):
            rng = random.Random(seed)
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(sub.dim)]
            x = So8Element.zero()
            for c, b in zip(coeffs, sub.basis):
                x = x + b.scale(c)
            ad = sub.ad_matrix(coeffs)
            for j, bj in enumerate(sub.basis):
                column = tuple(ad[k][j] for k in range(sub.dim))
                assert column == sub.coords(bracket(x, bj))

    def test_shared_structure_table_is_read_only(self):
        # the fixed loci are cached, so a caller that could write into the
        # table would change what every later caller reads
        table = g2_fixed_subalgebra().structure_constants()
        with pytest.raises(TypeError):
            table[0][1] = None
        with pytest.raises(TypeError):
            table[0] = None
        assert g2_fixed_subalgebra().structure_constants()[0][1] is not None

    def test_dim_check_fires_for_corrupted_map(self):
        with pytest.raises(ConsistencyError):
            fixed_subalgebra(TrialityMap.corrupted())

    def test_fixed_locus_of_square_equals_fixed_locus(self):
        tmap = TrialityMap.standard()
        square = TrialityMap.standard()
        sub = fixed_subalgebra(tmap)
        squared_full = tmap.full * tmap.full
        for b in sub.basis:
            assert So8Element(squared_full.apply(b.coeffs)) == b
        delta = squared_full - SquareMatrix.identity(28)
        assert len(delta.kernel_basis()) == sub.dim


class TestIdentification:
    def test_g2_structure(self):
        report = identify_fixed_algebra(g2_fixed_subalgebra())
        assert report == {"dim": 14, "killing_nondegenerate": True, "rank": 2}

    def test_so7_structure(self):
        report = identify_fixed_algebra(so7_fixed_subalgebra())
        assert report == {"dim": 21, "killing_nondegenerate": True, "rank": 3}

    @pytest.mark.parametrize("make, factor", [(g2_fixed_subalgebra, 4),
                                              (so7_fixed_subalgebra, 5)],
                             ids=["g2", "so7"])
    def test_killing_form_is_a_multiple_of_the_trace_form(self, make, factor):
        # the oracle reads only the 8x8 matrices of the basis, never the
        # structure table: kappa = 4 Tr(XY) on g2 and 5 Tr(XY) on so(7)
        sub = make()
        kappa = killing_form(sub)
        for i, bi in enumerate(sub.basis):
            for j, bj in enumerate(sub.basis):
                assert kappa[i][j] == factor * bi.matrix.product_trace(bj.matrix)

    def test_abelian_subalgebra_is_degenerate(self):
        sub = FixedSubalgebra([So8Element.from_generator(Generator(0, 1)),
                               So8Element.from_generator(Generator(2, 3))],
                              tag="abelian")
        report = identify_fixed_algebra(sub)
        assert report["killing_nondegenerate"] is False
        assert killing_form(sub) == SquareMatrix.zero(2)

    def test_non_closed_span_raises(self):
        sub = FixedSubalgebra([So8Element.from_generator(Generator(0, 1)),
                               So8Element.from_generator(Generator(1, 2))],
                              tag="open")
        with pytest.raises(ConsistencyError):
            sub.structure_constants()


class TestIntersection:
    def test_dimension_and_common_fixedness(self):
        g2 = g2_fixed_subalgebra()
        so7 = so7_fixed_subalgebra()
        dim = span_intersection_dimension(g2, so7)
        assert dim >= 1
        common = intersection_basis(g2, so7)
        assert len(common) == dim
        for x in common:
            assert sigma(x) == x
            assert outer_involution(x) == x
