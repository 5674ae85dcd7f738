"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every assertion is an identity over the rationals; there are no tolerances
anywhere. Each test prints a one-line summary so a verbose run reads as a
checklist. Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import subprocess
import sys
from fractions import Fraction

from triality.automorphisms import (ORDER3_BLOCK, g2_fixed_subalgebra,
                                    identify_fixed_algebra, sigma,
                                    so7_fixed_subalgebra)
from triality.exact import SquareMatrix
from triality.invariants import (C3_COEFFICIENTS, CANDIDATE_C3_COEFFICIENTS,
                                 ETA_MODEL_POINTS, T_MATRIX,
                                 canonical_block_element,
                                 eta_model_values, fixed_degree6_space,
                                 g2_restriction, invariant_vector,
                                 newton_coefficients, pfaffian_matchings,
                                 pfaffian_permutation_sum,
                                 sigma_transform_invariants,
                                 spectral_coefficients)
from triality.octonion import (basis_product, is_algebra_automorphism,
                               rotation_matrix)
from triality.so8 import GENERATORS, So8Element, quadruples, random_element
from triality.verify import RunConfig, build_report

SEED = 42
BOUND = 9


def _ok(line):
    print(f"PASS {line}")


def test_criterion_01_octonion_table():
    for i in range(1, 8):
        assert basis_product(i, i) == (0, -1)
        for j in range(1, 8):
            if i != j:
                k, s = basis_product(i, j)
                assert k != 0 and s in (1, -1)
                assert basis_product(j, i) == (k, -s)
    for j in range(8):
        assert basis_product(0, j) == (j, 1)
        assert basis_product(j, 0) == (j, 1)
    assert basis_product(5, 2) == (3, 1)
    assert is_algebra_automorphism(rotation_matrix())
    _ok("criterion 1: octonion table (64 products, anchor e5*e2=e3, "
        "rotation is an automorphism)")


def test_criterion_02_quadruple_partition():
    seen = [g for q in quadruples() for g in q.generators]
    assert len(seen) == 28
    assert sorted(seen) == sorted(GENERATORS)
    _ok("criterion 2: the seven quadruples partition the 28 generators")


def test_criterion_03_block_identities():
    assert ORDER3_BLOCK * ORDER3_BLOCK == ORDER3_BLOCK.transpose()
    assert ORDER3_BLOCK.power(3) == SquareMatrix.identity(4)
    _ok("criterion 3: block constant satisfies B^2 = B^T and B^3 = I")


def test_criterion_04_sigma_is_order3_automorphism():
    for g in GENERATORS:
        e = So8Element.from_generator(g)
        assert sigma(sigma(sigma(e))) == e
    entries = build_report(RunConfig(samples=100, seed=SEED, bound=BOUND, suite="triality"))
    report = next(e for e in entries if e["check_id"] == "triality.bracket_preservation")
    assert report["status"] == "pass"
    assert report["violations"] == 0
    assert report["pairs_checked"] == 28 * 28 + 100
    _ok("criterion 4: order-3 automorphism (sigma^3 = id on the basis; "
        "bracket preserved on 784 basis pairs + 100 random pairs)")


def test_criterion_05_fixed_subalgebras():
    g2 = g2_fixed_subalgebra()
    assert g2.dim == 14
    g2.structure_constants()  # closure, exact linear solves
    assert identify_fixed_algebra(g2) == {
        "dim": 14, "killing_nondegenerate": True, "rank": 2}
    so7 = so7_fixed_subalgebra()
    assert so7.dim == 21
    assert identify_fixed_algebra(so7) == {
        "dim": 21, "killing_nondegenerate": True, "rank": 3}
    _ok("criterion 5: fixed subalgebras certified (dim 14, semisimple, rank 2; "
        "dim 21, rank 3)")


def test_criterion_06_transformation_law_headline():
    for k in range(100):
        m = random_element(SEED + k, BOUND)
        assert invariant_vector(sigma(m)) == \
            sigma_transform_invariants(invariant_vector(m))
    _ok("criterion 6: invariant vector of sigma(m) matches the four "
        "closed-form expressions on 100 seeded elements (headline check)")


def test_criterion_07_t_matrix():
    assert T_MATRIX.power(3) == SquareMatrix.identity(4)
    assert T_MATRIX.power(2) == SquareMatrix([
        [Fraction(1), 0, 0, 0],
        [Fraction(3, 8), Fraction(-1, 2), Fraction(12), 0],
        [Fraction(1, 64), Fraction(-1, 16), Fraction(-1, 2), 0],
        [Fraction(15, 64), Fraction(-15, 16), Fraction(15, 2), Fraction(1)],
    ])
    basis = fixed_degree6_space()  # also asserts the two spanning functionals
    assert len(basis) == 2
    _ok("criterion 7: T^3 = I, T^2 entrywise, and the invariant degree-6 "
        "space is exactly the span of p1^3 and 5 p1 p2 - 8 p3")


def test_criterion_08_pfaffian():
    for k in range(50):
        m = random_element(SEED + k, BOUND)
        value = pfaffian_matchings(m)
        assert pfaffian_permutation_sum(m) == value
        assert value ** 2 == m.matrix.determinant()
    tuples = [(1, 2, 3, 4), (1, 1, 1, 1), (2, 3, 5, 7), (0, 1, 2, 3),
              (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
              (Fraction(-3, 2), 2, 5, 1), (9, 9, 9, 9), (1, -1, 1, -1),
              (Fraction(7, 4), Fraction(-2, 3), 6, Fraction(11, 5)), (4, 0, 0, 4)]
    for lams in tuples:
        expected = Fraction(1)
        for l in lams:
            expected *= Fraction(l)
        assert pfaffian_matchings(canonical_block_element(list(lams))) == expected
    _ok("criterion 8: matching-sum and S7 permutation-sum Pfaffians agree on 50 "
        "samples, Pf^2 = det, and 10 block models give l1*l2*l3*l4")


def test_criterion_09_newton_oracle_and_coefficient_discrepancies():
    for k in range(100):
        m = random_element(SEED + k, BOUND)
        assert newton_coefficients(invariant_vector(m)) == spectral_coefficients(m)
    entries = {e["check_id"]: e
               for e in build_report(RunConfig(samples=2, seed=SEED, suite="invariants"))}
    for check_id in ("invariants.eta4_coefficient_discrepancy",
                     "invariants.eta2_coefficient_discrepancy"):
        entry = entries[check_id]
        assert entry["status"] == "discrepancy-confirmed"
        witness = entry["witness"]
        assert witness["candidate_value"] != witness["derived_value"]
        assert witness["derived_value"] == witness["char_poly_coefficient"]
    _ok("criterion 9: Newton identities match the characteristic polynomial "
        "on 100 samples; both rejected candidate coefficients confirmed "
        "discrepant with explicit witnesses")


def test_criterion_10_restrictions():
    g2 = g2_fixed_subalgebra()
    for k in range(50):
        m = g2.random_element(SEED + k, BOUND)
        v = invariant_vector(m)
        e = spectral_coefficients(m)
        assert v.pf == 0
        assert 4 * v.p2 == v.p1 ** 2
        assert 4 * e.e2 == e.e1 ** 2
        c1, _ = g2_restriction(m)
        assert c1 == v.p1 / 2
    assert len(ETA_MODEL_POINTS) >= 20
    a, b, g = C3_COEFFICIENTS
    for (h1, h2) in ETA_MODEL_POINTS:
        p1, p2, p3, c3 = eta_model_values(h1, h2)
        assert a * p1 ** 3 + b * p1 * p2 + g * p3 == c3
    p1, p2, p3, c3 = eta_model_values(Fraction(1), Fraction(1))
    assert c3 == 4
    ca, cb, cg = CANDIDATE_C3_COEFFICIENTS
    assert ca * p1 ** 3 + cb * p1 * p2 + cg * p3 == -996  # candidate rejected
    so7 = so7_fixed_subalgebra()
    for k in range(50):
        m = so7.random_element(SEED + k, BOUND)
        assert invariant_vector(m).pf == 0
        assert spectral_coefficients(m).e4 == 0
    _ok("criterion 10: fixed-locus restrictions (pf = 0, p2 = p1^2/4, "
        "e2 = e1^2/4, c1 = p1/2; c3 model on 20+ points with (1,1,-2) -> 4 "
        "and candidate -996 rejected; so(7) locus pf = 0 = e4)")


def _run(*args):
    return subprocess.run([sys.executable, "-m", "triality.cli", *args],
                          capture_output=True)


def test_criterion_11_determinism_and_exit_codes():
    args = ("verify", "--seed", "42", "--samples", "3", "--suite", "octonion",
            "--json")
    first = _run(*args)
    second = _run(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout.decode())["status"] == "pass"

    corrupted = _run("verify", "--seed", "42", "--samples", "1",
                     "--suite", "triality", "--corrupt-constant", "--json")
    assert corrupted.returncode == 1
    payload = json.loads(corrupted.stdout.decode())
    bracket_entry = [e for e in payload["checks"]
                     if e["check_id"] == "triality.bracket_preservation"][0]
    assert "counterexample" in bracket_entry

    assert _run("verify", "--samples", "0").returncode == 2
    _ok("criterion 11: byte-identical reports for identical configs; exit "
        "codes 0/1/2 honored, including the corrupted-constant negative control")
