"""Invariant polynomials of so(8): trace powers, the Pfaffian, their spectral
coefficients, and the exact transformation law under the order-3 automorphism.

Sign conventions, fixed once here. The canonical block model B(l1..l4) is the
8x8 antisymmetric matrix with 2x2 diagonal blocks [[0, l], [-l, 0]]. For it

    det(B - x*I) = prod_i (x^2 + l_i^2),

so the characteristic polynomial of a real antisymmetric matrix carries the
elementary symmetric functions e_j of (l_1^2, ..., l_4^2) as its
x^(8-2j) coefficients, all with plus signs, while the trace powers satisfy
Tr(B^(2k)) = 2*(-1)^k * sum_i l_i^(2k). Newton's identities therefore run on
the power sums q_k = (-1)^k * Tr(M^(2k)) / 2:

    e1 = q1,  e2 = (q1^2 - q2)/2,  e3 = (q1^3 - 3 q1 q2 + 2 q3)/6,

and e4 = Pf(M)^2. The Pfaffian sign is pinned by the perfect-matching sum:
Pf(B(l1..l4)) = l1*l2*l3*l4, positive on the all-ones block model.

`spectral_coefficients` reads the same e_j off the principal minors instead:
e_j is the sum of the principal 2j x 2j minors of M, and by Cayley's identity
each of them is the square of the Pfaffian of its principal submatrix. So
e1..e3 come from the 28 + 70 + 28 principal sub-Pfaffians, independently of
the trace powers that Newton's identities use, and e4 = det(M) from Bareiss
elimination, independently of the Pfaffian. One first-point expansion serves
both: its levels 1-3 are these sub-Pfaffians, and its level 4, multiplied
out, is the 105-matching sum for Pf(M), which the 5040-term permutation sum
and the determinant check.

The transformation law under the order-3 automorphism is typed once, as the
degree-6 matrix T_MATRIX, and `sigma_transform_invariants` reads it off; the
restriction c3 to the fixed locus is evaluated by one function,
`c3_polynomial`, for its derived and its rejected coefficient sets.

Two closed-form coefficient sets that fail this derivation are kept below as
explicit rejected candidates (for the x^4 and x^2 coefficients in terms of
traces, and for the degree-6 restriction polynomial); the verification
report evaluates them next to the derived forms with a concrete witness, so
the discrepancy is demonstrated rather than asserted.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .automorphisms import sigma
from .exact import (ConsistencyError, Rational, SpanSolver, SquareMatrix, format_rational,
                    integer_rows, kernel_basis_of_rows)
from .so8 import So8Element

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _RationalFields:
    """The fields of a frozen dataclass of rationals, in declaration order:
    as a tuple, and as JSON rational strings."""

    def as_tuple(self) -> tuple[Rational, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def to_json(self) -> dict:
        return {f.name: format_rational(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class InvariantVector(_RationalFields):
    """The basis values (Tr M^2, Tr M^4, Tr M^6, Pf M) of an so(8) element."""

    p1: Rational
    p2: Rational
    p3: Rational
    pf: Rational


@dataclass(frozen=True)
class SpectralCoefficients(_RationalFields):
    """Elementary symmetric functions e_j of the squared block parameters."""

    e1: Rational
    e2: Rational
    e3: Rational
    e4: Rational


def tr_power(m: So8Element, k: int) -> Rational:
    """Trace of the k-th matrix power for even k; odd powers vanish identically
    on antisymmetric matrices, so asking for one is treated as a caller bug."""
    if k % 2 != 0 or k < 2:
        raise ValueError(f"trace power wants an even exponent >= 2, got {k}")
    return m.matrix.power(k).trace()


def canonical_block_element(lams: Sequence[Rational]) -> So8Element:
    """The canonical block model B(l1..l4) as an so(8) element."""
    if len(lams) != 4:
        raise ValueError(f"block model takes 4 parameters, got {len(lams)}")
    rows = [[_ZERO] * 8 for _ in range(8)]
    for t, lam in enumerate(lams):
        rows[2 * t][2 * t + 1] = Fraction(lam)
        rows[2 * t + 1][2 * t] = -Fraction(lam)
    return So8Element.from_matrix(SquareMatrix(rows))


# ---------------------------------------------------------------------------
# Pfaffian, two ways. Pf^2 = det is the third, independent oracle; that
# Bareiss determinant is also e4 in spectral_coefficients below.
# ---------------------------------------------------------------------------

@functools.cache
def _matching_terms() -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The 105 signed perfect matchings (sign, ((a, b), (c, d), (e, f), (g, h)))
    of the 8 points: the level-4 entry of `_sub_pfaffian_expansions`, Pf of
    {0..7} along its first point, multiplied out through the levels below."""
    expanded = [((1, ()),)]  # the empty set has the one empty matching
    for level in _sub_pfaffian_expansions():
        expanded = [tuple((sign * s, ((a, b),) + pairs)
                          for sign, a, b, rest in terms for s, pairs in expanded[rest])
                    for terms in level]
    (terms,) = expanded
    return terms


def pfaffian_matchings(m: So8Element) -> Rational:
    """Pfaffian as the signed sum over the 105 perfect matchings of 8 points,
    on the integer numerators N of M = N / den: Pf(M) = Pf(N) / den^4."""
    mat = m.matrix
    n = mat.numerators
    total = 0
    for sign, ((a, b), (c, d), (e, f), (g, h)) in _matching_terms():
        total += sign * n[a][b] * n[c][d] * n[e][f] * n[g][h]
    return Fraction(total, mat.denominator ** 4)


def _permutations_with_parity(n: int):
    """Yield (p, parity) over the permutations p of 1..n. Each is built from
    a permutation of 1..n-1 by inserting n, and inserting it at index i of p
    adds len(p) - i inversions, so the parity is carried along."""
    if n == 0:
        yield (), 0
        return
    for p, parity in _permutations_with_parity(n - 1):
        for i in range(n):
            yield p[:i] + (n,) + p[i:], (parity + n - 1 - i) % 2


@functools.cache
def _s7_terms() -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """The 5040 terms of the permutation sum as row-major flat indices into
    the 8x8 matrix, (p1, 8 p2 + p3, 8 p4 + p5, 8 p6 + p7) for the entries
    M[0][p1] M[p2][p3] M[p4][p5] M[p6][p7]: the even permutations, then the
    odd ones."""
    even, odd = [], []
    for p, parity in _permutations_with_parity(7):
        (odd if parity else even).append((p[0], 8 * p[1] + p[2], 8 * p[3] + p[4], 8 * p[5] + p[6]))
    return tuple(even), tuple(odd)


def pfaffian_permutation_sum(m: So8Element) -> Rational:
    """The paper's literal permutation sum: over the 5040 permutations p of
    {1..7}, sign(p) * M[0][p1] M[p2][p3] M[p4][p5] M[p6][p7], prefactor 1/(3! * 2^3)."""
    mat = m.matrix
    n = [x for row in mat.numerators for x in row]
    even, odd = _s7_terms()
    total = (sum(n[a] * n[b] * n[c] * n[d] for a, b, c, d in even)
             - sum(n[a] * n[b] * n[c] * n[d] for a, b, c, d in odd))
    return Fraction(total, 48 * mat.denominator ** 4)


def invariant_vector(m: So8Element) -> InvariantVector:
    """(Tr M^2, Tr M^4, Tr M^6, Pf M), all exact, on the integer numerators N
    of M = N / den. S = N^2 = -N N^t is symmetric, so only its upper triangle
    is formed: Tr N^2 = sum_i S_ii and Tr N^4 = sum_ij S_ij^2. T = S N = N^3
    is antisymmetric, T_ij = -<S_i, N_j>, so Tr N^6 = -sum_ij T_ij^2 needs
    its 28 upper entries. The traces are divided by den^2, den^4 and den^6."""
    mat = m.matrix
    n = mat.numerators
    s = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(i, 8):
            s[i][j] = s[j][i] = -sum(map(mul, n[i], n[j]))
    diagonal = [s[i][i] for i in range(8)]
    off_diagonal = sum(s[i][j] ** 2 for i in range(8) for j in range(i + 1, 8))
    t_upper = sum(sum(map(mul, s[i], n[j])) ** 2 for i in range(8) for j in range(i + 1, 8))
    den2 = mat.denominator ** 2
    return InvariantVector(Fraction(sum(diagonal), den2),
                           Fraction(sum(x * x for x in diagonal) + 2 * off_diagonal, den2 ** 2),
                           Fraction(-2 * t_upper, den2 ** 3),
                           pfaffian_matchings(m))


# ---------------------------------------------------------------------------
# Spectral coefficients from principal sub-Pfaffians, and Newton's identities
# ---------------------------------------------------------------------------

@functools.cache
def _sub_pfaffian_expansions() -> tuple[tuple[tuple[tuple[int, int, int, int], ...], ...], ...]:
    """For j = 1..4, one entry per 2j-subset S of {0..7} in lexicographic
    order: the expansion of Pf(S) along its first point s0, as the terms
    (sign, s0, s, rest) of sign * M[s0][s] * Pf(S minus {s0, s}), where rest
    indexes the (2j-2)-subset in the level before (the empty set has Pf 1).
    The sign is that of the permutation (s0 s ...) relative to S, the
    matching-sum convention. `spectral_coefficients` reads levels 1-3 and
    `_matching_terms` level 4."""
    levels = []
    previous = {(): 0}
    for j in (1, 2, 3, 4):
        subsets = list(itertools.combinations(range(8), 2 * j))
        levels.append(tuple(
            tuple((1 if t % 2 == 1 else -1, s[0], s[t], previous[s[1:t] + s[t + 1:]])
                  for t in range(1, 2 * j))
            for s in subsets))
        previous = {s: k for k, s in enumerate(subsets)}
    return tuple(levels)


def spectral_coefficients(m: So8Element) -> SpectralCoefficients:
    """e1..e4 as sums of principal minors, on the integer numerators N of
    M = N / den: e_j = sum over 2j-subsets S of Pf(N_S)^2 / den^(2j) for
    j = 1, 2, 3, and e4 = det(M) by Bareiss elimination."""
    mat = m.matrix
    n = mat.numerators
    pfs = [1]
    coeffs = []
    for j, expansions in enumerate(_sub_pfaffian_expansions()[:3], start=1):
        pfs = [sum(sign * n[a][b] * pfs[rest] for sign, a, b, rest in terms)
               for terms in expansions]
        coeffs.append(Fraction(sum(pf * pf for pf in pfs), mat.denominator ** (2 * j)))
    return SpectralCoefficients(*coeffs, mat.determinant())


def newton_coefficients(v: InvariantVector) -> SpectralCoefficients:
    """Convert trace powers to spectral coefficients via Newton's identities."""
    q1 = -v.p1 / 2
    q2 = v.p2 / 2
    q3 = -v.p3 / 2
    e1 = q1
    e2 = (q1 * q1 - q2) / 2
    e3 = (q1 ** 3 - 3 * q1 * q2 + 2 * q3) / 6
    return SpectralCoefficients(e1, e2, e3, v.pf * v.pf)


def candidate_eta4_coefficient(v: InvariantVector) -> Rational:
    """Rejected candidate for the x^4 coefficient: p1^2/4 + p2/8.

    Kept so the verification report can show, with a witness, that it
    disagrees with the characteristic-polynomial coefficient e2."""
    return v.p1 ** 2 / 4 + v.p2 / 8


def candidate_eta2_coefficient(v: InvariantVector) -> Rational:
    """Rejected candidate for the x^2 coefficient: p1^3/48 - 6 p1 p2 + 8 p3."""
    return v.p1 ** 3 / 48 - 6 * v.p1 * v.p2 + 8 * v.p3


# ---------------------------------------------------------------------------
# Transformation law under the order-3 automorphism
# ---------------------------------------------------------------------------

# the transformation law, typed once: T maps the degree-6 monomials of v,
# (p1^3, p1*p2, p1*pf, p3), to those of its image
T_MATRIX = SquareMatrix([
    [_ONE, _ZERO, _ZERO, _ZERO],
    [Fraction(3, 8), Fraction(-1, 2), Fraction(-12), _ZERO],
    [Fraction(-1, 64), Fraction(1, 16), Fraction(-1, 2), _ZERO],
    [Fraction(15, 64), Fraction(-15, 16), Fraction(-15, 2), _ONE],
])

# the degree-6 functionals p1^3 and 5*p1*p2 - 8*p3 on the basis of T_MATRIX,
# both invariant under the order-3 action
DEGREE6_INVARIANTS = ((1, 0, 0, 0), (0, 5, 0, -8))


def degree6_monomials(v: InvariantVector) -> tuple[Rational, Rational, Rational, Rational]:
    """(p1^3, p1*p2, p1*pf, p3), the basis order of T_MATRIX."""
    return (v.p1 ** 3, v.p1 * v.p2, v.p1 * v.pf, v.p3)


def sigma_transform_invariants(v: InvariantVector) -> InvariantVector:
    """Closed-form images of (p1, p2, p3, pf) under the order-3 automorphism,
    read off the integer rows of T_MATRIX over its denominator: p1 is fixed,
    so rows 1 and 2 applied to (p1^2, p2, pf) give p2 and pf, and row 3
    applied to the degree-6 monomials gives p3.

    These four identities are the content of the headline check: applied to
    invariant_vector(m) they must reproduce invariant_vector(sigma(m))
    exactly, and iterating them three times is the identity."""
    _, p2_row, pf_row, p3_row = T_MATRIX.numerators
    den = T_MATRIX.denominator
    quartic = (v.p1 ** 2, v.p2, v.pf)
    return InvariantVector(v.p1,
                           sum(map(mul, p2_row[:3], quartic)) / den,
                           sum(map(mul, p3_row, degree6_monomials(v))) / den,
                           sum(map(mul, pf_row[:3], quartic)) / den)


def fixed_degree6_space() -> list[tuple[int, ...]]:
    """Basis of the +1-eigenspace of T^t: the degree-6 functionals invariant
    under the order-3 action. Verified to be 2-dimensional and to contain
    the functionals DEGREE6_INVARIANTS in its span."""
    basis = (T_MATRIX.transpose() - SquareMatrix.identity(4)).kernel_basis()
    if len(basis) != 2:
        raise ConsistencyError(f"degree-6 fixed space has dimension {len(basis)}, want 2")
    solver = SpanSolver(basis)
    for probe in DEGREE6_INVARIANTS:
        if solver.coords(probe) is None:
            raise ConsistencyError(f"degree-6 fixed space misses functional {probe}")
    return basis


C3_COEFFICIENTS: tuple[Rational, Rational, Rational] = (
    Fraction(1, 48), Fraction(-1, 8), Fraction(1, 6))

CANDIDATE_C3_COEFFICIENTS: tuple[Rational, Rational, Rational] = (
    Fraction(1, 16), Fraction(-5), Fraction(8))


def g2_restriction(m: So8Element) -> tuple[Rational, Rational]:
    """Restriction of the invariants to the fixed locus: the pair (c1, c3).

    Requires m fixed by the order-3 automorphism. c1 = p1/2; c3 is the
    degree-6 generator in its Newton-identity representative

        c3 = p1^3/48 - p1*p2/8 + p3/6,

    the representative singled out by derive_c3_coefficients()."""
    if sigma(m) != m:
        raise ValueError("element is not fixed by the order-3 automorphism")
    v = invariant_vector(m)
    return (v.p1 / 2, c3_polynomial(C3_COEFFICIENTS, v.p1, v.p2, v.p3))


def c3_polynomial(coeffs: tuple[Rational, Rational, Rational],
                  p1: Rational, p2: Rational, p3: Rational) -> Rational:
    """a*p1^3 + b*p1*p2 + g*p3 for coeffs = (a, b, g): the restriction c3
    with C3_COEFFICIENTS, and its rejected candidate with
    CANDIDATE_C3_COEFFICIENTS."""
    a, b, g = coeffs
    return a * p1 ** 3 + b * p1 * p2 + g * p3


def eta_model_values(h1: Rational, h2: Rational) -> tuple[Rational, Rational, Rational, Rational]:
    """Trace data (p1, p2, p3) and target c3 for the eigenvalue model.

    The model spectrum is {0, 0, +-h1, +-h2, +-h3} with h3 = -h1 - h2, the
    eigenvalue pattern of the fixed locus in its 8-dimensional representation
    (over a splitting field). Trace powers are p_k = 2*sum h_i^(2k) and the
    degree-6 generator takes the value (h1*h2*h3)^2."""
    h1 = Fraction(h1)
    h2 = Fraction(h2)
    h3 = -h1 - h2
    p1 = 2 * (h1 ** 2 + h2 ** 2 + h3 ** 2)
    p2 = 2 * (h1 ** 4 + h2 ** 4 + h3 ** 4)
    p3 = 2 * (h1 ** 6 + h2 ** 6 + h3 ** 6)
    return p1, p2, p3, (h1 * h2 * h3) ** 2


ETA_MODEL_POINTS: tuple[tuple[Rational, Rational], ...] = tuple(
    (Fraction(a), Fraction(b)) for a, b in
    [(1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 4), (1, 4), (2, 5), (3, 5),
     (1, 5), (4, 5), (1, 6), (5, 6), (2, 7), (7, 1), (1, 7), (3, 7), (5, 7), (2, 9)]
) + ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(-5, 4)))


def derive_c3_coefficients() -> dict:
    """Solve for the degree-6 restriction coefficients against the eigenvalue
    model and document the outcome.

    On the fixed locus p2 = p1^2/4, so p1*p2 and p1^3 are proportional there
    and the solution family of  a*p1^3 + b*p1*p2 + g*p3 = c3  is a line. The
    returned report confirms the family is exactly 1-dimensional, that the
    Newton-identity representative lies on it, and that the rejected
    candidate coefficients do not, with an explicit witness point."""
    model = [eta_model_values(h1, h2) for h1, h2 in ETA_MODEL_POINTS]
    kernel = kernel_basis_of_rows(
        integer_rows([[p1 ** 3, p1 * p2, p3] for p1, p2, p3, _ in model])[0], 3)

    def residuals(coeffs):
        return [c3_polynomial(coeffs, p1, p2, p3) - c3 for p1, p2, p3, c3 in model]

    newton_ok = not any(residuals(C3_COEFFICIENTS))
    candidate_residuals = residuals(CANDIDATE_C3_COEFFICIENTS)
    candidate_ok = not any(candidate_residuals)

    witness = None
    miss = next((k for k, r in enumerate(candidate_residuals) if r), None)
    if miss is not None:
        (h1, h2), c3 = ETA_MODEL_POINTS[miss], model[miss][3]
        witness = {
            "eta": [format_rational(h1), format_rational(h2), format_rational(-h1 - h2)],
            "expected": format_rational(c3),
            "candidate_value": format_rational(candidate_residuals[miss] + c3),
        }

    return {
        "kernel_dimension": len(kernel),
        "newton_representative_confirmed": newton_ok,
        "candidate_confirmed": candidate_ok,
        "witness": witness,
    }


def eigenstructure_check(m: So8Element, tag: str, v: Optional[InvariantVector] = None,
                         e: Optional[SpectralCoefficients] = None) -> dict:
    """Coefficient-level consequences of the eigenvalue pattern claimed for `tag`.

    so8: no constraint (reported as generic). so7: two zero eigenvalues force
    e4 = 0 and Pf = 0. g2: additionally the zero-sum eigenvalue triple forces
    e2 = e1^2/4 and Tr(M^4) = Tr(M^2)^2/4, the degree-6 restriction c3 of
    g2_restriction() equals -e3, and m must be fixed by the order-3 map.

    A caller that already holds invariant_vector(m) or
    spectral_coefficients(m) passes it as v or e instead of recomputing it."""
    if tag not in ("so8", "so7", "g2"):
        raise ValueError(f"unknown tag {tag!r}; expected so8, so7 or g2")
    if v is None:
        v = invariant_vector(m)
    if e is None:
        e = spectral_coefficients(m)
    constraints: dict[str, bool] = {}
    if tag in ("so7", "g2"):
        constraints["pf_zero"] = v.pf == 0
        constraints["e4_zero"] = e.e4 == 0
    if tag == "g2":
        constraints["e2_is_quarter_e1_squared"] = 4 * e.e2 == e.e1 ** 2
        constraints["p2_is_quarter_p1_squared"] = 4 * v.p2 == v.p1 ** 2
        constraints["c3_is_minus_e3"] = c3_polynomial(C3_COEFFICIENTS, v.p1, v.p2, v.p3) == -e.e3
        constraints["sigma_fixed"] = sigma(m) == m
    if tag == "so8":
        status = "generic"
    else:
        status = "pass" if all(constraints.values()) else "fail"
    return {
        "tag": tag,
        "status": status,
        "constraints": constraints,
        "invariants": v.to_json(),
        "spectral": e.to_json(),
    }
