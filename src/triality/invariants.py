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

Two closed-form coefficient sets that fail this derivation are kept below as
explicit rejected candidates (for the x^4 and x^2 coefficients in terms of
traces, and for the degree-6 restriction polynomial); the verification
report evaluates them next to the derived forms with a concrete witness, so
the discrepancy is demonstrated rather than asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .automorphisms import sigma
from .exact import (ConsistencyError, Polynomial, Rational, SpanSolver,
                    SquareMatrix, format_rational, kernel_basis_of_rows)
from .so8 import So8Element

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class InvariantVector:
    """The basis values (Tr M^2, Tr M^4, Tr M^6, Pf M) of an so(8) element."""

    p1: Rational
    p2: Rational
    p3: Rational
    pf: Rational

    def as_tuple(self) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.p1, self.p2, self.p3, self.pf)

    def to_json(self) -> dict:
        return {k: format_rational(v) for k, v in
                (("p1", self.p1), ("p2", self.p2), ("p3", self.p3), ("pf", self.pf))}


@dataclass(frozen=True)
class SpectralCoefficients:
    """Elementary symmetric functions e_j of the squared block parameters."""

    e1: Rational
    e2: Rational
    e3: Rational
    e4: Rational

    def as_tuple(self) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.e1, self.e2, self.e3, self.e4)

    def to_json(self) -> dict:
        return {k: format_rational(v) for k, v in
                (("e1", self.e1), ("e2", self.e2), ("e3", self.e3), ("e4", self.e4))}


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
# Pfaffian, two ways (Pf^2 = det is the third, independent oracle)
# ---------------------------------------------------------------------------

def _matchings(points: tuple[int, ...]):
    """Yield (sign, pairs) over all perfect matchings of the given points.

    The sign is that of the permutation (i1 j1 i2 j2 ...) relative to the
    sorted point list, which is the matching-sum convention."""
    if not points:
        yield 1, []
        return
    i0 = points[0]
    for t in range(1, len(points)):
        j = points[t]
        rest = points[1:t] + points[t + 1:]
        sign_here = 1 if t % 2 == 1 else -1
        for sign, pairs in _matchings(rest):
            yield sign_here * sign, [(i0, j)] + pairs


def pfaffian_matchings(m: So8Element) -> Rational:
    """Pfaffian as the signed sum over the 105 perfect matchings of 8 points."""
    mat = m.matrix
    total = _ZERO
    for sign, pairs in _matchings(tuple(range(8))):
        term = Fraction(sign)
        for (i, j) in pairs:
            term *= mat[i][j]
            if term == 0:
                break
        total += term
    return total


def _integer_rows(mat: SquareMatrix) -> tuple[list[list[int]], int]:
    den = lcm(*(x.denominator for row in mat.rows for x in row))
    return [[int(x * den) for x in row] for row in mat.rows], den


def _permutation_sign(perm: Sequence[int]) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


_S7_TERMS: Optional[list[tuple[int, tuple[int, ...]]]] = None


def pfaffian_permutation_sum(m: So8Element) -> Rational:
    """The paper's literal permutation sum: over the 5040 permutations p of
    {1..7}, sign(p) * M[0][p1] M[p2][p3] M[p4][p5] M[p6][p7], prefactor 1/(3! * 2^3)."""
    global _S7_TERMS
    if _S7_TERMS is None:
        _S7_TERMS = [(_permutation_sign(p), p)
                     for p in itertools.permutations(range(1, 8))]
    rows, den = _integer_rows(m.matrix)
    total = 0
    for sign, p in _S7_TERMS:
        total += sign * rows[0][p[0]] * rows[p[1]][p[2]] * rows[p[3]][p[4]] * rows[p[5]][p[6]]
    return Fraction(total, 48) / den ** 4


def invariant_vector(m: So8Element) -> InvariantVector:
    """(Tr M^2, Tr M^4, Tr M^6, Pf M), all exact."""
    mat = m.matrix
    m2 = mat * mat
    m4 = m2 * m2
    m6 = m4 * m2
    return InvariantVector(m2.trace(), m4.trace(), m6.trace(), pfaffian_matchings(m))


# ---------------------------------------------------------------------------
# Spectral coefficients and Newton's identities
# ---------------------------------------------------------------------------

def spectral_coefficients(m: So8Element) -> SpectralCoefficients:
    """Read e1..e4 off the characteristic polynomial det(M - x*I).

    For antisymmetric M the polynomial is even; the odd coefficients are
    asserted to vanish as an internal sanity check."""
    cp: Polynomial = m.matrix.char_poly()
    for odd in (1, 3, 5, 7):
        if cp.coefficient(odd) != 0:
            raise ConsistencyError("characteristic polynomial has an odd term")
    if cp.coefficient(8) != 1:
        raise ConsistencyError("characteristic polynomial is not monic in degree 8")
    return SpectralCoefficients(cp.coefficient(6), cp.coefficient(4),
                                cp.coefficient(2), cp.coefficient(0))


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

def sigma_transform_invariants(v: InvariantVector) -> InvariantVector:
    """Closed-form images of (p1, p2, p3, pf) under the order-3 automorphism.

    These four identities are the content of the headline check: applied to
    invariant_vector(m) they must reproduce invariant_vector(sigma(m))
    exactly, and iterating them three times is the identity."""
    p1, p2, p3, pf = v.as_tuple()
    return InvariantVector(
        p1,
        Fraction(3, 8) * p1 ** 2 - Fraction(1, 2) * p2 - 12 * pf,
        Fraction(15, 64) * p1 ** 3 - Fraction(15, 16) * p1 * p2
        - Fraction(15, 2) * p1 * pf + p3,
        -Fraction(1, 64) * p1 ** 2 + Fraction(1, 16) * p2 - Fraction(1, 2) * pf,
    )


# degree-6 monomial basis order: (p1^3, p1*p2, p1*pf, p3)
T_MATRIX = SquareMatrix([
    [_ONE, _ZERO, _ZERO, _ZERO],
    [Fraction(3, 8), Fraction(-1, 2), Fraction(-12), _ZERO],
    [Fraction(-1, 64), Fraction(1, 16), Fraction(-1, 2), _ZERO],
    [Fraction(15, 64), Fraction(-15, 16), Fraction(-15, 2), _ONE],
])


def t_matrix(power: int = 1) -> SquareMatrix:
    """The degree-6 transformation matrix raised to a non-negative power."""
    return T_MATRIX.power(power)


def fixed_degree6_space() -> list[tuple[Rational, ...]]:
    """Basis of the +1-eigenspace of T^t: the degree-6 functionals invariant
    under the order-3 action. Verified to be 2-dimensional and to contain
    the functionals p1^3 and 5*p1*p2 - 8*p3 in its span."""
    delta = T_MATRIX.transpose() - SquareMatrix.identity(4)
    basis = kernel_basis_of_rows([list(r) for r in delta.rows], 4)
    if len(basis) != 2:
        raise ConsistencyError(f"degree-6 fixed space has dimension {len(basis)}, want 2")
    solver = SpanSolver([list(b) for b in basis])
    for probe in ((_ONE, _ZERO, _ZERO, _ZERO),
                  (_ZERO, Fraction(5), _ZERO, Fraction(-8))):
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
    c1 = v.p1 / 2
    a, b, g = C3_COEFFICIENTS
    c3 = a * v.p1 ** 3 + b * v.p1 * v.p2 + g * v.p3
    return (c1, c3)


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
    rows = []
    rhs = []
    for (h1, h2) in ETA_MODEL_POINTS:
        p1, p2, p3, c3 = eta_model_values(h1, h2)
        rows.append([p1 ** 3, p1 * p2, p3])
        rhs.append(c3)

    kernel = kernel_basis_of_rows(rows, 3)

    def residuals(coeffs):
        a, b, g = coeffs
        out = []
        for row, target in zip(rows, rhs):
            value = a * row[0] + b * row[1] + g * row[2]
            out.append(value - target)
        return out

    newton_ok = all(r == 0 for r in residuals(C3_COEFFICIENTS))
    candidate_residuals = residuals(CANDIDATE_C3_COEFFICIENTS)
    candidate_ok = all(r == 0 for r in candidate_residuals)

    witness = None
    for (point, res) in zip(ETA_MODEL_POINTS, candidate_residuals):
        if res != 0:
            h1, h2 = point
            p1, p2, p3, c3 = eta_model_values(h1, h2)
            a, b, g = CANDIDATE_C3_COEFFICIENTS
            witness = {
                "eta": [format_rational(h1), format_rational(h2), format_rational(-h1 - h2)],
                "expected": format_rational(c3),
                "candidate_value": format_rational(a * p1 ** 3 + b * p1 * p2 + g * p3),
            }
            break

    return {
        "derived_coefficients": [format_rational(c) for c in C3_COEFFICIENTS],
        "kernel_dimension": len(kernel),
        "kernel_direction": [format_rational(c) for c in kernel[0]] if kernel else [],
        "newton_representative_confirmed": newton_ok,
        "candidate_coefficients": [format_rational(c) for c in CANDIDATE_C3_COEFFICIENTS],
        "candidate_confirmed": candidate_ok,
        "witness": witness,
    }


def eigenstructure_check(m: So8Element, tag: str) -> dict:
    """Coefficient-level consequences of the eigenvalue pattern claimed for `tag`.

    so8: no constraint (reported as generic). so7: two zero eigenvalues force
    e4 = 0 and Pf = 0. g2: additionally the zero-sum eigenvalue triple forces
    e2 = e1^2/4 and Tr(M^4) = Tr(M^2)^2/4."""
    if tag not in ("so8", "so7", "g2"):
        raise ValueError(f"unknown tag {tag!r}; expected so8, so7 or g2")
    v = invariant_vector(m)
    e = spectral_coefficients(m)
    constraints: dict[str, bool] = {}
    if tag in ("so7", "g2"):
        constraints["pf_zero"] = v.pf == 0
        constraints["e4_zero"] = e.e4 == 0
    if tag == "g2":
        constraints["e2_is_quarter_e1_squared"] = 4 * e.e2 == e.e1 ** 2
        constraints["p2_is_quarter_p1_squared"] = 4 * v.p2 == v.p1 ** 2
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
