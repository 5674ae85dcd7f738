"""The order-3 automorphism of so(8), the order-2 outer involution, and
their fixed subalgebras.

The order-3 map acts on each quadruple of generators through the 4x4 block

    B = 1/2 * [[-1, -1, -1, -1],
               [ 1,  1, -1, -1],
               [ 1, -1,  1, -1],
               [ 1, -1, -1,  1]]

which satisfies B^2 = B^T and B^3 = I. The block acts in the quadruple's
slot basis, i.e. on the signed generators recorded by the quadruple
normalization; concretely the full 28x28 coefficient matrix restricted to a
quadruple is S*B*S with S the diagonal of slot signs. Getting those signs
wrong still yields an order-3 map, but not a Lie algebra automorphism, so
the bracket-preservation suite is the guard for this one construction site.

The fixed subalgebra of the order-3 map is 14-dimensional and is certified
to be the exceptional rank-2 simple algebra structurally: dimension 14,
nondegenerate Killing form (semisimple), rank 2 via generic centralizers.
The order-2 involution (conjugation by diag(1,...,1,-1), an orthogonal
matrix of determinant -1) fixes the obvious so(7), dimension 21, rank 3.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (ConsistencyError, Rational, SpanSolver, SquareMatrix,
                    format_rational, kernel_basis_of_rows, primitive_integer_vector)
from .so8 import (DIMENSION, GENERATORS, So8Element, bracket, quadruples,
                  random_element)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

ORDER3_BLOCK = SquareMatrix([
    [-_HALF, -_HALF, -_HALF, -_HALF],
    [_HALF, _HALF, -_HALF, -_HALF],
    [_HALF, -_HALF, _HALF, -_HALF],
    [_HALF, -_HALF, -_HALF, _HALF],
])

# conjugation by diag(1,...,1,-1) scales G(i,j) by a_i * a_j: -1 exactly when j = 7
_INVOLUTION_SIGNS = tuple(-_ONE if g.j == 7 else _ONE for g in GENERATORS)

# seeds for the generic-element rank probe; the minimum over these is reported
RANK_SAMPLE_SEEDS = (101, 102, 103, 104, 105)


class TrialityMap:
    """The blockwise action on so(8) coefficients assembled from the quadruples."""

    __slots__ = ("block", "full")

    def __init__(self, block: SquareMatrix):
        if block.dim != 4:
            raise ValueError(f"block must be 4x4, got dim {block.dim}")
        self.block = block
        rows = [[_ZERO] * DIMENSION for _ in range(DIMENSION)]
        for quad in quadruples():
            pos = quad.positions()
            for k in range(4):
                for l in range(4):
                    rows[pos[k]][pos[l]] = quad.signs[k] * quad.signs[l] * block[k][l]
        self.full = SquareMatrix(rows)

    @classmethod
    def standard(cls) -> "TrialityMap":
        return _STANDARD

    @classmethod
    def corrupted(cls) -> "TrialityMap":
        """Negative-control variant: one sign of the block flipped."""
        rows = [list(r) for r in ORDER3_BLOCK.rows]
        rows[1][1] = -rows[1][1]
        return cls(SquareMatrix(rows))

    def apply(self, x: So8Element) -> So8Element:
        return So8Element(self.full.apply(x.coeffs))

    def apply_power(self, x: So8Element, power: int) -> So8Element:
        if power < 0:
            raise ValueError("power must be non-negative")
        for _ in range(power % 3):
            x = self.apply(x)
        return x


_STANDARD = TrialityMap(ORDER3_BLOCK)


def sigma(x: So8Element) -> So8Element:
    """The standard order-3 automorphism."""
    return _STANDARD.apply(x)


def outer_involution(x: So8Element) -> So8Element:
    """Conjugation by diag(1,...,1,-1): flips the sign of every G(i,7) coefficient."""
    return So8Element([s * c for s, c in zip(_INVOLUTION_SIGNS, x.coeffs)])


def _involution_matrix() -> SquareMatrix:
    return SquareMatrix.diagonal(_INVOLUTION_SIGNS)


def verify_bracket_preservation(samples: int, seed: int,
                                tmap: Optional[TrialityMap] = None) -> dict:
    """Check phi[x,y] = [phi x, phi y] exactly; violations are report content.

    Runs all 28x28 generator pairs plus `samples` seeded random pairs. The
    returned report is JSON-ready.
    """
    tmap = tmap or TrialityMap.standard()
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
    for a in range(DIMENSION):
        for b in range(DIMENSION):
            check(basis_elements[a], images[a], basis_elements[b], images[b],
                  [GENERATORS[a].label, GENERATORS[b].label])
            checked += 1
    for k in range(samples):
        x = random_element(seed + 2 * k)
        y = random_element(seed + 2 * k + 1)
        check(x, tmap.apply(x), y, tmap.apply(y), ["sample", k])
        checked += 1

    report = {
        "check": "bracket_preservation",
        "status": "pass" if violations == 0 else "fail",
        "pairs_checked": checked,
        "violations": violations,
    }
    if counterexample is not None:
        report["counterexample"] = counterexample
        report["violating_pairs"] = violating_pairs
    return report


class FixedSubalgebra:
    """A bracket-closed subalgebra given by a basis of so(8) elements."""

    def __init__(self, basis: Sequence[So8Element], tag: str):
        if not basis:
            raise ValueError("a subalgebra needs a nonempty basis")
        self.basis = tuple(basis)
        self.tag = tag
        self._solver = SpanSolver([b.coeffs for b in self.basis])
        self._structure: Optional[list[list[tuple[Rational, ...]]]] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x: So8Element) -> Optional[tuple[Rational, ...]]:
        return self._solver.coords(x.coeffs)

    def contains(self, x: So8Element) -> bool:
        return self.coords(x) is not None

    def random_element(self, seed: int, bound: int = 9) -> So8Element:
        """Deterministic integer combination of the basis."""
        rng = random.Random(seed)
        out = So8Element.zero()
        for b in self.basis:
            out = out + b.scale(rng.randint(-bound, bound))
        return out

    def structure_constants(self) -> list[list[tuple[Rational, ...]]]:
        """Coordinates of [b_i, b_j] in the basis; raises if the span is not closed."""
        if self._structure is None:
            d = self.dim
            zero = (_ZERO,) * d
            table: list[list[tuple[Rational, ...]]] = [[zero] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    coords = self.coords(bracket(self.basis[i], self.basis[j]))
                    if coords is None:
                        raise ConsistencyError(
                            f"subalgebra {self.tag!r} not closed: "
                            f"[b{i}, b{j}] falls outside the span")
                    table[i][j] = coords
                    table[j][i] = tuple(-c for c in coords)
            self._structure = table
        return self._structure

    def ad_matrix(self, coeffs: Sequence[Rational]) -> SquareMatrix:
        """ad(x) in the subalgebra's own basis, for x = sum(coeffs[i] * b_i)."""
        table = self.structure_constants()
        d = self.dim
        rows = [[_ZERO] * d for _ in range(d)]
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            for j in range(d):
                cij = table[i][j]
                for k in range(d):
                    if cij[k] != 0:
                        rows[k][j] += ci * cij[k]
        return SquareMatrix(rows)


def fixed_subalgebra(tmap: Optional[TrialityMap] = None,
                     expected_dim: Optional[int] = None,
                     tag: str = "g2") -> FixedSubalgebra:
    """Fixed locus of the order-3 map: kernel of (full - I), bracket closure verified."""
    tmap = tmap or TrialityMap.standard()
    return _fixed_locus(tmap.full, expected_dim, tag)


_G2_CACHE: Optional[FixedSubalgebra] = None
_SO7_CACHE: Optional[FixedSubalgebra] = None


def g2_fixed_subalgebra() -> FixedSubalgebra:
    """The 14-dimensional fixed subalgebra of the standard order-3 map.

    Computed once and shared; the object is read-only after construction."""
    global _G2_CACHE
    if _G2_CACHE is None:
        _G2_CACHE = fixed_subalgebra(TrialityMap.standard(), expected_dim=14, tag="g2")
    return _G2_CACHE


def so7_fixed_subalgebra() -> FixedSubalgebra:
    """The 21-dimensional fixed locus of the outer involution."""
    global _SO7_CACHE
    if _SO7_CACHE is None:
        _SO7_CACHE = _fixed_locus(_involution_matrix(), expected_dim=21, tag="so7")
    return _SO7_CACHE


def _fixed_locus(action: SquareMatrix, expected_dim: Optional[int], tag: str) -> FixedSubalgebra:
    delta = action - SquareMatrix.identity(DIMENSION)
    kernel = kernel_basis_of_rows([list(r) for r in delta.rows], DIMENSION)
    if expected_dim is not None and len(kernel) != expected_dim:
        raise ConsistencyError(
            f"fixed locus {tag!r} has dimension {len(kernel)}, expected {expected_dim}")
    basis = [So8Element(primitive_integer_vector(v)) for v in kernel]
    sub = FixedSubalgebra(basis, tag)
    sub.structure_constants()  # force the closure check now
    return sub


def killing_form(sub: FixedSubalgebra) -> SquareMatrix:
    """kappa(b_i, b_j) = Tr(ad b_i * ad b_j) in the subalgebra's adjoint representation."""
    d = sub.dim
    table = sub.structure_constants()
    # nonzeros of ad(b_i): ad_i[k][j] = table[i][j][k]
    nonzeros = []
    for i in range(d):
        nz = [(k, j, table[i][j][k])
              for j in range(d) for k in range(d) if table[i][j][k] != 0]
        nonzeros.append(nz)
    rows = [[_ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            # Tr(ad_i ad_j) = sum_{k,l} ad_i[k][l] * ad_j[l][k]
            total = _ZERO
            for (k, l, v) in nonzeros[i]:
                w = table[j][k][l]
                if w != 0:
                    total += v * w
            rows[i][j] = total
            rows[j][i] = total
    return SquareMatrix(rows)


def identify_fixed_algebra(sub: FixedSubalgebra) -> dict:
    """Structural report: dimension, Killing nondegeneracy, rank.

    The rank is the minimum centralizer dimension of a few seeded generic
    elements; for a semisimple algebra a generic element is regular, so the
    minimum is the rank, and taking the minimum guards against an unlucky
    non-generic draw.
    """
    kappa = killing_form(sub)
    nondegenerate = kappa.determinant() != 0
    rank = None
    for seed in RANK_SAMPLE_SEEDS:
        rng = random.Random(seed)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(sub.dim)]
        ad = sub.ad_matrix(coeffs)
        centralizer_dim = len(ad.kernel_basis())
        rank = centralizer_dim if rank is None else min(rank, centralizer_dim)
    return {"dim": sub.dim, "killing_nondegenerate": nondegenerate, "rank": rank}
