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

import functools
import math
import random
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exact import ConsistencyError, Rational, SpanSolver, SquareMatrix
from .so8 import (DIMENSION, GENERATORS, So8Element, bracket, quadruples,
                  structure_constants as so8_structure_constants)

_ZERO = Fraction(0)

ORDER3_BLOCK = SquareMatrix.from_integers([[-1, -1, -1, -1],
                                           [1, 1, -1, -1],
                                           [1, -1, 1, -1],
                                           [1, -1, -1, 1]], 2)

# conjugation by diag(1,...,1,-1) scales G(i,j) by a_i * a_j: -1 exactly when j = 7
_INVOLUTION_SIGNS = tuple(-1 if g.j == 7 else 1 for g in GENERATORS)

# seeds for the generic-element rank probe; the minimum over these is reported
RANK_SAMPLE_SEEDS = (101, 102, 103, 104, 105)


class TrialityMap:
    """The blockwise action on so(8) coefficients assembled from the quadruples."""

    __slots__ = ("block", "full", "_terms")

    def __init__(self, block: SquareMatrix):
        if block.dim != 4:
            raise ValueError(f"block must be 4x4, got dim {block.dim}")
        self.block = block
        rows = [[0] * DIMENSION for _ in range(DIMENSION)]
        for quad in quadruples():
            pos = quad.positions()
            for k in range(4):
                for l in range(4):
                    rows[pos[k]][pos[l]] = (quad.signs[k] * quad.signs[l]
                                            * block.numerators[k][l])
        self.full = SquareMatrix.from_integers(rows, block.denominator)
        # the nonzero integer numerators of each row of `full`: 4 per row
        self._terms = tuple(tuple((j, a) for j, a in enumerate(row) if a)
                            for row in self.full.numerators)

    @classmethod
    def standard(cls) -> "TrialityMap":
        return _STANDARD

    @classmethod
    def corrupted(cls) -> "TrialityMap":
        """Negative-control variant: one sign of the block flipped."""
        rows = [list(r) for r in ORDER3_BLOCK.numerators]
        rows[1][1] = -rows[1][1]
        return cls(SquareMatrix.from_integers(rows, ORDER3_BLOCK.denominator))

    def apply(self, x: So8Element) -> So8Element:
        """full * x as a sparse integer product over den(full) * den(x)."""
        c = x.numerators
        return So8Element.from_integers([sum(a * c[j] for j, a in terms) for terms in self._terms],
                                        self.full.denominator * x.denominator)

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
    return So8Element.from_integers([s * c for s, c in zip(_INVOLUTION_SIGNS, x.numerators)],
                                    x.denominator)


def _involution_matrix() -> SquareMatrix:
    return SquareMatrix.diagonal(_INVOLUTION_SIGNS)


def verify_bracket_preservation(
        tmap: TrialityMap) -> list[tuple[int, int, So8Element, So8Element]]:
    """The generator pairs on which phi[G_a, G_b] != [phi G_a, phi G_b], as
    (a, b, image_of_bracket, bracket_of_images), over all 28x28 pairs in
    order. By bilinearity phi preserves the bracket exactly when the list is
    empty.

    A pair is read off the so(8) structure constants: with phi = F / den,
    phi[G_a, G_b] = s * F[:, c] / den when [G_a, G_b] = s G_c, and
    [phi G_a, phi G_b] = sum over k, l of F[k][a] F[l][b] [G_k, G_l] / den^2.
    """
    table = so8_structure_constants()
    full = tmap.full.numerators
    den = tmap.full.denominator
    # the nonzero entries (k, F[k][c]) of each column c of F: the image of G_c
    columns = [[(k, row[c]) for k, row in enumerate(full) if row[c]] for c in range(DIMENSION)]
    failures = []
    for a in range(DIMENSION):
        for b in range(DIMENSION):
            lhs = [0] * DIMENSION
            if table[a][b] is not None:
                c, s = table[a][b]
                for k, f in columns[c]:
                    lhs[k] = s * f
            rhs = [0] * DIMENSION
            for k, fa in columns[a]:
                for l, fb in columns[b]:
                    if table[k][l] is not None:
                        c, s = table[k][l]
                        rhs[c] += s * fa * fb
            # lhs / den against rhs / den^2
            if any(x * den != y for x, y in zip(lhs, rhs)):
                failures.append((a, b, So8Element.from_integers(lhs, den),
                                 So8Element.from_integers(rhs, den * den)))
    return failures


class FixedSubalgebra:
    """A bracket-closed subalgebra given by a basis of so(8) elements."""

    def __init__(self, basis: Sequence[So8Element], tag: str):
        if not basis:
            raise ValueError("a subalgebra needs a nonempty basis")
        self.basis = tuple(basis)
        self.tag = tag
        self._solver = SpanSolver([b.coeffs for b in self.basis])
        self._structure: Optional[tuple[tuple[tuple[Rational, ...], ...], ...]] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x: So8Element) -> Optional[tuple[Rational, ...]]:
        return self._solver.coords(x.coeffs)

    def contains(self, x: So8Element) -> bool:
        return self.coords(x) is not None

    def random_element(self, seed: int, bound: int = 9) -> So8Element:
        """Deterministic combination of the basis, integer coefficients in [-bound, bound]."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        rng = random.Random(seed)
        den = math.lcm(*(b.denominator for b in self.basis))
        weights = [rng.randint(-bound, bound) * (den // b.denominator) for b in self.basis]
        columns = zip(*(b.numerators for b in self.basis))
        return So8Element.from_integers([sum(map(mul, weights, col)) for col in columns], den)

    def structure_constants(self) -> tuple[tuple[tuple[Rational, ...], ...], ...]:
        """Coordinates of [b_i, b_j] in the basis, as a read-only table shared
        by every caller; raises if the span is not closed."""
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
            self._structure = tuple(map(tuple, table))
        return self._structure

    @functools.cached_property
    def adjoint(self) -> tuple[tuple[tuple[int, int, Rational], ...], ...]:
        """The nonzero entries (k, j, ad(b_i)[k][j]) of each ad(b_i), read once
        off the structure table: ad(b_i)[k][j] = table[i][j][k]."""
        table = self.structure_constants()
        d = self.dim
        return tuple(tuple((k, j, table[i][j][k]) for j in range(d) for k in range(d)
                           if table[i][j][k] != 0)
                     for i in range(d))

    def ad_matrix(self, coeffs: Sequence[Rational]) -> SquareMatrix:
        """ad(x) in the subalgebra's own basis, for x = sum(coeffs[i] * b_i)."""
        d = self.dim
        if len(coeffs) != d:
            raise ValueError(f"need {d} coefficients, got {len(coeffs)}")
        rows = [[_ZERO] * d for _ in range(d)]
        for ci, terms in zip(coeffs, self.adjoint):
            if ci != 0:
                for k, j, v in terms:
                    rows[k][j] += ci * v
        return SquareMatrix(rows)


def fixed_subalgebra(tmap: TrialityMap) -> FixedSubalgebra:
    """Fixed locus of an order-3 map: kernel of (full - I), checked to be
    14-dimensional and bracket-closed."""
    return _fixed_locus(tmap.full, 14, "g2")


def g2_fixed_subalgebra() -> FixedSubalgebra:
    """The 14-dimensional fixed subalgebra of the standard order-3 map."""
    return fixed_subalgebra(TrialityMap.standard())


def so7_fixed_subalgebra() -> FixedSubalgebra:
    """The 21-dimensional fixed locus of the outer involution."""
    return _fixed_locus(_involution_matrix(), 21, "so7")


@functools.cache
def _fixed_locus(action: SquareMatrix, expected_dim: int, tag: str) -> FixedSubalgebra:
    # computed once per (action, expected_dim, tag) and shared; the object is
    # read-only after construction, and a failed construction is not cached
    kernel = (action - SquareMatrix.identity(DIMENSION)).kernel_basis()
    if len(kernel) != expected_dim:
        raise ConsistencyError(
            f"fixed locus {tag!r} has dimension {len(kernel)}, expected {expected_dim}")
    sub = FixedSubalgebra([So8Element.from_integers(v, 1) for v in kernel], tag)
    sub.structure_constants()  # force the closure check now
    return sub


def killing_form(sub: FixedSubalgebra) -> SquareMatrix:
    """kappa(b_i, b_j) = Tr(ad b_i * ad b_j) in the subalgebra's adjoint representation."""
    d = sub.dim
    table = sub.structure_constants()
    adjoint = sub.adjoint
    rows = [[_ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            # Tr(ad_i ad_j) = sum_{k,l} ad_i[k][l] * ad_j[l][k], ad_j[l][k] = table[j][k][l]
            total = _ZERO
            for (k, l, v) in adjoint[i]:
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
    nondegenerate = killing_form(sub).determinant() != 0

    def centralizer_dim(seed: int) -> int:
        rng = random.Random(seed)
        return len(sub.ad_matrix([rng.randint(-9, 9) for _ in range(sub.dim)]).kernel_basis())

    rank = min(map(centralizer_dim, RANK_SAMPLE_SEEDS))
    return {"dim": sub.dim, "killing_nondegenerate": nondegenerate, "rank": rank}
