"""The Lie algebra so(8) on its 28 elementary antisymmetric generators.

A generator G(i,j) with 0 <= i < j <= 7 sends e_j to e_i, e_i to -e_j and
kills the other basis vectors, so its matrix has +1 at (i,j) and -1 at (j,i).
Elements carry a dual representation: a 28-vector of coefficients over the
generators, and the corresponding 8x8 antisymmetric matrix; the two
round-trip exactly. Both are stored as integer numerators over one positive
denominator in lowest terms (an element is an `exact.RationalVector`), and
an element and its matrix share the same denominator; the `Fraction`
coefficients (`coeffs`) are a view built on each read, and JSON is read
and written without it.

The 28 generators split into seven 4-element quadruples

    ( G(0,i), G(i+1,i+3), G(i+2,i+6), G(i+4,i+5) ),   i = 1..7,

with indices in {1..7} reduced mod 7 (residue 0 written as 7, index 0 never
reduced). Reduction can produce a pair (a,b) with a > b; such a slot is
normalized to G(b,a) with a recorded sign -1, since swapping the index pair
negates the generator. The seven quadruples partition the generator set,
which the verification report checks as `so8.quadruple_partition`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exact import (ConsistencyError, Rational, RationalVector, SquareMatrix,
                    format_numerators, format_rational, is_square_table)
from .octonion import _mod7

DIMENSION = 28


@dataclass(frozen=True, order=True)
class Generator:
    """Index pair (i, j) with 0 <= i < j <= 7 naming the generator G(i,j)."""

    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i < self.j <= 7):
            raise ValueError(f"generator indices need 0 <= i < j <= 7, got ({self.i},{self.j})")

    @property
    def label(self) -> str:
        return f"G({self.i},{self.j})"


GENERATORS: tuple[Generator, ...] = tuple(
    Generator(i, j) for i in range(8) for j in range(i + 1, 8)
)
GENERATOR_INDEX: dict[Generator, int] = {g: n for n, g in enumerate(GENERATORS)}
_PAIRS: tuple[tuple[int, int], ...] = tuple((g.i, g.j) for g in GENERATORS)


class So8Element(RationalVector):
    """An so(8) element: 28 coefficients over the generators, as integer
    numerators over one positive denominator in lowest terms (see
    `RationalVector`); the matrix is derived lazily."""

    __slots__ = ("_matrix",)

    LENGTH = DIMENSION
    NOUN = "so(8) elements"

    def _assign(self, numerators: Sequence[int], den: int) -> None:
        super()._assign(numerators, den)
        self._matrix: Optional[SquareMatrix] = None

    @classmethod
    def zero(cls) -> "So8Element":
        return cls.from_integers((0,) * DIMENSION, 1)

    @classmethod
    def from_generator(cls, g: Generator) -> "So8Element":
        num = [0] * DIMENSION
        num[GENERATOR_INDEX[g]] = 1
        return cls.from_integers(num, 1)

    @classmethod
    def from_matrix(cls, m: SquareMatrix) -> "So8Element":
        if m.dim != 8:
            raise ValueError(f"so(8) matrices are 8x8, got dim {m.dim}")
        num = m.numerators
        for i in range(8):
            for j in range(i, 8):
                if num[i][j] != -num[j][i]:
                    raise ValueError(
                        f"matrix is not antisymmetric: entry ({i},{j}) = "
                        f"{format_rational(m[i][j])} but entry ({j},{i}) = "
                        f"{format_rational(m[j][i])}")
        element = cls.from_integers([num[i][j] for i, j in _PAIRS], m.denominator)
        element._matrix = m
        return element

    @property
    def matrix(self) -> SquareMatrix:
        if self._matrix is None:
            rows = [[0] * 8 for _ in range(8)]
            for (i, j), c in zip(_PAIRS, self.numerators):
                rows[i][j] = c
                rows[j][i] = -c
            self._matrix = SquareMatrix.from_integers(rows, self.denominator)
        return self._matrix

    def coefficient(self, g: Generator) -> Rational:
        return Fraction(self.numerators[GENERATOR_INDEX[g]], self.denominator)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def __repr__(self) -> str:
        terms = [f"{c}*{g.label}" for g, c in zip(GENERATORS, self.coeffs) if c != 0]
        return "So8Element(" + (" + ".join(terms) if terms else "0") + ")"

    def to_json(self, encoding: str = "both") -> dict:
        out: dict = {}
        if encoding in ("coeffs", "both"):
            out["coeffs"] = format_numerators(self.numerators, self.denominator)
        if encoding in ("matrix", "both"):
            out["matrix"] = self.matrix.to_json()
        if not out:
            raise ValueError(f"unknown encoding {encoding!r}")
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "So8Element":
        """Read either encoding; when both are present they must agree exactly.
        Any other key is an error."""
        if not isinstance(obj, dict):
            raise ValueError("so(8) element must be a JSON object")
        unknown = sorted(set(obj) - {"coeffs", "matrix"})
        if unknown:
            raise ValueError(f"unknown field(s) {', '.join(map(repr, unknown))}; "
                             "an so(8) element has only 'coeffs' and 'matrix'")
        from_coeffs = None
        from_mat = None
        if "coeffs" in obj:
            from_coeffs = cls._from_json_list(obj["coeffs"], "'coeffs'")
        if "matrix" in obj:
            if not is_square_table(obj["matrix"], 8):
                raise ValueError("'matrix' must be an 8x8 array of rational strings")
            from_mat = cls.from_matrix(SquareMatrix.from_json(obj["matrix"]))
        if from_coeffs is not None and from_mat is not None:
            if from_coeffs != from_mat:
                raise ValueError("'coeffs' and 'matrix' encodings disagree")
            return from_mat
        result = from_coeffs if from_coeffs is not None else from_mat
        if result is None:
            raise ValueError("so(8) element needs a 'coeffs' or 'matrix' field")
        return result


def bracket(x: So8Element, y: So8Element) -> So8Element:
    """Lie bracket [x, y] = XY - YX of the matrices X, Y of x and y.

    X and Y are antisymmetric, so X_kj = -X_jk and Y_kj = -Y_jk, and entry
    (i, j) of the commutator is sum_k (Y_ik X_jk - X_ik Y_jk): two products
    of rows, on the integer numerators over x.denominator * y.denominator.
    The commutator of two antisymmetric matrices is antisymmetric, so its
    upper triangle, the 28 pairs i < j, is the element's coefficients."""
    a = x.matrix.numerators
    b = y.matrix.numerators
    return So8Element.from_integers(
        [sum(map(mul, b[i], a[j])) - sum(map(mul, a[i], b[j])) for i, j in _PAIRS],
        x.denominator * y.denominator)


def _index_rule(x: Generator, y: Generator) -> Optional[tuple[int, int]]:
    """[G_ij, G_kl] = d_jk G_il - d_ik G_jl - d_jl G_ik + d_il G_jk as its
    single term (c, s), s * G_c, or None when it is zero. Two generators
    share at most one index unless equal, and G_aa = 0, so at most one term
    survives; G_ab with a > b is -G_ba."""
    for hit, s, a, b in ((x.j == y.i, 1, x.i, y.j), (x.i == y.i, -1, x.j, y.j),
                         (x.j == y.j, -1, x.i, y.i), (x.i == y.j, 1, x.j, y.i)):
        if hit and a != b:
            return GENERATOR_INDEX[Generator(min(a, b), max(a, b))], (s if a < b else -s)
    return None


@functools.cache
def structure_constants() -> tuple[tuple[Optional[tuple[int, int]], ...], ...]:
    """The bracket on generators: entry [a][b] is (c, s) when [G_a, G_b] = s * G_c
    and None when it is zero, indices into GENERATORS. The index rule of
    `_index_rule` builds the table, and one matrix commutator [X, Y] checks
    all 784 entries: with X = sum_a 8^(28a) G_a and Y = sum_b 8^b G_b, the
    G_c coefficient of [X, Y] is sum_k 8^k [G_a, G_b]_c by bilinearity, at
    k = 28a + b, and it must equal sum_k 8^k T_k,c for the table T. A
    non-integral [X, Y] raises, and so does a mismatch, naming the first pair
    whose digit differs.

    Sound for every pair: the dense brackets B_k = [G_a, G_b] sum to [X, Y],
    so agreement gives sum_k 8^k (B_k - T_k) = 0. A row of a generator matrix
    has at most one nonzero entry, so each coefficient of B_k lies in [-2, 2]
    and each entry of B_k - T_k has size at most 3; a base-8 sum whose terms
    are all below 8 in size vanishes only term by term, so every B_k equals
    T_k. For the same reason the lowest digit k where they differ is
    v2(d) // 3 for the difference d of a coefficient."""
    table = tuple(tuple(_index_rule(x, y) for y in GENERATORS) for x in GENERATORS)
    x = So8Element.from_integers([8 ** (DIMENSION * a) for a in range(DIMENSION)], 1)
    y = So8Element.from_integers([8 ** b for b in range(DIMENSION)], 1)
    z = bracket(x, y)
    if z.denominator != 1:
        raise ConsistencyError(f"the generator brackets have denominator {z.denominator}")
    expected = [0] * DIMENSION
    for k, entry in enumerate(entry for row in table for entry in row):
        if entry is not None:
            expected[entry[0]] += entry[1] << (3 * k)
    differences = [got - want for got, want in zip(z.numerators, expected) if got != want]
    if differences:
        k = min((d & -d).bit_length() - 1 for d in differences) // 3
        if k >= DIMENSION * DIMENSION:
            raise ConsistencyError("the generator brackets disagree with the index rule "
                                   "past the last pair")
        a, b = divmod(k, DIMENSION)
        raise ConsistencyError(f"[{GENERATORS[a].label}, {GENERATORS[b].label}] "
                               "disagrees with the index rule")
    return table


@dataclass(frozen=True)
class Quadruple:
    """One 4-generator block, with the sign picked up by index normalization."""

    index: int
    generators: tuple[Generator, Generator, Generator, Generator]
    signs: tuple[int, int, int, int]

    def positions(self) -> tuple[int, int, int, int]:
        return tuple(GENERATOR_INDEX[g] for g in self.generators)


def _build_quadruples() -> tuple[Quadruple, ...]:
    quads = []
    for i in range(1, 8):
        raw = [(0, i),
               (_mod7(i + 1), _mod7(i + 3)),
               (_mod7(i + 2), _mod7(i + 6)),
               (_mod7(i + 4), _mod7(i + 5))]
        gens = []
        signs = []
        for (a, b) in raw:
            if a < b:
                gens.append(Generator(a, b))
                signs.append(1)
            else:
                gens.append(Generator(b, a))
                signs.append(-1)
        quads.append(Quadruple(i, tuple(gens), tuple(signs)))
    return tuple(quads)


_QUADRUPLES = _build_quadruples()


def quadruples() -> tuple[Quadruple, ...]:
    """The seven quadruples, indices normalized; that they partition the
    generators is the report entry `so8.quadruple_partition`."""
    return _QUADRUPLES


def random_element(seed: int, bound: int = 9) -> So8Element:
    """Deterministic pseudorandom element, integer coefficients in [-bound, bound]."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rng = random.Random(seed)
    return So8Element.from_integers([rng.randint(-bound, bound) for _ in range(DIMENSION)], 1)

