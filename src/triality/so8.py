"""The Lie algebra so(8) on its 28 elementary antisymmetric generators.

A generator G(i,j) with 0 <= i < j <= 7 sends e_j to e_i, e_i to -e_j and
kills the other basis vectors, so its matrix has +1 at (i,j) and -1 at (j,i).
Elements carry a dual representation: a 28-vector of coefficients over the
generators, and the corresponding 8x8 antisymmetric matrix; the two
round-trip exactly.

The 28 generators split into seven 4-element quadruples

    ( G(0,i), G(i+1,i+3), G(i+2,i+6), G(i+4,i+5) ),   i = 1..7,

with indices in {1..7} reduced mod 7 (residue 0 written as 7, index 0 never
reduced). Reduction can produce a pair (a,b) with a > b; such a slot is
normalized to G(b,a) with a recorded sign -1, since swapping the index pair
negates the generator. The seven quadruples partition the generator set;
this is verified when the table is first built and a failure raises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ConsistencyError, Rational, SquareMatrix, format_rational, parse_rational
from .octonion import _mod7

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


def generator_matrix(g: Generator) -> SquareMatrix:
    rows = [[_ZERO] * 8 for _ in range(8)]
    rows[g.i][g.j] = _ONE
    rows[g.j][g.i] = -_ONE
    return SquareMatrix(rows)


class So8Element:
    """An so(8) element: 28 rational coefficients, with the matrix derived lazily."""

    __slots__ = ("coeffs", "_matrix")

    def __init__(self, coeffs: Sequence[Rational]):
        frozen = tuple(Fraction(c) for c in coeffs)
        if len(frozen) != DIMENSION:
            raise ValueError(f"so(8) elements have {DIMENSION} coefficients, got {len(frozen)}")
        self.coeffs = frozen
        self._matrix: Optional[SquareMatrix] = None

    @classmethod
    def zero(cls) -> "So8Element":
        return cls((_ZERO,) * DIMENSION)

    @classmethod
    def from_generator(cls, g: Generator) -> "So8Element":
        coeffs = [_ZERO] * DIMENSION
        coeffs[GENERATOR_INDEX[g]] = _ONE
        return cls(coeffs)

    @classmethod
    def from_matrix(cls, m: SquareMatrix) -> "So8Element":
        if m.dim != 8:
            raise ValueError(f"so(8) matrices are 8x8, got dim {m.dim}")
        for i in range(8):
            for j in range(i, 8):
                if m[i][j] != -m[j][i]:
                    raise ValueError(
                        f"matrix is not antisymmetric: entry ({i},{j}) = "
                        f"{format_rational(m[i][j])} but entry ({j},{i}) = "
                        f"{format_rational(m[j][i])}")
        element = cls([m[g.i][g.j] for g in GENERATORS])
        element._matrix = m
        return element

    @property
    def matrix(self) -> SquareMatrix:
        if self._matrix is None:
            rows = [[_ZERO] * 8 for _ in range(8)]
            for g, c in zip(GENERATORS, self.coeffs):
                rows[g.i][g.j] = c
                rows[g.j][g.i] = -c
            self._matrix = SquareMatrix(rows)
        return self._matrix

    def coefficient(self, g: Generator) -> Rational:
        return self.coeffs[GENERATOR_INDEX[g]]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, So8Element):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*{g.label}" for g, c in zip(GENERATORS, self.coeffs) if c != 0]
        return "So8Element(" + (" + ".join(terms) if terms else "0") + ")"

    def __add__(self, other: "So8Element") -> "So8Element":
        return So8Element(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "So8Element") -> "So8Element":
        return So8Element(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "So8Element":
        return So8Element(tuple(-a for a in self.coeffs))

    def scale(self, factor: Rational) -> "So8Element":
        f = Fraction(factor)
        return So8Element(tuple(f * a for a in self.coeffs))

    def to_json(self, encoding: str = "both") -> dict:
        out: dict = {}
        if encoding in ("coeffs", "both"):
            out["coeffs"] = [format_rational(c) for c in self.coeffs]
        if encoding in ("matrix", "both"):
            out["matrix"] = self.matrix.to_json()
        if not out:
            raise ValueError(f"unknown encoding {encoding!r}")
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "So8Element":
        """Read either encoding; when both are present they must agree exactly."""
        if not isinstance(obj, dict):
            raise ValueError("so(8) element must be a JSON object")
        from_coeffs = None
        from_mat = None
        if "coeffs" in obj:
            values = obj["coeffs"]
            if not isinstance(values, list) or len(values) != DIMENSION:
                raise ValueError(f"'coeffs' must be a list of {DIMENSION} rational strings")
            from_coeffs = cls([parse_rational(v) for v in values])
        if "matrix" in obj:
            rows = obj["matrix"]
            if (not isinstance(rows, list) or len(rows) != 8
                    or any(not isinstance(r, list) or len(r) != 8 for r in rows)):
                raise ValueError("'matrix' must be an 8x8 array of rational strings")
            from_mat = cls.from_matrix(SquareMatrix.from_json(rows))
        if from_coeffs is not None and from_mat is not None:
            if from_coeffs != from_mat:
                raise ValueError("'coeffs' and 'matrix' encodings disagree")
            return from_mat
        result = from_coeffs if from_coeffs is not None else from_mat
        if result is None:
            raise ValueError("so(8) element needs a 'coeffs' or 'matrix' field")
        return result


def bracket(x: So8Element, y: So8Element) -> So8Element:
    """Lie bracket [x, y] = xy - yx on the matrix representation."""
    a = x.matrix
    b = y.matrix
    return So8Element.from_matrix(a * b - b * a)


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
    seen = [g for q in quads for g in q.generators]
    if sorted(seen) != sorted(GENERATORS) or len(set(seen)) != DIMENSION:
        raise ConsistencyError("quadruples do not partition the 28 generators")
    return tuple(quads)


_QUADRUPLES = _build_quadruples()


def quadruples() -> tuple[Quadruple, ...]:
    """The seven quadruples, indices normalized and the partition verified."""
    return _QUADRUPLES


def random_element(seed: int, bound: int = 9) -> So8Element:
    """Deterministic pseudorandom element, integer coefficients in [-bound, bound]."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rng = random.Random(seed)
    return So8Element([Fraction(rng.randint(-bound, bound)) for _ in range(DIMENSION)])

