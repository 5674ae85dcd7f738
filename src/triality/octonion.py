"""The octonion algebra over the rationals, with Fano-plane multiplication.

The basis is (e0, e1, ..., e7) with e0 the unit. Multiplication of the
imaginary units is encoded by seven oriented lines on the points {1..7}:
an oriented line (a, b, c) means ea*eb = ec, and cyclic rotations of a line
are again lines. The lines used here are

    (i, i+1, i+3)  for i = 1..7,  indices mod 7 with residue 0 written as 7,

which puts every point on exactly three lines. Together with ei**2 = -1 and
anticommutativity of distinct imaginary units this determines the whole
table. The construction is self-checked at import time (unit laws,
anticommutativity, the anchor product e5*e2 = e3, and the line incidences);
a failure raises instead of producing a silently wrong algebra.

Rotating the line diagram (doubling indices mod 7) is an order-3 algebra
automorphism; checking whether an arbitrary linear map of the 8-dimensional
space is an algebra automorphism, i.e. a member of the compact exceptional
group of the algebra, reduces to the 64 basis products by bilinearity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import ConsistencyError, Rational, SquareMatrix, format_rational, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _mod7(k: int) -> int:
    """Reduce into {1..7}: residue 0 is written as 7."""
    return (k - 1) % 7 + 1


FANO_LINES: tuple[tuple[int, int, int], ...] = tuple(
    (i, _mod7(i + 1), _mod7(i + 3)) for i in range(1, 8)
)


def _build_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    products: dict[tuple[int, int], tuple[int, int]] = {}
    for line in FANO_LINES:
        for (x, y, z) in (line, line[1:] + line[:1], line[2:] + line[:2]):
            if (x, y) in products:
                raise ConsistencyError(f"line overlap at e{x}*e{y}")
            products[(x, y)] = (z, 1)
            products[(y, x)] = (z, -1)
    table = []
    for i in range(8):
        row = []
        for j in range(8):
            if i == 0:
                row.append((j, 1))
            elif j == 0:
                row.append((i, 1))
            elif i == j:
                row.append((0, -1))
            else:
                row.append(products[(i, j)])
        table.append(tuple(row))
    result = tuple(table)
    _self_check(result)
    return result


def _self_check(table) -> None:
    if table[5][2] != (3, 1):
        raise ConsistencyError(f"anchor product e5*e2 = e3 violated: {table[5][2]}")
    for i in range(1, 8):
        if table[i][i] != (0, -1):
            raise ConsistencyError(f"e{i}^2 != -1")
        incidence = sum(1 for line in FANO_LINES if i in line)
        if incidence != 3:
            raise ConsistencyError(f"index {i} lies on {incidence} lines, want 3")
        for j in range(1, 8):
            if i != j:
                k, s = table[i][j]
                if table[j][i] != (k, -s):
                    raise ConsistencyError(f"anticommutativity fails at ({i},{j})")


_TABLE = _build_table()


def structure_constants() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The full 8x8 multiplication table as (index, sign) pairs: emu*enu = sign*e_index."""
    return _TABLE


def basis_product(i: int, j: int) -> tuple[int, int]:
    if not (0 <= i <= 7 and 0 <= j <= 7):
        raise ValueError(f"basis indices must lie in 0..7, got ({i},{j})")
    return _TABLE[i][j]


def multiplication_table_symbols() -> list[list[str]]:
    """The table as signed basis symbols ("e3", "-e3", ...), for dumps and docs."""
    return [[("-" if s < 0 else "") + f"e{k}" for (k, s) in row] for row in _TABLE]


class Octonion:
    """An octonion with rational coefficients over (e0, ..., e7)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Rational]):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if len(coeffs) != 8:
            raise ValueError(f"octonions have 8 coefficients, got {len(coeffs)}")
        self.coefficients = coeffs

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        if not 0 <= k <= 7:
            raise ValueError(f"basis index must lie in 0..7, got {k}")
        return cls(tuple(_ONE if i == k else _ZERO for i in range(8)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Octonion({[str(c) for c in self.coefficients]})"

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def __neg__(self) -> "Octonion":
        return Octonion(tuple(-a for a in self.coefficients))

    def scale(self, factor: Rational) -> "Octonion":
        f = Fraction(factor)
        return Octonion(tuple(f * a for a in self.coefficients))

    def __mul__(self, other: "Octonion") -> "Octonion":
        out = [_ZERO] * 8
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                if b == 0:
                    continue
                k, s = _TABLE[i][j]
                out[k] += s * a * b
        return Octonion(out)

    def conjugate(self) -> "Octonion":
        c = self.coefficients
        return Octonion((c[0],) + tuple(-x for x in c[1:]))

    def real_part(self) -> Rational:
        return self.coefficients[0]

    def norm_squared(self) -> Rational:
        return sum((c * c for c in self.coefficients), _ZERO)

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coefficients]

    @classmethod
    def from_json(cls, values: Sequence[str]) -> "Octonion":
        return cls([parse_rational(v) for v in values])


def inner_product(x: Octonion, y: Octonion) -> Rational:
    """Euclidean inner product sum(a_mu * b_mu).

    Also evaluated as the real part of x * conj(y); the two expressions must
    agree identically, so a mismatch means the multiplication table is broken.
    """
    direct = sum((a * b for a, b in zip(x.coefficients, y.coefficients)), _ZERO)
    via_product = (x * y.conjugate()).real_part()
    if direct != via_product:
        raise ConsistencyError("inner product disagrees with Re(x*conj(y))")
    return direct


_ROTATION_IMAGE = tuple([0] + [_mod7(2 * i) for i in range(1, 8)])


def rotation_automorphism(x: Octonion) -> Octonion:
    """The order-3 automorphism induced by rotating the line diagram: ei -> e_{2i mod 7}."""
    out = [_ZERO] * 8
    for i, c in enumerate(x.coefficients):
        out[_ROTATION_IMAGE[i]] = c
    return Octonion(out)


def rotation_matrix() -> SquareMatrix:
    """The rotation automorphism as an 8x8 matrix on coefficient columns."""
    rows = [[_ZERO] * 8 for _ in range(8)]
    for src in range(8):
        rows[_ROTATION_IMAGE[src]][src] = _ONE
    return SquareMatrix(rows)


def is_algebra_automorphism(m: SquareMatrix) -> bool:
    """True iff the linear map respects all 64 basis products (enough, by bilinearity).

    Invertibility is required up front: the zero map satisfies every product
    identity vacuously but is no automorphism."""
    if m.dim != 8:
        raise ValueError(f"automorphism test needs an 8x8 matrix, got dim {m.dim}")
    if m.determinant() == 0:
        return False
    images = [Octonion(m.apply(Octonion.basis(k).coefficients)) for k in range(8)]
    for i in range(8):
        for j in range(8):
            k, s = _TABLE[i][j]
            if images[i] * images[j] != images[k].scale(s):
                return False
    return True
