"""The octonion algebra over the rationals, with Fano-plane multiplication.

The basis is (e0, e1, ..., e7) with e0 the unit. Multiplication of the
imaginary units is encoded by seven oriented lines on the points {1..7}:
an oriented line (a, b, c) means ea*eb = ec, and cyclic rotations of a line
are again lines. The lines used here are

    (i, i+1, i+3)  for i = 1..7,  indices mod 7 with residue 0 written as 7,

which puts every point on exactly three lines. Together with ei**2 = -1 and
anticommutativity of distinct imaginary units this determines the whole
table. Building it raises only if two lines share a pair of points, since
then the table is not defined; the rules it must obey (unit laws, ei**2 = -1,
anticommutativity, the anchor product e5*e2 = e3, the line incidences and
their closure as quaternion subalgebras) are checked by the verification
report, as `octonion.table_rules` and `octonion.quaternion_lines`.

Rotating the line diagram (doubling indices mod 7) is an order-3 algebra
automorphism; checking whether an arbitrary linear map of the 8-dimensional
space is an algebra automorphism, i.e. a member of the compact exceptional
group of the algebra, reduces to the 64 basis products by bilinearity.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ConsistencyError, Rational, RationalVector, SquareMatrix, format_numerators


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
    return tuple(table)


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


class Octonion(RationalVector):
    """An octonion: 8 rational coefficients over (e0, ..., e7), in the integer
    form of `RationalVector`."""

    __slots__ = ()

    LENGTH = 8
    NOUN = "octonions"

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        if not 0 <= k <= 7:
            raise ValueError(f"basis index must lie in 0..7, got {k}")
        return cls.from_integers([1 if i == k else 0 for i in range(8)], 1)

    def __repr__(self) -> str:
        return f"Octonion({[str(c) for c in self.coeffs]})"

    def __mul__(self, other: "Octonion") -> "Octonion":
        out = [0] * 8
        for i, a in enumerate(self.numerators):
            if a:
                row = _TABLE[i]
                for j, b in enumerate(other.numerators):
                    if b:
                        k, s = row[j]
                        out[k] += s * a * b
        return Octonion.from_integers(out, self.denominator * other.denominator)

    def conjugate(self) -> "Octonion":
        c = self.numerators
        return Octonion.from_integers((c[0],) + tuple(-x for x in c[1:]), self.denominator)

    def real_part(self) -> Rational:
        return Fraction(self.numerators[0], self.denominator)

    def norm_squared(self) -> Rational:
        return Fraction(sum(c * c for c in self.numerators), self.denominator ** 2)

    def to_json(self) -> list[str]:
        return format_numerators(self.numerators, self.denominator)

    @classmethod
    def from_json(cls, values: list) -> "Octonion":
        """Read a list of 8 rational strings, as `to_json` writes it."""
        return cls._from_json_list(values, "an octonion")


def inner_product(x: Octonion, y: Octonion) -> Rational:
    """Euclidean inner product sum(a_mu * b_mu).

    Also evaluated as the real part of x * conj(y); the two expressions must
    agree identically, so a mismatch means the multiplication table is broken.
    """
    direct = Fraction(sum(a * b for a, b in zip(x.numerators, y.numerators)),
                      x.denominator * y.denominator)
    via_product = (x * y.conjugate()).real_part()
    if direct != via_product:
        raise ConsistencyError("inner product disagrees with Re(x*conj(y))")
    return direct


_ROTATION_IMAGE = tuple([0] + [_mod7(2 * i) for i in range(1, 8)])


def rotation_automorphism(x: Octonion) -> Octonion:
    """The order-3 automorphism induced by rotating the line diagram: ei -> e_{2i mod 7}."""
    out = [0] * 8
    for i, c in enumerate(x.numerators):
        out[_ROTATION_IMAGE[i]] = c
    return Octonion.from_integers(out, x.denominator)


def rotation_matrix() -> SquareMatrix:
    """The rotation automorphism as an 8x8 matrix on coefficient columns."""
    rows = [[0] * 8 for _ in range(8)]
    for src in range(8):
        rows[_ROTATION_IMAGE[src]][src] = 1
    return SquareMatrix.from_integers(rows, 1)


def is_algebra_automorphism(m: SquareMatrix) -> bool:
    """True iff the linear map respects all 64 basis products (enough, by bilinearity).

    Invertibility is required up front: the zero map satisfies every product
    identity vacuously but is no automorphism."""
    if m.dim != 8:
        raise ValueError(f"automorphism test needs an 8x8 matrix, got dim {m.dim}")
    if m.determinant() == 0:
        return False
    # the image of e_k is column k of m
    images = [Octonion.from_integers([row[k] for row in m.numerators], m.denominator)
              for k in range(8)]
    for i in range(8):
        for j in range(8):
            k, s = _TABLE[i][j]
            if images[i] * images[j] != images[k].scale(s):
                return False
    return True
