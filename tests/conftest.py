import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import triality
from triality import SquareMatrix


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Put the directory holding the imported `triality` first on PYTHONPATH,
    so `python -m triality.cli` subprocesses run the same package as the
    tests, installed or not."""
    root = str(Path(triality.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


# entries `Fraction` accepts but the JSON readers must reject: an
# unreduced fraction, spaces, an exponent, a decimal, a JSON number, and the
# spellings `format_rational` never writes (a signed zero, leading zeros in a
# numerator or a denominator, and a denominator of 1)
NON_CANONICAL_ENTRIES = ("2/4", " 5 ", "1e3", "1.5", 5, "-0", "007", "3/01", "-0/1", "5/1")


def signed_permutation(seed: int) -> SquareMatrix:
    """Deterministic signed permutation matrix of size 8 (orthogonal, det +-1)."""
    rng = random.Random(seed)
    perm = list(range(8))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][perm[i]] = Fraction(rng.choice((-1, 1)))
    return SquareMatrix(rows)


@pytest.fixture
def signed_permutations():
    return signed_permutation
