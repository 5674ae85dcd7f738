"""Output oracles, written from the definitions and sharing no code with the
package they check. Each `check_*` returns None for an accepted output or a
one-line reason for a rejected one.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def parse_rational(text) -> Fraction:
    """A canonical "p" or "p/q" string in lowest terms with q > 1."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational string: {text!r}")
    value = Fraction(text)
    if str(value) != text:
        raise ValueError(f"not in canonical form: {text!r}")
    return value


def _vector(values, length: int) -> list[Fraction]:
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"expected {length} entries")
    return [parse_rational(v) for v in values]


def _matrix(rows, n: int) -> list[list[Fraction]]:
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"expected {n} rows")
    return [_vector(row, n) for row in rows]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x), Fraction(0)) for col in cols]
            for row in a]


def _rank(rows) -> int:
    work = [list(r) for r in rows]
    rank = 0
    n_cols = len(work[0]) if work else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / lead[c]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], lead)]
        rank += 1
    return rank


def _antisymmetric(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """8x8 matrix with +c at (i, j) and -c at (j, i), generators G(i,j) for i < j."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    for (i, j), c in zip(pairs, coeffs):
        m[i][j] = c
        m[j][i] = -c
    return m


def _pfaffian(m, points=tuple(range(8))) -> Fraction:
    """Expansion along the first point: Pf = sum_j (-1)^(j+1) m[i0][ij] Pf(rest)."""
    if not points:
        return Fraction(1)
    i0 = points[0]
    total = Fraction(0)
    for t in range(1, len(points)):
        entry = m[i0][points[t]]
        if entry:
            rest = points[1:t] + points[t + 1:]
            total += (1 if t % 2 else -1) * entry * _pfaffian(m, rest)
    return total


# ---------------------------------------------------------------------------
# verify_default
# ---------------------------------------------------------------------------

def check_verify(code: int, stdout: str, seed: int) -> str | None:
    """Exit 0, top-level status "pass", the requested config echoed, no failed check."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if report.get("status") != "pass":
        return f"status {report.get('status')!r}"
    config = report.get("config", {})
    if (config.get("seed"), config.get("samples"), config.get("bound")) != (seed, 100, 9):
        return f"config {config!r} is not the default one with seed {seed}"
    checks = report.get("checks")
    if not checks or any(c.get("status") not in ("pass", "discrepancy-confirmed")
                         for c in checks):
        return "a check did not pass"
    return None


def check_corrupted_verify(code: int, stdout: str) -> str | None:
    """The negative control must exit 1 and name a counterexample."""
    if code != 1:
        return f"exit code {code}, want 1"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if report.get("status") != "fail":
        return f"status {report.get('status')!r}, want 'fail'"
    if not any("counterexample" in c for c in report.get("checks", [])):
        return "no counterexample"
    return None


# ---------------------------------------------------------------------------
# eval_rational
# ---------------------------------------------------------------------------

def sigma_invariants(p1, p2, p3, pf):
    """Closed-form images of (Tr M^2, Tr M^4, Tr M^6, Pf M) under the order-3 map."""
    return (p1,
            Fraction(3, 8) * p1 ** 2 - Fraction(1, 2) * p2 - 12 * pf,
            Fraction(15, 64) * p1 ** 3 - Fraction(15, 16) * p1 * p2
            - Fraction(15, 2) * p1 * pf + p3,
            -Fraction(1, 64) * p1 ** 2 + Fraction(1, 16) * p2 - Fraction(1, 2) * pf)


def newton(p1, p2, p3, pf):
    """e1..e4 of the squared block parameters from trace powers (Newton's identities)."""
    q1, q2, q3 = -p1 / 2, p2 / 2, -p3 / 2
    return (q1, (q1 * q1 - q2) / 2, (q1 ** 3 - 3 * q1 * q2 + 2 * q3) / 6, pf * pf)


def check_eval_op(coeffs: list[str], eval_code, eval_out: str,
                  sigma_code, sigma_out: str) -> str | None:
    """One `eval` + `sigma` op on the element with the given coefficient strings."""
    if (eval_code, sigma_code) != (0, 0):
        return f"exit codes {eval_code}, {sigma_code}"
    try:
        ev = json.loads(eval_out)
        sg = json.loads(sigma_out)
        values = ev["values"]
        p = [parse_rational(values[k]) for k in ("p1", "p2", "p3", "pf")]
        e = tuple(parse_rational(values[k]) for k in ("e1", "e2", "e3", "e4"))
        before = [parse_rational(sg["invariants_before"][k]) for k in ("p1", "p2", "p3", "pf")]
        after = tuple(parse_rational(sg["invariants_after"][k])
                      for k in ("p1", "p2", "p3", "pf"))
        given = _vector(sg["input"]["coeffs"], 28)
        image = _vector(sg["output"]["coeffs"], 28)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc}"
    if ev.get("command") != "eval" or sg.get("command") != "sigma":
        return "wrong command echoed"
    if (sg.get("power"), sg.get("effective_power")) != (1, 1):
        return "power not echoed as 1"
    if given != [parse_rational(c) for c in coeffs]:
        return "sigma input echo differs from the generated element"
    if before != p:
        return "eval and sigma disagree on the invariants of the same element"
    x = _antisymmetric(given)
    if p[0] != -2 * sum(c * c for c in given) or p[3] != _pfaffian(x):
        return "p1 or pf differs from its definition"
    if after[0] != -2 * sum(c * c for c in image):
        return "p1 of the image differs from its definition"
    if after[3] != _pfaffian(_antisymmetric(image)):
        return "pf of the image differs from its definition"
    if newton(*p) != e:
        return "spectral coefficients fail Newton's identities"
    if sigma_invariants(*p) != after:
        return "invariants of the image fail the transformation law"
    return None


def altered_eval_op(eval_out: str, sigma_out: str) -> tuple[str, str]:
    """A copy of a good op whose image invariant p2 is off by one."""
    sg = json.loads(sigma_out)
    p2 = parse_rational(sg["invariants_after"]["p2"])
    sg["invariants_after"]["p2"] = str(p2 + 1)
    return eval_out, json.dumps(sg, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# structure_cold
# ---------------------------------------------------------------------------

def _check_subalgebra(data: dict, tag: str, dim: int, rank: int) -> str | None:
    if (data.get("tag"), data.get("dim"), data.get("rank"),
            data.get("killing_nondegenerate")) != (tag, dim, rank, True):
        return f"{tag}: reported {data.get('dim')}/{data.get('rank')}/" \
               f"{data.get('killing_nondegenerate')}, want {dim}/{rank}/True"
    basis = [_vector(b, 28) for b in data.get("basis_coeffs", [])]
    if len(basis) != dim or _rank(basis) != dim:
        return f"{tag}: basis is not {dim} independent vectors"
    return None


def check_fixed(code: int, stdout: str) -> str | None:
    """dims 14/21, ranks 2/3, nondegenerate Killing forms, independent bases."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
        return (_check_subalgebra(out["order3_fixed"], "g2", 14, 2)
                or _check_subalgebra(out["involution_fixed"], "so7", 21, 3))
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc}"


def check_dump(code: int, stdout: str) -> str | None:
    """order3_full^3 = I, its fixed space is 14-dim and spanned by the g2 basis,
    and the so7 basis spans the 21 generators with no index 7."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
        full = _matrix(out["order3_full"], 28)
        g2 = [_vector(b, 28) for b in out["g2_basis"]]
        so7 = [_vector(b, 28) for b in out["so7_basis"]]
        labels = out["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc}"
    identity = [[Fraction(int(i == j)) for j in range(28)] for i in range(28)]
    if full == identity or _matmul(_matmul(full, full), full) != identity:
        return "order3_full is not of order 3"
    delta = [[full[i][j] - identity[i][j] for j in range(28)] for i in range(28)]
    if 28 - _rank(delta) != 14:
        return "order3_full does not fix a 14-dimensional subspace"
    if len(g2) != 14 or _rank(g2) != 14:
        return "g2 basis is not 14 independent vectors"
    for v in g2:
        if [sum((a * b for a, b in zip(row, v) if a), Fraction(0)) for row in full] != v:
            return "a g2 basis vector is not fixed by order3_full"
    seven = [k for k, label in enumerate(labels) if label.endswith(",7)")]
    if len(seven) != 7 or len(so7) != 21 or _rank(so7) != 21 \
            or any(v[k] != 0 for v in so7 for k in seven):
        return "so7 basis is not the 21 generators fixed by the involution"
    return None


def altered_dump(stdout: str) -> str:
    """A copy of a good dump whose first g2 basis vector has one entry moved."""
    out = json.loads(stdout)
    first = out["g2_basis"][0]
    first[0] = str(parse_rational(first[0]) + 1)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def altered_fixed(stdout: str) -> str:
    """A copy of a good `fixed` output that reports rank 3 for g2."""
    out = json.loads(stdout)
    out["order3_fixed"]["rank"] = 3
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
