"""Deterministic verification suites.

Each check returns a JSON-ready entry; the consolidated report is a list of
entries in a fixed order. Entry statuses are "pass", "fail" or
"discrepancy-confirmed"; the last marks an informational entry demonstrating
that a rejected candidate coefficient set disagrees with the derivation
oracle, and does not fail the run. Identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import automorphisms, invariants, octonion, so8
from .exact import ConsistencyError, SquareMatrix, format_rational

_ZERO = Fraction(0)

SUITES = ("octonion", "so8", "triality", "invariants")


@dataclass(frozen=True)
class RunConfig:
    samples: int = 100
    seed: int = 42
    bound: int = 9
    suite: Optional[str] = None
    corrupt_constant: bool = False

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "bound": self.bound,
            "suite": self.suite,
            "corrupt_constant": self.corrupt_constant,
        }


def build_report(cfg: RunConfig) -> list[dict]:
    tmap = (automorphisms.TrialityMap.corrupted() if cfg.corrupt_constant
            else automorphisms.TrialityMap.standard())
    checks: list[tuple[str, str, Callable[[], dict]]] = []

    def add(suite, check_id, fn):
        checks.append((suite, check_id, fn))

    add("octonion", "octonion.table_rules", _check_octonion_table)
    add("octonion", "octonion.rotation_automorphism", _check_rotation)
    add("octonion", "octonion.quaternion_lines", _check_quaternion_lines)
    add("octonion", "octonion.norm_composition",
        lambda: _check_norm_composition(cfg))

    add("so8", "so8.dimension_roundtrip", lambda: _check_roundtrip(cfg))
    add("so8", "so8.quadruple_partition", _check_quadruples)
    add("so8", "so8.bracket_antisymmetry", _check_bracket_antisymmetry)

    add("triality", "triality.block_identities", lambda: _check_block(tmap))
    add("triality", "triality.order_three", lambda: _check_order_three(tmap))
    add("triality", "triality.bracket_preservation",
        lambda: _check_bracket_preservation(cfg, tmap))
    add("triality", "triality.fixed_dims", lambda: _check_fixed_dims(tmap))
    add("triality", "triality.trace_form", lambda: _check_trace_form(tmap))

    add("invariants", "invariants.transformation_law",
        lambda: _check_transformation_law(cfg, tmap))
    add("invariants", "invariants.transformation_order_three",
        lambda: _check_transformation_order(cfg))
    add("invariants", "invariants.t_matrix", _check_t_matrix)
    add("invariants", "invariants.degree6_invariance",
        lambda: _check_degree6_invariance(cfg, tmap))
    add("invariants", "invariants.pfaffian_consistency",
        lambda: _check_pfaffian(cfg))
    add("invariants", "invariants.newton_oracle", lambda: _check_newton(cfg))
    add("invariants", "invariants.g2_locus", lambda: _check_g2_locus(cfg))
    add("invariants", "invariants.so7_locus", lambda: _check_so7_locus(cfg))
    add("invariants", "invariants.generic_eigenstructure",
        lambda: _check_generic_eigenstructure(cfg))
    add("invariants", "invariants.c3_model", _check_c3_model)
    add("invariants", "invariants.eta4_coefficient_discrepancy",
        _check_eta4_discrepancy)
    add("invariants", "invariants.eta2_coefficient_discrepancy",
        _check_eta2_discrepancy)
    add("invariants", "invariants.c3_coefficient_discrepancy",
        _check_c3_discrepancy)
    add("invariants", "invariants.g2_trace_ratio_discrepancy",
        lambda: _check_trace_ratio_discrepancy(cfg))

    entries = []
    for suite, check_id, fn in checks:
        if cfg.suite is not None and suite != cfg.suite:
            continue
        try:
            entry = fn()
        except (ConsistencyError, ValueError) as exc:
            entry = {"status": "fail", "error": str(exc)}
        entry["check_id"] = check_id
        entry["suite"] = suite
        entries.append(entry)
    return entries


def report_passed(entries: list[dict]) -> bool:
    return all(e["status"] != "fail" for e in entries)


def _sampled(samples: int, witness: Callable[[int], Optional[dict]]) -> dict:
    """Run witness(k) for k = 0..samples-1; it returns None on a pass and a
    witness dict on a failure. The first witness becomes the counterexample."""
    violations = 0
    counterexample = None
    for k in range(samples):
        found = witness(k)
        if found is not None:
            violations += 1
            if counterexample is None:
                counterexample = found
    entry = {"status": "pass" if violations == 0 else "fail",
             "samples": samples, "violations": violations}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


# ---------------------------------------------------------------------------
# octonion suite
# ---------------------------------------------------------------------------

def _check_octonion_table() -> dict:
    table = octonion.structure_constants()
    failures = []
    for i in range(8):
        for j in range(8):
            k, s = table[i][j]
            ok = True
            if i == 0:
                ok = (k, s) == (j, 1)
            elif j == 0:
                ok = (k, s) == (i, 1)
            elif i == j:
                ok = (k, s) == (0, -1)
            else:
                ok = table[j][i] == (k, -s) and k != 0 and s in (1, -1)
            if not ok:
                failures.append([i, j])
    anchor_ok = table[5][2] == (3, 1)
    status = "pass" if not failures and anchor_ok else "fail"
    entry = {"status": status, "products_checked": 64, "anchor_e5_e2_is_e3": anchor_ok}
    if failures:
        entry["counterexample"] = {"pair": failures[0]}
    return entry


def _check_rotation() -> dict:
    mat = octonion.rotation_matrix()
    is_auto = octonion.is_algebra_automorphism(mat)
    order3 = all(
        octonion.rotation_automorphism(
            octonion.rotation_automorphism(
                octonion.rotation_automorphism(octonion.Octonion.basis(k))))
        == octonion.Octonion.basis(k)
        for k in range(8))
    not_identity = mat != SquareMatrix.identity(8)
    ok = is_auto and order3 and not_identity
    return {"status": "pass" if ok else "fail",
            "is_automorphism": is_auto, "order_three": order3}


def _check_quaternion_lines() -> dict:
    bad_lines = []
    for line in octonion.FANO_LINES:
        members = {0} | set(line)
        for a in members:
            for b in members:
                k, _ = octonion.basis_product(a, b)
                if k not in members:
                    bad_lines.append(list(line))
    incidence_ok = all(sum(1 for line in octonion.FANO_LINES if i in line) == 3
                       for i in range(1, 8))
    ok = not bad_lines and incidence_ok and len(octonion.FANO_LINES) == 7
    entry = {"status": "pass" if ok else "fail", "lines": 7,
             "incidence_three_per_point": incidence_ok}
    if bad_lines:
        entry["counterexample"] = {"line": bad_lines[0]}
    return entry


def _check_norm_composition(cfg: RunConfig) -> dict:
    rng = random.Random(cfg.seed)

    def witness(_k):
        x = octonion.Octonion([Fraction(rng.randint(-cfg.bound, cfg.bound))
                               for _ in range(8)])
        y = octonion.Octonion([Fraction(rng.randint(-cfg.bound, cfg.bound))
                               for _ in range(8)])
        if (x * y).norm_squared() != x.norm_squared() * y.norm_squared():
            return {"x": x.to_json(), "y": y.to_json()}
        return None

    return _sampled(cfg.samples, witness)


# ---------------------------------------------------------------------------
# so8 suite
# ---------------------------------------------------------------------------

def _check_roundtrip(cfg: RunConfig) -> dict:
    count = 0
    for g in so8.GENERATORS:
        elem = so8.So8Element.from_generator(g)
        if so8.So8Element.from_matrix(elem.matrix) != elem:
            return {"status": "fail", "counterexample": {"generator": g.label}}
        count += 1
    rounds = min(cfg.samples, 50)
    for k in range(rounds):
        elem = so8.random_element(cfg.seed + k, cfg.bound)
        if so8.So8Element.from_matrix(elem.matrix) != elem:
            return {"status": "fail", "counterexample": {"sample": k}}
        count += 1
    return {"status": "pass", "elements_checked": count,
            "generators": len(so8.GENERATORS)}


def _check_quadruples() -> dict:
    quads = so8.quadruples()
    seen = sorted(g for q in quads for g in q.generators)
    partition_ok = seen == sorted(so8.GENERATORS)
    first = quads[0]
    last = quads[6]
    first_ok = tuple((g.i, g.j) for g in first.generators) == ((0, 1), (2, 4), (3, 7), (5, 6))
    last_ok = tuple((g.i, g.j) for g in last.generators) == ((0, 7), (1, 3), (2, 6), (4, 5))
    flips = sum(1 for q in quads for s in q.signs if s < 0)
    ok = partition_ok and first_ok and last_ok
    return {"status": "pass" if ok else "fail", "partition": partition_ok,
            "sign_flips": flips,
            "quadruple_1": [g.label for g in first.generators],
            "quadruple_7": [g.label for g in last.generators]}


def _check_bracket_antisymmetry() -> dict:
    elems = [so8.So8Element.from_generator(g) for g in so8.GENERATORS]
    for a in range(28):
        for b in range(28):
            if so8.bracket(elems[a], elems[b]) != -so8.bracket(elems[b], elems[a]):
                return {"status": "fail",
                        "counterexample": {"pair": [so8.GENERATORS[a].label,
                                                    so8.GENERATORS[b].label]}}
    return {"status": "pass", "pairs_checked": 28 * 28}


# ---------------------------------------------------------------------------
# triality suite
# ---------------------------------------------------------------------------

def _check_block(tmap: automorphisms.TrialityMap) -> dict:
    b = tmap.block
    square_is_transpose = (b * b) == b.transpose()
    cube_is_identity = b.power(3) == SquareMatrix.identity(4)
    ok = square_is_transpose and cube_is_identity
    return {"status": "pass" if ok else "fail",
            "square_is_transpose": square_is_transpose,
            "cube_is_identity": cube_is_identity}


def _check_order_three(tmap: automorphisms.TrialityMap) -> dict:
    identity = SquareMatrix.identity(28)
    cube_ok = tmap.full.power(3) == identity
    nontrivial = tmap.full != identity
    basis_ok = None
    for g in so8.GENERATORS:
        e = so8.So8Element.from_generator(g)
        if tmap.apply(tmap.apply(tmap.apply(e))) != e:
            basis_ok = g.label
            break
    ok = cube_ok and nontrivial and basis_ok is None
    entry = {"status": "pass" if ok else "fail",
             "cube_is_identity": cube_ok, "nontrivial": nontrivial}
    if basis_ok is not None:
        entry["counterexample"] = {"generator": basis_ok}
    return entry


def _check_bracket_preservation(cfg: RunConfig, tmap) -> dict:
    report = automorphisms.verify_bracket_preservation(cfg.samples, cfg.seed, tmap)
    report.pop("check", None)
    return report


def _check_fixed_dims(tmap: automorphisms.TrialityMap) -> dict:
    # construction raises on a wrong dimension or a non-closed span, which the
    # report wrapper turns into a failed entry
    fixed = automorphisms.fixed_subalgebra(tmap, expected_dim=14, tag="g2")
    so7 = automorphisms.so7_fixed_subalgebra()
    pointwise = all(tmap.apply(b) == b for b in fixed.basis)
    return {"status": "pass" if pointwise else "fail",
            "order3_fixed_dim": fixed.dim, "involution_fixed_dim": so7.dim,
            "basis_pointwise_fixed": pointwise,
            "bracket_closed": True}


def _check_trace_form(tmap: automorphisms.TrialityMap) -> dict:
    elems = [so8.So8Element.from_generator(g) for g in so8.GENERATORS]
    images = [tmap.apply(e) for e in elems]
    for a in range(28):
        for b in range(28):
            before = (elems[a].matrix * elems[b].matrix).trace()
            after = (images[a].matrix * images[b].matrix).trace()
            if before != after:
                return {"status": "fail",
                        "counterexample": {"pair": [so8.GENERATORS[a].label,
                                                    so8.GENERATORS[b].label]}}
    return {"status": "pass", "pairs_checked": 28 * 28}


# ---------------------------------------------------------------------------
# invariants suite
# ---------------------------------------------------------------------------

def _check_transformation_law(cfg: RunConfig, tmap) -> dict:
    def witness(k):
        m = so8.random_element(cfg.seed + k, cfg.bound)
        direct = invariants.invariant_vector(tmap.apply(m))
        closed_form = invariants.sigma_transform_invariants(invariants.invariant_vector(m))
        if direct != closed_form:
            return {"sample": k, "direct": direct.to_json(),
                    "closed_form": closed_form.to_json()}
        return None

    return _sampled(cfg.samples, witness)


def _check_transformation_order(cfg: RunConfig) -> dict:
    def witness(k):
        v = invariants.invariant_vector(so8.random_element(cfg.seed + k, cfg.bound))
        w = invariants.sigma_transform_invariants(
            invariants.sigma_transform_invariants(
                invariants.sigma_transform_invariants(v)))
        if w != v:
            return {"sample": k, "invariants": v.to_json(), "third_image": w.to_json()}
        return None

    return _sampled(cfg.samples, witness)


_EXPECTED_T_SQUARED = SquareMatrix([
    [Fraction(1), _ZERO, _ZERO, _ZERO],
    [Fraction(3, 8), Fraction(-1, 2), Fraction(12), _ZERO],
    [Fraction(1, 64), Fraction(-1, 16), Fraction(-1, 2), _ZERO],
    [Fraction(15, 64), Fraction(-15, 16), Fraction(15, 2), Fraction(1)],
])


def _check_t_matrix() -> dict:
    cube_ok = invariants.t_matrix(3) == SquareMatrix.identity(4)
    square_ok = invariants.t_matrix(2) == _EXPECTED_T_SQUARED
    space = invariants.fixed_degree6_space()
    ok = cube_ok and square_ok and len(space) == 2
    return {"status": "pass" if ok else "fail",
            "cube_is_identity": cube_ok, "square_matches": square_ok,
            "fixed_space_dim": len(space)}


def _check_degree6_invariance(cfg: RunConfig, tmap) -> dict:
    def witness(k):
        m = so8.random_element(cfg.seed + k, cfg.bound)
        v = invariants.invariant_vector(m)
        w = invariants.invariant_vector(tmap.apply(m))
        cubic_ok = v.p1 ** 3 == w.p1 ** 3
        mixed_ok = 5 * v.p1 * v.p2 - 8 * v.p3 == 5 * w.p1 * w.p2 - 8 * w.p3
        if not (cubic_ok and mixed_ok):
            return {"sample": k, "invariants": v.to_json(), "image_invariants": w.to_json()}
        return None

    return _sampled(min(cfg.samples, 50), witness)


_BLOCK_TUPLES = (
    (1, 2, 3, 4), (1, 1, 1, 1), (2, 3, 5, 7), (1, -2, 3, -4), (0, 1, 2, 3),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
    (Fraction(3, 2), 2, Fraction(-5, 4), 1), (5, 5, 5, 5),
    (Fraction(7, 3), Fraction(-1, 3), Fraction(2, 3), 3), (9, 8, 7, 6),
)


def _check_pfaffian(cfg: RunConfig) -> dict:
    def witness(k):
        m = so8.random_element(cfg.seed + k, cfg.bound)
        via_matchings = invariants.pfaffian_matchings(m)
        via_perms = invariants.pfaffian_permutation_sum(m)
        det = m.matrix.determinant()
        if via_matchings != via_perms or via_matchings ** 2 != det:
            return {"sample": k,
                    "matchings": format_rational(via_matchings),
                    "permutation_sum": format_rational(via_perms),
                    "determinant": format_rational(det)}
        return None

    entry = _sampled(min(cfg.samples, 50), witness)
    block_ok = True
    for lams in _BLOCK_TUPLES:
        m = invariants.canonical_block_element([Fraction(l) for l in lams])
        expected = Fraction(lams[0]) * Fraction(lams[1]) * Fraction(lams[2]) * Fraction(lams[3])
        if invariants.pfaffian_matchings(m) != expected:
            block_ok = False
    if not block_ok:
        entry["status"] = "fail"
    entry["block_models_checked"] = len(_BLOCK_TUPLES)
    entry["block_models_ok"] = block_ok
    return entry


def _check_newton(cfg: RunConfig) -> dict:
    def witness(k):
        m = so8.random_element(cfg.seed + k, cfg.bound)
        via_newton = invariants.newton_coefficients(invariants.invariant_vector(m))
        via_charpoly = invariants.spectral_coefficients(m)
        if via_newton != via_charpoly:
            return {"sample": k, "newton": via_newton.to_json(),
                    "char_poly": via_charpoly.to_json()}
        return None

    return _sampled(cfg.samples, witness)


def _check_g2_locus(cfg: RunConfig) -> dict:
    sub = automorphisms.g2_fixed_subalgebra()

    def witness(k):
        m = sub.random_element(cfg.seed + k, cfg.bound)
        check = invariants.eigenstructure_check(m, "g2")
        c1, c3 = invariants.g2_restriction(m)
        v = invariants.invariant_vector(m)
        e = invariants.spectral_coefficients(m)
        if not (check["status"] == "pass" and c1 == v.p1 / 2 and c3 == -e.e3):
            return {"sample": k, "eigenstructure": check}
        return None

    return _sampled(min(cfg.samples, 50), witness)


def _check_so7_locus(cfg: RunConfig) -> dict:
    sub = automorphisms.so7_fixed_subalgebra()

    def witness(k):
        m = sub.random_element(cfg.seed + k, cfg.bound)
        check = invariants.eigenstructure_check(m, "so7")
        if check["status"] != "pass":
            return {"sample": k, "eigenstructure": check}
        return None

    return _sampled(min(cfg.samples, 50), witness)


def _check_generic_eigenstructure(cfg: RunConfig) -> dict:
    m = so8.random_element(cfg.seed, cfg.bound)
    check = invariants.eigenstructure_check(m, "so8")
    return {"status": "pass" if check["status"] == "generic" else "fail",
            "reported": check["status"]}


def _check_c3_model() -> dict:
    violations = 0
    counterexample = None
    a, b, g = invariants.C3_COEFFICIENTS
    for (h1, h2) in invariants.ETA_MODEL_POINTS:
        p1, p2, p3, expected = invariants.eta_model_values(h1, h2)
        got = a * p1 ** 3 + b * p1 * p2 + g * p3
        if got != expected:
            violations += 1
            if counterexample is None:
                counterexample = {"eta": [format_rational(h1), format_rational(h2)],
                                  "got": format_rational(got),
                                  "expected": format_rational(expected)}
    anchor = invariants.eta_model_values(Fraction(1), Fraction(1))
    anchor_ok = anchor[3] == 4 and anchor[:3] == (12, 36, 132)
    entry = {"status": "pass" if violations == 0 and anchor_ok else "fail",
             "points": len(invariants.ETA_MODEL_POINTS),
             "violations": violations, "anchor_point_ok": anchor_ok}
    if counterexample:
        entry["counterexample"] = counterexample
    return entry


_WITNESS_BLOCK = (1, 2, 3, 4)


def _check_eta4_discrepancy() -> dict:
    m = invariants.canonical_block_element([Fraction(l) for l in _WITNESS_BLOCK])
    v = invariants.invariant_vector(m)
    derived = invariants.newton_coefficients(v).e2
    oracle = invariants.spectral_coefficients(m).e2
    candidate = invariants.candidate_eta4_coefficient(v)
    confirmed = derived == oracle and candidate != oracle
    return {
        "status": "discrepancy-confirmed" if confirmed else "fail",
        "candidate_expression": "p1^2/4 + p2/8",
        "derived_expression": "(q1^2 - q2)/2 with q_k = (-1)^k Tr(M^(2k))/2",
        "witness": {"block_parameters": list(_WITNESS_BLOCK),
                    "candidate_value": format_rational(candidate),
                    "derived_value": format_rational(derived),
                    "char_poly_coefficient": format_rational(oracle)},
    }


def _check_eta2_discrepancy() -> dict:
    m = invariants.canonical_block_element([Fraction(l) for l in _WITNESS_BLOCK])
    v = invariants.invariant_vector(m)
    derived = invariants.newton_coefficients(v).e3
    oracle = invariants.spectral_coefficients(m).e3
    candidate = invariants.candidate_eta2_coefficient(v)
    confirmed = derived == oracle and candidate != oracle and candidate != -oracle
    return {
        "status": "discrepancy-confirmed" if confirmed else "fail",
        "candidate_expression": "p1^3/48 - 6 p1 p2 + 8 p3",
        "derived_expression": "(q1^3 - 3 q1 q2 + 2 q3)/6 with q_k = (-1)^k Tr(M^(2k))/2",
        "witness": {"block_parameters": list(_WITNESS_BLOCK),
                    "candidate_value": format_rational(candidate),
                    "derived_value": format_rational(derived),
                    "char_poly_coefficient": format_rational(oracle)},
    }


def _check_c3_discrepancy() -> dict:
    result = invariants.derive_c3_coefficients()
    confirmed = (result["newton_representative_confirmed"]
                 and not result["candidate_confirmed"]
                 and result["kernel_dimension"] == 1
                 and result["witness"] is not None)
    return {
        "status": "discrepancy-confirmed" if confirmed else "fail",
        "candidate_expression": "p1^3/16 - 5 p1 p2 + 8 p3",
        "derived_expression": "p1^3/48 - p1 p2/8 + p3/6",
        "solution_family_dimension": result["kernel_dimension"],
        "witness": result["witness"],
    }


def _check_trace_ratio_discrepancy(cfg: RunConfig) -> dict:
    """On the order-3 fixed locus Tr(M^4) = Tr(M^2)^2/4; the ratio 1/2 is a
    rejected candidate, shown wrong on a concrete locus element."""
    sub = automorphisms.g2_fixed_subalgebra()
    witness = None
    quarter_holds = True
    for k in range(min(cfg.samples, 20)):
        m = sub.random_element(cfg.seed + k, cfg.bound)
        v = invariants.invariant_vector(m)
        if 4 * v.p2 != v.p1 ** 2:
            quarter_holds = False
        if witness is None and v.p1 != 0 and 2 * v.p2 != v.p1 ** 2:
            witness = {"sample": k,
                       "p1": format_rational(v.p1), "p2": format_rational(v.p2),
                       "quarter_p1_squared": format_rational(v.p1 ** 2 / 4),
                       "half_p1_squared": format_rational(v.p1 ** 2 / 2)}
    confirmed = quarter_holds and witness is not None
    return {
        "status": "discrepancy-confirmed" if confirmed else "fail",
        "candidate_expression": "Tr(M^4) = Tr(M^2)^2/2 on the fixed locus",
        "derived_expression": "Tr(M^4) = Tr(M^2)^2/4 on the fixed locus",
        "witness": witness,
    }
