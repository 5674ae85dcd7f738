"""Deterministic verification suites.

`build_report` runs one table of (check_id, check) pairs in order; the
prefix of an id up to its first dot names its suite. Each check returns a
JSON-ready entry built by one of the shared shapes below. Entry statuses are
"pass", "fail" or "discrepancy-confirmed"; the last marks an informational
entry demonstrating that a rejected candidate coefficient set disagrees with
the derivation oracle, and does not fail the run. Identical configurations
produce byte-identical reports.

The checks run in two lanes that share no computed state: the fixed-locus
lane (the triality suite and the invariants checks that read the fixed loci)
and every other check. When both lanes have checks and `os.fork` exists, the
fixed-locus lane runs in a forked child while the calling process runs the
other; the entries are the same either way.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional

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
        return asdict(self)


def build_report(cfg: RunConfig) -> list[dict]:
    tmap = (automorphisms.TrialityMap.corrupted() if cfg.corrupt_constant
            else automorphisms.TrialityMap.standard())
    # the generic samples m_k = random_element(seed + k, bound) are drawn and
    # evaluated once, on first use, for every check that reads them
    samples = functools.cache(lambda: _generic_samples(cfg, tmap))
    # likewise the g2 locus samples, for g2_locus and the trace-ratio check
    g2_samples = functools.cache(
        lambda: _locus_samples(cfg, automorphisms.g2_fixed_subalgebra()))
    checks: tuple[tuple[str, Callable[[], dict]], ...] = (
        ("octonion.table_rules", _check_octonion_table),
        ("octonion.rotation_automorphism", _check_rotation),
        ("octonion.quaternion_lines", _check_quaternion_lines),
        ("octonion.norm_composition", lambda: _check_norm_composition(cfg)),
        ("so8.dimension_roundtrip", lambda: _check_roundtrip(cfg)),
        ("so8.quadruple_partition", _check_quadruples),
        ("so8.bracket_antisymmetry", _check_bracket_antisymmetry),
        ("triality.block_identities", lambda: _check_block(tmap)),
        ("triality.order_three", lambda: _check_order_three(tmap)),
        ("triality.bracket_preservation", lambda: automorphisms.verify_bracket_preservation(
            cfg.samples, cfg.seed, tmap, cfg.bound)),
        ("triality.fixed_dims", lambda: _check_fixed_dims(tmap)),
        ("triality.trace_form", lambda: _check_trace_form(tmap)),
        ("invariants.transformation_law", lambda: _check_transformation_law(samples())),
        ("invariants.transformation_order_three",
         lambda: _check_transformation_order(samples())),
        ("invariants.t_matrix", _check_t_matrix),
        ("invariants.degree6_invariance", lambda: _check_degree6_invariance(samples()[:50])),
        ("invariants.pfaffian_consistency", lambda: _check_pfaffian(cfg, samples()[:50])),
        ("invariants.newton_oracle", lambda: _check_newton(samples())),
        ("invariants.g2_locus", lambda: _check_locus(g2_samples())),
        ("invariants.so7_locus", lambda: _check_locus(
            _locus_samples(cfg, automorphisms.so7_fixed_subalgebra()))),
        ("invariants.generic_eigenstructure",
         lambda: _check_generic_eigenstructure(cfg, samples())),
        ("invariants.c3_model", _check_c3_model),
        ("invariants.eta4_coefficient_discrepancy", lambda: _check_eta_discrepancy(
            "e2", invariants.candidate_eta4_coefficient,
            "p1^2/4 + p2/8", "(q1^2 - q2)/2")),
        ("invariants.eta2_coefficient_discrepancy", lambda: _check_eta_discrepancy(
            "e3", invariants.candidate_eta2_coefficient,
            "p1^3/48 - 6 p1 p2 + 8 p3", "(q1^3 - 3 q1 q2 + 2 q3)/6", reject_negation=True)),
        ("invariants.c3_coefficient_discrepancy", _check_c3_discrepancy),
        ("invariants.g2_trace_ratio_discrepancy",
         lambda: _check_trace_ratio_discrepancy(g2_samples()[:20])),
    )

    selected = [(check_id, fn) for check_id, fn in checks
                if cfg.suite in (None, check_id.partition(".")[0])]
    child_lane = [c for c in selected if c[0] in _FIXED_LOCUS_CHECKS
                  or c[0].startswith("triality.")]
    if not hasattr(os, "fork") or len(child_lane) in (0, len(selected)):
        return _run_lane(selected)
    done = {e["check_id"]: e for e in
            _run_forked(child_lane, [c for c in selected if c not in child_lane])}
    return [done[check_id] for check_id, _ in selected]


# the invariants checks that read the fixed loci; they run in the lane of the
# triality suite, which builds the loci, so that each process builds what it reads
_FIXED_LOCUS_CHECKS = ("invariants.g2_locus", "invariants.so7_locus",
                       "invariants.g2_trace_ratio_discrepancy")


def _run_lane(lane: list[tuple[str, Callable[[], dict]]]) -> list[dict]:
    entries = []
    for check_id, fn in lane:
        try:
            entry = fn()
        except (ConsistencyError, ValueError) as exc:
            entry = _entry(False, error=str(exc))
        except Exception as exc:  # one broken check must not abort the report
            entry = _entry(False, error=f"{type(exc).__name__}: {exc}")
        entry["check_id"] = check_id
        entry["suite"] = check_id.partition(".")[0]
        entries.append(entry)
    return entries


def _run_forked(child_lane: list, parent_lane: list) -> list[dict]:
    """Run child_lane in a forked child and parent_lane here, at the same
    time. The child sends its entries back through a pipe, marshalled, and
    leaves through os._exit, so it never returns into the caller, flushes
    the caller's stdio buffers or runs its exit handlers. A child that dies
    or sends a malformed report fails each check of its lane."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_run_lane(child_lane)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        entries = _run_lane(parent_lane)
        data = pipe.read()
    finally:
        pipe.close()  # first, so that a child blocked on writing to it ends too
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        received = marshal.loads(data)
        ok = code == 0 and [e["check_id"] for e in received] == [c[0] for c in child_lane]
    except (EOFError, ValueError, TypeError, KeyError):
        ok = False
    if not ok:
        died = (f"was killed by signal {-code}" if code < 0
                else f"exited with status {code}" if code else "sent a malformed report")
        error = f"fixed-locus lane: child process {died}"
        received = _run_lane([(check_id, lambda: _entry(False, error=error))
                              for check_id, _ in child_lane])
    return entries + received


def report_passed(entries: list[dict]) -> bool:
    return all(e["status"] != "fail" for e in entries)


# ---------------------------------------------------------------------------
# the shapes every entry is built from
# ---------------------------------------------------------------------------

def _entry(ok: bool, counterexample: Optional[dict] = None, **fields) -> dict:
    """A pass/fail entry: its status, the given fields, and the counterexample
    when there is one."""
    entry = {"status": "pass" if ok else "fail", **fields}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


def _discrepancy(confirmed: bool, candidate: str, derived: str,
                 witness: Optional[dict], **fields) -> dict:
    """An informational entry: a rejected candidate expression next to the
    derived one, with the witness that tells them apart."""
    return {"status": "discrepancy-confirmed" if confirmed else "fail",
            "candidate_expression": candidate, "derived_expression": derived,
            "witness": witness, **fields}


def _generator_pairs(holds: Callable[[int, int], bool], pairs: Iterable[tuple[int, int]]) -> dict:
    """holds(a, b) for each pair of generator indices; the first pair where
    it fails is the counterexample. Reports all 28 * 28 pairs as checked:
    the given pairs decide the identity on every ordered pair."""
    for a, b in pairs:
        if not holds(a, b):
            return _entry(False, {"pair": [so8.GENERATORS[a].label, so8.GENERATORS[b].label]})
    return _entry(True, pairs_checked=28 * 28)


def _sampled(samples: int, witness: Callable[[int], Optional[dict]],
             holds: bool = True, **fields) -> dict:
    """Run witness(k) for k = 0..samples-1; it returns None on a pass and a
    witness dict on a failure. The first witness becomes the counterexample.
    `holds` is the verdict of any unsampled part of the check."""
    violations = 0
    counterexample = None
    for k in range(samples):
        found = witness(k)
        if found is not None:
            violations += 1
            if counterexample is None:
                counterexample = found
    return _entry(violations == 0 and holds, counterexample,
                  samples=samples, violations=violations, **fields)


def _sample_identity(samples: list[_Sample], lhs_name: str, lhs: Callable,
                     rhs_name: str, rhs: Callable) -> dict:
    """lhs(s) == rhs(s) on every shared sample s; a failing sample's witness
    holds both sides' JSON under lhs_name and rhs_name."""
    def witness(k):
        left, right = lhs(samples[k]), rhs(samples[k])
        if left != right:
            return {"sample": k, lhs_name: left.to_json(), rhs_name: right.to_json()}
        return None

    return _sampled(len(samples), witness)


# ---------------------------------------------------------------------------
# octonion suite
# ---------------------------------------------------------------------------

def _check_octonion_table() -> dict:
    table = octonion.structure_constants()

    def rule_holds(i, j):
        k, s = table[i][j]
        if i == 0:
            return (k, s) == (j, 1)
        if j == 0:
            return (k, s) == (i, 1)
        if i == j:
            return (k, s) == (0, -1)
        return table[j][i] == (k, -s) and k != 0 and s in (1, -1)

    bad = next(([i, j] for i in range(8) for j in range(8) if not rule_holds(i, j)), None)
    anchor_ok = table[5][2] == (3, 1)
    return _entry(bad is None and anchor_ok, None if bad is None else {"pair": bad},
                  products_checked=64, anchor_e5_e2_is_e3=anchor_ok)


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
    return _entry(is_auto and order3 and not_identity,
                  is_automorphism=is_auto, order_three=order3)


def _check_quaternion_lines() -> dict:
    def closed(line):
        members = {0, *line}
        return all(octonion.basis_product(a, b)[0] in members
                   for a in members for b in members)

    bad = [list(line) for line in octonion.FANO_LINES if not closed(line)]
    incidence_ok = all(sum(1 for line in octonion.FANO_LINES if i in line) == 3
                       for i in range(1, 8))
    return _entry(not bad and incidence_ok and len(octonion.FANO_LINES) == 7,
                  {"line": bad[0]} if bad else None,
                  lines=7, incidence_three_per_point=incidence_ok)


def _check_norm_composition(cfg: RunConfig) -> dict:
    rng = random.Random(cfg.seed)

    def witness(_k):
        x = octonion.Octonion.from_integers(
            [rng.randint(-cfg.bound, cfg.bound) for _ in range(8)], 1)
        y = octonion.Octonion.from_integers(
            [rng.randint(-cfg.bound, cfg.bound) for _ in range(8)], 1)
        if (x * y).norm_squared() != x.norm_squared() * y.norm_squared():
            return {"x": x.to_json(), "y": y.to_json()}
        return None

    return _sampled(cfg.samples, witness)


# ---------------------------------------------------------------------------
# so8 suite
# ---------------------------------------------------------------------------

def _check_roundtrip(cfg: RunConfig) -> dict:
    for g in so8.GENERATORS:
        elem = so8.So8Element.from_generator(g)
        if so8.So8Element.from_matrix(elem.matrix) != elem:
            return _entry(False, {"generator": g.label})
    rounds = min(cfg.samples, 50)
    for k in range(rounds):
        elem = so8.random_element(cfg.seed + k, cfg.bound)
        if so8.So8Element.from_matrix(elem.matrix) != elem:
            return _entry(False, {"sample": k})
    return _entry(True, elements_checked=len(so8.GENERATORS) + rounds,
                  generators=len(so8.GENERATORS))


def _check_quadruples() -> dict:
    quads = so8.quadruples()
    seen = sorted(g for q in quads for g in q.generators)
    partition_ok = seen == sorted(so8.GENERATORS)
    first = quads[0]
    last = quads[6]
    first_ok = tuple((g.i, g.j) for g in first.generators) == ((0, 1), (2, 4), (3, 7), (5, 6))
    last_ok = tuple((g.i, g.j) for g in last.generators) == ((0, 7), (1, 3), (2, 6), (4, 5))
    flips = sum(1 for q in quads for s in q.signs if s < 0)
    return _entry(partition_ok and first_ok and last_ok, partition=partition_ok,
                  sign_flips=flips,
                  quadruple_1=[g.label for g in first.generators],
                  quadruple_7=[g.label for g in last.generators])


def _check_bracket_antisymmetry() -> dict:
    # [a, b] = -[b, a] on the structure constants: entry (c, s) stands for
    # s * G_c and None for zero. The identity fails for (a, b) exactly when
    # it fails for (b, a), so the pairs with a <= b decide it
    table = so8.structure_constants()

    def holds(a, b):
        ba = table[b][a]
        return table[a][b] == (None if ba is None else (ba[0], -ba[1]))

    return _generator_pairs(holds, ((a, b) for a in range(28) for b in range(a, 28)))


# ---------------------------------------------------------------------------
# triality suite
# ---------------------------------------------------------------------------

def _check_block(tmap: automorphisms.TrialityMap) -> dict:
    b = tmap.block
    square, transpose = b * b, b.transpose()
    square_is_transpose = square == transpose
    cube_is_identity = b.power(3) == SquareMatrix.identity(4)
    counterexample = None
    if not square_is_transpose:
        i, j = next((i, j) for i in range(4) for j in range(4)
                    if square[i][j] != transpose[i][j])
        counterexample = {"entry": [i, j], "square": format_rational(square[i][j]),
                          "transpose": format_rational(transpose[i][j])}
    return _entry(square_is_transpose and cube_is_identity, counterexample,
                  square_is_transpose=square_is_transpose, cube_is_identity=cube_is_identity)


def _check_order_three(tmap: automorphisms.TrialityMap) -> dict:
    # sigma^3 = I on the 28 generators is sigma^3 = I by linearity, and the
    # first generator it moves is the counterexample
    nontrivial = tmap.full != SquareMatrix.identity(28)

    def moved_by_cube(g):
        e = so8.So8Element.from_generator(g)
        return tmap.apply(tmap.apply(tmap.apply(e))) != e

    moved = next((g.label for g in so8.GENERATORS if moved_by_cube(g)), None)
    cube_ok = moved is None
    return _entry(cube_ok and nontrivial, None if cube_ok else {"generator": moved},
                  cube_is_identity=cube_ok, nontrivial=nontrivial)


def _check_fixed_dims(tmap: automorphisms.TrialityMap) -> dict:
    # construction raises on a wrong dimension or a non-closed span, which the
    # report wrapper turns into a failed entry
    fixed = automorphisms.fixed_subalgebra(tmap)
    so7 = automorphisms.so7_fixed_subalgebra()
    pointwise = all(tmap.apply(b) == b for b in fixed.basis)
    return _entry(pointwise, order3_fixed_dim=fixed.dim, involution_fixed_dim=so7.dim,
                  basis_pointwise_fixed=pointwise, bracket_closed=True)


def _check_trace_form(tmap: automorphisms.TrialityMap) -> dict:
    elems = [so8.So8Element.from_generator(g) for g in so8.GENERATORS]
    before = [e.matrix for e in elems]
    after = [tmap.apply(e).matrix for e in elems]
    return _generator_pairs(
        lambda a, b: before[a].product_trace(before[b]) == after[a].product_trace(after[b]),
        itertools.product(range(28), repeat=2))


# ---------------------------------------------------------------------------
# invariants suite
# ---------------------------------------------------------------------------

class _Sample(NamedTuple):
    """What the sampled invariants checks read of one generic sample m: the
    invariants of m (v) and of sigma(m) (w), each from its own matrix, and
    the characteristic-polynomial coefficients of m (e). The element itself
    is not kept; a check that needs it draws it again."""

    v: invariants.InvariantVector
    w: invariants.InvariantVector
    e: invariants.SpectralCoefficients


def _generic_samples(cfg: RunConfig, tmap) -> list[_Sample]:
    out = []
    for k in range(cfg.samples):
        m = so8.random_element(cfg.seed + k, cfg.bound)
        out.append(_Sample(invariants.invariant_vector(m),
                           invariants.invariant_vector(tmap.apply(m)),
                           invariants.spectral_coefficients(m)))
    return out


def _check_transformation_law(samples: list[_Sample]) -> dict:
    return _sample_identity(samples, "direct", lambda s: s.w, "closed_form",
                            lambda s: invariants.sigma_transform_invariants(s.v))


def _check_transformation_order(samples: list[_Sample]) -> dict:
    transform = invariants.sigma_transform_invariants
    return _sample_identity(samples, "invariants", lambda s: s.v, "third_image",
                            lambda s: transform(transform(transform(s.v))))


_EXPECTED_T_SQUARED = SquareMatrix([
    [Fraction(1), _ZERO, _ZERO, _ZERO],
    [Fraction(3, 8), Fraction(-1, 2), Fraction(12), _ZERO],
    [Fraction(1, 64), Fraction(-1, 16), Fraction(-1, 2), _ZERO],
    [Fraction(15, 64), Fraction(-15, 16), Fraction(15, 2), Fraction(1)],
])


def _check_t_matrix() -> dict:
    cube_ok = invariants.T_MATRIX.power(3) == SquareMatrix.identity(4)
    square_ok = invariants.T_MATRIX.power(2) == _EXPECTED_T_SQUARED
    fields = {"cube_is_identity": cube_ok, "square_matches": square_ok}
    try:
        space = invariants.fixed_degree6_space()
    except ConsistencyError as exc:
        return _entry(False, error=str(exc), **fields)
    return _entry(cube_ok and square_ok and len(space) == 2, fixed_space_dim=len(space),
                  **fields)


def _check_degree6_invariance(samples: list[_Sample]) -> dict:
    # each functional takes the same value on the invariants of m and of sigma(m)
    def witness(k):
        v, w = samples[k].v, samples[k].w
        before = invariants.degree6_monomials(v)
        after = invariants.degree6_monomials(w)
        if any(sum(map(mul, f, before)) != sum(map(mul, f, after))
               for f in invariants.DEGREE6_INVARIANTS):
            return {"sample": k, "invariants": v.to_json(), "image_invariants": w.to_json()}
        return None

    return _sampled(len(samples), witness)


_BLOCK_TUPLES = (
    (1, 2, 3, 4), (1, 1, 1, 1), (2, 3, 5, 7), (1, -2, 3, -4), (0, 1, 2, 3),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
    (Fraction(3, 2), 2, Fraction(-5, 4), 1), (5, 5, 5, 5),
    (Fraction(7, 3), Fraction(-1, 3), Fraction(2, 3), 3), (9, 8, 7, 6),
)


def _check_pfaffian(cfg: RunConfig, samples: list[_Sample]) -> dict:
    # the matching-sum Pfaffian and the Bareiss determinant of m_k are the
    # shared sample's pf and e4; only the permutation sum needs m_k itself
    def witness(k):
        m = so8.random_element(cfg.seed + k, cfg.bound)
        via_matchings = samples[k].v.pf
        via_perms = invariants.pfaffian_permutation_sum(m)
        det = samples[k].e.e4
        if via_matchings != via_perms or via_matchings ** 2 != det:
            return {"sample": k,
                    "matchings": format_rational(via_matchings),
                    "permutation_sum": format_rational(via_perms),
                    "determinant": format_rational(det)}
        return None

    block_ok = all(
        invariants.pfaffian_matchings(invariants.canonical_block_element(lams))
        == Fraction(lams[0]) * lams[1] * lams[2] * lams[3]
        for lams in _BLOCK_TUPLES)
    return _sampled(len(samples), witness, block_ok,
                    block_models_checked=len(_BLOCK_TUPLES), block_models_ok=block_ok)


def _check_newton(samples: list[_Sample]) -> dict:
    return _sample_identity(samples, "newton", lambda s: invariants.newton_coefficients(s.v),
                            "char_poly", lambda s: s.e)


class _LocusSample(NamedTuple):
    """One locus sample m: its invariants and its eigenstructure check."""

    v: invariants.InvariantVector
    check: dict


def _locus_samples(cfg: RunConfig, sub: automorphisms.FixedSubalgebra) -> list[_LocusSample]:
    out = []
    for k in range(min(cfg.samples, 50)):
        m = sub.random_element(cfg.seed + k, cfg.bound)
        v = invariants.invariant_vector(m)
        out.append(_LocusSample(v, invariants.eigenstructure_check(m, sub.tag, v)))
    return out


def _check_locus(samples: list[_LocusSample]) -> dict:
    def witness(k):
        check = samples[k].check
        if check["status"] != "pass":
            return {"sample": k, "eigenstructure": check}
        return None

    return _sampled(len(samples), witness)


def _check_generic_eigenstructure(cfg: RunConfig, samples: list[_Sample]) -> dict:
    # m_0 = random_element(seed, bound) is the first generic sample
    m = so8.random_element(cfg.seed, cfg.bound)
    known = (samples[0].v, samples[0].e) if samples else (None, None)
    check = invariants.eigenstructure_check(m, "so8", *known)
    return _entry(check["status"] == "generic", reported=check["status"])


def _check_c3_model() -> dict:
    points = invariants.ETA_MODEL_POINTS

    def witness(k):
        h1, h2 = points[k]
        p1, p2, p3, expected = invariants.eta_model_values(h1, h2)
        got = invariants.c3_polynomial(invariants.C3_COEFFICIENTS, p1, p2, p3)
        if got != expected:
            return {"eta": [format_rational(h1), format_rational(h2)],
                    "got": format_rational(got), "expected": format_rational(expected)}
        return None

    anchor = invariants.eta_model_values(Fraction(1), Fraction(1))
    anchor_ok = anchor[3] == 4 and anchor[:3] == (12, 36, 132)
    entry = _sampled(len(points), witness, anchor_ok, anchor_point_ok=anchor_ok)
    entry["points"] = entry.pop("samples")
    return entry


_WITNESS_BLOCK = (1, 2, 3, 4)


def _check_eta_discrepancy(field: str, candidate_of: Callable, candidate_expression: str,
                           derived_expression: str, reject_negation: bool = False) -> dict:
    """A rejected candidate for the spectral coefficient `field` differs from
    it on the witness block, where Newton's identities reproduce it; with
    reject_negation the candidate must not match it up to sign either."""
    m = invariants.canonical_block_element(_WITNESS_BLOCK)
    v = invariants.invariant_vector(m)
    derived = getattr(invariants.newton_coefficients(v), field)
    oracle = getattr(invariants.spectral_coefficients(m), field)
    candidate = candidate_of(v)
    confirmed = (derived == oracle and candidate != oracle
                 and not (reject_negation and candidate == -oracle))
    return _discrepancy(
        confirmed, candidate_expression,
        derived_expression + " with q_k = (-1)^k Tr(M^(2k))/2",
        {"block_parameters": list(_WITNESS_BLOCK),
         "candidate_value": format_rational(candidate),
         "derived_value": format_rational(derived),
         "char_poly_coefficient": format_rational(oracle)})


def _check_c3_discrepancy() -> dict:
    result = invariants.derive_c3_coefficients()
    confirmed = (result["newton_representative_confirmed"]
                 and not result["candidate_confirmed"]
                 and result["kernel_dimension"] == 1
                 and result["witness"] is not None)
    return _discrepancy(confirmed, "p1^3/16 - 5 p1 p2 + 8 p3", "p1^3/48 - p1 p2/8 + p3/6",
                        result["witness"], solution_family_dimension=result["kernel_dimension"])


def _check_trace_ratio_discrepancy(samples: list[_LocusSample]) -> dict:
    """On the order-3 fixed locus Tr(M^4) = Tr(M^2)^2/4; the ratio 1/2 is a
    rejected candidate, shown wrong on a concrete locus element."""
    witness = None
    quarter_holds = True
    for k, sample in enumerate(samples):
        v = sample.v
        if 4 * v.p2 != v.p1 ** 2:
            quarter_holds = False
        if witness is None and v.p1 != 0 and 2 * v.p2 != v.p1 ** 2:
            witness = {"sample": k,
                       "p1": format_rational(v.p1), "p2": format_rational(v.p2),
                       "quarter_p1_squared": format_rational(v.p1 ** 2 / 4),
                       "half_p1_squared": format_rational(v.p1 ** 2 / 2)}
    return _discrepancy(quarter_holds and witness is not None,
                        "Tr(M^4) = Tr(M^2)^2/2 on the fixed locus",
                        "Tr(M^4) = Tr(M^2)^2/4 on the fixed locus", witness)
