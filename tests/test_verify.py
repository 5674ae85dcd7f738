import dataclasses
import hashlib
import json
import marshal
import os
import signal
import subprocess
import sys
import types

import pytest

from triality import automorphisms, invariants, octonion, so8, verify
from triality.exact import ConsistencyError, SquareMatrix
from triality.verify import RunConfig, SUITES, build_report, report_passed

SMALL = RunConfig(samples=3, seed=42)


@pytest.fixture(scope="module")
def small_report():
    """One build_report(SMALL), shared by the tests that only read it."""
    return build_report(SMALL)


class TestReport:
    def test_all_checks_pass_by_default(self, small_report):
        entries = small_report
        assert report_passed(entries)
        assert all(e["status"] in ("pass", "discrepancy-confirmed") for e in entries)

    def test_discrepancy_entries_present_with_witnesses(self, small_report):
        entries = {e["check_id"]: e for e in small_report}
        for check_id in ("invariants.eta4_coefficient_discrepancy",
                         "invariants.eta2_coefficient_discrepancy",
                         "invariants.c3_coefficient_discrepancy",
                         "invariants.g2_trace_ratio_discrepancy"):
            entry = entries[check_id]
            assert entry["status"] == "discrepancy-confirmed"
            assert entry["witness"] is not None
            assert "candidate_expression" in entry
            assert "derived_expression" in entry
        c3 = entries["invariants.c3_coefficient_discrepancy"]
        assert c3["solution_family_dimension"] == 1
        assert c3["witness"] == {"eta": ["1", "1", "-2"], "expected": "4",
                                 "candidate_value": "-996"}

    def test_headline_check_reports_sample_count(self):
        entries = {e["check_id"]: e for e in build_report(RunConfig(samples=7, seed=1))}
        law = entries["invariants.transformation_law"]
        assert law["status"] == "pass"
        assert law["samples"] == 7

    def test_deterministic(self):
        assert build_report(SMALL) == build_report(SMALL)

    def test_suite_filter(self):
        entries = build_report(RunConfig(samples=2, seed=42, suite="octonion"))
        assert entries
        assert all(e["suite"] == "octonion" for e in entries)
        assert set(SUITES) == {"octonion", "so8", "triality", "invariants"}

    def test_an_unknown_suite_is_an_error(self):
        # a report of zero checks would pass
        with pytest.raises(ValueError, match="'octonians'; expected one of "
                                             "octonion, so8, triality, invariants"):
            build_report(RunConfig(suite="octonians"))

    def test_corrupted_constant_fails_with_counterexample(self):
        entries = build_report(RunConfig(samples=2, seed=42, suite="triality",
                                         corrupt_constant=True))
        assert not report_passed(entries)
        by_id = {e["check_id"]: e for e in entries}
        bracket = by_id["triality.bracket_preservation"]
        assert bracket["status"] == "fail"
        assert bracket["violations"] > 0
        assert "counterexample" in bracket
        assert by_id["triality.order_three"]["status"] == "fail"

    @pytest.mark.parametrize("suite", ["triality", "invariants"])
    def test_failing_sampled_entries_carry_counterexamples(self, suite):
        entries = build_report(RunConfig(samples=2, seed=42, suite=suite,
                                         corrupt_constant=True))
        failing = [e for e in entries if e["status"] == "fail"]
        assert failing
        for entry in failing:
            if "samples" in entry:
                assert "counterexample" in entry, entry["check_id"]
                assert entry["violations"] > 0

    def test_discrepancies_do_not_fail_the_run(self):
        entries = build_report(RunConfig(samples=2, seed=42, suite="invariants"))
        assert any(e["status"] == "discrepancy-confirmed" for e in entries)
        assert report_passed(entries)

    def test_unexpected_exception_fails_one_check(self, monkeypatch):
        def broken():
            raise KeyError("missing")

        monkeypatch.setattr(verify, "_check_octonion_table", broken)
        entries = build_report(RunConfig(samples=2, seed=42, suite="octonion"))
        assert [e["check_id"] for e in entries] == [
            "octonion.table_rules", "octonion.rotation_automorphism",
            "octonion.quaternion_lines", "octonion.norm_composition"]
        assert entries[0] == {"status": "fail", "error": "KeyError: 'missing'",
                              "check_id": "octonion.table_rules", "suite": "octonion"}
        assert all(e["status"] == "pass" for e in entries[1:])

    def test_g2_locus_checks_the_c3_restriction(self, monkeypatch):
        monkeypatch.setattr(invariants, "C3_COEFFICIENTS",
                            invariants.CANDIDATE_C3_COEFFICIENTS)
        entries = {e["check_id"]: e for e in
                   build_report(RunConfig(samples=3, seed=42, suite="invariants"))}
        g2 = entries["invariants.g2_locus"]
        assert g2["status"] == "fail"
        assert g2["violations"] == 3
        assert "counterexample" in g2

    def test_a_vanishing_pfaffian_leaves_the_samples_regular(self):
        # pf = 0 on some draws at bound 1, but l_i = 0 kills no root of D4,
        # so each of them is regular all the same
        cfg = RunConfig(bound=1, samples=300, suite="invariants")
        entries = build_report(cfg)
        assert report_passed(entries)
        entry = next(e for e in entries if e["check_id"] == "invariants.generic_eigenstructure")
        assert (entry["status"], entry["samples"], entry["regular"], entry["first_regular"]) \
            == ("pass", 300, 300, 0)
        assert any(invariants.pfaffian_matchings(so8.random_element(cfg.seed + k, cfg.bound)) == 0
                   for k in range(cfg.samples))

    def test_bound_reaches_bracket_preservation(self, monkeypatch):
        bounds = []
        draw = so8.random_element

        def recording(seed, bound=9):
            bounds.append(bound)
            return draw(seed, bound)

        monkeypatch.setattr(so8, "random_element", recording)
        entries = build_report(RunConfig(samples=2, bound=1, suite="triality"))
        assert report_passed(entries)
        assert bounds == [1] * 4


# ---------------------------------------------------------------------------
# Failure paths: each case breaks one library function and pins which checks
# catch it. A check that still passed would be reading the broken function on
# its oracle side too, so each listed failure shows the function is not an
# oracle of that check. Each case also pins the digest of the entries that
# differ from the unperturbed report, compared position by position; with
# that report's own digest, this pins every perturbed report whole, while a
# new entry that no perturbation changes re-pins only the unperturbed digest.
# ---------------------------------------------------------------------------

FAILURE_CONFIG = RunConfig(samples=2, seed=42)

UNPERTURBED_DIGEST = "645632d76e95818597eb82c560567a6159aa75af50dc222946eba9e2ab09d357"

# the cached tables a perturbation can poison, as imported (a case may replace
# the module attribute itself)
_CACHED = (so8.structure_constants, automorphisms._fixed_locus)


def _shifted(monkeypatch, owner, name, change):
    """Replace owner.name by a function that applies `change` to its result."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: change(original(*args)))


def _octonion_table_entry(monkeypatch):
    table = [list(row) for row in octonion.structure_constants()]
    table[5][2] = (3, -1)
    monkeypatch.setattr(octonion, "_TABLE", tuple(map(tuple, table)))


def _octonion_square(monkeypatch):
    # e3^2 = +1
    table = [list(row) for row in octonion.structure_constants()]
    table[3][3] = (0, 1)
    monkeypatch.setattr(octonion, "_TABLE", tuple(map(tuple, table)))


def _rotation_matrix(monkeypatch):
    # the images of e3 and e5 swapped
    rows = [list(row) for row in octonion.rotation_matrix().numerators]
    for row in rows:
        row[3], row[5] = row[5], row[3]
    wrong = SquareMatrix.from_integers(rows, 1)
    monkeypatch.setattr(octonion, "rotation_matrix", lambda: wrong)


def _fano_lines(monkeypatch):
    monkeypatch.setattr(octonion, "FANO_LINES", ((1, 2, 5),) + octonion.FANO_LINES[1:])


def _norm_squared(monkeypatch):
    _shifted(monkeypatch, octonion.Octonion, "norm_squared", lambda n: n + 1)


def _from_matrix(monkeypatch):
    original = so8.So8Element.from_matrix
    monkeypatch.setattr(so8.So8Element, "from_matrix",
                        classmethod(lambda cls, m: original(m).scale(2)))


def _zero_bracket(monkeypatch):
    for module in (so8, automorphisms):
        monkeypatch.setattr(module, "bracket", lambda x, y: so8.So8Element.zero())


def _quadruples(monkeypatch):
    _shifted(monkeypatch, so8, "quadruples", lambda quads: tuple(reversed(quads)))


def _quadruples_repeated(monkeypatch):
    # G(0,1) of the first quadruple also in place of G(0,2) in the second
    def repeat(quads):
        second = quads[1]
        gens = (quads[0].generators[0],) + second.generators[1:]
        return (quads[0], dataclasses.replace(second, generators=gens)) + quads[2:]

    _shifted(monkeypatch, so8, "quadruples", repeat)


def _structure_table_sign(monkeypatch):
    # [G(0,1), G(1,2)] = G(0,2) recorded as -G(0,2)
    table = [list(row) for row in so8.structure_constants()]
    c, s = table[0][7]
    table[0][7] = (c, -s)
    table = tuple(map(tuple, table))
    monkeypatch.setattr(so8, "structure_constants", lambda: table)
    monkeypatch.setattr(automorphisms, "so8_structure_constants", lambda: table)


def _index_rule_sign(monkeypatch):
    # [G(0,1), G(1,2)] = G(0,2) stated as -G(0,2) by the rule that checks the table
    rule = so8._index_rule
    pair = (so8.Generator(0, 1), so8.Generator(1, 2))

    def flipped(x, y):
        entry = rule(x, y)
        return (entry[0], -entry[1]) if (x, y) == pair else entry

    monkeypatch.setattr(so8, "_index_rule", flipped)


def _involution_sign(monkeypatch):
    # G(0,1) flipped by the outer involution, whose fixed locus is then 20-dim
    signs = (-automorphisms._INVOLUTION_SIGNS[0],) + automorphisms._INVOLUTION_SIGNS[1:]
    monkeypatch.setattr(automorphisms, "_INVOLUTION_SIGNS", signs)


def _repeated_root(monkeypatch):
    # every element's spectral quartic made (x + e1/4)^4, a fourfold root, so
    # that no generic sample is regular
    def fourfold(e):
        t = e.e1 / 4
        return invariants.SpectralCoefficients(4 * t, 6 * t ** 2, 4 * t ** 3, t ** 4)

    _shifted(monkeypatch, invariants, "spectral_coefficients", fourfold)


def _singular_draws(monkeypatch):
    # each draw cut down to its G(0,1) part, whose l_i^2 = (c^2, 0, 0, 0)
    # repeat: every identity still holds on such elements, so only the
    # regularity claim sees that the samples are not generic
    g01 = so8.So8Element.from_generator(so8.GENERATORS[0])
    _shifted(monkeypatch, so8, "random_element", lambda m: g01.scale(m.coeffs[0]))


def _t_matrix(monkeypatch):
    # the law is read off T, so its checks fail with it
    rows = [list(row) for row in invariants.T_MATRIX.rows]
    rows[1][2] = -rows[1][2]
    monkeypatch.setattr(invariants, "T_MATRIX", SquareMatrix(rows))


def _degree6_invariants(monkeypatch):
    monkeypatch.setattr(invariants, "DEGREE6_INVARIANTS", ((1, 0, 0, 0), (0, 5, 0, -7)))


def _c3_coefficients(monkeypatch):
    monkeypatch.setattr(invariants, "C3_COEFFICIENTS", invariants.CANDIDATE_C3_COEFFICIENTS)


def _eta4_candidate(monkeypatch):
    monkeypatch.setattr(invariants, "candidate_eta4_coefficient",
                        lambda v: invariants.newton_coefficients(v).e2)


def _eta2_candidate(monkeypatch):
    monkeypatch.setattr(invariants, "candidate_eta2_coefficient",
                        lambda v: -invariants.newton_coefficients(v).e3)


def _pfaffian_permutation_sum(monkeypatch):
    _shifted(monkeypatch, invariants, "pfaffian_permutation_sum", lambda pf: pf + 1)


def _pfaffian_matchings(monkeypatch):
    # invariant_vector reads its pf off this function, so each check that
    # compares pf with another route fails
    _shifted(monkeypatch, invariants, "pfaffian_matchings", lambda pf: pf + 1)


def _invariant_vector(monkeypatch):
    # Tr M^6 off by one on m and on sigma(m) alike; T sends p3 to p3 plus
    # terms free of p3, so the law carries the shift and only p3's oracles fail
    _shifted(monkeypatch, invariants, "invariant_vector",
             lambda v: dataclasses.replace(v, p3=v.p3 + 1))


def _spectral_coefficients(monkeypatch):
    _shifted(monkeypatch, invariants, "spectral_coefficients",
             lambda e: dataclasses.replace(e, e2=e.e2 + 1))


def _product_trace(monkeypatch):
    # an off-by-one range: the last row and column are left out
    def product_trace(self, other):
        return sum(self[i][j] * other[j][i] for i in range(7) for j in range(7))

    monkeypatch.setattr(SquareMatrix, "product_trace", product_trace)


def _fixed_subalgebra(monkeypatch):
    def raising(*args, **kwargs):
        raise ConsistencyError("fixed locus construction failed")

    monkeypatch.setattr(automorphisms, "fixed_subalgebra", raising)


def _sigma_transform_invariants(monkeypatch):
    _shifted(monkeypatch, invariants, "sigma_transform_invariants",
             lambda v: dataclasses.replace(v, p2=v.p2 + 1))


def _newton_coefficients(monkeypatch):
    _shifted(monkeypatch, invariants, "newton_coefficients",
             lambda e: dataclasses.replace(e, e3=e.e3 + 1))


FAILURE_PATHS = [
    pytest.param(_octonion_table_entry,
                 ["octonion.table_rules",
                  "octonion.rotation_automorphism",
                  "octonion.norm_composition"],
                 "b7f17c494e3122a2c646c2d192af2873bc1aa6ec51fb1233e14be8055b9f72ea",
                 id="octonion_table_entry"),
    pytest.param(_octonion_square,
                 ["octonion.table_rules",
                  "octonion.rotation_automorphism",
                  "octonion.norm_composition"],
                 "c65c0ce96c96c36bb7f1f8bbea70533e12b1508f08a0b9d82d456f64bfebea4e",
                 id="octonion_square"),
    pytest.param(_rotation_matrix,
                 ["octonion.rotation_automorphism"],
                 "a8e3c7797f510ae99004977112648842eb75aac31eee7d6452edf34ab3a17c4d",
                 id="rotation_matrix"),
    pytest.param(_fano_lines,
                 ["octonion.quaternion_lines"],
                 "f1bbdaf7ebf4da2c9c92aa8057f1fe7ab266f180dfd575e9b47b4eedcbb3e16e",
                 id="fano_lines"),
    pytest.param(_norm_squared,
                 ["octonion.norm_composition"],
                 "89dd15ad454a93741e66d2c22c403c3812090dd672d48c7720fd785adf093f91",
                 id="norm_squared"),
    pytest.param(_from_matrix,
                 ["so8.dimension_roundtrip",
                  "invariants.pfaffian_consistency"],
                 "90eab8764f4bca13363da2958841828515e14c16bcbc10984a4fd238cdddba2e",
                 id="from_matrix"),
    pytest.param(_zero_bracket,
                 ["so8.bracket_antisymmetry",
                  "triality.bracket_preservation"],
                 "4386145136110c66e89bbbd291175db7427565fe6adc8ae3912815a798cc0314",
                 id="zero_bracket"),
    pytest.param(_quadruples,
                 ["so8.quadruple_partition"],
                 "f1fdd8061d8871da31925daea1f0098a0340e23ed9dc2a63d073532b71c834e5",
                 id="quadruples"),
    pytest.param(_quadruples_repeated,
                 ["so8.quadruple_partition"],
                 "3d594177a6589bd1eb45ebd10e7605e98c3063f5b334101506f6cb180ef77f8b",
                 id="quadruples_repeated"),
    pytest.param(_structure_table_sign,
                 ["so8.bracket_antisymmetry",
                  "triality.bracket_preservation"],
                 "8c11b81e9103d654d844bfe4f1342a19d7a8f24cada8e56be4d6df670552d04e",
                 id="structure_table_sign"),
    pytest.param(_index_rule_sign,
                 ["so8.bracket_antisymmetry",
                  "triality.bracket_preservation"],
                 "52d16b2c8f4e789142e2499614b3519e0b80d187b51499911826518132f4fb4d",
                 id="index_rule_sign"),
    pytest.param(_involution_sign,
                 ["triality.fixed_dims",
                  "invariants.so7_locus"],
                 "0114eaed2b7c03fb33c14f782c21efbca255a5433f7b84ebcd7081bcb28167fd",
                 id="involution_sign"),
    pytest.param(_repeated_root,
                 ["invariants.pfaffian_consistency",
                  "invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.so7_locus",
                  "invariants.generic_eigenstructure",
                  "invariants.eta4_coefficient_discrepancy",
                  "invariants.eta2_coefficient_discrepancy"],
                 "dfd86ff0993c35dbbc56739bf56a8264a91dcccebea554ebbb386be23d725373",
                 id="repeated_root"),
    pytest.param(_singular_draws,
                 ["invariants.generic_eigenstructure"],
                 "7dff688e28ff4022316b66fc2f1b2866d9022749a1ff3b78595fd1c6a6314ba5",
                 id="singular_draws"),
    pytest.param(_t_matrix,
                 ["invariants.transformation_law",
                  "invariants.transformation_order_three",
                  "invariants.t_matrix"],
                 "9280c03b602a6095dcf7f04b704d4374f361bb2827d5ddd4362ad17e3967e1f8",
                 id="t_matrix"),
    pytest.param(_degree6_invariants,
                 ["invariants.t_matrix",
                  "invariants.degree6_invariance"],
                 "ac1d81a7469044beea0803f53c69803b9bd60d30a4e06556f9b96b7243ab30d6",
                 id="degree6_invariants"),
    pytest.param(_c3_coefficients,
                 ["invariants.g2_locus",
                  "invariants.c3_model",
                  "invariants.c3_coefficient_discrepancy"],
                 "ea0cd1d71468adb41edcba19bc0c27fee5fb777b5c0e7bd9666b6802a3a419a8",
                 id="c3_coefficients"),
    pytest.param(_eta4_candidate,
                 ["invariants.eta4_coefficient_discrepancy"],
                 "c207619d59533bb0cb64707851df95af130da02bd1b0f07af8dc46722915a355",
                 id="eta4_candidate"),
    pytest.param(_eta2_candidate,
                 ["invariants.eta2_coefficient_discrepancy"],
                 "3a3c8c3c2f69e271d221ce72f0edd7d85dacbdf13ef5a7482df226b169bd5fdf",
                 id="eta2_candidate"),
    pytest.param(_pfaffian_permutation_sum,
                 ["invariants.pfaffian_consistency"],
                 "bbf6610c415bfda0001d3ae1d260847172cc88eca986f700a13addea79ad5fd3",
                 id="pfaffian_permutation_sum"),
    pytest.param(_pfaffian_matchings,
                 ["invariants.transformation_law",
                  "invariants.pfaffian_consistency",
                  "invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.so7_locus"],
                 "183caa43eca667062dac99265fedbdca58dabb6fc30bc090a7a5df62d7d2feec",
                 id="pfaffian_matchings"),
    pytest.param(_invariant_vector,
                 ["invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.eta2_coefficient_discrepancy"],
                 "b53720d1fb560b73e52b58c4abd8e21feaf65702ddc341ce24f9d49fa313b333",
                 id="invariant_vector"),
    pytest.param(_spectral_coefficients,
                 ["invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.eta4_coefficient_discrepancy"],
                 "a839c75a10d5c5e1b41add5eedc202398e5d81ec83fd6b6ac098cc5675d04d19",
                 id="spectral_coefficients"),
    pytest.param(_product_trace,
                 ["triality.trace_form"],
                 "e0804092f06fea5f90539e907007acebd22dfa174cd81d0f3a6b8bbc2acc4757",
                 id="product_trace"),
    pytest.param(_fixed_subalgebra,
                 ["triality.fixed_dims",
                  "invariants.g2_locus",
                  "invariants.g2_trace_ratio_discrepancy"],
                 "0562c3e9bf2d34bf4ea637449df5542cfea2921f5064af21dc835a58317a8ef7",
                 id="fixed_subalgebra"),
    pytest.param(_sigma_transform_invariants,
                 ["invariants.transformation_law",
                  "invariants.transformation_order_three"],
                 "2ec5168cdd047358b8f3241abde778dece1d57ac432645f0121f7adc96177ea6",
                 id="sigma_transform_invariants"),
    pytest.param(_newton_coefficients,
                 ["invariants.newton_oracle",
                  "invariants.eta2_coefficient_discrepancy"],
                 "5f0ab1a99f79d805ecd2fb06b78afab390a4bf0ca4fae585637d2637d8d69ace",
                 id="newton_coefficients"),
]


@pytest.fixture
def fresh_caches():
    """Empty the cached structure tables before and after the test, so that a
    table built under a perturbation reaches no other test."""
    for cached in _CACHED:
        cached.cache_clear()
    yield
    for cached in _CACHED:
        cached.cache_clear()


def _digest(entries):
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def unperturbed_report():
    return build_report(FAILURE_CONFIG)


def test_the_unperturbed_report_is_pinned(unperturbed_report):
    assert _digest(unperturbed_report) == UNPERTURBED_DIGEST


@pytest.mark.parametrize("perturb, failing, digest", FAILURE_PATHS)
def test_a_broken_function_fails_exactly_its_checks(perturb, failing, digest, monkeypatch,
                                                    unperturbed_report, fresh_caches):
    perturb(monkeypatch)
    entries = build_report(FAILURE_CONFIG)
    assert [e["check_id"] for e in entries] == [e["check_id"] for e in unperturbed_report]
    got = [e["check_id"] for e in entries if e["status"] == "fail"]
    changed = [e for e, before in zip(entries, unperturbed_report) if e != before]
    assert got == failing
    assert _digest(changed) == digest


# ---------------------------------------------------------------------------
# The two lanes: the triality suite and the invariants checks that read the
# fixed loci run in a forked child, every other check in the calling process.
# ---------------------------------------------------------------------------

_CHILD_LANE = {"invariants.g2_locus", "invariants.so7_locus",
               "invariants.g2_trace_ratio_discrepancy"}


def _in_child_lane(check_id):
    return check_id.startswith("triality.") or check_id in _CHILD_LANE


def _exit_3(monkeypatch):
    monkeypatch.setattr(verify, "_check_fixed_dims", lambda tmap: os._exit(3))


def _kill_self(monkeypatch):
    monkeypatch.setattr(verify, "_check_fixed_dims",
                        lambda tmap: os.kill(os.getpid(), signal.SIGKILL))


def _truncated_report(monkeypatch):
    # the child exits with status 0, but its report lacks its last byte
    monkeypatch.setattr(verify, "marshal", types.SimpleNamespace(
        dumps=lambda entries: marshal.dumps(entries)[:-1], loads=marshal.loads))


@pytest.mark.parametrize("break_child, error", [
    (_exit_3, "fixed-locus lane: child process exited with status 3"),
    (_kill_self, f"fixed-locus lane: child process was killed by signal {signal.SIGKILL.value}"),
    (_truncated_report, "fixed-locus lane: child process sent a malformed report"),
], ids=["exit_3", "sigkill", "malformed_report"])
def test_a_dead_child_fails_exactly_its_lane(break_child, error, monkeypatch, small_report):
    break_child(monkeypatch)
    entries = build_report(SMALL)
    assert [e["check_id"] for e in entries] == [e["check_id"] for e in small_report]
    for entry in entries:
        if _in_child_lane(entry["check_id"]):
            assert entry == {"status": "fail", "error": error,
                             "check_id": entry["check_id"], "suite": entry["suite"]}
        else:
            assert entry["status"] in ("pass", "discrepancy-confirmed"), entry["check_id"]
    assert not report_passed(entries)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cfg", [
    SMALL, dataclasses.replace(SMALL, corrupt_constant=True),
    *(dataclasses.replace(SMALL, suite=suite) for suite in SUITES),
], ids=["small", "corrupt_constant", *SUITES])
def test_entries_do_not_depend_on_the_fork(cfg, monkeypatch, small_report):
    forked = small_report if cfg == SMALL else build_report(cfg)
    monkeypatch.delattr(os, "fork")
    assert build_report(cfg) == forked


def test_the_fixed_loci_are_built_in_the_child_only():
    automorphisms._fixed_locus.cache_clear()
    entries = build_report(RunConfig())
    assert report_passed(entries)
    assert automorphisms._fixed_locus.cache_info().currsize == 0


def test_the_child_leaves_the_callers_stdout_buffer_alone():
    program = ("import sys\n"
               "from triality.verify import RunConfig, build_report\n"
               "sys.stdout.write('written before the report\\n')\n"
               "build_report(RunConfig(samples=2))\n")
    # with PYTHONUNBUFFERED set the text would reach the pipe before the fork
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "written before the report\n"
