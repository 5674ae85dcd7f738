import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys

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

    def test_bound_reaches_bracket_preservation(self, monkeypatch):
        bounds = []
        draw = automorphisms.random_element

        def recording(seed, bound=9):
            bounds.append(bound)
            return draw(seed, bound)

        monkeypatch.setattr(automorphisms, "random_element", recording)
        entries = build_report(RunConfig(samples=2, bound=1, suite="triality"))
        assert report_passed(entries)
        assert bounds == [1] * 4


# ---------------------------------------------------------------------------
# Failure paths: each case breaks one library function and pins which checks
# catch it. A check that still passed would be reading the broken function on
# its oracle side too, so each listed failure shows the function is not an
# oracle of that check.
# ---------------------------------------------------------------------------

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


def _generic_eigenstructure(monkeypatch):
    # a generic element reported as meeting the constraints of a locus
    def passing(check):
        return dict(check, status="pass") if check["tag"] == "so8" else check

    _shifted(monkeypatch, invariants, "eigenstructure_check", passing)


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
                 "3084eb118b43a36903308ed6beb1d6c7374e3ad6a6b4214836494b9fc214f38d",
                 id="octonion_table_entry"),
    pytest.param(_octonion_square,
                 ["octonion.table_rules",
                  "octonion.rotation_automorphism",
                  "octonion.norm_composition"],
                 "6f0dac4af88469e9f11f0607caf848e86bbc6b3ef425e34ce5a62b667b596c4a",
                 id="octonion_square"),
    pytest.param(_rotation_matrix,
                 ["octonion.rotation_automorphism"],
                 "c9d7ec30a9997c4b8ee20955d280441dc18120364f4858343d21c9621e6800e9",
                 id="rotation_matrix"),
    pytest.param(_fano_lines,
                 ["octonion.quaternion_lines"],
                 "fca3e0c7dacf9ec6f5e91e3934460301021f2d9e575cf8bfcd479a5e60071b12",
                 id="fano_lines"),
    pytest.param(_norm_squared,
                 ["octonion.norm_composition"],
                 "458b23e12427363a0801b099c11f6d7c685295812c476002f394b4021ff2c882",
                 id="norm_squared"),
    pytest.param(_from_matrix,
                 ["so8.dimension_roundtrip",
                  "so8.bracket_antisymmetry",
                  "triality.bracket_preservation",
                  "invariants.pfaffian_consistency"],
                 "d202aa537d568f9041137fb3edfc77e590dd6a34c029e9ddad67eef9582c37ec",
                 id="from_matrix"),
    pytest.param(_zero_bracket,
                 ["so8.bracket_antisymmetry",
                  "triality.bracket_preservation"],
                 "b86fa819674e35d62acc90672327be5f7b146844a1cbf9a3666735188eca7494",
                 id="zero_bracket"),
    pytest.param(_quadruples,
                 ["so8.quadruple_partition"],
                 "34e50034cbbdaa229fe6483902c481edaa43556c7c595c388fe486aa6daa6308",
                 id="quadruples"),
    pytest.param(_quadruples_repeated,
                 ["so8.quadruple_partition"],
                 "029a4f1690d28e53d95515801add037910c77297bf0daf7cfaf71f6ba1ba59ac",
                 id="quadruples_repeated"),
    pytest.param(_structure_table_sign,
                 ["so8.bracket_antisymmetry",
                  "triality.bracket_preservation"],
                 "94beefb2d7232dafebe18c2f64e85a9dab380a3a310181804821f9fe3c7df7fc",
                 id="structure_table_sign"),
    pytest.param(_index_rule_sign,
                 ["so8.bracket_antisymmetry",
                  "triality.bracket_preservation"],
                 "67417d84f8ef955c38d146043deb3a0b30ddaeec51fb3e2a5cac26da91875b13",
                 id="index_rule_sign"),
    pytest.param(_involution_sign,
                 ["triality.fixed_dims",
                  "invariants.so7_locus"],
                 "8c87d410b5fbb4d9457da2be651f00f63b2a8a7917eaec8ed7956b678d0f0d30",
                 id="involution_sign"),
    pytest.param(_generic_eigenstructure,
                 ["invariants.generic_eigenstructure"],
                 "3ee6c5d7a8a2bf6e41327877a54556c65b4a9ac1907cd3a8413823d899661dff",
                 id="generic_eigenstructure"),
    pytest.param(_t_matrix,
                 ["invariants.transformation_law",
                  "invariants.transformation_order_three",
                  "invariants.t_matrix"],
                 "df57ee4b2324df85525b1ecf5e8f6a4a635bcdc656fe4b6cf50f3527372660c6",
                 id="t_matrix"),
    pytest.param(_degree6_invariants,
                 ["invariants.t_matrix",
                  "invariants.degree6_invariance"],
                 "097e5c241e0c0e8a728fe777d7c71e70682cbb6eca6abc7781ce88d6ce233ba1",
                 id="degree6_invariants"),
    pytest.param(_c3_coefficients,
                 ["invariants.g2_locus",
                  "invariants.c3_model",
                  "invariants.c3_coefficient_discrepancy"],
                 "b2ae674049908aa22d5aa64a176c546fa98887b4c7dd965da1acdf31139cc60b",
                 id="c3_coefficients"),
    pytest.param(_eta4_candidate,
                 ["invariants.eta4_coefficient_discrepancy"],
                 "b4e73ee558074ccdf7132bf24e3ab4c348ca230061b57518c824ae07ad0efc92",
                 id="eta4_candidate"),
    pytest.param(_eta2_candidate,
                 ["invariants.eta2_coefficient_discrepancy"],
                 "0017afc5f4173b35cd67cf0dc7c4143c9c5d27f9fa582fd5c6d82f552ba4c141",
                 id="eta2_candidate"),
    pytest.param(_pfaffian_permutation_sum,
                 ["invariants.pfaffian_consistency"],
                 "52934410a806ee3dd425fd3ed47d6e7e849624b4fcbe2fe5e487beb9ca5b97fc",
                 id="pfaffian_permutation_sum"),
    pytest.param(_pfaffian_matchings,
                 ["invariants.transformation_law",
                  "invariants.pfaffian_consistency",
                  "invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.so7_locus"],
                 "c2186b30d695f40e7ebf06f9b161ed8fcfaf28617f7eb7612b9c917287670d4a",
                 id="pfaffian_matchings"),
    pytest.param(_invariant_vector,
                 ["invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.eta2_coefficient_discrepancy"],
                 "87ebb67dab05179aebf4c207686aa31176e4dc1b8e485cb83ef6c75cc3ce6c13",
                 id="invariant_vector"),
    pytest.param(_spectral_coefficients,
                 ["invariants.newton_oracle",
                  "invariants.g2_locus",
                  "invariants.eta4_coefficient_discrepancy"],
                 "e09d2b6ce499c0a08250b5b99f9222f36ed211eff017ac1dc8db6999569ec4f4",
                 id="spectral_coefficients"),
    pytest.param(_product_trace,
                 ["triality.trace_form"],
                 "47c2188a70e610dd5cd4e7ce8e2a199de36287343f80a8f0ed60a1e73aeba41b",
                 id="product_trace"),
    pytest.param(_fixed_subalgebra,
                 ["triality.fixed_dims",
                  "invariants.g2_locus",
                  "invariants.g2_trace_ratio_discrepancy"],
                 "146855606efb4e8f87245bcf420e0a1d852edff4c89a0b237441721bede7983b",
                 id="fixed_subalgebra"),
    pytest.param(_sigma_transform_invariants,
                 ["invariants.transformation_law",
                  "invariants.transformation_order_three"],
                 "d36343415ada5338fe25e6b2e0c8db5cd6abe0f5afa764775b3aebc99e858417",
                 id="sigma_transform_invariants"),
    pytest.param(_newton_coefficients,
                 ["invariants.newton_oracle",
                  "invariants.eta2_coefficient_discrepancy"],
                 "97444d4a3941e9af95734b0b37feaf7507369723a9f62e419a52fc1c8685bc3d",
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


@pytest.mark.parametrize("perturb, failing, digest", FAILURE_PATHS)
def test_a_broken_function_fails_exactly_its_checks(perturb, failing, digest,
                                                    monkeypatch, fresh_caches):
    perturb(monkeypatch)
    entries = build_report(RunConfig(samples=2, seed=42))
    got = [e["check_id"] for e in entries if e["status"] == "fail"]
    got_digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
    assert got == failing
    assert got_digest == digest


# ---------------------------------------------------------------------------
# The two lanes: the triality suite and the invariants checks that read the
# fixed loci run in a forked child, every other check in the calling process.
# ---------------------------------------------------------------------------

_CHILD_LANE = {"invariants.g2_locus", "invariants.so7_locus",
               "invariants.g2_trace_ratio_discrepancy"}


def _in_child_lane(check_id):
    return check_id.startswith("triality.") or check_id in _CHILD_LANE


def _exit_3():
    os._exit(3)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("die, error", [
    (_exit_3, "fixed-locus lane: child process exited with status 3"),
    (_kill_self, f"fixed-locus lane: child process was killed by signal {signal.SIGKILL.value}"),
], ids=["exit_3", "sigkill"])
def test_a_dead_child_fails_exactly_its_lane(die, error, monkeypatch, small_report):
    monkeypatch.setattr(verify, "_check_fixed_dims", lambda tmap: die())
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
