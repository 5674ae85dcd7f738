import pytest

from triality import automorphisms, invariants, verify
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
