import pytest

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
