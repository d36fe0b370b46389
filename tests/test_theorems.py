"""Verification suites: clean passes, fault sensitivity, deterministic digests."""

import pytest

from pdim.theorems import (
    SUITE_NAMES,
    TOL,
    CheckReport,
    check_chain,
    check_prop22,
    check_section4,
    check_thm31,
    check_thm32,
    check_thm33,
    check_thm34,
    check_thm35,
    run_suite,
)

CHECKS = {
    "chain": check_chain,
    "prop22": check_prop22,
    "thm31": check_thm31,
    "thm32": check_thm32,
    "thm33": check_thm33,
    "thm34": check_thm34,
    "thm35": check_thm35,
    "section4": check_section4,
}


class TestCleanRun:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_passes_at_tolerance(self, name):
        report = CHECKS[name](seed=0)
        assert report.passed, report.line()
        assert report.worst_violation <= TOL
        assert report.check_id == name

    def test_suite_names_cover_checks(self):
        assert set(SUITE_NAMES) == set(CHECKS)
        assert len(SUITE_NAMES) == 8


class TestFaultInjection:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_fails_under_perturbation(self, name):
        report = CHECKS[name](seed=0, fault=0.1)
        assert report.status == "fail"
        assert report.worst_violation > TOL


class TestDeterminism:
    @pytest.mark.parametrize("name", ["chain", "thm32", "section4"])
    def test_same_seed_same_report(self, name):
        a = CHECKS[name](seed=3)
        b = CHECKS[name](seed=3)
        assert a == b

    def test_digest_tracks_config(self):
        base = check_thm32(seed=0)
        assert check_thm32(seed=0).digest == base.digest
        assert check_thm32(seed=1).digest != base.digest


class TestRunner:
    def test_single_suite(self):
        reports = run_suite("thm35", seed=0)
        assert len(reports) == 1
        assert reports[0].check_id == "thm35"

    def test_all_runs_everything_in_order(self):
        reports = run_suite("all", seed=0)
        assert [r.check_id for r in reports] == list(SUITE_NAMES)
        assert all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("thm99")

    def test_report_line_format(self):
        r = CheckReport("thm31", "pass", 1.5e-12, "abcdef012345", "ok")
        line = r.line()
        assert line.startswith("thm31")
        assert "pass" in line and "1.500e-12" in line and "abcdef012345" in line
