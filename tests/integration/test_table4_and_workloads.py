"""Integration tests: the Table 4 harness and the performance workloads.

These are the same scenario runners the benchmarks use; the tests assert the
*qualitative* reproduction result: every attack that succeeds against the
unprotected application is prevented by the RESIN assertion, and legitimate
functionality keeps working in both configurations.
"""

import pytest

from repro.evaluation import hotcrp_perf, table4, table5

#: Table 4 of the paper, row by row: (assertion LOC, previously-known
#: vulnerabilities, newly-discovered vulnerabilities).
PAPER_TABLE4 = {
    ("MIT EECS grad admissions", "SQL injection"): (9, 0, 3),
    ("MoinMoin", "Read ACL"): (8, 2, 0),
    ("MoinMoin", "Write ACL"): (15, 0, 0),
    ("File Thingie file manager", "Write access"): (19, 0, 1),
    ("HotCRP", "Password disclosure"): (23, 1, 0),
    ("HotCRP", "Paper access"): (30, 0, 0),
    ("HotCRP", "Author list"): (32, 0, 0),
    ("myPHPscripts login library", "Password disclosure"): (6, 1, 0),
    ("PHP Navigator", "Write access"): (17, 0, 1),
    ("phpBB", "Read access"): (23, 1, 3),
    ("phpBB", "Cross-site scripting"): (22, 4, 0),
    ("many (upload-enabled PHP apps)", "Script injection"): (12, 5, 0),
}


@pytest.mark.parametrize("scenario", table4.SCENARIOS,
                         ids=[f"{s.application}--{s.assertion}"
                              for s in table4.SCENARIOS])
class TestTable4Scenarios:
    def test_attacks_blocked_with_resin(self, scenario):
        result = table4.run_scenario(scenario, use_resin=True)
        assert result.exploited == 0
        assert result.legitimate_ok

    def test_attacks_succeed_without_resin(self, scenario):
        result = table4.run_scenario(scenario, use_resin=False)
        # Every previously-known or newly-discovered vulnerability of the
        # row must actually be exploitable on the unprotected application.
        expected = scenario.known + scenario.discovered
        assert result.exploited >= expected
        assert result.legitimate_ok

    def test_assertion_loc_matches_paper(self, scenario):
        row = (scenario.assertion_loc, scenario.known, scenario.discovered)
        assert row == PAPER_TABLE4[(scenario.application, scenario.assertion)]


class TestTable4Aggregate:
    def test_totals(self):
        protected = table4.run_all(True)
        unprotected = table4.run_all(False)
        total_known_discovered = sum(s.known + s.discovered
                                     for s in table4.SCENARIOS)
        assert total_known_discovered == 22   # as reported by the paper
        assert len(table4.SCENARIOS) == len(PAPER_TABLE4)
        assert sum(r.exploited for r in unprotected) >= total_known_discovered
        assert sum(r.exploited for r in protected) == 0
        report = table4.format_table(protected, unprotected)
        assert "phpBB" in report and "TOTAL" in report


class TestTable5Workloads:
    @pytest.mark.parametrize("configuration", table5.CONFIGURATIONS)
    def test_every_operation_runs(self, configuration):
        suite = table5.MicrobenchSuite(configuration)
        for name in table5.OPERATIONS:
            suite.operation(name)()

    def test_unknown_operation_and_configuration(self):
        with pytest.raises(ValueError):
            table5.MicrobenchSuite("turbo")
        suite = table5.MicrobenchSuite("unmodified")
        with pytest.raises(ValueError):
            suite.operation("teleport")

    def test_paper_reference_covers_all_operations(self):
        assert set(table5.PAPER_TABLE5_MICROSECONDS) == set(table5.OPERATIONS)


class TestHotCRPWorkload:
    def test_both_configurations_render_same_page(self):
        workloads = hotcrp_perf.build_workloads()
        plain = workloads["unmodified"].generate_page()
        resin = workloads["resin"].generate_page()
        assert "Improving Application Security" in plain
        assert plain == resin
        # Anonymous author list suppressed in both configurations.
        assert "author@example.org" not in resin
        assert "Anonymous" in resin

    def test_page_size_in_expected_ballpark(self):
        size = hotcrp_perf.HotCRPPageWorkload(use_resin=True).page_size()
        assert 4_000 < size < 20_000

    def test_repeated_generation_is_stable(self):
        workload = hotcrp_perf.HotCRPPageWorkload(use_resin=True)
        assert workload.generate_page() == workload.generate_page()
