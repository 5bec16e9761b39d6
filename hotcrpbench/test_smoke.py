"""Smoke test of the HotCRP benchmark on an 8-paper, 16-user site.

Each workload runs for well under a second through the same ``run()`` the
command line uses -- a real server child, real sockets, the oracle on every
response -- so a broken workload, a missing metric or a wrong expectation
shows up in the tier-1 suite instead of in the first benchmark run.
"""

import pytest

from hotcrpbench import run as bench
from hotcrpbench.workloads import WORKLOADS, Oracle

SECONDS = 0.6
BENCHMARK = bench.load_benchmark()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric_without_failures(workload):
    # One traced workload is enough to cover the tracer and its metrics.
    trace = workload == "review-submit"
    outcome = bench.run(workload, 7, SECONDS, trace, small=True, warmup=0)
    assert outcome["attempted"] > 0
    assert outcome["failed"] == 0
    end_to_end = bench.result_line(outcome, False, BENCHMARK)
    assert end_to_end["correct"] is True
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(end_to_end["metrics"])
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())
    if trace:
        layers = bench.result_line(outcome, True, BENCHMARK)["metrics"]
        assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers)
        assert layers["wal.commit_us"]["value"] > 0
        assert 0 < layers["trace.coverage"]["value"] <= 1
        layer_us = sum(
            metric["value"]
            for name, metric in layers.items()
            if name.endswith("_us") and not name.startswith("trace.")
        )
        assert layer_us == pytest.approx(outcome["values"]["attributed_us"])


def test_wrong_expectation_counts_as_failure(monkeypatch):
    # Judge the plain site by the RESIN site's rules: its outsiders get the
    # paper (200) where the oracle now expects 403.
    monkeypatch.setattr(
        bench, "Oracle", lambda population, resin: Oracle(population, resin=True)
    )
    outcome = bench.run("paper-page-plain", 7, SECONDS, False, small=True, warmup=0)
    assert outcome["failed"] > 0
    assert bench.result_line(outcome, False, BENCHMARK)["correct"] is False
