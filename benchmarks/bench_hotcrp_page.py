"""Experiment E5: HotCRP application performance (Section 7.1).

Generates the paper-view page for a PC member with and without RESIN and
reports the overhead ratio next to the paper's 88 ms / 66 ms = 1.33×.
"""

import statistics
import time

import pytest

from repro.evaluation import hotcrp_perf


@pytest.fixture(scope="module")
def workloads():
    return hotcrp_perf.build_workloads()


@pytest.mark.parametrize("configuration", ["unmodified", "resin"])
def test_hotcrp_page_generation(benchmark, workloads, configuration):
    workload = workloads[configuration]
    benchmark.group = "hotcrp-paper-page"
    benchmark.extra_info["configuration"] = configuration
    benchmark.extra_info["page_bytes"] = workload.page_size()
    body = benchmark(workload.generate_page)
    assert "Improving Application Security" in body


def test_hotcrp_overhead_ratio(benchmark, workloads, capsys):
    """Time the two configurations the same way, in alternating pairs, and
    report the median of the per-pair RESIN/unmodified ratios.

    Both halves of a pair run back to back, so host noise moves them
    together and largely cancels in their ratio; the median then discards
    the pairs a noise burst split.  The true ratio is near 1.1x, well
    inside the spread of single pairs, so only the paired median can tell
    it from 1.0.
    """

    def time_pages(workload, pages=5):
        start = time.perf_counter()
        for _ in range(pages):
            workload.generate_page()
        return (time.perf_counter() - start) / pages

    unmodified, resin_site = workloads["unmodified"], workloads["resin"]
    unmodified.generate_page()            # warm-up
    resin_site.generate_page()
    plain_times, resin_times, ratios = [], [], []
    for pair in range(31):
        # Alternate which side runs first, so neither always follows the
        # other's cache and allocator state.
        if pair % 2:
            resin_time = time_pages(resin_site)
            plain_time = time_pages(unmodified)
        else:
            plain_time = time_pages(unmodified)
            resin_time = time_pages(resin_site)
        plain_times.append(plain_time)
        resin_times.append(resin_time)
        ratios.append(resin_time / plain_time)
    plain = statistics.median(plain_times)
    resin = statistics.median(resin_times)
    ratio = statistics.median(ratios)
    # The saved pytest-benchmark run keeps tracking the RESIN page.
    benchmark(resin_site.generate_page)
    benchmark.group = "hotcrp-paper-page"
    benchmark.extra_info["overhead_ratio"] = round(ratio, 2)
    benchmark.extra_info["paper_ratio"] = round(
        hotcrp_perf.PAPER_OVERHEAD_RATIO, 2)

    with capsys.disabled():
        print()
        print("=== Section 7.1: HotCRP paper-page generation ===")
        print(f"  unmodified : {plain * 1000:8.2f} ms/page "
              f"(paper: 66 ms on a 2.3 GHz Xeon)")
        print(f"  RESIN      : {resin * 1000:8.2f} ms/page (paper: 88 ms)")
        print(f"  overhead   : {ratio:8.2f}x   "
              f"(paper: {hotcrp_perf.PAPER_OVERHEAD_RATIO:.2f}x; "
              f"median of {len(ratios)} paired ratios)")

    # Shape check: RESIN costs something, but page generation remains the
    # same order of magnitude (the paper reports 1.33x; our pure-Python
    # tracking layer lands higher, but must stay within a small multiple).
    assert ratio > 1.0
    assert ratio < 25.0
