"""Repeat the benchmark and record every run in one result file.

    python3 hotcrpbench/sweep.py --runs 10 --out hotcrpbench/results/baseline.json

For each workload it makes ``--runs`` untraced runs in each of two sets, A
(seeds 1..N) and B (seeds N+1..2N), alternating which set goes first, and
``TRACED_RUNS`` traced runs (seeds 2N+1..) spread evenly between them.
Every run is a separate ``hotcrpbench/run.py``
process, started the way ``BENCHMARK.json`` says.  The summary holds, per
workload, each end-to-end metric's medians and spreads and each per-layer
metric's median over the traced runs.  It prints, per workload and end-to-end
metric, each set's median and quartile spread (IQR / median), whether the
spread is below a third of the metric's bound, the B-vs-A verdict of
``run.py --compare``, and the paper's overhead ratio (``paper-page`` p50 /
``paper-page-plain`` p50) next to the 88 ms / 66 ms the paper reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from hotcrpbench.run import classify, load_benchmark  # noqa: E402

#: Section 7.1: 88 ms with RESIN over 66 ms unmodified.
PAPER_RATIO = 88.0 / 66.0

#: Traced runs per workload: one traced run lands in whatever speed the
#: host happens to have, so the per-layer summary is a median of three.
#: They are spread over the sweep because the host's slow periods can span
#: minutes; a workload's traced run follows its untraced pair of the round.
TRACED_RUNS = 3


def one_run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    if done.returncode != 0:
        raise RuntimeError(f"{command} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, value = line.split()[:2]
        printed[name] = float(value)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": json.loads(lines[-1]),
        "printed": printed,
    }


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def summarize(runs, benchmark) -> dict:
    summary = {}
    workloads = sorted({r["workload"] for r in runs})
    for workload in workloads:
        rows = summary[workload] = {}
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        rows["layers"] = {
            metric["name"]: statistics.median(
                r["result"]["metrics"][metric["name"]]["value"] for r in traced
            )
            for metric in benchmark["per_layer"]
        }
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sets = {
                label: [
                    r["result"]["metrics"][name]["value"]
                    for r in runs
                    if r["workload"] == workload and r.get("set") == label
                ]
                for label in ("A", "B")
            }
            (a_median, a_spread), (b_median, b_spread) = map(_spread, sets.values())
            verdict = classify(sets["A"], sets["B"], metric["better"], metric["bound"])
            rows[name] = {
                "median_A": a_median,
                "median_B": b_median,
                "spread_A": a_spread,
                "spread_B": b_spread,
                "bound": metric["bound"],
                "B_vs_A": verdict,
            }
    summary["paper_ratio"] = {
        label: summary["paper-page"]["p50_ms"]["median_" + label]
        / summary["paper-page-plain"]["p50_ms"]["median_" + label]
        for label in ("A", "B")
    }
    summary["paper_ratio"]["paper"] = PAPER_RATIO
    return summary


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def main(argv=None) -> int:
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    runs = []
    for i in range(args.runs):
        for workload in workloads:
            for label in ("AB" if i % 2 == 0 else "BA"):
                seed = 1 + i + (args.runs if label == "B" else 0)
                entry = one_run(workload, seed, 0)
                entry["set"] = label
                runs.append(entry)
                print(workload, label, seed, json.dumps(entry["result"]), flush=True)
            for k in range(TRACED_RUNS):
                if k * args.runs // TRACED_RUNS != i:
                    continue
                seed = 2 * args.runs + 1 + k
                entry = one_run(workload, seed, 1)
                runs.append(entry)
                print(workload, "trace", seed, json.dumps(entry["result"]), flush=True)
    summary = summarize(runs, benchmark)
    document = {
        "host": {
            "cpu": _cpu_model(),
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
        "run_seconds": benchmark["run_seconds"],
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = summary[workload][name]
            ok = max(row["spread_A"], row["spread_B"]) < row["bound"] / 3
            print(
                f"{workload:18s} {name:8s} A {row['median_A']:10.4f} "
                f"({row['spread_A']:.3f}) B {row['median_B']:10.4f} "
                f"({row['spread_B']:.3f}) bound {row['bound']:.2f} "
                f"{'steady' if ok else 'NOISY'} {row['B_vs_A']}"
            )
    print("paper ratio", json.dumps(summary["paper_ratio"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
