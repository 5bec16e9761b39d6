"""Run one workload of the socket-level HotCRP benchmark.

    python3 hotcrpbench/run.py --workload paper-page --seed 1 --seconds 15
    python3 hotcrpbench/run.py --workload review-submit --trace 1
    python3 hotcrpbench/run.py --compare BASE.json NEW.json

A run builds the seeded population, starts the server (``hotcrpbench.server``)
in a child process, pins the server and itself to one core, and drives one
keep-alive connection in a closed loop: a short warm-up, then
``run_seconds`` of ``BENCHMARK.json`` measured.  ``--seconds`` is accepted
only with that value, so every run of one benchmark has the same length.
Every response is checked against the oracle in
:mod:`hotcrpbench.workloads`.  Times are reported at the reference speed of
:mod:`hotcrpbench.reference`: each request's latency is scaled by the
probes timed just before and after it, and each set-up step by the probes
around it; the wall-clock values are printed beside them.  It prints each metric as
``name value unit`` and, last, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of ``BENCHMARK.json``,
or with ``--trace 1`` its per-layer metrics.  A traced run alternates
untraced windows with windows in which :class:`hotcrpbench.tracer.Tracer`
is installed; ``trace.overhead`` compares the two.

``--compare`` reads two result files written by ``hotcrpbench/sweep.py``
and classifies every (workload, end-to-end metric) pair by the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from hotcrpbench.loadgen import Connection, drive  # noqa: E402
from hotcrpbench.workloads import (  # noqa: E402
    WORKLOADS,
    Oracle,
    RequestStream,
    make_population,
)

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SOURCE = os.path.join(ROOT, "src", "repro", "__init__.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

WARMUP_S = 2.0
#: Site builds per run; ``setup_s`` is their median.
SETUPS = 3
#: Upper bound on the server's start-up (imports plus every set-up).
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: Windows of a traced run.  Window ``i`` is traced when ``i % 4`` is 1 or
#: 2 (untraced, traced, traced, untraced, ...), so a steady drift in host
#: speed weighs equally on both sides of ``trace.overhead``.
TRACE_WINDOWS = 8
#: Units of the printed values that ``BENCHMARK.json`` does not list.
UNIT_SUFFIXES = (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("rps", "1/s"))


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


class ServerProcess:
    """The server child and its line protocol (see ``hotcrpbench.server``)."""

    def __init__(self, workload: str, population, store: str, cpus: List[int]):
        env = dict(os.environ)
        path = [os.path.join(ROOT, "src"), ROOT]
        if env.get("PYTHONPATH"):
            path.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["TMPDIR"] = SCRATCH
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "hotcrpbench.server"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._pending = b""
        config = {
            "workload": workload,
            "population": population,
            "setups": SETUPS,
            "store": store,
            "cpus": cpus,
        }
        self.send(config)

    def send(self, message) -> None:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()

    def event(self, expected: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"server sent no {expected!r} in {timeout} s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(f"server exited before {expected!r}")
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        message = json.loads(line)
        if message.get("event") != expected:
            raise RuntimeError(f"server sent {message!r}, expected {expected!r}")
        return message

    def stop(self) -> dict:
        self.send({"cmd": "stop"})
        stopped = self.event("stopped", STOP_TIMEOUT_S)
        self.proc.stdin.close()
        self.proc.wait(STOP_TIMEOUT_S)
        return stopped

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _slowdown(samples) -> float:
    """How much slower than the reference speed the core ran while
    ``samples`` were in flight: their wall time over their scaled time."""
    return sum(s.latency_ns for s in samples) / sum(s.scaled_ns() for s in samples)


def _latency(samples) -> Dict[str, float]:
    """Latency of ``samples`` in ms at the reference speed, each request
    scaled by the probes timed just before and after it, and the same at
    wall speed (``wall_`` names)."""
    scaled = statistics.quantiles(
        [s.scaled_ns() / 1e6 for s in samples], n=100, method="inclusive"
    )
    wall = statistics.quantiles(
        [s.latency_ns / 1e6 for s in samples], n=100, method="inclusive"
    )
    return {
        "p50_ms": scaled[49],
        "p90_ms": scaled[89],
        "p99_ms": scaled[98],
        "mean_ms": statistics.fmean(s.scaled_ns() / 1e6 for s in samples),
        "wall_p50_ms": wall[49],
        "wall_p90_ms": wall[89],
    }


def _bench_cpus() -> List[int]:
    """The one core the server and the generator share: the last one."""
    return sorted(os.sched_getaffinity(0))[-1:]


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
    warmup: float = WARMUP_S,
) -> dict:
    """One run: returns every measured value plus the request counts.

    ``small`` and ``warmup`` exist for the smoke test's 8-paper site."""
    workload = WORKLOADS[workload_name]
    population = make_population(seed, small)
    oracle = Oracle(population, resin=workload.site != "plain")
    stream = RequestStream(workload, population, oracle, seed)
    cpus = _bench_cpus()
    affinity = os.sched_getaffinity(0)
    os.makedirs(SCRATCH, exist_ok=True)
    store = os.path.join(SCRATCH, f"{workload_name}-{os.getpid()}")
    server = ServerProcess(workload_name, population, store, cpus)
    connection = None
    try:
        os.sched_setaffinity(0, cpus)
        ready = server.event("ready", START_TIMEOUT_S)
        connection = Connection(ready["port"])
        warm, _ = drive(connection, stream, warmup)
        untraced = []
        if trace:
            samples, elapsed, tracing = [], 0.0, False
            for window in range(TRACE_WINDOWS):
                traced = window % 4 in (1, 2)
                if traced != tracing:
                    server.send({"cmd": "trace" if traced else "untrace"})
                    server.event("tracing" if traced else "untraced", STOP_TIMEOUT_S)
                    tracing = traced
                got, took = drive(connection, stream, seconds / TRACE_WINDOWS)
                if traced:
                    samples += got
                    elapsed += took
                else:
                    untraced += got
        else:
            samples, elapsed = drive(connection, stream, seconds)
        connection.close()
        stopped = server.stop()
    finally:
        os.sched_setaffinity(0, affinity)
        if connection is not None:
            connection.close()
        server.kill()
        for name in os.listdir(SCRATCH):
            if name.startswith(os.path.basename(store)):
                shutil.rmtree(os.path.join(SCRATCH, name), ignore_errors=True)

    measured = untraced + samples
    attempted = len(measured)
    failed = sum(not s.ok for s in measured)
    acked = sum(s.acked for s in warm + measured)
    # Every acknowledged review must be stored: a lost or phantom row is a
    # failure of its own.
    failed += abs(stopped["reviews"] - len(population["reviews"]) - acked)
    slowdown = _slowdown(samples)
    values = _latency(samples)
    values.update(
        {
            # One connection, so the rate is the inverse of the mean latency:
            # the probes between requests are left out.
            "rps": 1e3 / values["mean_ms"],
            "wall_rps": len(samples) / elapsed,
            "setup_s": statistics.median(ready["setup_s"]),
            "setup_wall_s": statistics.median(ready["setup_wall_s"]),
            "rss_mb": stopped["rss_mb"],
            "samples": len(samples),
            "slowdown": slowdown,
        }
    )
    writes = [s for s in samples if s.is_write]
    if writes:
        values.update({"write_" + k: v for k, v in _latency(writes).items()})
        values["write_samples"] = len(writes)
    if trace:
        # The tracer's times are wall times of the traced windows; they are
        # scaled like the mean latency of those windows.
        layers = {
            name: value / slowdown if name.endswith(("_us", "_ms")) else value
            for name, value in stopped["trace"].items()
        }
        mean_us = values["mean_ms"] * 1e3
        values.update(layers)
        values["trace.unattributed_us"] = mean_us - layers["attributed_us"]
        values["trace.coverage"] = layers["attributed_us"] / mean_us
        values["trace.overhead"] = values["p50_ms"] / _latency(untraced)["p50_ms"]
    return {"attempted": attempted, "failed": failed, "values": values}


def result_line(outcome: dict, trace: bool, benchmark: dict) -> dict:
    """The final JSON object of a run."""
    metrics = {}
    for metric in benchmark["per_layer" if trace else "end_to_end"]:
        value = outcome["values"][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


# -- comparing two result files ---------------------------------------------


def classify(base: List[float], new: List[float], better: str, bound: float) -> str:
    """``better`` / ``within bound`` / ``worse`` / ``unresolved`` for one
    (workload, metric) pair, by the pair protocol in the README."""
    sign = 1.0 if better == "higher" else -1.0
    b1, base_median, b3 = statistics.quantiles(base, n=4)
    new_median = statistics.median(new)
    change = sign * (new_median - base_median) / base_median
    if change < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if (
        change > 0
        and abs(new_median - base_median) > b3 - b1
        and wins >= 0.9 * len(pairs)
    ):
        return "better"
    every_better = min(sign * n for n in new) > max(sign * b for b in base)
    if (b3 - b1) / base_median > bound and not every_better:
        return "unresolved"
    return "within bound"


def _untraced(path: str) -> Dict[str, Dict[str, List[float]]]:
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    table: Dict[str, Dict[str, List[float]]] = {}
    for entry in runs:
        if entry["trace"]:
            continue
        metrics = table.setdefault(entry["workload"], {})
        for name, metric in entry["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def compare(base_path: str, new_path: str, benchmark: dict) -> List[tuple]:
    """One row per (workload, end-to-end metric) present in both files."""
    base, new = _untraced(base_path), _untraced(new_path)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old, now = base[workload][name], new[workload][name]
            verdict = classify(old, now, metric["better"], metric["bound"])
            medians = statistics.median(old), statistics.median(now)
            rows.append((workload, name) + medians + (verdict,))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run_seconds, if given")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        for workload, name, old, now, verdict in compare(*args.compare, benchmark):
            print(f"{workload:18s} {name:10s} {old:12.4f} -> {now:12.4f}  {verdict}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(SOURCE):
        print(f"no source tree at {os.path.dirname(SOURCE)}", file=sys.stderr)
        return 2
    seconds = benchmark["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds must be BENCHMARK.json's run_seconds, {seconds}")
    outcome = run(args.workload, args.seed, seconds, bool(args.trace))
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    units = {m["name"]: m["unit"] for m in metrics}
    for name, value in outcome["values"].items():
        unit = units.get(name) or next(
            (u for suffix, u in UNIT_SUFFIXES if name.endswith(suffix)), ""
        )
        print(f"{name:28s} {value:14.6f} {unit}")
    print(f"{'fail_frac':28s} {outcome['failed'] / outcome['attempted']:14.6f}")
    print(json.dumps(result_line(outcome, bool(args.trace), benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
