"""Write-ahead log group-commit benchmark: durable vs in-memory writes.

Concurrent workers insert into per-worker tables (disjoint table locks, so
the write-ahead log is the only shared resource) on a plain in-memory
environment and on a durable one (``Resin.open`` with ``sync="fsync"``).
Group commit is what keeps the durable column competitive: every worker
buffers its record under the log mutex and one leader's fsync makes the
whole batch durable, so the sync count stays well below the record count.

Acceptance bars (standalone tests, no ``--benchmark-only`` needed):

* at 16 workers, durable throughput is within 3x of in-memory
  (``test_durable_within_3x_of_memory_at_16_workers``);
* at 16 workers, group commit batches — strictly fewer fsyncs than
  records (``test_group_commit_batches_syncs``).

Run with::

    pytest benchmarks/bench_wal_commit.py --benchmark-only \
        --benchmark-group-by=group --benchmark-columns=min,mean,ops
"""

import shutil
import tempfile
import threading
import time

import pytest

from repro.environment import Environment
from repro.runtime_api import Resin

#: Inserts per worker per measured batch.
INSERTS = 8

WORKER_COUNTS = [1, 4, 16]


def _run_batch(db, workers):
    """``workers`` threads, each inserting ``INSERTS`` rows into its own
    table; returns when every row is committed."""
    errors = []
    start = threading.Barrier(workers)

    def worker(wid):
        try:
            start.wait()
            for seq in range(INSERTS):
                db.query(f"INSERT INTO bench_{wid} (seq, payload) "
                         f"VALUES ({seq}, 'row-{wid}-{seq}')")
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def _create_tables(db, workers):
    for wid in range(workers):
        db.query(f"CREATE TABLE bench_{wid} (seq INT, payload TEXT)")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_wal_commit_in_memory(benchmark, workers):
    benchmark.group = f"wal-commit-{workers}-workers"
    env = Environment()
    _create_tables(env.db, workers)
    benchmark(lambda: _run_batch(env.db, workers))
    _annotate(benchmark, workers, mode="in-memory")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_wal_commit_durable(benchmark, workers):
    benchmark.group = f"wal-commit-{workers}-workers"
    store = tempfile.mkdtemp(prefix="bench-wal-")
    resin = Resin.open(store)
    try:
        _create_tables(resin.db, workers)
        benchmark(lambda: _run_batch(resin.db, workers))
        wal = resin.durability.wal
        benchmark.extra_info["records"] = wal.records
        benchmark.extra_info["syncs"] = wal.syncs
        _annotate(benchmark, workers, mode="durable")
    finally:
        resin.durability.close()
        shutil.rmtree(store, ignore_errors=True)


def _annotate(benchmark, workers, mode):
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["workers"] = workers
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds = benchmark.stats.stats.mean
        benchmark.extra_info["inserts_per_sec"] = round(workers * INSERTS / seconds, 1)


def _throughput(db, workers, rounds=3):
    best = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        _run_batch(db, workers)
        elapsed = time.perf_counter() - start
        best = max(best, workers * INSERTS / elapsed)
    return best


def test_durable_within_3x_of_memory_at_16_workers():
    """The ISSUE acceptance criterion: group commit keeps durable writes
    within 3x of in-memory throughput at 16 concurrent workers."""
    env = Environment()
    _create_tables(env.db, 16)
    _run_batch(env.db, 16)  # warm-up
    memory = _throughput(env.db, 16)

    store = tempfile.mkdtemp(prefix="bench-wal-")
    resin = Resin.open(store)
    try:
        _create_tables(resin.db, 16)
        _run_batch(resin.db, 16)  # warm-up
        durable = _throughput(resin.db, 16)
    finally:
        resin.durability.close()
        shutil.rmtree(store, ignore_errors=True)

    assert durable >= memory / 3, (
        f"durable throughput {durable:.0f} inserts/s is more than 3x below "
        f"in-memory {memory:.0f} inserts/s")


def test_group_commit_batches_syncs():
    """At 16 workers one leader fsync absorbs whole batches of records."""
    store = tempfile.mkdtemp(prefix="bench-wal-")
    resin = Resin.open(store)
    try:
        _create_tables(resin.db, 16)
        _run_batch(resin.db, 16)
        wal = resin.durability.wal
        assert wal.syncs < wal.records, (
            f"expected group commit to batch: {wal.syncs} syncs for "
            f"{wal.records} records")
    finally:
        resin.durability.close()
        shutil.rmtree(store, ignore_errors=True)
