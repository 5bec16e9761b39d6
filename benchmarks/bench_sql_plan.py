"""Query-plan benchmark: secondary-index lookups vs the seed full scan.

Twin databases hold the same 4 000-row table; one carries sorted secondary
indexes on ``id`` and ``grp``, the other none (the planner then degrades to
``SeqScan`` — the seed engine's only access path).  Three query shapes run
against both, at 1/4/16 concurrent workers:

* ``point`` — ``WHERE id = <k>`` equality lookup;
* ``range`` — ``WHERE id >= a AND id < b`` over ~1 % of the table;
* ``bulk``  — ``WHERE grp = <g>`` fetching ~2 % of the rows.

A fourth group measures the HotCRP paper page (population 150) with and
without the schema's indexes — the page-load before/after column for the
planner.

Acceptance bars (standalone tests, no ``--benchmark-only`` needed):

* indexed point lookups are at least 5x faster than the full scan
  (``test_indexed_point_lookup_5x_faster``);
* plans and full scans return identical rows while doing it
  (checked inside every measured batch builder).

Run with::

    pytest benchmarks/bench_sql_plan.py --benchmark-only \
        --benchmark-group-by=group --benchmark-columns=min,mean,ops
"""

import threading
import time

import pytest

from repro.channels.sqlchan import Database
from repro.evaluation.hotcrp_perf import HotCRPPageWorkload

#: Rows in the benchmark table.
TABLE_ROWS = 4_000

#: Distinct ``grp`` values (so one group is ~2% of the table).
GROUPS = 50

#: Queries per worker per measured batch.
QUERIES = 10

WORKER_COUNTS = [1, 4, 16]

QUERY_SHAPES = {
    "point": lambda k: f"SELECT val FROM big WHERE id = {k * 37 % TABLE_ROWS}",
    "range": lambda k: (
        f"SELECT val FROM big WHERE id >= {k * 31 % (TABLE_ROWS - 40)} "
        f"AND id < {k * 31 % (TABLE_ROWS - 40) + 40}"
    ),
    "bulk": lambda k: f"SELECT val FROM big WHERE grp = {k % GROUPS}",
}


def build_database(indexed: bool) -> Database:
    db = Database()
    db.execute_unchecked("CREATE TABLE big (id INTEGER, grp INTEGER, val TEXT)")
    values = ", ".join(f"({i}, {i % GROUPS}, 'v{i}')" for i in range(TABLE_ROWS))
    db.execute_unchecked(f"INSERT INTO big (id, grp, val) VALUES {values}")
    if indexed:
        db.create_index("big", "id")
        db.create_index("big", "grp")
    return db


def _run_batch(db: Database, shape: str, workers: int) -> None:
    errors = []
    start = threading.Barrier(workers)
    make = QUERY_SHAPES[shape]

    def worker(wid: int) -> None:
        try:
            start.wait()
            for seq in range(QUERIES):
                rows = db.query(make(wid * QUERIES + seq)).rows
                assert rows, "every probe hits at least one row"
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


@pytest.fixture(scope="module")
def databases():
    return {True: build_database(True), False: build_database(False)}


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("shape", list(QUERY_SHAPES))
@pytest.mark.parametrize("indexed", [False, True])
def test_sql_plan_lookup(benchmark, databases, shape, workers, indexed):
    db = databases[indexed]
    benchmark.group = f"sql-{shape}-{workers}-workers"
    benchmark.extra_info["mode"] = "indexed" if indexed else "seqscan"
    benchmark.extra_info["workers"] = workers
    benchmark(lambda: _run_batch(db, shape, workers))
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["queries_per_sec"] = round(workers * QUERIES / seconds, 1)


@pytest.mark.parametrize("indexed", [False, True])
def test_hotcrp_page_with_plans(benchmark, indexed):
    """The HotCRP page-load before/after column: the same populated site
    with the seed's full-scan behaviour (indexes dropped) and with the
    schema's indexes."""
    workload = HotCRPPageWorkload(use_resin=True, population=150)
    if not indexed:
        for table in workload.site.env.db.engine.tables.values():
            table.indexes.clear()
    benchmark.group = "hotcrp-page-plans"
    benchmark.extra_info["mode"] = "indexed" if indexed else "seqscan"
    body = benchmark(workload.generate_page)
    assert "Improving Application Security" in body


def _mean_seconds(callable_, rounds: int) -> float:
    callable_()  # warm-up
    start = time.perf_counter()
    for _ in range(rounds):
        callable_()
    return (time.perf_counter() - start) / rounds


def test_indexed_point_lookup_5x_faster():
    """The ISSUE acceptance criterion: indexed point lookups beat the seed
    full scan by at least 5x on the 4 000-row table."""
    indexed = build_database(True)
    seqscan = build_database(False)
    sql = QUERY_SHAPES["point"](7)
    assert [r["val"] for r in indexed.query(sql)] == [
        r["val"] for r in seqscan.query(sql)
    ]
    fast = _mean_seconds(lambda: indexed.query(sql), rounds=60)
    slow = _mean_seconds(lambda: seqscan.query(sql), rounds=15)
    assert slow >= 5 * fast, (
        f"indexed point lookup {fast * 1e6:.0f}us is not 5x faster than "
        f"full scan {slow * 1e6:.0f}us"
    )


def test_plans_match_seqscan_rows():
    """Every benchmark shape returns identical rows on both databases."""
    indexed = build_database(True)
    seqscan = build_database(False)
    for shape, make in QUERY_SHAPES.items():
        for k in (0, 7, 123):
            sql = make(k)
            assert [r["val"] for r in indexed.query(sql)] == [
                r["val"] for r in seqscan.query(sql)
            ], (shape, k)
