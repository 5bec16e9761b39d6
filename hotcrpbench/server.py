"""The server side of the benchmark: one HotCRP site behind ``HTTPServer``.

Run as ``python -m hotcrpbench.server`` with ``src`` and the repository root
on ``PYTHONPATH``.  The protocol with the load generator is one JSON object
per line:

* stdin, first line: ``{"workload", "population", "setups", "store",
  "cpus"}``;
* stdout: ``{"event": "ready", "port", "setup_s": [...], "setup_wall_s":
  [...]}`` once listening;
* stdin ``{"cmd": "trace"}`` -> stdout ``{"event": "tracing"}``: wrap the
  layer entry points from now on (see :mod:`hotcrpbench.tracer`);
* stdin ``{"cmd": "untrace"}`` -> stdout ``{"event": "untraced"}``: unwrap
  them again, keeping what was recorded;
* stdin ``{"cmd": "stop"}`` (or EOF) -> stdout ``{"event": "stopped",
  "rss_mb", "reviews", "trace"}``, then exit.

The site is built ``setups`` times (each from scratch, in a fresh store for
the durable workload) and the last one is served, so the set-up time is a
median rather than one sample.  Each build is timed by a
:class:`hotcrpbench.reference.ScaledClock` that probes the core every few
population rows: ``setup_s`` holds the build times at the reference speed,
``setup_wall_s`` their wall times.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import shutil
import sys
from functools import partial

from repro.apps.hotcrp import HotCRP
from repro.environment import Environment
from repro.runtime_api import Resin
from repro.server.http import HTTPServer, ServerHandle
from repro.web.response import Response

from hotcrpbench.reference import ScaledClock
from hotcrpbench.workloads import WORKLOADS

#: Executor threads behind the event loop.
WORKERS = 2

#: Population rows loaded between two probes of a build's clock (about
#: 0.1 s of work).
ROWS_PER_TICK = 20

#: WAL size that triggers a checkpoint on the durable workload.  A review
#: logs ~0.9 KB, so a run takes a checkpoint every few seconds; the 4 MiB
#: default would take none.
CHECKPOINT_BYTES = 256 << 10


class Site:
    """One built HotCRP deployment and whatever must be closed with it."""

    def __init__(self, kind: str, population, store: str, clock: ScaledClock):
        self.resin = None
        self.store = store
        if kind == "plain":
            self.hotcrp = HotCRP(Environment(persist_policies=False), use_resin=False)
        elif kind == "resin":
            self.hotcrp = HotCRP(Environment())
        else:
            self.resin = Resin.open(
                store, audit=True, checkpoint_bytes=CHECKPOINT_BYTES
            )
            self.hotcrp = HotCRP(self.resin.env)
        if self.resin is None:
            self._load(population, clock)
        else:
            # Bulk load under one mutation scope: one group commit for the
            # whole population instead of one fsync per row.
            durability = self.resin.durability
            with durability.mutation():
                self._load(population, clock)
            durability.commit()
        self._add_review_route()
        clock.tick()

    def _load(self, population, clock: ScaledClock) -> None:
        site = self.hotcrp
        site.register_user(population["chair"], "chair-pw", is_pc=True, priv_chair=True)
        rows = itertools.chain(
            (
                partial(site.register_user, u["email"], u["password"], is_pc=u["is_pc"])
                for u in population["users"]
            ),
            (
                partial(
                    site.submit_paper,
                    p["id"],
                    p["title"],
                    p["abstract"],
                    p["authors"],
                    anonymous=p["anonymous"],
                )
                for p in population["papers"]
            ),
            (
                partial(site.add_review, r["paper_id"], r["reviewer"], r["body"])
                for r in population["reviews"]
            ),
        )
        for n, load_row in enumerate(rows, 1):
            load_row()
            if n % ROWS_PER_TICK == 0:
                clock.tick()

    def _add_review_route(self) -> None:
        site = self.hotcrp

        @site.web.route("/paper/<int:paper_id>/review", methods=["POST"])
        def submit_review(request, response, paper_id):
            site.add_review(paper_id, request.user, request.require("body"))
            return Response(status=201)

    def review_count(self) -> int:
        return len(self.hotcrp.env.db.execute_unchecked("SELECT paper_id FROM reviews"))

    def close(self) -> None:
        if self.resin is not None:
            self.resin.durability.close()
            self.resin.audit.close()
            shutil.rmtree(self.store, ignore_errors=True)


def _emit(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    config = json.loads(sys.stdin.readline())
    if config.get("cpus"):
        os.sched_setaffinity(0, config["cpus"])
    workload = WORKLOADS[config["workload"]]
    setup_s, setup_wall_s = [], []
    site = None
    for n in range(config["setups"]):
        if site is not None:
            site.close()
            site = None
            gc.collect()
        clock = ScaledClock()
        store = f"{config['store']}-{n}"
        site = Site(workload.site, config["population"], store, clock)
        setup_s.append(clock.scaled_s)
        setup_wall_s.append(clock.wall_s)
    server = HTTPServer(site.hotcrp.web, user_header="x-resin-user", workers=WORKERS)
    handle = ServerHandle(server).start()
    _emit(
        {
            "event": "ready",
            "port": handle.port,
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
        }
    )

    tracer = None
    tracing = False
    for line in sys.stdin:
        command = json.loads(line)["cmd"]
        if command == "trace":
            if tracer is None:
                from hotcrpbench.tracer import Tracer

                tracer = Tracer(site.hotcrp)
            tracer.start()
            tracing = True
            _emit({"event": "tracing"})
        elif command == "untrace":
            tracer.stop()
            tracing = False
            _emit({"event": "untraced"})
        elif command == "stop":
            break
    handle.close()
    if tracing:
        tracer.stop()
    trace = tracer.report() if tracer is not None else None
    reviews = site.review_count()
    site.close()
    _emit(
        {
            "event": "stopped",
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reviews": reviews,
            "trace": trace,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
