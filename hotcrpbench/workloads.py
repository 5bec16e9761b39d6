"""Workload table, seeded inputs and the response oracle.

Everything here runs in the load generator.  The seed never leaves this
process: the server receives the generated population (plain JSON) and the
generated requests (bytes on the socket), nothing else.

The oracle predicts each response from the population and the site
configuration alone -- it never imports the code under test -- and encodes
the HotCRP access rules the paper's assertions protect:

* RESIN site: a PC member sees "Anonymous" on an anonymous paper unless they
  wrote it; the chair and the authors see the author list; a non-PC user who
  is not an author gets 403 on ``/paper/<id>``.
* Plain site (``use_resin=False``): the original explicit check only hides
  authors from non-chairs, so authors see "Anonymous" too, and outsiders get
  200 -- the missing access check the paper's assertion adds.
"""

from __future__ import annotations

import random
from typing import Dict, NamedTuple, Tuple
from urllib.parse import urlencode

#: Site population: users (every 4th on the PC), papers (even ids anonymous,
#: one review each) and one chair, as in the paper's conference-site scenario.
USERS = 200
PAPERS = 200
PC_EVERY = 4
CHAIR = "chair@example.org"

#: Principal mix of every request stream.
PC_SHARE = 0.85
CHAIR_SHARE = 0.10  # the remaining 5% are non-PC outsiders

_WORDS = (
    "data flow assertion policy filter channel runtime taint export check "
    "boundary secure web request response paper review author reviewer "
    "conference program committee anonymous server query table column "
    "object string merge track persist serialize decode plan index"
).split()


class Workload(NamedTuple):
    """One traffic mix; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: ``resin`` (in-memory RESIN site), ``plain`` (unmodified site without
    #: policy persistence) or ``durable`` (RESIN site on a WAL + audit store).
    site: str
    #: Share of requests that are ``POST /paper/<id>/review``; the rest are
    #: ``GET /paper/<id>``.
    post_share: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-page", "resin"),
        Workload("paper-page-plain", "plain"),
        Workload("review-submit", "durable", post_share=0.25),
    )
}


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(count))


def make_population(seed: int, small: bool = False):
    """The site's users, papers and reviews for ``seed`` (JSON-ready).

    ``small`` builds 16 users and 8 papers instead, for the smoke test."""
    rng = random.Random(seed)
    users = [
        {
            "email": f"u{i:03d}-{rng.randrange(16**6):06x}@example.org",
            "password": f"pw-{rng.randrange(16**8):08x}",
            "is_pc": i % PC_EVERY == 0,
        }
        for i in range(16 if small else USERS)
    ]
    emails = [u["email"] for u in users]
    pc = [u["email"] for u in users if u["is_pc"]]
    paper_rows = []
    reviews = []
    for pid in range(1, (8 if small else PAPERS) + 1):
        paper_rows.append(
            {
                "id": pid,
                "title": _words(rng, 6).capitalize(),
                "abstract": _words(rng, 50) + ".",
                "authors": rng.sample(emails, rng.randint(1, 3)),
                "anonymous": pid % 2 == 0,
            }
        )
        reviews.append(
            {"paper_id": pid, "reviewer": rng.choice(pc), "body": _words(rng, 12)}
        )
    return {
        "chair": CHAIR,
        "users": users,
        "papers": paper_rows,
        "reviews": reviews,
    }


class Expect(NamedTuple):
    """What a correct response looks like."""

    status: int
    #: Byte strings the body must contain.
    must: Tuple[bytes, ...] = ()


def check(expect: Expect, status: int, body: bytes) -> bool:
    """True when a response matches its expectation."""
    return status == expect.status and all(needle in body for needle in expect.must)


class Request(NamedTuple):
    wire: bytes
    expect: Expect
    is_write: bool


class Oracle:
    """Expected responses for one population on one site configuration."""

    def __init__(self, population, resin: bool):
        self.resin = resin
        self.chair = population["chair"]
        self.pc = frozenset(u["email"] for u in population["users"] if u["is_pc"])
        self.papers = {p["id"]: p for p in population["papers"]}

    def paper(self, pid: int, user: str) -> Expect:
        paper = self.papers[pid]
        authors = paper["authors"]
        is_chair = user == self.chair
        if self.resin:
            if not (is_chair or user in self.pc or user in authors):
                return Expect(403)
            named = is_chair or user in authors or not paper["anonymous"]
        else:
            named = is_chair or not paper["anonymous"]
        shown = ", ".join(authors) if named else "Anonymous"
        return Expect(
            200,
            must=(
                f"<h1>{paper['title']}</h1>".encode(),
                f"Authors: {shown}</div>".encode(),
            ),
        )


class RequestStream:
    """The seeded request sequence of one run."""

    def __init__(self, workload: Workload, population, oracle: Oracle, seed: int):
        self.workload = workload
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.pids = sorted(oracle.papers)
        self.pc = sorted(oracle.pc)
        self.non_pc = [u["email"] for u in population["users"] if not u["is_pc"]]

    def _principal(self, pid: int) -> str:
        draw = self.rng.random()
        if draw < PC_SHARE:
            return self.rng.choice(self.pc)
        if draw < PC_SHARE + CHAIR_SHARE:
            return self.oracle.chair
        authors = self.oracle.papers[pid]["authors"]
        while True:
            user = self.rng.choice(self.non_pc)
            if user not in authors:
                return user

    def next(self) -> Request:
        rng = self.rng
        pid = rng.choice(self.pids)
        if self.workload.post_share and rng.random() < self.workload.post_share:
            form = urlencode({"body": _words(rng, 12)}).encode()
            wire = (
                f"POST /paper/{pid}/review HTTP/1.1\r\nHost: bench\r\n"
                f"X-Resin-User: {rng.choice(self.pc)}\r\n"
                "Content-Type: application/x-www-form-urlencoded\r\n"
                f"Content-Length: {len(form)}\r\n\r\n"
            ).encode() + form
            return Request(wire, Expect(201), True)
        user = self._principal(pid)
        wire = (
            f"GET /paper/{pid} HTTP/1.1\r\nHost: bench\r\nX-Resin-User: {user}\r\n\r\n"
        ).encode()
        return Request(wire, self.oracle.paper(pid, user), False)
