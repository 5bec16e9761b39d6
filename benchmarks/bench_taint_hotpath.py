"""Taint hot-path benchmarks: lazy ropes, interned sets, memoized merges.

The ``taint-concat-render`` group is the ROADMAP acceptance target (>=2x on
concat-heavy page renders).  ``test_lazy_render_at_least_2x_faster_than_eager``
enforces the floor locally by re-running the same render loop with the rope
forced flat after every append — the copy-per-concat behaviour the lazy rope
replaced; the CI autosave/compare cache additionally gates regressions
against the previous successful build on this branch.

Groups:

* ``taint-concat-render``  — synthetic page assembly + channel-boundary flatten
* ``taint-page-render``    — real HotCRP and phpBB page renders
* ``taint-micro:<op>``     — concat / slice / join / merge at 1/4/16 workers
* ``taint-merge-many``     — regression case for the quadratic merge fold
* ``taint-sql-text``       — ``sql_quote`` + ``parse`` of the HotCRP users query,
  with the parser's template memo warm (a hit) and cleared every round (a
  miss: scan, parse and keep the template)
* ``taint-plain-floor``    — what policy-free data still pays: a page's plain
  writes through the HTTP channel's filter chain, and ``sql_quote`` of a
  plain e-mail with and without a ``'``
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.channels.httpout import HTTPOutputChannel
from repro.core.policyset import PolicySet
from repro.evaluation import hotcrp_perf
from repro.policies import UntrustedData
from repro.sql import nodes, parse
from repro.sql.parser import clear_templates
from repro.tracking import (
    TaintedStr,
    clear_merge_cache,
    merge_cache_info,
    merge_many,
    merge_policysets,
    taint_str,
)
from repro.tracking.propagation import concat
from repro.web.sanitize import sql_quote

AUTHOR = UntrustedData("author@example.org")
SIGNATURE = UntrustedData("signature")


def _pieces(count):
    return [
        taint_str(f"message body {index} " * 4, AUTHOR if index % 2 else SIGNATURE)
        for index in range(count)
    ]


def _render_once(pieces):
    page = TaintedStr("")
    for piece in pieces:
        page = page + "<div class='post'>" + piece + "</div>\n"
    return page


# -- concat-heavy page render (the >=2x ROADMAP target) --------------------------


@pytest.mark.parametrize("piece_count", [64, 256])
def test_concat_render(benchmark, piece_count):
    pieces = _pieces(piece_count)
    benchmark.group = "taint-concat-render"
    benchmark.extra_info["pieces"] = piece_count

    def render():
        page = _render_once(pieces)
        return page.encode()  # the channel boundary forces the one flatten

    body = benchmark(render)
    assert body.policies_at(len("<div class='post'>")) == {SIGNATURE}


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_lazy_render_at_least_2x_faster_than_eager():
    """The acceptance floor: lazy ropes must beat forced-eager flattening by
    >=2x on a concat-heavy render (they win asymptotically: one O(ranges)
    flatten at the boundary vs one rope copy per append)."""
    pieces = _pieces(600)

    def lazy():
        _render_once(pieces).rangemap.ranges

    def forced_eager():
        page = TaintedStr("")
        for piece in pieces:
            page = page + "<div class='post'>" + piece + "</div>\n"
            page.rangemap.ranges  # flatten per append = pre-rope behaviour

    lazy_time = _best_of(lazy)
    eager_time = _best_of(forced_eager)
    ratio = eager_time / lazy_time
    assert ratio >= 2.0, f"lazy render only {ratio:.1f}x faster than eager"


# -- real page renders -----------------------------------------------------------


@pytest.fixture(scope="module")
def hotcrp_workloads():
    return hotcrp_perf.build_workloads()


@pytest.fixture(scope="module")
def phpbb_board():
    from repro.apps.phpbb import PhpBB

    board = PhpBB()
    board.create_forum(1, "general")
    for msg_id in range(1, 9):
        board.post_message(
            msg_id,
            1,
            "author",
            f"subject {msg_id}",
            ("lorem ipsum dolor sit amet " * 40) + f"[post {msg_id}]",
        )
    return board


def test_hotcrp_page_render(benchmark, hotcrp_workloads):
    workload = hotcrp_workloads["resin"]
    benchmark.group = "taint-page-render"
    benchmark.extra_info["app"] = "hotcrp"
    body = benchmark(workload.generate_page)
    assert "Improving Application Security" in body


def test_phpbb_topic_render(benchmark, phpbb_board):
    benchmark.group = "taint-page-render"
    benchmark.extra_info["app"] = "phpbb"

    def render():
        bodies = []
        for msg_id in range(1, 9):
            bodies.append(phpbb_board.view_message(msg_id, "author").body())
        return bodies

    bodies = benchmark(render)
    assert all("lorem ipsum" in body for body in bodies)


# -- concat / slice / join / merge micros at 1/4/16 workers ----------------------


def _make_task(operation):
    base = taint_str("x" * 512, AUTHOR)
    big = taint_str("y" * 4096, SIGNATURE)
    pieces = _pieces(32)
    left = PolicySet.of(AUTHOR)
    right = PolicySet.of(SIGNATURE)

    if operation == "concat":

        def task():
            out = TaintedStr("")
            for _ in range(32):
                out = out + base + "tail"
            return out

    elif operation == "slice":

        def task():
            for index in range(32):
                big[index : index + 1024]

    elif operation == "join":
        sep = TaintedStr(", ")

        def task():
            return sep.join(pieces)

    else:  # merge

        def task():
            for _ in range(32):
                merge_policysets(left, right)

    return task


@pytest.mark.parametrize("workers", [1, 4, 16])
@pytest.mark.parametrize("operation", ["concat", "slice", "join", "merge"])
def test_taint_micro(benchmark, operation, workers):
    benchmark.group = f"taint-micro:{operation}"
    benchmark.extra_info["workers"] = workers
    task = _make_task(operation)
    if workers == 1:
        benchmark(task)
        return
    pool = ThreadPoolExecutor(max_workers=workers)

    def parallel():
        futures = [pool.submit(task) for _ in range(workers)]
        for future in futures:
            future.result()

    try:
        benchmark(parallel)
    finally:
        pool.shutdown(wait=True)


# -- merge_many fold regression --------------------------------------------------


def test_merge_many_interned_fold(benchmark):
    """Regression for the quadratic left-fold: folding operands that share
    interned provenance must ride the same-set/memo fast paths instead of
    rebuilding a fresh set per operand."""
    operands = [PolicySet.of(AUTHOR)] * 256 + [PolicySet.of(SIGNATURE)] * 256
    benchmark.group = "taint-merge-many"
    result = benchmark(lambda: merge_many(operands))
    assert result == {AUTHOR, SIGNATURE}


def test_merge_many_fold_uses_fast_paths():
    clear_merge_cache()
    operands = [PolicySet.of(AUTHOR)] * 512 + [PolicySet.of(SIGNATURE)] * 512
    result = merge_many(operands)
    info = merge_cache_info()
    assert result == {AUTHOR, SIGNATURE}
    # Same-set folds never touch the protocol; only the two distinct pairs
    # (AUTHOR, SIGNATURE-singleton) and (merged, SIGNATURE-singleton) miss.
    assert info["misses"] <= 2
    assert info["hits"] >= 500


# -- SQL text building: quote and parse the HotCRP users query -------------------


def _tainted_email(literal_length):
    return taint_str("o'" + "x" * (literal_length - 14) + "@example.org", AUTHOR)


def _quote_and_parse(email):
    return parse(
        concat(
            "SELECT email, password, is_pc, priv_chair FROM users WHERE email = '",
            sql_quote(email),
            "'",
        )
    )


def _check_email_literal(statement, email):
    literal = statement.where.right
    assert isinstance(literal, nodes.Literal)
    assert str(literal.value) == email
    assert literal.value.policies() == sql_quote(email).policies()


@pytest.mark.parametrize("literal_length", [32, 512, 4096])
def test_sql_quote_and_parse(benchmark, literal_length):
    """The login lookup ``HotCRP._user`` runs on every request, with a
    tainted e-mail literal of ``literal_length`` characters and one ``''``
    escape.  Every round after the first binds the parser's template."""
    email = _tainted_email(literal_length)
    benchmark.group = "taint-sql-text"
    benchmark.extra_info["literal_length"] = literal_length
    statement = benchmark(_quote_and_parse, email)
    _check_email_literal(statement, email)


@pytest.mark.parametrize("literal_length", [32, 512, 4096])
def test_sql_quote_and_parse_a_new_shape(benchmark, literal_length):
    """The same statement with the template memo cleared every round, so
    each round scans and parses it and keeps its template."""
    email = _tainted_email(literal_length)
    benchmark.group = "taint-sql-text"
    benchmark.extra_info["literal_length"] = literal_length

    def first_seen():
        clear_templates()
        return _quote_and_parse(email)

    statement = benchmark(first_seen)
    _check_email_literal(statement, email)


# -- the plain floor: policy-free data on the HTTP and SQL paths -----------------

#: The plain literals a HotCRP paper page writes, in order.
_PAGE_LITERALS = [
    "<html><head><title>HotCRP: paper ",
    "1",
    "</title></head><body>\n",
    "<div class='banner'>HotCRP</div>\n",
    "<h1>",
    "</h1>\n<div class='abstract'><p>",
    "</p></div>\n<div class='authors'>Authors: ",
    "Anonymous",
    "</div>\n",
    "<div class='footer'>HotCRP</div>\n",
    "</body></html>\n",
]


def test_http_write_of_plain_text(benchmark):
    """A page's plain writes: each crosses the channel's filter chain and is
    delivered as the ``str`` it is."""
    benchmark.group = "taint-plain-floor"
    benchmark.extra_info["writes"] = len(_PAGE_LITERALS)

    def page():
        channel = HTTPOutputChannel()
        for literal in _PAGE_LITERALS:
            channel.write(literal)
        return channel

    channel = benchmark(page)
    assert channel.body() == "".join(_PAGE_LITERALS)
    assert all(type(chunk) is str for chunk in channel.chunks)


@pytest.mark.parametrize("email", ["pc@example.org", "o'brien@example.org"])
def test_sql_quote_of_plain_text(benchmark, email):
    """``sql_quote`` of a plain e-mail: one escape and one ``TaintedStr``
    carrying the constant ``SQLSanitized`` marker set."""
    benchmark.group = "taint-plain-floor"
    benchmark.extra_info["quote"] = "'" in email
    quoted = benchmark(sql_quote, email)
    assert quoted.plain() == email.replace("'", "''")
    assert quoted.policies() == sql_quote(TaintedStr(email)).policies()
