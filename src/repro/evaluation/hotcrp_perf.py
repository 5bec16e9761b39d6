"""Experiment E5: HotCRP application performance (Section 7.1).

The paper measures the time to generate the paper-view page for a PC member
— title and abstract shown, the (anonymous) author list suppressed via the
output-buffering mechanism — with an unmodified interpreter (66 ms) and with
RESIN (88 ms), a 33 % CPU overhead.

``HotCRPPageWorkload`` builds the two configurations of the same site and
exposes ``generate_page()`` as the timed unit of work; the benchmark reports
the measured overhead ratio next to the paper's 1.33×.  The RESIN
configuration re-attaches every stored policy on each read, so the page pays
policy persistence, propagation and export checks, as in the paper.
"""

from __future__ import annotations



from ..apps.hotcrp import HotCRP
from ..environment import Environment

#: Overhead the paper reports for this workload (88 ms / 66 ms).
PAPER_OVERHEAD_RATIO = 88.0 / 66.0


class HotCRPPageWorkload:
    """One configuration (with or without RESIN) of the Section 7.1 page."""

    def __init__(self, use_resin: bool, paper_id: int = 1,
                 pc_member: str = "pc@example.org", population: int = 0):
        self.use_resin = use_resin
        self.paper_id = paper_id
        self.pc_member = pc_member
        #: Extra accounts/papers/reviews seeded around the measured paper —
        #: at 0 the site matches the paper's minimal configuration; larger
        #: populations exercise the planner's index lookups on the page's
        #: hot queries (users by email, papers by id, reviews by paper).
        self.population = population
        self.site = self._build_site()

    def _build_site(self) -> HotCRP:
        # The unmodified configuration runs on a substrate without policy
        # persistence (no policy columns, no serialization), mirroring the
        # paper's unmodified-interpreter baseline.
        site = HotCRP(Environment(persist_policies=self.use_resin),
                      use_resin=self.use_resin)
        site.register_user(self.pc_member, "pc-password", is_pc=True)
        site.register_user("chair@example.org", "chair-password", is_pc=True,
                           priv_chair=True)
        site.register_user("author@example.org", "author-password")
        site.submit_paper(
            self.paper_id,
            "Improving Application Security with Data Flow Assertions",
            ("We present a language runtime that lets programmers state "
             "data flow assertions and checks them on every path. ") * 12,
            ["author@example.org", "second@example.org"],
            anonymous=True)
        site.add_review(self.paper_id, self.pc_member,
                        "The mechanism is simple and the evaluation broad.",
                        released=False)
        for n in range(self.population):
            site.register_user(f"member{n}@example.org", f"pw-{n}",
                               is_pc=(n % 3 == 0))
            site.submit_paper(
                1000 + n, f"Population paper {n}",
                "Filler abstract for planner benchmarking. " * 4,
                [f"member{n}@example.org"], anonymous=(n % 2 == 0))
            site.add_review(1000 + n, self.pc_member, f"Review {n}.",
                            released=False)
        return site

    def generate_page(self) -> str:
        """The timed unit of work: one paper-view page for the PC member."""
        response = self.site.paper_page(self.paper_id, self.pc_member)
        return response.body()

    def page_size(self) -> int:
        return len(self.generate_page())


def build_workloads() -> dict:
    """The paper's two configurations, which render byte-identical
    pages."""
    return {
        "unmodified": HotCRPPageWorkload(use_resin=False),
        "resin": HotCRPPageWorkload(use_resin=True),
    }
