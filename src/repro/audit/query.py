"""After-the-fact queries over the audit ledger.

Everything here streams from :meth:`~repro.audit.ledger.AuditLedger.iter_events`
one segment at a time — the whole ledger is never loaded — and returns
generators (``events``) or small summaries (``provenance_of``), so forensic
questions stay cheap even against a ledger that has been ingesting for
days.

Policy matching accepts three spellings: a policy *instance* (matches
events whose serialized blob equals the instance's — same class and
fields), a policy *class*, or the class's (qualified or bare) name as a
string (both match every instance of that class).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..core.serialization import qualified_name, serialize_policy

__all__ = ["events", "provenance_of", "policy_matcher"]


def policy_matcher(policy: Any):
    """Build an ``event -> bool`` predicate for ``policy`` (see module doc)."""
    if policy is None:
        return lambda event: True
    if isinstance(policy, type):
        wanted_class = qualified_name(policy)

        def match_blob(blob: Dict[str, Any]) -> bool:
            cls = blob.get("class", "")
            return cls == wanted_class or cls.rsplit(".", 1)[-1] == policy.__name__

    elif isinstance(policy, str):

        def match_blob(blob: Dict[str, Any]) -> bool:
            cls = blob.get("class", "")
            return cls == policy or cls.rsplit(".", 1)[-1] == policy

    else:
        wanted = serialize_policy(policy)

        def match_blob(blob: Dict[str, Any]) -> bool:
            return blob == wanted

    def match_event(event: Dict[str, Any]) -> bool:
        return any(match_blob(blob) for blob in event.get("policies", ()))

    return match_event


def events(
    ledger: Any,
    *,
    policy: Any = None,
    principal: Optional[str] = None,
    request: Optional[int] = None,
    since: Optional[float] = None,
    kind: Optional[str] = None,
    verdict: Optional[str] = None,
    since_seq: int = 0,
) -> Iterator[Dict[str, Any]]:
    """Stream matching events in ledger order.

    ``policy`` matches per :func:`policy_matcher`; ``principal`` and
    ``request`` match the attributed user / request id exactly; ``since``
    is a wall-clock lower bound (``event["ts"] >= since``); ``kind`` /
    ``verdict`` match the event kind (``"export"``, ``"declassify"``,
    ``"fs.deny"``, ``"policy_dropped"``, or any other kind an older ledger
    holds) and decision (``"allow"`` / ``"deny"``).
    """
    match_policy = policy_matcher(policy)
    for event in ledger.iter_events(since_seq=since_seq):
        if kind is not None and event.get("kind") != kind:
            continue
        if verdict is not None and event.get("verdict") != verdict:
            continue
        if principal is not None and event.get("principal") != principal:
            continue
        if request is not None and event.get("request") != request:
            continue
        if since is not None and event.get("ts", 0) < since:
            continue
        if not match_policy(event):
            continue
        yield event


#: Event kinds that mean "data carrying the policy actually crossed a
#: boundary": allowed exports and explicit declassifications.  Denied
#: exports are *attempts* — they show up in ``events(verdict="deny")`` but
#: not in a provenance chain.
_EXPORT_KINDS = ("export", "declassify")


def provenance_of(ledger: Any, policy: Any) -> List[Dict[str, Any]]:
    """The provenance chain for ``policy``: one entry per request that
    exported (or declassified) data carrying it, in first-export order.

    Each entry is ``{"request", "principal", "routes", "first_ts",
    "last_ts", "events"}`` — ``events`` counts that request's matching
    boundary crossings.  Requestless crossings (no request in flight)
    aggregate under ``request=None``.
    """
    match_policy = policy_matcher(policy)
    chain: List[Dict[str, Any]] = []
    by_request: Dict[Any, Dict[str, Any]] = {}
    for event in ledger.iter_events():
        if event.get("kind") not in _EXPORT_KINDS:
            continue
        if event.get("verdict") != "allow":
            continue
        if not match_policy(event):
            continue
        request = event.get("request")
        entry = by_request.get(request)
        if entry is None:
            entry = {
                "request": request,
                "principal": event.get("principal"),
                "routes": [],
                "first_ts": event.get("ts"),
                "last_ts": event.get("ts"),
                "events": 0,
            }
            by_request[request] = entry
            chain.append(entry)
        route = event.get("route")
        if route is not None and route not in entry["routes"]:
            entry["routes"].append(route)
        entry["last_ts"] = event.get("ts", entry["last_ts"])
        entry["events"] += 1
    return chain
