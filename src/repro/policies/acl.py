"""Access-control-list policies.

``PagePolicy`` is the MoinMoin read-ACL assertion of Figure 5 (Data Flow
Assertion 4): a wiki page may flow out of the system only to a user on the
page's ACL.  ``ACL`` is the small reusable ACL structure the policies and the
filesystem write-access filters share.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Set

from ..core.exceptions import AccessDenied
from ..core.policy import Policy

#: Wildcard principal meaning "every user, including anonymous".
ALL_USERS = "All"

#: Principal meaning "any authenticated (non-anonymous) user".
KNOWN_USERS = "Known"

#: The anonymous principal.
ANONYMOUS = "anonymous"


class ACL:
    """A MoinMoin-style access control list.

    Maps principals (user names, ``All`` or ``Known``) to sets of rights
    (``'read'``, ``'write'``, ``'admin'``, …).  Immutable-ish value object:
    equality and hashing are defined over the entries so an ACL can live
    inside a policy's serializable fields.
    """

    def __init__(self, entries: Optional[Mapping[str, Iterable[str]]] = None):
        self.entries: Dict[str, tuple] = {
            principal: tuple(sorted(set(rights)))
            for principal, rights in (entries or {}).items()
        }

    @classmethod
    def allow_all(cls, rights: Iterable[str] = ("read",)) -> "ACL":
        return cls({ALL_USERS: tuple(rights)})

    @classmethod
    def parse(cls, text: str) -> "ACL":
        """Parse the compact ``"user:right,right user2:right"`` syntax used
        by the wiki application and by tests."""
        entries: Dict[str, Set[str]] = {}
        for clause in text.split():
            principal, _, rights = clause.partition(":")
            if not principal:
                continue
            entries.setdefault(principal, set()).update(
                right for right in rights.split(",") if right)
        return cls(entries)

    def may(self, user: Optional[str], right: str) -> bool:
        """True if ``user`` holds ``right`` under this ACL."""
        user = user or ANONYMOUS
        rights = set(self.entries.get(user, ()))
        if user != ANONYMOUS:
            rights.update(self.entries.get(KNOWN_USERS, ()))
        rights.update(self.entries.get(ALL_USERS, ()))
        return right in rights

    def grant(self, principal: str, *rights: str) -> "ACL":
        """Return a new ACL with ``rights`` added for ``principal``."""
        entries = {p: set(r) for p, r in self.entries.items()}
        entries.setdefault(principal, set()).update(rights)
        return ACL(entries)

    def revoke(self, principal: str, *rights: str) -> "ACL":
        entries = {p: set(r) for p, r in self.entries.items()}
        if principal in entries:
            entries[principal] -= set(rights)
            if not entries[principal]:
                del entries[principal]
        return ACL(entries)

    def principals(self) -> Set[str]:
        return set(self.entries)

    def to_dict(self) -> Dict[str, list]:
        return {principal: list(rights)
                for principal, rights in self.entries.items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[str]]) -> "ACL":
        return cls(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ACL):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.entries.items())))

    def __repr__(self) -> str:
        return f"ACL({self.entries!r})"


class PagePolicy(Policy):
    """Wiki page *p* may flow out only to a user on *p*'s read ACL
    (Figure 5)."""

    ENFORCED_TYPES = frozenset({"http", "socket", "email"})

    def __init__(self, acl: ACL, page_name: Optional[str] = None):
        self.acl = acl
        self.page_name = page_name

    def serializable_fields(self) -> Dict[str, Any]:
        return {"acl": self.acl.to_dict(), "page_name": self.page_name}

    def __setattr__(self, key, value):
        # De-serialization restores ``acl`` as a plain dict; rebuild the ACL.
        if key == "acl" and isinstance(value, Mapping):
            value = ACL.from_dict(value)
        super().__setattr__(key, value)

    def export_check(self, context: Mapping[str, Any]) -> None:
        if context.get("type") not in self.ENFORCED_TYPES:
            return
        user = context.get("user") or context.get("email")
        if self.acl.may(user, "read"):
            return
        raise AccessDenied(
            f"user {user!r} may not read page {self.page_name!r}",
            policy=self, context=context)


class ReadAccessPolicy(Policy):
    """Generic "only these users may receive this datum" policy.

    Used by the phpBB forum-message assertion and the HotCRP paper/author
    assertions, where the readable set is computed from application data
    structures rather than a wiki ACL.
    """

    ENFORCED_TYPES = frozenset({"http", "socket", "email"})

    def __init__(self, allowed_users: Iterable[str], label: str = "",
                 allow_chair: bool = False):
        self.allowed_users = frozenset(str(u) for u in allowed_users)
        self.label = label
        self.allow_chair = allow_chair

    def export_check(self, context: Mapping[str, Any]) -> None:
        if context.get("type") not in self.ENFORCED_TYPES:
            return
        user = context.get("user") or context.get("email")
        if user is not None and str(user) in self.allowed_users:
            return
        if self.allow_chair and context.get("priv_chair"):
            return
        raise AccessDenied(
            f"user {user!r} lacks read access to {self.label or 'data'}",
            policy=self, context=context)
