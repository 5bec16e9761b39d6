"""Persistent policy serialization.

RESIN stores policies persistently so that data flow assertions keep holding
when data round-trips through files and databases (Section 3.4.1).  Only the
policy's *class name and data fields* are serialized — never code — so a
programmer can evolve a policy class's ``export_check`` without migrating
stored policies.

The wire format is JSON: a policy is ``{"class": "<qualified name>",
"fields": {...}}`` and a byte/character range map is a list of
``[start, stop, [policy, ...]]`` segments.

Persistent filter objects (Section 3.2.3) use the same codec: class name
plus data fields, restored without ``__init__``.

Two deserialization modes exist.  The strict default raises
:class:`~repro.core.exceptions.SerializationError` on an unknown policy or
filter class.  The *tolerant* mode — used by the durable storage engine
(:mod:`repro.storage`) when recovering a store written by a different
deployment — loads the record as an opaque :class:`UnknownPolicy` or
:class:`UnknownFilter` placeholder instead: the data stays readable inside
the runtime, the original record is preserved verbatim for
re-serialization, and any attempt to *export* the data (or write under the
filter) is denied (an unknown assertion must fail closed, not vanish).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Type

from .context import as_context
from .exceptions import PolicyViolation, SerializationError
from .filter import Filter
from .policy import Policy
from .policyset import PolicySet, as_policyset
from ..tracking.ranges import RangeMap

__all__ = [
    "register_policy_class", "find_policy_class",
    "serialize_policy", "deserialize_policy",
    "serialize_policyset", "deserialize_policyset",
    "serialize_rangemap", "deserialize_rangemap",
    "dumps_policyset", "loads_policyset",
    "dumps_rangemap", "loads_rangemap",
    "encode_field", "decode_field", "UnknownPolicy",
    "serialize_filter", "deserialize_filter", "UnknownFilter",
]

#: Resolved class names, policy and filter classes alike (a hit is checked
#: against the base class the caller asked for).
_REGISTRY: Dict[str, type] = {}


def qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def register_policy_class(cls: Type[Policy]) -> Type[Policy]:
    """Register a policy class for de-serialization.

    May be used as a decorator.  Classes defined under the ``repro`` package
    are also found automatically by scanning ``Policy`` subclasses, so
    explicit registration is only needed for application policy classes whose
    module may not be imported at de-serialization time.
    """
    if not (isinstance(cls, type) and issubclass(cls, Policy)):
        raise TypeError("register_policy_class expects a Policy subclass")
    _REGISTRY[qualified_name(cls)] = cls
    _REGISTRY[cls.__qualname__] = cls
    return cls


def _scan_subclasses(base: type) -> Iterable[type]:
    for sub in base.__subclasses__():
        yield sub
        yield from _scan_subclasses(sub)


def _find_class(base: type, name: str) -> type:
    """Resolve a serialized class name back to a subclass of ``base``."""
    cls = _REGISTRY.get(name)
    if cls is not None and issubclass(cls, base):
        return cls
    for cls in _scan_subclasses(base):
        if qualified_name(cls) == name or cls.__qualname__ == name:
            _REGISTRY[name] = cls
            return cls
    raise SerializationError(f"unknown {base.__name__.lower()} class {name!r}")


def find_policy_class(name: str) -> Type[Policy]:
    """Resolve a serialized class name back to a policy class."""
    return _find_class(Policy, name)


def _stable_sort_key(encoded: Any) -> str:
    """A total order over already-encoded field values.

    Set members encode to heterogeneous JSON values (strings, numbers,
    tagged dicts for policies/tuples), which Python's ``sorted`` cannot
    compare directly — a set like ``{1, "a"}`` or a set of policies used to
    raise ``TypeError`` here.  The canonical JSON dump is a stable,
    deterministic key for any encoded value.
    """
    return json.dumps(encoded, sort_keys=True)


def encode_field(value: Any) -> Any:
    """Encode one serializable field value to a JSON-able form.

    Public counterpart of the policy field codec: the storage engine uses it
    to persist filter-object fields with exactly the policy rules (data
    only, never code).
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return {"__seq__": [encode_field(v) for v in value],
                "__tuple__": isinstance(value, tuple)}
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted((encode_field(v) for v in value),
                                  key=_stable_sort_key)}
    if isinstance(value, dict):
        return {"__dict__": {str(k): encode_field(v)
                             for k, v in value.items()}}
    if isinstance(value, Policy):
        return {"__policy__": serialize_policy(value)}
    raise SerializationError(
        f"policy field of type {type(value).__name__} is not serializable")


def decode_field(value: Any, *, tolerant: bool = False) -> Any:
    if isinstance(value, dict):
        if "__seq__" in value:
            seq = [decode_field(v, tolerant=tolerant)
                   for v in value["__seq__"]]
            return tuple(seq) if value.get("__tuple__") else seq
        if "__set__" in value:
            return set(decode_field(v, tolerant=tolerant)
                       for v in value["__set__"])
        if "__dict__" in value:
            return {k: decode_field(v, tolerant=tolerant)
                    for k, v in value["__dict__"].items()}
        if "__policy__" in value:
            return deserialize_policy(value["__policy__"], tolerant=tolerant)
    return value


class UnknownPolicy(Policy):
    """Placeholder for a stored policy whose class cannot be resolved.

    Recovery must not lose data because one record references a policy class
    this deployment does not ship (Section 3.4.1 stores class names, not
    code).  The placeholder keeps the original record verbatim — so
    re-serializing it round-trips losslessly and a later deployment that
    *does* know the class reads it back intact — and denies every export:
    an assertion we cannot evaluate has to fail closed.
    """

    def __init__(self, class_name: str, record: Optional[dict] = None):
        self.class_name = str(class_name)
        self.record = record if record is not None else {}

    def export_check(self, context: Mapping[str, Any]) -> None:
        raise PolicyViolation(
            f"data carries unknown policy class {self.class_name!r}; "
            "denying export (deny-by-default for unresolvable assertions)",
            policy=self, context=context)

    def __repr__(self) -> str:
        return f"UnknownPolicy({self.class_name!r})"


class UnknownFilter(Filter):
    """Placeholder for a stored filter whose class cannot be resolved.

    The filter counterpart of :class:`UnknownPolicy`: tolerant recovery must
    not drop an access-control boundary just because this deployment does
    not ship its class, so the placeholder stays attached and denies every
    write and namespace mutation (fail closed); reads pass through, matching
    :class:`~repro.security.assertions.WriteAccessFilter`'s shape.
    """

    def __init__(self, class_name: str, record: Optional[dict] = None):
        super().__init__()
        self.class_name = str(class_name)
        self.record = record if record is not None else {}

    def _deny(self, operation: str, path: str, context) -> None:
        raise PolicyViolation(
            f"path {path!r} is guarded by unknown filter class "
            f"{self.class_name!r}; denying {operation} (deny-by-default "
            "for unresolvable assertions)",
            context=context)

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        self._deny("write", self.context.get("path", ""), self.context)

    def check_mutation(self, operation: str, path: str, context) -> None:
        self._deny(operation, path, context)

    def __repr__(self) -> str:
        return f"UnknownFilter({self.class_name!r})"


_PLACEHOLDERS = (UnknownPolicy, UnknownFilter)


def _serialize_object(obj) -> Dict[str, Any]:
    """Class name + encoded ``serializable_fields()`` of a policy or filter."""
    if isinstance(obj, _PLACEHOLDERS):
        # Round-trip the original record: the placeholder never rewrites
        # what some other deployment stored.
        return {"class": obj.class_name,
                "fields": dict(obj.record.get("fields", {}))}
    fields = getattr(obj, "serializable_fields", None)
    if not callable(fields):
        raise SerializationError(
            f"{type(obj).__name__} does not support persistence "
            "(no serializable_fields)")
    return {
        "class": qualified_name(type(obj)),
        "fields": {key: encode_field(value)
                   for key, value in fields().items()},
    }


def _restore(base: type, placeholder: type, record: Dict[str, Any],
             tolerant: bool):
    """Re-create a ``base`` subclass instance from its serialized form.

    The object is created without invoking ``__init__`` and exactly the
    fields that were stored are restored.  An unknown class raises, or with
    ``tolerant=True`` yields ``placeholder`` holding the record verbatim.
    """
    try:
        name = record["class"]
    except KeyError as exc:
        raise SerializationError(
            f"malformed {base.__name__.lower()} record: {record!r}") from exc
    try:
        cls = _find_class(base, name)
    except SerializationError:
        if not tolerant:
            raise
        return placeholder(name, {"class": name,
                                  "fields": dict(record.get("fields", {}))})
    obj = cls.__new__(cls)
    for key, value in record.get("fields", {}).items():
        setattr(obj, key, decode_field(value, tolerant=tolerant))
    return obj


def serialize_policy(policy: Policy) -> Dict[str, Any]:
    """Serialize one policy to a JSON-able dict (class name + fields)."""
    return _serialize_object(policy)


def deserialize_policy(record: Dict[str, Any], *,
                       tolerant: bool = False) -> Policy:
    """Re-create a policy from its serialized form.

    The object is created without invoking ``__init__`` — exactly the fields
    that were stored are restored — so a policy class may change its
    constructor signature without breaking stored policies.

    With ``tolerant=True`` an unknown policy class yields an
    :class:`UnknownPolicy` placeholder instead of raising, so one stale
    record cannot make a whole store unrecoverable.
    """
    return _restore(Policy, UnknownPolicy, record, tolerant)


def serialize_filter(flt: Filter) -> Dict[str, Any]:
    """Serialize a persistent filter object (class name + data fields).

    Follows the policy protocol exactly: the filter must expose
    ``serializable_fields()`` and contain only data.  Filters that carry
    code (callable predicates) raise
    :class:`~repro.core.exceptions.SerializationError` — the durability
    layer skips those with the caveat that they must be re-attached at
    application start-up.
    """
    return _serialize_object(flt)


def deserialize_filter(record: Dict[str, Any], *,
                       tolerant: bool = False) -> Filter:
    """Re-create a persistent filter from its serialized form, like
    :func:`deserialize_policy` (the restored filter starts with an empty
    context).  With ``tolerant=True`` an unknown class yields a fail-closed
    :class:`UnknownFilter` instead of raising.
    """
    flt = _restore(Filter, UnknownFilter, record, tolerant)
    if not hasattr(flt, "context"):
        flt.context = as_context(None)
    return flt


def serialize_policyset(policies) -> List[Dict[str, Any]]:
    return [serialize_policy(p) for p in as_policyset(policies)]


def deserialize_policyset(records: Iterable[Dict[str, Any]], *,
                          tolerant: bool = False) -> PolicySet:
    """Rehydrate a policy set.  Construction interns (see
    :mod:`repro.core.policyset`), so deserializing the same provenance twice
    yields the *same* ``PolicySet`` instance — xattr and WAL recovery rebuild
    pointer-equal sets, which keeps the identity fast paths and the merge
    memo cache effective across restarts."""
    return PolicySet(deserialize_policy(r, tolerant=tolerant)
                     for r in records)


def serialize_rangemap(rangemap: RangeMap) -> Dict[str, Any]:
    return {
        "length": rangemap.length,
        "segments": [
            [start, stop, [serialize_policy(p) for p in policies]]
            for start, stop, policies in rangemap.to_segments()
        ],
    }


def deserialize_rangemap(record: Dict[str, Any], *,
                         tolerant: bool = False) -> RangeMap:
    return RangeMap.from_segments(
        record["length"],
        [(start, stop, [deserialize_policy(p, tolerant=tolerant)
                        for p in policies])
         for start, stop, policies in record.get("segments", [])])


def dumps_policyset(policies) -> str:
    """Serialize a policy set to a JSON string."""
    return json.dumps(serialize_policyset(policies), sort_keys=True)


def loads_policyset(text: Optional[str], *,
                    tolerant: bool = False) -> PolicySet:
    """De-serialize a policy set from a JSON string (None/empty → empty set)."""
    if not text:
        return PolicySet.empty()
    return deserialize_policyset(json.loads(text), tolerant=tolerant)


def dumps_rangemap(rangemap: RangeMap) -> str:
    return json.dumps(serialize_rangemap(rangemap), sort_keys=True)


def loads_rangemap(text: Optional[str], length: int = 0, *,
                   tolerant: bool = False) -> RangeMap:
    if not text:
        return RangeMap.empty(length)
    return deserialize_rangemap(json.loads(text), tolerant=tolerant)
