"""Core RESIN abstractions: policies, policy sets, filters, the public API,
runtime boundary machinery and persistent-policy serialization."""

from .api import has_policy, policy_add, policy_get, policy_remove, taint, untaint
from .context import FilterContext, as_context
from .exceptions import (AccessDenied, ChannelError, DisclosureViolation,
                         FileSystemError, FilterError, HTTPError,
                         InjectionViolation, MergeError, PolicyViolation,
                         ResinError, ScriptInjectionViolation,
                         SerializationError, SQLError)
from .filter import (DeclassifyFilter, DefaultFilter, Filter, FilterChain,
                     check_export, filter_of, guard_function)
from .policy import Policy
from .policyset import PolicySet, as_policyset
from .registry import CHANNEL_TYPES, FilterRegistry, default_filter
from .locking import OrderedLockRegistry
from .request_context import (RequestContext, current_request,
                              request_scoped_context)
from .services import ServiceRegistry, resolve_service
from .runtime import OutputBuffer
from .serialization import (deserialize_policy, deserialize_policyset,
                            deserialize_rangemap, dumps_policyset,
                            dumps_rangemap, loads_policyset, loads_rangemap,
                            register_policy_class, serialize_policy,
                            serialize_policyset, serialize_rangemap)

__all__ = [
    # policies
    "Policy", "PolicySet", "as_policyset",
    # API (Table 3)
    "policy_add", "policy_remove", "policy_get", "has_policy", "taint",
    "untaint",
    # filters
    "Filter", "DefaultFilter", "DeclassifyFilter", "FilterChain",
    "guard_function", "filter_of", "FilterContext", "as_context",
    # registry
    "FilterRegistry", "default_filter", "CHANNEL_TYPES",
    # request context
    "RequestContext", "current_request", "request_scoped_context",
    # application services
    "ServiceRegistry", "resolve_service",
    # ordered locking (shared by Engine and FileSystem)
    "OrderedLockRegistry",
    # runtime
    "OutputBuffer", "check_export",
    # serialization
    "register_policy_class", "serialize_policy", "deserialize_policy",
    "serialize_policyset", "deserialize_policyset", "serialize_rangemap",
    "deserialize_rangemap", "dumps_policyset", "loads_policyset",
    "dumps_rangemap", "loads_rangemap",
    # exceptions
    "ResinError", "PolicyViolation", "AccessDenied", "DisclosureViolation",
    "InjectionViolation", "ScriptInjectionViolation", "MergeError",
    "FilterError", "ChannelError", "SerializationError", "SQLError",
    "FileSystemError", "HTTPError",
]
