"""repro — a Python reproduction of RESIN (SOSP 2009).

RESIN lets programmers specify application-level *data flow assertions* using
three mechanisms: policy objects attached to data, runtime data tracking that
propagates those policies, and filter objects that define data flow
boundaries where assertions are checked.

Quickstart (the fluent, environment-scoped facade)::

    from repro import PasswordPolicy, Resin

    resin = Resin()
    password = resin.taint("s3cret", PasswordPolicy("u@example.org"))
    resin.mail.send(to="u@example.org", subject="reminder",
                    body="your password is " + password)  # allowed
    with resin.request(user="someone@else.org") as http:
        http.write(password)                              # raises

Everything a ``Resin`` does is scoped to its own ``Environment`` — two
tenants in one process never share filter state.  See ``docs/API.md``.
"""

from .core import (AccessDenied, DeclassifyFilter, DefaultFilter,
                   DisclosureViolation, Filter, FilterChain, FilterContext,
                   FilterError, FilterRegistry, InjectionViolation,
                   MergeError, OutputBuffer, Policy, PolicySet,
                   PolicyViolation, RequestContext, ResinError,
                   ScriptInjectionViolation, check_export, current_request,
                   filter_of, guard_function, has_policy, policy_add,
                   policy_get, policy_remove, register_policy_class, taint,
                   untaint)
from .policies import (ACL, AuthenticData, CodeApproval, HTMLSanitized,
                       JSONSanitized, PagePolicy, PasswordPolicy,
                       ReadAccessPolicy, SecretPolicy, SQLSanitized,
                       UntrustedData)
from .tracking import (RangeMap, TaintedBytes, TaintedFloat, TaintedInt,
                       TaintedStr, concat, interpolate, policies_of,
                       taint_bytes, taint_float, taint_int, taint_str,
                       to_tainted_str)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Policy", "PolicySet", "Filter", "DefaultFilter", "DeclassifyFilter",
    "FilterChain", "FilterContext", "OutputBuffer",
    "policy_add", "policy_remove", "policy_get", "has_policy", "taint",
    "untaint", "check_export", "guard_function", "filter_of",
    "register_policy_class",
    # scoped registry + fluent facade (the supported runtime API)
    "FilterRegistry", "Resin",
    # per-request state + concurrent dispatch
    "RequestContext", "current_request", "AsyncDispatcher",
    # exceptions
    "ResinError", "PolicyViolation", "AccessDenied", "DisclosureViolation",
    "InjectionViolation", "ScriptInjectionViolation", "MergeError",
    "FilterError",
    # policies
    "PasswordPolicy", "SecretPolicy", "PagePolicy", "ReadAccessPolicy",
    "ACL", "UntrustedData", "SQLSanitized", "HTMLSanitized", "JSONSanitized",
    "AuthenticData", "CodeApproval",
    # tracking
    "TaintedStr", "TaintedBytes", "TaintedInt", "TaintedFloat", "RangeMap",
    "taint_str", "taint_bytes", "taint_int", "taint_float", "policies_of",
    "to_tainted_str", "concat", "interpolate",
    # environment + facade (imported lazily, see below)
    "Environment",
]


def __getattr__(name):
    # Environment / Resin pull in every substrate; import them lazily so
    # that ``import repro`` stays cheap for users who only need the core API.
    if name == "Environment":
        from .environment import Environment
        return Environment
    if name == "Resin":
        from .runtime_api import Resin
        return Resin
    if name == "AsyncDispatcher":
        from .server.async_dispatcher import AsyncDispatcher
        return AsyncDispatcher
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
