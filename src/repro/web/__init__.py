"""Web substrate: requests, responses, sessions, routing and sanitizers."""

from .app import WebApplication
from .request import Request
from .response import Response
from .routing import (
    CatchViolationsMiddleware,
    MethodNotAllowed,
    Middleware,
    RequestLogMiddleware,
    Route,
    RouteMatch,
    Router,
    ScopedMiddleware,
    SessionMiddleware,
    UntrustedInputMiddleware,
)
from .sanitize import html_escape, json_encode, sql_quote
from .session import Session, SessionStore

__all__ = [
    "WebApplication",
    "Request",
    "Response",
    "Router",
    "Route",
    "RouteMatch",
    "MethodNotAllowed",
    "Middleware",
    "ScopedMiddleware",
    "RequestLogMiddleware",
    "SessionMiddleware",
    "UntrustedInputMiddleware",
    "CatchViolationsMiddleware",
    "Session",
    "SessionStore",
    "sql_quote",
    "html_escape",
    "json_encode",
]
