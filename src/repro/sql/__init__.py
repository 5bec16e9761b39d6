"""SQL substrate: tokenizer, parser, planner, executor and secondary
indexes over the in-memory engine."""

from . import nodes
from .engine import Engine, Table
from .executor import Executor, Result, Row
from .indexes import SecondaryIndex
from .parser import Parser, parse
from .planner import Plan, Planner, bind_parameters, collect_params
from .tokenizer import Token, tokenize

__all__ = [
    "nodes",
    "Engine",
    "Result",
    "Row",
    "Table",
    "Parser",
    "parse",
    "Token",
    "tokenize",
    "Plan",
    "Planner",
    "Executor",
    "SecondaryIndex",
    "bind_parameters",
    "collect_params",
]
