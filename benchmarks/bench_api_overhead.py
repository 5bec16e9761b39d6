"""Facade-overhead microbenchmark.

The ``Resin`` facade wraps the Table-3 free functions; this benchmark tracks
what the wrapping costs so the fluent API stays effectively free.  Compare
groups with::

    pytest benchmarks/bench_api_overhead.py --benchmark-only \
        --benchmark-group-by=group

``policy_add`` / ``Resin.taint`` / ``BoundPolicy.on`` all bottom out in the
same range-map update; the facade should add no more than a method-dispatch
constant on top.
"""

import pytest

from repro.core.api import policy_add, policy_get
from repro.policies import UntrustedData
from repro.runtime_api import Resin


@pytest.fixture(scope="module")
def resin():
    return Resin()


@pytest.fixture(scope="module")
def policy():
    return UntrustedData("bench")


def test_policy_add_free_function(benchmark, policy):
    benchmark.group = "taint"
    benchmark(lambda: policy_add("payload string", policy))


def test_resin_taint(benchmark, resin, policy):
    benchmark.group = "taint"
    benchmark(lambda: resin.taint("payload string", policy))


def test_resin_bound_policy_on(benchmark, resin):
    benchmark.group = "taint"
    binder = resin.policy(UntrustedData, "bench")
    benchmark(lambda: binder.on("payload string"))


def test_policy_get_free_function(benchmark, policy):
    value = policy_add("payload string", policy)
    benchmark.group = "inspect"
    benchmark(lambda: policy_get(value))


def test_resin_policies(benchmark, resin, policy):
    value = resin.taint("payload string", policy)
    benchmark.group = "inspect"
    benchmark(lambda: resin.policies(value))


def test_channel_creation_without_environment(benchmark):
    from repro.channels.socketchan import SocketChannel
    benchmark.group = "channel"
    benchmark(lambda: SocketChannel("peer"))


def test_channel_creation_scoped_registry(benchmark, resin):
    benchmark.group = "channel"
    benchmark(lambda: resin.channel("socket", "peer"))
