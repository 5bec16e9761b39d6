"""Shared test fixtures."""

import pytest

from repro.environment import Environment
from repro.runtime_api import Resin


@pytest.fixture
def env():
    """A fresh RESIN environment."""
    return Environment()


@pytest.fixture
def resin(env):
    """The fluent facade over a fresh environment."""
    return Resin(env)
