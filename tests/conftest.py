"""Shared fixtures."""

import pytest

from uglmn import regular


@pytest.fixture
def fresh_expansions():
    """An empty expansion memo for the test, and none of its entries after:
    a test that plants a fault must neither read expansions made before it
    nor leave any behind."""
    regular._untwisted.cache_clear()
    yield
    regular._untwisted.cache_clear()
