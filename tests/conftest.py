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


@pytest.fixture
def fresh_templates():
    """An empty label-action template memo for the test, and none of its
    entries after: a test that patches a helper the templates read must
    neither read templates built before the patch nor leave its own behind."""
    memo = regular._template  # the memo itself, should the test patch the name
    memo.cache_clear()
    yield
    memo.cache_clear()
