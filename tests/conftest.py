"""Shared fixtures."""

import pytest

from uglmn import regular, superindex


@pytest.fixture
def fresh_expansions():
    """Empty expansion memos for the test, and none of their entries after:
    a test that plants a fault must neither read expansions made before it
    nor leave any behind.  That is every memo an expansion reads: the
    untwisted expansions, the twisted coordinates derived from them, the
    raising-block images, the word blocks, the lowering weights, the corner
    sums and the label-action templates."""
    memos = (  # the memos themselves, should the test patch their names
        regular._untwisted,
        regular._coords,
        regular._raised,
        regular._fe_blocks,
        regular._k_block,
        regular._lowering_weight,
        regular._template,
        superindex._corners,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def fresh_templates():
    """An empty label-action template memo for the test, and none of its
    entries after: a test that patches a helper the templates read must
    neither read templates built before the patch nor leave its own behind."""
    memo = regular._template  # the memo itself, should the test patch the name
    memo.cache_clear()
    yield
    memo.cache_clear()
