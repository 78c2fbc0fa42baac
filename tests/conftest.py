import pytest


@pytest.fixture
def fresh_transforms():
    """The Hankel-transform cache, emptied before and after the test.

    A transform built under a patched ``_degree`` or ``_leaf_count``, or a
    build that a patched LAPACK routine fails, stays inside its own test.
    """
    from biharm.rearrangement import _build_transform
    _build_transform.cache_clear()
    yield _build_transform
    _build_transform.cache_clear()
