"""Every test starts with cold carrier caches and leaves none behind.

`enumerate_tableaux` keeps each (shape, flavor)'s tableaux, and
`perm_classes` each shape's Knuth word grid, for the life of the process.
A test that patches what builds them (`knuth_move`, `unbump`, `_syt_words`)
must see its patch run, and must not hand its mutant carriers to the tests
after it.
"""

import pytest

from tabkit import equivalence, tableaux

CARRIER_CACHES = (tableaux._enumerated, equivalence._knuth_grid)


@pytest.fixture(autouse=True)
def cold_carrier_caches():
    for cache in CARRIER_CACHES:
        cache.cache_clear()
    yield
    for cache in CARRIER_CACHES:
        cache.cache_clear()
