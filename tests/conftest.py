"""Shared fixtures.

The class-number memo, the prime-class-order memo, the two sigma-table
memos and the sieve that form enumeration keeps live for the whole
process, so every test starts with all five empty: no test sees what an
earlier one computed, whatever order the tests run in."""

import pytest

from eisq import classgroup, descent, modforms


@pytest.fixture(autouse=True)
def cold_memos():
    classgroup._fundamental_class_number.cache_clear()
    classgroup._kept.clear()
    descent._prime_class_order.cache_clear()
    modforms._sigma_table.cache_clear()
    modforms._pair_sigma_table.cache_clear()
    yield
