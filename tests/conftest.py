"""Shared fixtures.

The class-number memo lives for the whole process, so every test starts
with it empty: no test sees what an earlier one counted, whatever order
the tests run in."""

import pytest

from eisq import classgroup


@pytest.fixture(autouse=True)
def cold_memos():
    classgroup._fundamental_class_number.cache_clear()
    yield
