"""Shared fixtures.

The class-number and level-lattice memos live for the whole process, so
every test starts with both empty: no test sees what an earlier one
counted or built, whatever order the tests run in."""

import pytest

from eisq import classgroup, etacusp


@pytest.fixture(autouse=True)
def cold_memos():
    classgroup._fundamental_class_number.cache_clear()
    etacusp._lattice_generators.cache_clear()
    yield
