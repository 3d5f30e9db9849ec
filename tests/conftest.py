"""Session fixtures: the automata from fixtures/ parsed once; and a record of
the subset constructions a test starts."""

from __future__ import annotations

import pytest

from helpers import load_fixture
from treeca import transforms


@pytest.fixture(scope="session")
def bool2():
    return load_fixture("bool2.bta")


@pytest.fixture(scope="session")
def and1():
    return load_fixture("and1.bta")


@pytest.fixture(scope="session")
def abc():
    return load_fixture("abc.bta")


@pytest.fixture(scope="session")
def abc_codet():
    return load_fixture("abc_codet.bta")


@pytest.fixture(scope="session")
def star():
    return load_fixture("star.bta")


@pytest.fixture(scope="session")
def bool2r():
    return load_fixture("bool2r.tta")


@pytest.fixture
def subset_pools(monkeypatch):
    """Every subset construction started while the test runs, in order."""
    made = []

    class CountingPool(transforms._SubsetPool):
        def __init__(self, budget: int):
            super().__init__(budget)
            made.append(self)

    monkeypatch.setattr(transforms, "_SubsetPool", CountingPool)
    return made
