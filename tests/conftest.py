import contextlib
import os

import pytest

from orbitcodes import OrbitCodesError, make_field


def pytest_collection_modifyitems(config, items):
    # RUN_EXTENDED=1 enables the hours-scale checks without editing addopts
    if os.environ.get("RUN_EXTENDED"):
        config.option.markexpr = ""


@pytest.fixture
def fresh_census_cache(monkeypatch):
    """An empty census cache for one test, so its censuses walk afresh and
    leave nothing behind for other tests."""
    from orbitcodes import orbits
    monkeypatch.setattr(orbits, "_CYCLIC_CACHE", {})


@pytest.fixture(scope="session")
def f16():
    return make_field(2, 4)


@pytest.fixture(scope="session")
def f32():
    return make_field(2, 5)


@pytest.fixture(scope="session")
def f64():
    return make_field(2, 6)


@pytest.fixture(scope="session")
def f256():
    return make_field(2, 8)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


def data_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "..", "src", "orbitcodes", "data", name)


@contextlib.contextmanager
def refused(match: str):
    """The block raises OrbitCodesError itself, the CLI's exit 3 and not one
    of its subclasses, with a message that matches the pattern match."""
    with pytest.raises(OrbitCodesError, match=match) as excinfo:
        yield excinfo
    assert excinfo.type is OrbitCodesError
