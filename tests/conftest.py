import pytest

from oracles import quiver_catalog


@pytest.fixture(scope="session")
def catalog_4v_6a():
    """Connected quivers, <= 4 vertices and <= 6 arrows, up to isomorphism."""
    return quiver_catalog(4, 6, connected=True)


@pytest.fixture(scope="session")
def catalog_3v_3a():
    return quiver_catalog(3, 3, connected=True)


@pytest.fixture(scope="session")
def catalog_2v_3a():
    return quiver_catalog(2, 3, connected=True)
