import pytest

from geodesic.enumeration import enumerate_minimal_nonmetric


@pytest.fixture(scope="session")
def enumeration_n6():
    """The complete n=6 enumeration, run once and shared (no time budget)."""
    return enumerate_minimal_nonmetric(6)
