import pytest

from qscat.field import default_field
from qscat.rankcode import code_from_system
from qscat.scatter import build_Us


@pytest.fixture(scope="session")
def F():
    """The q = 2 tower field GF(2^6)."""
    return default_field(1)


@pytest.fixture(scope="session")
def F8():
    """The q = 8 tower field GF(2^18) (h = 3)."""
    return default_field(3)


@pytest.fixture(scope="session")
def U1(F):
    return build_Us(F, 1)


@pytest.fixture(scope="session")
def code(U1):
    return code_from_system(U1)
