import pytest

from qscat.field import default_field
from qscat.linalg import FqSubspace
from qscat.rankcode import code_from_system
from qscat.rng import XorShift64Star
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
def U_G(F):
    """U_G = {(x, x^q, x^(q^2)) : x in F_{q^6}} at q = 2: r = 3, dim_q 6."""
    gens = [(t, F.frob(t, 1), F.frob(t, 2)) for t in F.f2_basis]
    return FqSubspace.span(F, 3, gens)


@pytest.fixture(scope="session")
def code(U1):
    return code_from_system(U1)


@pytest.fixture(scope="session")
def U_planted(F):
    """A q = 2 system that is not scattered: the F_2-span of (1, 0, 0, 0),
    (x, 0, 0, 0), (x^2, 0, 0, 0) lies in one F_64-point, and five seeded
    random vectors make it span F_64^4."""
    rng = XorShift64Star(2024)
    gens = [(1, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0)]
    gens += [tuple(F.random_element(rng) for _ in range(4)) for _ in range(5)]
    return FqSubspace.span(F, 4, gens)
