import pytest

from miflab import LimitGroup


@pytest.fixture(scope="session")
def default_group():
    """p = 2, identity class-bound rule c_n = n."""
    return LimitGroup(2, "n")


@pytest.fixture(scope="session")
def c12_group():
    """p = 2, c = (1, 2, 2, ...): every window group has class <= 2."""
    return LimitGroup(2, "1,2")


@pytest.fixture(scope="session")
def c11_group():
    """p = 2, c = (1, 1, ...): every window group is elementary abelian."""
    return LimitGroup(2, "1")


@pytest.fixture(scope="session")
def p3_group():
    return LimitGroup(3, "2")
