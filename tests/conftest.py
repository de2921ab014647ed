import pytest

from superhopf import load_session, polynomial_presentation


@pytest.fixture(scope="session")
def sess_u():
    return load_session("pl11")


@pytest.fixture(scope="session")
def sess_ubar():
    return load_session("pl11-bosonized")


@pytest.fixture(scope="session")
def sess_bbar():
    return load_session("b-bosonized")


@pytest.fixture(scope="session")
def kxy():
    return polynomial_presentation(["x", "y"])


@pytest.fixture(scope="session")
def ubar(sess_ubar):
    return sess_ubar.pres


@pytest.fixture(scope="session")
def bos(sess_ubar):
    return sess_ubar.bos
