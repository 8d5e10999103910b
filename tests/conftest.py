import pytest
from hypothesis import settings

from ncgdirac.catalog import build_r4, build_s3, build_t2


@pytest.fixture(scope="session")
def r4():
    return build_r4()


@pytest.fixture(scope="session")
def r4_classical():
    return build_r4(classical=True)


@pytest.fixture(scope="session")
def s3():
    return build_s3()


@pytest.fixture(scope="session")
def t2():
    return build_t2()


# `pytest --hypothesis-profile=ci` runs the property tests harder; a plain run
# keeps hypothesis's defaults
settings.register_profile("ci", max_examples=500, deadline=None)
