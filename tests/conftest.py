import pytest
from hypothesis import settings

from ncgdirac.catalog import build_r4, build_s3, build_t2

from closed_forms import check_goldens


@pytest.fixture(scope="session")
def r4():
    return build_r4()


@pytest.fixture(scope="session")
def r4_classical():
    return build_r4(classical=True)


# no build compares a closed form: the session bundles pass them once here
@pytest.fixture(scope="session")
def s3():
    bundle = build_s3()
    check_goldens(bundle)
    return bundle


@pytest.fixture(scope="session")
def t2():
    bundle = build_t2()
    check_goldens(bundle)
    return bundle


# `pytest --hypothesis-profile=ci` runs the property tests harder; a plain run
# keeps hypothesis's defaults
settings.register_profile("ci", max_examples=500, deadline=None)
