"""Shared fixtures: small structures reused across test modules."""

import pytest
from hypothesis import settings

from mlw.models import (KFamily, KFunction, build_M, build_N, build_N2,
                        build_N3, build_Projection)

# No per-example deadline: on a small shared host one example's wall time
# drifts too much for a deadline to separate slow code from a busy machine.
settings.register_profile("mlw", deadline=None)
settings.load_profile("mlw")


@pytest.fixture(scope="session")
def n22():
    return build_N(2, 2)


@pytest.fixture(scope="session")
def n33():
    return build_N(3, 3)


@pytest.fixture(scope="session")
def n2_small():
    return build_N2(3, 3)


@pytest.fixture(scope="session")
def n3_small():
    return build_N3(3, 3)


@pytest.fixture(scope="session")
def proj_small():
    return build_Projection(2, 2)


@pytest.fixture(scope="session")
def m_small():
    return build_M(3, 4)


@pytest.fixture(scope="session")
def star_family():
    """Two-member coloured family: one star function (value 2 on a single
    level-2 support node, base 4) and the constant-base function."""
    star = ((("p", 2, 0), ("p", 1, 0)), 2)
    return KFamily(4, (KFunction((star,)), KFunction()))
