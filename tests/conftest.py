import numpy as np
import pytest

import groupsobolev as gs


@pytest.fixture(scope="session")
def z2():
    return gs.make_group("cyclic", n=2)


@pytest.fixture(scope="session")
def z4():
    return gs.make_group("cyclic", n=4)


@pytest.fixture(scope="session")
def z12():
    return gs.make_group("cyclic", n=12)


@pytest.fixture(scope="session")
def s3():
    return gs.make_group("s3")


@pytest.fixture(scope="session")
def circle2():
    return gs.make_group("circle", band=2)


@pytest.fixture(scope="session")
def circle16():
    return gs.make_group("circle", band=16)


@pytest.fixture(scope="session")
def su2_1():
    return gs.make_group("su2", band=1)


@pytest.fixture(scope="session")
def su2_1h():
    return gs.make_group("su2", band=1, half_integers=True)


@pytest.fixture(scope="session")
def su2_2():
    return gs.make_group("su2", band=2)


@pytest.fixture(scope="session")
def su2_4():
    return gs.make_group("su2", band=4)


@pytest.fixture(scope="session")
def constant():
    """``constant(group, value)``: the coefficients of the function equal to
    the vector ``value`` everywhere, one trivial block."""

    def build(group, value):
        v = np.atleast_1d(np.asarray(value, dtype=complex))
        return gs.FourierCoefficients(group.window, v.size, {group.window.trivial: v.reshape(1, 1, -1)})

    return build


GROUP_FIXTURES = ("z4", "z12", "s3", "circle2", "circle16", "su2_2", "su2_1h")


@pytest.fixture(params=GROUP_FIXTURES)
def any_group(request):
    return request.getfixturevalue(request.param)
