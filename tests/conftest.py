import itertools

import pytest

from rmcode.analysis import Analysis
from rmcode.gf import Field
from rmcode.polyring import GREVLEX, TermOrder
from rmcode.variety import PointSet, points_full_projective, projective_closure


@pytest.fixture(scope="session")
def F3():
    return Field(3)


@pytest.fixture(scope="session")
def F4():
    return Field(2, 2)


@pytest.fixture(scope="session")
def F5():
    return Field(5)


@pytest.fixture(scope="session")
def F9():
    return Field(3, 2)


def run_pipeline(X, order=GREVLEX):
    """The Analysis of X with its basis, Hilbert data and indicators built."""
    A = Analysis(X, order)
    A.gb, A.hd, A.isx
    return A


@pytest.fixture(scope="session")
def four_points(F3):
    """Complete-intersection quadruple in P^3 over F_3."""
    X = PointSet(F3, [[2, 2, 2, 1], [1, 1, 1, 1], [0, 1, 1, 1], [0, 2, 2, 1]])
    return run_pipeline(X)


@pytest.fixture(scope="session")
def five_points_socle(F3):
    """Gorenstein non-CI quintuple in P^3 over F_3."""
    X = PointSet(F3, [[1, 0, 2, 1], [1, 0, 1, 1], [0, 1, 2, 2], [0, 0, 1, 2], [0, 1, 1, 1]])
    return run_pipeline(X)


@pytest.fixture(scope="session")
def nine_points(F3):
    """Projective closure of the affine plane over F_3."""
    rows = [list(t) for t in itertools.product(range(3), repeat=2)]
    X = projective_closure(F3, rows)
    return run_pipeline(X)


@pytest.fixture(scope="session")
def five_points_frame(F3):
    """Coordinate frame plus a diagonal point in P^3 over F_3."""
    X = PointSet(F3, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1], [2, 2, 2, 1]])
    return run_pipeline(X)


@pytest.fixture(scope="session")
def ten_points(F3):
    """Ten points in P^2 over F_3 under GLex t3 > t2 > t1."""
    order = TermOrder("glex", (3, 2, 1))
    X = PointSet(
        F3,
        [[1, 0, 1], [1, 0, 0], [1, 0, 2], [1, 1, 0], [1, 1, 1],
         [1, 1, 2], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]],
    )
    return run_pipeline(X, order)


@pytest.fixture(scope="session")
def seven_points(F3):
    X = PointSet(
        F3,
        [[1, 0, 1], [1, 1, 1], [1, 1, 2], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]],
    )
    return run_pipeline(X)


@pytest.fixture(scope="session")
def plane_f3(F3):
    X = points_full_projective(3, F3)
    return run_pipeline(X)
