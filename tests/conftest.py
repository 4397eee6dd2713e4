import pytest

from heckeweights.scalars import ParameterPoint, Rat, admissible_point


@pytest.fixture
def point():
    """Small exact point, admissible at every size (Q > 0); the
    worked-example values."""
    return ParameterPoint(Rat(2), Rat(5))


@pytest.fixture
def point_frac():
    """A non-integer point, q < 1."""
    return ParameterPoint(Rat(1, 2), Rat(7, 3))


@pytest.fixture
def points():
    """A handful of deterministic admissible points for n <= 4."""
    return [admissible_point(4, seed) for seed in (0, 1, 2)]
