import numpy as np
import pytest

from orbent import (
    BernoulliShift,
    CircleRotation,
    Identity,
    PointSample,
)
from orbent.semimetric import CircleArc, DistanceMatrix, Euclidean1D, FirstSymbolCut


@pytest.fixture(scope="session")
def rotation():
    return CircleRotation()


@pytest.fixture(scope="session")
def identity():
    return Identity()


@pytest.fixture(scope="session")
def fair_shift():
    return BernoulliShift((0.5, 0.5), horizon=300)


@pytest.fixture(scope="session")
def euclid():
    return Euclidean1D()


@pytest.fixture(scope="session")
def arc():
    return CircleArc()


@pytest.fixture(scope="session")
def cut():
    return FirstSymbolCut()


def coords_sample(values) -> PointSample:
    """Hand-built 1-D coordinate sample (bypasses the seeded sampler)."""
    coords = np.asarray(values, dtype=float).reshape(-1, 1)
    return PointSample(coords=coords)


def matrix_from_points(values) -> DistanceMatrix:
    """|x - y| distance matrix of explicit 1-D points."""
    pts = np.asarray(values, dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    d = np.triu(d, 1)
    return DistanceMatrix(d + d.T)
