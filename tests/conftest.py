import importlib.util
from pathlib import Path

import numpy as np
import pytest

from orbent import (
    BernoulliShift,
    CircleRotation,
    Identity,
    admissibility_report,
    sample_points,
)
from orbent.semimetric import CircleArc, DistanceMatrix, Euclidean1D, FirstSymbolCut, distance_matrix


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


def coords_sample(values) -> np.ndarray:
    """Hand-built 1-D coordinate sample (bypasses the seeded sampler)."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


def matrix_from_points(values) -> DistanceMatrix:
    """|x - y| distance matrix of explicit 1-D points."""
    pts = np.asarray(values, dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    d = np.triu(d, 1)
    return DistanceMatrix(d + d.T)


def sample_report(system, metric, m, seed, eps=0.1):
    """``admissibility_report`` on the m-point sample of ``seed`` and its
    matrix under ``metric``, as a run makes its base report."""
    sample = sample_points(system, m, seed)
    return admissibility_report(sample, distance_matrix(metric, sample), eps=eps)


def load_script(name: str):
    """The module of ``scripts/<name>.py``; the scripts are no package."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
