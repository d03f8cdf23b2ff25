"""Admissibility diagnostics for semimetrics on sampled measure spaces.

Three independent signals: the trace curve, within-cell means of the value
matrix over finer and finer dyadic boxes (``dyadic_cells``); the fraction of
points whose eps-ball captures sample mass; and the frequency with which n
random points contain a large mutually separated index set.  A report
aggregates them into a verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynsys import PointSample, Record, SystemSpec, derive_rng, sample_points
from .errors import ParameterError, SizeError
from .semimetric import (
    MatrixLike, Semimetric, _coords, as_values, distance_matrix, dyadic_cells,
)

# verdict thresholds; finite-sample calibration, not sharp constants
ADMISSIBLE_BALL_MASS = 0.9
DEGENERATE_BALL_MASS = 0.1
ADMISSIBLE_PC = 0.1
DEGENERATE_PC = 0.9
TRACE_DROP_FACTOR = 0.5
TRACE_L1_FACTOR = 0.1
# separated-set level and trace-curve box counts of every report
SEPARATION_C = 0.4
TRACE_SCHEDULE = (2, 4, 8, 16, 32)
# fewest points the ball-mass test reads
MIN_BALL_MASS_POINTS = 16


# ---------------------------------------------------------------------------
# trace test


@dataclass(frozen=True)
class TracePoint(Record):
    """One point of the trace curve: mass-weighted mean of within-cell means."""

    n: int
    trace_over_n: float
    stderr: float
    cells_skipped: int
    flagged: bool


def trace_from_matrix(
    matrix: MatrixLike, sample: PointSample, n_schedule: Sequence[int],
) -> list[TracePoint]:
    """Trace curve of a value matrix on ``sample`` over the dyadic boxes of
    each n of the schedule (a power of 2), cut by ``dyadic_cells``.

    A point is the mass-weighted mean of the within-cell pair means.  Cells
    with fewer than two points are skipped and the remaining masses
    renormalized; a point is flagged when more than 10% of cells drop out.
    A curve decreasing toward zero is evidence of admissibility.
    """
    values = as_values(matrix)
    coords = _coords(sample)
    curve = []
    for n in n_schedule:
        n = int(n)
        level = n.bit_length() - 1
        if n < 1 or 2 ** level != n:
            raise ParameterError(f"dyadic partitioning needs a power of 2, got {n}")
        cells = dyadic_cells(coords, level)
        sizes = np.bincount(cells, minlength=n)
        kept = [i for i in range(n) if sizes[i] >= 2]
        skipped = n - len(kept)
        if not kept:
            raise SizeError(f"all {n} cells have fewer than two points")
        masses = sizes[kept] / sample.m
        weights = masses / masses.sum()
        trace = 0.0
        var_sum = 0.0
        for w, i in zip(weights, kept):
            idx = np.where(cells == i)[0]
            pairs = values[np.ix_(idx, idx)][np.triu_indices(idx.size, 1)]
            mean = float(pairs.mean())
            var = float(max(0.0, (pairs * pairs).mean() - mean * mean))
            trace += w * mean
            var_sum += w * w * var / pairs.size
        curve.append(TracePoint(
            n=n, trace_over_n=float(trace), stderr=float(math.sqrt(var_sum)),
            cells_skipped=skipped, flagged=skipped > 0.1 * n,
        ))
    return curve


# ---------------------------------------------------------------------------
# ball-mass test


def ball_mass_test(matrix: MatrixLike, eps: float) -> float:
    """Fraction of points whose closed eps-ball captures another sample point."""
    values = as_values(matrix)
    m = values.shape[0]
    if m < MIN_BALL_MASS_POINTS:
        raise ParameterError(
            f"ball-mass test needs at least {MIN_BALL_MASS_POINTS} points, got {m}")
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    neighbors = (values <= eps).sum(axis=1) - 1
    return float((neighbors >= 1).mean())


# ---------------------------------------------------------------------------
# separated-set (random distance matrix) test


def greedy_separated_size(separated: np.ndarray) -> int:
    """Size of the first-fit maximal index set whose pairs are all ``separated``.

    Index i joins when it is separated from every index chosen before it.
    """
    candidates = np.ones(separated.shape[0], dtype=bool)
    size = 0
    for i in range(separated.shape[0]):
        if candidates[i]:
            size += 1
            candidates &= separated[:, i]
    return size


def random_matrix_test(
    metric: Semimetric, system: SystemSpec, c: float, n: int, trials: int, seed: int,
) -> float:
    """Frequency over ``trials`` draws of n i.i.d. points that the first-fit
    separated set (``greedy_separated_size``) holds ceil(c*n) indices pairwise
    at distance >= c.

    The largest separated set is at least as large as the first-fit one, so
    the frequency is a lower bound on the probability of the event.  When
    c*n <= 1 the event is vacuous and the frequency is 1.
    """
    if not (0.0 < c < 1.0):
        raise ParameterError("separation level c must lie in (0, 1)")
    if n < 2:
        raise ParameterError("need at least two points per trial")
    if trials < 1:
        raise ParameterError("need at least one trial")
    required = max(1, math.ceil(c * n))
    if required <= 1:
        return 1.0
    hits = 0
    for t in range(trials):
        trial_seed = int(derive_rng(seed, 977, t).integers(0, 2 ** 62))
        sample = sample_points(system, n, trial_seed)
        if greedy_separated_size(metric.pairwise(sample) >= c) >= required:
            hits += 1
    return hits / trials

# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class AdmissibilityReport(Record):
    """Aggregated diagnostics with a calibrated three-way verdict."""

    ball_mass_fraction: float
    pc_probability: float
    trace_curve: list[TracePoint]
    trace_ok: Optional[bool]
    empirical_l1: float
    eps: float
    c: float
    verdict: str


def combine_verdict(
    ball_mass: float, pc_probability: float, trace_ok: Optional[bool]
) -> str:
    if ball_mass <= DEGENERATE_BALL_MASS or pc_probability >= DEGENERATE_PC:
        return "NotAdmissibleEvidence"
    if (
        ball_mass >= ADMISSIBLE_BALL_MASS
        and pc_probability <= ADMISSIBLE_PC
        and trace_ok is not False
    ):
        return "AdmissibleEvidence"
    return "Inconclusive"


def trace_evidence(points: Sequence[TracePoint], l1_norm: float) -> bool:
    """Curve dropped below half its start and below a tenth of the L1 norm."""
    first = points[0].trace_over_n
    last = points[-1].trace_over_n
    return last < TRACE_DROP_FACTOR * first and last < TRACE_L1_FACTOR * l1_norm


def admissibility_report(
    system: SystemSpec,
    metric: Semimetric,
    *,
    m: int = 1024,
    seed: int = 0,
    eps: float = 0.1,
    pc_n: int = 64,
    pc_trials: int = 50,
) -> AdmissibilityReport:
    """Run all three diagnostics on one (system, metric) pair."""
    sample = sample_points(system, m, seed)
    return matrix_report(
        system, metric, sample, distance_matrix(metric, sample), seed=seed, eps=eps,
        pc_n=pc_n, pc_trials=pc_trials,
    )


def matrix_report(
    system: SystemSpec,
    metric: Semimetric,
    sample: PointSample,
    matrix: MatrixLike,
    *,
    seed: int,
    eps: float,
    pc_n: int,
    pc_trials: int,
) -> AdmissibilityReport:
    """The diagnostics of ``admissibility_report`` on a sample and its value
    matrix under ``metric``, at separation level ``SEPARATION_C`` and over the
    ``TRACE_SCHEDULE`` boxes; the separated-set test draws its own points from
    ``seed``, so only that test evaluates ``metric``."""
    values = as_values(matrix)
    off = ~np.eye(values.shape[0], dtype=bool)
    l1 = float(values[off].mean())
    ball = ball_mass_test(values, eps)
    pc = random_matrix_test(metric, system, SEPARATION_C, pc_n, pc_trials, seed)
    curve: list[TracePoint] = []
    trace_ok: Optional[bool] = None
    if sample.coords is not None:
        curve = trace_from_matrix(values, sample, TRACE_SCHEDULE)
        trace_ok = trace_evidence(curve, l1)
    return AdmissibilityReport(
        ball_mass_fraction=ball, pc_probability=pc, trace_curve=curve,
        trace_ok=trace_ok, empirical_l1=l1, eps=eps, c=SEPARATION_C,
        verdict=combine_verdict(ball, pc, trace_ok),
    )
