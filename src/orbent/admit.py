"""Admissibility diagnostics for semimetrics on sampled measure spaces.

Three independent signals: the trace curve, within-cell means of the value
matrix over finer and finer dyadic boxes (``dyadic_cells``); the fraction of
points whose eps-ball captures sample mass; and the frequency with which n
random points contain a large mutually separated index set.  A report
aggregates them into a verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dynsys import Record, SystemSpec, derive_rng, holds_symbols, sample_points
from .errors import ParameterError, SizeError
from .semimetric import DistanceMatrix, Semimetric, _coords, distance_matrix, dyadic_cells

# verdict thresholds; finite-sample calibration, not sharp constants
ADMISSIBLE_BALL_MASS = 0.9
DEGENERATE_BALL_MASS = 0.1
ADMISSIBLE_PC = 0.1
DEGENERATE_PC = 0.9
TRACE_DROP_FACTOR = 0.5
TRACE_L1_FACTOR = 0.1
# separated-set level and trace-curve box counts (powers of 2) of every report
SEPARATION_C = 0.4
TRACE_SCHEDULE = (2, 4, 8, 16, 32)
# points per separated-set trial and trials: of a base report, and of each
# seed's limit report on the largest-n average
PC_N, PC_TRIALS = 64, 50
LIMIT_PC_N, LIMIT_PC_TRIALS = 32, 20
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


def trace_from_matrix(matrix: DistanceMatrix, sample: np.ndarray) -> list[TracePoint]:
    """Trace curve of a value matrix on ``sample`` over the dyadic boxes of
    each n of ``TRACE_SCHEDULE``, cut by ``dyadic_cells``.

    A point is the mass-weighted mean of the within-cell pair means.  Cells
    with fewer than two points are skipped and the remaining masses
    renormalized; a point is flagged when more than 10% of cells drop out.
    The curve ends before the first n at which no cell holds two points: the
    boxes of a larger n refine those of a smaller one, so no later n keeps a
    cell either.  A curve decreasing toward zero is evidence of admissibility.
    """
    values = matrix.values
    coords = _coords(sample)
    curve = []
    for n in TRACE_SCHEDULE:
        cells = dyadic_cells(coords, n.bit_length() - 1)
        sizes = np.bincount(cells, minlength=n)
        kept = [i for i in range(n) if sizes[i] >= 2]
        skipped = n - len(kept)
        if not kept:
            if not curve:
                raise SizeError(f"all {n} cells have fewer than two points")
            break
        masses = sizes[kept] / sample.shape[-2]
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


def ball_mass_test(matrix: DistanceMatrix, eps: float) -> float:
    """Fraction of points whose closed eps-ball captures another sample point."""
    values = matrix.values
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
    ``separated`` must be exactly symmetric, as ``values > eps`` of a
    :class:`~orbent.semimetric.DistanceMatrix` or ``pairwise >= c`` is: a
    joining index's row, contiguous in C order, stands for its column.
    """
    candidates = np.ones(separated.shape[0], dtype=bool)
    size = 0
    for i in range(separated.shape[0]):
        if candidates[i]:
            size += 1
            candidates &= separated[i]
    return size


def random_matrix_test(
    metric: Semimetric, system: SystemSpec, n: int, trials: int, seed: int,
) -> float:
    """Frequency over ``trials`` draws of n i.i.d. points that the first-fit
    separated set (``greedy_separated_size``) holds ceil(c*n) indices pairwise
    at distance >= c, with c = ``SEPARATION_C``.

    One ``system.sample`` call on ``derive_rng(seed, 977)`` draws the points
    of every trial, trials * n of them, reshaped to (trials, n, ...), and one
    ``metric.pairwise`` call, one orbit pass for an average, evaluates every
    trial; a value depends only on its pair, so each trial's matrix is the
    one its own points would give.  On a shift the draw's windows hold only
    the ``metric.symbols_read(horizon)`` symbols the metric can read, so the
    frequency does not depend on how many symbols the system stores.

    The largest separated set is at least as large as the first-fit one, so
    the frequency is a lower bound on the probability of the event.  When
    c*n <= 1 the event is vacuous and the frequency is 1.
    """
    if n < 2:
        raise ParameterError("need at least two points per trial")
    if trials < 1:
        raise ParameterError("need at least one trial")
    required = max(1, math.ceil(SEPARATION_C * n))
    if required <= 1:
        return 1.0
    if system.is_symbolic:  # a shift stores one symbol at least
        system = replace(system, horizon=max(1, metric.symbols_read(system.horizon)))
    drawn = system.sample(trials * n, derive_rng(seed, 977))
    separated = metric.pairwise(drawn.reshape(trials, n, -1)) >= SEPARATION_C
    hits = sum(greedy_separated_size(trial) >= required for trial in separated)
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
    system: SystemSpec, metric: Semimetric, *, m: int, seed: int, eps: float,
) -> AdmissibilityReport:
    """Run all three diagnostics on one (system, metric) pair, with ``PC_TRIALS``
    separated-set trials of ``PC_N`` points.  The separated-set draw runs
    before the value matrix is formed, so the two are never held at once."""
    sample = sample_points(system, m, seed)
    pc = random_matrix_test(metric, system, PC_N, PC_TRIALS, seed)
    return matrix_report(sample, distance_matrix(metric, sample), eps=eps, pc=pc)


def matrix_report(
    sample: np.ndarray, matrix: DistanceMatrix, *, eps: float, pc: float,
) -> AdmissibilityReport:
    """The diagnostics of ``admissibility_report`` on a sample and its value
    matrix, with ``pc`` the separated-set frequency that ``random_matrix_test``
    gave.  The diagonal is exactly zero, so the sum over all entries is the
    sum off it."""
    values = matrix.values
    ball = ball_mass_test(matrix, eps)
    m = values.shape[0]
    l1 = float(values.sum() / (m * (m - 1)))
    curve: list[TracePoint] = []
    trace_ok: Optional[bool] = None
    if not holds_symbols(sample):
        curve = trace_from_matrix(matrix, sample)
        trace_ok = trace_evidence(curve, l1)
    return AdmissibilityReport(
        ball_mass_fraction=ball, pc_probability=pc, trace_curve=curve,
        trace_ok=trace_ok, empirical_l1=l1, eps=eps, c=SEPARATION_C,
        verdict=combine_verdict(ball, pc, trace_ok),
    )
