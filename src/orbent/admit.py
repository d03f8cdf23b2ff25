"""Admissibility diagnostics for semimetrics on sampled measure spaces.

Three independent signals, each read off the one value matrix of a sample:
the trace curve, within-cell means of the matrix over finer and finer dyadic
boxes (``dyadic_cells``); the fraction of points whose eps-ball captures
sample mass; and the share of disjoint blocks of n sample points that
contain a large mutually separated index set.  ``admissibility_report``
records them on its caller's sample and matrix; no verdict reads them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynsys import Record, holds_symbols
from .errors import ParameterError, SizeError
from .semimetric import DistanceMatrix, _coords, dyadic_cells

# separated-set level and trace-curve box counts (powers of 2) of every report
SEPARATION_C = 0.4
TRACE_SCHEDULE = (2, 4, 8, 16, 32)
# points per block of the separated-set test
PC_N = 32
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
    ``separated`` must be exactly symmetric, as ``values > eps`` or
    ``values >= c`` of a :class:`~orbent.semimetric.DistanceMatrix` is: a
    joining index's row, contiguous in C order, stands for its column.
    """
    candidates = np.ones(separated.shape[0], dtype=bool)
    size = 0
    for i in range(separated.shape[0]):
        if candidates[i]:
            size += 1
            candidates &= separated[i]
    return size


def random_matrix_test(matrix: DistanceMatrix, n: int) -> float:
    """Share of blocks of n sample points whose first-fit separated set
    (``greedy_separated_size``) holds ceil(c*n) indices pairwise at distance
    >= c, with c = ``SEPARATION_C``.

    The blocks are the first floor(m/n) disjoint runs of n consecutive points
    of the matrix's m-point sample, and the points left over are not read;
    when m < n, n is m and the one block is the whole sample.  Sample points
    are i.i.d., so each block's matrix, a diagonal block of ``matrix``, is
    that of an independent n-point draw.  The largest separated set is at
    least the first-fit one, so the share is a lower bound on the
    probability of the event.  When c*n <= 1 the event is vacuous: share 1.
    """
    if n < 2:
        raise ParameterError("need at least two points per block")
    values = matrix.values
    n = min(n, len(values))
    required = math.ceil(SEPARATION_C * n)
    if required <= 1:
        return 1.0
    starts = range(0, len(values) - n + 1, n)
    hits = sum(greedy_separated_size(values[a:a + n, a:a + n] >= SEPARATION_C) >= required
               for a in starts)
    return hits / len(starts)


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class AdmissibilityReport(Record):
    """The three diagnostics of one value matrix at eps and separation level
    c, and its mean off-diagonal value; no trace curve on symbol windows."""

    ball_mass_fraction: float
    pc_probability: float
    trace_curve: list[TracePoint]
    empirical_l1: float
    eps: float
    c: float


def admissibility_report(sample: np.ndarray, matrix: DistanceMatrix, *,
                         eps: float) -> AdmissibilityReport:
    """All three diagnostics of a sample's value matrix, the ball mass at
    eps and the separated-set test on blocks of ``PC_N`` points.  The
    diagonal is exactly zero, so the sum over all entries is the sum off it."""
    values = matrix.values
    ball = ball_mass_test(matrix, eps)
    pc = random_matrix_test(matrix, PC_N)
    m = values.shape[0]
    l1 = float(values.sum() / (m * (m - 1)))
    curve = [] if holds_symbols(sample) else trace_from_matrix(matrix, sample)
    return AdmissibilityReport(
        ball_mass_fraction=ball, pc_probability=pc, trace_curve=curve,
        empirical_l1=l1, eps=eps, c=SEPARATION_C,
    )
