"""Admissibility diagnostics for semimetrics on sampled measure spaces.

Three independent signals: block-average traces over finer and finer
equal-measure partitions, the fraction of points whose eps-ball captures
sample mass, and the probability that n random points contain a large
mutually separated index set.  A report aggregates them into a verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynsys import PointSample, Record, SystemSpec, derive_rng, sample_points
from .errors import ParameterError, SizeError
from .semimetric import MatrixLike, Semimetric, as_values, distance_matrix

# verdict thresholds; finite-sample calibration, not sharp constants
ADMISSIBLE_BALL_MASS = 0.9
DEGENERATE_BALL_MASS = 0.1
ADMISSIBLE_PC = 0.1
DEGENERATE_PC = 0.9
TRACE_DROP_FACTOR = 0.5
TRACE_L1_FACTOR = 0.1

MAX_FULL_BLOCK_MATRIX = 4096


# ---------------------------------------------------------------------------
# partitions of the coordinate space into n equal-measure cells


def _cell_assignment(sample: PointSample, n: int, partition_kind: str) -> np.ndarray:
    if n < 1:
        raise ParameterError("cell count must be >= 1")
    if partition_kind == "DyadicIntervals":
        if sample.coords is None:
            raise ParameterError("dyadic partitioning needs coordinate points")
        level = int(round(math.log2(n)))
        if 2 ** level != n:
            raise ParameterError(f"dyadic partitioning needs a power of 2, got {n}")
        coords = sample.coords
        if coords.shape[1] == 1:
            idx = np.floor(coords[:, 0] * n).astype(int)
            return np.clip(idx, 0, n - 1)
        # split the square into 2^ceil(j/2) x 2^floor(j/2) equal rectangles
        nx = 2 ** ((level + 1) // 2)
        ny = 2 ** (level // 2)
        ix = np.clip(np.floor(coords[:, 0] * nx).astype(int), 0, nx - 1)
        iy = np.clip(np.floor(coords[:, 1] * ny).astype(int), 0, ny - 1)
        return ix * ny + iy
    if partition_kind == "EqualMeasureBlocks":
        if sample.coords is None:
            raise ParameterError("equal-measure blocks need coordinate points")
        order = np.argsort(sample.coords[:, 0], kind="stable")
        cells = np.empty(sample.m, dtype=int)
        for b, chunk in enumerate(np.array_split(order, n)):
            cells[chunk] = b
        return cells
    raise ParameterError(f"unknown partition kind {partition_kind!r}")


@dataclass(frozen=True)
class BlockAverageMatrix:
    """Cell-pair means of a semimetric over an equal-measure partition."""

    block_count: int
    entries: np.ndarray
    partition_kind: str
    entries_stderr: np.ndarray
    masses: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.block_count, self.block_count):
            raise ParameterError("block-average matrix has wrong shape")
        if np.any(self.entries < 0.0):
            raise ParameterError("block averages must be nonnegative")


def block_average_matrix(
    metric: Semimetric, sample: PointSample, n: int,
    partition_kind: str = "DyadicIntervals",
) -> BlockAverageMatrix:
    """Full matrix of empirical cell-pair means (equals the n^2-scaled cell
    integrals when cells carry measure exactly 1/n)."""
    m = sample.m
    if m > MAX_FULL_BLOCK_MATRIX:
        raise SizeError(f"full block matrix capped at m={MAX_FULL_BLOCK_MATRIX}")
    cells = _cell_assignment(sample, n, partition_kind)
    values = metric.pairwise(sample)
    flat = cells[:, None] * n + cells[None, :]
    sums = np.bincount(flat.ravel(), weights=values.ravel(), minlength=n * n)
    sums_sq = np.bincount(flat.ravel(), weights=(values * values).ravel(), minlength=n * n)
    counts = np.bincount(flat.ravel(), minlength=n * n).astype(float)
    cell_sizes = np.bincount(cells, minlength=n).astype(float)
    # remove the diagonal point pairs (k, k) from within-cell counts
    counts[np.arange(n) * n + np.arange(n)] -= cell_sizes
    entries = np.zeros(n * n)
    stderr = np.zeros(n * n)
    ok = counts > 0
    entries[ok] = sums[ok] / counts[ok]
    var = np.zeros(n * n)
    var[ok] = np.maximum(0.0, sums_sq[ok] / counts[ok] - entries[ok] ** 2)
    stderr[ok] = np.sqrt(var[ok] / counts[ok])
    return BlockAverageMatrix(
        block_count=n,
        entries=entries.reshape(n, n),
        partition_kind=partition_kind,
        entries_stderr=stderr.reshape(n, n),
        masses=cell_sizes / m,
        pair_counts=counts.reshape(n, n),
    )


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


def _trace_curve(
    sample: PointSample, n_schedule: Sequence[int], partition_kind: str, cell_values,
) -> list[TracePoint]:
    """Trace points over the schedule; ``cell_values(idx)`` is the value matrix
    of the sample points ``idx`` of one cell."""
    curve = []
    for n in n_schedule:
        n = int(n)
        cells = _cell_assignment(sample, n, partition_kind)
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
            pairs = cell_values(idx)[np.triu_indices(idx.size, 1)]
            mean = float(pairs.mean())
            var = float(max(0.0, (pairs * pairs).mean() - mean * mean))
            trace += w * mean
            var_sum += w * w * var / pairs.size
        curve.append(TracePoint(
            n=n, trace_over_n=float(trace), stderr=float(math.sqrt(var_sum)),
            cells_skipped=skipped, flagged=skipped > 0.1 * n,
        ))
    return curve


def trace_test(
    metric: Semimetric, sample: PointSample, n_schedule: Sequence[int],
    partition_kind: str = "DyadicIntervals",
) -> list[TracePoint]:
    """Trace curve of the block-average matrix over a partition schedule.

    Cells with fewer than two points are skipped and the remaining masses
    renormalized; a point is flagged when more than 10% of cells drop out.
    A curve decreasing toward zero is evidence of admissibility.  Only the
    pairs within each cell are evaluated.
    """
    return _trace_curve(
        sample, n_schedule, partition_kind,
        lambda idx: metric.pairwise(sample.subsample(idx)),
    )


def trace_from_matrix(
    matrix: MatrixLike, sample: PointSample, n_schedule: Sequence[int],
    partition_kind: str = "DyadicIntervals",
) -> list[TracePoint]:
    """Same curve as ``trace_test`` computed from a precomputed value matrix."""
    values = as_values(matrix)
    return _trace_curve(
        sample, n_schedule, partition_kind, lambda idx: values[np.ix_(idx, idx)],
    )


# ---------------------------------------------------------------------------
# ball-mass test


def ball_mass_test(matrix: MatrixLike, eps: float) -> float:
    """Fraction of points whose closed eps-ball captures another sample point."""
    values = as_values(matrix)
    m = values.shape[0]
    if m < 16:
        raise ParameterError(f"ball-mass test needs at least 16 points, got {m}")
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


def exact_separated_size(values: np.ndarray, c: float) -> int:
    """Largest subset with pairwise distances >= c (exact, for small n)."""
    n = values.shape[0]
    if n > 24:
        raise SizeError("exact separated-set search is capped at n=24")
    adjacency = values >= c
    np.fill_diagonal(adjacency, False)
    neighbor_mask = [0] * n
    for i in range(n):
        mask = 0
        for j in range(n):
            if adjacency[i, j]:
                mask |= 1 << j
        neighbor_mask[i] = mask
    best = 0

    def expand(size: int, candidates: int, excluded: int) -> None:
        nonlocal best
        if candidates == 0 and excluded == 0:
            best = max(best, size)
            return
        if size + bin(candidates).count("1") <= best:
            return
        pool = candidates | excluded
        pivot = (pool & -pool).bit_length() - 1
        rest = candidates & ~neighbor_mask[pivot]
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            expand(size + 1, candidates & neighbor_mask[v], excluded & neighbor_mask[v])
            candidates &= ~bit
            excluded |= bit
            rest &= ~bit

    expand(0, (1 << n) - 1, 0)
    return best


def random_matrix_test(
    metric: Semimetric, system: SystemSpec, c: float, n: int, trials: int, seed: int,
) -> float:
    """Empirical probability that n i.i.d. points contain ceil(c*n) indices
    pairwise at distance >= c.

    Exact search certifies the event for n <= 16; beyond that a greedy
    maximal separated set is used (sound but possibly incomplete).  When
    c*n <= 1 the event is vacuous and the frequency is 1.
    """
    if not (0.0 < c < 1.0):
        raise ParameterError("separation level c must lie in (0, 1)")
    if n < 2:
        raise ParameterError("need at least two points per trial")
    if trials < 1:
        raise ParameterError("need at least one trial")
    required = max(1, math.ceil(c * n))
    hits = 0
    for t in range(trials):
        trial_seed = int(derive_rng(seed, 977, t).integers(0, 2 ** 62))
        sample = sample_points(system, n, trial_seed)
        values = metric.pairwise(sample)
        if required <= 1:
            hits += 1
            continue
        if n <= 16:
            size = exact_separated_size(values, c)
        else:
            size = greedy_separated_size(values >= c)
        if size >= required:
            hits += 1
    return hits / trials


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class AdmissibilityReport(Record):
    """Aggregated diagnostics with a calibrated three-way verdict."""

    ball_mass_fraction: float
    pc_probability: float
    trace_curve: list[TracePoint] = field(default_factory=list)
    trace_ok: Optional[bool] = None
    empirical_l1: float = 0.0
    eps: float = 0.1
    c: float = 0.4
    verdict: str = "Inconclusive"


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
    c: float = 0.4,
    pc_n: int = 64,
    pc_trials: int = 50,
    trace_schedule: Sequence[int] = (2, 4, 8, 16, 32),
) -> AdmissibilityReport:
    """Run all three diagnostics on one (system, metric) pair."""
    sample = sample_points(system, m, seed)
    return matrix_report(
        system, metric, sample, distance_matrix(metric, sample), seed=seed, eps=eps,
        c=c, pc_n=pc_n, pc_trials=pc_trials, trace_schedule=trace_schedule,
    )


def matrix_report(
    system: SystemSpec,
    metric: Semimetric,
    sample: PointSample,
    matrix: MatrixLike,
    *,
    seed: int,
    eps: float,
    c: float,
    pc_n: int,
    pc_trials: int,
    trace_schedule: Sequence[int],
) -> AdmissibilityReport:
    """The diagnostics of ``admissibility_report`` on a sample and its value
    matrix under ``metric``; the separated-set test draws its own points from
    ``seed``, so only that test evaluates ``metric``."""
    values = as_values(matrix)
    off = ~np.eye(values.shape[0], dtype=bool)
    l1 = float(values[off].mean())
    ball = ball_mass_test(values, eps)
    pc = random_matrix_test(metric, system, c, pc_n, pc_trials, seed)
    curve: list[TracePoint] = []
    trace_ok: Optional[bool] = None
    if sample.coords is not None:
        curve = trace_from_matrix(values, sample, trace_schedule)
        trace_ok = trace_evidence(curve, l1)
    return AdmissibilityReport(
        ball_mass_fraction=ball, pc_probability=pc, trace_curve=curve,
        trace_ok=trace_ok, empirical_l1=l1, eps=eps, c=c,
        verdict=combine_verdict(ball, pc, trace_ok),
    )
