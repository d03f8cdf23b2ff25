"""Entropy growth profiles along orbit averages and the spectral verdict.

A profile records the entropy of the n-step averaged metric over a schedule
of n, one row per schedule point (median over seeds).  One rule reads the
rows in n order.  A row is *censored* when it lies within
``CENSOR_MARGIN_BITS`` (0.5) of the sample ceiling log2(m - floor(eps*m)),
where growth and saturation look alike, and only the rows before the first
censored one count.  An *increment* is the rise between consecutive rows per
doubling of n, (v2 - v1) / log2(n2 / n1).  Fewer than ``MIN_GROWTH_ROWS`` (4)
counted rows is Undetermined.  No censored row and a sum of at most
``BOUNDED_TAIL_BITS`` (0.5) over the last three increments is Bounded; three
positive last increments summing to at least ``GROWING_TAIL_BITS`` (0.75) is
Growing; anything else is Undetermined.  Bounded at every tested eps is
evidence of a purely discrete spectrum, Growing at some eps evidence against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import admit
from .dynsys import Record, SystemSpec, sample_points
from .entropy import EpsEntropyEstimate, ceiling_bits, estimate_from_matrix
from .errors import ParameterError
from .semimetric import Semimetric, streamed_average_matrices, validate_schedule

# the growth rule of the module docstring; bits, and bits per doubling of n
CENSOR_MARGIN_BITS = 0.5
MIN_GROWTH_ROWS = 4
BOUNDED_TAIL_BITS = 0.5
GROWING_TAIL_BITS = 0.75


@dataclass(frozen=True)
class GrowthClass(Record):
    kind: str


BOUNDED = GrowthClass("Bounded")
GROWING = GrowthClass("Growing")
UNDETERMINED = GrowthClass("Undetermined")


@dataclass(frozen=True)
class ProfileRow(Record):
    n: int
    value_bits: float
    lower_bound_bits: float
    sample_size: int
    seed: int


def censored_rows(rows: Sequence[ProfileRow], eps: float) -> list[bool]:
    """Whether each row lies within ``CENSOR_MARGIN_BITS`` of its ceiling."""
    return [r.value_bits >= ceiling_bits(eps, r.sample_size) - CENSOR_MARGIN_BITS
            for r in rows]


def increments(rows: Sequence[ProfileRow]) -> list[float]:
    """Bits per doubling of n between consecutive rows, in the given order."""
    return [(b.value_bits - a.value_bits) / math.log2(b.n / a.n)
            for a, b in zip(rows, rows[1:])]


def classify_growth(rows: Sequence[ProfileRow], eps: float) -> GrowthClass:
    """The growth class of profile rows at eps, by the rule of the module
    docstring; the rows may come in any order."""
    rows = sorted(rows, key=lambda r: r.n)
    validate_schedule([r.n for r in rows])
    censored = censored_rows(rows, eps)
    below = rows[:censored.index(True)] if any(censored) else rows
    if len(below) < MIN_GROWTH_ROWS:
        return UNDETERMINED
    tail = increments(below)[-3:]
    if len(below) == len(rows) and sum(tail) <= BOUNDED_TAIL_BITS:
        return BOUNDED
    if all(d > 0 for d in tail) and sum(tail) >= GROWING_TAIL_BITS:
        return GROWING
    return UNDETERMINED


@dataclass(frozen=True)
class ScalingProfile(Record):
    """The rows of one eps in n order, and what the growth rule read of them."""

    system: SystemSpec
    metric: Semimetric
    method: str
    eps: float
    rows: list[ProfileRow]
    growth_class: GrowthClass
    increments: list[float]
    censored: list[bool]


def profile_cells(
    system: SystemSpec,
    metric: Semimetric,
    n_schedule: Sequence[int],
    m: int,
    seed: int,
    eps_values: Sequence[float],
    method: str = "Covering",
) -> tuple[dict[tuple[float, int, int], EpsEntropyEstimate], admit.AdmissibilityReport]:
    """The orbit pass of one seed: entropy estimates keyed by (eps, n, seed)
    for every eps and n, and the seed's limit-check report.

    Each cell equals the standalone ``entropy_estimate`` pipeline bit for bit.
    No matrix outlives its step: each is let go of before the pass forms the
    next.  Once the pass has ended and its accumulators are freed,
    ``admit.admissibility_report`` runs on the largest n's matrix at the
    smallest eps, so the report equals the one on ``Average(metric, system,
    max(n_schedule))``'s own ``distance_matrix`` of the same m and seed, and
    the check costs no orbit step of its own.
    """
    schedule = validate_schedule(n_schedule)
    grid = [float(eps) for eps in eps_values]
    if not grid:
        raise ParameterError("the eps grid must be nonempty")
    seed = int(seed)
    sample = sample_points(system, m, seed)
    cells: dict[tuple[float, int, int], EpsEntropyEstimate] = {}
    for n, last in streamed_average_matrices(metric, system, sample, schedule):
        for est in estimate_from_matrix(last, grid, method, seed=seed):
            cells[(est.eps, n, seed)] = est
        if n < schedule[-1]:
            del last  # before the pass forms step n + 1's matrix
    # the pass has ended and freed its accumulators; ``last`` is the largest n's
    return cells, admit.admissibility_report(sample, last, eps=min(grid))


def _median_row(n: int, per_seed: list[EpsEntropyEstimate]) -> ProfileRow:
    # median over seeds; lower middle for even counts, so the row keeps the
    # provenance of one actually computed cell
    order = sorted(range(len(per_seed)), key=lambda i: (per_seed[i].value_bits, i))
    est = per_seed[order[(len(order) - 1) // 2]]
    return ProfileRow(
        n=n, value_bits=est.value_bits, lower_bound_bits=est.lower_bound_bits,
        sample_size=est.sample_size, seed=est.seed,
    )


def assemble_profile(
    system: SystemSpec,
    metric: Semimetric,
    method: str,
    eps: float,
    n_schedule: Sequence[int],
    seeds: Sequence[int],
    cells: dict[tuple[float, int, int], EpsEntropyEstimate],
) -> ScalingProfile:
    rows = []
    for n in validate_schedule(n_schedule):
        per_seed = [cells[(float(eps), n, int(seed))] for seed in seeds]
        rows.append(_median_row(n, per_seed))
    return ScalingProfile(
        system=system, metric=metric, method=method, eps=float(eps), rows=rows,
        growth_class=classify_growth(rows, eps), increments=increments(rows),
        censored=censored_rows(rows, eps),
    )


@dataclass(frozen=True)
class SpectralVerdict(Record):
    """The verdict, and the growth class of each eps keyed by ``f"{eps:.17g}"``."""

    verdict: str
    per_eps: dict[str, GrowthClass]
    basis: str


def discreteness_verdict(profiles: Sequence[ScalingProfile]) -> SpectralVerdict:
    """Evidence verdict from one profile per eps.

    Bounded at every eps is evidence of a purely discrete spectrum, Growing
    at any eps evidence against.  Anything else, or fewer than two distinct
    eps, is Undetermined; the basis then names the eps whose rows reach the
    ceiling within ``MIN_GROWTH_ROWS`` rows, and those merely unclassified.
    """
    per_eps = {f"{p.eps:.17g}": p.growth_class for p in profiles}
    if len(per_eps) < 2:
        return SpectralVerdict("Undetermined", per_eps, "needs >= 2 eps values")
    if GROWING in per_eps.values():
        return SpectralVerdict("NotDiscreteEvidence", per_eps,
                               "entropy of the averaged metric grows with n at some eps")
    if set(per_eps.values()) == {BOUNDED}:
        return SpectralVerdict("DiscreteSpectrumEvidence", per_eps,
                               "entropy of the averaged metric stays bounded at every tested eps")
    undetermined = [p for p in profiles if p.growth_class == UNDETERMINED]
    saturated = [p for p in undetermined if True in p.censored[:MIN_GROWTH_ROWS]]
    reasons = [(f"rows reach the sample ceiling within {MIN_GROWTH_ROWS} rows", saturated),
               ("rows below the ceiling are neither Bounded nor Growing",
                [p for p in undetermined if p not in saturated])]
    basis = "; ".join(f"{why} at eps {', '.join(str(p.eps) for p in group)}"
                      for why, group in reasons if group)
    return SpectralVerdict("Undetermined", per_eps, f"{basis}; no positive call")


@dataclass(frozen=True)
class LimitMetricReport(Record):
    """Admissibility reports of the large-n averaged metric, one per seed."""

    n_big: int
    seeds: list[int]
    per_seed: list[admit.AdmissibilityReport]


def limit_metric_check(
    n_big: int,
    seeds: Sequence[int],
    reports: Sequence[admit.AdmissibilityReport],
) -> LimitMetricReport:
    """The report of each seed's ``profile_cells`` pass, whose schedule ends
    at n_big, kept as measured in the order of ``seeds``; a repeated seed
    counts again."""
    if n_big < 1:
        raise ParameterError("n_big must be >= 1")
    if not seeds:
        raise ParameterError("the limit check needs at least one seed")
    if len(reports) != len(seeds):
        raise ParameterError(f"{len(seeds)} seeds need as many reports, got {len(reports)}")
    return LimitMetricReport(
        n_big=int(n_big), seeds=[int(seed) for seed in seeds], per_seed=list(reports),
    )
