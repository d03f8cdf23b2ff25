"""Entropy growth profiles along orbit averages and the spectral verdict.

A profile records the entropy of the n-step averaged metric over a geometric
schedule of n, one row per schedule point (median over seeds).  The growth of
the rows is classified into Bounded / Logarithmic / Polynomial / Linear /
Undetermined, and boundedness at every tested eps is reported as evidence of
a purely discrete spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import admit
from .dynsys import DECODE, Record, SystemSpec, sample_points
from .entropy import EpsEntropyEstimate, estimate_from_matrix
from .errors import ParameterError
from .semimetric import (
    Average, DistanceMatrix, Semimetric, streamed_average_matrices,
)

R2_THRESHOLD = 0.95
BOUNDED_SLACK_BITS = 1.0
TAU_THRESHOLD = 0.5
# fewest profile rows the growth classification reads
MIN_GROWTH_ROWS = 4

# separated-set draws of the limit check: points per draw and draws per seed
LIMIT_PC_N = 32
LIMIT_PC_TRIALS = 20


@dataclass(frozen=True)
class GrowthClass(Record):
    kind: str
    exponent: Optional[float] = None

    def __str__(self) -> str:
        if self.kind == "Polynomial":
            return f"Polynomial({self.exponent:.3g})"
        return self.kind


BOUNDED = GrowthClass("Bounded")
LINEAR = GrowthClass("Linear")
LOGARITHMIC = GrowthClass("Logarithmic")
UNDETERMINED = GrowthClass("Undetermined")


@dataclass(frozen=True)
class ProfileRow(Record):
    n: int
    value_bits: float
    lower_bound_bits: float
    sample_size: int
    seed: int


def _linear_fit(x: np.ndarray, y: np.ndarray) -> dict:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = 0.0 if sxx == 0.0 else sxy / sxx
    intercept = ym - slope * xm
    predicted = intercept + slope * x
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 0.0 if ss_tot < 1e-24 else max(0.0, 1.0 - ss_res / ss_tot)
    return {
        "slope": slope, "intercept": intercept, "r2": r2,
        "residuals": (y - predicted).tolist(),
    }


def _kendall_tau(y: Sequence[float]) -> float:
    """Trend statistic against the (already increasing) n order.

    Tied pairs count as no evidence of a trend: (concordant - discordant)
    over all pairs.
    """
    y = list(y)
    concordant = 0
    discordant = 0
    total = 0
    for i in range(len(y)):
        for j in range(i + 1, len(y)):
            total += 1
            if y[j] > y[i]:
                concordant += 1
            elif y[j] < y[i]:
                discordant += 1
    return (concordant - discordant) / total if total else 0.0


def growth_diagnostics(rows: Sequence[ProfileRow]) -> dict:
    rows = sorted(rows, key=lambda r: r.n)
    ns = np.array([r.n for r in rows], dtype=float)
    ys = np.array([r.value_bits for r in rows], dtype=float)
    diagnostics = {
        "bounded_diff_bits": float(ys[-1] - ys[1]),
        "kendall_tau": _kendall_tau(ys),
        "linear": _linear_fit(ns, ys),
        "log2": _linear_fit(np.log2(ns), ys),
    }
    if np.all(ys > 0):
        diagnostics["loglog"] = _linear_fit(np.log2(ns), np.log2(ys))
    return diagnostics


def classify_growth(rows: Sequence[ProfileRow]) -> GrowthClass:
    """Classify profile rows into a growth class.

    Bounded: within one bit of the second schedule point and no monotone
    upward trend.  Otherwise the best of the linear / log / power fits that
    clears R^2 >= 0.95 with positive slope, with the plain linear fit taking
    precedence.
    """
    if len(rows) < MIN_GROWTH_ROWS:
        raise ParameterError(f"growth classification needs at least {MIN_GROWTH_ROWS} rows")
    ns = [r.n for r in sorted(rows, key=lambda r: r.n)]
    if len(set(ns)) != len(ns):
        raise ParameterError("profile rows must have distinct n")
    diag = growth_diagnostics(rows)
    if (
        diag["bounded_diff_bits"] <= BOUNDED_SLACK_BITS + 1e-9
        and diag["kendall_tau"] <= TAU_THRESHOLD + 1e-9
    ):
        return BOUNDED
    lin = diag["linear"]
    if lin["r2"] >= R2_THRESHOLD and lin["slope"] > 0:
        return LINEAR
    log = diag["log2"]
    if log["r2"] >= R2_THRESHOLD and log["slope"] > 0 and log["r2"] > lin["r2"]:
        return LOGARITHMIC
    power = diag.get("loglog")
    if power and power["r2"] >= R2_THRESHOLD and power["slope"] > 0 and power["r2"] > lin["r2"]:
        return GrowthClass("Polynomial", exponent=power["slope"])
    return UNDETERMINED


@dataclass(frozen=True)
class ScalingProfile(Record):
    system: SystemSpec
    metric: Semimetric
    method: str
    eps: float
    rows: list[ProfileRow]
    growth_class: GrowthClass
    fit_diagnostics: dict


DECODE.update({
    "list[ProfileRow]": lambda rows: [ProfileRow.from_json(r) for r in rows],
    "GrowthClass": GrowthClass.from_json,
    "dict[str, GrowthClass]": lambda obj: {k: GrowthClass.from_json(v) for k, v in obj.items()},
    "dict": dict,
})


def _validate_schedule(n_schedule: Sequence[int]) -> list[int]:
    schedule = [int(n) for n in n_schedule]
    if not schedule or any(n < 1 for n in schedule):
        raise ParameterError("n schedule must be nonempty with entries >= 1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ParameterError("n schedule must be strictly increasing")
    return schedule


def profile_cells(
    system: SystemSpec,
    metric: Semimetric,
    n_schedule: Sequence[int],
    m: int,
    seeds: Sequence[int],
    eps_values: Sequence[float],
    method: str = "Covering",
) -> tuple[dict[tuple[float, int, int], EpsEntropyEstimate], dict[int, admit.AdmissibilityReport]]:
    """Entropy estimates for every (eps, n, seed) cell, and the limit-check
    report of every seed.

    One orbit pass per seed; each cell equals the standalone
    ``entropy_estimate`` pipeline bit-for-bit.  When the pass reaches the
    largest n of the schedule, the admissibility diagnostics run on that live
    matrix at the smallest eps with the ``LIMIT_PC_*`` draws, so a seed's
    report equals ``admissibility_report`` of ``Average(metric, system,
    max(n_schedule))`` on the same m and seed.  No matrix outlives its step.
    """
    schedule = _validate_schedule(n_schedule)
    grid = [float(eps) for eps in eps_values]
    if not grid:
        raise ParameterError("the eps grid must be nonempty")
    cells: dict[tuple[float, int, int], EpsEntropyEstimate] = {}
    reports: dict[int, admit.AdmissibilityReport] = {}
    for seed in seeds:
        sample = sample_points(system, m, int(seed))
        for n, values in streamed_average_matrices(metric, system, sample, schedule):
            dist = DistanceMatrix(values)
            for est in estimate_from_matrix(dist, grid, method, seed=int(seed)):
                cells[(est.eps, n, int(seed))] = est
            if n == schedule[-1]:
                reports[int(seed)] = admit.matrix_report(
                    system, Average(metric, system, n), sample, dist, seed=int(seed),
                    eps=min(grid), pc_n=LIMIT_PC_N, pc_trials=LIMIT_PC_TRIALS,
                )
    return cells, reports


def _median_row(
    n: int, per_seed: list[EpsEntropyEstimate], seeds: Sequence[int]
) -> ProfileRow:
    # median over seeds; lower middle for even counts, so the row keeps the
    # provenance of one actually computed cell
    order = sorted(range(len(per_seed)), key=lambda i: (per_seed[i].value_bits, i))
    mid = order[(len(order) - 1) // 2]
    est = per_seed[mid]
    return ProfileRow(
        n=n, value_bits=est.value_bits, lower_bound_bits=est.lower_bound_bits,
        sample_size=est.sample_size, seed=int(seeds[mid]),
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
    for n in n_schedule:
        per_seed = [cells[(float(eps), int(n), int(seed))] for seed in seeds]
        rows.append(_median_row(int(n), per_seed, seeds))
    return ScalingProfile(
        system=system, metric=metric, method=method, eps=float(eps), rows=rows,
        growth_class=classify_growth(rows), fit_diagnostics=growth_diagnostics(rows),
    )


@dataclass(frozen=True)
class SpectralVerdict(Record):
    """The verdict, and the growth class of each eps keyed by ``f"{eps:.17g}"``."""

    verdict: str
    per_eps: dict[str, GrowthClass]
    basis: str


GROWING_KINDS = ("Linear", "Polynomial", "Logarithmic")


def discreteness_verdict(profiles: Sequence[ScalingProfile]) -> SpectralVerdict:
    """Evidence verdict from one profile per eps.

    Bounded growth at every eps is evidence of a purely discrete spectrum;
    any growing class is evidence against; anything undetermined, or fewer
    than two distinct eps, blocks a positive call.
    """
    if len({p.eps for p in profiles}) < 2:
        return SpectralVerdict("Undetermined", {}, "needs >= 2 eps values")
    per_eps = {f"{p.eps:.17g}": p.growth_class for p in profiles}
    kinds = {cls.kind for cls in per_eps.values()}
    if kinds & set(GROWING_KINDS):
        verdict = "NotDiscreteEvidence"
        basis = "entropy of the averaged metric grows with n at some eps"
    elif kinds == {"Bounded"}:
        verdict = "DiscreteSpectrumEvidence"
        basis = "entropy of the averaged metric stays bounded at every tested eps"
    else:
        verdict = "Undetermined"
        basis = "at least one profile could not be classified; no positive call"
    return SpectralVerdict(verdict, per_eps, basis)


@dataclass(frozen=True)
class LimitMetricReport(Record):
    """Admissibility diagnostics of the large-n averaged metric."""

    n_big: int
    ball_mass_fraction: float
    pc_probability: float
    trace_curve: list
    trace_ok: Optional[bool]
    verdict: str
    profile_class: Optional[GrowthClass]
    consistent: Optional[bool]
    per_seed: list


def _median(values: Sequence[float]) -> float:
    # np.median's value, (a + b) / 2 of the two middles for an even count,
    # without importing numpy.ma (np.median) or statistics on the run path
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def limit_metric_check(
    n_big: int,
    seeds: Sequence[int],
    reports: Mapping[int, admit.AdmissibilityReport],
    profile_class: Optional[GrowthClass] = None,
) -> LimitMetricReport:
    """The limit-check reports of ``seeds``, combined.

    ``reports`` maps each seed to its report from the orbit pass of
    ``profile_cells`` whose schedule ends at n_big.  The seeds are read in
    order, so a repeated seed counts again, and the trace curve is the first
    seed's, each point as its ``n``, ``trace_over_n`` and ``stderr``.  A
    Bounded profile should come with admissible evidence here and a growing
    one with degenerate evidence; ``consistent`` records that cross-check
    when a profile class is supplied.
    """
    if n_big < 1:
        raise ParameterError("n_big must be >= 1")
    if not seeds:
        raise ParameterError("the limit check needs at least one seed")
    per_seed = [reports[int(seed)] for seed in seeds]
    ball_med = _median([r.ball_mass_fraction for r in per_seed])
    pc_med = _median([r.pc_probability for r in per_seed])
    first = per_seed[0]
    verdict = admit.combine_verdict(ball_med, pc_med, first.trace_ok)
    consistent = None
    if profile_class is not None:
        consistent = (profile_class.kind == "Bounded") == (verdict == "AdmissibleEvidence")
    return LimitMetricReport(
        n_big=int(n_big), ball_mass_fraction=ball_med, pc_probability=pc_med,
        trace_curve=[{"n": p.n, "trace_over_n": p.trace_over_n, "stderr": p.stderr}
                     for p in first.trace_curve],
        trace_ok=first.trace_ok, verdict=verdict, profile_class=profile_class,
        consistent=consistent,
        per_seed=[
            {"seed": int(seed), "ball_mass_fraction": r.ball_mass_fraction,
             "pc_probability": r.pc_probability}
            for seed, r in zip(seeds, per_seed)
        ],
    )
