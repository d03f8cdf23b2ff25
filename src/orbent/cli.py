"""Batch experiment harness: JSON configs in, CSV/JSON result bundles out.

Verbs: ``run <config.json>``, ``compare <dirA> <dirB>``, ``presets list``,
``presets emit <name>``.  Exit codes: 0 success, 2 invalid config (with a
machine-readable error object on stderr), 3 numerical infeasibility (an
``InfeasibleError``: only ``entropy.kantorovich_distance`` raises one, when
its transport LP fails, and no estimator of a run calls it).

A config is a JSON object of eight fields: ``system`` and ``metric`` (tagged
objects), ``eps_grid`` (an array of numbers), ``n_schedule`` and ``seeds``
(arrays of integers; each seed lies in [0, 2**64)), ``m`` (an integer),
``method`` and ``output_dir`` (strings).  It decodes by the one codec of
:mod:`orbent.dynsys`: numbers and strings are strict, an unknown key is
refused, and an error's ``field`` is the top-level field at fault.  A shift's
``horizon`` is widened to cover the schedule, and a metric that cannot run on
the system's points is refused.  A config whose one seed pass would not fit
in physical memory is refused before that probe, and a run whose concurrent
passes would not fit before its output directory is created.

A config nests at most ``MAX_CONFIG_DEPTH`` levels of objects and arrays, the
top-level object being the first, so every accepted config decodes and encodes
far inside the interpreter's recursion limit.  A run also refuses, with field
``metric`` and before any seed pass, a base metric whose matrix on the leading
``TRIANGLE_POINTS`` points of the first seed's sample breaks the triangle
inequality.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import admit, scaling
from .dynsys import BernoulliShift, Record, SystemSpec, sample_points
from .entropy import ESTIMATORS, ceiling_bits
from .errors import ConfigError, InfeasibleError, OrbentError, ParameterError
from .semimetric import Semimetric, distance_matrix, validate_schedule

# m-by-m float64 matrices one seed pass may hold at once: twice the largest
# growth measured, rounded up.  Peak RSS (ru_maxrss by os.wait4) of a
# one-seed, one-worker run on n_schedule [1, 2, 3, 4], less the same run at
# m = 64, median of 3 on a 2-vCPU, 8 GiB Linux machine, grows at m = 1024
# and 2048 by 1.56 and 1.74 of them with covering and 2.20 and 1.92 with
# Kantorovich on the Anzai skew with TorusArcL1, and by 1.46 and 1.68 with
# covering and 2.28 and 2.54 with Kantorovich on the fair shift with
# FirstSymbolCut (orbit-sum blocks of about half a matrix, the step's matrix,
# estimator masks and tables).  A pass is priced as these matrices plus, on a
# shift, its symbol windows, times the passes that run at once
# (``_check_memory``).
WORKING_SET_MATRICES = 6

MAX_CONFIG_DEPTH = 64  # levels of objects and arrays; the deepest shipped case nests 6
TRIANGLE_POINTS = 128  # sample points whose base-matrix block must keep the triangle inequality

ROWS_CSV_HEADER = ("system", "metric", "eps", "n", "seed", "method", "value_bits")
ESTIMATES_CSV_HEADER = (
    "system", "metric", "method", "n", "eps", "m", "seed", "k",
    "value_bits", "lower_bound_bits",
)


@dataclass(frozen=True)
class ExperimentConfig(Record):
    system: SystemSpec
    metric: Semimetric
    eps_grid: tuple[float, ...]
    n_schedule: tuple[int, ...]
    m: int
    seeds: tuple[int, ...]
    method: str
    output_dir: str


def _physical_memory() -> Optional[int]:
    """Physical memory in bytes, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _shift_horizon(n_schedule: Sequence[int], metric: Semimetric) -> int:
    """The symbols a shift's window needs to cover the whole schedule."""
    return max(n_schedule) + metric.symbol_horizon() + 1


def _check_memory(config: ExperimentConfig, passes: int) -> None:
    """Refuse a run whose ``passes`` seed passes at once need more than the
    physical memory.  The error names m when the matrices alone do not fit,
    else the field that set a shift's horizon: the system's own horizon, or
    the metric when it reads past the schedule's largest n."""
    memory = _physical_memory()
    system, metric, m = config.system, config.metric, config.m
    matrices, windows = WORKING_SET_MATRICES * 8 * m * m, 0
    if system.is_symbolic:
        # a pass holds the sample's int8 windows and the sampler's float64
        # row; the separated-set test reads the pass's matrix, not a draw
        h = system.horizon
        windows = (m + 8) * h
    need = passes * (matrices + windows)
    if memory is None or need <= memory:
        return
    field = "m"
    if passes * matrices <= memory:  # the windows tip it over
        field = ("system" if h > _shift_horizon(config.n_schedule, metric) else
                 "metric" if metric.symbol_horizon() > max(config.n_schedule) else "n_schedule")
    raise ConfigError(field, f"{passes} seed passes at once need about {need / 2 ** 30:.3g} GiB, "
                             f"each {WORKING_SET_MATRICES} m-by-m float64 matrices at m={m}"
                             f"{f' and {h}-symbol windows' if windows else ''}, more than the "
                             f"{memory / 2 ** 30:.3g} GiB of physical memory")


def parse_config(obj: dict) -> ExperimentConfig:
    """Decode a raw config object, then make the checks that span fields or
    that no field's decoder makes; errors name the offending field.  One
    seed pass is priced against physical memory before the metric's probe;
    ``run_experiment`` prices the passes that run at once."""
    if not isinstance(obj, dict):
        raise ConfigError("config", "config must be a JSON object")
    stack = [(obj, 1)]  # without recursion, so a self-referencing object stops at the bound
    while stack:
        value, level = stack.pop()
        if level > MAX_CONFIG_DEPTH:
            raise ConfigError("config", f"config nests deeper than {MAX_CONFIG_DEPTH} levels")
        children = value.values() if isinstance(value, dict) else value
        stack.extend((child, level + 1) for child in children if isinstance(child, (dict, list)))
    config = ExperimentConfig.from_json(obj)
    system, metric, m = config.system, config.metric, config.m
    for key in ("eps_grid", "n_schedule", "seeds"):
        if not getattr(config, key):
            raise ConfigError(key, f"{key} must be a nonempty list")

    eps_grid = config.eps_grid
    if any(not (0 < e < math.inf) for e in eps_grid):
        raise ConfigError("eps_grid", "eps values must be positive and finite")
    if len(set(eps_grid)) < len(eps_grid):
        raise ConfigError("eps_grid", "eps_grid must not repeat a value")

    schedule = config.n_schedule
    try:
        validate_schedule(schedule)
    except ParameterError as exc:
        raise ConfigError("n_schedule", str(exc)) from exc
    if len(schedule) < scaling.MIN_GROWTH_ROWS:
        raise ConfigError("n_schedule", f"n_schedule needs at least {scaling.MIN_GROWTH_ROWS} "
                                        "points to classify growth")

    if m < admit.MIN_BALL_MASS_POINTS:
        raise ConfigError("m", f"m must be >= {admit.MIN_BALL_MASS_POINTS}, the points "
                               "the ball-mass test needs")
    # an estimate discards floor(eps * m) points; with one or none left, every cell reads 0 bits
    if any(ceiling_bits(e, m) < 1 for e in eps_grid):
        raise ConfigError("eps_grid", "each eps must keep m - floor(eps * m) >= 2 points")

    # the sampler reads a seed modulo 2**64, so a seed outside [0, 2**64)
    # would draw the samples of another; a repeated seed would run twice and
    # count twice in every median
    if any(not 0 <= seed < 2 ** 64 for seed in config.seeds):
        raise ConfigError("seeds", "seeds must lie in [0, 2**64)")
    if len(set(config.seeds)) < len(config.seeds):
        raise ConfigError("seeds", "seeds must not repeat a value")

    method = config.method.strip().capitalize()
    if method not in ESTIMATORS:
        raise ConfigError("method", f"method must be one of {tuple(ESTIMATORS)}")

    if not config.output_dir or "\0" in config.output_dir:
        raise ConfigError("output_dir", "output_dir must be a nonempty path with no NUL byte")

    # shift systems: make the symbol window cover the whole schedule
    if system.is_symbolic:
        system = replace(system, horizon=max(system.horizon, _shift_horizon(schedule, metric)))
    _check_memory(replace(config, system=system), 1)

    # the metric must run on the system's points; two sampled points need not
    # show every symbol, so a shift's probe is its first and last symbol held
    # constant along the symbols the metric reads, not the whole window
    if isinstance(system, BernoulliShift):
        probe = np.full((2, metric.symbol_horizon() + 1), [[0], [len(system.weights) - 1]],
                        dtype=np.int8)
    else:
        probe = sample_points(system, 2, 0)
    try:
        metric.pairwise(probe)
    except OrbentError as exc:
        raise ConfigError("metric",
                          f"the metric cannot run on {system.kind} points: {exc}") from exc

    return replace(config, system=system, method=method)


def load_config(path, output_dir: Optional[str] = None) -> ExperimentConfig:
    """The config at ``path``; a given ``output_dir`` replaces its own before the checks."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:  # missing, a directory, or a path through a file
        raise ConfigError("config", f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError("config", f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config", "config is nested too deeply to decode") from exc
    if output_dir is not None and isinstance(obj, dict):
        obj = {**obj, "output_dir": output_dir}
    return parse_config(obj)


# ---------------------------------------------------------------------------
# experiment runner


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _base_report(config: ExperimentConfig) -> admit.AdmissibilityReport:
    """The admissibility report of the base metric on the first seed's sample,
    once the matrix's leading ``TRIANGLE_POINTS`` block keeps the triangle
    inequality to 1e-9, one middle point at a time.  A semimetric on the
    sample makes every orbit average one too, so the check, made before any
    seed pass, serves every estimator; but the block can miss a violation
    among other points, and the cover's own refusal of a packing above its
    ball cover stays as the check on the averages."""
    sample = sample_points(config.system, config.m, config.seeds[0])
    matrix = distance_matrix(config.metric, sample)
    block = matrix.values[:TRIANGLE_POINTS, :TRIANGLE_POINTS]
    for j in range(len(block)):
        excess = block - block[:, j, None] - block[None, j, :]
        if excess.max() > 1e-9:
            i, k = np.unravel_index(excess.argmax(), excess.shape)
            raise ConfigError("metric", f"d(x{i}, x{k}) exceeds d(x{i}, x{j}) + d(x{j}, x{k}) "
                                        f"by {excess[i, k]:.3g} on the first seed's sample, "
                                        "so the metric breaks the triangle inequality")
    return admit.admissibility_report(sample, matrix, eps=min(config.eps_grid))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> dict:
    """Run the full pipeline and write the result bundle to output_dir.

    Returns a dict of written paths.  Outputs are byte-identical for
    identical configs regardless of the worker count.  Each seed runs one
    ``scaling.profile_cells`` pass, ``workers`` of them at once; the memory of
    the passes that run at once is priced before anything is written.
    """
    _check_memory(config, min(workers, len(config.seeds)))
    out = Path(config.output_dir)
    try:
        made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        raise ConfigError("output_dir", f"cannot create {out}: {exc.strerror}") from exc

    def seed_job(seed: int):
        return scaling.profile_cells(
            config.system, config.metric, config.n_schedule, config.m, seed,
            config.eps_grid, config.method,
        )

    try:
        base_report = _base_report(config)  # admissibility of the base metric
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                passes = list(pool.map(seed_job, config.seeds))
        else:  # on this thread: a one-thread pool's thread adds 4.4-5.4 MiB of peak RSS
            passes = [seed_job(seed) for seed in config.seeds]
        cells = {key: est for part, _ in passes for key, est in part.items()}

        profiles = [
            scaling.assemble_profile(
                config.system, config.metric, config.method, eps,
                config.n_schedule, config.seeds, cells,
            )
            for eps in config.eps_grid
        ]
        verdict = scaling.discreteness_verdict(profiles)

        # admissibility of the largest-n average from each seed's pass
        limit_report = scaling.limit_metric_check(
            max(config.n_schedule), config.seeds, [report for _, report in passes],
        )
    except BaseException:
        for path in made:  # empty until the bundle is written: a refusal leaves none
            path.rmdir()
        raise

    paths = {
        "config": out / "config.json",
        "rows": out / "rows.csv",
        "estimates": out / "estimates.csv",
        "profile": out / "profile.json",
        "verdict": out / "verdict.json",
        "admissibility": out / "admissibility.json",
    }

    try:  # a bundle file that cannot be written, e.g. a directory by its name
        paths["config"].write_text(_json_text(config.to_json()))

        system_label = config.system.label()
        metric_label = config.metric.label()
        with open(paths["rows"], "w", newline="") as rows_fh, \
                open(paths["estimates"], "w", newline="") as estimates_fh:
            rows_csv = csv.writer(rows_fh)
            estimates_csv = csv.writer(estimates_fh)
            rows_csv.writerow(ROWS_CSV_HEADER)
            estimates_csv.writerow(ESTIMATES_CSV_HEADER)
            for eps in config.eps_grid:
                for n in config.n_schedule:
                    for seed in config.seeds:
                        est = cells[(float(eps), int(n), int(seed))]
                        rows_csv.writerow([
                            system_label, metric_label, f"{eps:.17g}", n, seed,
                            config.method, f"{est.value_bits:.17g}",
                        ])
                        estimates_csv.writerow([
                            system_label, metric_label, est.method, n, f"{est.eps:.17g}",
                            est.sample_size, est.seed, est.k,
                            f"{est.value_bits:.17g}", f"{est.lower_bound_bits:.17g}",
                        ])

        paths["profile"].write_text(_json_text({"profiles": [p.to_json() for p in profiles]}))
        paths["verdict"].write_text(_json_text(verdict.to_json()))
        paths["admissibility"].write_text(_json_text({
            "base": base_report.to_json(),
            "averaged": limit_report.to_json(),
        }))
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot write {exc.filename}: {exc.strerror}") from exc
    return {name: str(path) for name, path in paths.items()}


# ---------------------------------------------------------------------------
# bundle comparison


def compare_bundles(dir_a, dir_b) -> dict:
    """Per-eps growth-class and verdict diff of two result bundles."""

    def load(bundle_dir):
        bundle_dir = Path(bundle_dir)
        try:
            with open(bundle_dir / "profile.json") as fh:
                profiles = [
                    scaling.ScalingProfile.from_json(p) for p in json.load(fh)["profiles"]
                ]
            with open(bundle_dir / "verdict.json") as fh:
                verdict = scaling.SpectralVerdict.from_json(json.load(fh)).verdict
        except (OSError, ValueError, KeyError, TypeError, ParameterError) as exc:
            raise ConfigError("bundle", f"not a result bundle: {bundle_dir} ({exc})") from exc
        return profiles, verdict

    profiles_a, verdict_a = load(dir_a)
    profiles_b, verdict_b = load(dir_b)
    kinds_a = {p.eps: p.growth_class.kind for p in profiles_a}
    kinds_b = {p.eps: p.growth_class.kind for p in profiles_b}
    grid_a, grid_b = sorted(kinds_a), sorted(kinds_b)
    if grid_a != grid_b:
        raise ConfigError(
            "eps_grid", f"bundles have incompatible eps grids: {grid_a} vs {grid_b}"
        )
    rows = [{"eps": eps, "class_a": kinds_a[eps], "class_b": kinds_b[eps],
             "differs": kinds_a[eps] != kinds_b[eps]} for eps in grid_a]
    return {
        "eps_grid": grid_a,
        "classes": rows,
        "verdict_a": verdict_a,
        "verdict_b": verdict_b,
        "verdicts_differ": verdict_a != verdict_b,
        "any_difference": verdict_a != verdict_b or any(r["differs"] for r in rows),
    }


def format_compare(diff: dict) -> str:
    lines = [f"{'eps':>8}  {'A':<20} {'B':<20} differ"]
    for row in diff["classes"]:
        lines.append(
            f"{row['eps']:>8g}  {row['class_a']:<20} {row['class_b']:<20} "
            f"{'yes' if row['differs'] else 'no'}"
        )
    lines.append(f"verdict A: {diff['verdict_a']}")
    lines.append(f"verdict B: {diff['verdict_b']}")
    lines.append("verdicts differ" if diff["verdicts_differ"] else "verdicts agree")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# presets


_PRESET_GRID = {
    "eps_grid": [0.25, 0.1],
    "n_schedule": [16, 32, 64, 128, 256, 512, 1024],
    "m": 512,
    "seeds": [101, 202, 303],
    "method": "Covering",
}


def _preset(system: dict, metric: dict, name: str) -> dict:
    return {"system": system, "metric": metric, "output_dir": f"results/{name}", **_PRESET_GRID}


def _presets() -> dict[str, dict]:
    rotation = {"kind": "CircleRotation", "alpha": (5 ** 0.5 - 1) / 2}
    torus = {"kind": "TorusTranslation", "alpha": (5 ** 0.5 - 1) / 2, "beta": 2 ** 0.5 - 1}
    anzai = {"kind": "AnzaiSkew", "alpha": (5 ** 0.5 - 1) / 2}
    fair = {"kind": "BernoulliShift", "weights": [0.5, 0.5]}
    biased = {"kind": "BernoulliShift", "weights": [0.9, 0.1]}
    euclid = {"type": "Euclidean1D"}
    abs_sq = {"type": "ClosedForm", "tag": "abs_plus_square"}
    arc_l1 = {"type": "TorusArcL1"}
    cut = {"type": "FirstSymbolCut"}
    block2 = {"type": "Block",
              "partition": {"kind": "first_symbols", "count": 2, "alphabet": 2}}
    names = {
        "rotation-euclid1d": (rotation, euclid),
        "rotation-abssq": (rotation, abs_sq),
        "torus-arc": (torus, arc_l1),
        "torus-euclid1d": (torus, euclid),
        "anzai-arc": (anzai, arc_l1),
        "anzai-euclid1d": (anzai, euclid),
        "bernoulli-fair-cut": (fair, cut),
        "bernoulli-fair-block2": (fair, block2),
        "bernoulli-biased-cut": (biased, cut),
        "bernoulli-biased-block2": (biased, block2),
    }
    return {name: _preset(sys_, met, name) for name, (sys_, met) in names.items()}


PRESETS = _presets()


# ---------------------------------------------------------------------------
# entry point


def _error_json(code: str, message: str, field: Optional[str] = None) -> str:
    err = {"code": code, "message": message}
    if field is not None:
        err["field"] = field
    return json.dumps({"error": err})


def _workers(raw: str) -> int:
    """The --workers value, a positive integer."""
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError("workers", f"workers must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ConfigError("workers", f"workers must be >= 1, got {workers}")
    return workers


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbent",
        description="entropy growth of orbit-averaged semimetrics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--output-dir", default=None, help="override the config output_dir")
    run_p.add_argument("--workers", default="1", help="worker threads (default 1)")

    cmp_p = sub.add_parser("compare", help="diff two result bundles")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")
    cmp_p.add_argument("--json", action="store_true", help="print the diff as JSON")

    pre_p = sub.add_parser("presets", help="bundled experiment configs")
    pre_sub = pre_p.add_subparsers(dest="preset_verb", required=True)
    pre_sub.add_parser("list", help="list preset names")
    emit_p = pre_sub.add_parser("emit", help="print a preset config as JSON")
    emit_p.add_argument("name")

    args = parser.parse_args(argv)

    try:
        if args.verb == "run":
            config = load_config(args.config, args.output_dir)
            paths = run_experiment(config, workers=_workers(args.workers))
            print(json.dumps(paths, indent=2, sort_keys=True))
            return 0
        if args.verb == "compare":
            diff = compare_bundles(args.dir_a, args.dir_b)
            print(json.dumps(diff, indent=2, sort_keys=True) if args.json
                  else format_compare(diff))
            return 0
        if args.verb == "presets":
            if args.preset_verb == "list":
                for name in sorted(PRESETS):
                    print(name)
                return 0
            if args.name not in PRESETS:
                raise ConfigError("name", f"unknown preset {args.name!r}; "
                                          f"known: {sorted(PRESETS)}")
            print(json.dumps(PRESETS[args.name], indent=2, sort_keys=True))
            return 0
        raise ConfigError("verb", f"unknown verb {args.verb!r}")
    except ConfigError as exc:
        print(_error_json("invalid_config", str(exc), exc.field), file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(_error_json("infeasible", str(exc)), file=sys.stderr)
        return 3
    except OrbentError as exc:
        print(_error_json("invalid_config", str(exc)), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
