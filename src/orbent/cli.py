"""Batch experiment harness: JSON configs in, CSV/JSON result bundles out.

Verbs: ``run <config.json>``, ``compare <dirA> <dirB>``, ``presets list``,
``presets emit <name>``.  Exit codes: 0 success, 2 invalid config (with a
machine-readable error object on stderr), 3 numerical infeasibility.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from . import admit, scaling
from .dynsys import DECODE, Record, SystemSpec
from .entropy import ESTIMATORS
from .errors import InfeasibleError, OrbentError, ParameterError
from .semimetric import Semimetric

# m-by-m float64 matrices one run may hold at once, with headroom: peak RSS of
# a one-worker run grows by about 3.1 of them with covering (orbit sum, this and
# the last step's matrix, estimator masks) and by about 4.1 with Kantorovich
WORKING_SET_MATRICES = 8

ROWS_CSV_HEADER = ("system", "metric", "eps", "n", "seed", "method", "value_bits")
ESTIMATES_CSV_HEADER = (
    "system", "metric", "method", "n", "eps", "m", "seed", "k",
    "value_bits", "lower_bound_bits",
)


class ConfigError(ParameterError):
    """Invalid experiment configuration; remembers the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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


def _list_field(obj: dict, key: str, kind: str) -> tuple:
    """A nonempty list of JSON numbers of ``kind`` (``int`` or ``float``),
    decoded strictly by ``DECODE[kind]``."""
    raw = obj[key]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(key, f"{key} must be a nonempty list")
    try:
        return tuple(DECODE[kind](x) for x in raw)
    except (TypeError, OverflowError) as exc:
        raise ConfigError(key, f"{key} entries: {exc}") from exc


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate a raw config object; errors name the offending field."""
    if not isinstance(obj, dict):
        raise ConfigError("config", "config must be a JSON object")
    required = ("system", "metric", "eps_grid", "n_schedule", "m", "seeds",
                "method", "output_dir")
    for key in required:
        if key not in obj:
            raise ConfigError(key, f"missing required field {key!r}")
    try:
        system = SystemSpec.from_json(obj["system"])
    except (OrbentError, KeyError, TypeError) as exc:
        raise ConfigError("system", f"invalid system: {exc}") from exc
    try:
        metric = Semimetric.from_json(obj["metric"])
    except (OrbentError, KeyError, TypeError) as exc:
        raise ConfigError("metric", f"invalid metric: {exc}") from exc

    eps_grid = _list_field(obj, "eps_grid", "float")
    if any(not (0 < e < math.inf) for e in eps_grid):
        raise ConfigError("eps_grid", "eps values must be positive and finite")
    if len(set(eps_grid)) < len(eps_grid):
        raise ConfigError("eps_grid", "eps_grid must not repeat a value")

    schedule = _list_field(obj, "n_schedule", "int")
    if any(n < 1 for n in schedule):
        raise ConfigError("n_schedule", "n_schedule entries must be >= 1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("n_schedule", "n_schedule must be strictly increasing")
    if len(schedule) < scaling.MIN_GROWTH_ROWS:
        raise ConfigError("n_schedule", f"n_schedule needs at least {scaling.MIN_GROWTH_ROWS} "
                                        "points to classify growth")

    try:
        m = DECODE["int"](obj["m"])
    except TypeError as exc:
        raise ConfigError("m", f"m: {exc}") from exc
    if m < admit.MIN_BALL_MASS_POINTS:
        raise ConfigError("m", f"m must be >= {admit.MIN_BALL_MASS_POINTS}, the points "
                               "the ball-mass test needs")
    need = WORKING_SET_MATRICES * 8 * m * m
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ConfigError(
            "m", f"m={m} needs about {need / 2 ** 30:.3g} GiB for "
                 f"{WORKING_SET_MATRICES} m-by-m float64 matrices, more than the "
                 f"{memory / 2 ** 30:.3g} GiB of physical memory",
        )

    seeds = _list_field(obj, "seeds", "int")

    method = str(obj["method"]).strip().capitalize()
    if method not in ESTIMATORS:
        raise ConfigError("method", f"method must be one of {tuple(ESTIMATORS)}")

    output_dir = obj["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "output_dir must be a nonempty path")

    # shift systems: make the symbol window cover the whole schedule
    if system.is_symbolic:
        needed = max(schedule) + metric.symbol_horizon() + 1
        if system.horizon < needed:
            system = replace(system, horizon=needed)

    return ExperimentConfig(
        system=system, metric=metric, eps_grid=eps_grid, n_schedule=schedule,
        m=m, seeds=seeds, method=method, output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("config", f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"config is not valid JSON: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# experiment runner


def _dump_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> dict:
    """Run the full pipeline and write the result bundle to output_dir.

    Returns a dict of written paths.  Outputs are byte-identical for
    identical configs regardless of the worker count.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    workers = workers or 1

    def seed_job(seed: int):
        return scaling.profile_cells(
            config.system, config.metric, config.n_schedule, config.m, [seed],
            config.eps_grid, config.method,
        )

    cells: dict = {}
    limit_reports: dict = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(seed_job, config.seeds))
    else:
        parts = [seed_job(seed) for seed in config.seeds]
    for part_cells, part_reports in parts:
        cells.update(part_cells)
        limit_reports.update(part_reports)

    profiles = [
        scaling.assemble_profile(
            config.system, config.metric, config.method, eps,
            config.n_schedule, config.seeds, cells,
        )
        for eps in config.eps_grid
    ]
    verdict = scaling.discreteness_verdict(profiles)

    # admissibility diagnostics of the base metric, and of the largest-n
    # average from each seed's pass
    base_report = admit.admissibility_report(
        config.system, config.metric, m=min(config.m, 1024), seed=config.seeds[0],
        eps=min(config.eps_grid),
    )
    min_eps_profile = min(profiles, key=lambda p: p.eps)
    limit_report = scaling.limit_metric_check(
        max(config.n_schedule), config.seeds, limit_reports,
        profile_class=min_eps_profile.growth_class,
    )

    paths = {
        "config": out / "config.json",
        "rows": out / "rows.csv",
        "estimates": out / "estimates.csv",
        "profile": out / "profile.json",
        "verdict": out / "verdict.json",
        "admissibility": out / "admissibility.json",
    }

    _dump_json(paths["config"], config.to_json())

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

    _dump_json(paths["profile"], {"profiles": [p.to_json() for p in profiles]})
    _dump_json(paths["verdict"], verdict.to_json())
    _dump_json(paths["admissibility"], {
        "base": base_report.to_json(),
        "averaged": limit_report.to_json(),
    })
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
                verdict = json.load(fh)["verdict"]
        except (FileNotFoundError, json.JSONDecodeError, KeyError, ParameterError) as exc:
            raise ConfigError("bundle", f"not a result bundle: {bundle_dir} ({exc})") from exc
        return profiles, verdict

    profiles_a, verdict_a = load(dir_a)
    profiles_b, verdict_b = load(dir_b)
    grid_a = sorted(p.eps for p in profiles_a)
    grid_b = sorted(p.eps for p in profiles_b)
    if grid_a != grid_b:
        raise ConfigError(
            "eps_grid", f"bundles have incompatible eps grids: {grid_a} vs {grid_b}"
        )
    by_eps_a = {p.eps: p.growth_class for p in profiles_a}
    by_eps_b = {p.eps: p.growth_class for p in profiles_b}
    rows = []
    for eps in grid_a:
        cls_a, cls_b = by_eps_a[eps], by_eps_b[eps]
        rows.append({
            "eps": eps, "class_a": str(cls_a), "class_b": str(cls_b),
            "differs": cls_a != cls_b,
        })
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


_ROTATION_GRID = {
    "eps_grid": [0.25, 0.1],
    "n_schedule": [16, 32, 64, 128, 256, 512, 1024],
    "m": 512,
    "seeds": [101, 202, 303],
    "method": "Covering",
}


def _preset(system: dict, metric: dict, name: str) -> dict:
    config = {"system": system, "metric": metric, "output_dir": f"results/{name}"}
    config.update(_ROTATION_GRID)
    return config


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
            config = load_config(args.config)
            if args.output_dir:
                config = replace(config, output_dir=args.output_dir)
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
