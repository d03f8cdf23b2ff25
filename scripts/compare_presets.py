"""Byte-for-byte comparison of the result bundles of two checkouts.

Run from anywhere, with two checkouts (the parent commit and the change):

    python3 scripts/compare_presets.py --parent <dir> --change <dir> \
        --work <dir> [--config extra.json ...]

Every preset of each checkout (``orbent presets emit``) and every extra config
runs through ``orbent run`` at ``--workers`` 1 and 2 in both checkouts, with
its bundle in ``<work>/<side>/<name>/w<workers>``; an extra config is named by
its file stem.  The six bundle files must be byte-identical between the
checkouts at each worker count, and the w1 bundle must equal the w2 bundle in
each checkout.  config.json is compared without its ``output_dir``.  One line
per case names every differing file, and an indented line after it names
the dotted keys that differ in each differing JSON file, for example
``admissibility.json: base.ball_mass_fraction, base.pc_probability``.  A differing
verdict.json adds one more line with both sides' values, for example
``verdict: DiscreteSpectrumEvidence -> Undetermined (0.25: Bounded ->
Undetermined, 0.1: Bounded -> Undetermined)``, so the log lists every verdict
a change moves.

A scoreboard follows: one line per case and side with the verdict of its w1
bundle beside the spectrum that the config's top-level system kind has
(``SPECTRUM``), then per side the count of ok and wrong verdicts and how many
of them are Undetermined.  The bundle check and the rule that marks a verdict
ok on a spectrum are the benchmark's (``orbench/run.py``: ``read_bundle``
and ``outcome``), so the repo has one definition of a correct verdict.  The
exit code is 1 when any file differs or any run fails, else 0; the
scoreboard does not change it.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "orbench"))
import run as orbench  # noqa: E402

BUNDLE_FILES = orbench.BUNDLE_FILES
SIDES = ("parent", "change")
WORKERS = (1, 2)
# the spectrum of each top-level system kind, in the benchmark's labels
SPECTRUM = {
    "CircleRotation": "discrete", "TorusTranslation": "discrete", "Identity": "discrete",
    "BernoulliShift": "lebesgue", "AnzaiSkew": "mixed",
}


def orbent(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "orbent.cli", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def preset_configs(tree: Path, dest: Path) -> dict[str, Path]:
    """Write each preset of the checkout ``tree`` to ``dest/<name>.json``."""
    dest.mkdir(parents=True, exist_ok=True)
    configs = {}
    for name in orbent(tree, "presets", "list").stdout.split():
        path = dest / f"{name}.json"
        path.write_text(orbent(tree, "presets", "emit", name).stdout)
        configs[name] = path
    return configs


def run_bundle(tree: Path, config: Path, out: Path, workers: int) -> Optional[str]:
    """Run ``config`` in ``tree`` into a fresh ``out``; the error text if the
    run fails."""
    shutil.rmtree(out, ignore_errors=True)
    proc = orbent(tree, "run", str(config.resolve()), "--output-dir", str(out.resolve()),
                  "--workers", str(workers))
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return None


def _file_bytes(path: Path) -> Optional[bytes]:
    if not path.is_file():
        return None
    if path.name == "config.json":
        config = json.loads(path.read_text())
        config.pop("output_dir", None)
        return json.dumps(config, sort_keys=True).encode()
    return path.read_bytes()


def differing_files(dir_a: Path, dir_b: Path) -> list[str]:
    """Bundle files that differ between two bundle directories, or are
    missing from either."""
    return [name for name in BUNDLE_FILES
            if _file_bytes(dir_a / name) is None
            or _file_bytes(dir_a / name) != _file_bytes(dir_b / name)]


def differing_keys(a, b, path: str = "") -> list[str]:
    """Dotted paths of the values that differ between two decoded JSON
    values; a key on one side only, or a list of another length, is one
    path, and list entries are named by their index."""
    def sub(key) -> str:
        return f"{path}.{key}" if path else str(key)

    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(set(a) | set(b)) for p in (
            differing_keys(a[key], b[key], sub(key)) if key in a and key in b else [sub(key)])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in differing_keys(x, y, sub(i))]
    return [] if type(a) is type(b) and a == b else [path or "(top level)"]


def key_lines(dir_a: Path, dir_b: Path, names: list[str]) -> list[str]:
    """One line per differing JSON file that both bundles hold, naming the
    differing keys."""
    lines = []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            a, b = (json.loads(_file_bytes(d / name)) for d in (dir_a, dir_b))
        except (TypeError, ValueError):  # missing from a bundle, or not JSON
            continue
        lines.append(f"  {name}: {', '.join(differing_keys(a, b)) or 'layout only'}")
        if name == "verdict.json":
            lines.append(verdict_line(a, b))
    return lines


def verdict_line(a: dict, b: dict) -> str:
    """The verdicts and per-eps growth classes of two verdict.json objects,
    as ``  verdict: A -> B (0.25: Bounded -> Undetermined, ...)``; a value
    missing from one side reads ``-``."""
    def kind(verdict: dict, eps: str) -> str:
        return verdict.get("per_eps", {}).get(eps, {}).get("kind", "-")

    per_eps = list(dict.fromkeys([*a.get("per_eps", {}), *b.get("per_eps", {})]))
    classes = ", ".join(f"{float(eps):g}: {kind(a, eps)} -> {kind(b, eps)}" for eps in per_eps)
    return f"  verdict: {a.get('verdict', '-')} -> {b.get('verdict', '-')} ({classes})"


def compare_case(work: Path, name: str) -> list[str]:
    """The difference lines of one case whose bundles are all written, each
    JSON file's differing keys on an indented line after it."""
    pairs = [(f"parent/w{w} vs change/w{w}", *(work / side / name / f"w{w}" for side in SIDES))
             for w in WORKERS]
    pairs += [(f"{side}/w1 vs {side}/w2", *(work / side / name / f"w{w}" for w in WORKERS))
              for side in SIDES]
    lines = []
    for label, a, b in pairs:
        diff = differing_files(a, b)
        if diff:
            lines.append(f"{name}: {label}: {' '.join(diff)}")
            lines += key_lines(a, b, diff)
    return lines


def scoreboard(work: Path, names: list[str]) -> list[str]:
    """One line per case and side with a readable w1 bundle, its verdict
    beside the spectrum of its system kind and the benchmark's score, then
    one tally per side."""
    lines = []
    for side in SIDES:
        tally = dict.fromkeys(("ok", "wrong", "undetermined"), 0)
        for name in names:
            bundle = work / side / name / "w1"
            try:
                config = json.loads((bundle / "config.json").read_text())
                kind = config["system"]["kind"]
                result = orbench.outcome(orbench.read_bundle(bundle, config), config,
                                         SPECTRUM[kind])
            except (OSError, ValueError, KeyError, TypeError):
                continue  # the run failed, and its case line says so
            score = "ok" if result["verdict_ok"] else "wrong"
            tally[score] += 1
            tally["undetermined"] += result["verdict"] == "Undetermined"
            lines.append(f"  {name} {side}: {result['verdict']} on {kind}"
                         f" ({SPECTRUM[kind]} spectrum): {score}")
        lines.append(f"{side}: {tally['ok']} ok, {tally['wrong']} wrong,"
                     f" {tally['undetermined']} of them Undetermined")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--config", type=Path, action="append", default=[],
                        help="an extra experiment config; may repeat")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    cases: dict[str, dict[str, Path]] = {}
    for side in SIDES:
        for name, path in preset_configs(trees[side], args.work / side / "configs").items():
            cases.setdefault(name, {})[side] = path
    for path in args.config:
        if path.stem in cases:
            parser.error(f"config name {path.stem!r} is already a case")
        cases[path.stem] = {side: path for side in SIDES}

    failed = False
    for name, configs in sorted(cases.items()):
        errors = []
        for side in SIDES:
            if side not in configs:
                errors.append(f"{side} has no preset {name!r}")
                continue
            for workers in WORKERS:
                error = run_bundle(trees[side], configs[side],
                                   args.work / side / name / f"w{workers}", workers)
                if error:
                    errors.append(f"{side}/w{workers} {error}")
        lines = [f"{name}: run failed: {e}" for e in errors] or compare_case(args.work, name)
        print("\n".join(lines) if lines else f"{name}: identical", flush=True)
        failed = failed or bool(lines)
    print("\n".join(scoreboard(args.work, sorted(cases))))
    print(f"{len(cases)} cases, {'differences found' if failed else 'all identical'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
