"""Byte-for-byte comparison of the result bundles of two checkouts.

Run from anywhere, with two checkouts (the parent commit and the change):

    python3 scripts/compare_presets.py --parent <dir> --change <dir> \
        --work <dir> [--config extra.json ...]

The cases are every preset of each checkout (``orbent presets emit``), the
benchmark's workload configs at seed ``WORKLOAD_SEED`` (``make_config`` of each
name in ``orbench/workloads.py``'s ``NAMES``) and the controls of ``CONTROLS``,
configs that reach the fallback paths and known wrongs no preset reaches; each
``--config`` adds one more case, named by its file stem.  Each case runs
through ``orbent run`` at ``--workers`` 1 and 2 in both checkouts, with its
bundle in ``<work>/<side>/<name>/w<workers>``.  The six bundle files must be
byte-identical between the checkouts at each worker count, and the w1 bundle
must equal the w2 bundle in each checkout.  config.json is compared without
its ``output_dir``.  One line per case names every differing file, and an
indented line after it names the dotted keys that differ in each differing
JSON file, for example ``admissibility.json: base.ball_mass_fraction,
base.pc_probability``.  A differing verdict.json adds one more line with both
sides' values, for example ``verdict: DiscreteSpectrumEvidence -> Undetermined
(0.25: Bounded -> Undetermined, 0.1: Bounded -> Undetermined)``, so the log
lists every verdict a change moves.

A scoreboard follows: one line per case and side with the verdict of its w1
bundle beside the spectrum that the config's top-level system kind has
(``SPECTRUM``) and its score, then per side the count of ok and wrong
verdicts, how many of them are Undetermined, how many ok verdicts are not
(the right positive calls) and how many cases are unexpected.  The bundle
check and the rule that marks a verdict ok on a spectrum are the
benchmark's (``orbench/run.py``: ``read_bundle`` and ``outcome``), so the
repo has one definition of a correct verdict.

``KNOWN_ANSWERS`` holds what is known of each case beyond "ok": ``"positive"``
for a right positive call, or the reason, naming its ROADMAP item or defect,
for a known wrong.  A wrong line ends with its reason, and a line whose score
differs from its entry (a lost positive call, a new wrong, or a known wrong
that came right) ends with ``unexpected``.  Tier-1 gates the table:
``tests/test_compare_presets.py`` runs every case in-process at one worker
and scores it here, each known wrong a strict xfail with its reason.  The
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
WORKLOAD_SEED = 7
# the spectrum of each top-level system kind, in the benchmark's labels
SPECTRUM = {
    "CircleRotation": "discrete", "TorusTranslation": "discrete", "Identity": "discrete",
    "BernoulliShift": "lebesgue", "AnzaiSkew": "mixed",
}

_CONTROL_GRID = {"eps_grid": [0.25, 0.1], "n_schedule": [1, 2, 4, 8], "m": 64,
                 "seeds": [1, 2, 3], "method": "Covering"}
_ROTATION = {"kind": "CircleRotation", "alpha": orbench.workloads.GOLDEN}
_ANZAI = {"kind": "AnzaiSkew", "alpha": orbench.workloads.GOLDEN}
_SHIFT_73 = {"kind": "BernoulliShift", "weights": [0.7, 0.3]}
# the control configs, each a case on the grid above unless it says otherwise
CONTROLS = {name: {**_CONTROL_GRID, **fields, "output_dir": name} for name, fields in {
    # an Identity system, whose averages are fixed points
    "identity-euclid1d": {"system": {"kind": "Identity"}, "metric": {"type": "Euclidean1D"}},
    # the separated-set test reads blocks of 32 points, so at m = 64 a share
    # is 0, 1/2 or 1; here the first seed, 2, reads a base share of 0.25 of
    # four blocks, where seed 1 would read 1
    "biased-block5": {
        "system": {"kind": "BernoulliShift", "weights": [0.8, 0.2]},
        "metric": {"type": "Block",
                   "partition": {"kind": "first_symbols", "count": 5, "alphabet": 2}},
        "m": 128, "seeds": [2, 1, 3]},
    # a cut off a shift steps the whole map: the cut's fallback path
    "rotation-dyadic-cut": {
        "system": _ROTATION,
        "metric": {"type": "Block", "partition": {"kind": "dyadic_intervals", "level": 3}}},
    # an arc node whose coordinate the skew's linear part fixes is a fixed
    # point while the map moves another coordinate: the arc's fallback path
    "anzai-circle-arc": {"system": _ANZAI, "metric": {"type": "CircleArc"}},
    # a limit report of one seed, and more workers than seeds at --workers 2
    "rotation-one-seed": {"system": _ROTATION, "metric": {"type": "Euclidean1D"}, "seeds": [5]},
    # every cone operation: an explicit Optional horizon and systems nested
    # inside nodes, which no preset decodes
    "nested-cone": {
        "system": {**_SHIFT_73, "horizon": 40},
        "metric": {"type": "Mix", "t": 0.25,
                   "a": {"type": "Cutoff", "level": 0.5, "inner": {"type": "FirstSymbolCut"}},
                   "b": {"type": "PullBack", "k": 2, "system": _SHIFT_73,
                         "inner": {"type": "Average", "n": 3, "system": _SHIFT_73,
                                   "inner": {"type": "Block", "partition": {
                                       "kind": "first_symbols", "count": 2, "alphabet": 2}}}}}},
    # Discrete is the one node that reads whole symbol windows, so its
    # sample-kind branch and the window stepping of advance_sample run
    "shift-mix-discrete": {
        "system": {"kind": "BernoulliShift", "weights": [0.6, 0.4]},
        "metric": {"type": "Mix", "t": 0.5,
                   "a": {"type": "Discrete"}, "b": {"type": "FirstSymbolCut"}}},
    # a closed form other than the presets' abs_plus_square, under Kantorovich
    "rotation-rotated-kantorovich": {
        "system": _ROTATION, "metric": {"type": "ClosedForm", "tag": "mean_rotated_abs_diff"},
        "method": "Kantorovich"},
    # Average.values runs from a parent node on coordinates, so the
    # explicit-rows tile path under the arc's linear part runs
    "anzai-skew-mix": {
        "system": _ANZAI,
        "metric": {"type": "Mix", "t": 0.5,
                   "a": {"type": "Cutoff", "level": 0.4,
                         "inner": {"type": "Average", "n": 5, "system": _ANZAI,
                                   "inner": {"type": "TorusArcL1"}}},
                   "b": {"type": "Average", "n": 3, "system": _ANZAI,
                         "inner": {"type": "Euclidean1D"}}}},
}.items()}

# each case that is more than just ok: "positive" for a right positive call,
# else the reason it is a known wrong; a case named nowhere here must be ok
KNOWN_ANSWERS = {
    **dict.fromkeys(("anzai-arc", "anzai-orbit", "bernoulli-biased-cut", "biased-block5",
                     "identity-euclid1d", "rotation-abssq", "rotation-euclid1d",
                     "rotation-rotated-kantorovich", "torus-arc", "torus-euclid1d"), "positive"),
    "anzai-circle-arc": "CircleArc reads only the skew's first coordinate, its circle factor, "
                        "whose spectrum is discrete: a factor metric (ROADMAP item 5)",
    "anzai-euclid1d": "Euclidean1D reads only the skew's circle factor, whose spectrum is "
                      "discrete: a factor metric (ROADMAP item 5)",
    "rotation-dyadic-cut": "the dyadic cut's averages approach their limit slowly, so at m = 64 "
                           "the eps 0.1 rows rise up to n = 8 (ROADMAP D1)",
}


def orbent(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "orbent.cli", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def write_configs(texts: dict[str, str], dest: Path) -> dict[str, Path]:
    """Write each config text to ``dest/<name>.json``."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = {name: dest / f"{name}.json" for name in texts}
    for name, path in paths.items():
        path.write_text(texts[name])
    return paths


def preset_configs(tree: Path, dest: Path) -> dict[str, Path]:
    """Write each preset of the checkout ``tree`` to ``dest/<name>.json``."""
    names = orbent(tree, "presets", "list").stdout.split()
    return write_configs({name: orbent(tree, "presets", "emit", name).stdout
                          for name in names}, dest)


def default_configs() -> dict[str, dict]:
    """The cases every run compares beside the presets: the benchmark's
    workload configs at ``WORKLOAD_SEED``, then ``CONTROLS``."""
    workloads = orbench.workloads
    return {**{name: workloads.make_config(name, WORKLOAD_SEED) for name in workloads.NAMES},
            **CONTROLS}


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


def score(bundle: Path) -> tuple[str, dict]:
    """The top-level system kind of a bundle's config and the benchmark's
    outcome of the bundle on that kind's spectrum; OSError, ValueError,
    KeyError or TypeError when the bundle is missing or malformed."""
    config = json.loads((bundle / "config.json").read_text())
    kind = config["system"]["kind"]
    return kind, orbench.outcome(orbench.read_bundle(bundle, config), config, SPECTRUM[kind])


def unexpected(name: str, result: dict) -> bool:
    """Whether the outcome of case ``name`` differs from its ``KNOWN_ANSWERS``
    entry: a lost positive call, a new wrong, or a known wrong that came right."""
    entry = KNOWN_ANSWERS.get(name)
    if entry == "positive":
        return not result["verdict_ok"] or result["verdict"] == "Undetermined"
    return bool(result["verdict_ok"]) == (entry is not None)


def scoreboard(work: Path, names: list[str]) -> list[str]:
    """One line per case and side with a readable w1 bundle, its verdict
    beside the spectrum of its system kind and the benchmark's score, then
    one tally per side."""
    lines = []
    for side in SIDES:
        tally = dict.fromkeys(("ok", "wrong", "undetermined", "positive", "unexpected"), 0)
        for name in names:
            try:
                kind, result = score(work / side / name / "w1")
            except (OSError, ValueError, KeyError, TypeError):
                continue  # the run failed, and its case line says so
            grade = "ok" if result["verdict_ok"] else "wrong"
            tally[grade] += 1
            tally["undetermined"] += result["verdict"] == "Undetermined"
            tally["positive"] += result["verdict_ok"] and result["verdict"] != "Undetermined"
            line = (f"  {name} {side}: {result['verdict']} on {kind}"
                    f" ({SPECTRUM[kind]} spectrum): {grade}")
            if unexpected(name, result):
                tally["unexpected"] += 1
                line += ", unexpected"
            elif grade == "wrong":
                line += f": {KNOWN_ANSWERS[name]}"
            lines.append(line)
        lines.append(f"{side}: {tally['ok']} ok, {tally['wrong']} wrong,"
                     f" {tally['undetermined']} of them Undetermined,"
                     f" {tally['positive']} right positive calls,"
                     f" {tally['unexpected']} unexpected")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--config", type=Path, action="append", default=[],
                        help="one more experiment config; may repeat")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    cases: dict[str, dict[str, Path]] = {}
    for side in SIDES:
        for name, path in preset_configs(trees[side], args.work / side / "configs").items():
            cases.setdefault(name, {})[side] = path
    extra = write_configs({name: json.dumps(config) for name, config in default_configs().items()},
                          args.work / "configs")
    for name, path in [*extra.items(), *((path.stem, path) for path in args.config)]:
        if name in cases:
            parser.error(f"config name {name!r} is already a case")
        cases[name] = {side: path for side in SIDES}

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
