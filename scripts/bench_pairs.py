"""Alternating parent/change pairs of the orbench benchmark, as one JSON file.

Run from anywhere, with two checkouts (the parent commit and the change):

    python3 scripts/bench_pairs.py --parent <dir> --change <dir> \
        --workloads rotation-quantize:2301-2310 shift-cut:2401-2405 \
        --seconds 20 --out BENCH_<topic>.json

For each workload and each seed of its range, ``orbench/run.py --trace 0``
runs once in each checkout, alternating which side runs first.  Each pair
records both sides' end-to-end metrics, failed runs and bundle digests.  A
side whose orbench process exits non-zero prints no result: it is recorded
as failed (``failed`` equal to ``attempted``, no metrics) and the batch goes
on.  Each workload gets, per metric (all four are lower-is-better), the
per-side medians and interquartile ranges over the sides that produced one,
the number of pairs the change wins (ties count for neither), and two
verdicts:

- ``claim_met``: the change wins at least 9/10 of all pairs run, and its
  median is lower than the parent's by more than the parent's IQR;
- ``regressed``: the change median exceeds the parent median by more than
  the metric's ``bound`` in the parent's ``BENCHMARK.json``, as a fraction
  of the parent median.

The report records the length of each checkout's absolute path, and a warning
goes to stderr when they differ: shift-cut ``peak_rss_mb`` has been seen to
step by about 1.2 MiB with the length of the checkout directory's name alone.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "peak_rss_mb", "setup_s", "ceiling_share")


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "orbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {"failed": 1, "attempted": 1, "digest": None, "exit_code": proc.returncode,
                "error": proc.stderr.strip()[-500:]}
    out = proc.stdout.splitlines()
    result = json.loads(out[-1])
    digest = next(line.split()[1] for line in out if line.startswith("digest "))
    return {"failed": result["failed"], "attempted": result["attempted"], "digest": digest,
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:  # statistics.quantiles needs two points
        median = values[0] if values else None
        return {"median": median, "iqr": None if median is None else 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per-metric medians, IQRs, wins and the claim and regression verdicts."""
    summary = {}
    for metric in METRICS:
        entry = {side: quartiles([p[side][metric] for p in pairs if metric in p[side]])
                 for side in ("parent", "change")}
        wins = sum(metric in p["parent"] and metric in p["change"]
                   and p["change"][metric] < p["parent"][metric] for p in pairs)
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        measured = parent is not None and change is not None
        entry["change_better_pairs"] = wins
        entry["claim_met"] = (measured and wins >= 0.9 * len(pairs)
                              and parent - change > entry["parent"]["iqr"])
        entry["regressed"] = measured and change - parent > bounds[metric] * parent
        summary[metric] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True,
                        help="name:first-last seed ranges, such as shift-cut:101-110")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    path_lengths = {side: len(str(tree)) for side, tree in trees.items()}
    if path_lengths["parent"] != path_lengths["change"]:
        print(f"warning: the checkout paths differ in length ({path_lengths}); peak_rss_mb "
              "can move with the path alone", file=sys.stderr)

    report = {"command": "python3 orbench/run.py --workload <workload> --seed <seed> "
                         f"--seconds {args.seconds} --trace 0",
              "path_lengths": path_lengths, "workloads": {}}
    for spec in args.workloads:
        name, seeds = spec.split(":")
        first, last = (int(s) for s in seeds.split("-"))
        pairs = []
        for i, seed in enumerate(range(first, last + 1)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], name, seed, args.seconds)
            pair["digest_identical"] = (pair["parent"]["digest"] is not None
                                        and pair["parent"]["digest"] == pair["change"]["digest"])
            pairs.append(pair)
            print(json.dumps(pair), flush=True)
        report["workloads"][name] = {"pairs": pairs, "summary": summarize(pairs, bounds)}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
