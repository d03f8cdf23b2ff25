"""Alternating parent/change pairs of the orbench benchmark, as one JSON file.

Run from anywhere, with two checkouts (the parent commit and the change):

    python3 scripts/bench_pairs.py --parent <dir> --change <dir> \
        --workloads rotation-quantize:2301-2310 shift-cut:2401-2405 \
        --seconds 20 --out BENCH_<topic>.json

For each workload and each seed of its range, ``orbench/run.py --trace 0``
runs once in each checkout, alternating which side runs first.  Each pair
records both sides' end-to-end metrics, failed runs and bundle digests; each
workload gets the per-side medians and interquartile ranges, and the number
of pairs the change wins on every metric (all four are lower-is-better).
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
    out = subprocess.run(
        [sys.executable, "orbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    digest = next(line.split()[1] for line in out if line.startswith("digest "))
    return {"failed": result["failed"], "attempted": result["attempted"], "digest": digest,
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


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

    report = {"command": "python3 orbench/run.py --workload <workload> --seed <seed> "
                         f"--seconds {args.seconds} --trace 0",
              "workloads": {}}
    for spec in args.workloads:
        name, seeds = spec.split(":")
        first, last = (int(s) for s in seeds.split("-"))
        pairs = []
        for i, seed in enumerate(range(first, last + 1)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], name, seed, args.seconds)
            pair["digest_identical"] = pair["parent"]["digest"] == pair["change"]["digest"]
            pairs.append(pair)
            print(json.dumps(pair), flush=True)
        summary = {}
        for metric in METRICS:
            summary[metric] = {
                side: quartiles([p[side][metric] for p in pairs]) for side in trees
            }
            summary[metric]["change_better_pairs"] = sum(
                p["change"][metric] < p["parent"][metric] for p in pairs)
        report["workloads"][name] = {"pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
