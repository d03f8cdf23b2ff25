"""Benchmark of ``orbent run``, the command users wait on for a verdict.

Run from the root of a checkout:

    python3 orbench/run.py --workload shift-cut --seed 1 --seconds 20 --trace 0

One invocation measures one workload (``--workload all`` runs each in turn).
It writes the workload's config, generated from ``--seed`` by
``workloads.py``, and then:

1. runs ``orbent run --workers 2`` once, untimed: it warms the caches and
   its bundle must match the single-worker bundles digest for digest;
2. with ``--trace 0``, times a fresh ``import orbent.cli`` several times
   (``setup_s``);
3. runs fresh ``python -m orbent.cli run <config> --workers 1`` processes
   for ``--seconds`` seconds (at least three, unless they run so slowly that
   the invocation would overrun), each timed spawn to exit, its peak memory
   read from its own rusage;
4. with ``--trace 1``, runs the same config once more in process with a span
   around each layer's public functions (``child.py trace``), recomputes a
   seeded subset of cells with the standalone ``entropy_estimate`` and reads
   ``python -X importtime``.

Every run is checked: exit code 0, all six bundle files present and
parseable, one rows.csv row per (eps, n, seed) cell, and the same bundle
digest as every other run of the set.  A run that fails any check counts in
``failed``.  A readable report goes to standard output and to
``.orbench_work/reports/``; the last line of standard output is the JSON
result, with the end-to-end metrics under ``--trace 0`` and the per-layer
metrics under ``--trace 1``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".orbench_work"

# name -> unit; BENCHMARK.json lists the same names
E2E_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ceiling_share": "fraction",
}
SPAN_TIME_METRICS = (
    "semimetric.stream", "semimetric.distance_matrix", "semimetric.pairwise",
    "scaling.limit_check", "scaling.profile_cells", "scaling.assemble",
    "entropy.estimate", "admit.report", "admit.random_matrix",
    "admit.ball_mass", "dynsys.sample_points", "cli.run_experiment",
)
SPAN_CALL_METRICS = (
    "semimetric.distance_matrix", "semimetric.pairwise", "entropy.estimate",
    "entropy.transport", "dynsys.sample_points", "admit.trace",
)
SELF_TIME_LAYERS = ("dynsys", "semimetric", "entropy", "admit", "scaling")
IMPORTED_MODULES = (
    "numpy", "orbent", "orbent.dynsys", "orbent.semimetric", "orbent.entropy",
    "orbent.admit", "orbent.scaling", "orbent.cli",
)
LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_TIME_METRICS},
    **{f"{name}.calls": "count" for name in SPAN_CALL_METRICS},
    "semimetric.stream.pair_steps_per_s": "pair_steps/s",
    "cli.write.s": "s",
    "cli.bundle_bytes": "bytes",
    **{f"layer.{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    **{f"setup.import.{mod}.s": "s" for mod in IMPORTED_MODULES},
    "entropy.saturated_frac": "fraction",
    "scaling.verdict_ok": "flag",
}

BUNDLE_FILES = (
    "config.json", "rows.csv", "estimates.csv", "profile.json", "verdict.json",
    "admissibility.json",
)
MIN_TIMED_RUNS = 3
SETUP_REPEATS = 3
RECOMPUTED_CELLS = 2
SATURATION_MARGIN_BITS = 0.25
RUN_TIMEOUT_S = 45.0
# no timed run starts if, at the last run's pace, it would end later than
# --seconds plus this allowance after the invocation started, even short of
# MIN_TIMED_RUNS: on a slow machine an invocation stays near its usual length
SLACK_S = 24.0


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, log: Path, timeout: float = RUN_TIMEOUT_S) -> dict:
    """Run ``argv`` to completion; wall time spawn to exit and its own rusage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "timed_out": proc.returncode == -9 and wall >= timeout,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _tail(log: Path) -> str:
    text = log.read_text(errors="replace").strip().splitlines()
    return text[-1] if text else ""


# ---------------------------------------------------------------------------
# bundle checks


def read_bundle(bundle: Path, config: dict) -> dict:
    """Parse and check a result bundle; raises ValueError on a bad bundle."""
    digest = hashlib.sha256()
    size = 0
    for name in BUNDLE_FILES:
        path = bundle / name
        if not path.is_file():
            raise ValueError(f"missing {name}")
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    parsed = {name: json.loads((bundle / name).read_text())
              for name in BUNDLE_FILES if name.endswith(".json")}
    cells = len(config["eps_grid"]) * len(config["n_schedule"]) * len(config["seeds"])
    tables = {}
    for name in ("rows.csv", "estimates.csv"):
        with open(bundle / name, newline="") as fh:
            tables[name] = list(csv.DictReader(fh))
        if len(tables[name]) != cells:
            raise ValueError(f"{name} has {len(tables[name])} rows, expected {cells}")
    rows = [(float(r["eps"]), int(r["n"]), int(r["seed"]), float(r["value_bits"]))
            for r in tables["rows.csv"]]
    verdict = parsed["verdict.json"]
    if not isinstance(verdict.get("verdict"), str) or not isinstance(verdict.get("per_eps"), dict):
        raise ValueError("verdict.json lacks its verdict or per_eps entries")
    return {"digest": digest.hexdigest(), "bytes": size, "rows": rows, "verdict": verdict}


def ceiling_bits(eps: float, m: int) -> float:
    """log2(m - floor(eps*m)): the most bits a covering of the sample can show."""
    return math.log2(m - math.floor(eps * m))


def outcome(bundle: dict, config: dict, spectrum: str) -> dict:
    """Saturation and verdict figures of a checked bundle."""
    m = config["m"]
    shares = [bits / ceiling_bits(eps, m) for eps, _, _, bits in bundle["rows"]]
    saturated = [bits >= ceiling_bits(eps, m) - SATURATION_MARGIN_BITS
                 for eps, _, _, bits in bundle["rows"]]
    verdict = bundle["verdict"]
    if spectrum == "discrete":
        ok = verdict["verdict"] != "NotDiscreteEvidence"
    elif spectrum == "lebesgue":
        ok = all(cls["kind"] != "Bounded" for cls in verdict["per_eps"].values())
    else:
        ok = verdict["verdict"] != "DiscreteSpectrumEvidence"
    return {
        "ceiling_share": sum(shares) / len(shares),
        "saturated_frac": sum(saturated) / len(saturated),
        "verdict": verdict["verdict"],
        "verdict_ok": int(ok),
    }


# ---------------------------------------------------------------------------
# trace analysis


def span_totals(spans: list) -> dict:
    """Per span name: inclusive seconds, self seconds and call count.

    A span's self time is its duration minus its children's; one worker, so
    children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
        entry["calls"] += 1
    return totals


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return cumulative


def layer_metrics(spans: list, traced_wall: float, untraced_wall: float,
                  config: dict, bundle: dict, result: dict, imports: dict) -> dict:
    totals = span_totals(spans)

    def get(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    steps = len(config["seeds"]) * config["m"] ** 2 * max(config["n_schedule"])
    stream_s = get("semimetric.stream", "s")
    attributed = sum(t["self_s"] for t in totals.values())
    values = {
        **{f"{name}.s": get(name, "s") for name in SPAN_TIME_METRICS},
        **{f"{name}.calls": get(name, "calls") for name in SPAN_CALL_METRICS},
        "semimetric.stream.pair_steps_per_s": steps / stream_s if stream_s else 0.0,
        "cli.write.s": get("cli.run_experiment", "self_s"),
        "cli.bundle_bytes": bundle["bytes"],
        **{f"layer.{layer}.self_s": sum(t["self_s"] for name, t in totals.items()
                                        if name.startswith(layer + "."))
           for layer in SELF_TIME_LAYERS},
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - attributed,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(spans),
        **{f"setup.import.{mod}.s": imports.get(mod, 0.0) for mod in IMPORTED_MODULES},
        "entropy.saturated_frac": result["saturated_frac"],
        "scaling.verdict_ok": result["verdict_ok"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def e2e_metrics(walls: list, rss: list, setups: list, result: dict) -> dict:
    values = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "ceiling_share": result["ceiling_share"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


# ---------------------------------------------------------------------------
# one workload


class Session:
    """The runs of one invocation on one workload, and their checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = workloads.make_config(workload, seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.runs: list[dict] = []
        self.bundles: dict[str, dict] = {}  # digest -> parsed bundle
        self.bundle: dict | None = None  # the set's reference bundle

    def orbent_run(self, kind: str, workers: int) -> dict:
        return self.checked(kind, _python(
            "-m", "orbent.cli", "run", str(self.config_path),
            "--workers", str(workers), "--output-dir", "bundle",
        ))

    def checked(self, kind: str, argv: list[str]) -> dict:
        """Spawn a run that writes ``bundle``, then check its exit and bundle."""
        bundle_dir = self.work / "bundle"
        shutil.rmtree(bundle_dir, ignore_errors=True)
        log = self.work / f"{kind}-{len(self.runs)}.log"
        run = spawn(argv, self.work, log)
        run["kind"] = kind
        run["error"] = None
        if run["timed_out"]:
            run["error"] = "timeout"
        elif run["code"] != 0:
            run["error"] = f"exit code {run['code']}: {_tail(log)}"
        else:
            try:
                bundle = read_bundle(bundle_dir, self.config)
            except (ValueError, KeyError, OSError) as exc:
                run["error"] = f"bad bundle: {exc}"
            else:
                run["digest"] = bundle["digest"]
                self.bundles[bundle["digest"]] = bundle
        self.runs.append(run)
        return run

    def settle(self) -> dict | None:
        """The reference bundle, the first good timed run's; runs whose
        bundle differs from it fail."""
        if self.bundle is None:
            digests = [run["digest"] for run in self.runs
                       if run["kind"] == "timed" and "digest" in run]
            if not digests:
                return None
            self.bundle = self.bundles[digests[0]]
        for run in self.runs:
            if run["error"] is None and run.get("digest", self.bundle["digest"]) \
                    != self.bundle["digest"]:
                run["error"] = "bundle digest differs from the first timed run's"
        return self.bundle

    def failed(self) -> int:
        return sum(run["error"] is not None for run in self.runs)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    work = WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env_path = work / "env.json"
    probe = spawn(_python(str(BENCH_DIR / "child.py"), "env", str(env_path)),
                  work, work / "env.log")
    if probe["code"] != 0:
        raise BenchError(f"cannot import orbent from {ROOT / 'src'}: {_tail(work / 'env.log')}")
    env = json.loads(env_path.read_text())
    if Path(env["orbent_file"]).resolve().parent.parent != (ROOT / "src").resolve():
        raise BenchError(f"orbent imported from {env['orbent_file']}, not from this checkout")
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    })

    session = Session(workload, seed, work)
    session.orbent_run("workers2", workers=2)

    setups = []
    if not trace:
        argv = _python("-c", "import orbent.cli")
        for i in range(SETUP_REPEATS):
            setup = spawn(argv, work, work / f"setup-{i}.log")
            if setup["code"] != 0:
                raise BenchError(f"import orbent.cli failed: {_tail(work / f'setup-{i}.log')}")
            setups.append(setup["wall_s"])

    timed: list[dict] = []
    loop_start = time.perf_counter()
    while not timed or not timed[-1]["timed_out"]:
        now = time.perf_counter()
        if len(timed) >= MIN_TIMED_RUNS and now - loop_start >= seconds:
            break
        if timed and now - started + timed[-1]["wall_s"] > seconds + SLACK_S:
            break
        timed.append(session.orbent_run("timed", workers=1))

    if session.settle() is None:
        errors = "; ".join(f"{run['kind']} run: {run['error']}" for run in session.runs)
        raise BenchError(f"no run produced a valid bundle: {errors}")

    result = outcome(session.bundle, session.config, workloads.spectrum(workload))
    walls = [run["wall_s"] for run in timed]
    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "env": env,
        "config": session.config, "digest": session.bundle["digest"],
        "outcome": result, "runs": session.runs, "setup_s": setups,
    }
    if not trace:
        metrics = e2e_metrics(walls, [run["peak_rss_mb"] for run in timed], setups, result)
    else:
        metrics = traced(session, statistics.median(walls), result, report)
    report["metrics"] = metrics
    return _result(session, report, env, timed, setups, trace)


def traced(session: Session, untraced_wall: float, result: dict, report: dict) -> dict:
    work = session.work
    spans_path = work / "spans.json"
    run = session.checked("traced", _python(
        str(BENCH_DIR / "child.py"), "trace", str(session.config_path), str(spans_path),
    ))
    spans: list = []
    if run["error"] is None:
        traced_out = json.loads(spans_path.read_text())
        spans = traced_out["spans"]
        if traced_out["leftovers"]:
            run["error"] = f"wrappers left behind: {traced_out['leftovers']}"

    # standalone recomputation of a seeded subset of cells, untimed
    rng = random.Random(f"orbench-recompute:{session.workload}:{session.seed}")
    rows = rng.sample(session.bundle["rows"], RECOMPUTED_CELLS)
    cells_path, values_path = work / "cells.json", work / "recomputed.json"
    cells_path.write_text(json.dumps([[eps, n, seed] for eps, n, seed, _ in rows]))
    check = spawn(_python(str(BENCH_DIR / "child.py"), "recompute", str(session.config_path),
                          str(cells_path), str(values_path)),
                  work, work / "recompute.log")
    check.update(kind="recompute", error=None)
    if check["code"] != 0:
        check["error"] = f"exit code {check['code']}: {_tail(work / 'recompute.log')}"
    else:
        values = json.loads(values_path.read_text())
        mismatched = [row for row, value in zip(rows, values) if value != row[3]]
        if mismatched:
            check["error"] = f"standalone entropy_estimate differs on cells {mismatched}"
    session.runs.append(check)
    session.settle()
    report["recomputed_cells"] = rows

    imports_log = work / "importtime.log"
    spawn(_python("-X", "importtime", "-c", "import orbent.cli"), work, imports_log)
    imports = parse_importtime(imports_log.read_text())
    return layer_metrics(spans, run["wall_s"], untraced_wall, session.config,
                         session.bundle, result, imports)


def _result(session: Session, report: dict, env: dict, timed: list,
            setups: list, trace: bool) -> tuple[dict, list[str]]:
    failed = session.failed()
    attempted = len(session.runs)
    lines = [f"== {session.workload}  seed {session.seed}  trace {int(trace)}",
             f"env: orbent {env['orbent']}  python {env['python']}  numpy {env['numpy']}  "
             f"scipy {env['scipy']}  blas {env['blas']}  nproc {env['nproc']}  "
             f"threads {env['threads'] or 'unset'}"]
    lines += [f"FAILED {run['kind']} run: {run['error']}"
              for run in session.runs if run["error"] is not None]
    walls = sorted(run["wall_s"] for run in timed)
    res = report["outcome"]
    lines += [
        f"digest {report['digest']}",
        f"timed runs {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s",
        f"{'failed_frac':<36}{failed / attempted:.4f} fraction ({failed}/{attempted} runs)",
        f"{'saturated_frac':<36}{res['saturated_frac']:.4f} fraction",
        f"{'verdict_ok':<36}{res['verdict_ok']} flag ({res['verdict']}, "
        f"{workloads.spectrum(session.workload)} spectrum)",
        f"{'cpu_s':<36}{statistics.median(run['cpu_s'] for run in timed):.4f} s "
        f"(diagnostic, median)",
    ]
    if setups:
        lines.append("setup runs: " + " ".join(f"{s:.3f}" for s in sorted(setups)) + " s")
    for name, metric in report["metrics"].items():
        lines.append(f"{name:<36}{metric['value']:.6g} {metric['unit']}")
    if trace:
        m = report["metrics"]
        self_sum = sum(v["value"] for k, v in m.items() if k.startswith("layer.")) \
            + m["cli.write.s"]["value"]
        lines.append(f"self times {self_sum:.4f} s + unattributed "
                     f"{m['trace.unattributed_s']['value']:.4f} s = traced wall "
                     f"{m['trace.wall_s']['value']:.4f} s")
    report["failed"], report["attempted"] = failed, attempted
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{session.workload}-seed{session.seed}-trace{int(trace)}.json"
    (reports / name).write_text(json.dumps(report, indent=2) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in report["metrics"].items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of `orbent run`")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "orbent" / "cli.py").is_file():
        print(f"orbench: no orbent source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    # on SIGTERM, unwind so that spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"orbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "run", ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
