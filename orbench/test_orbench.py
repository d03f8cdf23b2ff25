"""Tests of the benchmark's own code: workloads, metric names and tracing."""
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_is_deterministic_in_its_seed(name):
    assert workloads.make_config(name, 7) == workloads.make_config(name, 7)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_new_seed_changes_only_seeds(name):
    a, b = workloads.make_config(name, 7), workloads.make_config(name, 8)
    assert a["seeds"] != b["seeds"]
    assert {k: v for k, v in a.items() if k != "seeds"} == \
        {k: v for k, v in b.items() if k != "seeds"}
    assert len(set(a["seeds"])) == workloads.SEED_COUNT


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark_spec()["workloads"]] == list(workloads.NAMES)


def _synthetic_spans():
    # run_experiment > profile_cells > (stream, estimate > cover)
    return [
        ["cli.run_experiment", 0.0, 10.0, None],
        ["scaling.profile_cells", 1.0, 7.0, 0],
        ["semimetric.stream", 1.0, 3.0, 1],
        ["entropy.estimate", 3.0, 6.0, 1],
        ["entropy.cover", 3.5, 5.5, 3],
    ]


def test_printed_metric_names_equal_benchmark_json():
    spec = _benchmark_spec()
    config = workloads.make_config("anzai-orbit", 1)
    result = {"ceiling_share": 0.5, "saturated_frac": 0.25, "verdict_ok": 1}
    e2e = run.e2e_metrics([1.0, 2.0, 3.0], [90.0, 91.0, 92.0], [1.0, 1.1], result)
    layers = run.layer_metrics(_synthetic_spans(), 12.0, 11.5, config, {"bytes": 100},
                               result, {"numpy": 0.1})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}


def test_self_times_and_remainder_add_up_to_traced_wall():
    config = workloads.make_config("anzai-orbit", 1)
    result = {"saturated_frac": 0.0, "verdict_ok": 1}
    layers = run.layer_metrics(_synthetic_spans(), 12.0, 11.5, config, {"bytes": 1},
                               result, {})
    value = {k: v["value"] for k, v in layers.items()}
    assert value["layer.semimetric.self_s"] == 2.0
    assert value["layer.entropy.self_s"] == 3.0
    assert value["layer.scaling.self_s"] == 1.0
    assert value["cli.write.s"] == 4.0
    assert value["trace.unattributed_s"] == 2.0
    assert value["trace.overhead_s"] == 0.5
    self_sum = sum(v for k, v in value.items() if k.startswith("layer.")) + value["cli.write.s"]
    assert self_sum + value["trace.unattributed_s"] == value["trace.wall_s"]


def test_importtime_parser_reads_cumulative_microseconds():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        300 |   numpy.core\n"
            "import time:      1000 |       5000 | numpy\n")
    assert run.parse_importtime(text) == {"numpy.core": 300e-6, "numpy": 5000e-6}


def _tiny_config(tmp_path) -> str:
    config = {
        "system": {"kind": "CircleRotation", "alpha": workloads.GOLDEN},
        "metric": {"type": "Euclidean1D"},
        "eps_grid": [0.25, 0.1], "n_schedule": [1, 2, 4, 8], "m": 32,
        "seeds": [1, 2, 3], "method": "Covering", "output_dir": "bundle",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_tracer_records_spans_and_restores_every_name(tmp_path, monkeypatch):
    import orbent
    import orbent.cli
    import orbent.semimetric

    monkeypatch.chdir(tmp_path)
    before = {name: getattr(orbent.semimetric, name) for name in
              ("distance_matrix", "streamed_average_matrices")}
    pairwise = orbent.semimetric.Semimetric.pairwise

    tracer = child.Tracer()
    tracer.install()
    try:
        assert child.leftover_wrappers()
        assert orbent.cli.main(["run", _tiny_config(tmp_path), "--workers", "1"]) == 0
    finally:
        tracer.uninstall()

    assert child.leftover_wrappers() == []
    assert orbent.semimetric.Semimetric.pairwise is pairwise
    for name, fn in before.items():
        assert getattr(orbent.semimetric, name) is fn
    assert orbent.distance_matrix is before["distance_matrix"]
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_experiment", "semimetric.stream", "entropy.cover",
            "admit.report", "semimetric.pairwise"} <= names
    totals = run.span_totals(tracer.spans)
    assert totals["cli.run_experiment"]["calls"] == 1
    assert all(t["self_s"] >= 0.0 for t in totals.values())


def test_tracer_restores_names_when_the_run_raises():
    import orbent.scaling

    original = orbent.scaling.profile_cells
    tracer = child.Tracer()
    tracer.install()
    try:
        with pytest.raises(TypeError):
            orbent.scaling.profile_cells()
    finally:
        tracer.uninstall()
    assert orbent.scaling.profile_cells is original
    assert child.leftover_wrappers() == []


def test_bundle_check_rejects_a_short_rows_file(tmp_path):
    config = workloads.make_config("rotation-quantize", 1)
    for name in run.BUNDLE_FILES:
        (tmp_path / name).write_text("{}" if name.endswith(".json") else "eps,n,seed\n")
    with pytest.raises(ValueError, match="rows.csv has 0 rows"):
        run.read_bundle(tmp_path, config)
    (tmp_path / "verdict.json").unlink()
    with pytest.raises(ValueError, match="missing verdict.json"):
        run.read_bundle(tmp_path, config)
