import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbent import InfeasibleError, admit, cli, entropy, scaling
from orbent.cli import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    compare_bundles,
    load_config,
    main,
    parse_config,
    run_experiment,
)
from orbent.admit import AdmissibilityReport
from orbent.scaling import LimitMetricReport, ScalingProfile, SpectralVerdict

from conftest import sample_report
from oracles import reference_limit_check


def rotation_config(output_dir, metric=None):
    return {
        "system": {"kind": "CircleRotation", "alpha": (5 ** 0.5 - 1) / 2},
        "metric": metric or {"type": "CircleArc"},
        "eps_grid": [0.25, 0.1],
        "n_schedule": [2, 4, 8, 16],
        "m": 64,
        "seeds": [1, 2, 3],
        "method": "Covering",
        "output_dir": str(output_dir),
    }


def bernoulli_config(output_dir):
    return {
        "system": {"kind": "BernoulliShift", "weights": [0.5, 0.5]},
        "metric": {"type": "FirstSymbolCut"},
        "eps_grid": [0.25, 0.1],
        "n_schedule": [2, 4, 8, 16],
        "m": 256,
        "seeds": [101, 202, 303],
        "method": "Covering",
        "output_dir": str(output_dir),
    }


class PassStarted(Exception):
    """Raised in place of a seed pass, once the run is past its checks."""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "orbent.cli", *args],
        capture_output=True, text=True,
    )


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        config = parse_config(rotation_config(tmp_path))
        assert parse_config(config.to_json()) == config

    def test_missing_field_named(self, tmp_path):
        raw = rotation_config(tmp_path)
        del raw["eps_grid"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "eps_grid"

    def test_bad_schedule_named(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["n_schedule"] = [8, 4]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "n_schedule"

    def test_bad_method(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["method"] = "sampling"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "method"

    def test_record_json_roundtrip(self, tmp_path):
        # the config decodes as every record does, by Record.from_json
        config = parse_config(bernoulli_config(tmp_path))
        assert "from_json" not in vars(ExperimentConfig)
        assert ExperimentConfig.from_json(json.loads(json.dumps(config.to_json()))) == config

    def test_method_name_is_canonicalized(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["method"] = " kantorovich "
        assert parse_config(raw).method == "Kantorovich"

    def test_shift_horizon_covers_schedule(self, tmp_path):
        raw = bernoulli_config(tmp_path)
        config = parse_config(raw)
        assert config.system.horizon >= max(raw["n_schedule"]) + 1

    def test_metric_probe_holds_no_whole_window(self, monkeypatch, tmp_path):
        # the probe of a long shift window reads only the symbols its metric
        # reads; with no memory figure, parsing prices nothing
        import tracemalloc

        monkeypatch.setattr(cli, "_physical_memory", lambda: None)
        raw = bernoulli_config(tmp_path)
        raw["system"]["horizon"] = 2 ** 22
        tracemalloc.start()
        try:
            assert parse_config(raw).system.horizon == 2 ** 22
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = run_cli("run", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert error["field"] == "config"

    def test_missing_field_exits_2_with_field(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        del raw["seeds"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "seeds"


ALPHA = (5 ** 0.5 - 1) / 2


class TestMalformedInput:
    @pytest.mark.parametrize("metric, field", [
        ({"type": "Mix", "t": 5, "a": {"type": "Euclidean1D"}, "b": {"type": "CircleArc"}},
         "metric"),
        ({"type": "Cutoff", "level": "abc", "inner": {"type": "Euclidean1D"}}, "metric"),
        ({"type": "Average", "n": 0, "system": {"kind": "CircleRotation", "alpha": ALPHA},
          "inner": {"type": "Euclidean1D"}}, "metric"),
        ({"type": "ClosedForm", "tag": "no_such_tag"}, "metric"),
        # the skew product acts on 2-D points, the rotation sample is 1-D
        ({"type": "PullBack", "k": 2, "system": {"kind": "AnzaiSkew", "alpha": ALPHA},
          "inner": {"type": "Euclidean1D"}}, "metric"),
        ({"type": "Cutoff", "levle": 0.5, "level": 0.5, "inner": {"type": "Euclidean1D"}},
         "metric"),
        # number fields are strict: no truncation, no bools, no numeric strings
        ({"type": "Average", "n": 3.7, "system": {"kind": "CircleRotation", "alpha": ALPHA},
          "inner": {"type": "Euclidean1D"}}, "metric"),
        ({"type": "Block", "partition": {"kind": "dyadic_intervals", "level": True}}, "metric"),
        ({"type": "Cutoff", "level": "0.5", "inner": {"type": "Euclidean1D"}}, "metric"),
    ], ids=["mix-t", "cutoff-level", "average-n", "closed-form-tag", "cross-dimension",
            "cutoff-unknown-field", "average-n-float", "dyadic-level-bool",
            "cutoff-level-string"])
    def test_bad_metric_exits_2(self, tmp_path, metric, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out", metric)))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert error.get("field") == field

    @pytest.mark.parametrize("make_config, key, value", [
        (rotation_config, "beta", 0.7), (bernoulli_config, "horizen", 64),
        (rotation_config, "alpha", "0.3"), (bernoulli_config, "horizon", 99.9),
    ], ids=["rotation-beta", "shift-horizen", "rotation-alpha-string", "shift-horizon-float"])
    def test_unknown_system_field_exits_2(self, tmp_path, make_config, key, value):
        raw = make_config(tmp_path / "out")
        raw["system"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["field"] == "system"
        assert repr(key) in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("m", 64.5), ("seeds", [1.9, 2, 3]), ("eps_grid", ["0.25", 0.1]),
        ("n_schedule", [True, 2, 4, 8]), ("m", 15), ("n_schedule", [16, 32, 64]),
        ("eps_grid", [1.0, 0.1]), ("eps_grid", [0.25, 0.99]), ("eps_grid", [0.25, 1e308]),
    ], ids=["m-float", "seeds-float", "eps-string", "schedule-bool", "m-below-ball-mass",
            "schedule-below-growth-rows", "eps-discards-all", "eps-keeps-one-point",
            "eps-times-m-overflows"])
    def test_bad_number_exits_2(self, tmp_path, key, value):
        raw = rotation_config(tmp_path / "out")
        raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == key
        assert not (tmp_path / "out").exists()

    def test_infinite_eps_exits_2(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["eps_grid"] = [0.25, float("inf")]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "eps_grid"

    def test_repeated_eps_exits_2(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["eps_grid"] = [0.25, 0.1, 0.25]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["field"] == "eps_grid"
        assert "repeat" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_exits_2(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["seeds"] = [5, 5, 7]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["field"] == "seeds"
        assert "repeat" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [[1, 2 ** 64 + 1, 3], [2 ** 64 - 1, -1, 3]],
                             ids=["past-2**64", "negative"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, seeds):
        # the sampler reads seeds modulo 2**64, so each list names one seed twice
        raw = rotation_config(tmp_path / "out")
        raw["seeds"] = seeds
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        error = json.loads(result.stderr)["error"]
        assert error["field"] == "seeds"
        assert "2**64" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_64_bit_seeds_are_accepted(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["seeds"] = [0, 2 ** 64 - 1, 5]
        assert parse_config(raw).seeds == (0, 2 ** 64 - 1, 5)

    def test_nan_weight_exits_2(self, tmp_path):
        raw = bernoulli_config(tmp_path / "out")
        raw["system"]["weights"] = [float("nan"), 1.0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))  # JSON's NaN token, which json.load accepts
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert json.loads(result.stderr)["error"]["field"] == "system"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("system", "CircleRotation"), ("metric", ["CircleArc"]), ("eps_grid", "0.25"),
        ("n_schedule", {"n": 4}), ("m", "64"), ("seeds", "5"), ("method", 5),
        ("output_dir", 7), ("comment", "a key the config does not have"),
    ], ids=["system-string", "metric-list", "eps-string", "schedule-dict", "m-string",
            "seeds-string", "method-number", "output-dir-number", "unknown-key"])
    def test_wrong_json_type_exits_2(self, tmp_path, key, value):
        raw = rotation_config(tmp_path / "out")
        raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert error["field"] == key
        assert not (tmp_path / "out").exists()

    def test_shift_with_more_than_128_symbols_exits_2(self, tmp_path):
        # symbols are stored as int8, so symbol 128 would wrap to -128
        raw = bernoulli_config(tmp_path / "out")
        raw["system"]["weights"] = [1 / 129] * 129
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["field"] == "system"
        assert "128" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_symbol_outside_the_partition_alphabet_exits_2(self, tmp_path):
        # a three-symbol shift under a two-symbol cylinder partition
        raw = bernoulli_config(tmp_path / "out")
        raw["system"]["weights"] = [0.2, 0.3, 0.5]
        raw["metric"] = {"type": "Block",
                         "partition": {"kind": "first_symbols", "count": 2, "alphabet": 2}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert "[0, 2)" in error["message"]

    @pytest.mark.parametrize("make_config, system, metric", [
        (bernoulli_config, {"weights": [0.2, 0.3, 0.5]},
         {"type": "Block", "partition": {"kind": "first_symbols", "count": 2, "alphabet": 2}}),
        (bernoulli_config, {}, {"type": "Euclidean1D"}),
        (rotation_config, {}, {"type": "FirstSymbolCut"}),
        (rotation_config, {}, {"type": "PullBack", "k": 1, "inner": {"type": "Euclidean1D"},
                               "system": {"kind": "BernoulliShift", "weights": [0.5, 0.5]}}),
        # 10**15 symbols a point fit in no machine's memory, so parsing
        # refuses before the probe would hold them
        (bernoulli_config, {}, {"type": "PullBack", "k": 10 ** 15,
                                "inner": {"type": "FirstSymbolCut"},
                                "system": {"kind": "BernoulliShift", "weights": [0.5, 0.5]}}),
        (bernoulli_config, {}, {"type": "Cutoff", "level": 0.5, "inner": {
            "type": "Average", "n": 10 ** 15, "inner": {"type": "FirstSymbolCut"},
            "system": {"kind": "BernoulliShift", "weights": [0.5, 0.5]}}}),
    ], ids=["three-symbols-block2", "shift-euclid", "rotation-cut", "rotation-shift-pullback",
            "pullback-beyond-memory", "nested-average-beyond-memory"])
    def test_metric_that_cannot_run_on_the_system_exits_2(self, tmp_path, make_config,
                                                          system, metric):
        raw = make_config(tmp_path / "out")
        raw["system"].update(system)
        raw["metric"] = metric
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert json.loads(result.stderr)["error"]["field"] == "metric"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["0", "abc"])
    def test_bad_worker_count_exits_2(self, tmp_path, flag):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        result = run_cli("run", str(path), "--workers", flag)
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "workers"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, field", [
        ("config-is-directory", "config"), ("config-not-utf8", "config"),
        ("output-dir-is-file", "output_dir"), ("output-dir-through-file", "output_dir"),
        ("bundle-is-file", "bundle"), ("bundle-profiles-not-a-list", "bundle"),
    ])
    def test_os_errors_exit_2(self, tmp_path, case, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        afile = tmp_path / "afile"
        afile.write_text("x")
        if case == "config-is-directory":
            result = run_cli("run", str(tmp_path))
        elif case == "config-not-utf8":
            path.write_bytes(b'{"m": "\xd0\x00"}')
            result = run_cli("run", str(path))
        elif case == "output-dir-is-file":
            path.write_text(json.dumps(rotation_config(afile)))
            result = run_cli("run", str(path))
        elif case == "output-dir-through-file":
            result = run_cli("run", str(path), "--output-dir", str(afile / "x"))
        elif case == "bundle-is-file":
            result = run_cli("compare", str(afile), str(tmp_path))
        else:
            bundle = tmp_path / "bundle"
            bundle.mkdir()
            (bundle / "profile.json").write_text('{"profiles": 5}')
            (bundle / "verdict.json").write_text('{"verdict": "x"}')
            result = run_cli("compare", str(bundle), str(bundle))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert error["field"] == field
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["bundle-file-is-directory", "output-dir-flag-empty"])
    def test_output_dir_errors_exit_2(self, tmp_path, case):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        if case == "bundle-file-is-directory":
            (tmp_path / "out" / "rows.csv").mkdir(parents=True)
            result = run_cli("run", str(path))
        else:
            result = run_cli("run", str(path), "--output-dir", "")
            assert not (tmp_path / "out").exists()
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert error["field"] == "output_dir"

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_nul_byte_in_output_dir_exits_2(self, monkeypatch, tmp_path, capsys, via):
        def start(*args):
            raise PassStarted

        monkeypatch.setattr(scaling, "profile_cells", start)
        bad = str(tmp_path / "out" / "a\0b")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(bad if via == "config" else tmp_path / "out")))
        # an argument of a process cannot hold a NUL byte, so main runs here
        flag = ["--output-dir", bad] if via == "flag" else []
        assert main(["run", str(path), *flag]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["field"] == "output_dir"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("levels", [cli.MAX_CONFIG_DEPTH, cli.MAX_CONFIG_DEPTH + 1])
    def test_config_nested_too_deep_exits_2(self, tmp_path, levels):
        # the top-level object is the first level and its metric the second
        metric = {"type": "Euclidean1D"}
        for _ in range(levels - 2):
            metric = {"type": "Cutoff", "level": 0.5, "inner": metric}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out", metric)))
        result = run_cli("run", str(path))
        if levels == cli.MAX_CONFIG_DEPTH:
            assert result.returncode == 0, result.stderr
            config = json.loads((tmp_path / "out" / "config.json").read_text())
            assert config["metric"] == metric
            return
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"] == {
            "code": "invalid_config", "field": "config",
            "message": f"config nests deeper than {cli.MAX_CONFIG_DEPTH} levels"}
        assert not (tmp_path / "out").exists()

    def test_json_text_nested_too_deep_exits_2(self, tmp_path):
        # json.load itself stops near 1000 levels, before parse_config sees the value
        path = tmp_path / "config.json"
        path.write_text("[" * 100000 + "]" * 100000)
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"] == {
            "code": "invalid_config", "field": "config",
            "message": "config is nested too deeply to decode"}

    def test_self_referencing_config_is_refused(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["metric"] = {"type": "Cutoff", "level": 0.5}
        raw["metric"]["inner"] = raw["metric"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "config"

    def test_shift_windows_beyond_memory_exit_2(self, monkeypatch, tmp_path):
        raw = bernoulli_config(tmp_path / "out")
        raw["m"] = 16
        raw["n_schedule"] = [1, 2, 3, 10 ** 12]
        with pytest.raises(ConfigError) as err:
            run_experiment(parse_config(raw))
        assert err.value.field == "n_schedule"
        raw["n_schedule"] = [1, 2, 3, 4]
        raw["system"]["horizon"] = 10 ** 12
        with pytest.raises(ConfigError) as err:
            run_experiment(parse_config(raw))
        assert err.value.field == "system"
        assert not (tmp_path / "out").exists()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "system"
        assert not (tmp_path / "out").exists()
        # a pull-back that reads 10**8 symbols past the schedule, under 1 GiB
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 30)
        del raw["system"]["horizon"]
        raw["metric"] = {"type": "PullBack", "k": 10 ** 8, "system": raw["system"],
                         "inner": {"type": "FirstSymbolCut"}}
        with pytest.raises(ConfigError) as err:
            run_experiment(parse_config(raw))
        assert err.value.field == "metric"
        assert not (tmp_path / "out").exists()

    def test_infeasible_estimate_exits_3(self, monkeypatch, tmp_path, capsys):
        # ESTIMATORS looks the estimator up when it runs, so the swap reaches the run
        def infeasible(*args):
            raise InfeasibleError("transport LP failed")

        monkeypatch.setattr(entropy, "eps_entropy_kantorovich", infeasible)
        raw = rotation_config(tmp_path / "out")
        raw["method"] = "Kantorovich"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": {"code": "infeasible", "message": "transport LP failed"}}

    @staticmethod
    def triangle_break_config(tmp_path, method="Covering"):
        """Squared differences break the triangle inequality on the first
        seed's sample.  The output directory is two levels below ``tmp_path``."""
        raw = rotation_config(tmp_path / "out" / "run",
                              {"type": "ClosedForm", "tag": "squared_abs_diff"})
        raw.update(m=16, seeds=[15], eps_grid=[0.25, 0.05], n_schedule=[1, 2, 3, 4],
                   method=method)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("method", ["Covering", "Kantorovich"])
    def test_triangle_inequality_break_exits_2(self, monkeypatch, tmp_path, capsys, method):
        # the base-matrix check refuses before any seed pass, whatever the estimator
        def start(*args):
            raise PassStarted

        monkeypatch.setattr(scaling, "profile_cells", start)
        assert main(["run", str(self.triangle_break_config(tmp_path, method))]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "code": "invalid_config", "field": "metric",
            "message": "d(x9, x14) exceeds d(x9, x0) + d(x0, x14) by 0.382 on the first "
                       "seed's sample, so the metric breaks the triangle inequality"}
        # refused inside the run: neither directory it made is left
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_is_refused_before_a_pass(self, monkeypatch, tmp_path):
        def start(*args):
            raise PassStarted

        monkeypatch.setattr(scaling, "profile_cells", start)
        afile = tmp_path / "afile"
        afile.write_text("x")
        with pytest.raises(ConfigError) as err:
            run_experiment(parse_config(rotation_config(afile / "out")))
        assert err.value.field == "output_dir"

    def test_refused_run_removes_only_the_directory_it_made(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert main(["run", str(self.triangle_break_config(tmp_path))]) == 2
        assert list((tmp_path / "out").iterdir()) == []

    @staticmethod
    def long_window_run(monkeypatch, tmp_path, mib):
        """A run of 2**20-symbol windows at m = 16 under ``mib`` MiB of
        physical memory, whose first seed pass raises ``PassStarted``: 16
        sample points and one float64 sampler row hold about 24 MiB a pass."""
        def start(*args):
            raise PassStarted

        monkeypatch.setattr(cli, "_physical_memory", lambda: mib * 2 ** 20)
        monkeypatch.setattr(scaling, "profile_cells", start)
        raw = bernoulli_config(tmp_path / "out")
        raw["m"] = 16
        raw["n_schedule"] = [1, 2, 3, 2 ** 20]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("mib, refused", [(23, True), (25, False)])
    def test_sample_windows_count_in_memory_budget(self, monkeypatch, tmp_path, capsys,
                                                   mib, refused):
        path = self.long_window_run(monkeypatch, tmp_path, mib)
        if refused:
            assert main(["run", str(path)]) == 2
            assert json.loads(capsys.readouterr().err)["error"]["field"] == "n_schedule"
            assert not (tmp_path / "out").exists()
        else:
            assert load_config(path).system.horizon == 2 ** 20 + 2
            with pytest.raises(PassStarted):
                main(["run", str(path)])

    def test_concurrent_seed_passes_windows_count_in_memory_budget(self, monkeypatch,
                                                                   tmp_path, capsys):
        # one pass's windows fit in 50 MiB, three passes' do not
        path = self.long_window_run(monkeypatch, tmp_path, 50)
        assert main(["run", str(path), "--workers", "3"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["field"] == "n_schedule"
        assert not (tmp_path / "out").exists()

    def test_concurrent_seed_passes_count_in_memory_budget(self, monkeypatch, tmp_path,
                                                           capsys):
        # room for two passes' matrices: one worker runs, four run all three
        # seeds' passes at once
        raw = rotation_config(tmp_path / "out")
        one_pass = cli.WORKING_SET_MATRICES * 8 * raw["m"] ** 2
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 * one_pass)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--workers", "4"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["field"] == "m"
        assert not (tmp_path / "out").exists()
        assert main(["run", str(path), "--workers", "1"]) == 0
        assert (tmp_path / "out" / "verdict.json").is_file()


class TestPresets:
    def test_list_names(self):
        result = run_cli("presets", "list")
        assert result.returncode == 0
        names = result.stdout.split()
        assert len(names) == 10
        assert "rotation-euclid1d" in names
        assert "bernoulli-fair-cut" in names

    def test_emit_is_valid_config(self):
        result = run_cli("presets", "emit", "rotation-euclid1d")
        assert result.returncode == 0
        config = parse_config(json.loads(result.stdout))
        assert config.m == 512
        assert config.n_schedule == (16, 32, 64, 128, 256, 512, 1024)

    def test_unknown_preset_exits_2(self):
        result = run_cli("presets", "emit", "no-such-preset")
        assert result.returncode == 2

    def test_memory_budget_refuses_huge_m(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["m"] = 200_000
        with pytest.raises(ConfigError) as err:
            run_experiment(parse_config(raw))
        assert err.value.field == "m"
        assert not (tmp_path / "out").exists()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "m"
        assert not (tmp_path / "out").exists()

    def test_every_preset_parses(self, tmp_path):
        for name, raw in PRESETS.items():
            raw = dict(raw)
            raw["output_dir"] = str(tmp_path / name)
            parse_config(raw)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    config = parse_config(rotation_config(out / "a"))
    paths = run_experiment(config)
    return config, paths


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("cmp")
    run_experiment(parse_config(rotation_config(root / "rot")))
    run_experiment(parse_config(bernoulli_config(root / "bern")))
    return root / "rot", root / "bern"


class TestRunExperiment:
    def test_every_bundle_file_decodes_by_its_record(self, tmp_path):
        config = parse_config({
            "system": {"kind": "Identity"}, "metric": {"type": "Euclidean1D"},
            "eps_grid": [0.25, 0.1], "n_schedule": [1, 2, 4, 8], "m": 64,
            "seeds": [1, 2, 3], "method": "Covering", "output_dir": str(tmp_path),
        })
        paths = run_experiment(config)

        def load(name):
            with open(paths[name]) as fh:
                return json.load(fh)

        admissibility = load("admissibility")
        decoded = [
            (ExperimentConfig, load("config")),
            *((ScalingProfile, p) for p in load("profile")["profiles"]),
            (SpectralVerdict, load("verdict")),
            (AdmissibilityReport, admissibility["base"]),
            (LimitMetricReport, admissibility["averaged"]),
        ]
        assert len(decoded) == 4 + len(config.eps_grid)
        for record, blob in decoded:
            assert record.from_json(blob).to_json() == blob, record.__name__

    def test_writes_all_outputs(self, bundle):
        _, paths = bundle
        for name in ("rows", "profile", "verdict", "admissibility", "estimates"):
            assert json.dumps(paths[name])  # path exists in the manifest
        import os

        for path in paths.values():
            assert os.path.exists(path)

    def test_rows_schema(self, bundle):
        _, paths = bundle
        with open(paths["rows"]) as fh:
            header = fh.readline().strip()
        assert header == "system,metric,eps,n,seed,method,value_bits"

    def test_estimates_schema(self, bundle):
        config, paths = bundle
        with open(paths["estimates"]) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "system,metric,method,n,eps,m,seed,k,value_bits,lower_bound_bits"
        rows = len(config.eps_grid) * len(config.n_schedule) * len(config.seeds)
        assert len(lines) == 1 + rows
        assert lines[1].startswith(
            f"{config.system.label()},circle_arc,Covering,2,0.25,64,1,"
        )

    def test_rerun_is_byte_identical(self, bundle, tmp_path):
        config, paths = bundle
        again = parse_config(rotation_config(tmp_path / "b"))
        paths_b = run_experiment(again)
        assert Path(paths["rows"]).read_bytes() == Path(paths_b["rows"]).read_bytes()

    def test_output_dir_flag_overrides_config(self, bundle, tmp_path):
        _, paths = bundle
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "ignored")))
        result = run_cli("run", str(path), "--output-dir", str(tmp_path / "actual"))
        assert result.returncode == 0
        assert (tmp_path / "actual" / "rows.csv").read_bytes() == Path(paths["rows"]).read_bytes()
        assert not (tmp_path / "ignored").exists()

    def test_worker_count_does_not_change_outputs(self, bundle, tmp_path):
        # every bundle file, the per-seed limit reports in admissibility.json too
        config, paths = bundle
        threaded = parse_config(rotation_config(tmp_path / "c"))
        paths_c = run_experiment(threaded, workers=3)
        assert sorted(paths) == sorted(paths_c) and len(paths) == 6
        for name in paths:
            if name == "config":
                continue
            with open(paths[name], "rb") as a, open(paths_c[name], "rb") as c:
                assert a.read() == c.read(), name
        with open(paths["config"]) as a, open(paths_c["config"]) as c:
            one, three = json.load(a), json.load(c)
        assert one.pop("output_dir") != three.pop("output_dir")
        assert one == three

    def test_smallest_m_runs_when_fine_trace_boxes_hold_one_point(self, tmp_path):
        # seed 87 at m = 16 leaves every one of the 32 finest trace boxes with
        # at most one point; the curve ends before that level instead.  With
        # fewer points than admit.PC_N the separated-set test reads one block
        # of all 16, in which at most 3 points of [0, 1) are 0.4 apart
        raw = rotation_config(tmp_path / "out", {"type": "Euclidean1D"})
        raw.update(m=16, n_schedule=[1, 2, 4, 8], seeds=[87, 1, 2])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "admissibility.json", "config.json", "estimates.csv", "profile.json",
            "rows.csv", "verdict.json",
        ]
        with open(tmp_path / "out" / "admissibility.json") as fh:
            reports = json.load(fh)
        assert [p["n"] for p in reports["base"]["trace_curve"]] == [2, 4, 8, 16]
        assert reports["base"]["pc_probability"] == 0.0
        assert [r["pc_probability"] for r in reports["averaged"]["per_seed"]] == [0.0] * 3

    def test_one_worker_runs_on_the_calling_thread(self, monkeypatch, tmp_path):
        import threading

        threads = []
        seed_pass = scaling.profile_cells

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return seed_pass(*args, **kwargs)

        monkeypatch.setattr(scaling, "profile_cells", recording)
        config = parse_config(rotation_config(tmp_path / "out"))
        run_experiment(config, workers=1)
        assert threads == [threading.get_ident()] * len(config.seeds)

    def test_rotation_arc_is_bounded_everywhere(self, bundle):
        # the arc metric is invariant under rotation, so profiles are flat
        _, paths = bundle
        verdict = json.loads(Path(paths["verdict"]).read_text())
        assert verdict["verdict"] == "DiscreteSpectrumEvidence"

    def test_one_eps_is_undetermined(self, tmp_path):
        # the verdict stays Undetermined but still lists the one eps's class
        raw = rotation_config(tmp_path / "out")
        raw["eps_grid"] = [0.25]
        paths = run_experiment(parse_config(raw))
        with open(paths["verdict"]) as fh:
            assert json.load(fh) == {
                "verdict": "Undetermined", "per_eps": {"0.25": {"kind": "Bounded"}},
                "basis": "needs >= 2 eps values",
            }
        with open(paths["admissibility"]) as fh:
            assert json.load(fh)["averaged"]["n_big"] == 16

    @pytest.mark.parametrize("method", ["Covering", "Kantorovich"])
    def test_run_leaves_numpy_ma_unloaded(self, tmp_path, method):
        # np.median imports numpy.ma, which every fresh run would then pay for;
        # a one-worker run needs no thread pool, nor the logging it imports
        raw = rotation_config(tmp_path / "out")
        raw["method"] = method
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys; from orbent.cli import main; "
                f"code = main(['run', {str(config)!r}]); "
                "print(code, *(name in sys.modules for name in "
                "('numpy.ma', 'concurrent.futures', 'logging')))")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False False False"


class TestLimitCheckInBundle:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_averaged_section_equals_recomputed_check(self, tmp_path, workers):
        raw = rotation_config(tmp_path / "out", {"type": "Euclidean1D"})
        raw.update(n_schedule=[1, 2, 4, 8], seeds=[7, 3, 5])
        config = parse_config(raw)
        paths = run_experiment(config, workers=workers)
        expected = reference_limit_check(config.system, config.metric, 8, 64, [7, 3, 5], eps=0.1)
        with open(paths["admissibility"]) as fh:
            averaged = json.load(fh)["averaged"]
        assert averaged == json.loads(json.dumps(expected.to_json()))

    def test_base_section_reads_every_sample_point(self, tmp_path):
        # above 1024 points too: the base report reads the run's m, as each
        # seed's report does
        raw = rotation_config(tmp_path / "out", {"type": "Euclidean1D"})
        raw.update(m=1040, n_schedule=[1, 2, 3, 4], seeds=[5])
        config = parse_config(raw)
        paths = run_experiment(config)
        expected = sample_report(config.system, config.metric, 1040, 5)
        with open(paths["admissibility"]) as fh:
            base = json.load(fh)["base"]
        assert base == json.loads(json.dumps(expected.to_json()))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_separated_set_draw_goes_through_admit(self, monkeypatch, tmp_path, workers):
        # a draw made through any other name than the module attribute would
        # be missing from the traced benchmark's admit.random_matrix span
        calls = []
        draw = admit.random_matrix_test

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(admit, "random_matrix_test", counting)
        config = parse_config(rotation_config(tmp_path / "out"))
        run_experiment(config, workers=workers)
        assert len(calls) == len(config.seeds) + 1


class TestCompare:
    def test_self_compare_no_differences(self, bundles):
        rot_dir, _ = bundles
        diff = compare_bundles(rot_dir, rot_dir)
        assert not diff["any_difference"]

    def test_rotation_vs_bernoulli_differ_at_every_eps(self, bundles):
        rot_dir, bern_dir = bundles
        diff = compare_bundles(rot_dir, bern_dir)
        assert all(row["differs"] for row in diff["classes"])
        assert diff["verdicts_differ"]

    def test_incompatible_grids_exit_2(self, bundles, tmp_path):
        rot_dir, _ = bundles
        other = rotation_config(tmp_path / "other")
        other["eps_grid"] = [0.3, 0.2]
        run_experiment(parse_config(other))
        result = run_cli("compare", str(rot_dir), str(tmp_path / "other"))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "eps_grid"

    @pytest.mark.parametrize("corrupt", [
        lambda profile: profile["system"].pop("alpha"),
        lambda profile: profile["rows"][0].update(extra=1),
    ], ids=["system-without-alpha", "row-with-extra-key"])
    def test_malformed_bundle_exits_2(self, bundles, tmp_path, corrupt):
        import shutil

        rot_dir, _ = bundles
        broken = tmp_path / "broken"
        shutil.copytree(rot_dir, broken)
        blob = json.loads((broken / "profile.json").read_text())
        corrupt(blob["profiles"][0])
        (broken / "profile.json").write_text(json.dumps(blob))
        result = run_cli("compare", str(rot_dir), str(broken))
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert error["code"] == "invalid_config"
        assert error["field"] == "bundle"

    def test_malformed_verdict_exits_2(self, bundles, tmp_path):
        import shutil

        rot_dir, _ = bundles
        broken = tmp_path / "broken"
        shutil.copytree(rot_dir, broken)
        (broken / "verdict.json").write_text(json.dumps({"verdict": 3, "per_eps": "x"}))
        result = run_cli("compare", str(rot_dir), str(broken))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "bundle"

    def test_cli_compare_text_output(self, bundles):
        rot_dir, bern_dir = bundles
        result = run_cli("compare", str(rot_dir), str(bern_dir))
        assert result.returncode == 0
        assert "verdict A" in result.stdout
