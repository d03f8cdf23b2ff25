import json
import subprocess
import sys

import pytest

from orbent.cli import (
    PRESETS,
    ConfigError,
    compare_bundles,
    load_config,
    main,
    parse_config,
    run_experiment,
)
from orbent.scaling import GrowthClass

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

    def test_method_name_is_canonicalized(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["method"] = " kantorovich "
        assert parse_config(raw).method == "Kantorovich"

    def test_shift_horizon_covers_schedule(self, tmp_path):
        raw = bernoulli_config(tmp_path)
        config = parse_config(raw)
        assert config.system.horizon >= max(raw["n_schedule"]) + 1

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
          "inner": {"type": "Euclidean1D"}}, None),
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
    ], ids=["m-float", "seeds-float", "eps-string", "schedule-bool", "m-below-ball-mass",
            "schedule-below-growth-rows"])
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

    @pytest.mark.parametrize("flag", ["0", "abc"])
    def test_bad_worker_count_exits_2(self, tmp_path, flag):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        result = run_cli("run", str(path), "--workers", flag)
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"]["field"] == "workers"
        assert not (tmp_path / "out").exists()


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
            parse_config(raw)
        assert err.value.field == "m"
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
        assert open(paths["rows"], "rb").read() == open(paths_b["rows"], "rb").read()

    def test_output_dir_flag_overrides_config(self, bundle, tmp_path):
        _, paths = bundle
        path = tmp_path / "config.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "ignored")))
        result = run_cli("run", str(path), "--output-dir", str(tmp_path / "actual"))
        assert result.returncode == 0
        assert (tmp_path / "actual" / "rows.csv").read_bytes() == open(paths["rows"], "rb").read()
        assert not (tmp_path / "ignored").exists()

    def test_worker_count_does_not_change_outputs(self, bundle, tmp_path):
        config, paths = bundle
        threaded = parse_config(rotation_config(tmp_path / "c"))
        paths_c = run_experiment(threaded, workers=3)
        assert open(paths["rows"], "rb").read() == open(paths_c["rows"], "rb").read()
        assert (
            json.load(open(paths["verdict"]))
            == json.load(open(paths_c["verdict"]))
        )

    def test_rotation_arc_is_bounded_everywhere(self, bundle):
        # the arc metric is invariant under rotation, so profiles are flat
        _, paths = bundle
        verdict = json.load(open(paths["verdict"]))
        assert verdict["verdict"] == "DiscreteSpectrumEvidence"

    def test_one_eps_is_undetermined(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["eps_grid"] = [0.25]
        paths = run_experiment(parse_config(raw))
        with open(paths["verdict"]) as fh:
            assert json.load(fh) == {
                "verdict": "Undetermined", "per_eps": {}, "basis": "needs >= 2 eps values",
            }
        with open(paths["admissibility"]) as fh:
            assert json.load(fh)["averaged"]["n_big"] == 16


class TestLimitCheckInBundle:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_averaged_section_equals_recomputed_check(self, tmp_path, workers):
        raw = rotation_config(tmp_path / "out", {"type": "Euclidean1D"})
        raw.update(n_schedule=[1, 2, 4, 8], seeds=[7, 3, 7])
        config = parse_config(raw)
        paths = run_experiment(config, workers=workers)
        with open(paths["profile"]) as fh:
            profiles = json.load(fh)["profiles"]
        min_eps = min(profiles, key=lambda p: p["eps"])
        expected = reference_limit_check(
            config.system, config.metric, 8, 64, [7, 3, 7], eps=0.1,
            profile_class=GrowthClass.from_json(min_eps["growth_class"]),
        )
        with open(paths["admissibility"]) as fh:
            averaged = json.load(fh)["averaged"]
        assert averaged == json.loads(json.dumps(expected.to_json()))


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

    def test_cli_compare_text_output(self, bundles):
        rot_dir, bern_dir = bundles
        result = run_cli("compare", str(rot_dir), str(bern_dir))
        assert result.returncode == 0
        assert "verdict A" in result.stdout
