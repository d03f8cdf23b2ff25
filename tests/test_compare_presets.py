"""The bundle comparison of scripts/compare_presets.py on synthetic bundle
directories, and its known-answer table on a run of every case."""
import json
from pathlib import Path

import pytest

from orbent import cli
from orbent.cli import parse_config, run_experiment

from conftest import load_script

compare_presets = load_script("compare_presets")
WORKLOADS = compare_presets.orbench.workloads


def write_bundle(directory: Path, rows="n,value_bits\n1,2.5\n", output_dir=None):
    directory.mkdir(parents=True, exist_ok=True)
    config = {"m": 64, "output_dir": output_dir or str(directory)}
    (directory / "config.json").write_text(json.dumps(config))
    (directory / "rows.csv").write_text(rows)
    for name in compare_presets.BUNDLE_FILES[2:]:
        (directory / name).write_text(f"{name} contents\n")


class TestDifferingFiles:
    def test_output_dir_is_ignored(self, tmp_path):
        write_bundle(tmp_path / "a", output_dir="results/a")
        write_bundle(tmp_path / "b", output_dir="elsewhere/b")
        assert compare_presets.differing_files(tmp_path / "a", tmp_path / "b") == []

    def test_other_config_fields_count(self, tmp_path):
        write_bundle(tmp_path / "a")
        write_bundle(tmp_path / "b")
        (tmp_path / "b" / "config.json").write_text(json.dumps({"m": 128}))
        assert compare_presets.differing_files(tmp_path / "a", tmp_path / "b") == ["config.json"]

    def test_one_byte_differs(self, tmp_path):
        write_bundle(tmp_path / "a")
        write_bundle(tmp_path / "b", rows="n,value_bits\n1,2.50\n")
        assert compare_presets.differing_files(tmp_path / "a", tmp_path / "b") == ["rows.csv"]

    def test_missing_file_differs(self, tmp_path):
        write_bundle(tmp_path / "a")
        write_bundle(tmp_path / "b")
        (tmp_path / "a" / "verdict.json").unlink()
        assert compare_presets.differing_files(tmp_path / "a", tmp_path / "b") == ["verdict.json"]
        assert compare_presets.differing_files(tmp_path / "b", tmp_path / "a") == ["verdict.json"]
        # a file missing from both bundles is no match either
        (tmp_path / "b" / "verdict.json").unlink()
        assert compare_presets.differing_files(tmp_path / "a", tmp_path / "b") == ["verdict.json"]


class TestDifferingKeys:
    def test_dotted_paths(self):
        a = {"base": {"pc_probability": 0.84, "ball_mass_fraction": 0.5, "c": 0.4},
             "averaged": {"per_seed": [{"seed": 1}, {"seed": 2}], "trace_curve": [1, 2]},
             "only_a": 1, "count": 1}
        b = {"base": {"pc_probability": 0.96, "ball_mass_fraction": 0.25, "c": 0.4},
             "averaged": {"per_seed": [{"seed": 1}, {"seed": 3}], "trace_curve": [1]},
             "count": 1.0}
        assert compare_presets.differing_keys(a, b) == [
            "averaged.per_seed.1.seed", "averaged.trace_curve", "base.ball_mass_fraction",
            "base.pc_probability", "count", "only_a",
        ]
        assert compare_presets.differing_keys(a, a) == []
        assert compare_presets.differing_keys([1], [2]) == ["0"]
        assert compare_presets.differing_keys(1, 2) == ["(top level)"]

    def test_case_lines_name_the_keys_of_json_files(self, tmp_path):
        work = tmp_path / "work"
        for side in compare_presets.SIDES:
            pc, ball = (0.84, 0.5) if side == "parent" else (0.96, 0.25)
            for workers in compare_presets.WORKERS:
                bundle = work / side / "case" / f"w{workers}"
                write_bundle(bundle, rows=f"n,value_bits\n1,{workers}\n")
                (bundle / "admissibility.json").write_text(json.dumps(
                    {"base": {"c": 0.4, "pc_probability": pc, "ball_mass_fraction": ball}}))
        assert compare_presets.compare_case(work, "case") == [
            "case: parent/w1 vs change/w1: admissibility.json",
            "  admissibility.json: base.ball_mass_fraction, base.pc_probability",
            "case: parent/w2 vs change/w2: admissibility.json",
            "  admissibility.json: base.ball_mass_fraction, base.pc_probability",
            "case: parent/w1 vs parent/w2: rows.csv",
            "case: change/w1 vs change/w2: rows.csv",
        ]

    def test_case_lines_show_moved_verdicts(self, tmp_path):
        work = tmp_path / "work"
        verdicts = {
            "parent": {"verdict": "DiscreteSpectrumEvidence", "basis": "bounded",
                       "per_eps": {"0.25": {"kind": "Bounded"},
                                   "0.10000000000000001": {"kind": "Bounded"}}},
            "change": {"verdict": "Undetermined", "basis": "no positive call",
                       "per_eps": {"0.25": {"kind": "Undetermined"},
                                   "0.10000000000000001": {"kind": "Bounded"}}},
        }
        for side in compare_presets.SIDES:
            for workers in compare_presets.WORKERS:
                bundle = work / side / "case" / f"w{workers}"
                write_bundle(bundle)
                (bundle / "verdict.json").write_text(json.dumps(verdicts[side]))
        moved = ("  verdict: DiscreteSpectrumEvidence -> Undetermined "
                 "(0.25: Bounded -> Undetermined, 0.1: Bounded -> Bounded)")
        assert compare_presets.compare_case(work, "case") == [
            "case: parent/w1 vs change/w1: verdict.json",
            "  verdict.json: basis, per_eps.0.25.kind, verdict",
            moved,
            "case: parent/w2 vs change/w2: verdict.json",
            "  verdict.json: basis, per_eps.0.25.kind, verdict",
            moved,
        ]

    def test_verdict_line_marks_a_missing_eps(self):
        a = {"verdict": "Undetermined", "per_eps": {}}
        b = {"verdict": "NotDiscreteEvidence", "per_eps": {"0.5": {"kind": "Growing"}}}
        assert compare_presets.verdict_line(a, b) == (
            "  verdict: Undetermined -> NotDiscreteEvidence (0.5: - -> Growing)")


def write_scored_bundle(directory: Path, kind: str, verdict: str, per_eps_kind: str):
    """A bundle of one cell that the benchmark's bundle check accepts."""
    write_bundle(directory, rows="eps,n,seed,value_bits\n0.25,1,1,2.5\n")
    config = {"m": 64, "eps_grid": [0.25], "n_schedule": [1], "seeds": [1],
              "system": {"kind": kind}}
    (directory / "config.json").write_text(json.dumps(config))
    (directory / "estimates.csv").write_text("eps,n,seed\n0.25,1,1\n")
    for name in ("profile.json", "admissibility.json"):
        (directory / name).write_text("{}")
    (directory / "verdict.json").write_text(
        json.dumps({"verdict": verdict, "per_eps": {"0.25": {"kind": per_eps_kind}}}))


class TestScoreboard:
    def test_verdicts_scored_by_the_benchmark_rule(self, monkeypatch, tmp_path):
        work = tmp_path / "work"
        verdicts = {
            ("anzai", "parent"): ("DiscreteSpectrumEvidence", "Bounded"),
            ("anzai", "change"): ("NotDiscreteEvidence", "Growing"),
            ("rotation", "parent"): ("DiscreteSpectrumEvidence", "Bounded"),
            ("rotation", "change"): ("Undetermined", "Undetermined"),
            ("shift", "parent"): ("DiscreteSpectrumEvidence", "Bounded"),
            ("shift", "change"): ("Undetermined", "Undetermined"),
        }
        kinds = {"anzai": "AnzaiSkew", "rotation": "CircleRotation", "shift": "BernoulliShift"}
        for (name, side), (verdict, per_eps_kind) in verdicts.items():
            write_scored_bundle(work / side / name / "w1", kinds[name], verdict, per_eps_kind)
        # anzai is a known wrong and rotation a right positive call; a case
        # the table does not name must be ok
        monkeypatch.setattr(compare_presets, "KNOWN_ANSWERS",
                            {"anzai": "a factor metric (ROADMAP item 5)", "rotation": "positive"})
        # a case whose runs failed writes no bundle and gets no line
        assert compare_presets.scoreboard(work, ["anzai", "failed", "rotation", "shift"]) == [
            "  anzai parent: DiscreteSpectrumEvidence on AnzaiSkew (mixed spectrum): wrong:"
            " a factor metric (ROADMAP item 5)",
            "  rotation parent: DiscreteSpectrumEvidence on CircleRotation"
            " (discrete spectrum): ok",
            "  shift parent: DiscreteSpectrumEvidence on BernoulliShift"
            " (lebesgue spectrum): wrong, unexpected",
            "parent: 1 ok, 2 wrong, 0 of them Undetermined, 1 right positive calls,"
            " 1 unexpected",
            "  anzai change: NotDiscreteEvidence on AnzaiSkew (mixed spectrum): ok, unexpected",
            "  rotation change: Undetermined on CircleRotation (discrete spectrum):"
            " ok, unexpected",
            "  shift change: Undetermined on BernoulliShift (lebesgue spectrum): ok",
            "change: 3 ok, 0 wrong, 2 of them Undetermined, 1 right positive calls,"
            " 2 unexpected",
        ]

    def test_every_system_kind_has_a_benchmark_spectrum(self):
        from orbent.dynsys import SystemSpec

        assert set(compare_presets.SPECTRUM) == set(SystemSpec.registry)
        assert set(compare_presets.SPECTRUM.values()) == {
            WORKLOADS.spectrum(name) for name in WORKLOADS.NAMES}


class TestDefaultCases:
    def test_no_control_is_named_as_a_preset_or_workload(self):
        assert not set(compare_presets.CONTROLS) & {*cli.PRESETS, *WORKLOADS.NAMES}


CASES = {**cli.PRESETS, **compare_presets.default_configs()}
KNOWN_ANSWERS = compare_presets.KNOWN_ANSWERS


class TestKnownAnswers:
    def test_every_table_name_is_a_case(self):
        assert set(KNOWN_ANSWERS) <= set(CASES)

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                   reason=KNOWN_ANSWERS[name]))
        if KNOWN_ANSWERS.get(name) not in (None, "positive") else name
        for name in CASES])
    def test_case_is_scored_ok(self, tmp_path, name):
        # the scoreboard's score of the case's one-worker bundle
        run_experiment(parse_config({**CASES[name], "output_dir": str(tmp_path)}))
        _, result = compare_presets.score(tmp_path)
        assert result["verdict_ok"] == 1, result["verdict"]
        if KNOWN_ANSWERS.get(name) == "positive":
            assert result["verdict"] != "Undetermined"


class TestMain:
    def run_main(self, monkeypatch, tmp_path, rows_of, *extra):
        """main() over two presets and the default cases, with each run
        writing the bundle that ``rows_of(side, name, workers)`` describes."""
        trees = {side: tmp_path / side for side in compare_presets.SIDES}

        def fake_presets(tree, dest):
            dest.mkdir(parents=True, exist_ok=True)
            return {name: dest / f"{name}.json" for name in ("alpha", "beta")}

        def fake_run(tree, config, out, workers):
            side = next(s for s, t in trees.items() if t == tree)
            rows = rows_of(side, config.stem, workers)
            if rows is None:
                return "exit 2: invalid config"
            write_bundle(out, rows=rows)
            return None

        monkeypatch.setattr(compare_presets, "preset_configs", fake_presets)
        monkeypatch.setattr(compare_presets, "run_bundle", fake_run)
        return compare_presets.main([
            "--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--work", str(tmp_path / "work"), *extra,
        ])

    def test_identical_bundles_pass(self, monkeypatch, tmp_path, capsys):
        code = self.run_main(monkeypatch, tmp_path, lambda side, name, w: f"{name}\n")
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha: identical" in out and "beta: identical" in out
        for name in compare_presets.default_configs():
            assert f"{name}: identical" in out
        assert f"{2 + len(compare_presets.default_configs())} cases, all identical" in out
        # the fake bundles hold no verdict, so the scoreboard counts none
        assert "parent: 0 ok, 0 wrong, 0 of them Undetermined" in out

    def test_config_adds_a_case(self, monkeypatch, tmp_path, capsys):
        extra = tmp_path / "extra.json"
        extra.write_text("{}")
        code = self.run_main(monkeypatch, tmp_path, lambda side, name, w: f"{name}\n",
                             "--config", str(extra))
        assert code == 0
        out = capsys.readouterr().out
        assert "extra: identical" in out
        assert f"{3 + len(compare_presets.default_configs())} cases, all identical" in out

    def test_config_named_as_a_case_is_refused(self, monkeypatch, tmp_path):
        extra = tmp_path / "identity-euclid1d.json"
        extra.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            self.run_main(monkeypatch, tmp_path, lambda side, name, w: "same\n",
                          "--config", str(extra))
        assert exc.value.code == 2

    def test_change_differs_from_parent(self, monkeypatch, tmp_path, capsys):
        def rows(side, name, workers):
            return f"{name} {side}\n" if name == "beta" else f"{name}\n"

        assert self.run_main(monkeypatch, tmp_path, rows) == 1
        out = capsys.readouterr().out
        assert "beta: parent/w1 vs change/w1: rows.csv" in out
        assert "beta: parent/w2 vs change/w2: rows.csv" in out
        assert "alpha: identical" in out

    def test_worker_counts_differ(self, monkeypatch, tmp_path, capsys):
        def rows(side, name, workers):
            return f"{workers}\n" if side == "change" and name == "alpha" else "same\n"

        assert self.run_main(monkeypatch, tmp_path, rows) == 1
        out = capsys.readouterr().out
        assert "alpha: change/w1 vs change/w2: rows.csv" in out
        assert "alpha: parent/w1 vs parent/w2" not in out

    def test_failed_run_is_reported(self, monkeypatch, tmp_path, capsys):
        def rows(side, name, workers):
            return None if (side, name, workers) == ("change", "beta", 2) else "same\n"

        assert self.run_main(monkeypatch, tmp_path, rows) == 1
        assert "beta: run failed: change/w2 exit 2" in capsys.readouterr().out
