"""The pair summary of scripts/bench_pairs.py on synthetic pairs; no
benchmark process is started."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUNDS = {"wall_s": 0.25, "peak_rss_mb": 0.05, "setup_s": 0.25, "ceiling_share": 0.2}


def side(wall, digest="d"):
    return {"failed": 0, "attempted": 3, "digest": digest, "wall_s": wall,
            "peak_rss_mb": 47.0, "setup_s": 0.3, "ceiling_share": 0.1}


def pairs_of(parent_walls, change_walls):
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent_walls, change_walls)]


PARENT = [2.3, 2.4, 2.35, 2.5, 2.45, 2.38, 2.42, 2.36, 2.41, 2.39]


class TestSummary:
    def test_clear_win_meets_claim(self):
        summary = bench_pairs.summarize(pairs_of(PARENT, [w / 2 for w in PARENT]), BOUNDS)
        wall = summary["wall_s"]
        assert wall["change_better_pairs"] == 10
        assert wall["claim_met"] and not wall["regressed"]
        # equal metrics: no win, no claim, no regression
        assert summary["peak_rss_mb"]["change_better_pairs"] == 0
        assert not summary["peak_rss_mb"]["claim_met"]
        assert not summary["peak_rss_mb"]["regressed"]

    def test_eight_wins_of_ten_is_no_claim(self):
        change = [w / 2 for w in PARENT[:8]] + [w * 1.01 for w in PARENT[8:]]
        wall = bench_pairs.summarize(pairs_of(PARENT, change), BOUNDS)["wall_s"]
        assert wall["change_better_pairs"] == 8
        assert not wall["claim_met"]

    def test_gap_within_parent_iqr_is_no_claim(self):
        wall = bench_pairs.summarize(
            pairs_of(PARENT, [w - 0.001 for w in PARENT]), BOUNDS)["wall_s"]
        assert wall["change_better_pairs"] == 10
        assert not wall["claim_met"]

    @pytest.mark.parametrize("factor, regressed", [(1.2, False), (1.3, True)])
    def test_regression_against_bound(self, factor, regressed):
        wall = bench_pairs.summarize(
            pairs_of(PARENT, [w * factor for w in PARENT]), BOUNDS)["wall_s"]
        assert wall["regressed"] is regressed
        assert not wall["claim_met"]


class TestFailedSide:
    def test_failing_run_is_recorded(self, monkeypatch, tmp_path):
        def failing(*args, **kwargs):
            return subprocess.CompletedProcess(args, 1, "", "orbench: no valid bundle\n")

        monkeypatch.setattr(bench_pairs.subprocess, "run", failing)
        result = bench_pairs.run_side(tmp_path, "rotation-quantize", 1, 1)
        assert result["failed"] == result["attempted"] == 1
        assert result["digest"] is None
        assert not set(bench_pairs.METRICS) & set(result)

    def test_batch_survives_a_failed_side(self, monkeypatch, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": k, "bound": v} for k, v in BOUNDS.items()]}))
        def fake_run_side(tree, workload, seed, seconds):
            if tree == tmp_path:
                return side(PARENT[seed - 1])
            if seed == 3:
                return {"failed": 1, "attempted": 1, "digest": None}
            return side(PARENT[seed - 1] / 2)

        monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
        (tmp_path / "change").mkdir()
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path / "change"),
                                 "--workloads", "rotation-quantize:1-10", "--out", str(out)]) == 0
        report = json.loads(out.read_text())["workloads"]["rotation-quantize"]
        assert len(report["pairs"]) == 10
        assert [p["digest_identical"] for p in report["pairs"]].count(False) == 1
        wall = report["summary"]["wall_s"]
        # the failed pair counts among the pairs run but not among the wins
        assert wall["change_better_pairs"] == 9
        assert wall["claim_met"]


class TestPathLengths:
    @pytest.mark.parametrize("change, warned", [("bb", False), ("bbb", True)])
    def test_unequal_checkout_paths_warn(self, monkeypatch, tmp_path, capsys, change, warned):
        parent = tmp_path / "aa"
        for tree in (parent, tmp_path / change):
            tree.mkdir()
        (parent / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": k, "bound": v} for k, v in BOUNDS.items()]}))
        monkeypatch.setattr(bench_pairs, "run_side", lambda *args: side(2.0))
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(parent), "--change", str(tmp_path / change),
                                 "--workloads", "shift-cut:1-2", "--out", str(out)]) == 0
        lengths = json.loads(out.read_text())["path_lengths"]
        assert lengths == {"parent": len(str(parent.resolve())),
                           "change": len(str((tmp_path / change).resolve()))}
        assert ("warning" in capsys.readouterr().err) is warned
