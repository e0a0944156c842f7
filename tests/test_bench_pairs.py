"""The pair summary and the output file of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pairs_of(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"metrics": {"rate": p, "time": p}},
             "change": {"metrics": {"rate": c, "time": c}}}
            for p, c in zip(parent, change)]


def test_wins_follow_the_metric_direction():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98]
    change = [2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 1.0, 2.02, 1.98]  # one tie
    out = bench_pairs.summarize(pairs_of(parent, change),
                                {"rate": "higher", "time": "lower"})
    assert out["rate"]["change_wins"] == 9 and out["rate"]["gain_shown"]
    assert out["time"]["change_wins"] == 0 and not out["time"]["gain_shown"]
    assert out["rate"]["parent"]["median"] == 1.0
    assert out["rate"]["parent_iqr"] == out["rate"]["parent"]["q3"] - out["rate"]["parent"]["q1"]


def test_gap_within_parent_spread_is_no_gain():
    parent = [1.0, 2.0] * 5
    change = [1.1, 2.1] * 5
    out = bench_pairs.summarize(pairs_of(parent, change), {"rate": "higher"})
    assert out["rate"]["change_wins"] == 10
    assert out["rate"]["gain_shown"] is False  # gap 0.1 < parent IQR
    assert "change_wins" not in out["time"]  # no direction known


def test_fewer_than_ten_pairs_show_no_gain():
    for n_pairs in (1, 4, 9):
        out = bench_pairs.summarize(pairs_of([1.0] * n_pairs, [2.0] * n_pairs),
                                    {"rate": "higher"})
        assert out["rate"]["change_wins"] == n_pairs
        assert out["rate"]["gain_shown"] is None


def test_series_are_appended(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 7, "end_to_end": [{"name": "rate", "better": "higher"}]}))
    seen = []

    def fake_run(checkout, workload, seed, seconds, trace):
        seen.append(seconds)
        rate = 2.0 if checkout.endswith("change") else 1.0
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"rate": rate}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--out", str(out)]
    bench_pairs.main(argv + ["--pairs", "2"])
    bench_pairs.main(argv + ["--pairs", "3", "--seed", "5"])
    series = json.loads(out.read_text())["workloads"]["w"]
    assert [s["pairs"] for s in series] == [2, 3]
    assert [p["seed"] for p in series[1]["runs"]] == [5, 6, 7]
    assert set(seen) == {7} and len(seen) == 10
    assert all(s["run_seconds"] == 7 and s["all_correct"] for s in series)
