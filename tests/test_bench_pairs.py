"""The pair summary and the output file of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

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
            {"run_seconds": 7, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "rate", "better": "higher"}]}))
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
    assert all(s["run_seconds"] == 7 and s["all_correct"] and s["complete"]
               and "failed_run" not in s for s in series)


def test_regression_verdict_against_the_bound():
    parent = [1.0, 1.02, 0.98, 1.0]
    for change, verdict in (([0.7, 0.72, 0.68, 0.7], "worse"),
                            ([0.8, 0.82, 0.78, 0.8], "within_bound"),
                            ([1.5, 1.5, 1.5, 1.5], "within_bound")):
        out = bench_pairs.summarize(pairs_of(parent, change),
                                    {"rate": "higher", "time": "lower"},
                                    {"rate": 0.25, "time": 0.25})
        assert out["rate"]["regression"] == verdict
        assert out["rate"]["bound"] == 0.25
    # a lower-is-better metric is worse when it grows
    out = bench_pairs.summarize(pairs_of(parent, [1.3, 1.32, 1.28, 1.3]),
                                {"time": "lower"}, {"time": 0.25})
    assert out["time"]["regression"] == "worse"
    assert "regression" not in out["rate"]  # no direction, so no verdict


def test_wide_parent_spread_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]  # IQR 1.0 > 0.25 × median 1.5
    out = bench_pairs.summarize(pairs_of(parent, [1.5] * 4), {"rate": "higher"},
                                {"rate": 0.25})
    assert out["rate"]["regression"] == "unresolved"
    # unless every change run beats every parent run
    out = bench_pairs.summarize(pairs_of(parent, [2.1] * 4), {"rate": "higher"},
                                {"rate": 0.25})
    assert out["rate"]["regression"] == "within_bound"
    out = bench_pairs.summarize(pairs_of(parent, [0.5] * 4), {"time": "lower"},
                                {"time": 0.25})
    assert out["time"]["regression"] == "within_bound"


def test_bounds_come_from_end_to_end_metrics(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.1}],
             "per_layer": [{"name": "time", "better": "lower"}]}))
    rates = {"parent": 1.0, "change": 0.5}

    def fake_run(checkout, workload, seed, seconds, trace):
        rate = rates["change" if checkout.endswith("change") else "parent"]
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"rate": rate, "time": rate}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                      str(tmp_path / "change"), "--workload", "w", "--pairs", "2",
                      "--out", str(out)])
    summary = json.loads(out.read_text())["workloads"]["w"][0]["summary"]
    assert summary["rate"]["bound"] == 0.1 and summary["rate"]["regression"] == "worse"
    assert "regression" not in summary["time"]


FAKE_RUN = """\
import json, pathlib, sys
calls = pathlib.Path(__file__).with_name("calls")
n = int(calls.read_text()) + 1 if calls.exists() else 1
calls.write_text(str(n))
if n == {fail_at}:
    sys.exit("run {fail_at} fails")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {{"rate": {{"value": {rate}}}}}}}))
"""


def test_finished_pairs_are_kept_when_a_run_fails(tmp_path):
    for side, rate, fail_at in (("parent", 1.0, 0), ("change", 2.0, 2)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "rate", "better": "higher"}]}))
        (tmp_path / side / "perfbench" / "run.py").write_text(
            FAKE_RUN.format(fail_at=fail_at, rate=rate))
    out = tmp_path / "bench.json"
    # pair 0 runs parent then change; pair 1 runs the change first, its second call
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w",
                             "--pairs", "3", "--seed", "40", "--out", str(out)])
    assert code != 0
    series = json.loads(out.read_text())["workloads"]["w"]
    assert len(series) == 1
    done = series[0]
    assert done["complete"] is False
    assert done["failed_run"] == {"side": "change", "seed": 41}
    assert done["pairs"] == 1 and [p["seed"] for p in done["runs"]] == [40]
    assert done["runs"][0]["change"]["metrics"] == {"rate": 2.0}
    assert done["summary"]["rate"]["change_wins"] == 1 and done["all_correct"]


def test_unknown_workload_is_refused_before_any_run(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "dense_host"}],
             "end_to_end": [{"name": "rate", "better": "higher"}]}))

    def fake_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "dense_hots",
                          "--pairs", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
