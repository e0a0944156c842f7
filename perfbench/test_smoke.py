"""Smoke test of the benchmark at toy sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402

TOY = {
    "serial": run.Workload("toy_serial", 400, 1.5, (0.8,), master=7, inputs=3,
                           aleph=5),
    "sweep": run.Workload("toy_sweep", 300, 1.2, (0.5, 0.9), master=9, inputs=2,
                          trials=2, workers=2, aleph=5),
}


@pytest.fixture(scope="module")
def csbmlab():
    return run.import_program()


@pytest.fixture(scope="module")
def refs(csbmlab):
    out = {}
    for kind, wl in TOY.items():
        csbmlab.counting.counting_engine(wl.aleph)
        out[kind] = reference.record(wl, csbmlab)
    return out


def declared(section: str) -> set:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("kind", sorted(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_correct(kind, trace, refs):
    measure = run.measure_traced if trace else run.measure
    r, metrics = measure(TOY[kind], 1, 0.5, lambda: refs[kind])
    units = run.PER_LAYER if trace else run.END_TO_END
    out = run.result_json(r, metrics, units)
    names = declared("per_layer" if trace else "end_to_end")
    assert set(out["metrics"]) == names
    assert all(m["unit"] == units[name] for name, m in out["metrics"].items())
    printed = {line.split()[0] for line in r.lines}
    assert names <= printed
    assert "failed_frac" in printed
    assert trace or "detect_tail_s" in printed
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    if trace:
        # layer self times account for each traced trial's wall within the slack
        assert 0 <= metrics["trace.unattributed_frac"] <= run.TRACE_SLACK


def test_reference_miss_counts_as_failed(refs):
    ref = dict(refs["serial"], w=refs["serial"]["w"] * (1 + 1e-5))
    r, metrics = run.measure(TOY["serial"], 1, 0.5, lambda: ref)
    out = run.result_json(r, metrics, run.END_TO_END)
    assert not out["correct"]
    assert out["failed"] == out["attempted"]


def test_sweep_row_miss_counts_as_failed(refs):
    ref = dict(refs["sweep"], rows=refs["sweep"]["rows"] + 1e-3)
    r, metrics = run.measure(TOY["sweep"], 0, 0.5, lambda: ref)
    out = run.result_json(r, metrics, run.END_TO_END)
    assert not out["correct"]
    # every trial of every sweep fails; the detect calls, checked on f and W
    # only, pass
    wl = TOY["sweep"]
    sweeps = {attempt for attempt, _ in r.failed}
    assert all(isinstance(attempt, int) for attempt in sweeps)
    assert len(sweeps) >= run.MIN_REPEATS
    assert out["failed"] == len(sweeps) * len(wl.s_grid) * wl.trials
    assert out["failed"] < out["attempted"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)
