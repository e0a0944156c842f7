"""csbmlab benchmark: one workload per process.

Run from the root of the repository:

    python3 perfbench/run.py --workload dense_host --seed 3 --seconds 30 --trace 0

A *trial* is one planted pair plus one null pair, each sampled and then
scored by `statistics.f_tree_stat` with the sparse engine, the same unit as
the sweep harness uses. Each trial's generator is
`experiments.trial_generator(master, grid_index, trial, tag)` with the
workload's own master seed; `--seed` sets the order in which a run goes
through the workload's inputs. Every workload is a closed loop with one
caller; only `c12_sweep` uses the program's own process pool. A run repeats
its inputs, at least MIN_REPEATS times, while another full pass fits in
`--seconds`.

`--trace 0` times the run untraced and prints the end-to-end metrics.
`--trace 1` gives the per-layer split: it times the same trials untraced and
then traced (wrappers around the layers' public callables, installed at run
time from `spans.py`), and writes the spans to `perfbench/out/`. Per-layer
times and counts are means per traced trial.

Every f and W a run computes is checked against the stored reference of its
workload (see `reference.py`); a trial that raises or misses it is failed.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")

SETUP_SAMPLES = 3     # set-ups per run; setup_s is their median
MIN_REPEATS = 2       # passes over the inputs a run makes at least
TAIL_BEYOND = 10      # samples a tail percentile must have beyond it
TRACE_SLACK = 0.05    # largest share of a traced trial's wall no layer may account for

# detect_tail_s is printed but not in the JSON result: a serial run makes
# only 4-8 f_tree_stat calls, too few for a percentile with TAIL_BEYOND
# samples beyond it, so its value is the maximum and too noisy to gate on.
END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "detect_p50_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "models.sample_s": "s", "models.edges": "count", "graphs.build_s": "s",
    "counting.build_s": "s", "counting.patterns": "count",
    "counting.cyclic_patterns": "count", "counting.forests": "count",
    "counting.tree_s": "s", "counting.tree_embeddings": "count",
    "counting.cyclic_s": "s", "counting.core_vertices": "count",
    "counting.cyclic_embeddings": "count", "counting.forest_s": "s",
    "counting.w_s": "s", "statistics.assemble_s": "s",
    "experiments.parallel_efficiency": "ratio", "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}
COUNTERS = {"models.edges": "edges", "counting.tree_embeddings": "tree_embeddings",
            "counting.core_vertices": "core_vertices",
            "counting.cyclic_embeddings": "cyclic_embeddings"}

C12_GRID = (0.3, 0.4, 0.5, 0.58, 0.65, 0.75, 0.85, 0.9)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    lam: float
    s_grid: tuple[float, ...]
    master: int        # trial i uses seed master (serial) or master + i (sweep)
    inputs: int        # trials (serial) or sweeps (sweep) that every run covers
    trials: int = 0    # trials per grid point of one sweep; 0 for serial
    workers: int = 1
    aleph: int = 8
    eps: float = 0.3
    k: int = 2

    @property
    def is_sweep(self) -> bool:
        return self.trials > 0

    def key(self) -> dict:
        return asdict(self)

    def params(self, csbmlab, grid_index: int):
        return csbmlab.models.ModelParams(
            n=self.n, lam=self.lam, k=self.k, eps=self.eps,
            s=self.s_grid[grid_index])

    def sweep_config(self, csbmlab, i: int, workers: int | None = None):
        return csbmlab.experiments.SweepConfig(
            n=self.n, lam=self.lam, k=self.k, eps=self.eps, s_grid=self.s_grid,
            aleph=self.aleph, trials=self.trials, seed=self.master + i,
            method="sparse", workers=self.workers if workers is None else workers)


# Every run covers the same inputs: per-trial cost and peak memory vary by
# tens of percent between graphs of one config, so inputs drawn afresh per
# seed would spread the metrics past their bounds. One input per workload,
# so that a run repeats it as often as it can; the seed sets the order of
# the inputs where there are more.
WORKLOADS = {wl.name: wl for wl in (
    # criterion-12 config, trials cut to fit a run; the only one with workers
    Workload("c12_sweep", 3000, 1.2, C12_GRID, master=1200, inputs=1,
             trials=3, workers=2),
    # sampler, host build and tree frontier dominate; the host 2-core is small
    Workload("sparse_large", 100_000, 1.2, (0.8,), master=1000, inputs=1),
    # 2-core of ~830 vertices: cyclic backtracking and large frontiers
    Workload("dense_host", 3000, 2.0, (0.8,), master=2000, inputs=1),
)}


def import_program():
    """Import csbmlab from the checkout's own sources."""
    if not os.path.isfile(os.path.join(SRC, "csbmlab", "__init__.py")):
        raise SystemExit(f"perfbench: no csbmlab package under {SRC}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, SRC)
    import csbmlab
    return csbmlab


def setup_in_subprocess(aleph: int) -> float:
    """Import plus engine build in a fresh interpreter, timed inside it."""
    code = ("import sys, time\nt = time.perf_counter()\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from csbmlab import counting\n"
            f"counting.counting_engine({aleph})\n"
            "print(time.perf_counter() - t)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=150)
    return float(done.stdout.split()[-1])


def input_order(wl: Workload, seed: int) -> list[int]:
    """The workload's inputs, rotated to start at the seed's."""
    return [(seed + j) % wl.inputs for j in range(wl.inputs)]


def cycles(order: list[int], budget: float, body) -> None:
    """Call body(i) over `order`, cycle after cycle, while the next cycle is
    predicted to end within `budget` seconds; at least MIN_REPEATS cycles."""
    start = time.perf_counter()
    done = 0
    while True:
        for i in order:
            body(i)
        done += 1
        if (done >= MIN_REPEATS
                and (time.perf_counter() - start) * (done + 1) / done > budget):
            return


def one_trial(wl: Workload, csbmlab, master: int, grid_index: int, trial: int):
    """The planted and the null pair of one trial, scored; also returns the
    seconds each f_tree_stat call took."""
    models, experiments = csbmlab.models, csbmlab.experiments
    params = wl.params(csbmlab, grid_index)
    results, seconds = [], []
    for tag in (0, 1):
        rng = experiments.trial_generator(master, grid_index, trial, tag)
        if tag == 0:
            sample = models.sample_correlated(params, rng)
            a, b = sample.a, sample.b
        else:
            a, b = models.sample_null(params, rng)
        t0 = time.perf_counter()
        results.append(csbmlab.statistics.f_tree_stat(
            a, b, params, wl.aleph, method="sparse", rng=rng))
        seconds.append(time.perf_counter() - t0)
    return results, seconds


def shape_coefficients(wl: Workload, csbmlab, grid_index: int):
    import numpy as np
    trees = csbmlab.trees
    return np.array([trees.a_coefficient(shape, wl.n, wl.s_grid[grid_index])
                     for shape in trees.enumerate_trees(wl.aleph)])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Run:
    """State of one benchmark run: the program, its engine, the reference,
    and the tallies the report is built from."""

    def __init__(self, wl: Workload, seed: int, load_ref, recorder=None) -> None:
        self.wl = wl
        self.order = input_order(wl, seed)
        self.rec = recorder
        self.lines: list[str] = []
        self.attempted = 0
        self.failed: set = set()
        self.checks_ok = True
        t0 = time.perf_counter()
        self.csbmlab = import_program()
        with (recorder.span("counting.build") if recorder else nullcontext()):
            t1 = time.perf_counter()
            self.engine = self.csbmlab.counting.counting_engine(wl.aleph)
        t2 = time.perf_counter()
        self.setup = [t2 - t0]
        self.build_s = t2 - t1
        self.ref = load_ref()
        if json.loads(str(self.ref["meta"])) != json.loads(json.dumps(wl.key())):
            raise SystemExit(f"perfbench: the reference of {wl.name} was "
                             "recorded for another config")
        self.coeffs = [shape_coefficients(wl, self.csbmlab, g)
                       for g in range(len(wl.s_grid))]

    # -- checks --------------------------------------------------------------

    def check_pair(self, key, results, ref_f, ref_w, grid_index) -> None:
        import reference
        ok = all(reference.pair_matches(r, ref_f[j], ref_w[j],
                                        self.coeffs[grid_index])
                 for j, r in enumerate(results))
        if not ok:
            self.fail(key, "f or W differs from the reference")

    def fail(self, key, why: str) -> None:
        """Count attempt `key` = (attempt number, trial id) as failed once."""
        if key not in self.failed:
            print(f"perfbench: trial {key[1]} of attempt {key[0]} failed: {why}",
                  file=sys.stderr)
        self.failed.add(key)

    # -- units of work -------------------------------------------------------

    def serial_trial(self, i: int, attempt: int, traced: bool):
        """Trial i of a serial workload, checked. Returns its wall and the
        time of each f_tree_stat call."""
        trial_id = (self.wl.master, 0, i)
        t0 = time.perf_counter()
        try:
            with (self.rec.span(spans.TRIAL, trial=trial_id) if traced
                  else nullcontext()):
                results, seconds = one_trial(self.wl, self.csbmlab,
                                             self.wl.master, 0, i)
        except Exception:
            traceback.print_exc()
            self.fail((attempt, trial_id), "raised")
            return time.perf_counter() - t0, []
        wall = time.perf_counter() - t0
        self.check_pair((attempt, trial_id), results, self.ref["f"][i],
                        self.ref["w"][i], 0)
        return wall, seconds

    def sweep(self, i: int, workers: int, attempt: int):
        """Sweep i, its rows checked. Returns (wall, rows or None)."""
        import reference
        wl = self.wl
        ids = [(wl.master + i, g, t) for g in range(len(wl.s_grid))
               for t in range(wl.trials)]
        t0 = time.perf_counter()
        try:
            rows = self.csbmlab.experiments.sweep(
                wl.sweep_config(self.csbmlab, i, workers)).rows
        except Exception:
            traceback.print_exc()
            for trial_id in ids:
                self.fail((attempt, trial_id), "sweep raised")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        ok = reference.rows_match(rows, self.ref["rows"][i])
        for trial_id in ids:
            if not ok[trial_id[1]]:
                self.fail((attempt, trial_id), "sweep row differs from the reference")
        return wall, rows

    def detect_calls(self, i: int, attempt) -> dict:
        """Serial f_tree_stat calls on the top grid point's trials of sweep
        i, checked; returns their times keyed by (trial id, tag)."""
        wl = self.wl
        g = len(wl.s_grid) - 1
        times = {}
        for t in range(wl.trials):
            trial_id = (wl.master + i, g, t)
            key = (attempt, trial_id)
            self.attempted += 1
            try:
                results, seconds = one_trial(wl, self.csbmlab, wl.master + i, g, t)
            except Exception:
                traceback.print_exc()
                self.fail(key, "raised")
                continue
            times.update({(trial_id, tag): x for tag, x in enumerate(seconds)})
            self.check_pair(key, results, self.ref["f"][i, g, t],
                            self.ref["w"][i, g, t], g)
        return times

    def check_captured(self, i: int, captured: dict) -> None:
        wl = self.wl
        for g in range(len(wl.s_grid)):
            for t in range(wl.trials):
                trial_id = (wl.master + i, g, t)
                results = captured.get(trial_id, [])
                if len(results) != 2:
                    self.fail((0, trial_id), "trial not traced")
                    continue
                self.check_pair((0, trial_id), results, self.ref["f"][i, g, t],
                                self.ref["w"][i, g, t], g)

    # -- reports ---------------------------------------------------------------

    def line(self, name: str, value, unit: str, note: str) -> None:
        self.lines.append(f"{name:<34} {value:>14.6g} {unit:<6} {note}")

    def failed_line(self) -> None:
        self.lines.append(f"{'failed_frac':<34} {len(self.failed) / self.attempted:>14.6g} "
                          f"{'':<6} {len(self.failed)} of {self.attempted} trials")

    def finish_setup(self, metrics: dict) -> None:
        for _ in range(SETUP_SAMPLES - 1):
            self.setup.append(setup_in_subprocess(self.wl.aleph))
        metrics["setup_s"] = statistics.median(self.setup)
        self.line("setup_s", metrics["setup_s"], "s",
                  f"median of {len(self.setup)} set-ups (import + engine build)")


def measure(wl: Workload, seed: int, seconds: float, load_ref) -> tuple[Run, dict]:
    """Untraced run: the end-to-end metrics."""
    run = Run(wl, seed, load_ref)
    metrics: dict = {}
    walls: list[float] = []     # wall of each sweep or trial
    detect: dict = {}           # f_tree_stat call -> its time at each repeat
    if wl.is_sweep:
        per_input = len(wl.s_grid) * wl.trials

        # each sweep is followed by a serial pass of detect calls, so that
        # both spread their repeats over the whole run
        def body(i):
            attempt = len(walls)
            walls.append(run.sweep(i, wl.workers, attempt)[0])
            run.attempted += per_input
            for call, x in run.detect_calls(i, f"detect {attempt}").items():
                detect.setdefault(call, []).append(x)

        cycles(run.order, seconds, body)
        rate_note = f"{wl.workers} workers"
        detect_note = f"s={wl.s_grid[-1]}, serial"
    else:
        def body(i):
            wall, seconds_ = run.serial_trial(i, len(walls), traced=False)
            walls.append(wall)
            for tag, x in enumerate(seconds_):
                detect.setdefault((i, tag), []).append(x)

        cycles(run.order, seconds, body)
        run.attempted = len(walls)
        per_input = 1
        rate_note = "serial"
        detect_note = "serial"
    metrics["trials_per_s"] = per_input * len(walls) / sum(walls)
    metrics["peak_rss_mb"] = peak_rss_mb(children=wl.is_sweep)
    run.line("trials_per_s", metrics["trials_per_s"], "1/s",
             f"{per_input * len(walls)} trials in {len(walls)} repeats "
             f"of {sum(walls):.1f} s, {rate_note}")
    if detect:
        # the median of each call's repeats, then the median over the calls:
        # the calls' costs differ by up to 3x, and a median taken over all
        # repeats at once falls in a gap between two calls' costs, where
        # noise moves it from one to the other
        metrics["detect_p50_s"] = statistics.median(
            statistics.median(xs) for xs in detect.values())
        all_calls = [x for xs in detect.values() for x in xs]
        run.line("detect_p50_s", metrics["detect_p50_s"], "s",
                 f"median over {len(detect)} f_tree_stat calls of each one's "
                 f"median of {len(all_calls) // len(detect)} repeats, {detect_note}")
        value, pct, beyond = tail(all_calls)
        run.line("detect_tail_s", value, "s",
                 f"p{pct:.1f} of {len(all_calls)} calls, {beyond} beyond")
    run.line("peak_rss_mb", metrics["peak_rss_mb"], "MB",
             "max RSS" + (" of self + children" if wl.is_sweep else ""))
    run.finish_setup(metrics)
    run.failed_line()
    return run, metrics


def measure_traced(wl: Workload, seed: int, seconds: float, load_ref) -> tuple[Run, dict]:
    """Traced run: the per-layer split, plus the untraced timing of the same
    work that the trace overhead and parallel efficiency are taken against.
    `seconds` is not used: a traced run covers each input once."""
    rec = spans.Recorder()
    run = Run(wl, seed, load_ref, recorder=rec)
    captured: dict = {}

    def on_stat(trial_id, result):
        captured.setdefault(trial_id, []).append(result)

    wrappers = spans.instrument(rec, run.engine, run.csbmlab, on_stat)
    if wl.is_sweep:
        i = run.order[0]
        wall_pool, rows_pool = run.sweep(i, wl.workers, 0)
        with spans.patched(wrappers):
            with rec.span("experiments.sweep"):
                wall_traced, rows_traced = run.sweep(i, 1, 0)
        wall_serial, rows_serial = run.sweep(i, 1, 0)
        run.check_captured(i, captured)
        run.attempted = len(wl.s_grid) * wl.trials
        reprs = [None if r is None else [repr(x) for x in r]
                 for r in (rows_pool, rows_traced, rows_serial)]
        run.checks_ok = reprs[0] is not None and reprs[0] == reprs[1] == reprs[2]
        run.lines.append(f"rows bit-for-bit equal ({wl.workers} workers untraced, "
                         f"1 traced, 1 untraced): {run.checks_ok}")
        untraced_wall, workers, untraced_pool_wall = wall_serial, wl.workers, wall_pool
    else:
        walls = [run.serial_trial(i, 0, traced=False)[0] for i in run.order]
        with spans.patched(wrappers):
            wall_traced = sum(run.serial_trial(i, 0, traced=True)[0]
                              for i in run.order)
        run.attempted = len(run.order)
        untraced_wall = untraced_pool_wall = sum(walls)
        workers = 1
    summary = rec.trial_summary()
    trial_wall = sum(row["wall"] for row in summary)
    metrics: dict = {}
    n = len(summary)
    for layer in spans.LAYERS:
        total = sum(row["self"].get(layer, 0.0) for row in summary)
        metrics[layer + "_s"] = total / n
        run.line(layer + "_s", total / n, "s",
                 f"self time per trial, {100 * total / trial_wall:.1f}% of trial wall")
    for metric, counter in COUNTERS.items():
        metrics[metric] = sum(row["counts"].get(counter, 0) for row in summary) / n
        run.line(metric, metrics[metric], "count", f"mean per trial over {n}")
    engine = run.engine
    metrics["counting.build_s"] = run.build_s
    metrics["counting.patterns"] = len(engine.algebra.patterns)
    metrics["counting.cyclic_patterns"] = len(engine.cyclic_keys)
    metrics["counting.forests"] = len(engine.forest_defs)
    for name in ("counting.build_s", "counting.patterns",
                 "counting.cyclic_patterns", "counting.forests"):
        run.line(name, metrics[name], PER_LAYER[name], f"engine for aleph={wl.aleph}")
    metrics["experiments.parallel_efficiency"] = trial_wall / (workers * untraced_pool_wall)
    run.line("experiments.parallel_efficiency", metrics["experiments.parallel_efficiency"],
             "ratio", f"traced busy {trial_wall:.2f} s / ({workers} x "
             f"untraced wall {untraced_pool_wall:.2f} s)")
    metrics["trace.overhead_frac"] = wall_traced / untraced_wall - 1.0
    run.line("trace.overhead_frac", metrics["trace.overhead_frac"], "ratio",
             f"traced {wall_traced:.2f} s vs untraced {untraced_wall:.2f} s, same trials")
    worst = max(row["unattributed_frac"] for row in summary)
    metrics["trace.unattributed_frac"] = worst
    run.line("trace.unattributed_frac", worst, "ratio",
             f"worst of {n} trials; slack {TRACE_SLACK}")
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json"))
    run.failed_line()
    return run, metrics


def result_json(run: Run, metrics: dict, units: dict) -> dict:
    return {
        "correct": run.checks_ok and not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="csbmlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    ref_path = os.path.join(REFERENCE_DIR, f"{wl.name}.npz")
    if not os.path.isfile(ref_path):
        raise SystemExit(f"perfbench: missing reference {ref_path}")

    def load_ref() -> dict:
        import reference
        return reference.load(ref_path)

    if args.trace:
        run, metrics = measure_traced(wl, args.seed, args.seconds, load_ref)
        units = PER_LAYER
    else:
        run, metrics = measure(wl, args.seed, args.seconds, load_ref)
        units = END_TO_END
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in run.lines:
        print(line)
    print(json.dumps(result_json(run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
