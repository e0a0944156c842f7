"""Alternating parent/change benchmark pairs.

Runs the `perfbench/run.py` of two checkouts of the repository in
alternation, each with its own sources, and records every run's metrics.
Pair i runs both sides with seed `--seed + i`; even pairs run the parent
first, odd pairs the change. Run from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload sparse_large --pairs 10 --out BENCH_8.json

The output file holds one list of series per workload (and per `--trace`
setting), so runs of several workloads, and several series of one workload,
go into one file; a new series is appended, never written over an earlier
one. Each run lasts the `run_seconds` of the change's `BENCHMARK.json`,
and `--workload` must name one of its `workloads`: another name is refused
before any run, and nothing is written.
Each series lists every run, each side's median and quartiles per metric,
and, for the metrics whose direction `BENCHMARK.json` gives, how many pairs
the change won (ties count for neither side) and whether a gain is shown:
the change wins at least 9 in 10 of at least 10 pairs and the medians
differ by more than the parent's interquartile range (null below 10 pairs).
An end-to-end metric with a `bound` also gets a no-regression verdict:
"worse" when the change's median is worse than the parent's by more than
bound × the parent's median, "within_bound" otherwise, and "unresolved"
when the parent's own IQR exceeds bound × its median, unless every change
run beats every parent run.

If a perfbench run exits nonzero, the pairs finished before it are still
appended, as a series marked `"complete": false` that names the failing
run's side and seed, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

MIN_PAIRS = 10  # fewest pairs from which a gain can be shown


class RunFailed(Exception):
    """A perfbench run that exited nonzero."""


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run inside `checkout`; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                        f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def benchmark(checkout: str) -> tuple[float, dict[str, str], dict[str, float], list[str]]:
    """The checkout's BENCHMARK.json: run length in seconds, metric name ->
    "higher" or "lower", end-to-end metric name -> its bound, and the
    workload names."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = bench.get("end_to_end", [])
    return bench["run_seconds"], {
        m["name"]: m["better"] for m in end_to_end + bench.get("per_layer", [])
    }, {m["name"]: m["bound"] for m in end_to_end if "bound" in m}, [
        w["name"] for w in bench.get("workloads", [])]


def spread(xs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                      if len(xs) > 1 else (xs[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3}


def regression(parent: list[float], change: list[float], sign: int,
               bound: float) -> str:
    """"worse" when the change's median is worse than the parent's by more
    than bound × the parent's median, else "within_bound"; "unresolved"
    when the parent's IQR exceeds bound × its median, unless every change
    run beats every parent run."""
    p, c = spread(parent), spread(change)
    if min(sign * x for x in change) > max(sign * x for x in parent):
        return "within_bound"
    if p["q3"] - p["q1"] > bound * abs(p["median"]):
        return "unresolved"
    worse = sign * (p["median"] - c["median"]) > bound * abs(p["median"])
    return "worse" if worse else "within_bound"


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        row = {"parent": spread(parent), "change": spread(change)}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            gap = row["change"]["median"] - row["parent"]["median"]
            iqr = row["parent"]["q3"] - row["parent"]["q1"]
            shown = (wins >= 0.9 * len(pairs) and sign * gap > iqr
                     if len(pairs) >= MIN_PAIRS else None)
            row.update(better=better[name], change_wins=wins, pairs=len(pairs),
                       median_gap=gap, parent_iqr=iqr, gain_shown=shown)
            if bounds and name in bounds:
                row.update(bound=bounds[name],
                           regression=regression(parent, change, sign, bounds[name]))
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write or append to")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seconds, better, bounds, workloads = benchmark(sides["change"])
    if args.workload not in workloads:
        parser.error(f"--workload {args.workload!r} is not a workload of the change's "
                     f"BENCHMARK.json ({', '.join(workloads)})")
    pairs, failure = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": first}
        try:
            for side in (first, second):
                t = time.perf_counter()
                pair[side] = run_once(sides[side], args.workload, seed, seconds, args.trace)
                print(f"pair {i} {side:<6} {time.perf_counter() - t:6.1f} s "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
        except RunFailed as exc:
            print(exc, file=sys.stderr)
            failure = {"side": side, "seed": seed}
            break
        pairs.append(pair)

    key = args.workload + (" traced" if args.trace else "")
    report = {"workloads": {}}
    if os.path.isfile(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    series = {
        "run_seconds": seconds, "trace": args.trace, "pairs": len(pairs),
        "complete": failure is None,
        "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                           for p in pairs for s in ("parent", "change")),
        "summary": summarize(pairs, better, bounds) if pairs else {},
        "runs": pairs,
    }
    if failure:
        series["failed_run"] = failure
    report["workloads"].setdefault(key, []).append(series)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if failure is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
