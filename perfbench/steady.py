"""Steadiness check and baseline for the benchmark.

Runs each workload once per seed, untraced, and prints for every end-to-end
metric the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread (q3 - q1) / median against a third of the metric's bound. With
`--baseline FILE` it also makes one traced run per workload and writes the
medians, quartiles and per-layer time shares there.

    python3 perfbench/steady.py --seeds 1-10 --workloads dense_host
    python3 perfbench/steady.py --seeds 1-10 --baseline perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> str:
    import numpy
    return (f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--baseline", default=None, help="write the baseline here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    baseline: dict = {"seeds": seeds, "run_seconds": bench["run_seconds"],
                      "machine": machine(), "end_to_end": {},
                      "per_layer_share": {}}
    steady = True
    for name in names:
        values: dict = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            out = run_once(name, seed, bench["run_seconds"], 0)
            if not out["correct"] or out["failed"]:
                print(f"{name} seed {seed}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']}")
                steady = False
            for metric in values:
                values[metric].append(out["metrics"][metric]["value"])
        rows = baseline["end_to_end"][name] = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "unit": m["unit"], "runs": len(xs),
                               "values": xs}
            print(f"{name:<13} {m['name']:<14} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{x:.4g}" for x in xs), flush=True)
        if args.baseline:
            traced = run_once(name, seeds[0], bench["run_seconds"], 1)["metrics"]
            layer_s = {k: v["value"] for k, v in traced.items()
                       if v["unit"] == "s" and k != "counting.build_s"}
            total = sum(layer_s.values())
            baseline["per_layer_share"][name] = {
                k: round(v / total, 4) for k, v in layer_s.items()}
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
