"""Stored reference outputs and the checks against them.

Input `i` of a serial workload is the trial drawn from
`experiments.trial_generator(master, 0, i, tag)`; input `i` of a sweep
workload is the sweep seeded `master + i`. The reference file of a workload
holds, for every trial of every input, `f` and the per-shape `W` of both
graphs of the planted and the null pair, and for a sweep also its rows.

Tolerances. `W` is compared shape by shape at RTOL relative to the stored
value, plus ATOL_SCALE times the graph's largest |W| for shapes whose W
cancels to near zero. `f` is compared at RTOL times the sum of its terms'
magnitudes, which bounds what a relative change RTOL in each `W` can move it
by. RTOL = 1e-7 admits the exact-arithmetic rework of the `W` combination,
which moves `W` by up to 3.4e-10 relative at n = 1e5, with a 300x margin.
Sweep rows are compared at ROW_RTOL relative to max(1, |value|).

Record the reference of a workload from the root of the repository with

    python3 perfbench/reference.py --workload dense_host
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

RTOL = 1e-7
ATOL_SCALE = 1e-9
ROW_RTOL = 1e-6
ROW_COLUMNS = ("s", "mean_P", "sd_P", "mean_Q", "sd_Q",
               "z_separation", "type_I", "type_II")

HERE = os.path.dirname(os.path.abspath(__file__))


def pair_w(result) -> np.ndarray:
    """(2, shapes) array of W for graph A and graph B of one pair."""
    return np.array([[w_a for _, w_a, _ in result.per_shape],
                     [w_b for _, _, w_b in result.per_shape]])


def row_array(rows) -> np.ndarray:
    return np.array([[getattr(r, c) for c in ROW_COLUMNS] for r in rows])


def pair_matches(result, ref_f: float, ref_w: np.ndarray,
                 coeffs: np.ndarray) -> bool:
    """True when one f_tree_stat result matches its stored f and W."""
    w = pair_w(result)
    w_tol = RTOL * np.abs(ref_w) + ATOL_SCALE * np.abs(ref_w).max(
        axis=1, keepdims=True)
    if not np.all(np.abs(w - ref_w) <= w_tol):
        return False
    f_tol = RTOL * float(np.sum(np.abs(coeffs * ref_w[0] * ref_w[1])))
    return abs(result.value - ref_f) <= f_tol


def rows_match(rows, ref_rows: np.ndarray) -> np.ndarray:
    """Per grid point: whether the sweep row matches the stored one."""
    got = row_array(rows)
    tol = ROW_RTOL * np.maximum(1.0, np.abs(ref_rows))
    return np.all(np.abs(got - ref_rows) <= tol, axis=1)


def load(path: str) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def save(path: str, ref: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **ref)


def _entry(wl, csbmlab, i: int) -> dict:
    """Reference arrays of input i: trial i of a serial workload, or the
    sweep seeded master + i."""
    import run

    if not wl.is_sweep:
        results, _ = run.one_trial(wl, csbmlab, wl.master, 0, i)
        return {"f": [r.value for r in results],
                "w": np.stack([pair_w(r) for r in results])}
    rows = row_array(csbmlab.experiments.sweep(
        wl.sweep_config(csbmlab, i)).rows)
    f, w = [], []
    for g in range(len(wl.s_grid)):
        for t in range(wl.trials):
            results, _ = run.one_trial(wl, csbmlab, wl.master + i, g, t)
            f.append([r.value for r in results])
            w.append(np.stack([pair_w(r) for r in results]))
    shape = (len(wl.s_grid), wl.trials)
    return {"rows": rows, "f": np.reshape(f, shape + (2,)),
            "w": np.reshape(w, shape + w[0].shape)}


def record(wl, csbmlab) -> dict:
    """Reference arrays for every input of the workload."""
    entries = [_entry(wl, csbmlab, i) for i in range(wl.inputs)]
    out = {key: np.stack([np.asarray(e[key]) for e in entries])
           for key in entries[0]}
    out["meta"] = np.array(json.dumps(wl.key()))
    return out


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    csbmlab = run.import_program()
    wl = run.WORKLOADS[args.workload]
    csbmlab.counting.counting_engine(wl.aleph)
    save(os.path.join(run.REFERENCE_DIR, f"{wl.name}.npz"), record(wl, csbmlab))
    return 0


if __name__ == "__main__":
    sys.exit(main())
