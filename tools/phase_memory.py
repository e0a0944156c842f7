"""Traced memory of each phase of scoring one trial's hosts.

Draws trial 0 of grid point 0 at the given model (k=2, ε=0.3) with
`experiments.trial_generator`: the planted pair under tag 0, then the null
pair under tag 1, releasing the planted sample first as a sweep trial does.
Each host is scored by the sparse engine one phase at a time, in the order
of `CountingEngine.pattern_counts`: `two_core`, `core_embeddings`,
`host_arcs` (`counting._arcs` of the host's edge array, less the keys and
`src` it drops), `hom_counts`, then the forest products and `W` from those
counts (`forest/W`), and last the whole `w_all_shapes` pass. Per phase it
prints the `tracemalloc` peak above the phase's start and what the phase
left allocated (its result included), in MB, then the process's
`ru_maxrss`, which tracing inflates. It first prints `ru_maxrss` after the
import and the engine build, the fixed share of every process. Run from the
repository root:

    PYTHONPATH=src python3 tools/phase_memory.py --n 1000000 --lam 1.2 \\
        --s 0.9 --aleph 8 --seed 0

With `--trials T`, it first runs trials 0..T-1 of that grid point untraced
(`experiments._one_trial`, two pairs each) and prints the `ru_maxrss` they
reach; the traced phases follow, so that figure carries no tracing cost.
"""

from __future__ import annotations

import argparse
import resource
import tracemalloc
from operator import itemgetter

from csbmlab import experiments
from csbmlab.counting import CountingEngine, _arcs, counting_engine
from csbmlab.graphs import two_core
from csbmlab.models import ModelParams, sample_correlated, sample_null
from csbmlab.statistics import CenteredMatrix

MB = 2 ** 20
EPS = 0.3  # criterion 12's


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(phase: str, who: str, fn):
    """fn(), with its traced peak above start and what it left, printed."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = fn()
    now, peak = tracemalloc.get_traced_memory()
    print(f"{phase:<18} {who:<5} {(peak - start) / MB:9.2f} {(now - start) / MB:9.2f}")
    return out


def score_phases(engine: CountingEngine, host, who: str, params: ModelParams) -> None:
    plan = engine.plan
    x = CenteredMatrix.from_graph(host, params)
    core = measure("two_core", who, lambda: two_core(host))
    embeddings = measure("core_embeddings", who, lambda: plan.core_embeddings(core))
    del core
    arcs = measure("host_arcs", who, lambda: itemgetter(0, 3, 4)(_arcs(host.edge_array)))
    hom = measure("hom_counts", who, lambda: plan.hom_counts(*arcs, embeddings))
    del arcs, embeddings
    inj = plan.solve(hom)
    counts = {i: inj[i] for i in plan.tree_out + plan.cyclic_out}
    engine.pattern_counts = lambda graph: counts  # this engine is the tool's own
    try:
        measure("forest/W", who, lambda: engine.w_all_shapes(host, x.nonedge_value, x.slope))
    finally:
        del engine.pattern_counts
    measure("w_all_shapes", who, lambda: engine.w_all_shapes(host, x.nonedge_value, x.slope))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--lam", type=float, required=True)
    parser.add_argument("--s", type=float, required=True)
    parser.add_argument("--aleph", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, default=0,
                        help="untraced trials to run first (default 0)")
    args = parser.parse_args(argv)
    if args.trials < 0:
        parser.error("--trials must be at least 0")
    params = ModelParams(n=args.n, lam=args.lam, k=2, eps=EPS, s=args.s)
    print(f"phase_memory: n={args.n} lam={args.lam} eps={EPS} s={args.s} "
          f"aleph={args.aleph} seed={args.seed}")
    counting_engine(args.aleph)
    print(f"ru_maxrss_mb {rss_mb():.1f} after the import and engine build")
    if args.trials:
        for t in range(args.trials):
            experiments._one_trial((args.seed, 0, t, params, args.aleph, "sparse", None))
        print(f"ru_maxrss_mb {rss_mb():.1f} after {args.trials} untraced trials")
    engine = CountingEngine(args.aleph)
    print(f"{'phase':<18} {'host':<5} {'peak_MB':>9} {'held_MB':>9}")
    tracemalloc.start()
    try:
        smp = measure("sample_correlated", "P", lambda: sample_correlated(
            params, experiments.trial_generator(args.seed, 0, 0, 0)))
        for who, host in (("P.a", smp.a), ("P.b", smp.b)):
            score_phases(engine, host, who, params)
        del smp, host
        null = measure("sample_null", "Q", lambda: sample_null(
            params, experiments.trial_generator(args.seed, 0, 0, 1)))
        for who, host in zip(("Q.a", "Q.b"), null):
            score_phases(engine, host, who, params)
    finally:
        tracemalloc.stop()
    print(f"ru_maxrss_mb {rss_mb():.1f} (traced)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
