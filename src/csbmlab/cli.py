"""Command-line interface.

Verbs: sample, detect, sweep, verify, trees, analyze. Global flags --seed,
--out, --format and --config (a flat key=value file whose keys are the
verb's full flag names, with dashes or underscores; `--config=FILE` works
too). Flags are never abbreviated: a prefix of a flag is a usage error.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .density import DensityParams, is_admissible, is_bad, is_self_bad, phi_log
from .graphs import Graph, cycles_up_to
from .models import ModelParams, sample_correlated, sample_null, sample_truncated_pair
from .experiments import (
    SweepConfig,
    run_verification_suite,
    sweep,
    write_csv,
    write_json,
)
from .statistics import METHODS, f_tree_stat, is_planted, threshold
from .trees import enumerate_trees, tree_count

__all__ = ["main", "build_parser"]


def _read_graph(path: str) -> Graph:
    text = Path(path).read_text().strip()
    if text.startswith("{"):
        return Graph.from_json(text)
    return Graph.from_text(text)


def _write_graph(graph: Graph, path: str, fmt: str) -> None:
    payload = graph.to_json() if fmt == "json" else graph.to_text()
    Path(path).write_text(payload + "\n")


def _config_args(path: str) -> list[str]:
    """One ``--key=value`` token per line of a flat key=value file."""
    out: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csbmlab", allow_abbrev=False,
        description="Correlated block-model detection laboratory")
    parser.add_argument("--config", help="flat key=value config file")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="output path or prefix")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    # flags that several verbs share, each declared once: the block count,
    # the rest of the model, and the statistic's settings
    blocks = argparse.ArgumentParser(add_help=False)
    blocks.add_argument("--k", type=int, default=2)
    model = argparse.ArgumentParser(add_help=False, parents=[blocks])
    model.add_argument("--lambda", dest="lam", type=float, required=True)
    model.add_argument("--eps", type=float, default=0.0)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--aleph", type=int, required=True)
    scoring.add_argument("--method", choices=METHODS, default="sparse")
    scoring.add_argument("--reps", type=int)
    scoring.add_argument("--C", type=float, default=0.5)

    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, summary: str, *shared: argparse.ArgumentParser):
        return sub.add_parser(name, parents=[common, *shared], allow_abbrev=False,
                              help=summary)

    p_sample = verb("sample", "draw graphs from P, Q or the truncated model", model)
    p_sample.add_argument("--model", choices=("P", "Q", "Pprime"), required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--s", type=float, required=True)
    p_sample.add_argument("--N", type=int, default=5,
                          help="short-cycle cutoff for the truncated model")
    p_sample.add_argument("--vertex-cap", type=int, default=30)

    p_detect = verb("detect", "run the tree statistic on a graph pair", model, scoring)
    p_detect.add_argument("--input-a", required=True)
    p_detect.add_argument("--input-b", required=True)
    p_detect.add_argument("--s", type=float, required=True)

    p_sweep = verb("sweep", "phase sweep over the subsampling probability",
                   model, scoring)
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--s-grid", required=True,
                         help="comma-separated increasing values in (0,1]")
    p_sweep.add_argument("--trials", type=int, default=200)
    p_sweep.add_argument("--workers", type=int, default=1)

    verb("verify", "run the cross-module verification suite")

    p_trees = verb("trees", "list the unlabeled tree catalog")
    p_trees.add_argument("--aleph", type=int, required=True)

    p_analyze = verb("analyze", "density/admissibility report for a graph", blocks)
    p_analyze.add_argument("--input", required=True)
    p_analyze.add_argument("--D", type=int, default=100)
    p_analyze.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_analyze.add_argument("--N", type=int, default=5)
    p_analyze.add_argument("--phi-n", type=float, default=None,
                           help="override the n used inside the density score")
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_sample(args) -> int:
    params = ModelParams(n=args.n, lam=args.lam, k=args.k, eps=args.eps, s=args.s)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed))
    prefix = args.out or "sample"
    ext = "json" if args.format == "json" else "txt"
    latent = None
    if args.model == "Q":
        a, b = sample_null(params, rng)
    else:
        smp = (sample_correlated(params, rng) if args.model == "P" else
               sample_truncated_pair(params, args.N, args.vertex_cap, rng))
        a, b = smp.a, smp.b
        latent = {"sigma": smp.sigma.tolist(), "pi": smp.pi.tolist()}
    _write_graph(a, f"{prefix}_A.{ext}", args.format)
    _write_graph(b, f"{prefix}_B.{ext}", args.format)
    if latent is not None:
        Path(f"{prefix}_latent.json").write_text(
            json.dumps(latent, sort_keys=True) + "\n")
    print(f"wrote {prefix}_A.{ext} {prefix}_B.{ext}"
          + (f" {prefix}_latent.json" if latent else ""))
    return 0


def _cmd_detect(args) -> int:
    a = _read_graph(args.input_a)
    b = _read_graph(args.input_b)
    if a.n_vertices != b.n_vertices:
        print("error: graphs have different sizes", file=sys.stderr)
        return 2
    params = ModelParams(n=a.n_vertices, lam=args.lam, k=args.k,
                         eps=args.eps, s=args.s)
    tau = threshold(params, args.aleph, args.C)  # refuses a bad C before scoring
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed))
    res = f_tree_stat(a, b, params, args.aleph, method=args.method,
                      reps=args.reps, rng=rng)
    payload = {
        "f_value": res.value,
        "tau": tau,
        "decision": "planted" if is_planted(res.value, tau) else "null",
        "method": res.method,
        "reps": res.reps,
        "per_shape": [{"shape": i, "w_a": wa, "w_b": wb}
                      for i, wa, wb in res.per_shape],
    }
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args) -> int:
    grid = tuple(float(tok) for tok in args.s_grid.split(",") if tok)
    cfg = SweepConfig(n=args.n, lam=args.lam, k=args.k, eps=args.eps,
                      s_grid=grid, aleph=args.aleph, trials=args.trials,
                      seed=args.seed, method=args.method, reps=args.reps,
                      C=args.C, workers=args.workers)
    result = sweep(cfg)
    out = args.out or f"sweep.{args.format}"
    if args.format == "csv":
        write_csv(result, out)
    else:
        write_json(result, out)
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    report = run_verification_suite(seed=args.seed)
    _emit(report.as_dict(), args.out)
    return 0 if report.all_passed else 1


def _cmd_trees(args) -> int:
    shapes = enumerate_trees(args.aleph)  # ValueError outside 1..MAX_ALEPH, either format
    if args.format == "csv":
        lines = ["aleph,count"]
        lines += [f"{a},{tree_count(a)}" for a in range(1, args.aleph + 1)]
        text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return 0
    payload = {
        "aleph": args.aleph,
        "shapes": [{"edges": [list(e) for e in sh.canonical_edges], "aut": sh.aut}
                   for sh in shapes],
    }
    _emit(payload, args.out)
    return 0


def _cmd_analyze(args) -> int:
    g = _read_graph(args.input)
    n_for_phi = args.phi_n if args.phi_n is not None else max(g.n_vertices, 2)
    density = DensityParams.create(n=n_for_phi, D=args.D, lam=args.lam, k=args.k)
    cycles = cycles_up_to(g, max(args.N, 3))
    by_length: dict[int, int] = {}
    for c in cycles:
        by_length[c.n_vertices] = by_length.get(c.n_vertices, 0) + 1
    payload = {
        "phi_log": phi_log(g, density),
        "is_bad": is_bad(g, density),
        "is_self_bad": is_self_bad(g, density),
        "is_admissible": is_admissible(g, density, args.N),
        "cycles_by_length": {str(k): v for k, v in sorted(by_length.items())},
    }
    _emit(payload, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Config values become flags placed right after the verb, so the verb's
    # parser checks them like any flag and later command-line flags win.
    idx = next((i for i, tok in enumerate(argv)
                if tok == "--config" or tok.startswith("--config=")), None)
    if idx is not None:
        if argv[idx] != "--config":  # --config=FILE
            argv[idx: idx + 1] = argv[idx].split("=", 1)
        try:
            config = _config_args(argv[idx + 1])
        except (IndexError, OSError, ValueError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return 2
        del argv[idx: idx + 2]
        verb = next((i for i, tok in enumerate(argv) if not tok.startswith("-")),
                    len(argv))
        argv[verb + 1: verb + 1] = config
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "sample": _cmd_sample,
        "detect": _cmd_detect,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "trees": _cmd_trees,
        "analyze": _cmd_analyze,
    }
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
