"""Monte Carlo harness: detection-error estimation, phase sweeps over the
subsampling probability, and the cross-module verification suite.

Reproducibility contract: every trial draws from a generator derived as
``default_rng(SeedSequence(master_seed, spawn_key=(s_index, trial, tag)))``
with tag 0 for the planted model and 1 for the null, so results are
replayable per trial and identical for any worker count (aggregation sorts
by grid point and trial index before reducing).
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from . import models as models_mod
from .counting import counting_engine
from .density import DensityParams, decompose_plain, phi_log
from .graphs import Graph, count_cycles, edge_intersection, edge_union, excess, leaves
from .models import (
    ModelParams,
    event_E_holds,
    sample_correlated,
    sample_null,
    sample_sbm,
    truncate_graph,
)
from .moments import (
    centered_moment,
    chain_expectation,
    chain_expectation_brute,
    exact_phi_expectation_P,
    exact_phi_expectation_Q,
    moment_closed_form,
    predicted_f_mean,
)
from .statistics import METHODS, CenteredMatrix, f_tree_stat, w_color_coding, w_exact
from .trees import (
    MAX_ALEPH,
    OTTER_ALPHA,
    a_coefficient,
    enumerate_trees,
    prufer_canonical_codes,
    tree_canonical_key,
)

__all__ = [
    "SweepConfig",
    "DetectionRow",
    "ExperimentResult",
    "trial_generator",
    "sweep",
    "write_csv",
    "write_json",
    "CheckResult",
    "VerificationReport",
    "run_verification_suite",
]

SCHEMA = "csbmlab-sweep-v1"
CSV_COLUMNS = ("s", "mean_P", "sd_P", "mean_Q", "sd_Q",
               "z_separation", "type_I", "type_II")


@dataclass(frozen=True)
class SweepConfig:
    n: int
    lam: float
    k: int
    eps: float
    s_grid: tuple[float, ...]
    aleph: int
    trials: int
    seed: int
    method: str = "sparse"
    reps: int | None = None
    C: float = 0.5
    workers: int = 1

    def __post_init__(self) -> None:
        grid = tuple(self.s_grid)
        if not grid:
            raise ValueError("s_grid must hold at least one value")
        if any(not 0 < s <= 1 for s in grid):
            raise ValueError("s_grid values must lie in (0, 1]")
        if list(grid) != sorted(set(grid)):
            raise ValueError("s_grid must be strictly increasing")
        if not 1 <= self.aleph <= MAX_ALEPH:
            raise ValueError(f"aleph must be in 1..{MAX_ALEPH}, got {self.aleph}")
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 < self.C < 1:
            raise ValueError("C must lie in (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}")
        if self.reps is not None and self.reps < 1:
            raise ValueError("reps must be >= 1")
        object.__setattr__(self, "s_grid", grid)

    def params_at(self, s: float) -> ModelParams:
        return ModelParams(n=self.n, lam=self.lam, k=self.k, eps=self.eps, s=s)

    @property
    def sqrt_alpha(self) -> float:
        return math.sqrt(OTTER_ALPHA)

    @property
    def ks_s(self) -> float:
        """The single-graph detectability line 1/(λ·ε²); inf when ε = 0."""
        if self.eps == 0:
            return math.inf
        return 1.0 / (self.lam * self.eps ** 2)


@dataclass(frozen=True)
class DetectionRow:
    s: float
    mean_P: float
    sd_P: float
    mean_Q: float
    sd_Q: float
    z_separation: float
    type_I: float
    type_II: float
    degenerate: bool = False

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[DetectionRow, ...]
    reference: dict
    config: dict = field(default_factory=dict)


def trial_generator(master_seed: int, s_index: int, trial: int,
                    tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(s_index, trial, tag))
    return np.random.default_rng(ss)


def _one_trial(args) -> tuple[int, int, float, float]:
    (master_seed, s_index, trial, params, aleph, method, reps) = args
    rng_p = trial_generator(master_seed, s_index, trial, 0)
    smp = sample_correlated(params, rng_p)
    f_p = f_tree_stat(smp.a, smp.b, params, aleph, method=method, reps=reps,
                      rng=rng_p).value
    del smp  # hold one pair, not two, while the null pair is scored
    rng_q = trial_generator(master_seed, s_index, trial, 1)
    qa, qb = sample_null(params, rng_q)
    f_q = f_tree_stat(qa, qb, params, aleph, method=method, reps=reps,
                      rng=rng_q).value
    return s_index, trial, f_p, f_q


def _row_from_samples(s: float, f_p: np.ndarray, f_q: np.ndarray,
                      params: ModelParams, aleph: int, C: float) -> DetectionRow:
    tau = C * predicted_f_mean(params, aleph)
    sd_p = float(f_p.std(ddof=1))
    sd_q = float(f_q.std(ddof=1))
    mean_p, mean_q = float(f_p.mean()), float(f_q.mean())
    degenerate = sd_p == 0.0 or sd_q == 0.0
    spread = max(sd_p, sd_q)
    if spread > 0:
        z = (mean_p - mean_q) / spread
    else:  # no spread: the sign of the mean gap, and 0 (not 0/0) without one
        z = math.copysign(math.inf, mean_p - mean_q) if mean_p != mean_q else 0.0
    return DetectionRow(
        s=s,
        mean_P=mean_p, sd_P=sd_p,
        mean_Q=mean_q, sd_Q=sd_q,
        z_separation=z,
        type_I=float((f_q >= tau).mean()),
        type_II=float((f_p < tau).mean()),
        degenerate=degenerate,
    )


def sweep(cfg: SweepConfig) -> ExperimentResult:
    """Detection rows over the whole s grid, plus the reference thresholds.

    The reference lines are reported, never consulted by any decision."""
    if cfg.method == "sparse":
        counting_engine(cfg.aleph)  # build before any fork so workers share it
    tasks = []
    for s_index, s in enumerate(cfg.s_grid):
        params = cfg.params_at(s)
        tasks.extend((cfg.seed, s_index, t, params, cfg.aleph, cfg.method, cfg.reps)
                     for t in range(cfg.trials))
    if cfg.workers == 1:
        results = [_one_trial(t) for t in tasks]
    else:
        with multiprocessing.Pool(cfg.workers) as pool:
            results = list(pool.imap_unordered(_one_trial, tasks, chunksize=4))
    results.sort(key=lambda r: (r[0], r[1]))
    rows = []
    for s_index, s in enumerate(cfg.s_grid):
        chunk = [r for r in results if r[0] == s_index]
        f_p = np.array([r[2] for r in chunk])
        f_q = np.array([r[3] for r in chunk])
        rows.append(_row_from_samples(s, f_p, f_q, cfg.params_at(s),
                                      cfg.aleph, cfg.C))
    reference = {"sqrt_alpha": cfg.sqrt_alpha, "ks_s": cfg.ks_s}
    config = {"n": cfg.n, "lam": cfg.lam, "k": cfg.k, "eps": cfg.eps,
              "aleph": cfg.aleph, "trials": cfg.trials, "seed": cfg.seed,
              "method": cfg.method, "reps": cfg.reps, "C": cfg.C}
    return ExperimentResult(rows=tuple(rows), reference=reference, config=config)


def write_csv(result: ExperimentResult, path: str) -> None:
    lines = [f"# schema={SCHEMA}"]
    for key, value in sorted(result.reference.items()):
        lines.append(f"# {key}={value!r}")
    lines.append(",".join(CSV_COLUMNS))
    for row in result.rows:
        lines.append(",".join(repr(getattr(row, c)) for c in CSV_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_number(value: float) -> float | None:
    """JSON has no infinities or NaN; such values are written as null."""
    return value if math.isfinite(value) else None


def write_json(result: ExperimentResult, path: str) -> None:
    payload = {
        "schema": SCHEMA,
        "reference": {k: _json_number(v) for k, v in result.reference.items()},
        "config": result.config,
        "rows": [dict({k: _json_number(v) for k, v in row.as_dict().items()},
                      degenerate=row.degenerate)
                 for row in result.rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "observed": self.observed, "bound": self.bound}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.as_dict() for c in self.checks]}


def _check(name: str, observed: float, bound: float) -> CheckResult:
    return CheckResult(name=name, passed=bool(observed <= bound),
                       observed=float(observed), bound=float(bound))


def run_verification_suite(seed: int = 0) -> VerificationReport:
    """Fast structured re-run of every module's pinned identities.

    Exact identities use fixed tolerances; Monte Carlo checks use wide
    (3.5-4 SE) bands so the pass/fail set is stable across seeds.
    """
    import random as _random

    checks: list[CheckResult] = []
    master = np.random.SeedSequence(entropy=seed, spawn_key=(999,))
    rng = np.random.default_rng(master)
    pyrng = _random.Random(seed + 1)

    # 1. moment kernels: brute force vs closed forms
    dev = 0.0
    for lam, eps, s in [(1.0, 0.3, 0.8), (1.5, 0.7, 0.5), (0.7, 0.0, 1.0)]:
        for n in (10, 100):
            params = ModelParams(n=n, lam=lam, k=2, eps=eps, s=s)
            for r in range(3):
                for t in range(3):
                    for same in (True, False):
                        dev = max(dev, abs(centered_moment(r, t, same, params)
                                           - moment_closed_form(r, t, same, params)))
    checks.append(_check("moment_kernels_exact", dev, 1e-14))

    # 2. chain identity
    dev = 0.0
    for length in range(1, 7):
        for k in (2, 3, 4):
            for eps in (0.0, 0.3, 0.7, 0.99):
                for equal in (True, False):
                    dev = max(dev, abs(chain_expectation(length, eps, k, equal)
                                       - chain_expectation_brute(length, eps, k, equal)))
    checks.append(_check("chain_identity_exact", dev, 1e-12))

    # 3. null orthonormality indicator
    params8 = ModelParams(n=8, lam=1.0, k=2, eps=0.3, s=0.5)
    pats = [Graph.build([(0, 1)]), Graph.build([(1, 2)]),
            Graph.build([(0, 1), (1, 2)]), Graph.build([(0, 1), (0, 2), (0, 3)])]
    dev = 0.0
    for s1 in pats:
        for s2 in pats:
            for t1 in pats:
                for t2 in pats:
                    val = exact_phi_expectation_Q(s1, s2, t1, t2, params8)
                    want = 1.0 if (s1, s2) == (t1, t2) else 0.0
                    dev = max(dev, abs(val - want))
    checks.append(_check("null_orthonormality", dev, 1e-12))

    # 4. tree catalog vs Prüfer oracle
    expected = (1, 1, 2, 3, 6, 11)
    dev = 0.0
    for aleph in range(1, 7):
        oracle = prufer_canonical_codes(aleph)
        mine = {tree_canonical_key(sh.graph()) for sh in enumerate_trees(aleph)}
        dev = max(dev, abs(len(oracle) - expected[aleph - 1]),
                  0.0 if oracle == mine else 1.0)
    checks.append(_check("tree_catalog_vs_prufer", dev, 0.0))

    # 5. weight-times-copy-count identity
    dev = 0.0
    for aleph in (2, 3, 4):
        for shape in enumerate_trees(aleph):
            n = 30
            copies = math.factorial(n) // (math.factorial(n - aleph - 1) * shape.aut)
            got = a_coefficient(shape, n, 0.7) * copies
            dev = max(dev, abs(got - 0.7 ** aleph))
    checks.append(_check("weight_copy_count_identity", dev, 1e-12))

    # 6. centered entry normalization
    params = ModelParams(n=500, lam=1.5, k=2, eps=0.2, s=0.8)
    x = CenteredMatrix.from_graph(Graph.empty(500), params)
    p = params.null_density
    dev = max(abs(p * x.edge_value + (1 - p) * x.nonedge_value),
              abs(p * x.edge_value ** 2 + (1 - p) * x.nonedge_value ** 2 - 1))
    checks.append(_check("centered_entry_normalization", dev, 1e-12))

    # 7. marginal edge density of the block model
    params = ModelParams(n=400, lam=1.5, k=3, eps=0.6, s=1.0)
    counts = [sample_sbm(params, rng)[1].n_edges for _ in range(400)]
    expected_edges = math.comb(400, 2) * 1.5 / 400
    se = math.sqrt(expected_edges / 400)
    checks.append(_check("sbm_marginal_density",
                         abs(float(np.mean(counts)) - expected_edges), 3.5 * se))

    # 8. Poisson cycle limit (mean and variance of triangle counts)
    params = ModelParams(n=800, lam=1.2, k=2, eps=0.4, s=0.5)
    c3 = models_mod.cycle_intensity(3, params)
    xs = []
    for _ in range(500):
        _, g = sample_sbm(params, rng)
        xs.append(count_cycles(g, 3))
    xs = np.array(xs, dtype=float)
    se_mean = math.sqrt(c3 / len(xs))
    se_var = c3 * math.sqrt(2 / len(xs)) + 3 * se_mean
    dev_mean = abs(xs.mean() - c3)
    dev_var = abs(xs.var(ddof=1) - c3)
    checks.append(_check("poisson_cycle_mean", dev_mean, 4 * se_mean))
    checks.append(_check("poisson_cycle_variance", dev_var, 4 * se_var))

    # 9. truncation: postcondition plus uniform edge choice on a triangle
    tri = Graph.build([(0, 1), (1, 2), (0, 2)])
    freq = {e: 0 for e in tri.edges}
    n_draws = 1500
    for _ in range(n_draws):
        out = truncate_graph(tri, 3, 30, rng)
        (gone,) = set(tri.edges) - set(out.edges)
        freq[gone] += 1
    se = math.sqrt((1 / 3) * (2 / 3) / n_draws)
    dev = max(abs(c / n_draws - 1 / 3) for c in freq.values())
    checks.append(_check("truncation_uniform_removal", dev, 4 * se))

    # 10. event-E frequency vs the Poisson product
    params = ModelParams(n=600, lam=1.0, k=2, eps=0.5, s=0.5)
    desk = DensityParams.create(n=600)
    target = math.exp(-sum(models_mod.cycle_intensity(j, params) for j in (3, 4)))
    hits = 0
    for _ in range(400):
        _, g = sample_sbm(params, rng)
        hits += event_E_holds(g, 4, 30, desk)
    se = math.sqrt(target * (1 - target) / 400)
    checks.append(_check("event_E_frequency", abs(hits / 400 - target), 4 * se))

    # 11. density-score submodularity
    import itertools as _it

    dense = DensityParams.create(n=1e126, D=100, lam=1.0, k=2)
    dev = 0.0
    for _ in range(2000):
        n = pyrng.randint(3, 9)
        all_edges = list(_it.combinations(range(n), 2))
        s_g = Graph.build([e for e in all_edges if pyrng.random() < 0.5], n=n)
        t_g = Graph.build([e for e in all_edges if pyrng.random() < 0.5], n=n)
        lhs = (phi_log(edge_union(s_g, t_g), dense)
               + phi_log(edge_intersection(s_g, t_g), dense))
        rhs = phi_log(s_g, dense) + phi_log(t_g, dense)
        dev = max(dev, lhs - rhs)
    checks.append(_check("phi_log_submodularity", dev, 1e-9))

    # 12. decomposition path-count identity
    bad = 0
    for _ in range(2000):
        n = pyrng.randint(4, 10)
        all_edges = list(_it.combinations(range(n), 2))
        host = Graph.build([e for e in all_edges if pyrng.random() < 0.35], n=n)
        kept = [e for e in host.edges if pyrng.random() < 0.45]
        verts = {w for e in kept for w in e}
        verts |= {v for v in host.vertices if host.degree(v) == 0}
        sub = Graph.build(kept, vertices=verts)
        dec = decompose_plain(sub, host)
        t_expected = len(leaves(host) - sub.vertex_set) + excess(host) - excess(sub)
        edges_ok = sorted(dec.all_edges()) == sorted(host.edge_set - sub.edge_set)
        bad += not (edges_ok and dec.path_count == t_expected)
    checks.append(_check("decomposition_identity", bad, 0.0))

    # 13. color-coding unbiasedness at a small size
    params = ModelParams(n=12, lam=1.5, k=2, eps=0.3, s=0.8)
    g12 = sample_null(params, rng)[0]
    x12 = CenteredMatrix.from_graph(g12, params)
    dev = 0.0
    bound = 0.0
    for shape in enumerate_trees(2):
        target = w_exact(shape, x12)
        samples = w_color_coding(shape, x12, 4000, rng, return_samples=True)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        dev = max(dev, abs(samples.mean() - target) - 4 * se)
    checks.append(_check("color_coding_unbiased", dev, 0.0))

    # 14. planted expectation dual-path agreement
    params = ModelParams(n=7, lam=1.0, k=2, eps=0.5, s=0.6)
    dev = 0.0
    for _ in range(5):
        edges1 = {tuple(sorted(pyrng.sample(range(7), 2))) for _ in range(2)}
        edges2 = {tuple(sorted(pyrng.sample(range(7), 2))) for _ in range(2)}
        res = exact_phi_expectation_P(Graph.build(sorted(edges1)),
                                      Graph.build(sorted(edges2)), params)
        dev = max(dev, abs(res.via_kernels - res.via_closed_forms))
    checks.append(_check("planted_dual_path", dev, 1e-10))

    # 15. statistic evaluators agree
    params = ModelParams(n=12, lam=1.5, k=2, eps=0.4, s=0.8)
    a, b = sample_null(params, rng)
    exact = f_tree_stat(a, b, params, 3, method="exact").value
    sparse = f_tree_stat(a, b, params, 3, method="sparse").value
    checks.append(_check("evaluators_agree", abs(exact - sparse),
                         1e-9 * max(1.0, abs(exact))))

    return VerificationReport(checks=tuple(checks))
