"""Centered pattern polynomials and the tree-counting detection statistic.

The per-entry centering maps an adjacency bit to a mean-zero unit-variance
value under the null density p = λs/n. Per-shape sums W of centered products
over injective tree embeddings come from one of three ``METHODS``:

* ``"sparse"`` (the default) - the exact engine of :mod:`csbmlab.counting`;
* ``"exact"`` - ``w_exact``, the brute-force reference over all injective
  maps, within ``EXACT_BUDGET_N`` vertices and ``EXACT_BUDGET_ALEPH`` edges;
* ``"cc"`` - color coding, an unbiased estimator via rainbow-embedding
  dynamic programming over color subsets, whose messages split each entry into
  a rank-one part plus a sparse part, so the n² entries are never materialised.

The pair statistic is Σ_shapes a_shape · W_shape(A) · W_shape(B), thresholded
at a fixed fraction of its predicted planted mean; `threshold` and
`is_planted` are the one decision rule of the command line and the harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import _arcs, _neighbour_ranks, counting_engine
from .graphs import Graph, count_cycles
from .models import ModelParams
from .moments import predicted_f_mean
from .trees import TreeShape, a_coefficient, enumerate_trees, tree_count

__all__ = [
    "CenteredMatrix",
    "w_exact",
    "w_color_coding",
    "colorful_probability",
    "default_reps",
    "TreeStatResult",
    "f_tree_stat",
    "threshold",
    "is_planted",
    "cycle_count_test",
]

EXACT_BUDGET_N = 40
EXACT_BUDGET_ALEPH = 4
METHODS = ("exact", "sparse", "cc")


@dataclass(frozen=True)
class CenteredMatrix:
    """Mean-zero unit-variance view of an adjacency matrix under ER(p)."""

    n: int
    base_graph: Graph
    edge_value: float
    nonedge_value: float

    @staticmethod
    def from_graph(graph: Graph, params: ModelParams) -> "CenteredMatrix":
        if not graph._dense:
            raise ValueError("host graphs must use the dense universe 0..n-1")
        p = params.null_density
        scale = math.sqrt(p * (1 - p))
        return CenteredMatrix(n=graph.n_vertices, base_graph=graph,
                              edge_value=(1 - p) / scale,
                              nonedge_value=-p / scale)

    def entry(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("diagonal entries are undefined")
        return self.edge_value if self.base_graph.has_edge(i, j) else self.nonedge_value

    @property
    def slope(self) -> float:
        """entry = nonedge_value + slope · A_ij."""
        return self.edge_value - self.nonedge_value

    def dense(self) -> np.ndarray:
        out = np.full((self.n, self.n), self.nonedge_value)
        u, v = self.base_graph.edge_array.T
        out[u, v] = out[v, u] = self.edge_value
        np.fill_diagonal(out, 0.0)
        return out


# ---------------------------------------------------------------------------
# Exact brute-force evaluator
# ---------------------------------------------------------------------------

def w_exact(shape: TreeShape, x: CenteredMatrix,
            max_n: int = EXACT_BUDGET_N, max_aleph: int = EXACT_BUDGET_ALEPH) -> float:
    """Sum of centered products over all injective maps, divided by |Aut|.

    Enumerates host tuples incrementally with the weight carried along;
    intended for hosts within the configured budget.
    """
    if x.n > max_n or shape.aleph > max_aleph:
        raise ValueError("w_exact budget exceeded; use the sparse or color-"
                         "coding evaluators")
    n = x.n
    entries = x.dense()
    parents = {max(u, v): min(u, v) for u, v in shape.canonical_edges}

    rows = np.arange(n, dtype=np.int32)[:, None]
    weights = np.ones(n)
    total = 0.0
    last = shape.aleph
    for v in range(1, last + 1):
        attach = parents[v]
        pieces_r, pieces_w = [], []
        step = max(1, 2_000_000 // max(n, 1))  # at most ~2M candidate rows
        for lo in range(0, rows.shape[0], step):
            base = rows[lo: lo + step]
            wgt = weights[lo: lo + step]
            m = base.shape[0]
            cand = np.repeat(base, n, axis=0)
            new = np.tile(np.arange(n, dtype=np.int32), m)
            ok = (cand != new[:, None]).all(axis=1)
            cand, new = cand[ok], new[ok]
            w_new = np.repeat(wgt, n)[ok] * entries[cand[:, attach], new]
            if v == last:
                total += float(w_new.sum())
            else:
                pieces_r.append(np.concatenate([cand, new[:, None]], axis=1))
                pieces_w.append(w_new)
        if v != last:
            rows = np.concatenate(pieces_r, axis=0)
            weights = np.concatenate(pieces_w)
    return total / shape.aut


# ---------------------------------------------------------------------------
# Color coding
# ---------------------------------------------------------------------------

def colorful_probability(aleph: int) -> float:
    """Chance that aleph+1 iid uniform colors on aleph+1 vertices are distinct."""
    c = aleph + 1
    return math.factorial(c) / c ** c


def default_reps(params: ModelParams, aleph: int, budget: float = 0.2) -> int:
    """Repetitions so the estimator's added standard deviation stays below
    ``budget`` times the target separation s^(2·aleph)·#shapes.

    One repetition keeps each embedding with the rainbow probability q, which
    inflates the null variance of the assembled statistic by (1 + 1/(qR))².
    Solving (1+x)² <= 1 + (budget·s^aleph·sqrt(#shapes))² for x = 1/(qR):
    """
    target = budget * params.s ** aleph * math.sqrt(tree_count(aleph))
    x = math.sqrt(1 + target ** 2) - 1
    return max(1, math.ceil(1 / (colorful_probability(aleph) * x)))


def _rooted_children(shape: TreeShape) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {v: [] for v in range(shape.aleph + 1)}
    for u, v in shape.canonical_edges:
        children[min(u, v)].append(max(u, v))
    return children


def _disjoint_mask_pairs(n_colors: int, acc_size: int, child_size: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(acc masks, child masks, union masks) over all disjoint pairs."""
    masks = np.arange(1 << n_colors)
    pop = np.zeros(1 << n_colors, dtype=np.int64)
    tmp = masks.copy()
    while tmp.any():
        pop += tmp & 1
        tmp >>= 1
    acc = masks[pop == acc_size]
    child = masks[pop == child_size]
    pairs_a, pairs_c = np.meshgrid(acc, child, indexing="ij")
    flat_a, flat_c = pairs_a.ravel(), pairs_c.ravel()
    disjoint = (flat_a & flat_c) == 0
    return flat_a[disjoint], flat_c[disjoint], (flat_a | flat_c)[disjoint]


def _cc_messages(dp: np.ndarray, x: CenteredMatrix, arcs: tuple) -> np.ndarray:
    """M[r, S, i] = Σ_{j≠i} entry(i, j)·dp[r, S, j].

    With entry = nonedge + slope·A, the all-j sum is a rank-one column sum
    plus a sparse part, with the j = i term removed explicitly. The sparse
    part sums each vertex's neighbour columns from zero, one neighbour rank
    at a time, so in increasing neighbour order; ``arcs`` is the host's
    non-isolated labels and their `counting._neighbour_ranks`."""
    reps, n_masks, n = dp.shape
    colsum = dp.sum(axis=2, keepdims=True)
    labels, first, ranks = arcs
    columns = np.ascontiguousarray(dp.reshape(reps * n_masks, n).T)  # a row per vertex
    sparse_part = np.zeros_like(columns)
    sparse_part[labels] += columns[labels[first]]
    for at, nb in ranks:
        sparse_part[labels[at]] += columns[labels[nb]]
    return (x.nonedge_value * (colsum - dp)
            + x.slope * sparse_part.T.reshape(reps, n_masks, n))


def w_color_coding(shape: TreeShape, x: CenteredMatrix, reps: int,
                   rng: np.random.Generator, return_samples: bool = False):
    """Unbiased color-coding estimate of ``w_exact``.

    Per repetition every host vertex gets an iid uniform color among aleph+1;
    a subset-state DP sums centered products over rainbow embeddings, and
    dividing by the rainbow probability and |Aut| removes the bias.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    c = shape.aleph + 1
    n = x.n
    children = _rooted_children(shape)
    q = colorful_probability(shape.aleph)
    labels, _, _, dst, indptr = _arcs(x.base_graph.edge_array)
    arcs = (labels, *_neighbour_ranks(dst, indptr))
    batch = max(1, (1 << 22) // ((1 << c) * max(n, 1)))
    samples = np.empty(reps)
    done = 0
    while done < reps:
        r_b = min(batch, reps - done)
        colors = rng.integers(0, c, size=(r_b, n))
        bit = (1 << colors).astype(np.int64)
        dp_cache: dict[int, np.ndarray] = {}
        sizes: dict[int, int] = {}
        # catalog labels are a preorder (children above their parent), so
        # walking them downwards finishes every subtree before its root
        for v in range(shape.aleph, -1, -1):
            acc = np.zeros((r_b, 1 << c, n))
            ridx = np.repeat(np.arange(r_b), n)
            hidx = np.tile(np.arange(n), r_b)
            acc[ridx, bit.ravel(), hidx] = 1.0
            acc_size = 1
            for child in children[v]:
                msg = _cc_messages(dp_cache.pop(child), x, arcs)
                csz = sizes[child]
                a_masks, c_masks, out_masks = _disjoint_mask_pairs(c, acc_size, csz)
                new = np.zeros_like(acc)
                for cm in np.unique(c_masks):
                    sel = c_masks == cm
                    new[:, out_masks[sel], :] += (acc[:, a_masks[sel], :]
                                                  * msg[:, cm, :][:, None, :])
                acc = new
                acc_size += csz
            dp_cache[v] = acc
            sizes[v] = acc_size
        root_dp = dp_cache[0]
        full = (1 << c) - 1
        samples[done: done + r_b] = root_dp[:, full, :].sum(axis=1) / (q * shape.aut)
        done += r_b
    if return_samples:
        return samples
    return float(samples.mean())


# ---------------------------------------------------------------------------
# Assembled statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeStatResult:
    value: float
    per_shape: tuple[tuple[int, float, float], ...]
    method: str
    reps: int = 0


def _w_all(graph: Graph, params: ModelParams, aleph: int, method: str,
           reps: int, rng: np.random.Generator | None) -> np.ndarray:
    x = CenteredMatrix.from_graph(graph, params)
    catalog = enumerate_trees(aleph)
    if method == "exact":
        return np.array([w_exact(shape, x) for shape in catalog])
    if method == "sparse":
        engine = counting_engine(aleph)
        return engine.w_all_shapes(graph, x.nonedge_value, x.slope)
    if method == "cc":
        if rng is None:
            raise ValueError("color coding needs an explicit generator")
        return np.array([w_color_coding(shape, x, reps, rng) for shape in catalog])
    raise ValueError(f"unknown method {method!r}")


def f_tree_stat(a: Graph, b: Graph, params: ModelParams, aleph: int,
                method: str = "sparse", reps: int | None = None,
                rng: np.random.Generator | None = None) -> TreeStatResult:
    """Tree-counting pair statistic Σ_shapes a_shape·W_shape(A)·W_shape(B)."""
    if a.n_vertices != params.n or b.n_vertices != params.n:
        raise ValueError("graphs must live on the model's vertex set")
    if reps is None:
        reps = default_reps(params, aleph) if method == "cc" else 0
    elif reps < 1:
        raise ValueError("reps must be >= 1")
    w_a = _w_all(a, params, aleph, method, reps, rng)
    w_b = _w_all(b, params, aleph, method, reps, rng)
    catalog = enumerate_trees(aleph)
    coeffs = np.array([a_coefficient(shape, params.n, params.s)
                       for shape in catalog])
    value = float(np.sum(coeffs * w_a * w_b))
    per_shape = tuple((i, float(w_a[i]), float(w_b[i])) for i in range(len(catalog)))
    return TreeStatResult(value=value, per_shape=per_shape, method=method,
                          reps=reps if method == "cc" else 0)


def threshold(params: ModelParams, aleph: int, C: float) -> float:
    """The detection threshold τ = C · predicted planted mean, for C in (0, 1).

    A pair is called planted when its statistic f ≥ τ (ties planted) and
    null otherwise; `is_planted` applies that rule."""
    if not 0 < C < 1:
        raise ValueError("C must lie in (0, 1)")
    return C * predicted_f_mean(params, aleph)


def is_planted(f, tau: float):
    """The decision at threshold τ, for one value or elementwise: f ≥ τ."""
    return np.asarray(f) >= tau


def cycle_count_test(a: Graph, ell: int, params: ModelParams) -> float:
    """Single-graph cycle-count z-score against the null Poisson mean
    (λs)^ell/(2·ell)."""
    if ell < 3:
        raise ValueError("cycle length must be >= 3")
    m0 = (params.lam * params.s) ** ell / (2 * ell)
    observed = count_cycles(a, ell)
    return (observed - m0) / math.sqrt(m0)
