"""Random samplers: block-model parent, correlated pair, null pair, and the
short-cycle/density-truncated variant.

All samplers take an explicit numpy Generator and are bit-reproducible for a
fixed stream: edge sets are drawn per block pair as a Binomial count followed
by a uniform distinct-pair sample, which reproduces independent Bernoulli
edges in O(expected edges) time. The sample is deduplicated by a sort and
an adjacent-difference mask, not `np.unique`, whose int64 hash path is far
slower on draws this size. Edges stay ``(m, 2)`` arrays, masked and
relabelled by numpy, until `Graph.build` makes each host straight from its
array, which the host keeps as `Graph.edge_array`; the generator calls and
their order are those of the former per-edge Python samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import MAX_SUBGRAPH_EDGES, DensityParams, is_self_bad
from .graphs import (
    Graph,
    _edge_subset,
    canonical_form,
    connected_components,
    cycles_up_to,
    two_core,
)

__all__ = [
    "ModelParams",
    "CorrelatedSample",
    "sample_sbm",
    "sample_correlated",
    "sample_null",
    "cycle_intensity",
    "truncate_graph",
    "sample_truncated",
    "sample_truncated_pair",
    "detect_self_bad_patterns",
    "event_E_holds",
]


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (n, λ, k, ε, s) with the derived edge probabilities."""

    n: int
    lam: float
    k: int
    eps: float
    s: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not 0 <= self.eps < 1:
            raise ValueError("eps must lie in [0, 1)")
        if not 0 < self.s <= 1:
            raise ValueError("s must lie in (0, 1]")
        if self.p_intra > 1:
            raise ValueError("intra-block probability exceeds 1")
        if not 0 < self.null_density < 1:
            raise ValueError("null edge density must lie in (0, 1)")

    @property
    def p_intra(self) -> float:
        return (1 + (self.k - 1) * self.eps) * self.lam / self.n

    @property
    def p_inter(self) -> float:
        return (1 - self.eps) * self.lam / self.n

    @property
    def null_density(self) -> float:
        """Marginal edge density λ·s/n shared by both hypotheses."""
        return self.lam * self.s / self.n

    @property
    def ks_product(self) -> float:
        """λ·s·ε², the single-graph community-detectability product."""
        return self.lam * self.s * self.eps ** 2


@dataclass(frozen=True, eq=False)
class CorrelatedSample:
    """One draw of the planted model: latent labels and matching plus the
    parent graph and the two observed subsampled graphs.

    ``sigma`` and ``pi`` are read-only int64 arrays: ``sigma[u]`` is the
    community of u and ``pi[u]`` its image in B. Array fields take no part
    in a generated ``__eq__``, so samples compare by identity."""

    sigma: np.ndarray
    pi: np.ndarray
    parent: Graph
    a: Graph
    b: Graph

    def __post_init__(self) -> None:
        if not _edge_subset(self.a, self.parent):
            raise ValueError("A must be an edge subset of the parent")


def _sample_distinct(rng: np.random.Generator, total: int, m: int) -> np.ndarray:
    """Uniform m-subset of range(total), sorted, by iid draws deduplicated
    by a sort and an adjacent-difference mask."""
    if m > total:
        raise ValueError("cannot sample more pairs than exist")
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        need = m - chosen.size
        batch = rng.integers(0, total, size=need + max(4, need // 4), dtype=np.int64)
        chosen = np.sort(np.concatenate([chosen, batch]))
        chosen = chosen[np.diff(chosen, prepend=-1) != 0]
        if chosen.size > m:
            # keep a uniform subset of what we have
            keep = rng.permutation(chosen.size)[:m]
            chosen = chosen[np.sort(keep)]
    return chosen


def _decode_triangular(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the pair index t = j(j-1)/2 + i for 0 <= i < j."""
    j = np.floor((1 + np.sqrt(1 + 8 * t.astype(np.float64))) / 2).astype(np.int64)
    j = np.where(j * (j - 1) // 2 > t, j - 1, j)
    j = np.where((j + 1) * j // 2 <= t, j + 1, j)
    i = t - j * (j - 1) // 2
    return i, j


def _binomial_pairs_within(rng: np.random.Generator, members: np.ndarray,
                           p: float) -> np.ndarray:
    na = len(members)
    total = na * (na - 1) // 2
    if total == 0 or p <= 0:
        return np.empty((0, 2), dtype=np.int64)
    m = rng.binomial(total, p)
    idx = _sample_distinct(rng, total, int(m))
    i, j = _decode_triangular(idx)
    return np.stack([members[i], members[j]], axis=1)


def _binomial_pairs_between(rng: np.random.Generator, left: np.ndarray,
                            right: np.ndarray, p: float) -> np.ndarray:
    total = len(left) * len(right)
    if total == 0 or p <= 0:
        return np.empty((0, 2), dtype=np.int64)
    m = rng.binomial(total, p)
    idx = _sample_distinct(rng, total, int(m))
    i, j = idx // len(right), idx % len(right)
    return np.stack([left[i], right[j]], axis=1)


def sample_sbm(params: ModelParams, rng: np.random.Generator) -> tuple[np.ndarray, Graph]:
    """Uniform labeling (a read-only int64 array) plus conditionally
    independent intra/inter edges."""
    sigma = rng.integers(0, params.k, size=params.n)
    sigma.flags.writeable = False
    blocks = [np.flatnonzero(sigma == c) for c in range(params.k)]
    edges = []
    for a in range(params.k):
        edges.append(_binomial_pairs_within(rng, blocks[a], params.p_intra))
        for b in range(a + 1, params.k):
            edges.append(_binomial_pairs_between(rng, blocks[a], blocks[b],
                                                 params.p_inter))
    return sigma, Graph.build(np.concatenate(edges), n=params.n)


def _correlated_pair(sigma: np.ndarray, parent: Graph, params: ModelParams,
                     rng: np.random.Generator) -> CorrelatedSample:
    """Uniform matching, then A and the relabeled B as independent masks of
    the parent's sorted edges (draws in that order)."""
    image = rng.permutation(params.n)
    image.flags.writeable = False
    edges = parent.edge_array
    a_edges = edges[rng.random(len(edges)) < params.s]
    b_edges = image[edges][rng.random(len(edges)) < params.s]
    return CorrelatedSample(sigma=sigma, pi=image, parent=parent,
                            a=Graph.build(a_edges, n=params.n),
                            b=Graph.build(b_edges, n=params.n))


def sample_correlated(params: ModelParams, rng: np.random.Generator) -> CorrelatedSample:
    """Planted draw: parent SBM, uniform matching, two independent masks."""
    sigma, parent = sample_sbm(params, rng)
    return _correlated_pair(sigma, parent, params, rng)


def sample_null(params: ModelParams, rng: np.random.Generator) -> tuple[Graph, Graph]:
    """Two independent Erdős–Rényi graphs at the shared density λs/n."""
    out = []
    all_vertices = np.arange(params.n)
    for _ in range(2):
        edges = _binomial_pairs_within(rng, all_vertices, params.null_density)
        out.append(Graph.build(edges, n=params.n))
    return out[0], out[1]


def cycle_intensity(j: int, params: ModelParams) -> float:
    """Limiting Poisson intensity of j-cycle counts in the parent graph:
    (1 + (k-1)·ε^j)·λ^j / (2j)."""
    if j < 3:
        raise ValueError("cycle length must be >= 3")
    return (1 + (params.k - 1) * params.eps ** j) * params.lam ** j / (2 * j)


# ---------------------------------------------------------------------------
# Truncated model
# ---------------------------------------------------------------------------

def detect_self_bad_patterns(g: Graph, density: DensityParams,
                             vertex_cap: int) -> list[Graph]:
    """Edge-bearing self-bad subgraphs of g with at most vertex_cap vertices.

    Self-bad graphs with edges are leafless, so only 2-core components are
    scanned. When the per-edge factor is >= 1 no edge-bearing graph can be
    self-bad (dropping an edge would lower the score), so the scan is skipped.
    """
    if density.log_edge_factor >= 0:
        return []
    core = two_core(g)
    found: list[Graph] = []
    for comp in connected_components(core):
        if comp.n_edges == 0 or comp.n_vertices > vertex_cap:
            continue
        if comp.n_edges > MAX_SUBGRAPH_EDGES:
            raise ValueError(
                f"2-core component with {comp.n_edges} edges exceeds the "
                f"self-bad scan limit of {MAX_SUBGRAPH_EDGES}")
        comp_edges = list(comp.edges)
        for bits in range(1, 1 << len(comp_edges)):
            edges = [e for i, e in enumerate(comp_edges) if bits >> i & 1]
            cand = Graph.build(edges)
            if any(cand.degree(v) < 2 for v in cand.vertices):
                continue  # self-bad graphs are leafless
            if cand.n_vertices <= vertex_cap and is_self_bad(cand, density):
                found.append(cand)
    return found


def truncate_graph(g: Graph, N: int, vertex_cap: int, rng: np.random.Generator,
                   density: DensityParams | None = None) -> Graph:
    """Remove one uniform edge from every detected pattern (short cycle or
    self-bad subgraph), independently per pattern; repeats are no-ops."""
    if N < 3:
        raise ValueError("N must be >= 3")
    if density is None:
        density = DensityParams.create(n=max(g.n_vertices, 2))
    patterns: list[Graph] = list(cycles_up_to(g, N))
    patterns.extend(detect_self_bad_patterns(g, density, vertex_cap))
    patterns.sort(key=lambda p: (repr(canonical_form(p)), p.vertices))
    removed: set[tuple[int, int]] = set()
    for pat in patterns:
        edge = pat.edges[rng.integers(0, pat.n_edges)]
        removed.add(edge)
    kept = [e for e in g.edges if e not in removed]
    out = Graph.build(kept, vertices=g.vertices)
    if cycles_up_to(out, N):
        raise RuntimeError("truncation left a short cycle")
    if detect_self_bad_patterns(out, density, vertex_cap):
        raise RuntimeError("truncation left a self-bad subgraph")
    return out


def sample_truncated(params: ModelParams, N: int, vertex_cap: int,
                     rng: np.random.Generator,
                     density: DensityParams | None = None,
                     ) -> tuple[np.ndarray, Graph, Graph]:
    """Parent SBM plus its truncated version (σ, G, G')."""
    sigma, parent = sample_sbm(params, rng)
    truncated = truncate_graph(parent, N, vertex_cap, rng, density)
    return sigma, parent, truncated


def sample_truncated_pair(params: ModelParams, N: int, vertex_cap: int,
                          rng: np.random.Generator,
                          density: DensityParams | None = None) -> CorrelatedSample:
    """Correlated pair built on the truncated parent graph."""
    sigma, _, truncated = sample_truncated(params, N, vertex_cap, rng, density)
    return _correlated_pair(sigma, truncated, params, rng)


def event_E_holds(g: Graph, N: int, vertex_cap: int, density: DensityParams) -> bool:
    """True iff g has no cycle of length <= N and no detected self-bad
    subgraph within the vertex cap."""
    if cycles_up_to(g, N):
        return False
    return not detect_self_bad_patterns(g, density, vertex_cap)
