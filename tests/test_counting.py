"""Exact sparse counting engine: forest counts, their expansion into
connected counts over vertex identifications, pattern counts, W values."""

import copy
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from csbmlab import counting, tablegen
from csbmlab.counting import (MAX_CORE_ROWS, counting_engine, falling_factorial,
                              load_quotient_table, write_quotient_table)
from csbmlab.experiments import trial_generator
from csbmlab.graphs import Graph, _has, canonical_form, two_core
from csbmlab.models import ModelParams, sample_correlated, sample_null
from csbmlab.statistics import CenteredMatrix, f_tree_stat, w_exact
from csbmlab.tablegen import quotient_table
from csbmlab.trees import enumerate_trees

# ---------------------------------------------------------------------------
# Oracle: the engine's former pattern counter, kept verbatim. Tree shapes
# came from a frontier holding one row per injective embedding, cyclic
# patterns from backtracking that starts in the host's 2-core and extends
# pendant vertices into the whole host.
# ---------------------------------------------------------------------------

MAX_FRONTIER_ROWS = 4_000_000


@dataclass
class _PlanNode:
    node_id: int
    depth: int
    parent: int
    attach: int


class _GrowthPlan:
    """Prefix-shared growth orders for all tree shapes up to `aleph` edges."""

    def __init__(self, aleph: int) -> None:
        self.nodes: list[_PlanNode] = [_PlanNode(0, 0, -1, -1)]
        self.by_depth: dict[int, list[_PlanNode]] = {0: [self.nodes[0]]}
        self._by_prefix: dict[tuple, int] = {(): 0}
        self.target_node: dict[tuple, int] = {}
        for e in range(1, aleph + 1):
            for shape in enumerate_trees(e):
                self._add_target(shape.graph())

    def _add_target(self, tree: Graph) -> None:
        # canonical edges are in growth order: vertex i attaches to a smaller one
        parents = {}
        for u, v in tree.edges:
            parents[max(u, v)] = min(u, v)
        prefix: tuple = ()
        node_id = 0
        for v in range(1, tree.n_vertices):
            prefix = prefix + (parents[v],)
            if prefix in self._by_prefix:
                node_id = self._by_prefix[prefix]
                continue
            node = _PlanNode(len(self.nodes), len(prefix), node_id, parents[v])
            self.nodes.append(node)
            self.by_depth.setdefault(node.depth, []).append(node)
            self._by_prefix[prefix] = node.node_id
            node_id = node.node_id
        self.target_node[canonical_form(tree)] = node_id

    def count_embeddings(self, indptr: np.ndarray,
                         indices: np.ndarray) -> dict[tuple, int]:
        """Ordered injective-map counts for every target tree shape in the
        host whose full-n CSR adjacency (`full_csr`) is ``(indptr, indices)``."""
        n = len(indptr) - 1
        dtype = np.int16 if n < 2 ** 15 else np.int32
        frontiers: dict[int, np.ndarray] = {
            0: np.arange(n, dtype=dtype)[:, None]}
        counts: dict[int, int] = {0: n}
        max_depth = max(self.by_depth)
        for depth in range(1, max_depth + 1):
            for node in self.by_depth.get(depth, []):
                parent_rows = frontiers[node.parent]
                if parent_rows.shape[0] == 0:
                    frontiers[node.node_id] = parent_rows[:, :0].reshape(0, depth + 1)
                    counts[node.node_id] = 0
                    continue
                hosts = parent_rows[:, node.attach].astype(np.int64)
                deg = indptr[hosts + 1] - indptr[hosts]
                total = int(deg.sum())
                if total > MAX_FRONTIER_ROWS:
                    raise MemoryError("frontier enumeration exceeded the row budget")
                reps = np.repeat(np.arange(parent_rows.shape[0]), deg)
                cum = np.concatenate([[0], np.cumsum(deg)])
                pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], deg)
                new_host = indices[indptr[hosts][reps] + pos].astype(dtype)
                # cheap prefilter: stepping straight back to the attach vertex
                fwd = new_host != parent_rows[reps, node.attach]
                reps = reps[fwd]
                new_host = new_host[fwd]
                ok = np.ones(len(reps), dtype=bool)
                for col in range(depth):
                    if col == node.attach:
                        continue
                    ok &= parent_rows[reps, col] != new_host
                frontier = np.concatenate(
                    [parent_rows[reps[ok]], new_host[ok][:, None]], axis=1)
                frontiers[node.node_id] = frontier
                counts[node.node_id] = int(frontier.shape[0])
            # parents live exactly one depth up; free them
            for node in self.by_depth.get(depth - 1, []):
                frontiers.pop(node.node_id, None)
        return {key: counts[nid] for key, nid in self.target_node.items()}


def _search_order(pattern: Graph) -> tuple[tuple, tuple]:
    """Backtracking plan of a cyclic connected pattern: a BFS order from the
    least vertex of its 2-core, core neighbours first, with, per position,
    the earlier positions adjacent to it (nonempty after position 0: the
    pattern is connected) and whether it is a core vertex."""
    pat_core = set(two_core(pattern).vertices)
    start = min(pat_core)
    order = [start]
    seen = {start}
    for v in order:  # grows while it is walked: a BFS
        for u in sorted(pattern.adjacency[v], key=lambda w: (w not in pat_core, w)):
            if u not in seen:
                seen.add(u)
                order.append(u)
    pos = {v: i for i, v in enumerate(order)}
    return (tuple(tuple(pos[u] for u in pattern.adjacency[v] if pos[u] < i)
                  for i, v in enumerate(order)),
            tuple(v in pat_core for v in order))


def _count_injective_cyclic(plan: tuple, core_vertices: frozenset[int],
                            neighbours: list[frozenset[int]]) -> int:
    """Backtracking count of injective maps of a cyclic connected pattern.

    The pattern's own 2-core can only land inside the host's 2-core, which is
    tiny for sparse hosts; pendant parts extend into the full host.
    `neighbours[v]` is host vertex v's neighbour set."""
    earlier, in_core = plan
    count = 0
    image: list[int] = []
    used: set[int] = set()

    def rec(i: int) -> None:
        nonlocal count
        if i == len(earlier):
            count += 1
            return
        if i == 0:  # the least core vertex
            candidates = core_vertices
        else:
            prev = earlier[i]
            candidates = neighbours[image[prev[0]]]
            for j in prev[1:]:
                candidates = candidates & neighbours[image[j]]
            if in_core[i]:
                candidates = candidates & core_vertices
        for c in candidates:
            if c in used:
                continue
            used.add(c)
            image.append(c)
            rec(i + 1)
            image.pop()
            used.discard(c)

    rec(0)
    return count


@lru_cache(maxsize=None)
def _growth_plan(aleph: int) -> _GrowthPlan:
    return _GrowthPlan(aleph)


def full_csr(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency of a host on 0..n-1 over all n vertices, as scipy lays it
    out: vertex v's neighbours are ``indices[indptr[v]:indptr[v + 1]]``,
    increasing."""
    u, v = graph.edge_array.T
    n = graph.n_vertices
    adj = sp.csr_matrix((np.ones(2 * len(u), dtype=np.int8),
                         (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))
    adj.sort_indices()
    return adj.indptr, adj.indices


def support_arcs(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The host's support arcs ``(labels, dst, indptr)``, as
    `CountingEngine.pattern_counts` passes them to the hom pass."""
    labels, _, _, dst, indptr = counting._arcs(graph.edge_array)
    return labels, dst, indptr


def frontier_pattern_counts(aleph: int, graph: Graph) -> dict[int, int]:
    """What `CountingEngine(aleph).pattern_counts(graph)` returned before,
    keyed by table index."""
    eng = counting_engine(aleph)
    indptr, indices = full_csr(graph)
    index = table_index(eng)
    counts = {index[key]: value for key, value
              in _growth_plan(aleph).count_embeddings(indptr, indices).items()}
    core_vertices = frozenset(two_core(graph).vertices)
    flat, bounds = indices.tolist(), indptr.tolist()
    neighbours = [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
    for key in eng.cyclic_keys:
        counts[key] = _count_injective_cyclic(
            _search_order(eng.algebra.patterns[key]), core_vertices, neighbours)
    return counts


# ---------------------------------------------------------------------------
# Oracles: the engine's former per-term loops, kept verbatim. The quotient
# table was solved row by row in Python integers, each forest count was a
# sum of coefficient-weighted products of connected counts, and the hom
# vectors ran over every host vertex, isolated ones included.
# ---------------------------------------------------------------------------

def solve_by_rows(rows: list, hom: list[int]) -> list[int]:
    """inj of every table pattern from its P, one row at a time."""
    inj: list[int] = []
    for p, row in zip(hom, rows):
        inj.append(p - sum(c * inj[j] for j, c in row))
    return inj


def forest_products(eng, counts: dict[int, int]) -> list[int]:
    """What `eng.forest_counts` returned given these pattern counts, from the
    forest record's expansions."""
    out: list[int] = []
    for _, terms in forest_record(eng.aleph)["forests"]:
        total = 0
        for coeff, prod in terms:
            term = coeff
            for key in prod:
                term *= counts[key]
                if term == 0:
                    break
            total += term
        out.append(total)
    return out


def full_n_hom_counts(plan, indptr: np.ndarray, indices: np.ndarray,
                      core: tuple[np.ndarray, list]) -> np.ndarray:
    """What `plan.hom_counts` returned when its vectors ran over all n host
    vertices: each message a zero vector plus a scatter onto the vertices
    of nonzero degree."""
    labels, embeddings = core
    n = len(indptr) - 1
    deg = np.diff(indptr)
    exact = n * int(deg.max(initial=0)) ** plan.aleph < 2 ** 62
    dtype = np.int64 if exact else object
    spread_at = np.flatnonzero(deg)
    starts = indptr[spread_at]
    hom = np.zeros(plan.size, dtype)
    msg: dict[int, np.ndarray] = {}
    at_core: dict[int, np.ndarray] = {}
    for j, (children, spread, trees, pendant, done) in enumerate(plan.jobs):
        h = msg[children[0]] if children else np.ones(n, dtype)
        for c in children[1:]:
            h = h * msg[c]
        if trees:
            hom[trees] = h.sum()
        if pendant and len(labels):
            at_core[j] = h[labels]
        if spread:
            m = np.zeros(n, dtype)
            if len(spread_at):
                m[spread_at] = np.add.reduceat(h[indices], starts)
            msg[j] = m
        for c in done:
            del msg[c]
    for i, r, pendants in plan.cyclic:
        rows = embeddings[r]
        if rows is None:
            continue
        weight = np.ones(len(rows), dtype)
        for col, j in pendants:
            weight = weight * at_core[j][rows[:, col]]
        hom[i] = weight.sum()
    return hom


def per_core_embeddings(plan, core: Graph) -> tuple[np.ndarray, list]:
    """What `plan.core_embeddings` returned when it searched the pattern
    cores one after another, each along its own steps, with no rows shared
    between cores."""
    labels = np.array(core.vertices, dtype=np.int64)
    k = len(labels)
    if k == 0:
        return labels, [None] * len(plan.cores)
    ends = np.searchsorted(labels, core.edge_array)
    keys = np.sort(np.concatenate([ends[:, 0] * k + ends[:, 1],
                                   ends[:, 1] * k + ends[:, 0]]))
    src, dst = np.divmod(keys, k)
    indptr = np.searchsorted(src, np.arange(k + 1))
    deg = np.diff(indptr)
    step = sp.csr_matrix((np.ones(len(keys), dtype=bool), (src, dst)), shape=(k, k))
    step = step + sp.identity(k, dtype=bool, format="csr")
    balls = [None, keys]  # balls[r]: sorted keys of the pairs at distance <= r
    reach = step

    def within(r: int) -> np.ndarray:
        nonlocal reach
        while len(balls) <= r:
            reach = reach @ step
            pairs = reach.tocoo()
            balls.append(np.sort(pairs.row.astype(np.int64) * k + pairs.col))
        return balls[r]

    out = []
    for _, _, steps in plan.cores:
        rows = np.flatnonzero(deg >= steps[0][3])[:, None]
        for near, apart, far, need in steps[1:]:
            anchor = rows[:, near[0]]
            d = deg[anchor]
            total = int(d.sum())
            if total > MAX_CORE_ROWS:
                raise MemoryError(
                    f"core search needs {total} candidate rows (> {MAX_CORE_ROWS}): "
                    f"the host 2-core ({k} vertices, max degree {deg.max()}) is "
                    f"too dense for exact counting at aleph={plan.aleph}")
            parent = np.repeat(np.arange(len(rows)), d)
            new = dst[np.repeat(indptr[anchor] - np.cumsum(d) + d, d) + np.arange(total)]
            ok = deg[new] >= need
            parent, new = parent[ok], new[ok]
            for p in near[1:]:
                ok = _has(keys, rows[parent, p] * k + new)
                parent, new = parent[ok], new[ok]
            for p in apart:
                ok = rows[parent, p] != new
                parent, new = parent[ok], new[ok]
            for p, r in far:
                ok = _has(within(r), rows[parent, p] * k + new)
                parent, new = parent[ok], new[ok]
            rows = np.column_stack([rows[parent], new])
            if not len(rows):
                break
        out.append(rows if len(rows) else None)
    return labels, out


class _PastCap(Exception):
    """A sparse product that could hold more than MAX_CORE_ROWS entries."""


def _support_product(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
    """x·y of two boolean CSR matrices. It has at most one entry per entry
    (i, j) of x and entry of row j of y, and raises _PastCap before it is
    formed when that bound passes MAX_CORE_ROWS."""
    if int(np.diff(y.indptr)[x.indices].sum()) > counting.MAX_CORE_ROWS:
        raise _PastCap
    return x @ y


def spgemm_short_walk_core(edges: np.ndarray, length: int) -> np.ndarray:
    """What `counting._short_walk_core` returned when it squared sparse
    boolean matrices: the rows of a 2-core's sorted edge array that lie on a
    closed, cyclically non-backtracking walk of at most `length` steps;
    `edges` itself when B or a walk set below could pass MAX_CORE_ROWS
    entries.

    With R_a the pairs of arcs (d, f) joined by 1..a steps of the
    non-backtracking matrix B, the support of (I + B)^(a-1)·B, d lies on a
    closed walk of ℓ <= length steps iff some f has (d, f) in
    R_⌈length/2⌉ and (f, d) in R_⌊length/2⌋."""
    if len(edges) == 0:
        return edges
    _, _, src, dst, indptr = counting._arcs(edges)
    arcs = len(src)
    d = np.diff(indptr)[dst]
    total = int(d.sum())
    if total > counting.MAX_CORE_ROWS:
        return edges
    col = np.repeat(indptr[dst] - np.cumsum(d) + d, d) + np.arange(total)
    step = sp.csr_matrix((np.ones(total - arcs, dtype=bool),
                          col[dst[col] != np.repeat(src, d)], np.append(0, np.cumsum(d - 1))),
                         shape=(arcs, arcs))
    wide = step + sp.identity(arcs, dtype=bool, format="csr")
    lo, hi = length // 2, length - length // 2
    # R_lo by repeated squaring of I + B, then R_hi
    short = step if lo else sp.csr_matrix((arcs, arcs), dtype=bool)
    base, m = wide, lo - 1
    try:
        while m > 0:
            if m & 1:
                short = _support_product(base, short)
            m >>= 1
            if m:
                base = _support_product(base, base)
        walks = short if hi == lo else _support_product(short, wide)
    except _PastCap:
        return edges
    closed = np.diff(walks.multiply(short.T.tocsr()).indptr) > 0
    return edges if closed.all() else edges[closed[src < dst]]


def exact_w(eng, graph: Graph, c0: float, c1: float) -> list[float]:
    """Each shape's W as the float nearest the exact rational sum, rebuilt
    from `forest_counts` and the forest record's shape terms."""
    n, aleph = graph.n_vertices, eng.aleph
    forests = eng.forest_counts(graph)
    out = []
    for shape, terms in zip(eng.catalog, shape_terms(aleph)):
        total = sum(mult * Fraction(c0) ** (aleph - e) * Fraction(c1) ** e
                    * forests[fkey] * falling_factorial(n - v, aleph + 1 - v)
                    for fkey, mult, v, e in terms)
        out.append(float(total / shape.aut))
    return out


def backtrack_count(pattern: Graph, host: Graph) -> int:
    """Injective edge-preserving maps of a pattern into the host, by plain
    backtracking over the pattern's vertices in BFS order, one component
    after another."""
    order: list[int] = []
    for start in pattern.vertices:
        if start not in order:
            order.append(start)
            for v in order:  # grows while it is walked: a BFS
                for u in pattern.adjacency[v]:
                    if u not in order:
                        order.append(u)
    image: dict[int, int] = {}

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        placed = [image[u] for u in pattern.adjacency[v] if u in image]
        cands = host.adjacency[placed[0]] if placed else host.vertices
        total = 0
        for c in cands:
            if c not in image.values() and all(host.has_edge(c, w) for w in placed[1:]):
                image[v] = c
                total += rec(i + 1)
                del image[v]
        return total

    return rec(0)


def mixed_host(rng: random.Random, core_n: int, p: float, pendants: int,
               isolated: int) -> Graph:
    """A random graph on `core_n` vertices with a planted cycle, so that its
    2-core is nonempty, random pendant trees grown onto it, isolated
    vertices, and all labels shuffled."""
    edges = [(u, v) for u, v in itertools.combinations(range(core_n), 2)
             if rng.random() < p]
    cycle = rng.sample(range(core_n), rng.randint(3, min(core_n, 6)))
    edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    n = core_n
    for _ in range(pendants):
        edges.append((rng.randrange(n), n))
        n += 1
    n += isolated
    label = list(range(n))
    rng.shuffle(label)
    return Graph.build([(label[u], label[v]) for u, v in edges], n=n)


def forest_of(eng, comp_keys: tuple) -> Graph:
    """A forest with the given component patterns, laid out disjointly."""
    edges, offset = [], 0
    for key in comp_keys:
        pat = eng.algebra.patterns[key]
        edges.extend((u + offset, v + offset) for u, v in pat.edges)
        offset += pat.n_vertices
    return Graph.build(edges)


def brute_forest_count(forest: Graph, host: Graph) -> int:
    """Injective maps of the forest into the host with all edges preserved."""
    verts = sorted(forest.vertex_set)
    hits = 0
    for img in itertools.permutations(range(host.n_vertices), len(verts)):
        m = dict(zip(verts, img))
        if all(host.has_edge(m[u], m[v]) for u, v in forest.edges):
            hits += 1
    return hits


def random_graph(rng, n, p):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph.build(edges, n=n)


class TestForestCounts:
    def test_two_disjoint_edges_on_triangle(self):
        # the 4-vertex path contains a pair of disjoint edges as a subset
        eng = counting_engine(3)
        counts = eng.forest_counts(Graph.build([(0, 1), (1, 2), (0, 2)], n=3))
        edge = table_index(eng)[canonical_form(Graph.build([(0, 1)]))]
        two_edges = eng.forest_defs.index((edge, edge))
        assert counts[two_edges] == 0  # no two disjoint edges in a triangle

    def test_matches_brute_force(self):
        rng = random.Random(19)
        eng = counting_engine(4)
        for trial in range(6):
            n = rng.randint(6, 8)
            host = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
            counts = eng.forest_counts(host)
            for fkey, comp_keys in enumerate(eng.forest_defs):
                if not comp_keys:
                    assert counts[fkey] == 1
                    continue
                forest = forest_of(eng, comp_keys)
                if forest.n_vertices > n:
                    assert counts[fkey] == 0
                    continue
                assert counts[fkey] == brute_forest_count(forest, host), fkey

    @pytest.mark.parametrize("aleph", [5, 6])
    def test_forests_at_depth_match_backtracking(self, aleph):
        # forests of up to aleph+1 vertices, several components each, on
        # hosts with a 2-core, pendant trees and isolated vertices
        rng = random.Random(500 + aleph)
        eng = counting_engine(aleph)
        hit = set()
        for _ in range(3):
            host = mixed_host(rng, rng.randint(6, 8), 0.5, rng.randint(3, 5), 2)
            counts = eng.forest_counts(host)
            for fkey, comp_keys in enumerate(eng.forest_defs):
                assert counts[fkey] == backtrack_count(forest_of(eng, comp_keys), host), fkey
            hit |= {fkey for fkey, value in enumerate(counts) if value}
        assert hit == set(range(len(eng.forest_defs)))  # no count passes for being zero

    def test_cyclic_pattern_count(self):
        # identifying both ends of a 2-path with those of a disjoint edge
        # forms a triangle, first possible inside 4-edge trees
        eng = counting_engine(4)
        tri_key = table_index(eng)[canonical_form(Graph.build([(0, 1), (1, 2), (0, 2)]))]
        assert tri_key in eng.cyclic_keys
        counts = eng.pattern_counts(Graph.complete(4))
        assert counts[tri_key] == 4 * 6  # four triangles, six ordered maps each

    def test_cyclic_counts_match_brute_force(self):
        # hosts with a nonempty 2-core and pendant vertices, so searches
        # start in the core and pattern pendants extend outside it
        rng = random.Random(31)
        eng = counting_engine(6)
        assert len(eng.cyclic_keys) == 9
        embedded = []
        for _ in range(3):
            core = random_graph(rng, 6, 0.6)
            edges = list(core.edges) + [(rng.randrange(6), 6), (6, 7)]
            host = Graph.build(edges, n=8)
            assert two_core(host).n_vertices > 0
            counts = eng.pattern_counts(host)
            for key in eng.cyclic_keys:
                pattern = eng.algebra.patterns[key]
                assert counts[key] == brute_forest_count(pattern, host), key
            embedded.append(sum(counts[key] > 0 for key in eng.cyclic_keys))
        assert min(embedded) == 9  # no count passes for being zero

    @pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1])
    def test_frontier_dtype_switch(self, n):
        # relabelling check around 2**15, where the former row frontier
        # switched its labels from int16 to int32: a small graph on the top
        # labels must count as on its own
        small = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 5)], n=6)
        top = n - small.n_vertices
        host = Graph.build([(u + top, v + top) for u, v in small.edges], n=n)
        eng = counting_engine(4)
        assert eng.pattern_counts(host) == eng.pattern_counts(small)

    def test_host_is_read_through_csr_only(self, monkeypatch):
        # each pass lays the host's edge array out once, through `_arcs`
        # (its other calls lay out the 2-core and the reduced core), and
        # stores nothing on the host
        reads = []
        arcs = counting._arcs

        def counted_arcs(edges):
            reads.append(edges)
            return arcs(edges)

        monkeypatch.setattr(counting, "_arcs", counted_arcs)
        host = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3)], n=5)
        eng = counting_engine(4)
        assert eng.cyclic_keys
        eng.w_all_shapes(host, -0.1, 2.0)
        assert [e is host.edge_array for e in reads] == [False, False, True]
        # a tuple-built host derives its edge array, and keeps nothing else
        assert set(host.__dict__) == {"vertices", "edges", "edge_array"}
        # sampled hosts: built from arrays, checked and scored without the
        # per-edge set or adjacency views
        params = ModelParams(n=400, lam=2.0, k=2, eps=0.3, s=0.8)
        sample = sample_correlated(params, np.random.default_rng(3))
        a, b = sample_null(params, np.random.default_rng(4))
        hosts = (sample.a, sample.b, a, b)
        assert all(set(g.__dict__) == {"_n", "edge_array"} for g in hosts)
        for g in hosts:
            reads.clear()
            eng.w_all_shapes(g, -0.1, 2.0)
            assert sum(e is g.edge_array for e in reads) == 1
        assert all(set(g.__dict__) == {"_n", "edge_array"} for g in hosts)
        # nor the edge and vertex tuples, which array-built hosts derive on
        # first read
        for g in hosts + (sample.parent,):
            for view in ("edge_set", "adjacency", "edges", "vertices"):
                assert view not in g.__dict__, view

    def test_no_cyclic_shapes_below_aleph_four(self):
        assert not counting_engine(3).cyclic_keys

    def test_empty_host(self):
        eng = counting_engine(3)
        counts = eng.forest_counts(Graph.empty(10))
        for fkey, comp_keys in enumerate(eng.forest_defs):
            assert counts[fkey] == (1 if not comp_keys else 0)


class TestWAssembly:
    def test_empty_host_closed_form(self):
        params = ModelParams(n=12, lam=1.0, k=2, eps=0.0, s=0.5)
        host = Graph.empty(12)
        x = CenteredMatrix.from_graph(host, params)
        for aleph in (1, 2, 3, 10):
            eng = counting_engine(aleph)
            w = eng.w_all_shapes(host, x.nonedge_value, x.slope)
            for i, shape in enumerate(enumerate_trees(aleph)):
                expected = (x.nonedge_value ** aleph
                            * falling_factorial(12, aleph + 1) / shape.aut)
                assert w[i] == pytest.approx(expected, rel=1e-12)
                if aleph <= 3:  # the brute force is out of reach at aleph=10
                    assert w[i] == pytest.approx(w_exact(shape, x), rel=1e-10)

    def test_aleph_ten_closed_forms(self):
        # with c0 = 0 and c1 = 1, W_H counts the copies of H in the host: the
        # path P_40 holds 30 paths of 10 edges, the star K_{1,14} holds
        # C(14, 10) stars K_{1,10}, and neither holds another 10-edge tree
        eng = counting_engine(10)
        max_degree = [max(map(len, shape.graph().adjacency.values())) for shape in eng.catalog]
        path = Graph.build([(i, i + 1) for i in range(39)])
        star = Graph.build([(0, i) for i in range(1, 15)])
        for host, degree, copies in ((path, 2, 30), (star, 10, math.comb(14, 10))):
            w = eng.w_all_shapes(host, 0.0, 1.0)
            assert w.tolist() == [copies if d == degree else 0 for d in max_degree]

    def test_matches_w_exact_random(self):
        rng = random.Random(101)
        params = ModelParams(n=14, lam=1.5, k=2, eps=0.3, s=0.8)
        for aleph in (3, 4):
            eng = counting_engine(aleph)
            for _ in range(3):
                host = random_graph(rng, 14, 0.25)
                x = CenteredMatrix.from_graph(host, params)
                w = eng.w_all_shapes(host, x.nonedge_value, x.slope)
                for i, shape in enumerate(enumerate_trees(aleph)):
                    assert w[i] == pytest.approx(w_exact(shape, x),
                                                 rel=1e-9, abs=1e-9)

    def test_rejects_sparse_labels(self):
        # the engine counts any labels (`test_host_with_label_gaps`); the
        # statistic's entry, `CenteredMatrix.from_graph`, takes only 0..n-1
        host = Graph.build([(3, 5)], vertices=[3, 5, 7])
        params = ModelParams(n=3, lam=1.0, k=2, eps=0.0, s=0.5)
        with pytest.raises(ValueError, match="dense universe 0..n-1"):
            CenteredMatrix.from_graph(host, params)
        with pytest.raises(ValueError, match="dense universe 0..n-1"):
            f_tree_stat(host, host, params, 2)

    def test_dense_host_hits_row_budget(self):
        # the engine is built for sparse hosts; a dense one must fail fast
        # instead of exhausting memory
        eng = counting_engine(8)
        with pytest.raises(MemoryError):
            eng.w_all_shapes(Graph.complete(60), -0.1, 2.0)


class TestArrayPasses:
    """The per-ℵ array passes (quotient solve, forest products) against the
    per-term loops they replaced, and W against exact rational arithmetic."""

    def hosts(self):
        yield TestDeepAlgebra().host()
        gen = np.random.default_rng(5)
        params = ModelParams(n=80, lam=1.5, k=2, eps=0.0, s=0.8)
        for _ in range(3):
            yield sample_null(params, gen)[0]
        yield Graph.empty(10)
        # n·Δ^8 past 2^62: the object-dtype vectors and solve
        yield Graph.build([(0, i) for i in range(1, 301)], n=301)

    def test_solve_matches_row_by_row(self):
        eng = counting_engine(8)
        plan = eng.plan
        rows = table_lists(load_quotient_table(8)[1])[0]
        dtypes = []
        for host in self.hosts():
            core = plan.core_embeddings(two_core(host))
            hom = plan.hom_counts(*support_arcs(host), core)
            dtypes.append(hom.dtype)
            inj = plan.solve(hom)
            assert inj == solve_by_rows(rows, hom.tolist())
            assert all(type(v) is int for v in inj)
        assert dtypes[0] == np.int64 and dtypes[-1] == object

    def test_forest_counts_match_the_product_loop(self):
        eng = counting_engine(8)
        for host in self.hosts():
            counts = eng.forest_counts(host)
            assert counts == forest_products(eng, eng.pattern_counts(host))
            assert all(type(v) is int for v in counts)
            if host.n_edges == 0:
                # the empty forest's empty product
                assert counts[eng.forest_defs.index(())] == 1
                assert all(v == 0 for k, v in zip(eng.forest_defs, counts) if k)

    @pytest.mark.parametrize("n, lam, s", [(100_000, 1.2, 0.8), (3000, 1.2, 0.9)])
    def test_w_is_the_rounded_exact_sum(self, n, lam, s):
        # at these n the former float combination was off by 1e-10 relative
        params = ModelParams(n=n, lam=lam, k=2, eps=0.3, s=s)
        host = sample_correlated(params, trial_generator(n, 1, 0, 0)).a
        x = CenteredMatrix.from_graph(host, params)
        eng = counting_engine(8)
        w = eng.w_all_shapes(host, x.nonedge_value, x.slope)
        assert list(w) == exact_w(eng, host, x.nonedge_value, x.slope)


class TestSupportCounting:
    """Hom vectors over the non-isolated vertices against the full-n oracle."""

    def hosts(self):
        params = ModelParams(n=100_000, lam=1.2, k=2, eps=0.3, s=0.8)
        yield sample_correlated(params, trial_generator(100_000, 1, 0, 0)).a
        # criterion-12 config at s=0.3: about 70% of the vertices isolated
        params = ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.3)
        yield sample_correlated(params, trial_generator(12, 0, 0, 0)).b
        # a triangle with a pendant path, among isolated vertices on both
        # sides, so that the core labels 5, 9, 12 sit at support positions 0..2
        yield Graph.build([(5, 9), (9, 12), (5, 12), (12, 20), (20, 31), (31, 40)],
                          n=50)
        yield Graph.empty(10)
        # the stars either side of Δ^8 < 2^31: K_{1,14} takes int32 vectors and
        # K_{1,15}, whose centre sums 15^8 > 2^31 hom maps, int64 ones
        yield Graph.build([(0, i) for i in range(1, 15)], n=15)
        yield Graph.build([(0, i) for i in range(1, 16)], n=16)
        # a triangle whose vertex 2 is the centre of a pendant K_{1,12}, so
        # that int32 vectors feed the pendant values and the cyclic weights
        yield Graph.build([(0, 1), (1, 2), (0, 2)] + [(2, i) for i in range(3, 15)], n=15)
        # the stars either side of n·Δ^8 < 2^62: K_{1,118} is the largest that
        # stays int64 (119·118^8 < 2^62), so the CSR matvec runs at its
        # largest admissible values, and K_{1,119} is counted in Python ints
        yield Graph.build([(0, i) for i in range(1, 119)], n=119)
        yield Graph.build([(0, i) for i in range(1, 120)], n=120)
        yield Graph.build([(0, i) for i in range(1, 301)], n=301)  # object dtype

    def test_equals_the_full_n_vectors(self):
        plan = counting_engine(8).plan
        dtypes, vectors, homs = [], [], []
        for host in self.hosts():
            core = plan.core_embeddings(two_core(host))
            labels, dst, indptr = support_arcs(host)
            got = plan.hom_counts(labels, dst, indptr, core)
            want = full_n_hom_counts(plan, *full_csr(host), core)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
            dtypes.append(got.dtype)
            homs.append(got)
            vectors.append(counting._hom_dtypes(
                len(labels), int(np.diff(indptr).max(initial=0)), 8)[0])
        assert 14 ** 8 < 2 ** 31 < 15 ** 8
        assert 119 * 118 ** 8 < 2 ** 62 <= 120 * 119 ** 8
        assert vectors[0] is np.int32 and dtypes[0] == np.int64
        assert vectors[4:7] == [np.int32, np.int64, np.int32]
        assert dtypes[4:7] == [np.int64] * 3
        # on the triangle, the pendant K_{1,12} reaches the cyclic weights
        assert max(homs[6][i] for i, _, pendants in plan.cyclic if pendants) > 12 ** 4
        assert dtypes[-3:] == [np.int64, object, object]
        assert vectors[-3:] == [np.int64, object, object]

    def test_relabelled_core_is_counted(self):
        # the triangle host's cyclic patterns count through the relabelled core
        plan = counting_engine(8).plan
        host = list(self.hosts())[2]
        labels, _ = core = plan.core_embeddings(two_core(host))
        assert labels.tolist() == [5, 9, 12]
        hom = plan.hom_counts(*support_arcs(host), core)
        assert any(hom[i] for i, _, _ in plan.cyclic)

    def test_edgeless_host_counts_nothing(self):
        plan = counting_engine(8).plan
        host = Graph.empty(10)
        hom = plan.hom_counts(*support_arcs(host), plan.core_embeddings(two_core(host)))
        assert hom.dtype == np.int64 and not hom.any()

    def test_host_with_label_gaps(self):
        # the engine reads a host through its edge array's labels alone, so
        # a copy relabelled onto labels with gaps, in another order, counts
        # as the dense host does
        params = ModelParams(n=3000, lam=2.0, k=2, eps=0.3, s=0.8)
        host = sample_correlated(params, trial_generator(3000, 0, 0, 0)).a
        rng = np.random.default_rng(25)
        image = rng.permutation(np.sort(rng.choice(5 * host.n_vertices, host.n_vertices,
                                                   replace=False)))
        copy = Graph.build(image[host.edge_array], vertices=image.tolist())
        assert copy.n_vertices == host.n_vertices and not copy._dense
        assert two_core(copy).n_edges > 0  # the cyclic patterns are counted too
        eng = counting_engine(8)
        assert eng.pattern_counts(copy) == eng.pattern_counts(host)
        x = CenteredMatrix.from_graph(host, params)
        w = eng.w_all_shapes(host, x.nonedge_value, x.slope)
        assert eng.w_all_shapes(copy, x.nonedge_value, x.slope).tobytes() == w.tobytes()


class TestArcs:
    """`_arcs`, the one layout of an edge array as arcs on positions, and
    `_segments`, the one gather of position runs."""

    def test_segments_are_concatenated_ranges(self):
        rng = np.random.default_rng(4)
        cases = [([], []), ([7], [0]), ([3, 0, 9, 2], [2, 0, 4, 1])]
        cases += [(rng.integers(0, 50, size=30), rng.integers(0, 4, size=30))]
        for starts, lengths in cases:
            starts = np.asarray(starts, dtype=np.int64)
            lengths = np.asarray(lengths, dtype=np.int32)
            want = np.concatenate([np.arange(s, s + d) for s, d in zip(starts, lengths)]
                                  + [np.empty(0, dtype=np.int64)])
            assert np.array_equal(counting._segments(starts, lengths), want)

    @staticmethod
    def graphs():
        rng = random.Random(8)
        yield from (random_graph(rng, n, 0.3) for n in (0, 1, 5, 30))
        yield sampled_host(100_000, 1.2, 0.8, 1)
        # isolated vertices around and between the edges, and a label gap
        yield Graph.build([(2, 5), (5, 6), (2, 6), (6, 9)], n=12)
        yield Graph.build([(0, 1), (1, 7), (7, 40), (1, 40)], vertices=[0, 1, 7, 40, 41])

    def test_matches_adjacency(self):
        for g in self.graphs():
            labels, keys, src, dst, indptr = counting._arcs(g.edge_array)
            k = len(labels)
            assert labels.tolist() == [v for v in g.vertices if g.adjacency[v]]
            assert [tuple(labels[dst[indptr[i]:indptr[i + 1]]].tolist())
                    for i in range(k)] == [g.adjacency[v] for v in labels.tolist()]
            assert indptr[0] == 0 and indptr[-1] == len(dst) == 2 * g.n_edges
            assert np.array_equal(src, np.repeat(np.arange(k), np.diff(indptr)))
            assert np.array_equal(keys, src * k + dst) and (np.diff(keys) > 0).all()
            assert (labels.dtype, keys.dtype, src.dtype, dst.dtype, indptr.dtype) == (
                np.int64, np.int64, np.int64, np.int32, np.int32)


class TestJobSchedule:
    """The hom pass's job order, read off `plan.jobs` alone, and the ℵ=10
    plan's counts against the ℵ=8 plan's on hosts with cycles."""

    # the (code size, code) order held 20, 42 and 86 messages at once
    @pytest.mark.parametrize("aleph, peak", [(8, 7), (9, 10), (10, 19)])
    def test_messages_are_freed_early(self, aleph, peak):
        plan = counting_engine(aleph).plan
        last_user: dict[int, int] = {}
        freed: list[int] = []
        live: set[int] = set()
        most = 0
        for j, (children, spread, _, _, done) in enumerate(plan.jobs):
            assert all(c in live for c in children), j  # run, and not yet freed
            last_user.update((c, j) for c in children)
            if spread:
                live.add(j)
            most = max(most, len(live))
            assert set(done) <= live
            live -= set(done)
            freed += done
        assert not live
        # each message is freed once, in its last consumer's list
        assert sorted(freed) == sorted(last_user)
        assert all(j in plan.jobs[last_user[j]][4] for j in last_user)
        assert [spread for _, spread, *_ in plan.jobs] == [
            j in last_user for j in range(len(plan.jobs))]
        assert all(plan.jobs[j][3] for _, _, pendants in plan.cyclic for _, j in pendants)
        assert most <= peak

    def test_aleph_ten_counts_equal_aleph_eight(self):
        params = ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
        # trial 1's B: 20 of the ℵ=8 cyclic patterns occur in it
        crit12 = sample_correlated(params, trial_generator(12, 0, 1, 0)).b
        # a triangle whose vertices carry a path, a star and a branching tree
        triangle = Graph.build([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5),
                                (1, 6), (1, 7), (1, 8), (2, 9), (9, 10), (9, 11),
                                (11, 12)], n=13)
        eight, ten = counting_engine(8), counting_engine(10)
        index = table_index(ten)  # the two tables index apart
        for host in (crit12, triangle):
            small = eight.pattern_counts(host)
            assert any(small[key] for key in eight.cyclic_keys)
            counts = ten.pattern_counts(host)
            assert all(counts[index[canonical_form(eight.algebra.patterns[key])]] == value
                       for key, value in small.items())


def sampled_host(n: int, lam: float, s: float, seed: int, trial: int = 0) -> Graph:
    params = ModelParams(n=n, lam=lam, k=2, eps=0.3, s=s)
    return sample_correlated(params, trial_generator(seed, 0, trial, 0)).a


def steps_tree_size(tree: dict) -> tuple[int, int, list[int]]:
    """Roots, nodes, and the core slots ending at each node, concatenated."""
    nodes, ends, stack = 0, [], list(tree.values())
    while stack:
        here, children = stack.pop()
        nodes += 1
        ends += here
        stack += children.values()
    return len(tree), nodes, ends


def host_maps(labels: np.ndarray, rows) -> list[tuple]:
    """A core's maps, rows of positions in `labels` or None, as sorted
    tuples of host labels."""
    return [] if rows is None else sorted(map(tuple, labels[rows].tolist()))


CORE_HOSTS = [
    pytest.param(lambda: sampled_host(3000, 1.2, 0.3, 12), id="c12-s0.3"),
    pytest.param(lambda: sampled_host(3000, 1.2, 0.9, 12), id="c12-s0.9"),
    pytest.param(lambda: sampled_host(3000, 1.2, 0.9, 12, trial=1), id="c12-s0.9-b"),
    pytest.param(lambda: sampled_host(3000, 2.0, 0.8, 3000), id="lam2"),
    pytest.param(lambda: sampled_host(3000, 3.0, 0.8, 3000), id="lam3"),
    pytest.param(lambda: sampled_host(100_000, 1.2, 0.8, 1), id="n1e5"),
    # a lone 5-cycle among isolated vertices: every root that needs
    # degree >= 3 is empty, and so is every other node under the
    # degree-2 root
    pytest.param(lambda: Graph.build([(2, 3), (3, 5), (5, 8), (8, 9), (2, 9)],
                                     n=12), id="lone-cycle"),
    pytest.param(lambda: Graph.empty(5), id="empty"),
]
BARBELL = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]


class TestShortWalkCore:
    """The host 2-core reduced to the edges on closed non-backtracking walks
    of at most 2·⌈L(ℵ)/2⌉ steps, L(ℵ) = max(ℵ, 2ℵ-6), before the core search."""

    @pytest.mark.parametrize("aleph", range(3, 11))
    def test_bound_keeps_every_pattern_core(self, aleph):
        # 2·walk_half keeps each pattern core whole, so an injective map's
        # image survives the reduction; it is the least even bound that does
        plan = counting_engine(aleph).plan
        bound = max(aleph, 2 * aleph - 6)
        assert 2 * plan.walk_half in (bound, bound + 1)
        for core, _, _ in plan.cores:
            assert counting._short_walk_core(core.edge_array, plan.walk_half) is core.edge_array
        assert any(len(counting._short_walk_core(core.edge_array, plan.walk_half - 1))
                   < core.n_edges for core, _, _ in plan.cores)

    def test_barbell_keeps_its_bridge(self):
        # two triangles joined by a 2-edge path: the closed walk around both
        # triangles and twice along the path has 10 steps, so half 5, ℵ=8's,
        # keeps the bridge and half 4 drops it
        barbell = BARBELL
        host = Graph.build(barbell + [(6, 7), (7, 8)], n=12)
        plan = counting_engine(8).plan
        labels, rows = plan.core_embeddings(two_core(host))
        assert labels.tolist() == list(range(7))
        slot = [canonical_form(core) for core, _, _ in plan.cores].index(
            canonical_form(Graph.build(barbell)))
        assert len(rows[slot]) == 8  # |Aut| of the barbell
        edges = Graph.build(barbell).edge_array
        reduced = counting._short_walk_core(edges, 4)
        assert Graph.build(reduced) == Graph.build(barbell[:3] + barbell[-3:])
        assert counting._short_walk_core(edges, 5) is edges

    def test_lone_long_cycle_reduces_to_nothing(self):
        plan = counting_engine(8).plan
        host = Graph.cycle(12, offset=3)
        assert len(counting._short_walk_core(host.edge_array, plan.walk_half)) == 0
        labels, rows = plan.core_embeddings(host)
        assert len(labels) == 0 and rows == [None] * len(plan.cores)
        assert counting._short_walk_core(host.edge_array, 6) is host.edge_array

    @pytest.mark.parametrize("n, lam, seed", [(3000, 3.0, 3000), (100_000, 2.0, 1)],
                             ids=["lam3", "n1e5-lam2"])
    def test_w_equals_the_unreduced_search(self, n, lam, seed, monkeypatch):
        params = ModelParams(n=n, lam=lam, k=2, eps=0.3, s=0.8)
        host = sample_correlated(params, trial_generator(seed, 0, 0, 0)).a
        x = CenteredMatrix.from_graph(host, params)
        eng = counting_engine(8)
        core = two_core(host)
        assert len(eng.plan.core_embeddings(core)[0]) < core.n_vertices
        w = eng.w_all_shapes(host, x.nonedge_value, x.slope)
        monkeypatch.setattr(counting, "_short_walk_core", lambda core, half: core)
        assert eng.w_all_shapes(host, x.nonedge_value, x.slope).tobytes() == w.tobytes()

    @pytest.mark.parametrize("host", CORE_HOSTS + [
        pytest.param(lambda: Graph.build(BARBELL), id="barbell")])
    def test_edges_equal_the_spgemm_form(self, host):
        # on lam3 at 2·half >= 14 both forms pass the cap and keep the whole core
        core = two_core(host()).edge_array
        for half in range(1, 8):
            got = counting._short_walk_core(core, half)
            want = spgemm_short_walk_core(core, 2 * half)
            assert (got is core) == (want is core), half
            assert got.tobytes() == want.tobytes(), half

    @pytest.mark.parametrize("host", CORE_HOSTS)
    def test_balls_equal_the_sparse_powers(self, host):
        # the distance balls of the searched core, grown a step at a time,
        # against the supports of (A + I)^r
        reduced = counting._short_walk_core(two_core(host()).edge_array,
                                            counting_engine(8).plan.walk_half)
        _, keys, src, dst, indptr = counting._arcs(reduced)
        k = len(indptr) - 1
        if k == 0:
            return
        step = sp.csr_matrix((np.ones(len(keys), dtype=bool), (src, dst)), shape=(k, k))
        step = step + sp.identity(k, dtype=bool, format="csr")
        ball, reach = keys, step
        for _ in range(2, 7):
            ball = counting._grow_ball(ball, k, dst, indptr)
            reach = reach @ step
            pairs = reach.tocoo()
            assert np.array_equal(ball, np.sort(pairs.row.astype(np.int64) * k + pairs.col))

    def test_reduced_core_is_a_two_core(self):
        core = two_core(sampled_host(3000, 2.0, 0.8, 3000))
        reduced = Graph.build(counting._short_walk_core(core.edge_array, 5))
        assert 0 < reduced.n_vertices < core.n_vertices
        assert two_core(reduced) == reduced
        assert reduced.edge_set <= core.edge_set

    @pytest.mark.parametrize("aleph", range(3, 11))
    def test_batched_pattern_cores(self, aleph):
        graphs = [g for g in load_quotient_table(aleph)[0] if g.n_edges >= g.n_vertices]
        # and a tree, an isolated vertex and labels that start past 0
        graphs += [Graph.path(4), Graph.build([(5, 6), (6, 7), (5, 7), (7, 9)],
                                              vertices=[2, 5, 6, 7, 9])]
        assert counting._two_cores(graphs) == [two_core(g) for g in graphs]


class TestSharedCoreSearch:
    """The pattern cores searched as one prefix tree against the per-core
    search oracle."""

    @pytest.mark.parametrize("host", CORE_HOSTS)
    def test_rows_equal_the_per_core_search(self, host):
        # the shared search runs on the reduced core, so its rows are
        # positions among fewer labels: compare the maps as host labels
        plan = counting_engine(8).plan
        core = two_core(host())
        labels, got = plan.core_embeddings(core)
        want_labels, want = per_core_embeddings(plan, core)
        assert len(got) == len(want) == len(plan.cores)
        for a, b in zip(got, want):
            assert host_maps(labels, a) == host_maps(want_labels, b)

    def test_cap_falls_back_to_the_unreduced_search(self, monkeypatch):
        # on this host the reduction needs a cap of 45,822 entries and the
        # unreduced search one of 19,166 candidate rows: between the two,
        # the reduction gives up and the whole core is searched
        plan = counting_engine(8).plan
        core = two_core(sampled_host(3000, 2.0, 0.8, 3000))
        assert len(plan.core_embeddings(core)[0]) < core.n_vertices
        monkeypatch.setattr(counting, "MAX_CORE_ROWS", 30_000)
        labels, got = plan.core_embeddings(core)
        want_labels, want = per_core_embeddings(plan, core)
        assert np.array_equal(labels, want_labels)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_dense_host_raises_on_both_paths(self):
        plan = counting_engine(8).plan
        core = two_core(Graph.complete(60))
        with pytest.raises(MemoryError, match="too dense for exact counting"):
            plan.core_embeddings(core)
        with pytest.raises(MemoryError, match="too dense for exact counting"):
            per_core_embeddings(plan, core)

    def test_prefixes_are_shared(self):
        # the 40 cores' 233 steps at aleph 8 merge into 133 prefixes
        plan = counting_engine(8).plan
        assert len(plan.cores) == 40
        assert sum(len(steps) for _, _, steps in plan.cores) == 233
        roots, nodes, ends = steps_tree_size(plan.search_tree)
        assert (roots, nodes) == (4, 133)
        assert sorted(ends) == list(range(len(plan.cores)))
        for slot, (_, _, steps) in enumerate(plan.cores):
            children = plan.search_tree
            for step in steps:
                here, children = children[step]
            assert slot in here

    def test_each_node_is_expanded_once(self, monkeypatch):
        # K_8 holds every core with at most 8 vertices, so no node runs dry:
        # one expansion per non-root node, where the per-core search made
        # one per non-first step of every core
        plan = counting_engine(8).plan
        core = two_core(Graph.complete(8))
        calls = []
        column_stack = np.column_stack

        def counted(arrays):
            calls.append(1)
            return column_stack(arrays)

        monkeypatch.setattr(np, "column_stack", counted)
        _, got = plan.core_embeddings(core)
        assert all(rows is not None for rows in got)
        assert len(calls) == 133 - 4
        calls.clear()
        per_core_embeddings(plan, core)
        assert len(calls) == 233 - 40

    def test_search_leaves_no_reference_cycle(self):
        # a walk that holds the host's arrays in a reference cycle keeps
        # them alive until the cyclic collector runs
        plan = counting_engine(8).plan
        core = two_core(sampled_host(3000, 2.0, 0.8, 3000))
        plan.core_embeddings(core)
        gc.collect()
        gc.disable()
        try:
            plan.core_embeddings(core)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDeepAlgebra:
    """Forest expansions over vertex identifications at the depths the
    sweep actually uses."""

    def host(self):
        rng = random.Random(77)
        edges = [(u, v) for u, v in itertools.combinations(range(10), 2)
                 if rng.random() < 0.3]
        return Graph.build(edges, n=10)

    def test_aleph_six_matches_raised_budget_brute(self):
        g = self.host()
        params = ModelParams(n=10, lam=2.0, k=2, eps=0.2, s=0.9)
        x = CenteredMatrix.from_graph(g, params)
        eng = counting_engine(6)
        w = eng.w_all_shapes(g, x.nonedge_value, x.slope)
        for i, shape in enumerate(enumerate_trees(6)):
            wb = w_exact(shape, x, max_n=12, max_aleph=8)
            assert w[i] == pytest.approx(wb, rel=1e-9, abs=1e-9)

    def test_aleph_eight_spot_checks(self):
        # full brute force over all 47 shapes costs ~90 s; spot-check a path,
        # a star and a mixed shape against the raised-budget enumeration
        g = self.host()
        params = ModelParams(n=10, lam=2.0, k=2, eps=0.2, s=0.9)
        x = CenteredMatrix.from_graph(g, params)
        eng = counting_engine(8)
        w = eng.w_all_shapes(g, x.nonedge_value, x.slope)
        catalog = enumerate_trees(8)
        picks = [0, len(catalog) // 2, len(catalog) - 1]
        for i in picks:
            wb = w_exact(catalog[i], x, max_n=12, max_aleph=8)
            assert w[i] == pytest.approx(wb, rel=1e-9, abs=1e-9)

    def test_forest_counts_nonnegative_on_sparse_hosts(self):
        # disjoint-placement counts are counts; a deep-recursion sign error
        # in the algebra would surface as a negative value
        eng = counting_engine(8)
        gen = np.random.default_rng(5)
        params = ModelParams(n=80, lam=1.5, k=2, eps=0.0, s=0.8)
        for _ in range(3):
            g, _ = sample_null(params, gen)
            counts = eng.forest_counts(g)
            assert all(v >= 0 for v in counts)


class TestHomBasis:
    """Counts from rooted homomorphism vectors, 2-core embeddings and the
    quotient table, against independent counters."""

    @pytest.mark.parametrize("aleph", [3, 4, 5, 6])
    def test_every_key_matches_backtracking(self, aleph):
        rng = random.Random(600 + aleph)
        eng = counting_engine(aleph)
        cyclic_hit = set()
        for _ in range(3):
            host = mixed_host(rng, rng.randint(5, 7), 0.5, rng.randint(2, 4), 2)
            counts = eng.pattern_counts(host)
            for key, value in counts.items():
                assert value == backtrack_count(eng.algebra.patterns[key], host), key
            cyclic_hit |= {key for key in eng.cyclic_keys if counts[key]}
        # at aleph 6 every cyclic key is hit, so no count passes for being zero
        assert aleph < 6 or cyclic_hit == eng.cyclic_keys

    def test_aleph_eight_matches_the_frontier_oracle(self):
        rng = random.Random(808)
        eng = counting_engine(8)
        cyclic_hit = set()
        for core_n, p in ((10, 0.35), (12, 0.3), (16, 0.2), (20, 0.12)):
            host = mixed_host(rng, core_n, p, core_n, 5)
            counts = eng.pattern_counts(host)
            assert counts == frontier_pattern_counts(8, host)
            cyclic_hit |= {key for key in eng.cyclic_keys if counts[key]}
        assert cyclic_hit == eng.cyclic_keys

    def test_counts_a_host_the_frontier_could_not(self):
        # n=3000, λ=3, s=0.8: the former row frontier ran out of rows on this
        # host (a 2-core of 1923 vertices); the engine counts it, and its
        # counts of patterns with at most 6 edges agree with the oracle at 6
        params = ModelParams(n=3000, lam=3.0, k=2, eps=0.3, s=0.8)
        host = sample_correlated(params, trial_generator(3000, 0, 0, 0)).a
        with pytest.raises(MemoryError):
            frontier_pattern_counts(8, host)
        counts = counting_engine(8).pattern_counts(host)
        small = frontier_pattern_counts(6, host)
        index = table_index(counting_engine(8))  # the two tables index apart
        six = counting_engine(6).algebra.patterns
        assert all(counts[index[canonical_form(six[key])]] == value
                   for key, value in small.items())
        assert all(v >= 0 for v in counting_engine(8).forest_counts(host))

    def test_exact_past_the_int64_bound(self):
        # K_{1,300} at aleph 8: n·Δ^8 is past 2^62 and hom(K_{1,8}) = Σ deg^8
        # is past 2^63, so int64 vectors would wrap around
        d = 300
        eng = counting_engine(8)
        counts = eng.pattern_counts(Graph.build([(0, i) for i in range(1, d + 1)],
                                                n=d + 1))
        index = table_index(eng)
        stars = {index[canonical_form(Graph.build([(0, i) for i in range(1, j + 1)]))]: j
                 for j in range(1, 9)}
        for key, value in counts.items():
            j = stars.get(key)
            expected = 0 if j is None else 2 * d if j == 1 else math.perm(d, j)
            assert value == expected, key

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_core_map_postcondition_survives_optimize(self, flags):
        # a core whose canonical order is rotated no longer maps onto its
        # class representative; the explicit raise must report it, with
        # asserts stripped too
        done = run_python(flags, CORRUPT_CORE_ORDERS)
        assert done.returncode == 0, done.stdout + done.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_shape_guard_survives_optimize(self, flags, tmp_path):
        # a table whose aleph=7 shapes are out of catalog order would pair
        # each shape with another's terms, and a factor or component index
        # of -1, a shape's forest index past the forests, a quotient column of
        # -(len - 1) or one naming a pattern of more than 7 edges would read
        # another slot; the explicit raises must refuse each, and a quotient
        # column past the end or a count of 0, with asserts stripped too
        with np.load(counting._TABLE) as table:
            committed = dict(table)
        sizes = committed["edges_lengths"]
        last = np.flatnonzero(sizes <= 7)[-1]  # the last aleph=7 pattern
        entry = committed["rows_lengths"][:last].sum()  # its first quotient

        def swap_shapes(table):
            shapes = table["shapes7"].reshape(-1, 7, 2)
            shapes[[0, 1]] = shapes[[1, 0]]

        def factor_minus_one(table):
            table["factors7"][-1] = -1

        def component_minus_one(table):
            table["comps7"][-1] = -1

        def forest_past_the_end(table):
            table["shape_terms7"][0, 0] = len(table["comps7_lengths"])

        def column_wraps_to_one(table):
            table["rows"][entry, 0] = 1 - len(sizes)

        def column_past_the_end(table):
            table["rows"][entry, 0] = len(sizes)

        def column_of_a_larger_pattern(table):
            table["rows"][entry, 0] = np.flatnonzero(sizes > 7)[0]

        def count_zero(table):
            table["rows"][entry, 1] = 0

        for corrupt, message in (
                (swap_shapes, "forest record's shapes are not the catalog's"),
                (factor_minus_one, "names a pattern or a forest its table does not hold"),
                (component_minus_one, "names a pattern or a forest its table does not hold"),
                (forest_past_the_end, "names a pattern or a forest its table does not hold"),
                (column_wraps_to_one, "quotient row names a pattern its table does not hold"),
                (column_past_the_end, "quotient row names a pattern its table does not hold"),
                (column_of_a_larger_pattern, "quotient row names a pattern its table does not hold"),
                (count_zero, "or a count below 1")):
            table = {name: array.copy() for name, array in committed.items()}
            corrupt(table)
            (tmp_path / corrupt.__name__).mkdir()
            np.savez(tmp_path / corrupt.__name__ / "quotients.npz", **table)
            done = run_python(flags, LOAD_FROM_DIRECTORY, str(tmp_path / corrupt.__name__))
            assert done.returncode == 0, done.stdout + done.stderr
            assert message in done.stdout, corrupt.__name__

    def test_committed_tables_regenerate(self):
        # the patterns, quotient rows and forest record alike, at every aleph
        # the generator reaches in seconds. The table keeps the aleph_max
        # generator's labelled copy of each pattern, which for most patterns
        # differs from a smaller aleph's (240 of the 358 at aleph=8), so the
        # patterns are compared by their canonical forms
        for aleph in range(1, 9):
            graphs, arrays = load_quotient_table(aleph)
            built, built_rows, records = generated_table(aleph)
            assert [canonical_form(g) for g in graphs] == [canonical_form(g) for g in built]
            rows, record = table_lists(arrays)
            assert rows == built_rows
            assert record == records[-1]

    def test_writer_rewrites_the_committed_file(self, tmp_path, monkeypatch):
        # byte for byte, not only as parsed arrays: the file format is
        # pinned. Generating aleph_max = 10 takes minutes, so the writer is
        # fed the committed table back, each record renumbered to its indices
        graphs, arrays = load_quotient_table(10)
        rows = table_lists(arrays)[0]
        sizes = np.array([g.n_edges for g in graphs])
        records = [table_lists(load_quotient_table(aleph)[1], np.flatnonzero(sizes <= aleph))[1]
                   for aleph in range(1, 11)]
        committed = counting._TABLE
        monkeypatch.setattr(counting, "_TABLE", tmp_path / "quotients.npz")
        monkeypatch.setattr(tablegen, "quotient_table", lambda _: (graphs, rows, records))
        assert write_quotient_table(10).read_bytes() == committed.read_bytes()

    @pytest.mark.parametrize("aleph", [7, 8])
    def test_loaded_engine_equals_the_generated(self, aleph):
        loaded, built = counting_engine(aleph), generated_engine(aleph)
        assert loaded.forest_defs == built.forest_defs
        assert list(loaded.algebra.patterns) == list(built.algebra.patterns)
        assert loaded.cyclic_keys == built.cyclic_keys
        for name in ("_products", "_w_terms"):
            assert ([a.tolist() for a in getattr(loaded, name)]
                    == [a.tolist() for a in getattr(built, name)])

    def test_build_generates_nothing(self):
        # a fresh interpreter builds every engine from ℵ=1 to ℵ=10 from its
        # committed table alone and scores a host, and the generator module
        # is never imported; W is the generated engine's where generating
        # takes seconds
        done = run_python([], BUILD_EVERY_ENGINE)
        assert done.returncode == 0, done.stdout + done.stderr
        out = json.loads(done.stdout)
        assert out["generator_imported"] is False
        params = ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
        host = sample_correlated(params, trial_generator(3000, 1, 0, 0)).a
        x = CenteredMatrix.from_graph(host, params)
        for aleph in range(1, 11):
            w = out["w"][str(aleph)]
            assert len(w) == len(enumerate_trees(aleph))
            if aleph <= 8:
                expected = generated_engine(aleph).w_all_shapes(host, x.nonedge_value, x.slope)
                assert w == expected.tolist(), aleph
        assert out["sizes"] == [177, 83, 153]

    def test_written_table_loads_back(self, tmp_path, monkeypatch):
        # the writer is the only way to regenerate the committed table; check
        # it round-trips through the loader at every aleph up to its
        # aleph_max, forest records included, and the loader's bound
        monkeypatch.setattr(counting, "_TABLE", tmp_path / "quotients.npz")
        assert write_quotient_table(5) == tmp_path / "quotients.npz"
        graphs, rows, records = generated_table(5)
        loaded, arrays = load_quotient_table(5)
        assert (loaded, *table_lists(arrays)) == (graphs, rows, records[-1])
        for aleph in range(1, 5):
            loaded, arrays = load_quotient_table(aleph)
            loaded_rows, record = table_lists(arrays)
            built, built_rows, built_records = generated_table(aleph)
            assert [canonical_form(g) for g in loaded] == [canonical_form(g) for g in built]
            assert (loaded_rows, record) == (built_rows, built_records[-1])
        assert len(record["shapes"]) == len(enumerate_trees(4))
        # an aleph past the table's is refused, naming the writer
        with pytest.raises(ValueError, match=r"holds aleph <= 5 .*write_quotient_table\(6\)"):
            load_quotient_table(6)

    @pytest.mark.parametrize("aleph", [0, -1, 15])
    def test_writer_refuses_an_aleph_out_of_range(self, aleph, tmp_path, monkeypatch):
        # an aleph of 0 or below names no pattern, and a table without
        # patterns is one no load can read; the writer refuses it, and one
        # past the tree catalog's, before it touches the file
        before = counting._TABLE.read_bytes()
        table = tmp_path / "quotients.npz"
        table.write_bytes(before)
        monkeypatch.setattr(counting, "_TABLE", table)
        with pytest.raises(ValueError, match=r"aleph must be in 1\.\.14"):
            write_quotient_table(aleph)
        assert table.read_bytes() == before

    def test_failed_write_leaves_the_table(self, tmp_path, monkeypatch):
        # a coefficient past int32 in the last record is refused before the
        # file is opened, so the table written before stays whole
        monkeypatch.setattr(counting, "_TABLE", tmp_path / "quotients.npz")
        before = write_quotient_table(3).read_bytes()
        graphs, rows, records = copy.deepcopy(generated_table(3))
        records[-1]["forests"][-1][1][-1][0] = 2 ** 31
        monkeypatch.setattr(tablegen, "quotient_table", lambda _: (graphs, rows, records))
        with pytest.raises(OverflowError):
            write_quotient_table(3)
        assert (tmp_path / "quotients.npz").read_bytes() == before

    @pytest.mark.parametrize("aleph", [9, 10])
    def test_deep_forest_record(self, aleph):
        # too slow to regenerate here, so check its structure: indices in
        # range, factors with at most aleph edges, each forest's leading term
        # itself, and each shape's 2^aleph edge subsets
        graphs, arrays = load_quotient_table(aleph)
        record = table_lists(arrays)[1]
        forests = record["forests"]

        def pattern(i: int) -> Graph:
            assert 0 <= i < len(graphs)
            assert graphs[i].n_edges <= aleph
            return graphs[i]

        for comps, terms in forests:
            for _, factors in terms:
                for i in factors:
                    pattern(i)
            assert [1, comps] in terms
        assert [edges for edges, _ in record["shapes"]] == [
            [list(e) for e in shape.canonical_edges] for shape in enumerate_trees(aleph)]
        for _, terms in record["shapes"]:
            assert sum(mult for _, mult in terms) == 2 ** aleph
            for f, _ in terms:
                assert 0 <= f < len(forests)

    @pytest.mark.parametrize("aleph", [9, 10])
    def test_deep_table(self, aleph):
        graphs, arrays = load_quotient_table(aleph)
        rows = table_lists(arrays)[0]
        # connected graphs with at most aleph edges (OEIS A002905, summed)
        assert len(graphs) == {9: 1068, 10: 3390}[aleph]
        for g, row in zip(graphs, rows):
            assert all(graphs[j].n_vertices < g.n_vertices for j, _ in row)
            if g.n_edges == g.n_vertices - 1:
                # a tree on v vertices has Bell(v-1) independent partitions
                assert sum(c for _, c in row) == bell(g.n_vertices - 1) - 1

    def test_closure_sizes(self):
        # connected graphs with at most 1, 2, ..., 6 edges
        assert [len(quotient_table(a)[0]) for a in range(1, 7)] == [1, 2, 5, 10, 22, 52]


CORRUPT_CORE_ORDERS = """
from csbmlab import counting
search, seen = counting._general_canonical_code, set()

def rotated(g):  # every order of a core code after the first is rotated
    code, order, aut = search(g)
    if code in seen:
        order = order[1:] + order[:1]
    seen.add(code)
    return code, order, aut

counting._general_canonical_code = rotated
try:
    counting.CountingEngine(6)
except RuntimeError as exc:
    print(exc)
else:
    raise SystemExit("no RuntimeError")
"""

BUILD_EVERY_ENGINE = """
import json, sys
import csbmlab
from csbmlab import counting
from csbmlab.experiments import trial_generator
params = csbmlab.ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
host = csbmlab.sample_correlated(params, trial_generator(3000, 1, 0, 0)).a
x = csbmlab.CenteredMatrix.from_graph(host, params)
engines = {aleph: counting.CountingEngine(aleph) for aleph in range(1, 11)}
w = {aleph: eng.w_all_shapes(host, x.nonedge_value, x.slope).tolist()
     for aleph, eng in engines.items()}
eng = engines[8]
print(json.dumps({"w": w, "generator_imported": "csbmlab.tablegen" in sys.modules,
                  "sizes": [len(eng.algebra.patterns), len(eng.cyclic_keys),
                            len(eng.forest_defs)]}))
"""

LOAD_FROM_DIRECTORY = """
import sys
from pathlib import Path
from csbmlab import counting
counting._TABLE = Path(sys.argv[1]) / "quotients.npz"
try:
    counting.CountingEngine(7)
except RuntimeError as exc:
    print(exc)
else:
    raise SystemExit("no RuntimeError")
"""


def run_python(flags: list[str], code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter with these flags, on this checkout's
    sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True, env=env)


generated_table = lru_cache(maxsize=None)(quotient_table)
_GENERATED = tempfile.TemporaryDirectory()


@lru_cache(maxsize=None)
def generated_file(aleph: int) -> Path:
    """The generator's table of ℵ_max = aleph, laid out as the writer lays
    it out (`counting._table_members`), in a temporary file."""
    path = Path(_GENERATED.name) / f"quotients{aleph}.npz"
    np.savez(path, **counting._table_members(*generated_table(aleph)))
    return path


def ragged(items: list, lengths: np.ndarray) -> list[list]:
    """`items` cut into consecutive lists of these lengths."""
    ends = np.cumsum(lengths).tolist()
    return [items[start:end] for start, end in zip([0] + ends, ends)]


def table_lists(arrays: dict, back: np.ndarray | None = None) -> tuple[list, dict]:
    """The quotient rows and the forest record, which `load_quotient_table`
    gives as arrays, as `tablegen.quotient_table` lists them; with `back`,
    each pattern index i is written back[i]."""
    def patterns(index: np.ndarray) -> list[int]:
        return (index if back is None else back[index]).tolist()

    def cut(name: str, items: list) -> list[list]:
        return ragged(items, arrays[name][1])

    entries = arrays["rows"][0]
    rows = cut("rows", list(zip(patterns(entries[:, 0]), entries[:, 1].tolist())))
    factors = cut("factors", patterns(arrays["factors"][0]))
    terms = cut("coeffs", [[c, f] for c, f in zip(arrays["coeffs"][0].tolist(), factors)])
    forests = [[c, t] for c, t in zip(cut("comps", patterns(arrays["comps"][0])), terms)]
    shapes = [[e, t] for e, t in zip(*(cut(name, arrays[name][0].tolist())
                                       for name in ("shapes", "shape_terms")))]
    return rows, {"forests": forests, "shapes": shapes}


@lru_cache(maxsize=None)
def forest_record(aleph: int) -> dict:
    """The forest record `CountingEngine(aleph)` is built from."""
    return table_lists(load_quotient_table(aleph)[1])[1]


@lru_cache(maxsize=None)
def shape_terms(aleph: int) -> list[list[tuple[int, int, int, int]]]:
    """Per catalog shape, the terms ``(forest, mult, v, e)`` of the forest
    record `CountingEngine(aleph)` is built from, with each forest's vertex
    and edge counts summed over its component patterns."""
    graphs, record = load_quotient_table(aleph)[0], forest_record(aleph)
    size = [(sum(graphs[i].n_vertices for i in comps), sum(graphs[i].n_edges for i in comps))
            for comps, _ in record["forests"]]
    return [[(f, mult, *size[f]) for f, mult in terms] for _, terms in record["shapes"]]


def table_index(eng) -> dict[tuple, int]:
    """The table index of each pattern the engine names, by `canonical_form`."""
    return {canonical_form(g): i for i, g in eng.algebra.patterns.items()}


@lru_cache(maxsize=None)
def generated_engine(aleph: int) -> counting.CountingEngine:
    """CountingEngine(aleph) built by the loader from the generator's table
    (`generated_file`) instead of the committed file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_TABLE", generated_file(aleph))
        return counting.CountingEngine(aleph)


def bell(m: int) -> int:
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]
