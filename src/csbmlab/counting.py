"""Exact centered tree-embedding sums for sparse host graphs.

The per-shape sum W_H = (1/Aut) Σ over injective maps of Π entry(edge) with
entry = c0 + c1·[edge present] expands over edge subsets F ⊆ E(H):

    W_H·Aut = Σ_F  c0^(ℵ-|F|) · c1^|F| · D(F̂) · ff(n - v(F̂), ℵ+1 - v(F̂))

where F̂ is the forest spanned by F, ff a falling factorial placing the free
vertices, and D(F̂) the number of injective maps of the forest onto actual
edges of the host. D is reduced to *connected* pattern counts by an exact
inclusion-exclusion over cross-component collisions: gluing a component onto
the others at any nonempty set of vertex identifications yields a smaller
multiset whose expansion is known recursively. The resulting integer-
coefficient algebra is graph-independent and cached per ℵ, as is the search
order of each cyclic glued pattern. Per host graph, the engine reads the host
through `Graph.csr`: tree-pattern counts come from a vectorized frontier
enumeration and the rare cyclic patterns from backtracking anchored on the
host's 2-core.

Everything is exact: counts are Python integers, and only the final
combination with the entry weights happens in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .graphs import Graph, canonical_form, connected_components, two_core
from .trees import enumerate_trees

__all__ = ["CountingEngine", "counting_engine", "falling_factorial"]

MAX_FRONTIER_ROWS = 4_000_000


def falling_factorial(base: int, length: int) -> int:
    out = 1
    for i in range(length):
        out *= base - i
    return out


def _compact(g: Graph) -> Graph:
    """Relabel onto 0..v-1 preserving sorted label order."""
    mapping = {v: i for i, v in enumerate(g.vertices)}
    return Graph.build([(mapping[u], mapping[v]) for u, v in g.edges],
                       vertices=range(g.n_vertices))


# ---------------------------------------------------------------------------
# Graph-independent algebra, built once per aleph
# ---------------------------------------------------------------------------

class _Algebra:
    """Expands disjoint-forest counts into products of connected counts."""

    def __init__(self) -> None:
        self.patterns: dict[tuple, Graph] = {}
        self._expansions: dict[tuple, dict[tuple, int]] = {}
        self._glue_cache: dict[tuple, dict[tuple, int]] = {}

    def register(self, g: Graph) -> tuple:
        key = canonical_form(g)
        if key not in self.patterns:
            self.patterns[key] = _compact(g)
        return key

    def expansion(self, multiset: tuple) -> dict[tuple, int]:
        """D(multiset) as {product-of-keys: integer coefficient}."""
        if multiset in self._expansions:
            return self._expansions[multiset]
        if len(multiset) == 0:
            out = {(): 1}
        elif len(multiset) == 1:
            out = {multiset: 1}
        else:
            gamma, rest = multiset[0], multiset[1:]
            out = {}
            base = self.expansion(tuple(sorted(rest)))
            for prod, coeff in base.items():
                key = tuple(sorted(prod + (gamma,)))
                out[key] = out.get(key, 0) + coeff
            # subtract every collision pattern of gamma against the rest
            for u_idx in self._nonempty_subsets(len(rest)):
                u_keys = tuple(sorted(rest[i] for i in u_idx))
                remaining = tuple(sorted(rest[i] for i in range(len(rest))
                                         if i not in u_idx))
                for glued_key, count in self._glue_patterns(gamma, u_keys).items():
                    sub = self.expansion(tuple(sorted(remaining + (glued_key,))))
                    for prod, coeff in sub.items():
                        out[prod] = out.get(prod, 0) - count * coeff
            out = {k: v for k, v in out.items() if v != 0}
        self._expansions[multiset] = out
        return out

    @staticmethod
    def _nonempty_subsets(r: int):
        for size in range(1, r + 1):
            yield from combinations(range(r), size)

    def _glue_patterns(self, gamma_key: tuple, u_keys: tuple) -> dict[tuple, int]:
        """All collision patterns of one gamma copy against the u-copies:
        {glued shape key: number of patterns}. Each pattern is a partial
        injection from V(gamma) into the disjoint u-vertices touching every
        u-copy at least once."""
        cache_key = (gamma_key, u_keys)
        if cache_key in self._glue_cache:
            return self._glue_cache[cache_key]
        gamma = self.patterns[gamma_key]
        others = [self.patterns[k] for k in u_keys]
        # lay the u-copies out on fresh labels after gamma's
        offset = gamma.n_vertices
        target_vertex: list[tuple[int, int]] = []  # (copy index, shifted label)
        shifted_edges: list[tuple[int, int]] = list(gamma.edges)
        copy_ranges: list[tuple[int, int]] = []
        for ci, g in enumerate(others):
            copy_ranges.append((offset, offset + g.n_vertices))
            for u, v in g.edges:
                shifted_edges.append((u + offset, v + offset))
            for v in range(g.n_vertices):
                target_vertex.append((ci, v + offset))
            offset += g.n_vertices

        gamma_verts = list(range(gamma.n_vertices))
        copy_of = {label: ci for ci, label in target_vertex}
        out: dict[tuple, int] = {}

        def emit(pairs: list[tuple[int, int]]) -> None:
            touched = {copy_of[t] for _, t in pairs}
            if len(touched) != len(others):
                return
            merge = {t: x for x, t in pairs}
            edges = []
            for u, v in shifted_edges:
                uu, vv = merge.get(u, u), merge.get(v, v)
                edges.append((uu, vv))
            glued = Graph.build(edges)
            key = self.register(glued)
            out[key] = out.get(key, 0) + 1

        targets = [lab for _, lab in target_vertex]

        def search(i: int, used: set[int], pairs: list[tuple[int, int]]) -> None:
            if i == len(gamma_verts):
                if pairs:
                    emit(pairs)
                return
            x = gamma_verts[i]
            search(i + 1, used, pairs)  # leave x unmatched
            for t in targets:
                if t not in used:
                    used.add(t)
                    pairs.append((x, t))
                    search(i + 1, used, pairs)
                    pairs.pop()
                    used.discard(t)

        search(0, set(), [])
        self._glue_cache[cache_key] = out
        return out


# ---------------------------------------------------------------------------
# Host-graph counting primitives
# ---------------------------------------------------------------------------

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
        host whose `Graph.csr` is ``(indptr, indices)``."""
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


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class CountingEngine:
    """Per-ℵ tables: subset expansions of every catalog shape, the gluing
    algebra, and the growth plan. Construction is graph-independent."""

    def __init__(self, aleph: int) -> None:
        self.aleph = aleph
        self.catalog = enumerate_trees(aleph)
        self.algebra = _Algebra()
        self.plan = _GrowthPlan(aleph)
        # register every tree shape up to aleph edges as a known pattern
        for e in range(1, aleph + 1):
            for shape in enumerate_trees(e):
                self.algebra.register(shape.graph())

        # decompose every catalog shape's edge subsets into forest multisets
        self.forest_defs: dict[tuple, tuple] = {}  # forest key -> component keys
        self.forest_meta: dict[tuple, tuple[int, int]] = {}  # -> (v, e)
        self.shape_terms: list[list[tuple[tuple, int, int, int]]] = []
        for shape in self.catalog:
            edges = list(shape.canonical_edges)
            acc: dict[tuple, int] = {}
            for bits in range(1 << len(edges)):
                subset = [e for i, e in enumerate(edges) if bits >> i & 1]
                fkey, v_f, e_f = self._forest_key(subset)
                acc[fkey] = acc.get(fkey, 0) + 1
                self.forest_meta[fkey] = (v_f, e_f)
            self.shape_terms.append(
                [(fkey, mult, *self.forest_meta[fkey]) for fkey, mult in acc.items()])

        # expand every forest through the collision algebra
        self.forest_expansion: dict[tuple, list[tuple[int, tuple]]] = {}
        for fkey, comp_keys in self.forest_defs.items():
            expansion = self.algebra.expansion(comp_keys)
            self.forest_expansion[fkey] = [(c, prod) for prod, c in sorted(
                expansion.items(), key=repr)]

        # needed keys are connected with at most aleph edges, so the ones
        # that are not tree shapes up to aleph edges are exactly the cyclic ones
        self.cyclic_keys = self._needed_keys() - set(self.plan.target_node)
        self.cyclic_orders = {key: _search_order(self.algebra.patterns[key])
                              for key in self.cyclic_keys}

    def _forest_key(self, subset: list[tuple[int, int]]) -> tuple[tuple, int, int]:
        if not subset:
            key = ()
            self.forest_defs.setdefault(key, ())
            return key, 0, 0
        forest = Graph.build(subset)
        comps = connected_components(forest)
        comp_keys = tuple(sorted(self.algebra.register(c) for c in comps))
        self.forest_defs.setdefault(comp_keys, comp_keys)
        return comp_keys, forest.n_vertices, forest.n_edges

    def _needed_keys(self) -> set[tuple]:
        needed: set[tuple] = set()
        for terms in self.forest_expansion.values():
            for _, prod in terms:
                needed.update(prod)
        return needed

    # -- per-graph evaluation ------------------------------------------------

    def pattern_counts(self, graph: Graph) -> dict[tuple, int]:
        indptr, indices = graph.csr
        counts = self.plan.count_embeddings(indptr, indices)
        if self.cyclic_keys:
            core_vertices = frozenset(two_core(graph).vertices)
            neighbours: list[frozenset[int]] = []
            if core_vertices:  # no search starts on an empty core: skip the sets
                flat, bounds = indices.tolist(), indptr.tolist()
                neighbours = [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
            for key, plan in self.cyclic_orders.items():
                counts[key] = _count_injective_cyclic(plan, core_vertices, neighbours)
        return counts

    def forest_counts(self, graph: Graph) -> dict[tuple, int]:
        """Exact injective disjoint-placement counts for every needed forest."""
        counts = self.pattern_counts(graph)
        out: dict[tuple, int] = {}
        for fkey, terms in self.forest_expansion.items():
            total = 0
            for coeff, prod in terms:
                term = coeff
                for key in prod:
                    term *= counts[key]
                    if term == 0:
                        break
                total += term
            out[fkey] = total
        return out

    def w_all_shapes(self, graph: Graph, c0: float, c1: float) -> np.ndarray:
        """W_H for every catalog shape, exactly."""
        n = graph.n_vertices
        aleph = self.aleph
        forests = self.forest_counts(graph)
        w = np.empty(len(self.catalog))
        c0_pow = [c0 ** i for i in range(aleph + 1)]
        c1_pow = [c1 ** i for i in range(aleph + 1)]
        for idx, shape in enumerate(self.catalog):
            total = 0.0
            for fkey, mult, v_f, e_f in self.shape_terms[idx]:
                d = forests[fkey]
                if d == 0:
                    continue
                placements = d * falling_factorial(n - v_f, aleph + 1 - v_f)
                total += (mult * c0_pow[aleph - e_f] * c1_pow[e_f]) * float(placements)
            w[idx] = total / shape.aut
        return w


@lru_cache(maxsize=8)
def counting_engine(aleph: int) -> CountingEngine:
    return CountingEngine(aleph)
