"""Value-semantic graphs over integer vertex labels.

Graphs are immutable: an explicit sorted vertex tuple plus a sorted tuple of
undirected edges. Pattern graphs may live on a sparse subset of labels; the
statistic's hosts use the dense universe {0..n-1}. A host is built once from
an ``(m, 2)`` edge array and keeps only that array, `Graph.edge_array`, and
no adjacency layout: each scoring pass lays it out once, through
`counting._arcs`, and drops the layout. An array-built graph derives its
`edges` tuple, and its `vertices` tuple when built with ``n=``, on first
read, so scoring a host builds neither and stores nothing on it.
Equality is label-sensitive; isomorphism is a separate query
(`canonical_form`).
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "excess",
    "leaves",
    "isolated",
    "edge_intersection",
    "edge_union",
    "intersection",
    "edge_difference",
    "is_subgraph",
    "cycles_up_to",
    "count_cycles",
    "independent_cycles",
    "two_core",
    "connected_components",
    "tree_code",
    "canonical_form",
    "automorphism_count",
]

MAX_CANONICAL_VERTICES = 16
# largest label base whose edge keys u·base + v fit in int64
_MAX_KEY_BASE = 3_037_000_499


def _has(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Membership of each query in the sorted nonempty array `keys`."""
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return keys[at] == query


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d array `a`, sorted: `a` is sorted in
    place and the first value of each run kept, so a caller that still needs
    `a` passes a copy."""
    a.sort()
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    u, v = int(u), int(v)
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with an explicit vertex set.

    `vertices` is a sorted tuple of distinct integer labels; `edges` is a
    sorted tuple of (u, v) pairs with u < v and both endpoints in the vertex
    set. Two graphs are equal iff both tuples match exactly. A graph built
    from an edge array stores the array, and its ``n`` when built with
    ``n=``, and derives `edges` (and `vertices`, if built with ``n=``) on
    first read; `n_vertices` and `n_edges` need neither tuple.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        if any(v < 0 for v in self.vertices):
            raise ValueError("vertex labels must be nonnegative")
        eset = set(self.edges)
        if len(eset) != len(self.edges):
            raise ValueError("duplicate edges")
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u},{v}) not normalized")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) endpoint outside vertex set")

    def __getattr__(self, name: str):
        """Derive an array-built graph's `edges`, or the `vertices` of one
        built with ``n=``, on first read; they are cached like the fields."""
        state = self.__dict__
        if name == "edges" and "edge_array" in state:
            value = tuple(zip(*state["edge_array"].T.tolist()))
        elif name == "vertices" and "_n" in state:
            value = tuple(range(state["_n"]))
        else:
            raise AttributeError(name)
        state[name] = value
        return value

    # -- constructors -------------------------------------------------------

    @staticmethod
    def build(edges: Iterable[Sequence[int]] | np.ndarray,
              vertices: Iterable[int] | None = None,
              n: int | None = None) -> "Graph":
        """Build from any edge iterable; vertices default to the endpoints.

        Pass `n` for the dense universe {0..n-1}, or `vertices` for an
        explicit label subset (isolated vertices allowed in both). An
        ``(m, 2)`` integer array takes a numpy path to the same graph, with
        the same errors, and seeds `edge_array`.
        """
        if isinstance(edges, np.ndarray):
            return Graph._from_array(edges, vertices, n)
        norm = sorted({_normalize_edge(u, v) for u, v in edges})
        if n is not None:
            vts = tuple(range(n))
        elif vertices is not None:
            vts = tuple(sorted(set(vertices)))
        else:
            vts = tuple(sorted({w for e in norm for w in e}))
        return Graph(vts, tuple(norm))

    @staticmethod
    def _from_array(ends: np.ndarray, vertices: Iterable[int] | None,
                    n: int | None) -> "Graph":
        """`build` for an edge array: the checks of `_normalize_edge` and
        `__post_init__` run over whole columns, so the per-edge ones are
        skipped, and the tuples are left to `__getattr__`."""
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), got {ends.shape}")
        ends = ends.astype(np.int64, copy=False)
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        loops = np.flatnonzero(lo == hi)
        if len(loops):
            raise ValueError(f"self-loop at vertex {int(lo[loops[0]])}")
        if n is not None:
            n = max(operator.index(n), 0)  # as tuple(range(n)) would have it
            vts = None
            stop = n
            inside = (lo >= 0) & (hi < n)
        else:
            if vertices is not None:
                vts = tuple(sorted(set(vertices)))
                labels = np.array(vts, dtype=np.int64)
                inside = np.isin(lo, labels) & np.isin(hi, labels)
            else:
                vts = tuple(_distinct(ends.flatten()).tolist())
                inside = np.ones(len(ends), dtype=bool)
            if vts and vts[0] < 0:
                raise ValueError("vertex labels must be nonnegative")
            stop = vts[-1] + 1 if vts else 0
        if not inside.all():
            # the first offending edge in sorted order, as __post_init__ reports
            u, v = min(zip(lo[~inside].tolist(), hi[~inside].tolist()))
            raise ValueError(f"edge ({u},{v}) endpoint outside vertex set")
        base = max(stop, 1)
        if base > _MAX_KEY_BASE:
            raise ValueError(f"vertex label {stop - 1} too large for an edge array")
        keys = lo * base
        keys += hi
        del lo, hi, inside
        keys = _distinct(keys)
        edge_array = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, base, out=(edge_array[:, 0], edge_array[:, 1]))
        edge_array.flags.writeable = False
        g = object.__new__(Graph)
        g.__dict__.update({"_n": n} if vts is None else {"vertices": vts},
                          edge_array=edge_array)
        return g

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(tuple(range(n)), ())

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(tuple(range(n)), tuple(combinations(range(n), 2)))

    @staticmethod
    def cycle(length: int, offset: int = 0) -> "Graph":
        if length < 3:
            raise ValueError("cycle length must be >= 3")
        edges = [(offset + i, offset + (i + 1) % length) for i in range(length)]
        return Graph.build(edges)

    @staticmethod
    def path(n_vertices: int, offset: int = 0) -> "Graph":
        edges = [(offset + i, offset + i + 1) for i in range(n_vertices - 1)]
        return Graph.build(edges, vertices=range(offset, offset + n_vertices))

    # -- basic views --------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        n = self.__dict__.get("_n")
        return len(self.vertices) if n is None else n

    @property
    def n_edges(self) -> int:
        edges = self.__dict__.get("edges")
        return len(self.edge_array) if edges is None else len(edges)

    @property
    def _label_stop(self) -> int:
        """One more than the largest label, 0 without vertices: O(1)."""
        n = self.__dict__.get("_n")
        if n is not None:
            return n
        vts = self.vertices
        return vts[-1] + 1 if vts else 0

    @property
    def _dense(self) -> bool:
        """Whether the labels are 0..n-1. They are sorted, distinct and
        nonnegative, so that holds iff the last one is n-1 (or there are none)."""
        return self._label_stop == self.n_vertices

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """`edges` as a read-only ``(m, 2)`` int64 array, in the same order."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edge_set

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """One-line edge list: ``n=<int>; <u>-<v>,<u>-<v>,...``.

        Dense-universe graphs round-trip exactly; an explicit non-dense
        vertex subset is carried in an extra ``v=`` field.
        """
        parts = [f"n={self.n_vertices}"]
        if not self._dense:
            parts.append("v=" + ",".join(str(v) for v in self.vertices))
        parts.append(",".join(f"{u}-{v}" for u, v in self.edges))
        return "; ".join(parts)

    @staticmethod
    def from_text(line: str) -> "Graph":
        """Inverse of `to_text`; other fields or a wrong ``n`` are errors."""
        fields = [f.strip() for f in line.strip().split(";")]
        if not fields[0].startswith("n="):
            raise ValueError(f"malformed graph line: {line!r}")
        n = int(fields[0][2:])
        if n < 0:
            raise ValueError(f"malformed graph line: n must be >= 0 in {line!r}")
        vertices: list[int] | None = None
        if len(fields) > 1 and fields[1].startswith("v="):
            vertices = [int(x) for x in fields.pop(1)[2:].split(",") if x]
        if len(fields) > 2 or (vertices is not None and len(set(vertices)) != n):
            raise ValueError(f"malformed graph line: {line!r}")
        edges = []
        if len(fields) > 1 and fields[1]:
            for tok in fields[1].split(","):
                u, v = tok.split("-")
                edges.append((int(u), int(v)))
        if vertices is None:
            return Graph.build(edges, n=n)
        return Graph.build(edges, vertices=vertices)

    def to_json(self) -> str:
        obj: dict = {"n": self.n_vertices, "edges": [list(e) for e in self.edges]}
        if not self._dense:
            obj["vertices"] = list(self.vertices)
        return json.dumps(obj, separators=(",", ":"))

    @staticmethod
    def from_json(payload: str) -> "Graph":
        """Inverse of `to_json`; other keys or a wrong ``n`` are errors."""
        obj = json.loads(payload)
        try:
            if set(obj) - {"n", "vertices", "edges"}:
                raise TypeError(f"unknown keys among {sorted(obj)}")
            labels = [w for e in obj["edges"] for w in e] + obj.get("vertices", [])
            labels += [obj["n"]] if "n" in obj or "vertices" not in obj else []
            if not all(type(w) is int for w in labels):  # no bools, no floats
                raise TypeError("labels and n must be integers")
            if obj.get("n", 0) < 0:
                raise TypeError("n must be >= 0")
            if "vertices" in obj:
                if "n" in obj and obj["n"] != len(set(obj["vertices"])):
                    raise TypeError("n is not the number of vertices")
                return Graph.build(obj["edges"], vertices=obj["vertices"])
            return Graph.build(obj["edges"], n=obj["n"])
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed graph JSON: needs an 'edges' list and an "
                             f"integer 'n' or a 'vertices' list ({exc})") from exc


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def excess(g: Graph) -> int:
    """|E| - |V| over the declared vertex set (isolated vertices count)."""
    return g.n_edges - g.n_vertices


def leaves(g: Graph) -> frozenset[int]:
    return frozenset(v for v in g.vertices if g.degree(v) == 1)


def isolated(g: Graph) -> frozenset[int]:
    return frozenset(v for v in g.vertices if g.degree(v) == 0)


def edge_intersection(s: Graph, h: Graph) -> Graph:
    """Graph induced by E(s) ∩ E(h); no isolated vertices in the output."""
    edges = sorted(s.edge_set & h.edge_set)
    return Graph.build(edges)


def edge_union(s: Graph, h: Graph) -> Graph:
    """Union graph on V(s) ∪ V(h) with E(s) ∪ E(h)."""
    return Graph.build(sorted(s.edge_set | h.edge_set),
                       vertices=s.vertex_set | h.vertex_set)


def intersection(s: Graph, h: Graph) -> Graph:
    """Vertex-and-edge intersection: (V(s) ∩ V(h), E(s) ∩ E(h))."""
    return Graph.build(sorted(s.edge_set & h.edge_set),
                       vertices=s.vertex_set & h.vertex_set)


def edge_difference(s: Graph, h: Graph) -> Graph:
    """Graph induced by E(s) \\ E(h); no isolated vertices in the output."""
    return Graph.build(sorted(s.edge_set - h.edge_set))


def is_subgraph(h: Graph, g: Graph) -> bool:
    return h.vertex_set <= g.vertex_set and h.edge_set <= g.edge_set


def _edge_subset(h: Graph, g: Graph) -> bool:
    """E(h) ⊆ E(g), by searching h's edge keys among g's sorted ones."""
    if not h.n_edges:
        return True
    if not g.n_edges:
        return False
    base = max(h._label_stop, g._label_stop)
    keys = g.edge_array[:, 0] * base + g.edge_array[:, 1]
    return bool(_has(keys, h.edge_array[:, 0] * base + h.edge_array[:, 1]).all())


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def cycles_up_to(g: Graph, max_len: int) -> list[Graph]:
    """All distinct cycle subgraphs with 3 <= length <= max_len.

    Each cycle is reported once: the DFS starts at the cycle's lowest-labeled
    vertex and walks in the direction of its smaller neighbor.
    """
    if max_len < 3:
        raise ValueError("max_len must be >= 3")
    core = two_core(g)
    adj = core.adjacency
    found: list[Graph] = []

    # Each cycle is listed from its minimum vertex with second < last vertex,
    # so every cycle subgraph appears exactly once.
    def extend(path: list[int], start: int) -> None:
        last = path[-1]
        for nxt in adj[last]:
            if nxt == start and len(path) >= 3:
                if path[1] < path[-1]:
                    found.append(Graph.build(
                        [(path[i], path[(i + 1) % len(path)]) for i in range(len(path))]))
            elif nxt > start and nxt not in path and len(path) < max_len:
                path.append(nxt)
                extend(path, start)
                path.pop()

    for start in core.vertices:
        extend([start], start)
    found.sort(key=lambda c: (c.n_vertices, c.vertices))
    return found


def count_cycles(g: Graph, length: int) -> int:
    """Number of cycle subgraphs of exactly the given length."""
    return sum(1 for c in cycles_up_to(g, length) if c.n_vertices == length)


def independent_cycles(g: Graph, m: int) -> list[Graph]:
    """m-cycles of g with no external edge incident to their vertices.

    Such a cycle is exactly a connected component of g with m vertices, all
    of degree 2 in g: a cycle whose vertices have no other edge is a whole
    component, and a connected 2-regular graph is a cycle. So one pass over
    `connected_components` lists them, with no cycle enumeration: linear in
    the size of g, up to sorting each component's edges. The result equals
    `cycles_up_to(g, m)` filtered to length m and to degree-2 vertices, in
    the same order (by vertex tuple).
    """
    if m < 3:
        raise ValueError("m must be >= 3")
    # Components come out in order of their least vertex, and disjoint
    # vertex tuples sort by their first entry, so no sort is needed.
    return [c for c in connected_components(g)
            if c.n_vertices == m and all(g.degree(v) == 2 for v in c.vertices)]


def two_core(g: Graph) -> Graph:
    """Strip degree-<=1 vertices, all at once in each round, until min
    degree >= 2 (or empty).

    A round costs O(k + edges left) over the k labels it tracks. Once fewer
    than k/8 edges are left, their endpoints are relabelled 0..k'-1 and the
    other labels dropped: they have degree 0, so the next round would drop
    them. After a relabelling k' <= 2·edges, so the relabellings cost
    O(n + m) in all, and a near-tree host's many late rounds cost what is
    left of it, not O(n) each. Every vertex the core keeps has degree >= 2,
    so the kept edges' endpoints are exactly its vertices, and the core is
    built from those edges alone."""
    ends = g.edge_array
    if not g._dense:  # edge endpoints as positions in the sorted label tuple
        ends = np.searchsorted(np.array(g.vertices, dtype=np.int64), ends)
    u, v = ends[:, 0], ends[:, 1]
    kept = np.arange(len(ends))
    k = g.n_vertices
    alive = np.ones(k, dtype=bool)
    while True:
        if 8 * len(kept) < k:
            used = np.zeros(k, dtype=bool)
            used[u] = used[v] = True
            at = np.cumsum(used) - 1
            u, v = at[u], at[v]
            k = np.count_nonzero(used)
            alive = np.ones(k, dtype=bool)
        drop = alive & (np.bincount(u, minlength=k) + np.bincount(v, minlength=k) <= 1)
        if not drop.any():
            break
        alive &= ~drop
        inner = alive[u] & alive[v]
        u, v, kept = u[inner], v[inner], kept[inner]
    return Graph.build(g.edge_array[kept])


def connected_components(g: Graph) -> list[Graph]:
    """Components as graphs (isolated vertices are singleton components)."""
    seen: set[int] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        edges = []
        while stack:
            v = stack.pop()
            for u in g.adjacency[v]:
                if v < u:
                    edges.append((v, u))
                if u not in comp:
                    comp.add(u)
                    seen.add(u)
                    stack.append(u)
        comps.append(Graph.build(edges, vertices=comp))
    return comps


# ---------------------------------------------------------------------------
# Isomorphism machinery (pattern graphs)
#
# Every isomorphism fact about a pattern is read off one canonical code per
# component. A tree component's code is `tree_code`, the nested tuple of
# sorted child codes rooted at its center(s): |Aut| is a product over that
# code, and the catalog's canonical labels are a walk of it
# (`trees._canonical_relabel`). A component with a cycle, up to
# MAX_CANONICAL_VERTICES vertices, is coded by one colour-refined search,
# `_general_canonical_code`, which also returns a vertex order attaining the
# code and the number of orders that do, which is |Aut|; two isomorphic
# components map onto each other along their canonical orders.
# `canonical_form` and `automorphism_count` combine the components' codes.
# ---------------------------------------------------------------------------

def _tree_rooted_code(adj, root: int, parent: int) -> tuple:
    return tuple(sorted(_tree_rooted_code(adj, c, root) for c in adj[root] if c != parent))


def _tree_centers(adj, verts: Sequence[int]) -> list[int]:
    if len(verts) == 1:
        return list(verts)
    deg = {v: len(adj[v]) for v in verts}
    layer = [v for v in verts if deg[v] <= 1]
    remaining = len(verts)
    alive = set(verts)
    while remaining > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
        remaining -= len(layer)
        for v in layer:
            for u in adj[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(alive)


def tree_code(adj, verts: Sequence[int]) -> tuple:
    """Center-rooted canonical code of the tree on `verts` (isomorphism key):
    ``("c1", code)`` for one center, ``("c2", x, y)`` with x <= y for two.

    `adj` maps each vertex to its neighbours: a dict, or a list indexed by
    vertex. Every neighbour of a vertex in `verts` must be in `verts`, so the
    adjacency of a whole graph serves for any of its tree components.
    """
    centers = _tree_centers(adj, verts)
    if len(centers) == 1:
        return ("c1", _tree_rooted_code(adj, centers[0], -1))
    a, b = centers
    return ("c2",) + tuple(sorted([_tree_rooted_code(adj, a, b),
                                   _tree_rooted_code(adj, b, a)]))


def _rooted_automorphisms(code: tuple) -> int:
    """|Aut| of the rooted tree with this code: each child's, times m! for
    each child code repeated m times (repeats are adjacent, the code is sorted)."""
    total = run = 1
    for i, child in enumerate(code):
        run = run + 1 if i and child == code[i - 1] else 1
        total *= run * _rooted_automorphisms(child)
    return total


def _tree_automorphisms(code: tuple) -> int:
    """|Aut| of the tree whose `tree_code` is `code`. Every automorphism fixes
    the center, or the central edge, which it may flip when both halves agree."""
    if code[0] == "c1":
        return _rooted_automorphisms(code[1])
    _, x, y = code
    return _rooted_automorphisms(x) * _rooted_automorphisms(y) * (2 if x == y else 1)


def _refined_classes(g: Graph) -> list[int]:
    """Iterated degree refinement; returns a color per vertex (index order)."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    colors = [g.degree(v) for v in g.vertices]
    for _ in range(g.n_vertices):
        sigs = []
        for v in g.vertices:
            neigh = tuple(sorted(colors[idx[u]] for u in g.adjacency[v]))
            sigs.append((colors[idx[v]], neigh))
        ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _general_canonical_code(g: Graph) -> tuple[tuple, list[int], int]:
    """Canonical code of a connected graph with a cycle, one vertex order
    (of labels) that attains it, and the number of orders that do: |Aut(g)|.

    The search places vertices in order of refined colour and keeps the least
    tuple of adjacency rows. Automorphisms keep the colours, and two orders
    attain the code iff one is the other followed by an automorphism, so the
    attaining orders number |Aut|. The prune cuts a prefix only when it is
    above the best code's, never on a tie, so every one of them is reached.
    """
    n = g.n_vertices
    if n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical codes support cyclic components up to "
                         f"{MAX_CANONICAL_VERTICES} vertices, got {n}")
    idx = {v: i for i, v in enumerate(g.vertices)}
    colors = _refined_classes(g)
    adj_bits = [0] * n
    for u, v in g.edges:
        adj_bits[idx[u]] |= 1 << idx[v]
        adj_bits[idx[v]] |= 1 << idx[u]

    best: list = [None, None, 0]  # least code, an order attaining it, how many do

    def search(order: list[int], rows: list[int], remaining: list[int]) -> None:
        if best[0] is not None and tuple(rows) > best[0][: len(rows)]:
            return
        if not remaining:
            code = tuple(rows)
            if best[0] is None or code < best[0]:
                best[:] = [code, list(order), 1]
            else:  # a larger code was pruned, so this one ties
                best[2] += 1
            return
        # candidates: lowest color class first, break ties by adjacency to placed
        cands = sorted(remaining, key=lambda w: colors[w])
        lead_color = colors[cands[0]]
        for w in cands:
            if colors[w] != lead_color:
                break
            row = 0
            for pos, placed in enumerate(order):
                if adj_bits[w] >> placed & 1:
                    row |= 1 << pos
            order.append(w)
            rows.append(row)
            rest = [x for x in remaining if x != w]
            search(order, rows, rest)
            order.pop()
            rows.pop()

    search([], [], list(range(n)))
    code, order, count = best
    if code is None:
        raise RuntimeError("canonical search placed no complete vertex order")
    return ("G", n, tuple(sorted(colors))) + code, [g.vertices[i] for i in order], count


def _component_codes(g: Graph) -> tuple[int, list[tuple[tuple, int]]]:
    """g's number of isolated vertices, and (canonical code, |Aut|) of each
    of its other components."""
    comps = [c for c in connected_components(g) if c.n_edges > 0]
    codes = []
    for c in comps:
        if excess(c) == -1:
            # g's adjacency serves: building each component's own costs more
            code = tree_code(g.adjacency, c.vertices)
            codes.append((code, _tree_automorphisms(code)))
        else:
            code, _, aut = _general_canonical_code(c)
            codes.append((code, aut))
    return g.n_vertices - sum(c.n_vertices for c in comps), codes


def canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant code: equal codes iff isomorphic graphs. It holds
    the number of isolated vertices and the sorted component codes."""
    n_iso, codes = _component_codes(g)
    return ("C", n_iso, tuple(sorted(code for code, _ in codes)))


def automorphism_count(g: Graph) -> int:
    """Exact |Aut(g)|: (#isolated)!, each component's |Aut|, and m! for each
    component code that m components share."""
    n_iso, codes = _component_codes(g)
    total = math.factorial(n_iso)
    for _, aut in codes:
        total *= aut
    for m in Counter(code for code, _ in codes).values():
        total *= math.factorial(m)
    return total
