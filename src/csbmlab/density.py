"""Subgraph density scoring, admissibility classification and decompositions.

The density score Φ assigns each graph a per-vertex factor x = 2λ̃²k²n/D^50
and a per-edge factor y = 1000λ̃^20·k^20·D^50/n; everything is handled in
natural-log space because the factors span hundreds of orders of magnitude.
A graph is *bad* when Φ < 1/log n, *self-bad* when additionally every proper
subgraph scores strictly higher, and *admissible* when it has no bad subgraph
and no short cycle. Two constructive decompositions split E(S)\\E(H) into
cycles and paths with exact bookkeeping of the path count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (
    Graph,
    cycles_up_to,
    edge_difference,
    is_subgraph,
    leaves,
)
from .trees import OTTER_ALPHA

__all__ = [
    "DensityParams",
    "phi_log",
    "is_bad",
    "is_self_bad",
    "has_bad_subgraph",
    "is_admissible",
    "choose_N",
    "DecompPath",
    "Decomposition",
    "decompose_plain",
    "decompose_revised",
]

MAX_SUBGRAPH_EDGES = 24
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)])  # an edge mask fits 3 bytes


@dataclass(frozen=True)
class DensityParams:
    """Parameters of the density score: problem size n, degree budget D,
    λ̃ = max(λ, 1) and the community count k.

    n only enters arithmetically, so tests may pass astronomically large
    values (the score behaves in its intended regime once n > 1000·λ̃^20·k^20·D^50).
    """

    n: float
    D: int
    lambda_tilde: float
    k: int

    def __post_init__(self) -> None:
        # the bad-graph threshold takes log log n
        if not (math.isfinite(self.n) and self.n > 1):
            raise ValueError(f"n must be finite and > 1, not {self.n}")
        if not math.isfinite(self.lambda_tilde):
            raise ValueError(f"lambda_tilde is max(lambda, 1) and must be finite, "
                             f"not {self.lambda_tilde}")
        if self.D < 100:
            raise ValueError("degree budget D must be >= 100")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.lambda_tilde < 1:
            raise ValueError("lambda_tilde is max(lambda, 1) and must be >= 1")

    @staticmethod
    def create(n: float, D: int = 100, lam: float = 1.0, k: int = 2) -> "DensityParams":
        return DensityParams(n=n, D=D, lambda_tilde=max(lam, 1.0), k=k)

    @property
    def log_vertex_factor(self) -> float:
        """log(2 λ̃² k² n / D^50)."""
        return (math.log(2) + 2 * math.log(self.lambda_tilde) + 2 * math.log(self.k)
                + math.log(self.n) - 50 * math.log(self.D))

    @property
    def log_edge_factor(self) -> float:
        """log(1000 λ̃^20 k^20 D^50 / n)."""
        return (math.log(1000) + 20 * math.log(self.lambda_tilde)
                + 20 * math.log(self.k) + 50 * math.log(self.D) - math.log(self.n))

    @property
    def log_bad_threshold(self) -> float:
        """Φ below 1/log(n) flags a graph as bad."""
        return -math.log(math.log(self.n))


def phi_log(h: Graph, p: DensityParams) -> float:
    """Natural log of the density score: |V|·log x + |E|·log y; Φ(∅) = 1."""
    return h.n_vertices * p.log_vertex_factor + h.n_edges * p.log_edge_factor


def is_bad(h: Graph, p: DensityParams) -> bool:
    return phi_log(h, p) < p.log_bad_threshold


def _min_phi_log_subgraphs(h: Graph, p: DensityParams, proper: bool) -> float:
    """Minimum of phi_log over subgraphs of h (all, or proper only).

    A subgraph is an edge subset E' on a vertex set between E''s endpoints
    and V(h), and phi_log is linear in the vertex count, so per subset the
    least score is at one of those two ends. The subsets are bitmasks, taken
    in chunks as numpy arrays. A proper subgraph keeps the full edge set (the
    last mask) only on fewer than |V| vertices: on its endpoints or on |V|-1,
    when the endpoints are fewer than |V|."""
    lx, ly = p.log_vertex_factor, p.log_edge_factor
    m, n = h.n_edges, h.n_vertices
    if ly >= 0 and m:  # least: edgeless on 0 or |V| vertices, both proper
        return min(0.0, n * lx)
    if m > MAX_SUBGRAPH_EDGES:
        raise ValueError(f"subgraph enumeration limited to {MAX_SUBGRAPH_EDGES} edges")
    incidence: dict = {}  # vertex -> bitmask of its edges
    for i, edge in enumerate(h.edges):
        for u in edge:
            incidence[u] = incidence.get(u, 0) | 1 << i
    incidence_masks = np.array(list(incidence.values()), dtype=np.int64)
    total, chunk = 1 << m, 1 << 18
    best = math.inf
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        e = _BYTE_BITS[masks & 255] + _BYTE_BITS[masks >> 8 & 255] + _BYTE_BITS[masks >> 16]
        v_min = ((masks[:, None] & incidence_masks) != 0).sum(axis=1)
        score = np.minimum(v_min * lx + e * ly, n * lx + e * ly)
        if proper and start + len(masks) == total:
            v = int(v_min[-1])
            score[-1] = min(v * lx + m * ly, (n - 1) * lx + m * ly) if v < n else math.inf
        best = min(best, float(score.min()))
    return best


def is_self_bad(h: Graph, p: DensityParams) -> bool:
    """Bad, and Φ(h) strictly below Φ(K) for every proper subgraph K."""
    if not is_bad(h, p):
        return False
    return phi_log(h, p) < _min_phi_log_subgraphs(h, p, proper=True)


def has_bad_subgraph(h: Graph, p: DensityParams) -> bool:
    return _min_phi_log_subgraphs(h, p, proper=False) < p.log_bad_threshold


def is_admissible(h: Graph, p: DensityParams, N: int) -> bool:
    """No bad subgraph and no cycle of length <= N."""
    if has_bad_subgraph(h, p):
        return False
    return not cycles_up_to(h, max(N, 3)) if N >= 3 else True


def choose_N(delta: float, eps: float, k: int) -> int:
    """Smallest N >= 2/delta passing the four cutoff inequalities, by scan."""
    if not 0 < delta < 0.1:
        raise ValueError("delta must lie in (0, 0.1)")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    root = math.sqrt(OTTER_ALPHA)
    N = math.ceil(2 / delta)
    while True:
        decay = (1 - delta / 2) ** N
        ok = ((root - delta) * (1 + eps ** N * k) <= root - delta / 2
              and 10 * k * (1 - delta) ** N <= decay
              and (root - delta / 4) * (1 + decay) ** 2 <= root - delta / 8
              and decay * (N + 1) <= 1)
        if ok:
            return N
        N += 1


# ---------------------------------------------------------------------------
# Cycle/path decompositions of E(S) \ E(H)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompPath:
    """A path piece: vertex sequence, closed flag, designated endpoints.

    Open paths have two endpoints (the sequence ends); a closed path walks
    back to its first vertex and has that single designated endpoint.
    """

    seq: tuple[int, ...]
    closed: bool = False

    @property
    def endpoints(self) -> tuple[int, ...]:
        if self.closed:
            return (self.seq[0],)
        return (self.seq[0], self.seq[-1])

    @property
    def interior(self) -> tuple[int, ...]:
        if self.closed:
            return self.seq[1:]
        return self.seq[1:-1]

    def edges(self) -> list[tuple[int, int]]:
        es = [tuple(sorted((self.seq[i], self.seq[i + 1])))
              for i in range(len(self.seq) - 1)]
        if self.closed:
            es.append(tuple(sorted((self.seq[-1], self.seq[0]))))
        return es


@dataclass(frozen=True)
class Decomposition:
    cycles: tuple[Graph, ...]
    paths: tuple[DecompPath, ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def all_edges(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for c in self.cycles:
            out.extend(c.edges)
        for path in self.paths:
            out.extend(path.edges())
        return out


def _find_free_cycle(adj: dict[int, set[int]], allowed: set[int]) -> list[int] | None:
    """Lowest-vertex-first DFS for any cycle fully inside `allowed`."""
    for start in sorted(allowed):
        parent = {start: -1}
        stack = [start]
        order = {start: 0}
        while stack:
            v = stack.pop()
            for u in sorted(adj[v], reverse=True):
                if u not in allowed:
                    continue
                if u not in parent:
                    parent[u] = v
                    order[u] = order[v] + 1
                    stack.append(u)
                elif u != parent[v]:
                    # walk both branches up to their meeting point
                    path_v, path_u = [v], [u]
                    a, b = v, u
                    while a != b:
                        if order[a] >= order[b]:
                            a = parent[a]
                            path_v.append(a)
                        else:
                            b = parent[b]
                            path_u.append(b)
                    cyc = path_v + path_u[:-1][::-1]
                    return cyc
    return None


def _grow_path(start_edge: tuple[int, int], remaining: set[tuple[int, int]],
               adj: dict[int, set[int]], blocked: set[int]) -> DecompPath:
    """Grow a maximal path from `start_edge` using edges in `remaining`;
    growth never extends at a vertex in `blocked` (those stay endpoints)."""
    seq = [start_edge[0], start_edge[1]]
    used = {start_edge}

    def try_extend() -> bool:
        for side in (1, 0):
            end = seq[-1] if side else seq[0]
            other = seq[0] if side else seq[-1]
            if end in blocked:
                continue
            for x in sorted(adj[end]):
                e = tuple(sorted((end, x)))
                if e not in remaining or e in used:
                    continue
                if x == other and len(seq) >= 3:
                    # closing the walk into a cycle-shaped path; the anchor
                    # must sit at the opposite end, else a free cycle escaped
                    # the extraction step
                    if other not in blocked:
                        raise AssertionError("free cycle escaped extraction")
                    used.add(e)
                    return "close"  # type: ignore[return-value]
                if x in seq:
                    continue
                used.add(e)
                if side:
                    seq.append(x)
                else:
                    seq.insert(0, x)
                return True
        return False

    closed = False
    while True:
        res = try_extend()
        if res == "close":
            closed = True
            break
        if not res:
            break
    for e in used:
        remaining.discard(e)
    if closed:
        anchored = [i for i, v in enumerate(seq) if v in blocked]
        if anchored:
            i = anchored[0]
            seq = seq[i:] + seq[:i]
        return DecompPath(tuple(seq), closed=True)
    return DecompPath(tuple(seq), closed=False)


def decompose_plain(h: Graph, s: Graph) -> Decomposition:
    """Split E(s)\\E(h) into cycles avoiding V(h) and anchored paths.

    Cycles are extracted greedily among vertices outside V(h) ∪ L(s) and
    outside previously placed cycles; every remaining edge then joins a
    maximal path whose interior avoids everything placed before it. When
    every isolated vertex of s belongs to V(h) (in particular whenever s has
    none), the number of paths equals |L(s)\\V(h)| + excess(s) - excess(h).
    """
    if not is_subgraph(h, s):
        raise ValueError("h must be a subgraph of s over the same labels")
    anchors = set(h.vertex_set) | set(leaves(s))
    remaining = set(edge_difference(s, h).edges)
    adj: dict[int, set[int]] = {v: set() for v in s.vertices}
    for u, v in remaining:
        adj[u].add(v)
        adj[v].add(u)

    cycles: list[Graph] = []
    placed_vertices: set[int] = set()
    allowed = {v for v in s.vertices if v not in anchors}
    while True:
        cyc = _find_free_cycle(adj, allowed - placed_vertices)
        if cyc is None:
            break
        g = Graph.build([(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))])
        cycles.append(g)
        placed_vertices |= set(cyc)
        for e in g.edges:
            remaining.discard(e)
            adj[e[0]].discard(e[1])
            adj[e[1]].discard(e[0])

    # rebuild adjacency over the remaining edges only
    adj = {v: set() for v in s.vertices}
    for u, v in remaining:
        adj[u].add(v)
        adj[v].add(u)

    paths: list[DecompPath] = []
    blocked = anchors | placed_vertices
    while remaining:
        start = min(remaining)
        path = _grow_path(start, remaining, adj, blocked)
        paths.append(path)
        blocked |= set(path.seq)
    return Decomposition(tuple(cycles), tuple(paths))


def _split_path_at(path: DecompPath, v: int) -> list[DecompPath]:
    """Split a path at an interior vertex v into two open paths.

    A closed path (cycle anchored at seq[0]) splits into its two arcs."""
    i = path.seq.index(v)
    if path.closed:
        return [DecompPath(path.seq[: i + 1]),
                DecompPath(path.seq[i:] + (path.seq[0],))]
    return [DecompPath(path.seq[: i + 1]), DecompPath(path.seq[i:])]


def decompose_revised(h: Graph, s: Graph) -> Decomposition:
    """Variant whose cycles are independent cycles of s and whose paths touch
    nothing except at endpoints; path count <= 5·(|L(s)\\V(h)| + τ(s) - τ(h))."""
    base = decompose_plain(h, s)

    plain_endpoints: set[int] = set()
    for p in base.paths:
        plain_endpoints.update(p.endpoints)

    kept_cycles: list[Graph] = []
    pool: list[DecompPath] = []
    for c in base.cycles:
        if all(s.degree(v) == 2 for v in c.vertices):
            kept_cycles.append(c)
            continue
        # break the cycle at path-endpoint marks
        seq = _cycle_sequence(c)
        marks = [i for i, v in enumerate(seq) if v in plain_endpoints]
        if not marks:
            raise AssertionError("non-independent free cycle with no path endpoint")
        if len(marks) == 1:
            rot = seq[marks[0]:] + seq[: marks[0]]
            pool.append(DecompPath(tuple(rot), closed=True))
        else:
            for a, b in zip(marks, marks[1:] + [marks[0] + len(seq)]):
                arc = [seq[i % len(seq)] for i in range(a, b + 1)]
                pool.append(DecompPath(tuple(arc)))

    for p in base.paths:
        for u in p.endpoints:
            for i, q in enumerate(pool):
                if u in q.interior:
                    pool[i: i + 1] = _split_path_at(q, u)
                    break
        pool.append(p)

    pool = _merge_degree_two_endpoints(pool, set(h.vertex_set) | set(leaves(s)))
    return Decomposition(tuple(kept_cycles), tuple(pool))


def _cycle_sequence(c: Graph) -> list[int]:
    adj = c.adjacency
    start = c.vertices[0]
    seq = [start, min(adj[start])]
    while True:
        nxt = [x for x in adj[seq[-1]] if x != seq[-2]]
        if nxt[0] == start:
            return seq
        seq.append(nxt[0])


def _merge_degree_two_endpoints(pool: list[DecompPath], protected: set[int]) -> list[DecompPath]:
    """Merge pairs of open paths whose shared endpoint belongs to nothing else."""
    changed = True
    while changed:
        changed = False
        count: dict[int, list[int]] = {}
        membership: dict[int, int] = {}
        for i, p in enumerate(pool):
            for u in p.endpoints:
                count.setdefault(u, []).append(i)
            for u in p.interior:
                membership[u] = i
        for u, owners in count.items():
            if u in protected or u in membership or len(owners) != 2:
                continue
            i, j = owners
            if i == j or pool[i].closed or pool[j].closed:
                continue
            a, b = pool[i].seq, pool[j].seq
            a = a if a[-1] == u else a[::-1]
            b = b if b[0] == u else b[::-1]
            if a[0] == b[-1]:
                merged = DecompPath(tuple(a[:-1] + b[:-1]), closed=True)
                anchored = [idx for idx, v in enumerate(merged.seq) if v in protected]
                if anchored:
                    k = anchored[0]
                    merged = DecompPath(merged.seq[k:] + merged.seq[:k], closed=True)
            else:
                merged = DecompPath(tuple(a + b[1:]))
            pool = [p for k, p in enumerate(pool) if k not in (i, j)] + [merged]
            changed = True
            break
    return pool
