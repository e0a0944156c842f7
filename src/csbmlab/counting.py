"""Exact centered tree-embedding sums for sparse host graphs.

The per-shape sum W_H = (1/Aut) Σ over injective maps of Π entry(edge) with
entry = c0 + c1·[edge present] expands over edge subsets F ⊆ E(H):

    W_H·Aut = Σ_F  c0^(ℵ-|F|) · c1^|F| · D(F̂) · ff(n - v(F̂), ℵ+1 - v(F̂))

where F̂ is the forest spanned by F, ff a falling factorial placing the free
vertices, and D(F̂) the number of injective maps of the forest onto actual
edges of the host. D is reduced to *connected* pattern counts: for a forest
F with components C_1..C_r, Π inj(C_i) = Σ_σ inj(F/σ) over the partitions σ
of V(F) whose blocks hold at most one vertex of each component. The discrete
σ gives inj(F), and every other quotient has fewer vertices, so its own
expansion is known recursively. The integer coefficients are
graph-independent: they are generated once per ℵ and kept with the quotient
table below.

Connected pattern counts come from the homomorphism basis (Curticapean,
Dell & Marx, STOC 2017) taken relative to each pattern's 2-core. For a
connected pattern Q with 2-core K, the maps V(Q) -> host that are
homomorphisms and injective on K number P(Q) = Σ_ρ inj(Q/ρ), over the
partitions ρ of V(Q) into independent sets with at most one K-vertex per
block. The system is unitriangular with graph-independent integer
coefficients (`quotient_table`, which also holds the forest expansions).
An engine only loads them: each ℵ from 1 to 10 has its table file in the
package's `tables/`, and an ℵ without one is refused. The generator runs
only in `write_quotient_table(aleph)`, which (re)writes a file: about 3 s
at ℵ=8, 30-40 s at ℵ=9 and 6-9 minutes at ℵ=10 on 2 vCPUs, and
`CountingEngine(10)` loads the result in about 2 s. Per host graph, read through
`Graph.csr`: P of a tree is a homomorphism count, summed from
rooted-subtree vectors h = Π_children A·h_child, each message A·h one int64
CSR matvec over the host's non-isolated vertices (one `add.reduceat` over
the neighbour segments for Python-integer vectors); P of a cyclic pattern sums
products of its pendant trees' vectors over the injective maps of K into
the host's 2-core. A map keeps K's closed non-backtracking walks so, as K
has at most ℵ edges, its image lies on the host 2-core's edges that close
such a walk within L(ℵ) = max(ℵ, 2ℵ-6) steps; a sparse host keeps few of
them. The maps are found there by one search pruned by degree and host
distance, over a tree of placement steps built once per ℵ: cores whose
placement orders begin alike share a node, and its rows, per host. Solving
the system in order of vertex count gives every injective count.

Everything is exact: counts are Python integers, vectors are int64 only
while no entry can reach 2^62, and W is the correctly rounded float of the
exact rational sum, combined in integers from the weights' exact binary
values. The graph-independent algebra (the quotient solve, the forest
products, the W terms) is compiled into index arrays once per ℵ, so a host
costs a few array passes over it. The engine keys nothing at run time: a
pattern is its table index from the loaded record to W."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .graphs import (Graph, _general_canonical_code, _has, _tree_centers,
                     _tree_rooted_code, canonical_form, two_core)
from .trees import enumerate_trees

__all__ = ["CountingEngine", "counting_engine", "falling_factorial",
           "quotient_table", "load_quotient_table", "write_quotient_table"]

MAX_CORE_ROWS = 4_000_000


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
    """Registry of connected patterns by `canonical_form`, keeping each
    one's first labelled copy on 0..v-1; it also expands disjoint-forest
    counts into products of connected counts, enumerating vertex
    identifications with `_quotient_counts`. Every labelled edge set is
    keyed, or split into keyed components, once. It generates the quotient
    table and the forest record; an engine only reads them back."""

    def __init__(self) -> None:
        self.patterns: dict[tuple, Graph] = {}
        self._keys: dict[tuple, tuple] = {}  # labelled connected edges -> key
        self._splits: dict[tuple, tuple] = {}  # labelled edges -> component keys
        self._expansions: dict[tuple, dict[tuple, int]] = {}

    def register(self, edges: tuple) -> tuple:
        """Key of the connected pattern with these sorted edges, stored when new."""
        key = self._keys.get(edges)
        if key is None:
            g = Graph.build(edges)
            key = self._keys[edges] = canonical_form(g)
            if key not in self.patterns:
                self.patterns[key] = _compact(g)
        return key

    def _split(self, edges: tuple) -> tuple:
        """Sorted keys of the components of the graph with these sorted edges."""
        keys = self._splits.get(edges)
        if keys is None:
            parts: list[list] = []  # edges of each component met so far
            for e in edges:
                meet = [p for p in parts if any(w in f for f in p for w in e)]
                parts = [p for p in parts if p not in meet] + [sum(meet, [e])]
            keys = self._splits[edges] = tuple(sorted(
                self.register(tuple(sorted(p))) for p in parts))
        return keys

    def expansion(self, multiset: tuple) -> dict[tuple, int]:
        """D(multiset) as {product-of-keys: integer coefficient}.

        With the components laid out disjointly as F, Π inj(C_i) = inj(F) +
        Σ_σ inj(F/σ) over the nontrivial partitions σ of V(F) whose blocks
        hold at most one vertex per component; each F/σ has fewer vertices."""
        out = self._expansions.get(multiset)
        if out is None:
            edges: list[tuple[int, int]] = []
            group: list[int] = []
            for c, key in enumerate(multiset):
                pattern, offset = self.patterns[key], len(group)
                edges.extend((u + offset, v + offset) for u, v in pattern.edges)
                group.extend([c] * pattern.n_vertices)
            out = {multiset: 1}
            quotients = _quotient_counts(Graph.build(edges), self._split, group)
            for sub, count in quotients.items():
                for prod, coeff in self.expansion(sub).items():
                    out[prod] = out.get(prod, 0) - count * coeff
            out = self._expansions[multiset] = {k: v for k, v in out.items() if v}
        return out


# ---------------------------------------------------------------------------
# Quotient table, graph-independent: one per aleph, committed for 1..10
# ---------------------------------------------------------------------------

def _quotient_counts(g: Graph, key_of, group: list[int]) -> dict[tuple, int]:
    """{key of g/ρ: number of ρ} over the nontrivial partitions ρ of V(g)
    into independent sets holding at most one vertex of each group.

    `g` is on 0..v-1 and `group[x]` is vertex x's group; `key_of` keys a
    quotient's sorted edge tuple, whose labels are the blocks in order of
    first vertex."""
    order: list[int] = []
    for start in g.vertices:  # BFS of each component: most vertices meet a
        if start not in order:  # placed neighbour, which prunes
            order.append(start)
            for x in order:
                for u in g.adjacency[x]:
                    if u not in order:
                        order.append(u)
    pos = {x: i for i, x in enumerate(order)}
    earlier = [[pos[u] for u in g.adjacency[x] if pos[u] < i]
               for i, x in enumerate(order)]
    groups = [group[x] for x in order]
    edges = [(pos[a], pos[b]) for a, b in g.edges]
    block = [0] * len(order)
    held: list[set[int]] = []  # per block: the groups of its vertices
    out: dict[tuple, int] = {}

    def assign(i: int, blocks: int) -> None:
        if i == len(order):
            if blocks < len(order):
                key = key_of(tuple(sorted({(min(block[a], block[b]), max(block[a], block[b]))
                                           for a, b in edges})))
                out[key] = out.get(key, 0) + 1
            return
        taken = {block[j] for j in earlier[i]}
        for b in range(blocks):
            if b not in taken and groups[i] not in held[b]:
                block[i] = b
                held[b].add(groups[i])
                assign(i + 1, blocks)
                held[b].discard(groups[i])
        block[i] = blocks
        held.append({groups[i]})
        assign(i + 1, blocks + 1)
        held.pop()

    assign(0, 0)
    return out


def quotient_table(aleph: int) -> tuple[list[Graph], list[list[tuple[int, int]]], dict]:
    """Every connected graph with 1..aleph edges, by increasing vertex count,
    each with its row of nontrivial quotients ``[(pattern index, count)]``,
    and the catalog's forest record in those pattern indices
    (`_forest_record`).

    For a pattern Q with 2-core K and a host G, let P(Q) count the maps
    V(Q) -> V(G) that are homomorphisms and are injective on K. Grouping them
    by fibres gives P(Q) = inj(Q) + Σ_row count·inj(Q/ρ): every other
    partition ρ into independent sets with at most one K-vertex per block
    lists a pattern with fewer vertices. The closure of the trees under these
    quotients is every connected graph with at most aleph edges. Patterns are
    keyed, and their first labelled copy kept, by an `_Algebra` registry of
    its own; they are expanded last registered first."""
    algebra = _Algebra()
    for e in range(1, aleph + 1):
        for shape in enumerate_trees(e):
            algebra.register(shape.canonical_edges)
    todo = list(algebra.patterns)
    rows: dict[tuple, dict[tuple, int]] = {}
    while todo:
        key = todo.pop()
        g, known = algebra.patterns[key], len(algebra.patterns)
        core = two_core(g).vertex_set
        rows[key] = _quotient_counts(g, algebra.register,
                                     [-1 if x in core else x for x in g.vertices])
        todo.extend(list(algebra.patterns)[known:])
    reps = algebra.patterns
    order = sorted(reps, key=lambda k: (reps[k].n_vertices, reps[k].n_edges, repr(k)))
    index = {k: i for i, k in enumerate(order)}
    return ([reps[k] for k in order],
            [sorted((index[q], c) for q, c in rows[k].items()) for k in order],
            _forest_record(aleph, index))


def _forest_record(aleph: int, index: dict[tuple, int]) -> dict:
    """What `CountingEngine` needs of the forests spanned by edge subsets of
    the aleph catalog's shapes, in table pattern indices (`index` maps a
    pattern key to its index), as JSON-ready lists:

    * ``forests``: per forest, in order of first appearance, its component
      patterns and its expansion terms ``[coeff, factors]``;
    * ``shapes``: per catalog shape, its canonical edges and, per forest its
      edge subsets span, ``[forest, number of subsets]``."""
    algebra = _Algebra()
    forests: dict[tuple, int] = {}  # component keys -> position
    shapes = []
    for shape in enumerate_trees(aleph):
        edges = shape.canonical_edges
        terms: dict[tuple, list[int]] = {}
        for bits in range(1 << len(edges)):
            subset = tuple(e for i, e in enumerate(edges) if bits >> i & 1)
            fkey = algebra._split(subset)
            terms.setdefault(fkey, [forests.setdefault(fkey, len(forests)), 0])[1] += 1
        shapes.append([[list(e) for e in edges], list(terms.values())])
    expansions = [[[index[k] for k in fkey],
                   [[coeff, [index[k] for k in prod]] for prod, coeff
                    in sorted(algebra.expansion(fkey).items(), key=repr)]]
                  for fkey in forests]
    return {"forests": expansions, "shapes": shapes}


def _table_path(aleph: int) -> Path:
    return Path(__file__).with_name("tables") / f"quotients{aleph}.json"


def write_quotient_table(aleph: int) -> Path:
    """Generate the aleph table and write it where the engine loads it from:
    one line per pattern, ``[edges, row]``, then the forest record, one line
    per forest and per shape."""
    graphs, rows, record = quotient_table(aleph)

    def lines(items) -> str:
        return "[\n" + ",\n".join(json.dumps(x, separators=(",", ":")) for x in items) + "\n]"

    patterns = [[[list(e) for e in g.edges], [list(r) for r in row]]
                for g, row in zip(graphs, rows)]
    path = _table_path(aleph)
    path.parent.mkdir(exist_ok=True)
    path.write_text(f'{{"aleph": {aleph}, "patterns": {lines(patterns)},\n'
                    f'"forests": {lines(record["forests"])},\n'
                    f'"shapes": {lines(record["shapes"])}}}\n')
    return path


def load_quotient_table(aleph: int) -> tuple[list[Graph], list[list[tuple[int, int]]], dict]:
    """The committed table and forest record of aleph, as
    `write_quotient_table` wrote them; ValueError when there is none."""
    path = _table_path(aleph)
    if not path.exists():
        raise ValueError(f"no quotient table for aleph={aleph}: {path.name} is "
                         f"written by counting.write_quotient_table({aleph})")
    data = json.loads(path.read_text())
    if data["aleph"] != aleph:
        raise RuntimeError(f"{path} holds the table of aleph={data['aleph']}")
    return ([Graph.build(edges) for edges, _ in data["patterns"]],
            [[tuple(r) for r in row] for _, row in data["patterns"]],
            {name: data[name] for name in ("forests", "shapes")})


# ---------------------------------------------------------------------------
# Per-host counting: rooted homomorphism vectors and 2-core embeddings
# ---------------------------------------------------------------------------

def _bfs(adj, source: int, allowed) -> dict[int, int]:
    dist = {source: 0}
    layer = [source]
    while layer:
        nxt = []
        for x in layer:
            for u in adj[x]:
                if u in allowed and u not in dist:
                    dist[u] = dist[x] + 1
                    nxt.append(u)
        layer = nxt
    return dist


def _search_plan(core: Graph) -> tuple[list[int], list[tuple]]:
    """Placement order of a 2-core pattern's vertices (most placed neighbours
    first) and, per position: the earlier positions adjacent to it, those
    that are not, the (position, pattern distance) pairs whose host distance
    bounds prune (the placed part alone does not imply them), and the degree
    its image needs."""
    adj = core.adjacency
    order = [max(core.vertices, key=lambda v: (len(adj[v]), -v))]
    while len(order) < core.n_vertices:
        placed = set(order)
        order.append(max((v for v in core.vertices if v not in placed
                          and any(u in placed for u in adj[v])),
                         key=lambda v: (sum(u in placed for u in adj[v]), len(adj[v]), -v)))
    steps = []
    for i, v in enumerate(order):
        full = _bfs(adj, v, core.vertex_set)
        part = _bfs(adj, v, set(order[: i + 1]))
        near = tuple(p for p in range(i) if order[p] in adj[v])
        apart = tuple(p for p in range(i) if order[p] not in adj[v])
        far = tuple((p, full[order[p]]) for p in apart if full[order[p]] < part[order[p]])
        steps.append((near, apart, far, len(adj[v])))
    return order, steps


def _code_size(code: tuple) -> int:
    return 1 + sum(_code_size(c) for c in code)


def _two_cores(graphs: list[Graph]) -> list[Graph]:
    """`two_core` of each graph, from one peel of their disjoint union, in
    which each graph's labels are shifted past those of the graphs before it."""
    shift = np.cumsum([0] + [g._label_stop for g in graphs])
    union = two_core(Graph.build(np.array(
        [(u + s, v + s) for g, s in zip(graphs, shift.tolist()) for u, v in g.edges],
        dtype=np.int64).reshape(-1, 2)))
    owner = np.searchsorted(shift, union.edge_array[:, 0], side="right") - 1
    edge_cuts = np.searchsorted(owner, np.arange(len(graphs) + 1))
    verts = np.array(union.vertices, dtype=np.int64)
    vert_cuts = np.searchsorted(verts, shift)
    cores = []
    for i, s in enumerate(shift[:-1].tolist()):
        edges = union.edge_array[edge_cuts[i]:edge_cuts[i + 1]] - s
        cores.append(Graph(tuple((verts[vert_cuts[i]:vert_cuts[i + 1]] - s).tolist()),
                           tuple(map(tuple, edges.tolist()))))
    return cores


def _arcs(core: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A graph's sorted labels and its directed edges (arcs) on their
    positions: the sorted keys ``src * k + dst`` of both directions of every
    edge, their `src` and `dst`, and where each position's arcs start."""
    labels = np.array(core.vertices, dtype=np.int64)
    k = len(labels)
    ends = np.searchsorted(labels, core.edge_array)
    keys = np.sort(np.concatenate([ends[:, 0] * k + ends[:, 1],
                                   ends[:, 1] * k + ends[:, 0]]))
    src, dst = np.divmod(keys, k)
    return labels, keys, src, dst, np.searchsorted(src, np.arange(k + 1))


class _PastCap(Exception):
    """A sparse product that could hold more than MAX_CORE_ROWS entries."""


def _support_product(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
    """x·y of two boolean CSR matrices. It has at most one entry per entry
    (i, j) of x and entry of row j of y, and raises _PastCap before it is
    formed when that bound passes MAX_CORE_ROWS."""
    if int(np.diff(y.indptr)[x.indices].sum()) > MAX_CORE_ROWS:
        raise _PastCap
    return x @ y


def _short_walk_core(core: Graph, length: int) -> Graph:
    """The edges of the 2-core `core` that lie on a closed, cyclically
    non-backtracking walk of at most `length` steps, as a graph; `core`
    itself when B or a walk set below could pass MAX_CORE_ROWS entries.

    Such a walk is a closed walk of the non-backtracking matrix B, whose
    step from arc (u→v) goes to each arc (v→w) with w ≠ u. With R_a the pairs
    of arcs (d, f) joined by 1..a steps of B, the support of (I + B)^(a-1)·B,
    d lies on a closed walk of ℓ <= length steps iff some f has (d, f) in
    R_⌈length/2⌉ and (f, d) in R_⌊length/2⌋: split the walk after ⌈ℓ/2⌉
    steps. A walk reversed runs through the reverse arcs, so both arcs of an
    edge agree. Every vertex of a closed walk meets two distinct edges of
    it, so the result is its own 2-core."""
    if core.n_edges == 0:  # most hosts at low s: skip the matrices' fixed cost
        return core
    _, _, src, dst, indptr = _arcs(core)
    arcs = len(src)
    # B's row of arc j: the arcs out of dst[j] but the one back to src[j]
    d = np.diff(indptr)[dst]
    total = int(d.sum())
    if total > MAX_CORE_ROWS:
        return core
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
        return core
    closed = np.diff(walks.multiply(short.T.tocsr()).indptr) > 0
    # the arcs with src < dst run in the order of the edges
    return core if closed.all() else Graph.build(core.edge_array[closed[src < dst]])


class _HomPlan:
    """Per-ℵ plan that counts every connected pattern with at most ℵ edges.

    Per host: P(tree) = hom is Σ_v h_root(v), with rooted-subtree vectors
    h = Π_children A·h_child, each message A·h computed once per rooted code;
    P(cyclic Q) = Σ over injective maps φ of Q's 2-core into the host's 2-core
    of Π_c h_pendant(c)[φ(c)]. Then inj follows from the quotient table, one
    array pass per vertex count. It is built from the table's graphs and
    rows, and reports by table index every tree and the cyclic patterns
    `cyclic_out` lists.

    The core maps are searched in the prefix tree `search_tree`. Each
    pattern core has a placement order (`_search_plan`) and one step per
    position. The per-core step lists are merged, so a node stands for a
    distinct step prefix, and a core's maps are the rows of the node where
    its steps end (at ℵ=8: 4 roots and 133 nodes for the 40 cores' 233
    steps)."""

    def __init__(self, aleph: int, graphs: list[Graph], rows: list[list[tuple[int, int]]],
                 cyclic_out: list[int]) -> None:
        self.aleph = aleph
        self.walk_bound = max(aleph, 2 * aleph - 6)
        self.size = len(graphs)
        self.levels = _quotient_levels(graphs, rows)
        self.cyclic_out = cyclic_out
        self.tree_out: list[int] = []
        roots: dict[tuple, list[int]] = {}  # center-rooted code -> tree patterns
        core_index: dict[tuple, tuple[int, list[int]]] = {}  # core code -> slot, canonical order
        self.cores: list[tuple[Graph, list[int], list[tuple]]] = []  # core, order, steps
        self.cyclic: list[tuple[int, int, list[tuple[int, tuple]]]] = []
        cyclic = [i for i, g in enumerate(graphs) if g.n_edges >= g.n_vertices]
        core_of = dict(zip(cyclic, _two_cores([graphs[i] for i in cyclic])))
        for i, g in enumerate(graphs):
            adj = g.adjacency
            if i not in core_of:
                self.tree_out.append(i)
                center = _tree_centers(adj, g.vertices)[0]
                roots.setdefault(_tree_rooted_code(adj, center, -1), []).append(i)
                continue
            core = core_of[i]
            ckey, canon, _ = _general_canonical_code(core)
            if ckey not in core_index:
                core_index[ckey] = (len(self.cores), canon)
                self.cores.append((core, *_search_plan(core)))
            slot, rep_canon = core_index[ckey]
            rep, order, _ = self.cores[slot]
            # both canonical orders attain one code, so they align the cores
            iso = dict(zip(canon, rep_canon))
            if {tuple(sorted((iso[u], iso[v]))) for u, v in core.edges} != rep.edge_set:
                raise RuntimeError("the canonical orders of two cores with one "
                                   "code do not give an isomorphism")
            pendants = []
            for c in core.vertices:
                code = tuple(sorted(_tree_rooted_code(adj, u, c) for u in adj[c]
                                    if u not in core.vertex_set))
                if code:
                    pendants.append((order.index(iso[c]), code))
            self.cyclic.append((i, slot, pendants))

        # the cores' step lists merged into one prefix tree: a node per
        # distinct step prefix, keyed by its last step (a first step places
        # one vertex, so a root is keyed by its need alone), holding the core
        # slots whose steps end there and its children
        self.search_tree: dict[tuple, tuple[list[int], dict]] = {}
        for slot, (_, _, steps) in enumerate(self.cores):
            children = self.search_tree
            for step in steps:
                slots, children = children.setdefault(step, ([], {}))
            slots.append(slot)

        # every rooted code a root or a pendant needs, children before parents
        codes: set[tuple] = set()
        stack = list(roots) + [code for *_, ps in self.cyclic for _, code in ps]
        while stack:
            code = stack.pop()
            if code not in codes:
                codes.add(code)
                stack.extend(code)
        order = sorted(codes, key=lambda c: (_code_size(c), c))
        job = {code: j for j, code in enumerate(order)}
        last_use = {job[c]: j for j, code in enumerate(order) for c in code}
        pendant_codes = {code for *_, ps in self.cyclic for _, code in ps}
        self.cyclic = [(i, r, [(col, job[code]) for col, code in ps])
                       for i, r, ps in self.cyclic]
        # per job: children, whether its message A·h is used, the trees it
        # roots, whether it is a pendant, and the messages it uses last
        self.jobs = [([job[c] for c in code], j in last_use, roots.get(code, []),
                      code in pendant_codes,
                      [c for c, last in last_use.items() if last == j])
                     for j, code in enumerate(order)]

    def core_embeddings(self, core: Graph) -> tuple[np.ndarray, list]:
        """The labels of the searched part of the host 2-core `core` and, per
        pattern core, its injective maps into the host 2-core as rows of
        positions in those labels (None when the search ran dry).

        The search runs on `_short_walk_core(core, walk_bound)`, the edges on
        closed cyclically non-backtracking walks of at most L(ℵ) =
        max(ℵ, 2ℵ-6) steps. That loses no map: a pattern core K has at most
        ℵ edges, so each edge of a cycle of K lies on a cycle of at most
        |V(K)| <= ℵ edges, and a bridge of K on the closed walk that goes
        round the cycles c1, c2 at its two ends and twice along the path
        between them, of at most 2ℵ - c1 - c2 <= 2ℵ-6 steps. An injective map
        sends these walks to host walks that are still non-backtracking, so
        its image keeps every edge, and its paths, which bound the distance
        pruning, lie in the reduced core. When the reduction's sets would
        pass MAX_CORE_ROWS entries, the whole core is searched.

        Each node of `search_tree` is expanded once, from its parent's rows,
        and the cores ending at it all get its rows; a node without rows
        prunes its subtree. Partial maps are pruned by degree and by host
        distance; a node whose expansion would exceed MAX_CORE_ROWS
        candidates raises MemoryError."""
        labels, keys, src, dst, indptr = _arcs(_short_walk_core(core, self.walk_bound))
        k = len(labels)
        if k == 0:
            return labels, [None] * len(self.cores)
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

        out: list = [None] * len(self.cores)
        # depth first with an explicit stack of (key, node, parent's rows or
        # None at a root); a recursive nested function would hold itself in
        # its closure, a cycle that keeps this host's arrays alive until the
        # cyclic garbage collector runs
        stack = [(key, node, None) for key, node in self.search_tree.items()]
        while stack:
            (near, apart, far, need), (slots, children), rows = stack.pop()
            if rows is None:
                rows = np.flatnonzero(deg >= need)[:, None]
            else:
                anchor = rows[:, near[0]]
                d = deg[anchor]
                total = int(d.sum())
                if total > MAX_CORE_ROWS:
                    raise MemoryError(
                        f"core search needs {total} candidate rows (> {MAX_CORE_ROWS}): "
                        f"the host 2-core ({k} vertices, max degree {deg.max()}) is "
                        f"too dense for exact counting at aleph={self.aleph}")
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
            if len(rows):  # else the subtree's cores keep None
                for slot in slots:
                    out[slot] = rows
                stack.extend((key, node, rows) for key, node in children.items())
        return labels, out

    def hom_counts(self, indptr: np.ndarray, indices: np.ndarray,
                   core: tuple[np.ndarray, list]) -> np.ndarray:
        """P of every table pattern in the host whose `Graph.csr` is
        ``(indptr, indices)``; `core` is `core_embeddings` of the host's
        2-core. Vectors, and the result, are int64 while every hom count they
        hold is below n·Δ^ℵ < 2^62, and Python integers otherwise.

        The vectors run over the support, the non-isolated vertices relabelled
        0..|S|-1 in order. That is exact: every table pattern has an edge, so
        no map of one sends a vertex to an isolated host vertex, and an
        isolated vertex sends no message. The support adjacency is built once
        as an int64 CSR matrix, so a message A·h is one compiled CSR matvec,
        exact in int64 under the same bound; Python-integer vectors, which
        scipy has no kernel for, sum each neighbour segment with one
        `add.reduceat` (no support vertex has an empty one). The host
        2-core's vertices have degree >= 2, so all lie in the support."""
        labels, embeddings = core
        n = len(indptr) - 1
        deg = np.diff(indptr)
        exact = n * int(deg.max(initial=0)) ** self.aleph < 2 ** 62
        dtype = np.int64 if exact else object
        pos = np.cumsum(deg > 0) - 1
        nbr = pos[indices]
        starts = indptr[:-1][deg > 0]
        support = len(starts)
        at_labels = pos[labels]
        if exact:
            adj = sp.csr_matrix((np.ones(len(nbr), dtype=np.int64), nbr,
                                 np.append(starts, len(nbr))), shape=(support, support))
        hom = np.zeros(self.size, dtype)
        msg: dict[int, np.ndarray] = {}
        at_core: dict[int, np.ndarray] = {}
        for j, (children, spread, trees, pendant, done) in enumerate(self.jobs):
            if not children:
                h = np.ones(support, dtype)
            elif len(children) == 1:
                h = msg[children[0]]
            else:  # a fresh product, so later factors never touch a message
                h = msg[children[0]] * msg[children[1]]
                for c in children[2:]:
                    np.multiply(h, msg[c], out=h)
            if trees:
                hom[trees] = h.sum()
            if pendant and len(labels):
                at_core[j] = h[at_labels]
            if spread:
                msg[j] = adj @ h if exact else np.add.reduceat(h[nbr], starts)
            for c in done:
                del msg[c]
        for i, r, pendants in self.cyclic:
            rows = embeddings[r]
            if rows is None:
                continue
            weight = np.ones(len(rows), dtype)
            for col, j in pendants:
                weight = weight * at_core[j][rows[:, col]]
            hom[i] = weight.sum()
        return hom

    def solve(self, hom: np.ndarray) -> list[int]:
        """inj of every table pattern from its P, as Python integers: one
        array pass per vertex count, inj = P − Σ coeff·inj(quotient), in the
        dtype of `hom`. int64 cannot wrap: every term is >= 0 and the terms
        sum to P − inj <= P."""
        inj = hom.copy()
        for at, starts, cols, coeffs in self.levels:
            inj[at] -= np.add.reduceat(coeffs * inj[cols], starts)
        return inj.tolist()

    def count_embeddings(self, indptr: np.ndarray, indices: np.ndarray,
                         core: tuple[np.ndarray, list],
                         cyclic: dict[int, int]) -> dict[int, int]:
        """Ordered injective-map counts, as Python integers by table index,
        of every tree with 1..ℵ edges in the host whose `Graph.csr` is
        ``(indptr, indices)``; the `cyclic_out` patterns' counts go into
        `cyclic`. `core` is `core_embeddings` of the host's 2-core.
        `hom_counts` gives P, and `solve` turns it into inj."""
        inj = self.solve(self.hom_counts(indptr, indices, core))
        cyclic.update((i, inj[i]) for i in self.cyclic_out)
        return {i: inj[i] for i in self.tree_out}


def _quotient_levels(graphs: list[Graph], rows: list[list[tuple[int, int]]]) -> list[tuple]:
    """The quotient table's rows as index arrays, one ``(patterns, starts,
    columns, coefficients)`` tuple per vertex count that has nonempty rows:
    the patterns of that count, where each one's entries start, and the
    entries. A row may only refer to patterns with fewer vertices, so a level
    is solved once the levels below it are."""
    verts = np.array([g.n_vertices for g in graphs])
    levels = []
    for v in np.unique(verts):
        at = [i for i in np.flatnonzero(verts == v).tolist() if rows[i]]
        if not at:
            continue
        cols = np.array([j for i in at for j, _ in rows[i]], dtype=np.int64)
        if (verts[cols] >= v).any():
            raise RuntimeError("a quotient row refers to a pattern that is not smaller")
        starts = np.cumsum([0] + [len(rows[i]) for i in at[:-1]])
        levels.append((np.array(at), starts, cols,
                       np.array([c for i in at for _, c in rows[i]], dtype=np.int64)))
    return levels


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class CountingEngine:
    """Per-ℵ tables: the forests spanned by edge subsets of every catalog
    shape, their expansions into connected pattern counts, and the counting
    plan. Construction is graph-independent: it reads the quotient table and
    its forest record (`load_quotient_table`) and keys nothing."""

    def __init__(self, aleph: int) -> None:
        self.aleph = aleph
        graphs, rows, record = load_quotient_table(aleph)
        self.catalog = enumerate_trees(aleph)
        forests, shapes = record["forests"], record["shapes"]
        if [edges for edges, _ in shapes] != [
                [list(e) for e in shape.canonical_edges] for shape in self.catalog]:
            raise RuntimeError(f"the aleph={aleph} forest record's shapes are not "
                               f"the catalog's")
        # the needed patterns, the expansions' factors, hold every tree with
        # at most aleph edges and the cyclic patterns that quotients form
        needed = {i for _, terms in forests for _, prod in terms for i in prod}
        # an index array would read a bad index, -1 say, as another slot
        if not (needed.union(*(comps for comps, _ in forests)) <= set(range(len(graphs)))
                and {f for _, terms in shapes for f, _ in terms} <= set(range(len(forests)))):
            raise RuntimeError(f"the aleph={aleph} forest record names a pattern "
                               f"or a forest its table does not hold")

        # perfbench reads these names: it counts algebra.patterns,
        # cyclic_keys and forest_defs, and wraps plan.count_embeddings,
        # pattern_counts, forest_counts and w_all_shapes
        self.algebra = SimpleNamespace(patterns={i: graphs[i] for i in sorted(needed)})
        self.cyclic_keys = {i for i in needed if graphs[i].n_edges >= graphs[i].n_vertices}
        self.forest_defs = [tuple(comps) for comps, _ in forests]
        self.plan = _HomPlan(aleph, graphs, rows, sorted(self.cyclic_keys))

        # the expansions as index arrays: the terms' factors, as table
        # indices (an empty product names an extra last slot, which holds 1),
        # where each term's factors start, its coefficient, and where each
        # forest's terms start
        flat = [(coeff, prod or [len(graphs)]) for _, ts in forests for coeff, prod in ts]
        self._products = (np.array([i for _, prod in flat for i in prod]),
                          np.cumsum([0] + [len(prod) for _, prod in flat[:-1]]),
                          np.array([coeff for coeff, _ in flat], dtype=object),
                          np.cumsum([0] + [len(ts) for _, ts in forests[:-1]]))

        # the W terms sorted by their cell (shape, |F|) of K: per term its
        # forest, vertex count and multiplicity; per cell its first term. A
        # forest's vertices and edges are its components'
        size = [(sum(graphs[i].n_vertices for i in comps), sum(graphs[i].n_edges for i in comps))
                for comps, _ in forests]
        cell, forest, verts, mult = map(np.array, zip(*sorted(
            (idx * (aleph + 1) + size[f][1], f, size[f][0], mult)
            for idx, (_, terms) in enumerate(shapes) for f, mult in terms)))
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        self._w_terms = (forest, verts, mult.astype(object), starts, cell[starts])

    # -- per-graph evaluation ------------------------------------------------

    def pattern_counts(self, graph: Graph) -> dict[int, int]:
        """inj of every tree with 1..ℵ edges and of every needed cyclic
        pattern in the host, as Python integers, by table index."""
        indptr, indices = graph.csr
        core = self.plan.core_embeddings(two_core(graph))
        cyclic: dict[int, int] = {}
        counts = self.plan.count_embeddings(indptr, indices, core, cyclic)
        counts.update(cyclic)
        return counts

    def forest_counts(self, graph: Graph) -> list[int]:
        """Exact injective disjoint-placement counts, as Python integers, of
        every forest of the record, in its order: the products of connected
        counts in one `multiply.reduceat` over an object array, times the
        coefficients, summed per forest in one `add.reduceat`."""
        counts = self.pattern_counts(graph)
        factors, term_starts, coeffs, forest_starts = self._products
        values = np.ones(self.plan.size + 1, dtype=object)  # last: the empty product's 1
        values[list(counts)] = list(counts.values())
        terms = coeffs * np.multiply.reduceat(values[factors], term_starts)
        return np.add.reduceat(terms, forest_starts).tolist()

    def w_all_shapes(self, graph: Graph, c0: float, c1: float) -> np.ndarray:
        """W_H for every catalog shape: the exact rational sum, correctly
        rounded to a float.

        K[H, e] = Σ mult·ff·D over the terms with e edges is summed in
        integers. With c0 = a0/b0 and c1 = a1/b1 exactly (their
        `as_integer_ratio`), W_H·Aut·(b0·b1)^ℵ = Σ_e K[H, e]·a0^(ℵ-e)·b0^e·
        a1^e·b1^(ℵ-e), and one integer division per shape rounds it."""
        aleph = self.aleph
        d = np.array(self.forest_counts(graph), dtype=object)
        forest, verts, mult, starts, cells = self._w_terms
        placed = mult * _placements(graph.n_vertices, aleph)[verts] * d[forest]
        k = np.zeros(len(self.catalog) * (aleph + 1), dtype=object)
        k[cells] = np.add.reduceat(placed, starts)
        (a0, b0), (a1, b1) = c0.as_integer_ratio(), c1.as_integer_ratio()
        weight = np.array([a0 ** (aleph - e) * b0 ** e * a1 ** e * b1 ** (aleph - e)
                           for e in range(aleph + 1)], dtype=object)
        scale = (b0 * b1) ** aleph
        return np.array([num / (scale * shape.aut) for num, shape in
                         zip(k.reshape(-1, aleph + 1).dot(weight).tolist(), self.catalog)])


@lru_cache(maxsize=8)
def _placements(n: int, aleph: int) -> np.ndarray:
    """ff(n - v, ℵ+1 - v) for v = 0..ℵ+1, as Python integers: the ways to
    place the free vertices of a shape whose forest spans v of them."""
    return np.array([falling_factorial(n - v, aleph + 1 - v) for v in range(aleph + 2)],
                    dtype=object)


@lru_cache(maxsize=8)
def counting_engine(aleph: int) -> CountingEngine:
    return CountingEngine(aleph)
