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
graph-independent, and loaded with the quotient table.

Connected pattern counts come from the homomorphism basis (Curticapean,
Dell & Marx, STOC 2017) taken relative to each pattern's 2-core. For a
connected pattern Q with 2-core K, the maps V(Q) -> host that are
homomorphisms and injective on K number P(Q) = Σ_ρ inj(Q/ρ), over the
partitions ρ of V(Q) into independent sets with at most one K-vertex per
block. The system is unitriangular with graph-independent integer
coefficients, which the table holds with the forest expansions. An engine
only loads them, from the one file `tables/quotients.npz`: the ℵ_max = 10
patterns and their rows once, and a forest record per ℵ <= 10 in their
indices, as int32 arrays that it builds its index arrays from
(`CountingEngine(10)` builds in about 0.7 s). They are generated by
`tablegen`, which only `write_quotient_table(aleph)` imports.

Per host graph, `_arcs` lays out the host's edge array, its 2-core's and
the reduced core's once each, as arcs on int32 positions. P of a tree is a
homomorphism count, summed from rooted-subtree vectors h = Π_children
A·h_child, each message A·h summed over the host's arcs one neighbour
rank at a time (Δ array passes at maximum degree Δ). The rooted codes run
in an order fixed once per ℵ that frees messages early, so at ℵ=8 at most
7 are held at once, not 20, and each is dropped after its last consumer; P of a cyclic pattern sums products of its pendant trees'
vectors over the injective maps of K into the host's 2-core. A map keeps
K's closed non-backtracking walks so, as K has at most ℵ edges, its image
lies on the host 2-core's edges that close such a walk within L(ℵ) =
max(ℵ, 2ℵ-6) steps. The search keeps those within the even bound 2·⌈L/2⌉,
found by enumerating the non-backtracking walks of ⌈L/2⌉ steps or fewer;
at odd L (ℵ = 1, 3, 5) that is a superset, which loses no map, and a
sparse host keeps few of them. The maps are found there by one search
pruned by degree and host distance, over a tree of placement steps built
once per ℵ: cores whose placement orders begin alike share a node, and its
rows, per host. Solving the system in order of vertex count gives every
injective count.

Everything is exact: counts are Python integers, and W is the correctly
rounded float of the exact rational sum, combined in integers from the
weights' exact binary values. On a host of maximum degree Δ and n
non-isolated vertices, a vector entry is at most Δ^ℵ and a sum at most
n·Δ^ℵ, so vectors are int32 while Δ^ℵ < 2^31, int64 while n·Δ^ℵ < 2^62 and
Python integers beyond; the sums, the pendant values and the cyclic weights
are int64 under the second bound and Python integers beyond it. The benchmark's hosts (ℵ=8, Δ near 10) run
int32 vectors; the int64 tier serves ℵ=10 hosts with Δ >= 9, such as those
of n=3000, λ=3. The graph-independent algebra (the quotient solve, the forest
products, the W terms) is compiled into index arrays once per ℵ, so a host
costs a few array passes over it. Scoring keys nothing; building an engine
keys each cyclic pattern's 2-core by `_general_canonical_code`, so isomorphic
cores share a search plan (264 cores, 40 distinct, at ℵ=8)."""

from __future__ import annotations

import zipfile
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .graphs import (Graph, _distinct, _general_canonical_code, _has, _tree_centers,
                     _tree_rooted_code, two_core)
from .trees import MAX_ALEPH, enumerate_trees

__all__ = ["CountingEngine", "counting_engine", "falling_factorial",
           "load_quotient_table", "write_quotient_table"]

MAX_CORE_ROWS = 4_000_000


def falling_factorial(base: int, length: int) -> int:
    out = 1
    for i in range(length):
        out *= base - i
    return out


_TABLE = Path(__file__).with_name("tables") / "quotients.npz"


def _table_members(graphs: list[Graph], rows: list, records: list[dict]) -> dict[str, np.ndarray]:
    """`tablegen.quotient_table`'s lists as the table file's int32 arrays
    (numpy refuses a value past int32): each ragged list ``x`` as ``x``, its
    items in order, and ``x_lengths``."""
    ragged = {"edges": [g.edges for g in graphs], "rows": rows}
    for a, record in enumerate(records, 1):
        forests, shapes = record["forests"], record["shapes"]
        ragged |= {f"comps{a}": [comps for comps, _ in forests],
                   f"coeffs{a}": [[coeff for coeff, _ in terms] for _, terms in forests],
                   f"factors{a}": [factors for _, terms in forests for _, factors in terms],
                   f"shapes{a}": [edges for edges, _ in shapes],
                   f"shape_terms{a}": [terms for _, terms in shapes]}
    return {member: np.array(items, dtype=np.int32)
            for name, lists in ragged.items()
            for member, items in ((name, [x for part in lists for x in part]),
                                  (f"{name}_lengths", [len(part) for part in lists]))}


def write_quotient_table(aleph: int) -> Path:
    """Generate the table of every ℵ' <= aleph (`tablegen.quotient_table`)
    and write its `_table_members` where the engine loads it from, as an
    uncompressed `.npz`. ValueError outside 1..MAX_ALEPH."""
    if not 1 <= aleph <= MAX_ALEPH:
        raise ValueError(f"aleph must be in 1..{MAX_ALEPH}, got {aleph}")
    from .tablegen import quotient_table

    # every array is built before the file is opened, so a failed conversion
    # leaves the old file; ZipInfo's fixed default date makes a rewrite byte-identical
    members = _table_members(*quotient_table(aleph))
    with zipfile.ZipFile(_TABLE, "w") as table:
        for name, array in members.items():
            with table.open(zipfile.ZipInfo(f"{name}.npy"), "w") as out:
                np.lib.format.write_array(out, array)
    return _TABLE


def load_quotient_table(aleph: int) -> tuple[list[Graph], dict[str, tuple[np.ndarray, ...]]]:
    """The committed table's patterns with at most aleph edges, as graphs,
    and their ``rows`` and aleph's forest record as `_table_members` lays
    them out, ``name: (items, lengths)`` with pairs as rows of two. A
    pattern's index at aleph is its rank among the kept ones. ValueError
    past the table's ℵ_max, its largest pattern."""
    with np.load(_TABLE) as table:
        sizes = table["edges_lengths"]
        if not 1 <= aleph <= sizes.max():
            raise ValueError(f"no quotient table for aleph={aleph}: {_TABLE.name} holds "
                             f"aleph <= {sizes.max()} and is written by "
                             f"counting.write_quotient_table({aleph})")
        keep = sizes <= aleph
        # table index + 1 -> index at aleph: a dropped pattern and the two
        # ends hold -1, which the engine refuses, and `clip` sends any index
        # outside the table to an end
        renumber = np.concatenate([[-1], np.where(keep, np.cumsum(keep) - 1, -1), [-1]])
        edges = table["edges"].reshape(-1, 2)[np.repeat(keep, sizes)]
        graphs = [Graph.build(e.tolist()) for e in np.split(edges, np.cumsum(sizes[keep])[:-1])]
        row_sizes = table["rows_lengths"]
        arrays = {"rows": (table["rows"].reshape(-1, 2)[np.repeat(keep, row_sizes)],
                           row_sizes[keep])}
        for name in ("comps", "coeffs", "factors", "shapes", "shape_terms"):
            items = table[f"{name}{aleph}"]
            arrays[name] = (items.reshape(-1, 2) if name in ("shapes", "shape_terms") else items,
                            table[f"{name}{aleph}_lengths"])
        for index in (arrays["rows"][0][:, 0], arrays["comps"][0], arrays["factors"][0]):
            index[:] = renumber.take(index + 1, mode="clip")
    return graphs, arrays


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


def _arcs(edges: np.ndarray) -> tuple[np.ndarray, ...]:
    """The graph of the distinct edges `edges` laid out on the positions
    0..k-1 of its sorted endpoint labels: the labels, the sorted int64 keys
    ``src * k + dst`` of both directions (arcs) of every edge, their int64
    `src`, their `dst` and `indptr`, where each position's arcs start (int32
    below 2^31 arcs). Endpoints are numbered by a running sum of their marks,
    and `indptr` counts the writable `src` (`bincount` copies a read-only one)."""
    index = np.int32 if 2 * len(edges) < 2 ** 31 else np.int64
    live = np.zeros(int(edges.max(initial=-1)) + 1, dtype=bool)
    live[edges] = True
    labels = np.flatnonzero(live)
    k = len(labels)
    ends = np.cumsum(live, dtype=index)[edges] - 1
    del live
    keys = np.concatenate([ends[:, 0], ends[:, 1]], dtype=np.int64)
    keys *= k
    keys += np.concatenate([ends[:, 1], ends[:, 0]])
    del ends
    keys.sort()
    src = keys // max(k, 1)
    degree = np.bincount(src, minlength=k)
    indptr = np.zeros(k + 1, dtype=index)
    indptr[1:] = np.cumsum(degree, out=degree)
    del degree
    dst = np.remainder(keys, max(k, 1), out=np.empty(len(keys), index), casting="unsafe")
    return labels, keys, src, dst, indptr


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated: the
    positions that a gather of these segments reads, in order."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _short_walk_core(edges: np.ndarray, half: int) -> np.ndarray:
    """The rows of a 2-core's sorted edge array that lie on a closed,
    cyclically non-backtracking walk of at most 2·`half` steps; `edges`
    itself when the walks below number more than MAX_CORE_ROWS.

    Such a walk is a closed walk of the non-backtracking matrix B, whose
    step from arc (u→v) goes to each arc (v→w) with w ≠ u. Every walk of B
    of 1..half steps is enumerated from every arc. Arcs d ≠ f lie on a
    closed walk of at most 2·half steps iff walks of at most half steps run
    from d to f and from f to d: split the closed walk after ⌈ℓ/2⌉ of its ℓ
    steps. (A closed walk has at least 3 steps, so it also pairs each of
    its arcs with the next.)

    The walks of t steps are counted first, per first arc, by B·1, B·B·1,
    ..., and held grouped by first arc: those of t + 1 steps from u are,
    for each step u → w of B, the last arcs of the walks of t steps from w.
    A walk is keyed by its pair, min·A + max over the A arcs, times 2, plus
    1 when it runs from the higher arc. After one sort, a pair qualifies iff
    two neighbouring keys differ in that bit alone. A walk reversed runs
    through the reverse arcs, so both arcs of an edge agree. Every vertex
    of a closed walk meets two distinct edges of it, so the result is its
    own 2-core."""
    if len(edges) == 0:  # most hosts at low s
        return edges
    _, _, src, dst, indptr = _arcs(edges)
    arcs = len(src)
    # B's steps u → w in order of u: the arcs w out of dst[u] but the one
    # back to src[u]
    fan = np.diff(indptr)[dst]
    if int(fan.sum()) > MAX_CORE_ROWS:
        return edges
    to = _segments(indptr[dst], fan)
    of = np.repeat(np.arange(arcs, dtype=dst.dtype), fan)
    keep = dst[to] != src[of]
    of, to = of[keep], to[keep].astype(dst.dtype)
    counts, sizes = [fan - 1], [len(to)]  # per arc, the walks of 1, 2, ... steps from it
    while len(counts) < half and sum(sizes) <= MAX_CORE_ROWS:
        counts.append(np.bincount(of, weights=counts[-1][to], minlength=arcs).astype(np.int64))
        sizes.append(int(counts[-1].sum()))
    if sum(sizes) > MAX_CORE_ROWS:
        return edges
    keys = np.empty(sum(sizes), dtype=np.int64)
    last, at = to, 0
    for t, (count, size) in enumerate(zip(counts, sizes)):
        if t:
            after = counts[t - 1][to]  # the walks each step goes on with
            start = np.cumsum(counts[t - 1]) - counts[t - 1]
            last = last[_segments(start[to], after)]
        origin = np.repeat(np.arange(arcs, dtype=last.dtype), count)
        key = keys[at:at + size]
        at += size
        np.minimum(origin, last, out=key)
        key *= arcs
        key += np.maximum(origin, last)
        key <<= 1
        key += origin > last
    keys.sort()
    # the pairs with walks both ways: neighbours that differ in the bit alone
    lo, hi = np.divmod(keys[1:][(keys[1:] ^ keys[:-1]) == 1] >> 1, arcs)
    closed = np.zeros(arcs, dtype=bool)
    closed[lo] = True
    closed[hi] = True
    # the arcs with src < dst run in the order of the edges
    return edges if closed.all() else edges[closed[src < dst]]


def _grow_ball(ball: np.ndarray, k: int, dst: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The sorted distinct keys x·k + z of the pairs one step or less from a
    pair of `ball`, sorted keys x·k + y over k positions whose arcs are
    ``(dst, indptr)``: the pairs themselves and each (x, z) of an arc y→z."""
    x, y = np.divmod(ball, k)
    d = np.diff(indptr)[y]
    z = dst[_segments(indptr[y], d)]
    return _distinct(np.concatenate([ball, np.repeat(x * k, d) + z]))


def _neighbour_ranks(dst: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, list]:
    """The arcs ``(dst, indptr)`` of positions that all have one, by
    neighbour rank: each position's first neighbour, and for r = 1..Δ-1 the
    positions of degree > r with their r-th neighbours. All are intp, which
    indexes without a cast. A sum over each position's neighbours is then Δ
    array passes whose lengths add up to the arcs."""
    deg = np.diff(indptr)
    ranks = []
    for r in range(1, int(deg.max(initial=0))):
        at = np.flatnonzero(deg > r)
        ranks.append((at, dst[indptr[at] + r].astype(np.intp)))
    return dst[indptr[:-1]].astype(np.intp), ranks


def _hom_dtypes(n: int, max_degree: int, aleph: int) -> tuple[type, type]:
    """The dtypes of hom vectors over n support vertices of maximum degree Δ,
    and of their sums (`_HomPlan.hom_counts`): int32 vectors while Δ^ℵ < 2^31,
    and int64 sums while n·Δ^ℵ < 2^62; Python integers for both past that."""
    bound = max_degree ** aleph
    if n * bound >= 2 ** 62:
        return object, object
    return np.int32 if bound < 2 ** 31 else np.int64, np.int64


def _freeing_order(children: list[list[int]]) -> list[int]:
    """An order of the jobs 0..J-1, where job j needs the messages of the
    jobs `children[j]`, that runs every child before its job: at each step
    the ready job that frees the most messages (those of its children whose
    other consumers have all run) net of the one it creates (when some job
    consumes it), the lower index on ties. A message is held from its job to
    its last consumer, so this keeps few of them alive at once."""
    users: list[set[int]] = [set() for _ in children]
    for j, kids in enumerate(children):
        for c in kids:
            users[c].add(j)
    unrun_users = [len(u) for u in users]
    unrun_kids = [len(set(kids)) for kids in children]
    ready = {j for j, n in enumerate(unrun_kids) if not n}
    order = []
    while ready:
        j = max(ready, key=lambda j: (sum(unrun_users[c] == 1 for c in set(children[j]))
                                      - bool(users[j]), -j))
        ready.remove(j)
        order.append(j)
        for c in set(children[j]):
            unrun_users[c] -= 1
        for u in users[j]:
            unrun_kids[u] -= 1
            if not unrun_kids[u]:
                ready.add(u)
    return order


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
    steps).

    `jobs` computes one rooted code's vector each, in `_freeing_order`: a
    message is held from its job to its last consumer, and at each step the
    ready job runs that frees the most messages net of the one it creates.
    So at most 7, 10 and 19 messages are alive at once at ℵ=8, 9, 10, where
    the (code size, code) order held 20, 42 and 86. A job is
    ``(children, spread, trees, pendant, done)``: the jobs whose messages it
    multiplies, whether its own message A·h is used, the tree patterns it
    roots, whether its vector is a pendant's (`cyclic` names it by job id),
    and the messages it is the last to use. `hom_counts` runs them over the
    host's support arcs."""

    def __init__(self, aleph: int, graphs: list[Graph], rows: tuple[np.ndarray, np.ndarray],
                 cyclic_out: list[int]) -> None:
        self.aleph = aleph
        self.walk_half = (max(aleph, 2 * aleph - 6) + 1) // 2
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

        # every rooted code a root or a pendant needs; `_freeing_order` breaks
        # its ties by the (code size, code) order
        codes: set[tuple] = set()
        stack = list(roots) + [code for *_, ps in self.cyclic for _, code in ps]
        while stack:
            code = stack.pop()
            if code not in codes:
                codes.add(code)
                stack.extend(code)
        by_size = sorted(codes, key=lambda c: (_code_size(c), c))
        index = {code: j for j, code in enumerate(by_size)}
        order = [by_size[j] for j in
                 _freeing_order([[index[c] for c in code] for code in by_size])]
        job = {code: j for j, code in enumerate(order)}
        last_use = {job[c]: j for j, code in enumerate(order) for c in code}
        pendant_codes = {code for *_, ps in self.cyclic for _, code in ps}
        self.cyclic = [(i, r, [(col, job[code]) for col, code in ps])
                       for i, r, ps in self.cyclic]
        self.jobs = [([job[c] for c in code], j in last_use, roots.get(code, []),
                      code in pendant_codes,
                      [c for c, last in last_use.items() if last == j])
                     for j, code in enumerate(order)]

    def core_embeddings(self, core: Graph) -> tuple[np.ndarray, list]:
        """The labels of the searched part of the host 2-core `core` and, per
        pattern core, its injective maps into the host 2-core as rows of
        positions in those labels (None when the search ran dry).

        The search runs on `_short_walk_core(core, walk_half)`, the edges on
        closed cyclically non-backtracking walks of at most 2·walk_half
        steps, L(ℵ) = max(ℵ, 2ℵ-6) rounded up to even. That loses no map: a
        pattern core K has at most ℵ edges, so each edge of a cycle of K lies
        on a cycle of at most |V(K)| <= ℵ edges, and a bridge of K on the
        closed walk that goes round the cycles c1, c2 at its two ends and
        twice along the path between them, of at most 2ℵ - c1 - c2 <= 2ℵ-6
        steps. An injective map sends these walks to host walks that are
        still non-backtracking, so its image keeps every edge, and its paths,
        which bound the distance pruning, lie in the reduced core. At odd L
        (ℵ = 1, 3, 5) the even bound keeps a superset of those edges, still
        inside the host 2-core, so it holds every such image too and admits
        no other map. When the reduction's walks would number more than
        MAX_CORE_ROWS, the whole core is searched.

        Each node of `search_tree` is expanded once, from its parent's rows,
        and the cores ending at it all get its rows; a node without rows
        prunes its subtree. Partial maps are pruned by degree and by host
        distance, whose balls `_grow_ball` widens a step at a time; a node
        whose expansion would exceed MAX_CORE_ROWS candidates raises
        MemoryError."""
        labels, keys, _, dst, indptr = _arcs(_short_walk_core(core.edge_array,
                                                              self.walk_half))
        k = len(labels)
        if k == 0:
            return labels, [None] * len(self.cores)
        deg = np.diff(indptr)
        balls = [None, keys]  # balls[r]: sorted keys of the pairs at distance <= r

        def within(r: int) -> np.ndarray:
            while len(balls) <= r:
                balls.append(_grow_ball(balls[-1], k, dst, indptr))
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
                new = dst[_segments(indptr[anchor], d)]
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

    def hom_counts(self, labels: np.ndarray, dst: np.ndarray, indptr: np.ndarray,
                   core: tuple[np.ndarray, list]) -> np.ndarray:
        """P of every table pattern in the host whose support arcs, `_arcs`
        of its edge array, are ``(labels, dst, indptr)``; `core` is
        `core_embeddings` of the host's 2-core. For the support S (the
        non-isolated vertices) and the maximum degree Δ, the vectors and
        messages take the first dtype `_hom_dtypes` gives, and the sums, the
        pendant values at the core, the cyclic weights and the result the
        second.

        That is exact: every vector entry, every partial product and every
        partial message sum counts the rooted homomorphisms of a tree with at
        most ℵ edges, so it is at most Δ^ℵ, and a pattern's P is at most
        |S|·Δ^ℵ. The vectors run over S alone: every table pattern has an
        edge, so no map of one sends a vertex to an isolated host vertex, and
        an isolated vertex sends no message. A message A·h, in any of the
        dtypes, gathers h at each support vertex's first neighbour (none has
        an empty segment) and then adds, for r = 1..Δ-1, h at the r-th
        neighbours of the vertices of degree > r (`_neighbour_ranks`).
        The single vertex's message A·1 is the support's degree vector, read
        off `indptr`. The host 2-core's vertices have degree >= 2, so all
        lie in the support. The jobs run in the plan's order,
        and each message is dropped after its last consumer."""
        core_labels, embeddings = core
        support = len(labels)
        deg = np.diff(indptr)
        vector, wide = _hom_dtypes(support, int(deg.max(initial=0)), self.aleph)
        at_labels = np.searchsorted(labels, core_labels)
        first, ranks = _neighbour_ranks(dst, indptr)
        hom = np.zeros(self.size, wide)
        msg: dict[int, np.ndarray] = {}
        at_core: dict[int, np.ndarray] = {}
        for j, (children, spread, trees, pendant, done) in enumerate(self.jobs):
            if not children:
                h = np.ones(support, vector)
            elif len(children) == 1:
                h = msg[children[0]]
            else:  # a fresh product, so later factors never touch a message
                h = msg[children[0]] * msg[children[1]]
                for c in children[2:]:
                    np.multiply(h, msg[c], out=h)
            if trees:
                hom[trees] = h.sum(dtype=wide)
            if pendant:
                at_core[j] = h[at_labels].astype(wide)
            if spread:
                if not children:
                    msg[j] = deg.astype(vector, copy=False)
                else:
                    msg[j] = m = h[first]
                    for at, nb in ranks:
                        m[at] += h[nb]
            for c in done:
                del msg[c]
        for i, r, pendants in self.cyclic:
            rows = embeddings[r]
            if rows is None:
                continue
            weight = np.ones(len(rows), wide)
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

    def count_embeddings(self, labels: np.ndarray, dst: np.ndarray, indptr: np.ndarray,
                         core: tuple[np.ndarray, list],
                         cyclic: dict[int, int]) -> dict[int, int]:
        """Ordered injective-map counts, as Python integers by table index,
        of every tree with 1..ℵ edges in the host whose support arcs are
        ``(labels, dst, indptr)`` (`hom_counts`); the `cyclic_out` patterns'
        counts go into `cyclic`. `core` is `core_embeddings` of the host's
        2-core. `hom_counts` gives P, and `solve` turns it into inj."""
        inj = self.solve(self.hom_counts(labels, dst, indptr, core))
        cyclic.update((i, inj[i]) for i in self.cyclic_out)
        return {i: inj[i] for i in self.tree_out}


def _quotient_levels(graphs: list[Graph], rows: tuple[np.ndarray, np.ndarray]) -> list[tuple]:
    """The quotient rows' ``(entries, lengths)`` sliced by vertex count, one
    ``(patterns, starts, columns, coefficients)`` tuple per count that has
    nonempty rows: its patterns, where each one's entries start, and the
    entries. A row may only refer to patterns with fewer vertices, so a
    level is solved once the levels below it are."""
    entries, lengths = rows
    verts = np.array([g.n_vertices for g in graphs])
    cols, coeffs = entries.T.astype(np.int64)
    # an index array would read a column of -1, say, as another pattern
    if not (((0 <= cols) & (cols < len(graphs))).all() and (coeffs >= 1).all()):
        raise RuntimeError("a quotient row names a pattern its table does not "
                           "hold, or a count below 1")
    level = np.repeat(verts, lengths)  # the vertex count of each entry's pattern
    if (verts[cols] >= level).any():
        raise RuntimeError("a quotient row refers to a pattern that is not smaller")
    levels = []
    for v in _distinct(verts[lengths > 0]):
        at = np.flatnonzero((verts == v) & (lengths > 0))
        mine = level == v
        levels.append((at, np.cumsum(lengths[at]) - lengths[at], cols[mine], coeffs[mine]))
    return levels


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class CountingEngine:
    """Per-ℵ tables: the forests spanned by edge subsets of every catalog
    shape, their expansions into connected pattern counts, and the counting
    plan. Construction is graph-independent: it reads the quotient table's
    patterns with at most ℵ edges and ℵ's forest record
    (`load_quotient_table`), and keys only the cyclic patterns' 2-cores
    (`_HomPlan`)."""

    def __init__(self, aleph: int) -> None:
        self.aleph = aleph
        graphs, table = load_quotient_table(aleph)
        self.catalog = enumerate_trees(aleph)
        (comps, per_forest), (coeffs, terms), (factors, per_term), (shape_terms, per_shape) = (
            table[name] for name in ("comps", "coeffs", "factors", "shape_terms"))
        if (table["shapes"][1].tolist() != [aleph] * len(self.catalog) or not np.array_equal(
                table["shapes"][0], [e for shape in self.catalog for e in shape.canonical_edges])):
            raise RuntimeError(f"the aleph={aleph} forest record's shapes are not "
                               f"the catalog's")
        # an index array would read a bad index, -1 say, as another slot
        bounds = (factors, len(graphs)), (comps, len(graphs)), (shape_terms[:, 0], len(per_forest))
        if not all(((0 <= index) & (index < stop)).all() for index, stop in bounds):
            raise RuntimeError(f"the aleph={aleph} forest record names a pattern "
                               f"or a forest its table does not hold")

        # the needed patterns, the expansions' factors, hold every tree with
        # at most aleph edges and the cyclic patterns that quotients form.
        # perfbench reads these names: it counts algebra.patterns,
        # cyclic_keys and forest_defs, and wraps plan.count_embeddings,
        # pattern_counts, forest_counts and w_all_shapes
        verts, sizes = np.array([(g.n_vertices, g.n_edges) for g in graphs]).T
        needed = _distinct(factors.copy())
        self.algebra = SimpleNamespace(patterns={i: graphs[i] for i in needed.tolist()})
        self.cyclic_keys = set(needed[sizes[needed] >= verts[needed]].tolist())
        self.forest_defs = [tuple(c.tolist()) for c in np.split(comps, np.cumsum(per_forest)[:-1])]
        self.plan = _HomPlan(aleph, graphs, table["rows"], sorted(self.cyclic_keys))

        # the expansions as index arrays: the terms' factors, as table
        # indices (an empty product names an extra last slot, which holds 1),
        # where each term's factors start, its coefficient, and where each
        # forest's terms start
        factors = np.insert(factors, (np.cumsum(per_term) - per_term)[per_term == 0], len(graphs))
        per_term = np.maximum(per_term, 1)
        self._products = (factors, np.cumsum(per_term) - per_term, coeffs.astype(object),
                          np.cumsum(terms) - terms)

        # the W terms sorted by their cell (shape, |F|) of K: per term its
        # forest, vertex count and multiplicity; per cell its first term. A
        # forest's vertices and edges are its components'
        owner = np.repeat(np.arange(len(per_forest)), per_forest)
        forest_verts, forest_edges = (np.bincount(owner, weights[comps], len(per_forest))
                                      .astype(np.int64) for weights in (verts, sizes))
        forest, mult = shape_terms.astype(np.int64).T
        cell = np.repeat(np.arange(len(per_shape)) * (aleph + 1), per_shape) + forest_edges[forest]
        order = np.lexsort((forest, cell))  # a shape lists each forest once
        forest, cell = forest[order], cell[order]
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        self._w_terms = (forest, forest_verts[forest], mult[order].astype(object), starts,
                         cell[starts])

    # -- per-graph evaluation ------------------------------------------------

    def pattern_counts(self, graph: Graph) -> dict[int, int]:
        """inj of every tree with 1..ℵ edges and of every needed cyclic
        pattern in the host, as Python integers, by table index. The host's
        edge array is laid out once by `_arcs`, after its 2-core is searched,
        and all but the support arcs are dropped at once: the host keeps only
        its edge array."""
        core = self.plan.core_embeddings(two_core(graph))
        labels, dst, indptr = itemgetter(0, 3, 4)(_arcs(graph.edge_array))
        cyclic: dict[int, int] = {}
        counts = self.plan.count_embeddings(labels, dst, indptr, core, cyclic)
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
