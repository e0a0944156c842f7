"""Generator of the quotient table that `counting` loads, from the tree
catalog alone. Only `counting.write_quotient_table(aleph)` imports it, in its
body, to write `tables/quotients.npz`: so no engine build generates. A write
takes about 3 s at ℵ_max=8, 30-40 s at ℵ_max=9 and 6-9 minutes at
ℵ_max=10 on 2 vCPUs."""

from __future__ import annotations

from .graphs import Graph, canonical_form, two_core
from .trees import enumerate_trees

__all__ = ["quotient_table"]


def _compact(g: Graph) -> Graph:
    """Relabel onto 0..v-1 preserving sorted label order."""
    mapping = {v: i for i, v in enumerate(g.vertices)}
    return Graph.build([(mapping[u], mapping[v]) for u, v in g.edges],
                       vertices=range(g.n_vertices))


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


def quotient_table(aleph: int) -> tuple[list[Graph], list[list[tuple[int, int]]], list[dict]]:
    """Every connected graph with 1..aleph edges, by increasing vertex count,
    each with its row of nontrivial quotients ``[(pattern index, count)]``,
    and the forest record of each ℵ' = 1..aleph in those pattern indices
    (`_forest_records`).

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
            _forest_records(aleph, index))


def _forest_records(aleph: int, index: dict[tuple, int]) -> list[dict]:
    """Per ℵ' = 1..aleph, what `CountingEngine(ℵ')` needs of the forests
    spanned by edge subsets of the ℵ' catalog's shapes, in table pattern
    indices (`index` maps a pattern key to its index), as lists:

    * ``forests``: per forest, in order of first appearance, its component
      patterns and its expansion terms ``[coeff, factors]``;
    * ``shapes``: per catalog shape, its canonical edges and, per forest its
      edge subsets span, ``[forest, number of subsets]``.

    The records share one `_Algebra`, so each forest is expanded once."""
    algebra = _Algebra()
    records = []
    for a in range(1, aleph + 1):
        forests: dict[tuple, int] = {}  # component keys -> position
        shapes = []
        for shape in enumerate_trees(a):
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
        records.append({"forests": expansions, "shapes": shapes})
    return records
