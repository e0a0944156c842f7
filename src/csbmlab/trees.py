"""Catalog of unlabeled trees with automorphism counts and statistic weights.

Shapes are enumerated once per edge count and cached: grow every tree with k
edges by attaching a leaf at each structurally-distinct vertex of a tree with
k-1 edges, then dedup by the center-rooted canonical code. A Prüfer-sequence
enumerator is kept alongside as the independent oracle for small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, _tree_centers, _tree_rooted_code, tree_code

__all__ = [
    "OTTER_ALPHA",
    "TreeShape",
    "enumerate_trees",
    "tree_count",
    "otter_estimate",
    "a_coefficient",
    "prufer_canonical_codes",
    "tree_canonical_key",
    "tree_automorphisms",
]

# Growth-rate constant for the unlabeled tree family: |T_k|^(1/k) -> 1/alpha.
OTTER_ALPHA = 0.338

MAX_ALEPH = 14


@dataclass(frozen=True)
class TreeShape:
    """Canonical unlabeled tree: edge list over {0..aleph}, edge count, |Aut|."""

    canonical_edges: tuple[tuple[int, int], ...]
    aleph: int
    aut: int

    def graph(self) -> Graph:
        return Graph.build(self.canonical_edges)


# ---------------------------------------------------------------------------
# Rooted codes, canonical labeling, automorphisms
# ---------------------------------------------------------------------------

def tree_canonical_key(g: Graph) -> tuple:
    """Center-rooted canonical code of a tree (isomorphism key)."""
    return tree_code(g.adjacency, g.vertices)


def _rooted_aut(adj: dict[int, tuple[int, ...]], root: int, parent: int) -> tuple[tuple, int]:
    """(rooted code, |Aut| of the rooted tree) in one pass."""
    children = []
    for c in adj[root]:
        if c != parent:
            children.append(_rooted_aut(adj, c, root))
    children.sort(key=lambda t: t[0])
    aut = 1
    run = 0
    for i, (code, sub_aut) in enumerate(children):
        aut *= sub_aut
        if i > 0 and code == children[i - 1][0]:
            run += 1
            aut *= run + 1
        else:
            run = 0
    return tuple(c for c, _ in children), aut


def tree_automorphisms(g: Graph) -> int:
    """|Aut| of a tree from its rooted canonical decomposition."""
    adj = g.adjacency
    centers = _tree_centers(adj, list(g.vertices))
    if len(centers) == 1:
        return _rooted_aut(adj, centers[0], -1)[1]
    a, b = centers
    code_a, aut_a = _rooted_aut(adj, a, b)
    code_b, aut_b = _rooted_aut(adj, b, a)
    if code_a == code_b:
        return 2 * aut_a * aut_b
    return aut_a * aut_b


def _canonical_relabel(g: Graph) -> tuple[tuple[int, int], ...]:
    """Deterministic relabeling to {0..v-1} from the canonical rooted order."""
    adj = g.adjacency
    centers = _tree_centers(adj, list(g.vertices))
    if len(centers) == 1:
        root = centers[0]
    else:
        a, b = centers
        root = a if _tree_rooted_code(adj, a, b) <= _tree_rooted_code(adj, b, a) else b
    label: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def visit(v: int, parent: int) -> None:
        label[v] = len(label)
        kids = sorted((c for c in adj[v] if c != parent),
                      key=lambda c: _tree_rooted_code(adj, c, v), reverse=True)
        for c in kids:
            edges.append((label[v], len(label)))
            visit(c, v)

    visit(root, -1)
    return tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_trees(aleph: int) -> tuple[TreeShape, ...]:
    """Every isomorphism class of trees with `aleph` edges, exactly once."""
    if not 1 <= aleph <= MAX_ALEPH:
        raise ValueError(f"aleph must be in 1..{MAX_ALEPH}, got {aleph}")
    if aleph == 1:
        g = Graph.build([(0, 1)])
        return (TreeShape(g.edges, 1, 2),)
    shapes: dict[tuple, Graph] = {}
    for smaller in enumerate_trees(aleph - 1):
        g = smaller.graph()
        seen_sites: set[tuple] = set()
        for v in g.vertices:
            site = _tree_rooted_code(g.adjacency, v, -1)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            grown = Graph.build(list(g.edges) + [(v, g.n_vertices)])
            key = tree_canonical_key(grown)
            if key not in shapes:
                shapes[key] = grown
    out = []
    for key in sorted(shapes):
        g = shapes[key]
        canon = Graph.build(_canonical_relabel(g))
        if _canonical_relabel(canon) != canon.edges:
            raise RuntimeError("canonical tree labeling is not a fixed point")
        out.append(TreeShape(canon.edges, aleph, tree_automorphisms(canon)))
    return tuple(out)


def tree_count(aleph: int) -> int:
    return len(enumerate_trees(aleph))


def otter_estimate(aleph: int) -> float:
    """|T_aleph|**(1/aleph); increases toward 1/alpha ≈ 2.96."""
    return tree_count(aleph) ** (1.0 / aleph)


# ---------------------------------------------------------------------------
# Statistic weights
# ---------------------------------------------------------------------------

def a_coefficient(shape: TreeShape, n: int, s: float) -> float:
    """Weight s^aleph * Aut * (n-aleph-1)!/n! of one shape in the tree statistic."""
    if n <= shape.aleph + 1:
        raise ValueError("n must exceed the shape's vertex count")
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    value = s ** shape.aleph * shape.aut
    for i in range(shape.aleph + 1):
        value /= n - i
    return value


# ---------------------------------------------------------------------------
# Prüfer oracle
# ---------------------------------------------------------------------------

def _tree_from_prufer(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Adjacency lists of the labeled tree on {0..n-1} with Prüfer code `seq`.

    Plain lists, not a validated `Graph`: the oracle decodes (aleph+1)^(aleph-1)
    trees, and building a `Graph` for each doubled its run time.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    import heapq

    leaf_heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaf_heap)
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u, v = heapq.heappop(leaf_heap), heapq.heappop(leaf_heap)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def prufer_canonical_codes(aleph: int) -> set[tuple]:
    """Canonical codes of all trees with `aleph` edges via brute-force Prüfer
    enumeration of the (aleph+1)^(aleph-1) labeled trees. Oracle; aleph <= 8.
    """
    if not 1 <= aleph <= 8:
        raise ValueError("Prüfer oracle supports aleph in 1..8")
    n = aleph + 1
    from itertools import product

    verts = list(range(n))
    return {tree_code(_tree_from_prufer(seq, n), verts)
            for seq in product(range(n), repeat=n - 2)}
