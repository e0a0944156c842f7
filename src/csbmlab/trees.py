"""Catalog of unlabeled trees with automorphism counts and statistic weights.

Shapes are enumerated once per edge count and cached: grow every tree with k
edges by attaching a leaf at each structurally-distinct vertex of a tree with
k-1 edges, then dedup by the center-rooted canonical code (`graphs.tree_code`).
Everything else about a shape is read off that code: its canonical labels
are a preorder walk of it, and its |Aut| a product over it
(`graphs.automorphism_count`). A Prüfer-sequence enumerator is kept
alongside as the independent oracle for small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, _tree_rooted_code, automorphism_count, tree_code

__all__ = [
    "OTTER_ALPHA",
    "TreeShape",
    "enumerate_trees",
    "tree_count",
    "otter_estimate",
    "a_coefficient",
    "prufer_canonical_codes",
    "tree_canonical_key",
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
# Canonical key and labeling, both from the center-rooted code
# ---------------------------------------------------------------------------

def tree_canonical_key(g: Graph) -> tuple:
    """Center-rooted canonical code of a tree (isomorphism key)."""
    return tree_code(g.adjacency, g.vertices)


def _canonical_relabel(code: tuple) -> tuple[tuple[int, int], ...]:
    """Sorted edges of the tree with center-rooted code `code`, labelled
    0..v-1 in preorder of a walk that visits children in descending code
    order, from the center (of a bicentral tree: the one with the lesser half)."""
    if code[0] == "c1":
        root = code[1]
    else:  # the lesser center, with the other one's half as one more child
        _, lesser, greater = code
        root = tuple(sorted(lesser + (greater,)))
    edges: list[tuple[int, int]] = []

    def visit(node: tuple, label: int) -> int:
        """Label `node`'s subtree from `label` on; returns the next free label."""
        nxt = label + 1
        for child in reversed(node):
            edges.append((label, nxt))
            nxt = visit(child, nxt)
        return nxt

    visit(root, 0)
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
    shapes: set[tuple] = set()
    for smaller in enumerate_trees(aleph - 1):
        g = smaller.graph()
        seen_sites: set[tuple] = set()
        for v in g.vertices:
            site = _tree_rooted_code(g.adjacency, v, -1)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            grown = Graph.build(list(g.edges) + [(v, g.n_vertices)])
            shapes.add(tree_canonical_key(grown))
    out = []
    for key in sorted(shapes):
        canon = Graph.build(_canonical_relabel(key))
        if _canonical_relabel(tree_canonical_key(canon)) != canon.edges:
            raise RuntimeError("canonical tree labeling is not a fixed point")
        out.append(TreeShape(canon.edges, aleph, automorphism_count(canon)))
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
