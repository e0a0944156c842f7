"""Graph value type, structural queries and isomorphism utilities."""

import itertools
import math
import pickle
import random
from functools import lru_cache

import numpy as np
import pytest

from csbmlab import graphs
from csbmlab.experiments import trial_generator
from csbmlab.graphs import (
    Graph,
    automorphism_count,
    canonical_form,
    connected_components,
    count_cycles,
    cycles_up_to,
    edge_difference,
    edge_intersection,
    edge_union,
    excess,
    independent_cycles,
    intersection,
    isolated,
    leaves,
    two_core,
)
from csbmlab.models import ModelParams, sample_correlated
from csbmlab.statistics import CenteredMatrix

TRIANGLE = Graph.build([(0, 1), (1, 2), (0, 2)])
P3 = Graph.path(3)
K4 = Graph.complete(4)
STAR3 = Graph.build([(0, 1), (0, 2), (0, 3)])
PARAMS = ModelParams(n=3, lam=1.0, k=2, eps=0.0, s=0.5)


def apply_permutation(g: Graph, image) -> Graph:
    """Relabeled graph: vertex v becomes image[v]."""
    return Graph.build([(image[u], image[v]) for u, v in g.edges],
                       vertices=[image[v] for v in g.vertices])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(edges, n=n)


@lru_cache(maxsize=1)
def sampled_host() -> Graph:
    """A sampled n=1e5 host of the `sparse_large` benchmark's model: about
    48k edges, most components trees, a 2-core of a few dozen vertices."""
    params = ModelParams(n=100_000, lam=1.2, k=2, eps=0.3, s=0.8)
    return sample_correlated(params, trial_generator(1, 0, 0, 0)).a


def random_subgraph(rng: random.Random, g: Graph) -> Graph:
    edges = [e for e in g.edges if rng.random() < 0.6]
    verts = {w for e in edges for w in e}
    extra = [v for v in g.vertices if rng.random() < 0.2]
    return Graph.build(edges, vertices=verts | set(extra))


def random_pattern(rng: random.Random, max_n: int) -> tuple[Graph, set[str]]:
    """A graph on at most max_n shuffled labels, and which of tree components,
    cyclic components, isolated vertices and repeated components it has."""
    parts: list[list[tuple[int, int]]] = []
    kinds: set[str] = set()
    used = 0
    while max_n - used >= 2 and rng.random() < 0.8:
        k = rng.randint(2, min(5, max_n - used))
        edges = {(rng.randrange(v), v) for v in range(1, k)}  # a random tree
        edges |= {e for e in itertools.combinations(range(k), 2) if rng.random() < 0.2}
        kinds.add("tree" if len(edges) == k - 1 else "cyclic")
        copies = 2 if used + 2 * k <= max_n and rng.random() < 0.4 else 1
        kinds |= {"repeated"} if copies == 2 else set()
        for _ in range(copies):
            parts.append([(u + used, v + used) for u, v in sorted(edges)])
            used += k
    n = rng.randint(used, max_n) if used < max_n else used
    kinds |= {"isolated"} if n > used else set()
    labels = list(range(n))
    rng.shuffle(labels)
    return Graph.build([(labels[u], labels[v]) for part in parts for u, v in part],
                       n=n), kinds


class TestBasics:
    def test_excess(self):
        assert excess(TRIANGLE) == 0
        assert excess(P3) == -1
        assert excess(K4) == 2

    def test_excess_counts_isolated(self):
        g = Graph.build([(0, 1)], n=4)
        assert excess(g) == 1 - 4

    def test_leaves_isolated(self):
        assert leaves(P3) == {0, 2}
        assert isolated(P3) == frozenset()
        assert leaves(TRIANGLE) == frozenset()
        assert leaves(STAR3) == {1, 2, 3}
        assert isolated(Graph.build([(0, 1)], n=3)) == {2}

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph.build([(0, 0)])
        with pytest.raises(ValueError):
            Graph((0, 1), ((1, 0),))
        with pytest.raises(ValueError):
            Graph((0,), ((0, 1),))

    def test_edge_array_is_the_edge_tuple(self):
        for g in (TRIANGLE, K4, Graph.empty(3), Graph.build([(2, 7)], vertices=[2, 5, 7])):
            assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (g.n_edges, 2)
            assert g.edge_array.tolist() == [list(e) for e in g.edges]
            assert not g.edge_array.flags.writeable

    def test_equality_is_label_sensitive(self):
        assert Graph.build([(0, 1)]) != Graph.build([(1, 2)])
        assert Graph.build([(0, 1)], n=2) == Graph.build([(1, 0)], n=2)


class TestSetOps:
    def test_edge_intersection_idempotent(self):
        assert edge_intersection(TRIANGLE, TRIANGLE) == TRIANGLE

    def test_edge_intersection_disjoint(self):
        a = Graph.build([(0, 1)])
        b = Graph.build([(2, 3)])
        assert edge_intersection(a, b).n_edges == 0
        assert edge_intersection(a, b).n_vertices == 0

    def test_edge_intersection_shared_edge(self):
        a = Graph.build([(0, 1), (1, 2)])
        b = Graph.build([(1, 2), (2, 3)])
        assert edge_intersection(a, b) == Graph.build([(1, 2)])

    def test_union_and_difference(self):
        a = Graph.build([(0, 1), (1, 2)])
        b = Graph.build([(1, 2), (2, 3)])
        assert edge_union(a, b).edge_set == {(0, 1), (1, 2), (2, 3)}
        assert edge_difference(a, b) == Graph.build([(0, 1)])

    def test_edge_count_identity_random_pairs(self):
        # |V(S∪T)| + |V(S⋒T)| <= |V(S)| + |V(T)|, with equality for edges.
        rng = random.Random(7)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(2, 10), 0.4)
            s = random_subgraph(rng, g)
            t = random_subgraph(rng, g)
            union = edge_union(s, t)
            inter = edge_intersection(s, t)
            assert union.n_vertices + inter.n_vertices <= s.n_vertices + t.n_vertices
            assert union.n_edges + inter.n_edges == s.n_edges + t.n_edges

    def test_cycle_count_supermodularity(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_graph(rng, 8, 0.5)
            s = random_subgraph(rng, g)
            t = random_subgraph(rng, g)
            union = edge_union(s, t)
            inter = intersection(s, t)
            for j in (3, 4, 5):
                assert (count_cycles(union, j) + count_cycles(inter, j)
                        >= count_cycles(s, j) + count_cycles(t, j))


class TestCycles:
    def test_triangle(self):
        cycles = cycles_up_to(TRIANGLE, 3)
        assert len(cycles) == 1
        assert cycles[0] == TRIANGLE

    def test_tree_has_none(self):
        tree = Graph.build([(0, 1), (1, 2), (1, 3), (3, 4)])
        assert cycles_up_to(tree, 10) == []

    def test_k4(self):
        cycles = cycles_up_to(K4, 4)
        assert len(cycles) == 7
        assert sum(1 for c in cycles if c.n_vertices == 3) == 4
        assert sum(1 for c in cycles if c.n_vertices == 4) == 3

    def test_k5_counts(self):
        k5 = Graph.complete(5)
        assert count_cycles(k5, 3) == 10
        assert count_cycles(k5, 4) == 15
        assert count_cycles(k5, 5) == 12

    def test_independent_cycles(self):
        g = Graph.build([(0, 1), (1, 2), (0, 2), (4, 5)])
        assert len(independent_cycles(g, 3)) == 1
        pendant = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert independent_cycles(pendant, 3) == []
        two = Graph.build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert len(independent_cycles(two, 3)) == 2

    def test_independent_cycles_match_definition(self):
        """Pin the component-based listing against its definition: the
        m-cycles of cycles_up_to whose vertices all have degree 2 in g."""
        def by_definition(g, m):
            return [c for c in cycles_up_to(g, m)
                    if c.n_vertices == m and all(g.degree(v) == 2 for v in c.vertices)]

        rng = random.Random(2024)
        planted_total = 0
        for _ in range(400):
            base = random_graph(rng, rng.randint(0, 8), rng.choice((0.2, 0.35, 0.5)))
            edges = list(base.edges)
            nxt = 8
            for _ in range(rng.randint(0, 3)):
                length = rng.randint(3, 7)
                cyc = list(range(nxt, nxt + length))
                nxt += length
                edges += [(cyc[i], cyc[(i + 1) % length]) for i in range(length)]
                spoil = rng.random()
                if spoil < 0.2 and length >= 4:  # chord
                    edges.append((cyc[0], cyc[2]))
                elif spoil < 0.4:  # pendant edge to a new vertex
                    edges.append((rng.choice(cyc), nxt))
                    nxt += 1
                elif spoil < 0.5 and base.vertices:  # edge into the random part
                    edges.append((rng.choice(cyc), rng.choice(base.vertices)))
            # Shuffle labels so planted cycles interleave with the rest, and
            # leave some labels isolated.
            labels = list(range(nxt + 3))
            rng.shuffle(labels)
            g = Graph.build([(labels[u], labels[v]) for u, v in edges],
                            vertices=labels[:nxt + rng.randint(0, 3)])
            for m in range(3, max(g.n_vertices, 3) + 1):
                got = independent_cycles(g, m)
                assert got == by_definition(g, m), (g, m)
                planted_total += len(got)
        assert planted_total > 100  # the random draws do plant cycles


def two_core_by_queue(g: Graph) -> Graph:
    """Reference 2-core: strip degree-<=1 vertices one at a time."""
    deg = {v: g.degree(v) for v in g.vertices}
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    queue = [v for v in g.vertices if deg[v] <= 1]
    removed: set[int] = set()
    while queue:
        v = queue.pop()
        if v in removed:
            continue
        removed.add(v)
        for u in adj[v]:
            if u not in removed:
                deg[u] -= 1
                if deg[u] <= 1:
                    queue.append(u)
    keep = [v for v in g.vertices if v not in removed]
    edges = [e for e in g.edges if e[0] not in removed and e[1] not in removed]
    return Graph.build(edges, vertices=keep)


class TestTwoCore:
    def test_matches_queue_oracle(self):
        rng = random.Random(23)
        nonempty = 0
        for _ in range(300):
            base = random_graph(rng, rng.randint(1, 12),
                                rng.choice([0.0, 0.15, 0.3, 0.5]))
            edges = list(base.edges)
            nxt = base.n_vertices
            for _ in range(rng.randint(0, 6)):  # pendant trees, grown edge by edge
                edges.append((rng.randrange(nxt), nxt))
                nxt += 1
            # sparse labels, with some isolated ones
            labels = rng.sample(range(3 * nxt + 5), nxt + rng.randint(0, 3))
            g = Graph.build([(labels[u], labels[v]) for u, v in edges],
                            vertices=labels)
            core = two_core(g)
            assert core == two_core_by_queue(g), g
            nonempty += core.n_vertices > 0
        assert 50 < nonempty < 250  # both outcomes are drawn
        assert two_core(Graph.empty(0)) == Graph.empty(0)
        assert two_core(Graph.build([], vertices=[4, 9])) == Graph.empty(0)

    def test_dense_universe_matches_queue_oracle(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 15), rng.choice([0.1, 0.2, 0.4]))
            assert two_core(g) == two_core_by_queue(g), g

    def test_large_sparse_hosts_match_queue_oracle(self):
        # a 5-cycle with a 200-vertex pendant path, among 1,000 isolated
        # vertices, on labels 3, 10, 17, ...: the path peels one vertex a
        # round, and the later rounds run on relabelled endpoints
        label = [7 * i + 3 for i in range(1205)]
        edges = [(label[i], label[(i + 1) % 5]) for i in range(5)]
        edges += [(label[i], label[i + 1]) for i in range(4, 204)]
        path = Graph.build(edges, vertices=label)
        for g in (sampled_host(), path):
            core = two_core(g)
            assert core == two_core_by_queue(g)
            assert core.n_vertices > 0
            # the last round had fewer than n/8 edges left, so the relabelling ran
            assert 8 * core.n_edges < g.n_vertices
        assert two_core(path).vertices == tuple(label[:5])

    def test_tree_strips_to_empty(self):
        tree = Graph.build([(0, 1), (1, 2), (1, 3)])
        assert two_core(tree).n_vertices == 0

    def test_triangle_with_pendant(self):
        g = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert two_core(g) == Graph.build([(0, 1), (1, 2), (0, 2)], vertices=[0, 1, 2])

    def test_two_triangles_joined_by_path(self):
        # 7-vertex example: interior of the joining path has degree 2, so the
        # whole graph is already its own 2-core.
        g = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                         (4, 5), (5, 6), (4, 6)])
        assert two_core(g) == g


class TestArrayBuild:
    """`Graph.build` on an (m, 2) array against the tuple path."""

    @staticmethod
    def random_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
        """Pairs with duplicates and reversed copies; most labels of 0..n-1
        stay isolated."""
        ends = rng.integers(0, max(n // 2, 2), size=(m, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        dup = ends[rng.random(len(ends)) < 0.3]
        return np.concatenate([ends, dup[:, ::-1], dup])

    def test_same_graph_as_tuple_path(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(2, 40))
            ends = self.random_edges(rng, n, int(rng.integers(0, 3 * n)))
            labels = np.sort(rng.choice(10 * n, size=n, replace=False))
            sparse = labels[ends]
            for arr, kw in ((ends, {"n": n}), (sparse, {"vertices": labels.tolist()}),
                            (sparse, {})):
                g = Graph.build(arr, **kw)
                ref = Graph.build(arr.tolist(), **kw)
                assert g == ref, (trial, kw)
                assert all(type(w) is int for w in g.vertices + sum(g.edges, ()))
                assert np.array_equal(g.edge_array, np.array(g.edges, dtype=np.int64).reshape(-1, 2))
                assert np.array_equal(ref.edge_array, g.edge_array)
        host = sampled_host()
        ends = np.concatenate([host.edge_array[::2], host.edge_array[1::2, ::-1]])
        g = Graph.build(ends, n=host.n_vertices)
        assert g == Graph.build(ends.tolist(), n=host.n_vertices) == host
        assert np.array_equal(g.edge_array, host.edge_array)
        empty = np.empty((0, 2), dtype=np.int64)
        assert Graph.build(empty, n=4) == Graph.build([], n=4) == Graph.empty(4)
        assert Graph.build(empty, vertices=[3, 8]) == Graph.build([], vertices=[3, 8])
        assert Graph.build(empty) == Graph.empty(0)
        assert Graph.build(empty, n=4).edge_array.shape == (0, 2)

    @pytest.mark.parametrize("edges, kw", [
        ([(0, 1), (2, 2), (3, 3)], {"n": 4}),        # self-loop
        ([(3, 1), (2, 2)], {"vertices": [1, 2, 3]}),  # self-loop after a reversed pair
        ([(0, 1), (5, 2), (1, 4)], {"n": 4}),        # endpoint >= n
        ([(6, 0), (5, 1), (0, 1)], {"n": 4}),        # the least pair, as sorted, is named
        ([(0, 1), (-1, 2)], {"n": 4}),               # negative endpoint
        ([(0, 1), (-1, 2)], {}),                     # negative label
        ([(2, 7), (7, 9), (3, 2)], {"vertices": [2, 5, 7]}),  # outside `vertices`
        ([(2, 7)], {"vertices": [-2, 2, 7]}),        # negative vertex
    ])
    def test_same_error_as_tuple_path(self, edges, kw):
        with pytest.raises(ValueError) as by_tuples:
            Graph.build(edges, **kw)
        with pytest.raises(ValueError) as by_array:
            Graph.build(np.array(edges), **kw)
        assert str(by_array.value) == str(by_tuples.value)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Graph.build(np.array([[0, 1, 2], [2, 3, 4]]), n=5)

    def test_rejects_labels_past_key_range(self):
        big = 3_037_000_499  # base big + 1 would overflow the int64 keys u·base + v
        assert Graph.build(np.array([[0, big - 1]])).edges == ((0, big - 1),)
        with pytest.raises(ValueError, match="too large"):
            Graph.build(np.array([[0, big]]))

    def test_edge_subset(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(2, 30))
            g = Graph.build(self.random_edges(rng, n, int(rng.integers(0, 3 * n))), n=n)
            keep = rng.random(g.n_edges) < 0.5
            h = Graph.build(g.edge_array[keep], n=n)
            other = Graph.build(self.random_edges(rng, n, int(rng.integers(0, 3 * n))), n=n)
            assert graphs._edge_subset(h, g)
            assert graphs._edge_subset(other, g) == (other.edge_set <= g.edge_set), trial

    def test_lazy_tuples_keep_value_semantics(self):
        # an array-built graph derives `edges` (and, built with n=, `vertices`)
        # on first read; before and after, and across pickling at either
        # point, it equals, hashes and prints like the list-built graph
        edges = [(3, 1), (1, 2), (1, 3), (5, 3), (2, 3), (6, 2)]
        for kw in ({"n": 7}, {"vertices": [1, 2, 3, 5, 6]}, {}):
            ref = Graph.build(edges, **kw)
            fresh = Graph.build(np.array(edges), **kw)
            assert "edges" not in fresh.__dict__
            assert ("vertices" in fresh.__dict__) == ("n" not in kw)
            assert (fresh.n_vertices, fresh.n_edges) == (ref.n_vertices, ref.n_edges)
            assert "edges" not in fresh.__dict__  # the counts derive nothing
            early = pickle.loads(pickle.dumps(fresh))
            assert "edges" not in early.__dict__
            read = Graph.build(np.array(edges), **kw)
            assert read.edges == ref.edges and read.vertices == ref.vertices
            late = pickle.loads(pickle.dumps(read))
            for g in (fresh, early, read, late):
                assert g == ref and ref == g, kw
                assert hash(g) == hash(ref) and repr(g) == repr(ref), kw
                assert g != Graph.build(edges[:-1], **kw)
        assert Graph.build(np.empty((0, 2), dtype=np.int64), n=-2) == Graph.empty(0)

    @pytest.mark.parametrize("labels, edges", [
        ((1, 2, 3), [(1, 2), (2, 3), (1, 3)]),   # last label equals the length
        ((0, 1, 3), [(0, 1), (1, 3), (0, 3)]),   # a gap
        ((0, 1, 3), [(0, 1), (1, 3)]),
    ])
    def test_one_step_off_dense(self, labels, edges):
        by_label = two_core_by_queue(Graph.build(edges, vertices=labels))
        for g in (Graph.build(edges, vertices=labels),
                  Graph.build(np.array(edges), vertices=labels)):
            with pytest.raises(ValueError, match="dense universe"):
                CenteredMatrix.from_graph(g, PARAMS)
            assert two_core(g) == by_label
            assert "v=" in g.to_text() and '"vertices"' in g.to_json()
        dense = Graph.build(np.array([(0, 1), (1, 2)]), vertices=(0, 1, 2))
        x = CenteredMatrix.from_graph(dense, PARAMS)
        assert (x.dense() == x.edge_value).tolist() == [
            [False, True, False], [True, False, True], [False, True, False]]
        assert "v=" not in dense.to_text() and '"vertices"' not in dense.to_json()


class TestIsomorphism:
    def test_aut_examples(self):
        assert automorphism_count(Graph.build([(0, 1)])) == 2
        assert automorphism_count(STAR3) == 6
        assert automorphism_count(Graph.path(4)) == 2
        assert automorphism_count(TRIANGLE) == 6
        assert automorphism_count(K4) == 24
        assert automorphism_count(Graph.cycle(5)) == 10

    def test_aut_matches_brute_force(self):
        # random graphs on <= 7 vertices mixing tree and cyclic components,
        # isolated vertices and repeated identical components
        rng = random.Random(11)
        seen = set()
        for _ in range(150):
            g, kinds = random_pattern(rng, 7)
            seen |= kinds
            edges = g.edge_set
            brute = sum(
                all(tuple(sorted((img[u], img[v]))) in edges for u, v in edges)
                for img in map(dict, (zip(g.vertices, p)
                                      for p in itertools.permutations(g.vertices))))
            assert automorphism_count(g) == brute, g.edges
        assert seen == {"tree", "cyclic", "isolated", "repeated"}

    def test_canonical_form_relabel_invariant(self):
        rng = random.Random(3)
        for _ in range(1000):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, 0.4)
            img = list(range(n))
            rng.shuffle(img)
            relabeled = apply_permutation(g, img)
            assert canonical_form(g) == canonical_form(relabeled)

    def test_canonical_form_separates(self):
        assert canonical_form(Graph.path(4)) != canonical_form(STAR3)
        assert canonical_form(Graph.cycle(4)) != canonical_form(Graph.cycle(5))

    def test_canonical_search_postcondition_survives_optimize(self, monkeypatch):
        # NaN colors never equal the lead color, so the search places no
        # complete order; the explicit raise must report it
        monkeypatch.setattr(graphs, "_refined_classes",
                            lambda g: [float("nan")] * g.n_vertices)
        with pytest.raises(RuntimeError):
            canonical_form(TRIANGLE)

    def test_tree_components_share_the_catalog_code(self):
        # canonical_form codes each tree component with the catalog's key
        from csbmlab.trees import enumerate_trees, tree_canonical_key

        for small, big in itertools.product(enumerate_trees(3), enumerate_trees(5)):
            edges = list(big.canonical_edges)
            edges += [(u + 10, v + 10) for u, v in small.canonical_edges]
            forest = Graph.build(edges, vertices=range(15))  # 6..9, 14 isolated
            want = sorted([tree_canonical_key(big.graph()),
                           tree_canonical_key(small.graph())])
            assert canonical_form(forest) == ("C", 5, tuple(want))

    def test_canonical_size_limit(self):
        big = Graph.cycle(17)
        with pytest.raises(ValueError):
            canonical_form(big)
        with pytest.raises(ValueError):
            automorphism_count(big)

    def test_labeled_copy_count_vs_aut(self):
        # For a connected pattern, #relabelings within its own vertex set
        # equals |V|! / |Aut|. Exhaust all trees with <= 6 vertices.
        from csbmlab.trees import enumerate_trees

        for aleph in range(1, 6):
            for shape in enumerate_trees(aleph):
                g = Graph.build(shape.canonical_edges)
                n = g.n_vertices
                images = set()
                for perm in itertools.permutations(range(n)):
                    images.add(apply_permutation(g, perm).edges)
                assert len(images) == math.factorial(n) // automorphism_count(g)
                assert automorphism_count(g) == shape.aut


class TestPermutation:
    """Relabelling by an image array, as the sampler's matching stores it;
    the relabel-invariance checks above rely on this helper."""

    def test_identity(self):
        assert apply_permutation(K4, np.arange(4)) == K4

    def test_swap(self):
        g = Graph.build([(0, 2)], n=3)
        assert apply_permutation(g, np.array([1, 0, 2])) == Graph.build([(1, 2)], n=3)


class TestSerialization:
    def test_text_roundtrip(self):
        for g in (TRIANGLE, K4, Graph.build([(0, 1)], n=5), Graph.empty(3),
                  Graph.build([(2, 7)], vertices=[2, 5, 7])):
            assert Graph.from_text(g.to_text()) == g

    def test_json_roundtrip(self):
        for g in (TRIANGLE, K4, Graph.build([(0, 1)], n=5), Graph.empty(0)):
            assert Graph.from_json(g.to_json()) == g

    @pytest.mark.parametrize("parse, text", [
        (Graph.from_text, "n=-2; "),
        (Graph.from_json, '{"n": -2, "edges": []}'),
    ])
    def test_negative_n_is_refused(self, parse, text):
        # `Graph.build(..., n=-2)` is the empty graph; a file saying so is wrong
        with pytest.raises(ValueError, match="n must be >= 0"):
            parse(text)

    def test_text_format(self):
        assert Graph.build([(0, 1), (1, 2)], n=3).to_text() == "n=3; 0-1,1-2"


class TestComponents:
    def test_components_and_forest(self):
        g = Graph.build([(0, 1), (2, 3), (3, 4), (2, 4)], n=6)
        comps = connected_components(g)
        assert len(comps) == 3  # edge, triangle, isolated vertex
        # tree components (the edge, the isolated vertex) have excess -1
        assert sorted(excess(c) for c in comps) == [-1, -1, 0]
