"""Exact sparse counting engine: forest counts, gluing algebra, W values."""

import itertools
import random

import numpy as np
import pytest

from csbmlab.counting import counting_engine, falling_factorial
from csbmlab.graphs import Graph, canonical_form, two_core
from csbmlab.models import ModelParams
from csbmlab.statistics import CenteredMatrix, w_exact
from csbmlab.trees import enumerate_trees


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
        two_edges = tuple(sorted([canonical_form(Graph.build([(0, 1)]))] * 2))
        assert counts[two_edges] == 0  # no two disjoint edges in a triangle

    def test_matches_brute_force(self):
        rng = random.Random(19)
        eng = counting_engine(4)
        for trial in range(6):
            n = rng.randint(6, 8)
            host = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
            counts = eng.forest_counts(host)
            for fkey, comp_keys in eng.forest_defs.items():
                if not fkey:
                    assert counts[fkey] == 1
                    continue
                # rebuild a representative forest from the component patterns
                edges, offset = [], 0
                for key in comp_keys:
                    pat = eng.algebra.patterns[key]
                    edges.extend((u + offset, v + offset) for u, v in pat.edges)
                    offset += pat.n_vertices
                forest = Graph.build(edges)
                if forest.n_vertices > n:
                    assert counts[fkey] == 0
                    continue
                assert counts[fkey] == brute_forest_count(forest, host), fkey

    def test_cyclic_pattern_count(self):
        # gluing a 2-path onto a disjoint edge at both ends forms a triangle,
        # first possible inside 4-edge trees
        eng = counting_engine(4)
        tri_key = canonical_form(Graph.build([(0, 1), (1, 2), (0, 2)]))
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
        # the frontier holds labels as int16 below 2**15 and int32 from
        # there on; a small graph on the top labels must count as on its own
        small = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 5)], n=6)
        top = n - small.n_vertices
        host = Graph.build([(u + top, v + top) for u, v in small.edges], n=n)
        eng = counting_engine(4)
        assert eng.pattern_counts(host) == eng.pattern_counts(small)

    def test_host_is_read_through_csr_only(self):
        host = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3)], n=5)
        eng = counting_engine(4)
        assert eng.cyclic_keys
        eng.w_all_shapes(host, -0.1, 2.0)
        assert "csr" in host.__dict__
        assert "adjacency" not in host.__dict__

    def test_no_cyclic_shapes_below_aleph_four(self):
        assert not counting_engine(3).cyclic_keys

    def test_empty_host(self):
        eng = counting_engine(3)
        counts = eng.forest_counts(Graph.empty(10))
        for fkey in eng.forest_defs:
            assert counts[fkey] == (1 if not fkey else 0)


class TestWAssembly:
    def test_empty_host_closed_form(self):
        params = ModelParams(n=12, lam=1.0, k=2, eps=0.0, s=0.5)
        host = Graph.empty(12)
        x = CenteredMatrix.from_graph(host, params)
        for aleph in (1, 2, 3):
            eng = counting_engine(aleph)
            w = eng.w_all_shapes(host, x.nonedge_value, x.slope)
            for i, shape in enumerate(enumerate_trees(aleph)):
                expected = (x.nonedge_value ** aleph
                            * falling_factorial(12, aleph + 1) / shape.aut)
                assert w[i] == pytest.approx(expected, rel=1e-12)
                assert w[i] == pytest.approx(w_exact(shape, x), rel=1e-10)

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
        eng = counting_engine(2)
        with pytest.raises(ValueError):
            eng.w_all_shapes(Graph.build([(3, 5)], vertices=[3, 5, 7]), -0.1, 2.0)

    def test_dense_host_hits_row_budget(self):
        # the engine is built for sparse hosts; a dense one must fail fast
        # instead of exhausting memory
        eng = counting_engine(8)
        with pytest.raises(MemoryError):
            eng.w_all_shapes(Graph.complete(60), -0.1, 2.0)


class TestDeepAlgebra:
    """The gluing algebra at the depths the sweep actually uses."""

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
        from csbmlab.models import sample_null

        params = ModelParams(n=80, lam=1.5, k=2, eps=0.0, s=0.8)
        for _ in range(3):
            g, _ = sample_null(params, gen)
            counts = eng.forest_counts(g)
            assert all(v >= 0 for v in counts.values())
