"""Density score, badness classification, cutoff selection, decompositions."""

import itertools
import math
import random

import pytest

from csbmlab.density import (
    Decomposition,
    DensityParams,
    choose_N,
    decompose_plain,
    decompose_revised,
    has_bad_subgraph,
    is_admissible,
    is_bad,
    is_self_bad,
    phi_log,
)
from csbmlab.graphs import (
    Graph,
    edge_intersection,
    edge_union,
    excess,
    independent_cycles,
    isolated,
    leaves,
    two_core,
)

# Desk-scale parameters (score is far below the bad threshold for everything)
P_DESK = DensityParams.create(n=1_000_000, D=100, lam=1.0, k=2)
# Large-n parameters where the per-vertex factor exceeds 1 and the per-edge
# factor is below 1, so badness flags genuinely dense graphs (at this n the
# vertex/edge log-factors are ~61 and ~-38, so 5-vertex graphs with 9+ edges
# qualify).
P_DENSE = DensityParams.create(n=1e126, D=100, lam=1.0, k=2)

TRIANGLE = Graph.build([(0, 1), (1, 2), (0, 2)])


def random_host_and_sub(rng, n=10, p=0.35):
    # isolated vertices of s are folded into V(h): the path-count identity
    # assumes they contribute to both excess terms equally
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    s = Graph.build(edges, n=n)
    kept = [e for e in s.edges if rng.random() < 0.45]
    verts = {w for e in kept for w in e}
    verts |= {v for v in s.vertices if rng.random() < 0.25}
    verts |= set(isolated(s))
    h = Graph.build(kept, vertices=verts)
    return h, s


class TestPhi:
    def test_empty_graph_scores_one(self):
        assert phi_log(Graph.build([], vertices=[]), P_DESK) == 0.0

    def test_single_vertex_hand_value(self):
        g = Graph.build([], vertices=[0])
        expected = math.log(8) + 6 * math.log(10) - 50 * math.log(100)
        assert phi_log(g, P_DESK) == pytest.approx(expected, rel=1e-12)

    def test_single_edge_hand_value(self):
        g = Graph.build([(0, 1)])
        expected = (2 * (math.log(8) + 6 * math.log(10) - 100 * math.log(10))
                    + math.log(1000) + 20 * math.log(2) + 100 * math.log(10)
                    - 6 * math.log(10))
        assert phi_log(g, P_DESK) == pytest.approx(expected, rel=1e-12)

    def test_log_submodularity_random_pairs(self):
        rng = random.Random(23)
        for _ in range(2000):
            h1, s = random_host_and_sub(rng, n=rng.randint(3, 10))
            h2, _ = random_host_and_sub(rng, n=s.n_vertices)
            union = edge_union(h1, h2)
            inter = edge_intersection(h1, h2)
            lhs = phi_log(union, P_DENSE) + phi_log(inter, P_DENSE)
            rhs = phi_log(h1, P_DENSE) + phi_log(h2, P_DENSE)
            assert lhs <= rhs + 1e-9

    def test_leaf_removal_shrinks_by_constant_factor(self):
        # Deleting a leaf divides the score by exactly 2000·λ̃²²·k²².
        for p in (P_DESK, P_DENSE):
            step = math.log(2000) + 22 * math.log(p.lambda_tilde) + 22 * math.log(p.k)
            g = Graph.build([(0, 1), (1, 2), (2, 3), (2, 4)])
            stripped = Graph.build([(0, 1), (1, 2), (2, 3)])
            assert phi_log(g, p) - phi_log(stripped, p) == pytest.approx(step, rel=1e-12)
            assert step > 0

    def test_invariants(self):
        with pytest.raises(ValueError):
            DensityParams.create(n=100, D=50)
        with pytest.raises(ValueError):
            DensityParams.create(n=0)
        with pytest.raises(ValueError):
            DensityParams.create(n=100, k=1)
        # log log n needs a finite n > 1, and the score a finite λ̃
        for n in (1, 1.0, math.nan, math.inf, float("1e400")):
            with pytest.raises(ValueError, match="^n must be"):
                DensityParams.create(n=n)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^lambda_tilde"):
                DensityParams.create(n=100, lam=lam)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.build([e for i, e in enumerate(pairs) if bits >> i & 1], n=n)


def min_subgraph_score(h, p, proper):
    """Oracle: least phi_log over all subgraphs (E', V') of h, where V' holds
    the endpoints of E' and lies inside V(h); proper leaves out h itself."""
    best = math.inf
    for bits in range(1 << h.n_edges):
        sub = [e for i, e in enumerate(h.edges) if bits >> i & 1]
        for v in range(len({w for e in sub for w in e}), h.n_vertices + 1):
            if not (proper and len(sub) == h.n_edges and v == h.n_vertices):
                best = min(best, v * p.log_vertex_factor
                           + len(sub) * p.log_edge_factor)
    return best


class TestBadness:
    @pytest.mark.parametrize("p", [P_DESK, DensityParams.create(n=1e100), P_DENSE],
                             ids=["lx<0,ly>0", "lx>0,ly>0", "ly<0"])
    def test_subgraph_queries_match_enumeration(self, p):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(0, 6)
            pairs = itertools.combinations(range(n), 2)
            h = Graph.build([e for e in pairs if rng.random() < 0.45], n=n)
            assert has_bad_subgraph(h, p) == (
                min_subgraph_score(h, p, proper=False) < p.log_bad_threshold)
            assert is_self_bad(h, p) == (
                is_bad(h, p) and phi_log(h, p) < min_subgraph_score(h, p, proper=True))

    def test_k5_is_self_bad_in_dense_regime(self):
        k5 = Graph.complete(5)
        assert is_bad(k5, P_DENSE)
        assert is_self_bad(k5, P_DENSE)
        assert not is_bad(Graph.complete(4), P_DENSE)

    def test_trees_never_self_bad(self):
        # An edge-bearing graph with a leaf cannot be self-bad: removing the
        # leaf multiplies the score by 1/(2000 λ̃²² k²²) < 1.
        for p in (P_DESK, P_DENSE):
            assert not is_self_bad(Graph.path(4), p)
            assert not is_self_bad(Graph.build([(0, 1)]), p)

    def test_self_bad_implies_two_core_equal(self):
        # exhaustive over graphs on <= 5 vertices in the dense regime
        for n in range(1, 6):
            for g in all_graphs(n):
                if g.n_edges and is_self_bad(g, P_DENSE):
                    assert two_core(g) == g

    def test_self_bad_extension_same_vertex_set(self):
        # If S ⊂ T, S self-bad and V(S) = V(T) then T is self-bad.
        found = 0
        for g in all_graphs(5):
            if g.n_edges < 2 or not is_self_bad(g, P_DENSE):
                continue
            missing = [e for e in itertools.combinations(range(5), 2)
                       if e not in g.edge_set]
            for extra in missing:
                t = Graph.build(list(g.edges) + [extra], n=5)
                assert is_self_bad(t, P_DENSE)
                found += 1
        assert found > 0

    def test_union_of_self_bad_is_self_bad(self):
        bad5 = [g for g in all_graphs(5) if g.n_edges and is_self_bad(g, P_DENSE)]
        assert bad5
        rng = random.Random(1)
        k5 = Graph.complete(5)
        shift = {i: i + 2 for i in range(5)}
        for g in bad5:
            # overlap the second copy on vertices {2..6}
            h = Graph.build([(shift[u], shift[v]) for u, v in g.edges],
                            vertices=[shift[v] for v in g.vertices])
            u = edge_union(g, h)
            if u.n_vertices <= 7:
                assert is_self_bad(u, P_DENSE)

    def test_admissibility(self):
        assert is_admissible(Graph.build([], vertices=[]), P_DENSE, 5)
        assert not is_admissible(TRIANGLE, P_DENSE, 3)
        assert is_admissible(Graph.path(4), P_DENSE, 5)
        assert is_admissible(TRIANGLE, P_DENSE, 2)  # cycle longer than cutoff
        assert not is_admissible(Graph.complete(5), P_DENSE, 3)
        assert has_bad_subgraph(Graph.complete(6), P_DENSE)


class TestChooseN:
    @staticmethod
    def inequalities(N, delta, eps, k):
        root = math.sqrt(0.338)
        decay = (1 - delta / 2) ** N
        return [
            (root - delta) * (1 + eps ** N * k) <= root - delta / 2,
            10 * k * (1 - delta) ** N <= decay,
            (root - delta / 4) * (1 + decay) ** 2 <= root - delta / 8,
            decay * (N + 1) <= 1,
        ]

    def test_floor(self):
        assert choose_N(0.1 - 1e-9, 0.5, 2) >= 20

    def test_result_is_minimal_and_valid(self):
        for delta, eps, k in [(0.099, 0.5, 2), (0.05, 0.9, 3), (0.02, 0.1, 4)]:
            N = choose_N(delta, eps, k)
            assert all(self.inequalities(N, delta, eps, k))
            if N > math.ceil(2 / delta):
                assert not all(self.inequalities(N - 1, delta, eps, k))

    def test_monotone_in_eps(self):
        lo = choose_N(0.05, 0.1, 2)
        hi = choose_N(0.05, 0.9, 2)
        assert hi >= lo

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_N(0.2, 0.5, 2)
        with pytest.raises(ValueError):
            choose_N(0.05, 1.0, 2)


def check_plain(h, s):
    dec = decompose_plain(h, s)
    target = sorted(s.edge_set - h.edge_set)
    got = sorted(dec.all_edges())
    assert got == target, "edges must partition E(s) \\ E(h) exactly"
    # item (i): cycles vertex-disjoint, avoiding V(h)
    seen = set()
    for c in dec.cycles:
        assert not (set(c.vertices) & set(h.vertex_set))
        assert not (set(c.vertices) & seen)
        seen |= set(c.vertices)
    # item (iv): exact path count
    t_expected = len(leaves(s) - h.vertex_set) + excess(s) - excess(h)
    assert dec.path_count == t_expected
    return dec


def check_revised(h, s):
    dec = decompose_revised(h, s)
    target = sorted(s.edge_set - h.edge_set)
    assert sorted(dec.all_edges()) == target
    indep = set()
    for m in range(3, s.n_vertices + 1):
        indep |= {c.edge_set for c in independent_cycles(s, m)}
    for c in dec.cycles:
        assert c.edge_set in indep
    bound = 5 * (len(leaves(s) - h.vertex_set) + excess(s) - excess(h))
    assert dec.path_count <= bound
    # item (ii): paths meet everything else only at endpoints
    for i, p in enumerate(dec.paths):
        interior = set(p.interior)
        assert not interior & set(h.vertex_set)
        assert not interior & set(leaves(s))
        for c in dec.cycles:
            assert not interior & set(c.vertices)
        for j, q in enumerate(dec.paths):
            if i != j:
                assert not interior & set(q.seq)
    return dec


class TestDecompositions:
    def test_equal_graphs_empty(self):
        assert decompose_plain(TRIANGLE, TRIANGLE) == Decomposition((), ())
        assert decompose_revised(TRIANGLE, TRIANGLE) == Decomposition((), ())

    def test_isolated_host_triangle(self):
        # h has all three vertices but no edge: every edge becomes its own path
        h = Graph.build([], vertices=[0, 1, 2])
        dec = check_plain(h, TRIANGLE)
        assert dec.path_count == 3
        assert not dec.cycles

    def test_free_triangle_is_a_cycle(self):
        h = Graph.build([], vertices=[])
        dec = check_plain(h, TRIANGLE)
        assert len(dec.cycles) == 1
        assert dec.path_count == 0

    def test_theta_graph(self):
        # two vertices joined by the direct edge plus two longer arcs
        s = Graph.build([(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
        h = Graph.build([(0, 1)])
        dec = check_plain(h, s)
        assert dec.path_count == 2
        for p in dec.paths:
            assert set(p.endpoints) <= {0, 1}

    def test_anchored_triangle_closes(self):
        s = Graph.build([(0, 1), (1, 2), (0, 2)])
        h = Graph.build([], vertices=[0])
        dec = check_plain(h, s)
        assert dec.path_count == 1
        assert dec.paths[0].closed
        assert dec.paths[0].endpoints == (0,)

    def test_two_disjoint_triangles_revised(self):
        s = Graph.build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        h = Graph.build([(0, 1), (1, 2), (0, 2)], vertices=[0, 1, 2])
        dec = check_revised(h, s)
        assert len(dec.cycles) == 1
        assert dec.path_count == 0

    def test_figure_eight_revised(self):
        # two triangles sharing vertex 2: no independent cycles exist
        s = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        h = Graph.build([], vertices=list(range(5)))
        dec = check_revised(h, s)
        assert not dec.cycles
        bound = 5 * (0 + excess(s) - excess(h))
        assert dec.path_count <= bound

    def test_precondition(self):
        with pytest.raises(ValueError):
            decompose_plain(Graph.build([(7, 8)]), TRIANGLE)

    def test_random_pairs_plain(self):
        rng = random.Random(97)
        for _ in range(10_000):
            h, s = random_host_and_sub(rng, n=rng.randint(4, 11))
            check_plain(h, s)

    def test_random_pairs_revised(self):
        rng = random.Random(131)
        for _ in range(10_000):
            h, s = random_host_and_sub(rng, n=rng.randint(4, 11))
            check_revised(h, s)

    def test_merge_rule_on_synthetic_pool(self):
        # Two open paths meeting at an unprotected degree-2 endpoint merge
        # into one; a protected endpoint blocks the merge. (Unreachable from
        # decompose_plain's own output, where paths stop only at anchors.)
        from csbmlab.density import DecompPath, _merge_degree_two_endpoints

        pool = [DecompPath((0, 1, 2)), DecompPath((2, 3, 4))]
        merged = _merge_degree_two_endpoints(list(pool), protected={0, 4})
        assert len(merged) == 1
        assert set(merged[0].seq) == {0, 1, 2, 3, 4}
        kept = _merge_degree_two_endpoints(list(pool), protected={0, 2, 4})
        assert len(kept) == 2
        # sharing both endpoints closes into a cycle-shaped path at the
        # protected end
        ring = [DecompPath((0, 1, 2)), DecompPath((2, 3, 0))]
        closed = _merge_degree_two_endpoints(list(ring), protected={0})
        assert len(closed) == 1
        assert closed[0].closed
        assert closed[0].endpoints == (0,)
