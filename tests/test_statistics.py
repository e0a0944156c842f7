"""Centered matrices, the three W evaluators, and the assembled statistic."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from csbmlab import statistics
from csbmlab.graphs import Graph
from csbmlab.models import ModelParams, sample_correlated, sample_null
from csbmlab.statistics import (
    CenteredMatrix,
    cycle_count_test,
    default_reps,
    f_tree_stat,
    threshold_test,
    w_color_coding,
    w_exact,
)
from csbmlab.moments import predicted_f_mean
from csbmlab.trees import a_coefficient, enumerate_trees, tree_count

PARAMS_SMALL = ModelParams(n=12, lam=1.5, k=2, eps=0.3, s=0.8)


def random_graph(rng, n, p):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph.build(edges, n=n)


def psi(pattern, x):
    """Product of centered entries over the pattern's edges; 1 when empty."""
    out = 1.0
    for u, v in pattern.edges:
        out *= x.entry(u, v)
    return out


def apply_permutation(g, image):
    """Relabeled graph: vertex v becomes image[v]."""
    return Graph.build([(image[u], image[v]) for u, v in g.edges],
                       vertices=[image[v] for v in g.vertices])


def brute_w(shape, x):
    verts = sorted({w for e in shape.canonical_edges for w in e})
    total = 0.0
    for img in itertools.permutations(range(x.n), len(verts)):
        m = dict(zip(verts, img))
        prod = 1.0
        for (a, b) in shape.canonical_edges:
            prod *= x.entry(m[a], m[b])
        total += prod
    return total / shape.aut


class TestCenteredMatrix:
    def test_normalization_exact(self):
        for n, lam, s in [(100, 1.0, 0.5), (2000, 2.0, 0.9), (50, 0.5, 0.3)]:
            params = ModelParams(n=n, lam=lam, k=2, eps=0.1, s=s)
            x = CenteredMatrix.from_graph(Graph.empty(n), params)
            p = params.null_density
            mean = p * x.edge_value + (1 - p) * x.nonedge_value
            second = p * x.edge_value ** 2 + (1 - p) * x.nonedge_value ** 2
            assert abs(mean) < 1e-14
            assert abs(second - 1.0) < 1e-12

    def test_entry_lookup(self):
        params = ModelParams(n=4, lam=1.0, k=2, eps=0.0, s=0.5)
        x = CenteredMatrix.from_graph(Graph.build([(0, 1)], n=4), params)
        assert x.entry(0, 1) == x.edge_value
        assert x.entry(2, 3) == x.nonedge_value
        with pytest.raises(ValueError):
            x.entry(1, 1)

    def test_psi(self):
        params = ModelParams(n=5, lam=1.0, k=2, eps=0.0, s=0.5)
        x = CenteredMatrix.from_graph(Graph.build([(0, 1)], n=5), params)
        assert psi(Graph.build([], vertices=[]), x) == 1.0
        assert psi(Graph.build([(0, 1)]), x) == x.edge_value
        assert psi(Graph.build([(1, 2), (2, 3)]), x) == pytest.approx(
            x.nonedge_value ** 2)


class TestWExact:
    def test_edge_shape_on_empty_graph(self):
        params = ModelParams(n=3, lam=1.0, k=2, eps=0.0, s=0.5)
        x = CenteredMatrix.from_graph(Graph.empty(3), params)
        (edge_shape,) = enumerate_trees(1)
        assert w_exact(edge_shape, x) == pytest.approx(3 * x.nonedge_value)

    def test_edge_shape_on_complete_graph(self):
        params = ModelParams(n=6, lam=1.0, k=2, eps=0.0, s=0.5)
        x = CenteredMatrix.from_graph(Graph.complete(6), params)
        (edge_shape,) = enumerate_trees(1)
        assert w_exact(edge_shape, x) == pytest.approx(15 * x.edge_value)

    def test_matches_plain_enumeration(self):
        rng = random.Random(5)
        for aleph in (1, 2, 3):
            for _ in range(3):
                g = random_graph(rng, 8, 0.4)
                x = CenteredMatrix.from_graph(g, ModelParams(
                    n=8, lam=1.0, k=2, eps=0.2, s=0.7))
                for shape in enumerate_trees(aleph):
                    assert w_exact(shape, x) == pytest.approx(
                        brute_w(shape, x), rel=1e-10)

    def test_budget(self):
        params = ModelParams(n=64, lam=1.0, k=2, eps=0.0, s=0.5)
        x = CenteredMatrix.from_graph(Graph.empty(64), params)
        with pytest.raises(ValueError):
            w_exact(enumerate_trees(1)[0], x)


class TestColorCoding:
    def test_naive_equals_split(self, monkeypatch):
        # reference: contract the messages against the dense entry matrix
        rng = random.Random(9)
        g = random_graph(rng, 10, 0.35)
        x = CenteredMatrix.from_graph(g, ModelParams(
            n=10, lam=1.0, k=2, eps=0.2, s=0.7))
        split = [w_color_coding(shape, x, 40, np.random.default_rng(3),
                                return_samples=True)
                 for shape in enumerate_trees(3)]
        monkeypatch.setattr(
            statistics, "_cc_messages",
            lambda dp, x, adj: np.einsum("rsj,ij->rsi", dp, x.dense()))
        for shape, b in zip(enumerate_trees(3), split):
            a = w_color_coding(shape, x, 40, np.random.default_rng(3),
                               return_samples=True)
            assert np.allclose(a, b, rtol=1e-11, atol=1e-11)

    def test_samples_pinned(self):
        # exact samples at a fixed generator, recorded before the DP walked
        # the labels downwards instead of a recursive postorder
        rng = random.Random(5)
        g = random_graph(rng, 11, 0.35)
        x = CenteredMatrix.from_graph(g, ModelParams(
            n=11, lam=1.0, k=2, eps=0.2, s=0.7))
        gen = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for aleph in (4, 5):
            for shape in enumerate_trees(aleph):
                digest.update(w_color_coding(shape, x, 5, gen,
                                             return_samples=True).tobytes())
        assert (g.n_edges, digest.hexdigest()[:16]) == (23, "871cc94c535d5976")

    def test_unbiased_against_exact(self):
        rng = random.Random(21)
        g = random_graph(rng, 12, 0.3)
        x = CenteredMatrix.from_graph(g, PARAMS_SMALL)
        gen = np.random.default_rng(77)
        for aleph in (1, 2, 3):
            for shape in enumerate_trees(aleph):
                target = w_exact(shape, x)
                samples = w_color_coding(shape, x, 3000, gen,
                                         return_samples=True)
                se = samples.std(ddof=1) / math.sqrt(len(samples))
                assert abs(samples.mean() - target) < 4 * max(se, 1e-12)

    def test_zero_entries_give_zero(self):
        g = Graph.build([(0, 1), (1, 2)], n=6)
        x = CenteredMatrix(n=6, base_graph=g, edge_value=0.0, nonedge_value=0.0)
        for shape in enumerate_trees(2):
            assert w_color_coding(shape, x, 5, np.random.default_rng(0)) == 0.0

    def test_rejects_bad_reps(self):
        x = CenteredMatrix.from_graph(Graph.empty(5), ModelParams(
            n=5, lam=1.0, k=2, eps=0.0, s=0.5))
        with pytest.raises(ValueError):
            w_color_coding(enumerate_trees(1)[0], x, 0, np.random.default_rng(0))


class TestDefaultReps:
    def test_scaling(self):
        p = ModelParams(n=500, lam=1.5, k=2, eps=0.3, s=0.8)
        assert default_reps(p, 6) > default_reps(p, 3)
        assert default_reps(p, 4, budget=0.1) > default_reps(p, 4, budget=0.4)
        assert default_reps(p, 4) >= 1


class TestTreeStat:
    def test_matches_direct_double_sum(self):
        # Direct evaluation over labeled copy pairs at tiny sizes
        rng = random.Random(3)
        params = ModelParams(n=8, lam=1.2, k=2, eps=0.3, s=0.7)
        for aleph in (1, 2):
            a = random_graph(rng, 8, 0.4)
            b = random_graph(rng, 8, 0.4)
            xa = CenteredMatrix.from_graph(a, params)
            xb = CenteredMatrix.from_graph(b, params)
            direct = 0.0
            for shape in enumerate_trees(aleph):
                coeff = a_coefficient(shape, 8, params.s)
                copies = set()
                verts = sorted({w for e in shape.canonical_edges for w in e})
                for img in itertools.permutations(range(8), len(verts)):
                    m = dict(zip(verts, img))
                    copies.add(tuple(sorted(
                        tuple(sorted((m[u], m[v]))) for u, v in shape.canonical_edges)))
                psa = [psi(Graph.build(c), xa) for c in copies]
                psb = [psi(Graph.build(c), xb) for c in copies]
                direct += coeff * sum(psa) * sum(psb)
            res = f_tree_stat(a, b, params, aleph, method="exact")
            assert res.value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_sparse_scoring_stores_nothing_on_the_hosts(self):
        # a host keeps only its edge array: the CSR a pass builds is dropped
        params = ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
        smp = sample_correlated(params, np.random.default_rng(5))
        null = sample_null(params, np.random.default_rng(6))
        for a, b in ((smp.a, smp.b), null):
            before = (set(a.__dict__), set(b.__dict__))
            f_tree_stat(a, b, params, 8)
            assert (set(a.__dict__), set(b.__dict__)) == before

    def test_exact_and_sparse_agree(self):
        rng = random.Random(41)
        for aleph in (2, 3, 4):
            params = ModelParams(n=12, lam=1.5, k=2, eps=0.4, s=0.8)
            a = random_graph(rng, 12, 0.3)
            b = random_graph(rng, 12, 0.3)
            exact = f_tree_stat(a, b, params, aleph, method="exact")
            sparse = f_tree_stat(a, b, params, aleph, method="sparse")
            assert sparse.value == pytest.approx(exact.value, rel=1e-9, abs=1e-12)
            for (i, wa, wb), (j, va, vb) in zip(exact.per_shape, sparse.per_shape):
                assert wa == pytest.approx(va, rel=1e-9, abs=1e-9)
                assert wb == pytest.approx(vb, rel=1e-9, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = random.Random(13)
        params = ModelParams(n=10, lam=1.2, k=2, eps=0.3, s=0.8)
        a = random_graph(rng, 10, 0.35)
        b = random_graph(rng, 10, 0.35)
        img = list(range(10))
        rng.shuffle(img)
        base = f_tree_stat(a, b, params, 3, method="sparse")
        moved = f_tree_stat(apply_permutation(a, img), apply_permutation(b, img),
                            params, 3, method="sparse")
        assert moved.value == base.value  # exact counts: bitwise identical

    def test_per_shape_invariant(self):
        rng = random.Random(17)
        params = ModelParams(n=12, lam=1.0, k=2, eps=0.2, s=0.9)
        a = random_graph(rng, 12, 0.3)
        b = random_graph(rng, 12, 0.3)
        res = f_tree_stat(a, b, params, 3, method="sparse")
        catalog = enumerate_trees(3)
        recomputed = sum(a_coefficient(catalog[i], 12, 0.9) * wa * wb
                         for i, wa, wb in res.per_shape)
        assert res.value == pytest.approx(recomputed, abs=1e-12)

    def test_default_method_is_the_engine(self):
        # n=12, ℵ=3 lies within the brute-force budget; the default still
        # scores with the engine, bit for bit as an explicit request
        rng = random.Random(29)
        a = random_graph(rng, 12, 0.3)
        b = random_graph(rng, 12, 0.3)
        default = f_tree_stat(a, b, PARAMS_SMALL, 3)
        sparse = f_tree_stat(a, b, PARAMS_SMALL, 3, method="sparse")
        assert default.method == "sparse"
        assert default.value == sparse.value
        assert default.per_shape == sparse.per_shape

    def test_auto_method_is_rejected(self):
        a = Graph.empty(12)
        with pytest.raises(ValueError, match="unknown method 'auto'"):
            f_tree_stat(a, a, PARAMS_SMALL, 3, method="auto")

    def test_pair_off_the_model_vertex_set_is_rejected(self):
        with pytest.raises(ValueError, match="model's vertex set"):
            f_tree_stat(Graph.empty(10), Graph.empty(12), PARAMS_SMALL, 3)

    @pytest.mark.parametrize("method", ["exact", "sparse", "cc"])
    @pytest.mark.parametrize("reps", [0, -4])
    def test_reps_below_one_rejected_for_every_method(self, method, reps):
        # not only where color coding reads them: no method reports a
        # repetition count it would refuse
        a = Graph.empty(12)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            f_tree_stat(a, a, PARAMS_SMALL, 3, method=method, reps=reps,
                        rng=np.random.default_rng(0))

    def test_w_orthonormality_consequence(self):
        # under the null, per-shape W sums have variance equal to the labeled
        # copy count and distinct shapes are uncorrelated
        import math as _math

        from csbmlab.counting import counting_engine
        from csbmlab.models import sample_null

        params = ModelParams(n=60, lam=2.0, k=2, eps=0.0, s=0.8)
        engine = counting_engine(3)
        x0 = CenteredMatrix.from_graph(Graph.empty(60), params)
        gen = np.random.default_rng(31)
        ws = []
        for _ in range(600):
            g, _ = sample_null(params, gen)
            ws.append(engine.w_all_shapes(g, x0.nonedge_value, x0.slope))
        ws = np.array(ws)
        for i, shape in enumerate(enumerate_trees(3)):
            copies = (_math.factorial(60)
                      // (_math.factorial(60 - 4) * shape.aut))
            var = ws[:, i].var(ddof=1)
            m4 = ((ws[:, i] - ws[:, i].mean()) ** 4).mean()
            se = _math.sqrt(max(m4 - var ** 2, 0.0) / len(ws))
            assert abs(var - copies) < 4 * se
        dev = (ws - ws.mean(axis=0))
        cross = (dev[:, 0] * dev[:, 1]).mean()
        se_cross = (dev[:, 0] * dev[:, 1]).std(ddof=1) / _math.sqrt(len(ws))
        assert abs(cross) < 3.5 * se_cross

    def test_planted_mean_trend(self):
        # the planted mean approaches s^(2·aleph)·#shapes from below as n grows
        from csbmlab.models import sample_correlated

        target = 0.8 ** 8 * 3
        gaps = []
        for n, draws in ((500, 300), (2000, 200), (8000, 150)):
            params = ModelParams(n=n, lam=1.5, k=2, eps=0.3, s=0.8)
            gen = np.random.default_rng(n)
            vals = []
            for _ in range(draws):
                smp = sample_correlated(params, gen)
                vals.append(f_tree_stat(smp.a, smp.b, params, 4,
                                        method="sparse").value)
            vals = np.array(vals)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            gaps.append((abs(vals.mean() - target), se))
        assert gaps[2][0] < gaps[0][0] + 2 * (gaps[0][1] + gaps[2][1])
        assert gaps[2][0] < 3 * gaps[2][1] + 0.1 * target


class TestThreshold:
    def test_decisions(self):
        params = ModelParams(n=100, lam=1.0, k=2, eps=0.2, s=0.8)
        tau = 0.5 * predicted_f_mean(params, 4)
        assert threshold_test(0.0, params, 4, 0.5) == ("null", tau)
        mean = 0.8 ** 8 * tree_count(4)
        assert threshold_test(mean, params, 4, 0.5) == ("planted", tau)
        # boundary is inclusive
        assert threshold_test(0.5 * mean, params, 4, 0.5) == ("planted", tau)
        for C in (0.0, 1.0, 1.5, 5.0, -1.0):
            with pytest.raises(ValueError, match=r"C must lie in \(0, 1\)"):
                threshold_test(1.0, params, 4, C)


class TestCycleCountTest:
    def test_empty_graph_value(self):
        params = ModelParams(n=100, lam=2.0, k=2, eps=0.2, s=0.5)  # lam*s = 1
        z = cycle_count_test(Graph.empty(100), 3, params)
        assert z == pytest.approx(-math.sqrt(1 / 6), rel=1e-12)

    def test_null_mean_zero(self):
        params = ModelParams(n=600, lam=3.0, k=2, eps=0.3, s=0.5)
        rng = np.random.default_rng(3)
        zs = []
        for _ in range(300):
            a, _ = sample_null(params, rng)
            zs.append(cycle_count_test(a, 3, params))
        se = np.std(zs, ddof=1) / math.sqrt(len(zs))
        assert abs(np.mean(zs)) < 3.5 * se

    def test_planted_marginal_mean(self):
        # under the planted marginal the count mean is (1+(k-1)eps^l)(lam s)^l/(2l)
        from csbmlab.graphs import count_cycles

        params = ModelParams(n=600, lam=3.0, k=2, eps=0.9, s=0.5)
        rng = np.random.default_rng(5)
        counts = []
        for _ in range(400):
            smp = sample_correlated(params, rng)
            counts.append(count_cycles(smp.a, 4))
        expected = (1 + 0.9 ** 4) * 1.5 ** 4 / 8
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) < 3.5 * se


class TestDetector:
    """The statistic and its threshold together: score a pair with
    `f_tree_stat`, decide it with `threshold_test`."""

    def test_separates_extreme_models(self):
        params = ModelParams(n=400, lam=4.0, k=2, eps=0.0, s=1.0)
        rng = np.random.default_rng(8)
        planted, null = [], []
        for _ in range(8):
            smp = sample_correlated(params, rng)
            planted.append((smp.a, smp.b))
            null.append(sample_null(params, rng))
        p_scores = np.array([f_tree_stat(a, b, params, 5).value for a, b in planted])
        q_scores = np.array([f_tree_stat(a, b, params, 5).value for a, b in null])
        assert p_scores.mean() > q_scores.mean()
        p_planted = [threshold_test(f, params, 5, 0.5)[0] == "planted" for f in p_scores]
        q_planted = [threshold_test(f, params, 5, 0.5)[0] == "planted" for f in q_scores]
        assert np.mean(p_planted) >= 0.5
        assert np.mean(q_planted) <= 0.5
