"""Samplers: block model, correlated pair, null pair, truncation."""

import hashlib
import math

import numpy as np
import pytest

from csbmlab.density import DensityParams
from csbmlab import models
from csbmlab.graphs import Graph, count_cycles, cycles_up_to
from csbmlab.models import (
    CorrelatedSample,
    ModelParams,
    cycle_intensity,
    detect_self_bad_patterns,
    event_E_holds,
    sample_correlated,
    sample_null,
    sample_sbm,
    sample_truncated,
    sample_truncated_pair,
    truncate_graph,
)

P_DENSE = DensityParams.create(n=1e126, D=100, lam=1.0, k=2)


def apply_permutation(g, image):
    """Relabeled graph: vertex v becomes image[v]."""
    return Graph.build([(image[u], image[v]) for u, v in g.edges],
                       vertices=[image[v] for v in g.vertices])


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ModelParams(n=100, lam=1.0, k=2, eps=1.0, s=0.5)
        with pytest.raises(ValueError):
            ModelParams(n=100, lam=1.0, k=2, eps=0.5, s=0.0)
        with pytest.raises(ValueError):
            ModelParams(n=10, lam=11.0, k=2, eps=0.0, s=0.5)  # density >= 1
        with pytest.raises(ValueError):
            ModelParams(n=100, lam=60.0, k=2, eps=0.9, s=0.5)  # p_intra > 1

    def test_derived(self):
        p = ModelParams(n=1000, lam=2.0, k=3, eps=0.5, s=0.8)
        assert p.p_intra == pytest.approx((1 + 2 * 0.5) * 2.0 / 1000)
        assert p.p_inter == pytest.approx(0.5 * 2.0 / 1000)
        assert p.null_density == pytest.approx(2.0 * 0.8 / 1000)
        assert p.ks_product == pytest.approx(2.0 * 0.8 * 0.25)

    def test_marginal_probability_identity(self):
        # (1/k)(1+(k-1)eps) + ((k-1)/k)(1-eps) == 1 for every (k, eps)
        for k in (2, 3, 5):
            for eps in (0.0, 0.3, 0.99):
                avg = (1 + (k - 1) * eps) / k + (k - 1) * (1 - eps) / k
                assert avg == pytest.approx(1.0, abs=1e-15)


class TestSbmSampler:
    def test_er_case_density(self):
        # eps=0 collapses to ER(lam/n); mean edge count over draws
        params = ModelParams(n=500, lam=2.0, k=2, eps=0.0, s=1.0)
        rng = np.random.default_rng(42)
        counts = [sample_sbm(params, rng)[1].n_edges for _ in range(1000)]
        expected = math.comb(500, 2) * 2.0 / 500
        se = math.sqrt(expected) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_marginal_density_independent_of_eps(self):
        params = ModelParams(n=400, lam=1.5, k=3, eps=0.6, s=1.0)
        rng = np.random.default_rng(7)
        counts = [sample_sbm(params, rng)[1].n_edges for _ in range(800)]
        expected = math.comb(400, 2) * 1.5 / 400
        se = math.sqrt(expected) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) < 3.5 * se

    def test_extreme_eps_suppresses_inter_edges(self):
        params = ModelParams(n=300, lam=1.0, k=2, eps=0.999, s=1.0)
        rng = np.random.default_rng(3)
        inter = 0
        for _ in range(20):
            sigma, g = sample_sbm(params, rng)
            inter += sum(1 for u, v in g.edges if sigma[u] != sigma[v])
        assert inter <= 3

    def test_labeling_uniform(self):
        params = ModelParams(n=2000, lam=1.0, k=4, eps=0.2, s=0.5)
        rng = np.random.default_rng(11)
        sigma, _ = sample_sbm(params, rng)
        counts = np.bincount(sigma, minlength=4)
        assert counts.sum() == 2000
        assert all(abs(c - 500) < 5 * math.sqrt(500) for c in counts)

    def test_determinism(self):
        params = ModelParams(n=200, lam=1.5, k=2, eps=0.4, s=0.7)
        sigma_a, a = sample_sbm(params, np.random.default_rng(99))
        sigma_b, b = sample_sbm(params, np.random.default_rng(99))
        assert np.array_equal(sigma_a, sigma_b) and a == b


class TestCorrelatedSampler:
    def test_s_one_reproduces_parent(self):
        params = ModelParams(n=150, lam=1.2, k=2, eps=0.3, s=1.0)
        smp = sample_correlated(params, np.random.default_rng(5))
        assert smp.a == smp.parent
        assert smp.b == apply_permutation(smp.parent, smp.pi)

    def test_marginal_density(self):
        params = ModelParams(n=400, lam=1.5, k=2, eps=0.4, s=0.6)
        rng = np.random.default_rng(17)
        a_counts, b_counts = [], []
        for _ in range(600):
            smp = sample_correlated(params, rng)
            a_counts.append(smp.a.n_edges)
            b_counts.append(smp.b.n_edges)
        expected = math.comb(400, 2) * params.null_density
        se = math.sqrt(expected) / math.sqrt(600)
        assert abs(np.mean(a_counts) - expected) < 3 * se
        assert abs(np.mean(b_counts) - expected) < 3 * se

    def test_joint_retention_probability(self):
        # an edge of G lands in A and its image in B with probability s^2
        params = ModelParams(n=300, lam=2.0, k=2, eps=0.2, s=0.7)
        rng = np.random.default_rng(23)
        hits = total = 0
        for _ in range(400):
            smp = sample_correlated(params, rng)
            b_edges = smp.b.edge_set
            for u, v in smp.parent.edges:
                total += 1
                e = tuple(sorted((smp.pi[u], smp.pi[v])))
                if smp.a.has_edge(u, v) and e in b_edges:
                    hits += 1
        p_hat = hits / total
        se = math.sqrt(0.49 * 0.51 / total)
        assert abs(p_hat - 0.49) < 3 * se

    def test_determinism(self):
        params = ModelParams(n=120, lam=1.0, k=2, eps=0.3, s=0.5)
        a = sample_correlated(params, np.random.default_rng(1))
        b = sample_correlated(params, np.random.default_rng(1))
        assert np.array_equal(a.sigma, b.sigma) and np.array_equal(a.pi, b.pi)
        assert (a.parent, a.a, a.b) == (b.parent, b.a, b.b)

    @pytest.mark.parametrize("truncated", (False, True))
    def test_latent_arrays(self, truncated):
        # sigma and pi are read-only int64 arrays, and pi is a permutation
        params = ModelParams(n=90, lam=2.0, k=3, eps=0.3, s=0.6)
        rng = np.random.default_rng(12)
        smp = (sample_truncated_pair(params, 4, 10, rng) if truncated
               else sample_correlated(params, rng))
        for arr in (smp.sigma, smp.pi):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.int64
            assert arr.shape == (90,) and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        assert np.array_equal(np.sort(smp.pi), np.arange(90))
        assert smp.sigma.min() >= 0 and smp.sigma.max() < 3

    def test_invariant_checked(self):
        g = Graph.build([(0, 1)], n=3)
        bad = Graph.build([(1, 2)], n=3)
        with pytest.raises(ValueError):
            CorrelatedSample(sigma=(0, 0, 0), pi=None, parent=g, a=bad, b=g)


class TestNullSampler:
    def test_edge_count_and_independence(self):
        params = ModelParams(n=400, lam=1.5, k=2, eps=0.3, s=0.8)
        rng = np.random.default_rng(31)
        counts = np.array([[g.n_edges for g in sample_null(params, rng)]
                           for _ in range(800)], dtype=float)
        expected = math.comb(400, 2) * params.null_density
        se = math.sqrt(expected) / math.sqrt(800)
        assert abs(counts[:, 0].mean() - expected) < 3 * se
        assert abs(counts[:, 1].mean() - expected) < 3 * se
        # independent draws: correlation of the two counts is ~0
        corr = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
        assert abs(corr) < 3 / math.sqrt(800)


class TestCycleIntensity:
    def test_hand_values(self):
        assert cycle_intensity(3, ModelParams(n=100, lam=1.0, k=2, eps=0.0, s=0.5)) \
            == pytest.approx(1 / 6)
        assert cycle_intensity(3, ModelParams(n=100, lam=1.5, k=2, eps=0.5, s=0.5)) \
            == pytest.approx(0.6328125)

    def test_eps_zero_any_k(self):
        for k in (2, 3, 5):
            p = ModelParams(n=100, lam=1.3, k=k, eps=0.0, s=0.5)
            for j in (3, 4, 6):
                assert cycle_intensity(j, p) == pytest.approx(1.3 ** j / (2 * j))

    def test_domain(self):
        with pytest.raises(ValueError):
            cycle_intensity(2, ModelParams(n=100, lam=1.0, k=2, eps=0.1, s=0.5))


class TestTruncation:
    def test_triangle_uniform_edge_removal(self):
        tri = Graph.build([(0, 1), (1, 2), (0, 2)])
        rng = np.random.default_rng(13)
        freq = {e: 0 for e in tri.edges}
        n_draws = 3000
        for _ in range(n_draws):
            out = truncate_graph(tri, 3, 30, rng)
            (gone,) = set(tri.edges) - set(out.edges)
            freq[gone] += 1
        se = math.sqrt((1 / 3) * (2 / 3) / n_draws)
        for e, c in freq.items():
            assert abs(c / n_draws - 1 / 3) < 3.5 * se

    def test_tree_unchanged(self):
        tree = Graph.build([(0, 1), (1, 2), (1, 3)], n=5)
        rng = np.random.default_rng(2)
        assert truncate_graph(tree, 5, 30, rng) == tree

    def test_cycle_postcondition_survives_optimize(self, monkeypatch):
        # detection misses the triangle, so the final check must raise
        tri = Graph.build([(0, 1), (1, 2), (0, 2)])
        calls = iter([[], [tri]])
        monkeypatch.setattr(models, "cycles_up_to", lambda g, n: next(calls))
        with pytest.raises(RuntimeError):
            truncate_graph(tri, 3, 30, np.random.default_rng(0))

    def test_self_bad_postcondition_survives_optimize(self, monkeypatch):
        # the scan reports nothing before removal and a pattern after it
        calls = iter([[], [Graph.build([(0, 1)])]])
        monkeypatch.setattr(models, "detect_self_bad_patterns",
                            lambda g, density, cap: next(calls))
        path = Graph.path(4)
        with pytest.raises(RuntimeError):
            truncate_graph(path, 3, 30, np.random.default_rng(0), density=P_DENSE)

    def test_no_short_cycles_after_truncation(self):
        params = ModelParams(n=400, lam=1.8, k=2, eps=0.4, s=0.5)
        rng = np.random.default_rng(19)
        for _ in range(30):
            sigma, parent, trunc = sample_truncated(params, 5, 30, rng)
            assert cycles_up_to(trunc, 5) == []
            assert trunc.edge_set <= parent.edge_set

    def test_self_bad_detection_and_removal(self):
        # K5 glued in the dense regime: the scan finds edge-bearing self-bad
        # subgraphs and truncation destroys all of them.
        g = Graph.build(list(Graph.complete(5).edges) + [(5, 6), (6, 7), (5, 7)], n=8)
        pats = detect_self_bad_patterns(g, P_DENSE, vertex_cap=30)
        assert any(p.n_edges == 10 for p in pats)  # the full K5
        rng = np.random.default_rng(4)
        out = truncate_graph(g, 3, 30, rng, density=P_DENSE)
        assert not detect_self_bad_patterns(out, P_DENSE, vertex_cap=30)
        assert cycles_up_to(out, 3) == []

    def test_desk_scale_scan_is_vacuous(self):
        desk = DensityParams.create(n=2000)
        assert detect_self_bad_patterns(Graph.complete(6), desk, 30) == []


class TestEventE:
    def test_trivial_cases(self):
        desk = DensityParams.create(n=2000)
        assert event_E_holds(Graph.empty(5), 5, 30, desk)
        assert not event_E_holds(Graph.build([(0, 1), (1, 2), (0, 2)]), 3, 30, desk)

    def test_frequency_matches_poisson_product(self):
        params = ModelParams(n=700, lam=1.0, k=2, eps=0.5, s=0.5)
        desk = DensityParams.create(n=700)
        target = math.exp(-sum(cycle_intensity(j, params) for j in (3, 4)))
        rng = np.random.default_rng(29)
        hits = 0
        n_draws = 600
        for _ in range(n_draws):
            _, g = sample_sbm(params, rng)
            hits += event_E_holds(g, 4, 30, desk)
        se = math.sqrt(target * (1 - target) / n_draws)
        assert abs(hits / n_draws - target) < 3.5 * se


class TestExchangeability:
    def test_relabeled_sample_statistics(self):
        params = ModelParams(n=100, lam=1.5, k=2, eps=0.3, s=0.8)
        smp = sample_correlated(params, np.random.default_rng(41))
        perm_img = list(range(100))
        perm_img = perm_img[1:] + perm_img[:1]
        ra = apply_permutation(smp.a, perm_img)
        assert sorted(smp.a.degree(v) for v in smp.a.vertices) \
            == sorted(ra.degree(v) for v in ra.vertices)
        assert count_cycles(ra, 3) == count_cycles(smp.a, 3)


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class TestSamplerPin:
    """Exact sampler outputs and the generator state each call leaves,
    recorded before the samplers moved from edge lists to edge arrays. The
    harness reuses the planted generator after sampling, so the state is
    part of the output. Configs: k=2 and k=4 (between-block draws), s=1 and
    s<1, k=4 on n=3 (empty blocks, usually an edgeless parent) and the
    criterion-12 size. The truncated parent of `test_truncated_pair` lost
    11 of its 78 edges."""

    CONFIGS = [
        ModelParams(n=60, lam=2.0, k=2, eps=0.3, s=1.0),
        ModelParams(n=80, lam=3.0, k=4, eps=0.5, s=0.6),
        ModelParams(n=3, lam=0.5, k=4, eps=0.2, s=0.5),
        ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.8),
    ]

    @staticmethod
    def _record(params, seed):
        out = {}
        rng = np.random.default_rng(seed)
        sigma, g = sample_sbm(params, rng)
        out["sbm"] = ((g.n_edges,), _fingerprint(
            tuple(sigma.tolist()), g.vertices, g.edges, rng.bit_generator.state))
        rng = np.random.default_rng(seed)
        smp = sample_correlated(params, rng)
        out["correlated"] = (
            (smp.parent.n_edges, smp.a.n_edges, smp.b.n_edges),
            _fingerprint(tuple(smp.sigma.tolist()), tuple(smp.pi.tolist()),
                         smp.parent.edges, smp.a.edges, smp.b.edges,
                         smp.a.vertices, smp.b.vertices, rng.bit_generator.state))
        rng = np.random.default_rng(seed)
        qa, qb = sample_null(params, rng)
        out["null"] = ((qa.n_edges, qb.n_edges), _fingerprint(
            qa.vertices, qa.edges, qb.vertices, qb.edges, rng.bit_generator.state))
        return out

    PINNED = {
        (0, 0): {
            'sbm': ((63,), '079e274724affadb'),
            'correlated': ((63, 63, 63), '0a99c137cfcded91'),
            'null': ((57, 61), '926aa93451b1503e'),
        },
        (0, 5): {
            'sbm': ((65,), '29cdd2644cd8dfdc'),
            'correlated': ((65, 65, 65), 'f3dc58d303810c96'),
            'null': ((49, 68), 'f11830b05b280dc8'),
        },
        (1, 0): {
            'sbm': ((120,), '6efeb71ad7644125'),
            'correlated': ((120, 72, 68), 'a77170d05b30bf14'),
            'null': ((68, 81), '31f1ed5ae422e342'),
        },
        (1, 5): {
            'sbm': ((112,), '546c46b35fc1a2c1'),
            'correlated': ((112, 73, 72), '82906f3dcb6f663b'),
            'null': ((59, 74), '4de4f0b0e520ae11'),
        },
        (2, 0): {
            'sbm': ((0,), 'd58b5d2b312cc621'),
            'correlated': ((0, 0, 0), '2adb066bdbfe3835'),
            'null': ((0, 0), '2b3f10607ca38cd1'),
        },
        (2, 5): {
            'sbm': ((0,), 'af755baf6eed0e25'),
            'correlated': ((0, 0, 0), '5e09bc21c7e22f86'),
            'null': ((1, 0), '9e1c3e1a24c7d468'),
        },
        (3, 0): {
            'sbm': ((1762,), '2a005fd792916fa0'),
            'correlated': ((1762, 1422, 1404), 'bec500632d484d56'),
            'null': ((1486, 1467), '233d6cf7459e40c7'),
        },
        (3, 5): {
            'sbm': ((1782,), 'f96e637c6882bb55'),
            'correlated': ((1782, 1409, 1442), 'c56969dd87bc4028'),
            'null': ((1413, 1484), 'c4a4bf665794510b'),
        },
    }

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("seed", (0, 5))
    def test_samplers(self, index, seed):
        assert self._record(self.CONFIGS[index], seed) == self.PINNED[index, seed]

    def test_truncated_pair(self):
        params = ModelParams(n=60, lam=2.5, k=2, eps=0.3, s=0.7)
        rng = np.random.default_rng(8)
        smp = sample_truncated_pair(params, 4, 10, rng)
        got = ((smp.parent.n_edges, smp.a.n_edges, smp.b.n_edges),
               _fingerprint(tuple(smp.sigma.tolist()), tuple(smp.pi.tolist()),
                            smp.parent.edges, smp.a.edges, smp.b.edges,
                            rng.bit_generator.state))
        assert got == ((67, 40, 50), 'eafd9b0e3161d7c8')


def _sample_distinct_by_unique(rng, total, m):
    """The former body of `models._sample_distinct`, deduping with
    `np.unique`, kept as an oracle; also says whether it trimmed."""
    chosen = np.empty(0, dtype=np.int64)
    trimmed = False
    while chosen.size < m:
        need = m - chosen.size
        batch = rng.integers(0, total, size=need + max(4, need // 4), dtype=np.int64)
        chosen = np.unique(np.concatenate([chosen, batch]))
        if chosen.size > m:
            trimmed = True
            keep = rng.permutation(chosen.size)[:m]
            chosen = chosen[np.sort(keep)]
    return chosen, trimmed


class TestSampleDistinct:
    """The sort-based dedupe gives the oracle's array and leaves the
    generator where the oracle leaves it."""

    CASES = [(10, 0), (1, 1), (7, 7), (60, 60), (60, 55), (200, 150),
             (1000, 40), (10**6, 5000), (3000 * 2999 // 2, 1762)]

    @pytest.mark.parametrize("seed", (0, 1, 7, 12))
    def test_equals_the_unique_oracle(self, seed):
        trims = []
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for total, m in self.CASES:
            got = models._sample_distinct(got_rng, total, m)
            want, trimmed = _sample_distinct_by_unique(want_rng, total, m)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert len(got) == m and np.all(np.diff(got) > 0)
            trims.append(trimmed)
        assert models._sample_distinct(np.random.default_rng(seed), 7, 7).tolist() == list(range(7))
        assert any(trims) and not all(trims)  # the trim branch ran, and not always
