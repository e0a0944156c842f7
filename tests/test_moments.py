"""Exact moment kernels, chain identity, centered pair expectations."""

import itertools
import math
import random

import numpy as np
import pytest

from csbmlab.graphs import Graph
from csbmlab.models import ModelParams, sample_correlated
from csbmlab.graphs import connected_components, excess
from csbmlab.moments import (
    centered_moment,
    chain_expectation,
    chain_expectation_brute,
    exact_phi_expectation_P,
    exact_phi_expectation_Q,
    first_moment_closed,
    joint_moment_closed,
    moment_closed_form,
    omega,
    predicted_f_mean,
)

GRID = [(0.8, 0.0, 0.5), (1.0, 0.3, 0.8), (1.5, 0.7, 0.6),
        (2.0, 0.5, 1.0), (0.5, 0.99, 0.3)]


# -- oracles for paper identities ---------------------------------------------

def kernel_uv(r: int, t: int, params: ModelParams) -> tuple[float, float]:
    """(u, v) with E[Ā^r B̄^t] = (ω·u + v)/n; u_11 ≈ ελs², v_11 ≈ λs²."""
    val_same = centered_moment(r, t, True, params)
    val_diff = centered_moment(r, t, False, params)
    n, k = params.n, params.k
    u = (val_same - val_diff) * n / k
    v = ((k - 1) * val_diff + val_same) * n / k
    return u, v


def label_grid(k: int, n: int) -> np.ndarray:
    """All k^n labelings as an integer array of shape (k^n, n)."""
    return np.indices((k,) * n).reshape(n, -1).T


def tree_product_vanishes(tree: Graph, eps: float, k: int) -> float:
    """Brute-force E over all k^|V| labelings of Π ε·ω(σ_u, σ_v) over the
    edges of a forest. The result is always 0; cyclic input is rejected."""
    if any(excess(c) != -1 for c in connected_components(tree)):
        raise ValueError("identity applies to forests only")
    if tree.n_edges == 0:
        raise ValueError("need at least one edge")
    col = {v: i for i, v in enumerate(tree.vertices)}
    labels = label_grid(k, tree.n_vertices)
    prod = np.ones(labels.shape[0])
    for u, v in tree.edges:
        same = labels[:, col[u]] == labels[:, col[v]]
        prod *= eps * np.where(same, float(k - 1), -1.0)
    return float(prod.mean())


def cycle_product_expectation(length: int, k: int) -> float:
    """Brute-force E of Π ω around a cycle; the nonvanishing analogue of the
    forest identity (equals k-1 for every length)."""
    labels = label_grid(k, length)
    prod = np.ones(labels.shape[0])
    for i in range(length):
        same = labels[:, i] == labels[:, (i + 1) % length]
        prod *= np.where(same, float(k - 1), -1.0)
    return float(prod.mean())


class TestLabelKernel:
    def test_mean_zero(self):
        for k in (2, 3, 4, 5):
            assert omega(True, k) == k - 1
            assert omega(False, k) == -1
            # mean zero under a uniform label: one equal, k-1 different
            assert omega(True, k) + (k - 1) * omega(False, k) == 0


class TestKernels:
    def test_brute_matches_closed_form_grid(self):
        for lam, eps, s in GRID:
            for n in (10, 100):
                params = ModelParams(n=n, lam=lam, k=2, eps=eps, s=s)
                for r in range(3):
                    for t in range(3):
                        for same in (True, False):
                            brute = centered_moment(r, t, same, params)
                            closed = moment_closed_form(r, t, same, params)
                            assert brute == pytest.approx(closed, abs=1e-14)

    def test_trivial_moment(self):
        params = ModelParams(n=50, lam=1.0, k=2, eps=0.3, s=0.5)
        assert centered_moment(0, 0, True, params) == pytest.approx(1.0, abs=1e-15)

    def test_first_moment_value(self):
        params = ModelParams(n=40, lam=1.2, k=2, eps=0.4, s=0.7)
        # same block, k=2: omega = 1, so E[Ā] = eps*lam*s/n
        assert centered_moment(1, 0, True, params) == pytest.approx(
            0.4 * 1.2 * 0.7 / 40, abs=1e-15)
        assert centered_moment(1, 0, True, params) == pytest.approx(
            first_moment_closed(True, params), abs=1e-16)
        assert centered_moment(0, 1, False, params) == pytest.approx(
            first_moment_closed(False, params), abs=1e-16)

    def test_joint_moment_value(self):
        params = ModelParams(n=40, lam=1.2, k=3, eps=0.4, s=0.7)
        a = 0.4 * (1 - 2 * 1.2 / 40)
        b = 1 - 1.2 / 40
        expected = (-a + b) * 1.2 * 0.7 ** 2 / 40  # different blocks: omega=-1
        assert centered_moment(1, 1, False, params) == pytest.approx(expected, abs=1e-15)
        assert joint_moment_closed(False, params) == pytest.approx(expected, abs=1e-16)

    def test_uv_decomposition(self):
        for n in (200, 2000):
            params = ModelParams(n=n, lam=1.5, k=3, eps=0.6, s=0.8)
            u11, v11 = kernel_uv(1, 1, params)
            assert u11 == pytest.approx(0.6 * 1.5 * 0.64, rel=5 / n)
            assert v11 == pytest.approx(1.5 * 0.64, rel=5 / n)
            u10, v10 = kernel_uv(1, 0, params)
            assert v10 == pytest.approx(0.0, abs=1e-14)
            assert u10 == pytest.approx(0.6 * 1.5 * 0.8, rel=1e-10)
            _, v01 = kernel_uv(0, 1, params)
            assert v01 == pytest.approx(0.0, abs=1e-14)


class TestChainIdentity:
    def test_brute_matches_closed(self):
        for length in range(1, 7):
            for k in (2, 3, 4):
                for eps in (0.0, 0.3, 0.7, 0.99):
                    for equal in (True, False):
                        closed = chain_expectation(length, eps, k, equal)
                        brute = chain_expectation_brute(length, eps, k, equal)
                        assert brute == pytest.approx(closed, abs=1e-12)

    def test_hand_values(self):
        assert chain_expectation(1, 0.25, 2, True) == pytest.approx(1.25)
        assert chain_expectation(3, 0.5, 3, False) == pytest.approx(0.875)
        assert chain_expectation(4, 0.0, 5, False) == pytest.approx(1.0)


def tree_patterns_up_to_three_edges():
    """Labeled tree patterns with <= 3 edges inside [8], several placements."""
    out = [
        Graph.build([(0, 1)]),
        Graph.build([(2, 5)]),
        Graph.build([(0, 1), (1, 2)]),
        Graph.build([(3, 4), (4, 6)]),
        Graph.build([(0, 1), (1, 2), (2, 3)]),
        Graph.build([(1, 4), (4, 5), (5, 7)]),
        Graph.build([(0, 1), (0, 2), (0, 3)]),
        Graph.build([(5, 2), (5, 6), (5, 7)]),
    ]
    return out


class TestNullOrthonormality:
    def test_indicator(self):
        params = ModelParams(n=8, lam=1.0, k=2, eps=0.3, s=0.5)
        pats = tree_patterns_up_to_three_edges()
        pairs = [(a, b) for a in pats[:5] for b in pats[:5]]
        for (s1, s2), (t1, t2) in itertools.product(pairs[:12], pairs[:12]):
            val = exact_phi_expectation_Q(s1, s2, t1, t2, params)
            expected = 1.0 if (s1, s2) == (t1, t2) else 0.0
            assert val == pytest.approx(expected, abs=1e-12)

    def test_empty_patterns(self):
        params = ModelParams(n=8, lam=1.0, k=2, eps=0.3, s=0.5)
        empty = Graph.build([], vertices=[])
        assert exact_phi_expectation_Q(empty, empty, empty, empty, params) == 1.0

    def test_rejects_isolated(self):
        params = ModelParams(n=8, lam=1.0, k=2, eps=0.3, s=0.5)
        with pytest.raises(ValueError):
            exact_phi_expectation_Q(Graph.build([(0, 1)], n=4),
                                    Graph.build([(0, 1)]),
                                    Graph.build([(0, 1)]),
                                    Graph.build([(0, 1)]), params)


class TestLabelProducts:
    def test_forest_products_vanish(self):
        assert tree_product_vanishes(Graph.build([(0, 1)]), 0.5, 2) \
            == pytest.approx(0.0, abs=1e-14)
        assert tree_product_vanishes(Graph.path(4), 0.7, 3) \
            == pytest.approx(0.0, abs=1e-13)
        forest = Graph.build([(0, 1), (2, 3), (3, 4)])
        assert tree_product_vanishes(forest, 0.9, 4) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            tree_product_vanishes(Graph.build([(0, 1), (1, 2), (0, 2)]), 0.5, 2)

    def test_cycle_product_value(self):
        for k in (2, 3, 4):
            for m in (3, 4, 5, 6):
                assert cycle_product_expectation(m, k) == pytest.approx(
                    k - 1.0, abs=1e-11)


def random_small_pattern(rng, n, max_edges=3):
    while True:
        n_edges = rng.randint(1, max_edges)
        edges = set()
        while len(edges) < n_edges:
            u, v = rng.sample(range(n), 2)
            edges.add(tuple(sorted((u, v))))
        g = Graph.build(sorted(edges))
        return g


class TestPlantedExpectation:
    def test_dual_paths_agree_random(self):
        rng = random.Random(71)
        for n in (6, 7, 8):
            params = ModelParams(n=n, lam=1.0, k=2, eps=0.5, s=0.6)
            for _ in range(6):
                s1 = random_small_pattern(rng, n)
                s2 = random_small_pattern(rng, n)
                res = exact_phi_expectation_P(s1, s2, params)
                assert res.via_kernels == pytest.approx(
                    res.via_closed_forms, abs=1e-10)

    def test_single_edge_example(self):
        params = ModelParams(n=4, lam=1.0, k=2, eps=0.0, s=0.5)
        e = Graph.build([(0, 1)])
        res = exact_phi_expectation_P(e, e, params)
        assert res.via_kernels == pytest.approx(res.via_closed_forms, abs=1e-12)
        # eps=0 and matching patterns: dominated by s^1 * P(match) = 0.5/6
        assert res.value == pytest.approx(0.5 * (1 / 6), rel=0.2)

    def test_matches_monte_carlo(self):
        params = ModelParams(n=4, lam=1.0, k=2, eps=0.5, s=0.8)
        e = Graph.build([(0, 1)])
        exact = exact_phi_expectation_P(e, e, params).value
        rng = np.random.default_rng(7)
        p = params.null_density
        scale = 1 / (p * (1 - p))
        total = 0.0
        n_draws = 200_000
        for _ in range(n_draws):
            smp = sample_correlated(params, rng)
            total += ((smp.a.has_edge(0, 1) - p)
                      * (smp.b.has_edge(0, 1) - p) * scale)
        mc = total / n_draws
        se = math.sqrt(scale / n_draws)  # Var(phi) is ~1 under either model
        assert abs(mc - exact) < 4 * se

    def test_rejects_large_inputs(self):
        params = ModelParams(n=9, lam=1.0, k=2, eps=0.3, s=0.5)
        with pytest.raises(ValueError):
            exact_phi_expectation_P(Graph.build([(0, 1)]), Graph.build([(0, 1)]),
                                    params)


class TestPredictedMoments:
    def test_values(self):
        p1 = ModelParams(n=100, lam=1.0, k=2, eps=0.3, s=1.0)
        assert predicted_f_mean(p1, 3) == pytest.approx(2.0)
        p2 = ModelParams(n=100, lam=1.0, k=2, eps=0.3, s=0.8)
        # the null variance equals the planted mean
        assert predicted_f_mean(p2, 4) == pytest.approx(0.50331648, abs=1e-12)
        p3 = ModelParams(n=100, lam=1.0, k=2, eps=0.3, s=0.01)
        assert predicted_f_mean(p3, 5) < 1e-9
