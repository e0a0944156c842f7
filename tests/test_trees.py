"""Tree catalog: enumeration, automorphisms, statistic weights."""

import hashlib
import itertools
import math

import pytest

from csbmlab import trees
from csbmlab.trees import (
    a_coefficient,
    enumerate_trees,
    otter_estimate,
    prufer_canonical_codes,
    tree_canonical_key,
    tree_count,
)


class TestEnumeration:
    def test_counts(self):
        # OEIS A000055: unlabeled trees on aleph + 1 vertices
        assert [tree_count(a) for a in range(1, 13)] == [
            1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301]

    def test_catalog_fingerprint(self):
        # canonical labels and |Aut| of every shape with aleph <= 10, pinned
        shapes = [(s.canonical_edges, s.aut)
                  for aleph in range(1, 11) for s in enumerate_trees(aleph)]
        assert hashlib.sha256(repr(shapes).encode()).hexdigest() == (
            "07e21750735e9cc1eb5883cea490385e4caafa410534d32ade9e42a81208ccb5")

    def test_aleph_three_shapes(self):
        shapes = enumerate_trees(3)
        assert sorted(s.aut for s in shapes) == [2, 6]  # path and star

    def test_matches_prufer_oracle(self):
        for aleph in range(1, 8):
            mine = {tree_canonical_key(s.graph()) for s in enumerate_trees(aleph)}
            assert mine == prufer_canonical_codes(aleph)

    def test_canonical_labels_are_stable(self):
        for aleph in (2, 4, 6):
            for shape in enumerate_trees(aleph):
                g = shape.graph()
                assert g.n_vertices == aleph + 1
                assert g.n_edges == aleph
                # every vertex after the first attaches to an earlier one
                seen = {0}
                for u, v in sorted(g.edges, key=max):
                    assert min(u, v) in seen
                    seen.add(max(u, v))

    def test_labeling_postcondition_survives_optimize(self, monkeypatch):
        # a relabeling that is not a fixed point of itself must raise
        relabel = trees._canonical_relabel
        monkeypatch.setattr(trees, "_canonical_relabel",
                            lambda g: relabel(g)[::-1])
        with pytest.raises(RuntimeError):
            enumerate_trees.__wrapped__(3)  # uncached, so the check runs

    def test_range(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        with pytest.raises(ValueError):
            enumerate_trees(15)


class TestOtter:
    def test_values(self):
        assert otter_estimate(1) == 1.0
        assert otter_estimate(7) == pytest.approx(23 ** (1 / 7))

    def test_monotone_toward_limit(self):
        estimates = [otter_estimate(a) for a in range(2, 13)]
        assert all(b > a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] < 1 / 0.338


class TestLabeledCopyCounts:
    def test_copies_in_complete_graph(self):
        # labeled copies of a shape in the complete graph: n!/((n-aleph-1)!·Aut)
        for n in (6, 8):
            for aleph in (1, 2, 3):
                for shape in enumerate_trees(aleph):
                    verts = sorted({w for e in shape.canonical_edges for w in e})
                    copies = set()
                    for img in itertools.permutations(range(n), len(verts)):
                        m = dict(zip(verts, img))
                        copies.add(tuple(sorted(
                            tuple(sorted((m[u], m[v])))
                            for u, v in shape.canonical_edges)))
                    expected = (math.factorial(n)
                                // (math.factorial(n - aleph - 1) * shape.aut))
                    assert len(copies) == expected


class TestWeights:
    def test_hand_values(self):
        edge = enumerate_trees(1)[0]
        assert a_coefficient(edge, 4, 1.0) == pytest.approx(1 / 6)
        p4 = next(s for s in enumerate_trees(3) if s.aut == 2)
        assert a_coefficient(p4, 10, 0.5) == pytest.approx(
            0.125 * 2 / (10 * 9 * 8 * 7))
        star = next(s for s in enumerate_trees(3) if s.aut == 6)
        assert a_coefficient(star, 10, 0.0) == 0.0

    def test_weight_times_copies_is_s_power(self):
        import random

        rng = random.Random(8)
        for _ in range(20):
            aleph = rng.randint(1, 5)
            shape = rng.choice(enumerate_trees(aleph))
            n = rng.randint(aleph + 2, 200)
            s = rng.uniform(0.05, 1.0)
            copies = (math.factorial(n)
                      // (math.factorial(n - aleph - 1) * shape.aut))
            assert a_coefficient(shape, n, s) * copies == pytest.approx(
                s ** aleph, abs=1e-12)

    def test_domain(self):
        edge = enumerate_trees(1)[0]
        with pytest.raises(ValueError):
            a_coefficient(edge, 2, 0.5)
        with pytest.raises(ValueError):
            a_coefficient(edge, 10, 1.5)
