"""Exact small-instance moment oracles for the centered pair statistics.

Everything here is computed two ways on purpose: closed forms from the model
algebra, and brute-force sums over the latent variables (edge outcomes,
community labels, matchings). The test suite pins the two against each other
at tight tolerances; Monte Carlo never enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .graphs import Graph, isolated
from .models import ModelParams
from .trees import tree_count

__all__ = [
    "omega",
    "centered_moment",
    "moment_closed_form",
    "first_moment_closed",
    "joint_moment_closed",
    "chain_expectation",
    "chain_expectation_brute",
    "exact_phi_expectation_Q",
    "PhiExpectationP",
    "exact_phi_expectation_P",
    "predicted_f_mean",
]


def omega(same: bool, k: int) -> float:
    return float(k - 1) if same else -1.0


# ---------------------------------------------------------------------------
# Per-edge moment kernels
# ---------------------------------------------------------------------------

def centered_moment(r: int, t: int, same_block: bool, params: ModelParams) -> float:
    """Exact E[Ā^r·B̄^t | labels, matching] for one matched edge slot, by
    summing the eight outcomes of (parent edge, two masks)."""
    if not (0 <= r <= 2 and 0 <= t <= 2):
        raise ValueError("moment orders must lie in 0..2")
    w = omega(same_block, params.k)
    p_parent = (1 + params.eps * w) * params.lam / params.n
    p = params.null_density
    s = params.s
    total = 0.0
    for g in (0, 1):
        pg = p_parent if g else 1 - p_parent
        for j in (0, 1):
            pj = s if j else 1 - s
            for kk in (0, 1):
                pk = s if kk else 1 - s
                total += pg * pj * pk * (g * j - p) ** r * (g * kk - p) ** t
    return total


def moment_closed_form(r: int, t: int, same_block: bool, params: ModelParams) -> float:
    """Closed form of the same moment: conditioning on the parent edge gives
    (1-p_G)(-p)^{r+t} + p_G·(s(1-p)^r+(1-s)(-p)^r)(s(1-p)^t+(1-s)(-p)^t)."""
    w = omega(same_block, params.k)
    p_parent = (1 + params.eps * w) * params.lam / params.n
    p = params.null_density
    s = params.s
    return ((1 - p_parent) * (-p) ** (r + t)
            + p_parent * (s * (1 - p) ** r + (1 - s) * (-p) ** r)
            * (s * (1 - p) ** t + (1 - s) * (-p) ** t))


def first_moment_closed(same_block: bool, params: ModelParams) -> float:
    """E[Ā] = ω·ε·λ·s/n (identical for B̄)."""
    return omega(same_block, params.k) * params.eps * params.lam * params.s / params.n


def joint_moment_closed(same_block: bool, params: ModelParams) -> float:
    """E[Ā·B̄] = (a·ω + b)·λ·s²/n with a = ε(1-2λ/n), b = 1-λ/n."""
    a = params.eps * (1 - 2 * params.lam / params.n)
    b = 1 - params.lam / params.n
    w = omega(same_block, params.k)
    return (a * w + b) * params.lam * params.s ** 2 / params.n


# ---------------------------------------------------------------------------
# Chain identity
# ---------------------------------------------------------------------------

def chain_expectation(length: int, eps: float, k: int, endpoint_equal: bool) -> float:
    """Conditional expectation of Π (1 + ε·ω) along a path given endpoints:
    1 + ε^length · ω(endpoints)."""
    if length < 1:
        raise ValueError("path length must be >= 1")
    return 1 + eps ** length * omega(endpoint_equal, k)


def chain_expectation_brute(length: int, eps: float, k: int,
                            endpoint_equal: bool) -> float:
    """Average over all k^(length-1) interior labelings."""
    if length < 1:
        raise ValueError("path length must be >= 1")
    sigma0, sigma_end = 0, 0 if endpoint_equal else 1
    if not endpoint_equal and k < 2:
        raise ValueError("distinct endpoints need k >= 2")
    total = 0.0
    interiors = length - 1
    for code in range(k ** interiors):
        labels = [sigma0]
        c = code
        for _ in range(interiors):
            labels.append(c % k)
            c //= k
        labels.append(sigma_end)
        prod = 1.0
        for a, b in zip(labels, labels[1:]):
            prod *= 1 + eps * omega(a == b, k)
        total += prod
    return total / k ** interiors


# ---------------------------------------------------------------------------
# Exact expectations of the centered pair products
# ---------------------------------------------------------------------------

def _central_power(m: int, p: float) -> float:
    """E[(X - p)^m] for X ~ Bernoulli(p)."""
    return (1 - p) * (-p) ** m + p * (1 - p) ** m


def exact_phi_expectation_Q(s1: Graph, s2: Graph, t1: Graph, t2: Graph,
                            params: ModelParams) -> float:
    """Exact E over the null pair of the product of two centered pattern
    polynomials; equals 1 when (s1,s2) == (t1,t2) and 0 otherwise."""
    for g in (s1, s2, t1, t2):
        if isolated(g):
            raise ValueError("patterns must have no isolated vertices")
    p = params.null_density
    total_edges = s1.n_edges + s2.n_edges + t1.n_edges + t2.n_edges
    norm = (p * (1 - p)) ** (-total_edges / 2)
    value = 1.0
    for first, second in ((s1, t1), (s2, t2)):
        mult: dict[tuple[int, int], int] = {}
        for e in first.edges:
            mult[e] = mult.get(e, 0) + 1
        for e in second.edges:
            mult[e] = mult.get(e, 0) + 1
        for m in mult.values():
            value *= _central_power(m, p)
    return value * norm


@dataclass(frozen=True)
class PhiExpectationP:
    """Exact planted-model expectation of one centered pair polynomial,
    computed along two independent routes that must agree."""

    via_kernels: float
    via_closed_forms: float

    @property
    def value(self) -> float:
        return self.via_kernels


def _label_grid(k: int, n: int) -> np.ndarray:
    """All k^n labelings as an integer array of shape (k^n, n)."""
    grid = np.indices((k,) * n).reshape(n, -1).T
    return np.ascontiguousarray(grid)


def exact_phi_expectation_P(s1: Graph, s2: Graph,
                            params: ModelParams) -> PhiExpectationP:
    """Exact E over the planted pair of the centered pattern polynomial.

    Exhausts the uniform matching through all injective placements of the
    second pattern and the community labels through all k^n labelings.
    Route one multiplies per-edge eight-outcome kernels with a shared/plain
    split decided per placement; route two uses the closed-form kernels on
    the symmetric difference and intersection of the placed patterns.
    """
    n, k = params.n, params.k
    if n > 8:
        raise ValueError("exhaustive matching average needs n <= 8")
    if len(s1.vertex_set | s2.vertex_set) > 10:
        raise ValueError("pattern union must have at most 10 vertices")
    for g in (s1, s2):
        if isolated(g):
            raise ValueError("patterns must have no isolated vertices")
        if max(g.vertices, default=0) >= n:
            raise ValueError("pattern labels must fit inside [n]")

    p = params.null_density
    norm = (p * (1 - p)) ** (-(s1.n_edges + s2.n_edges) / 2)
    labels = _label_grid(k, n)
    n_labelings = labels.shape[0]

    # per-edge kernel values indexed by same/diff block
    kern_a = (centered_moment(1, 0, True, params), centered_moment(1, 0, False, params))
    kern_b = (centered_moment(0, 1, True, params), centered_moment(0, 1, False, params))
    kern_ab = (centered_moment(1, 1, True, params), centered_moment(1, 1, False, params))
    cf_single = (first_moment_closed(True, params), first_moment_closed(False, params))
    cf_joint = (joint_moment_closed(True, params), joint_moment_closed(False, params))

    def factors(u: np.ndarray, v: np.ndarray, pair: tuple[float, float]) -> np.ndarray:
        same = labels[:, u] == labels[:, v]  # (n_labelings, n_placements)
        return np.where(same, pair[0], pair[1])

    s2_verts = list(s2.vertices)
    v2 = len(s2_verts)
    weight = 1.0
    for i in range(v2):
        weight /= n - i

    e1_list = list(s1.edges)
    total_a = 0.0
    total_b = 0.0
    placements = list(permutations(range(n), v2))
    chunk = max(16, (1 << 21) // max(n_labelings, 1))
    col = {v: i for i, v in enumerate(s2_verts)}
    for lo in range(0, len(placements), chunk):
        image = np.array(placements[lo: lo + chunk], dtype=np.int64)  # (m, v2)
        m = image.shape[0]
        # placed second-pattern edges, normalized
        pe_u = np.empty((m, s2.n_edges), dtype=np.int64)
        pe_v = np.empty((m, s2.n_edges), dtype=np.int64)
        for j, (x, y) in enumerate(s2.edges):
            a_img, b_img = image[:, col[x]], image[:, col[y]]
            pe_u[:, j] = np.minimum(a_img, b_img)
            pe_v[:, j] = np.maximum(a_img, b_img)

        prod_a = np.ones((n_labelings, m))
        prod_b = np.ones((n_labelings, m))
        shared_any = np.zeros((m, s2.n_edges), dtype=bool)
        for (x, y) in e1_list:
            hit = (pe_u == x) & (pe_v == y)  # (m, n_edges2)
            shared_here = hit.any(axis=1)[None, :]
            shared_any |= hit
            same = (labels[:, x] == labels[:, y])[:, None]
            f_shared = np.where(same, kern_ab[0], kern_ab[1])
            f_plain = np.where(same, kern_a[0], kern_a[1])
            prod_a *= np.where(shared_here, f_shared, f_plain)
            f_shared_cf = np.where(same, cf_joint[0], cf_joint[1])
            f_plain_cf = np.where(same, cf_single[0], cf_single[1])
            prod_b *= np.where(shared_here, f_shared_cf, f_plain_cf)
        for j in range(s2.n_edges):
            covered = shared_any[:, j][None, :]
            f = factors(pe_u[:, j], pe_v[:, j], kern_b)
            prod_a *= np.where(covered, 1.0, f)
            f_cf = factors(pe_u[:, j], pe_v[:, j], cf_single)
            prod_b *= np.where(covered, 1.0, f_cf)
        total_a += prod_a.mean(axis=0).sum()
        total_b += prod_b.mean(axis=0).sum()

    return PhiExpectationP(via_kernels=total_a * weight * norm,
                           via_closed_forms=total_b * weight * norm)


# ---------------------------------------------------------------------------
# Predicted statistic moments
# ---------------------------------------------------------------------------

def predicted_f_mean(params: ModelParams, aleph: int) -> float:
    """Planted mean of the tree statistic: s^(2·aleph) · #shapes."""
    return params.s ** (2 * aleph) * tree_count(aleph)
