"""Representation analyses: feature-magnitude ranking, seeded k-means, and
adjusted mutual information against ground truth.

AMI uses the permutation-model expected MI (hypergeometric) and arithmetic
mean normalization: ``(MI - E[MI]) / (mean(H(a), H(b)) - E[MI])``. Inputs are
canonicalized (clusters relabeled by first occurrence, arguments ordered) so
symmetry and label-permutation invariance hold bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Labeling:
    """Cluster or class assignment per sample; indices live in [0, k)."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        if self.assignments.size and not (0 <= self.assignments.min() and self.assignments.max() < self.k):
            raise ValueError("assignments must lie in [0, k)")


def feature_magnitudes(vectors: np.ndarray) -> np.ndarray:
    """Mean absolute value per feature index, sorted descending (rank-plot data)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("need a non-empty batch of feature vectors")
    return np.sort(np.abs(vectors).mean(axis=0))[::-1]


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[i] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def kmeans(points: np.ndarray, k: int, seed: int, with_history: bool = False):
    """Lloyd iterations from seeded k-means++ until the largest centroid shift
    drops under 1e-6 or 300 iterations pass. Deterministic given the seed.

    With ``with_history`` also returns the post-update inertia per iteration
    (non-increasing by construction).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    history = []
    for _ in range(300):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(assign == c):  # re-seed an empty cluster on the worst point
                worst = d2[np.arange(n), assign].argmax()
                assign[worst] = c
                d2[worst] = 0.0
        new_centroids = np.stack([points[assign == c].mean(axis=0) for c in range(k)])
        if with_history:
            history.append(float(((points - new_centroids[assign]) ** 2).sum()))
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < 1e-6:
            break
    labeling = Labeling(assign, k)
    return (labeling, history) if with_history else labeling


# ---------------------------------------------------------------------------
# adjusted mutual information
# ---------------------------------------------------------------------------


def _canonical(assignments: np.ndarray) -> np.ndarray:
    """Relabel clusters by first occurrence; invariant under any relabeling."""
    _, first, inverse = np.unique(assignments, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse]


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _expected_mi(a_counts: np.ndarray, b_counts: np.ndarray, n: int) -> float:
    from scipy.special import gammaln  # imported here: scipy.special costs about 0.3 s to import

    lg = lambda x: gammaln(x + 1.0)
    emi = 0.0
    for ai in a_counts:
        for bj in b_counts:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                log_pmf = (
                    lg(ai) + lg(bj) + lg(n - ai) + lg(n - bj)
                    - lg(n) - lg(nij) - lg(ai - nij) - lg(bj - nij) - lg(n - ai - bj + nij)
                )
                emi += (nij / n) * np.log(n * nij / (ai * bj)) * np.exp(log_pmf)
    return emi


def ami(a: Labeling, b: Labeling) -> float:
    """Chance-corrected agreement: 1.0 for identical partitions, ~0 for
    independent labelings, 0.0 by convention against a single-cluster side."""
    if a.assignments.shape != b.assignments.shape:
        raise ValueError("labelings must have equal length")
    n = a.assignments.size
    if n == 0:
        raise ValueError("labelings are empty")
    first = _canonical(a.assignments)
    second = _canonical(b.assignments)
    if (second.max(initial=0), second.tobytes()) < (first.max(initial=0), first.tobytes()):
        first, second = second, first
    ka, kb = int(first.max()) + 1, int(second.max()) + 1
    contingency = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(contingency, (first, second), 1)
    if np.all((contingency > 0).sum(axis=0) <= 1) and np.all((contingency > 0).sum(axis=1) <= 1):
        return 1.0  # identical partitions up to relabeling
    a_counts = contingency.sum(axis=1)
    b_counts = contingency.sum(axis=0)
    nz = contingency > 0
    nij = contingency[nz].astype(np.float64)
    outer = (a_counts[:, None] * b_counts[None, :])[nz]
    mi = float(((nij / n) * np.log(n * nij / outer)).sum())
    emi = _expected_mi(a_counts, b_counts, n)
    normalizer = 0.5 * (_entropy(a_counts, n) + _entropy(b_counts, n))
    denominator = normalizer - emi
    eps = np.finfo(np.float64).eps
    if denominator < 0:
        denominator = min(denominator, -eps)
    else:
        denominator = max(denominator, eps)
    return (mi - emi) / denominator
