"""Whole-matrix reference for ``index.kmeans``.

Used as an oracle: all ``KMEANS_ITERS`` Lloyd rounds, seeding by a per-row
reduction over ``x - c``, and each round's assignment from one (n, k)
distance matrix. Its centroids and labels are the ones ``index.kmeans`` must
return, byte for byte.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from peaknetfp.errors import ConfigError
from peaknetfp.index import KMEANS_ITERS


def kmeans(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``KMEANS_ITERS`` rounds of Lloyd's algorithm with distance-weighted
    seeding, in float64.

    Returns (centroids (k_eff, d), labels (n,)). ``k_eff`` can fall below
    ``k`` when the data has fewer distinct points. Empty clusters are reseeded
    to the point currently farthest from its centroid (lowest index on ties),
    so the outcome is a pure function of (points, k, seed).
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n == 0 or k < 1:
        raise ConfigError("kmeans needs at least one point and k >= 1")
    k = min(k, n)
    rng = np.random.default_rng(seed)

    # seeding: first uniform, then proportional to squared distance
    centroids = [x[int(rng.integers(n))]]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    while len(centroids) < k:
        total = d2.sum()
        if total <= 0.0:
            break  # fewer distinct points than k
        c = x[int(rng.choice(n, p=d2 / total))]
        centroids.append(c)
        d2 = np.minimum(d2, ((x - c) ** 2).sum(axis=1))
    c = np.stack(centroids)

    x_sq = (x * x).sum(axis=1)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        dist = _center_distances(x, x_sq, c)
        labels = np.argmin(dist, axis=1)
        best = dist[np.arange(n), labels]
        counts = np.bincount(labels, minlength=c.shape[0])
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(best))
            c[empty] = x[far]
            labels[far] = empty
            best[far] = 0.0
            counts[empty] = 1
        # row j of the 0/1 matrix sums cluster j's rows in row order from zero,
        # which is np.add.at's arithmetic bit for bit
        members = sparse.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(c.shape[0], n))
        c = (members @ x) / np.bincount(labels, minlength=c.shape[0])[:, None]
    labels = np.argmin(_center_distances(x, x_sq, c), axis=1)
    return c, labels


def _center_distances(x: np.ndarray, x_sq: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``x_sq[:, None] - 2 x c^T + |c|^2`` bit for bit, in one (n, k) buffer."""
    dist = x @ c.T
    dist *= -2.0
    dist += x_sq[:, None]
    dist += (c * c).sum(axis=1)
    return dist
