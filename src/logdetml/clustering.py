"""Seeded k-means (plain and kernelized) plus cluster/label matching.

Both variants use farthest-point initialization: the first center is a
random point, each further center the point with the largest distance to
the centers chosen so far.  Empty clusters are reseeded at the point
farthest from its assigned center.  Lloyd iterations stop on an unchanged
assignment or after ``max_iters`` passes.

The kernel k-means step is done in matrix form (Dhillon, Guan & Kulis,
KDD 2004): with Z the n x k indicator matrix scaled to Z[i, c] = 1/|c| for
the members i of cluster c, ``KZ = K @ Z`` holds every point's mean kernel
value against every cluster, ``diag(Z^T K Z)`` the clusters' mean
within-cluster kernel values, and the squared feature-space distances to
all k means are ``diag(K)[:, None] - 2 KZ + diag(Z^T K Z)``: one BLAS
product per Lloyd pass instead of one pass over K per cluster.

``scipy.optimize`` (for the Hungarian matching in ``matching_error``) is
imported inside that function: it is this package's only scipy.optimize
use, and importing it at module level costs every CLI process about 0.7 s.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .linalg import pairwise_sq_dists


def _farthest_point_init(D_to_point, n: int, k: int, rng) -> list[int]:
    """Greedy seeding from pairwise distances; D_to_point(i) gives squared
    distances of all points to point i."""
    first = int(rng.integers(n))
    chosen = [first]
    min_d = D_to_point(first)
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        min_d = np.minimum(min_d, D_to_point(nxt))
    return chosen


def kmeans(X: np.ndarray, k: int, seed: int = 0, max_iters: int = 50):
    """Cluster the columns of X into k groups; returns (labels, centers)."""
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    idx = _farthest_point_init(lambda i: pairwise_sq_dists(X, X[:, [i]]).ravel(), n, k, rng)
    centers = X[:, idx].copy()
    labels = np.full(n, -1)
    for _ in range(max_iters):
        D = pairwise_sq_dists(X, centers)
        new_labels = np.argmin(D, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # reseed the empty cluster at the point farthest from its center
                far = int(np.argmax(np.min(D, axis=1)))
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[:, c] = X[:, labels == c].mean(axis=1)
    return labels, centers


def kernel_kmeans(K: np.ndarray, k: int, seed: int = 0, max_iters: int = 50):
    """k-means in the feature space of a Gram matrix K; returns labels.

    Distances to a cluster mean use the kernel expansion
    K[i,i] - 2 mean_j K[i,j] + mean_{j,l} K[j,l] over cluster members.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    diag = np.diag(K).copy()

    def dist_to_point(i):
        return np.clip(diag + diag[i] - 2.0 * K[:, i], 0.0, None)

    seeds = _farthest_point_init(dist_to_point, n, k, rng)
    labels = np.full(n, -1)
    # initial assignment: nearest seed point in kernel distance
    D0 = np.stack([dist_to_point(s) for s in seeds], axis=1)
    labels = np.argmin(D0, axis=1)
    for c in range(k):
        if not np.any(labels == c):
            labels[seeds[c]] = c
    rows = np.arange(n)
    for _ in range(max_iters):
        counts = np.bincount(labels, minlength=k)
        Z = np.zeros((n, k))
        Z[rows, labels] = 1.0 / counts[labels]
        KZ = K @ Z
        mean_all = np.einsum("ic,ic->c", Z, KZ)
        D = diag[:, None] - 2.0 * KZ + mean_all
        # an empty cluster (possible with duplicate points) has no mean; the
        # reseed below refills it
        D[:, counts == 0] = np.inf
        new_labels = np.argmin(D, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(np.min(D, axis=1)))
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def matching_error(pred, truth) -> float:
    """Clustering error 1 - accuracy under the best cluster-to-class matching
    (Hungarian assignment on the confusion matrix); permutation invariant."""
    # deferred: a module-level scipy.optimize import slows every CLI start
    from scipy.optimize import linear_sum_assignment

    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise InvalidArgumentError("prediction/truth size mismatch or empty")
    pred_ids = {v: t for t, v in enumerate(sorted(set(pred.tolist())))}
    true_ids = {v: t for t, v in enumerate(sorted(set(truth.tolist())))}
    C = np.zeros((len(pred_ids), len(true_ids)))
    for p, t in zip(pred, truth):
        C[pred_ids[p], true_ids[t]] += 1
    rows, cols = linear_sum_assignment(-C)
    return 1.0 - float(C[rows, cols].sum()) / pred.size
