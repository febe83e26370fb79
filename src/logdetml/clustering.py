"""Seeded k-means (plain and kernelized) plus cluster/label matching.

Both variants use farthest-point initialization: the first center is a
random point, each further center the point with the largest distance to
the centers chosen so far.  A Lloyd pass that leaves clusters empty gives
each of them, in index order, the point farthest from its assigned center
among the points whose cluster keeps another member (``_reseed_empty``), so
no cluster is left empty.  Lloyd iterations stop on an unchanged assignment
or after MAX_ITERS passes.

The kernel k-means step keeps running cluster sums (Dhillon, Guan & Kulis,
KDD 2004): with B the k x n 0/1 indicator of the assignment, ``S = B K``
holds in S[c, i] the sum of K[i, j] over the members j of cluster c (K is
symmetric).  A point's mean kernel value against cluster c is then
S[c, i] / |c|, a cluster's mean within-cluster kernel value the sum of its
members' own such values over |c|, and the squared feature-space distances
to all k means are ``diag(K)[:, None] - 2 S^T / |c| + mean_within``.  S is
formed by one BLAS product after the initial assignment.  A Lloyd pass then
adds the row of K of each point that moved to its new cluster's sums and
subtracts it from its old cluster's, by small products over chunks of about
``linalg.BLOCK_ELEMENTS`` gathered entries, so a late pass, in which few
points move, costs far less than one n x n x k product, and an early one,
in which many move, never gathers their rows of K whole.  The n x k
distance matrix is formed in the buffer of the mean kernel values.

``scipy.optimize`` (for the Hungarian matching in ``matching_error``) is
imported inside that function: it is this package's only scipy.optimize
use, and importing it at module level costs every CLI process about 0.7 s.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .linalg import BLOCK_ELEMENTS, pairwise_sq_dists

MAX_ITERS = 50  # Lloyd passes of either k-means


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


def cluster_indicator(labels: np.ndarray, k: int) -> np.ndarray:
    """The n x k scaled indicator Z with Z[i, c] = 1/|c| for the members i
    of cluster c; the column of an empty cluster is zero."""
    counts = np.bincount(labels, minlength=k)
    Z = np.zeros((len(labels), k))
    Z[np.arange(len(labels)), labels] = 1.0 / counts[labels]
    return Z


def _reseed_empty(labels: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Refill the empty clusters of ``labels = argmin(D, axis=1)`` in place:
    each, in index order, takes the point farthest from its center whose own
    cluster keeps another member."""
    counts = np.bincount(labels, minlength=D.shape[1])
    dist = np.min(D, axis=1)
    for c in np.flatnonzero(counts == 0):
        far = int(np.argmax(np.where(counts[labels] > 1, dist, -np.inf)))
        counts[labels[far]] -= 1
        counts[c] = 1
        labels[far] = c
    return labels


def kmeans(X: np.ndarray, k: int, seed: int = 0):
    """Cluster the columns of X into k groups; returns (labels, centers)."""
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    idx = _farthest_point_init(lambda i: pairwise_sq_dists(X, X[:, [i]]).ravel(), n, k, rng)
    centers = X[:, idx].copy()
    labels = np.full(n, -1)
    for _ in range(MAX_ITERS):
        D = pairwise_sq_dists(X, centers)
        new_labels = _reseed_empty(np.argmin(D, axis=1), D)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[:, c] = X[:, labels == c].mean(axis=1)
    return labels, centers


def kernel_kmeans(K: np.ndarray, k: int, seed: int = 0):
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
    # initial assignment: nearest seed point in kernel distance
    D0 = np.stack([dist_to_point(s) for s in seeds], axis=1)
    labels = np.argmin(D0, axis=1)
    for c in range(k):
        if not np.any(labels == c):
            labels[seeds[c]] = c
    rows = np.arange(n)
    B = np.zeros((k, n))
    B[labels, rows] = 1.0
    S = B @ K  # S[c, i]: the sum of K[i, j] over the members j of cluster c
    chunk = max(1, BLOCK_ELEMENTS // n)  # rows of K gathered per update of S
    for _ in range(MAX_ITERS):
        counts = np.bincount(labels, minlength=k)
        empty = counts == 0
        inv = 1.0 / np.where(empty, 1, counts)
        D = S.T * inv  # KZ: a point's mean kernel value against each cluster
        mean_all = np.bincount(labels, weights=D[rows, labels], minlength=k) * inv
        D *= 2.0  # D = diag - 2 KZ + mean_all, in place
        np.subtract(diag[:, None], D, out=D)
        D += mean_all
        # a seed shared by two clusters (duplicate points) leaves one of them
        # empty before the first pass; it has no mean until the reseed refills it
        D[:, empty] = np.inf
        new_labels = _reseed_empty(np.argmin(D, axis=1), D)
        if np.array_equal(new_labels, labels):
            break
        moved = np.flatnonzero(new_labels != labels)
        step = np.zeros((moved.size, k))  # +1 in each moved point's new cluster, -1 in its old
        step[np.arange(moved.size), new_labels[moved]] = 1.0
        step[np.arange(moved.size), labels[moved]] = -1.0
        for r0 in range(0, moved.size, chunk):  # never the rows of all movers at once
            S += step[r0:r0 + chunk].T @ K[moved[r0:r0 + chunk]]
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
