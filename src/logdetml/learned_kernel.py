"""Out-of-sample extension of a learned kernel.

A solved kernel problem gives K on the training points only.  Writing the
underlying metric as W = I + X M X^T with M = K0^+ (K - K0) K0^+, the
learned inner product of arbitrary points z1, z2 needs nothing but input
kernel evaluations:

    <z1, z2>_W = kappa(z1, z2) + k1^T M k2,
    k_i = [kappa(z_i, x_1), ..., kappa(z_i, x_n)]^T

so distances extend to unseen data.  Every model is one form: its training
points X, a core C and an optional factor B, with M = C, or M = B C B^T
(n x k, k x k) for a low-rank model.  A query point's coordinates are its
kernel vector p = k, or p = B^T k with a factor, and
<z1, z2>_W = kappa(z1, z2) + p1^T C p2.  With a factor that costs O(nk) per
query point (its kernel vector projected once, then C applied in O(k^2))
and O(k) per pair, where applying M to the kernel vectors costs O(nk) per
point and O(n) per pair; the n x n matrix M is never built.  Every query --
a batch, one pair, a training-index pair -- goes through the same terms
(``kernel_terms``), so each model has one formula.  A training index names
a stored point and is served as that point.  A precomputed kernel is no
exception: its points are the indices of its table (``linalg.index_points``).

K0^+ is a pseudo-inverse (see ``compute_M``): Gaussian Grams are often
singular in floating point, and an inverse would amplify their round-off.
A batch query evaluates each point set once -- coordinates, the core
applied to them, self products -- and shares them when both sides are the
same set.

Memory: a model serves every query from kernel evaluations against its
points and holds no n x n Gram (a precomputed kernel's table is the kernel
itself, held by its spec).  A query against a second, different point set
processes that set in blocks of COLUMN_BLOCK columns, so serving against
the n training points never forms their n x n kernel vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .linalg import KernelSpec, cross_gram, kernel_diagonal, sq_dists_from_products, symmetrize

# Columns of the second point set a query evaluates at once.  Whether a
# block's BLAS products carry the bits of the whole-matrix products is up to
# BLAS: OpenBLAS keeps them for the benchmark's shapes, and may move the last
# bits for others, as it does between thread counts.
COLUMN_BLOCK = 256


def compute_M(K0: np.ndarray, K: np.ndarray):
    """Mixing matrix M = K0^+ (K - K0) K0^+; returns ``(M, dropped_rank)``.

    K0^+ is the spectral pseudo-inverse on K0's numerical range: with
    K0 = V diag(w) V^T, the directions with w <= n * eps * max(w) are
    dropped and the rest inverted, so M = P (V_r^T (K - K0) V_r) P^T with
    P = V_r / w_r.  ``dropped_rank`` is the number of directions dropped
    (0 when K0 is numerically positive definite).
    """
    K0 = np.asarray(K0, dtype=float)
    K = np.asarray(K, dtype=float)
    if K0.shape != K.shape:
        raise InvalidArgumentError(f"shape mismatch: {K0.shape} vs {K.shape}")
    n = K0.shape[0]
    w, V = np.linalg.eigh(K0)
    # eigenvalues ascend, so the dropped directions lead V
    dropped = int(np.count_nonzero(w <= n * np.finfo(float).eps * w[-1]))
    Vr = V[:, dropped:]
    C = Vr.T @ (K - K0) @ Vr
    P = np.divide(Vr, w[dropped:], out=Vr)
    M = P @ C @ P.T
    # release V and C before symmetrize allocates: this is the peak of a
    # kernel train run, and it stays within what inverting K0 used to take
    del V, Vr, P, C
    return symmetrize(M), dropped


@dataclass
class LearnedKernelModel:
    """Learned kernel function over the training points X (columns):
    M = core, or M = factor @ core @ factor.T when a factor is set."""

    kernel_spec: KernelSpec
    X: np.ndarray
    core: np.ndarray
    factor: np.ndarray | None = None


def from_kernel_fit(km, X: np.ndarray, spec: KernelSpec) -> LearnedKernelModel:
    """Finalize a solver result into a queryable model (materializes M)."""
    return LearnedKernelModel(spec, np.asarray(X, dtype=float), compute_M(km.K0, km.K)[0])


def _pair_columns(z1, z2) -> np.ndarray:
    """Query points z1 and z2 as the two columns of one array."""
    z1, z2 = (np.asarray(z, dtype=float).ravel() for z in (z1, z2))
    if z1.shape != z2.shape:
        raise InvalidArgumentError(f"point dimension mismatch: {z1.shape[0]} vs {z2.shape[0]}")
    return np.stack([z1, z2], axis=1)


def learned_inner_product(model: LearnedKernelModel, z1, z2) -> float:
    """Learned inner product <z1, z2>_W via input-kernel evaluations only."""
    return float(learned_gram(model, _pair_columns(z1, z2))[0, 1])


def learned_distance(model: LearnedKernelModel, z1, z2) -> float:
    """Learned squared distance, expanded from three learned inner products;
    round-off negatives within tolerance are clamped to zero."""
    G = learned_gram(model, _pair_columns(z1, z2))
    # average the two cross terms so the distance is exactly symmetric in
    # its arguments despite floating-point non-commutativity
    val = float(G[0, 0] + G[1, 1] - (G[0, 1] + G[1, 0]))
    tol = 1e-8 * max(1.0, abs(G[0, 0]) + abs(G[1, 1]))
    if -tol <= val < 0.0:
        return 0.0
    return val


def learned_gram(model: LearnedKernelModel, Z1: np.ndarray, Z2: np.ndarray | None = None) -> np.ndarray:
    """Matrix of learned inner products between two point sets (columns)."""
    Z1 = np.asarray(Z1, dtype=float)
    Z2 = Z1 if Z2 is None else np.asarray(Z2, dtype=float)
    P1, CP1 = kernel_terms(model, Z1)
    CP2 = CP1 if Z2 is Z1 else kernel_terms(model, Z2)[1]
    return cross_gram(Z1, Z2, model.kernel_spec) + P1.T @ CP2


def learned_sq_distances(model: LearnedKernelModel, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Pairwise learned squared distances between columns of Z1 and Z2:
    ``clip(g1 + g2 - 2 G12, 0)`` with G12 the learned Gram between the sets
    and g1, g2 their learned self products.  Each set is evaluated once;
    pass the same object twice for the distances within one set.  A
    different Z2 is evaluated COLUMN_BLOCK columns at a time, each block's
    kernel terms dropped once its columns of G12 and g2 are written."""
    P1, CP1 = kernel_terms(model, Z1)
    if Z2 is Z1:
        G12 = cross_gram(Z1, Z1, model.kernel_spec) + P1.T @ CP1
        g1 = g2 = _self_products(model, Z1, P1, CP1)
    else:
        Z2 = np.asarray(Z2, dtype=float)
        G12 = np.empty((P1.shape[1], Z2.shape[1]))
        g2 = np.empty(Z2.shape[1])
        for cols in _column_blocks(Z2.shape[1]):
            P2, CP2 = kernel_terms(model, Z2[:, cols])
            G12[:, cols] = cross_gram(Z1, Z2[:, cols], model.kernel_spec) + P1.T @ CP2
            g2[cols] = _self_products(model, Z2[:, cols], P2, CP2)
            del P2, CP2  # before the next block's are built
        g1 = _self_products(model, Z1, P1, CP1)
    return sq_dists_from_products(g1, g2, G12)


def _column_blocks(n: int):
    """Slices of ``range(n)`` starting at multiples of COLUMN_BLOCK; the last
    absorbs the remainder, so only a lone block is narrower."""
    starts = list(range(0, n - COLUMN_BLOCK + 1, COLUMN_BLOCK)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def kernel_terms(model: LearnedKernelModel, Z) -> tuple[np.ndarray, np.ndarray]:
    """``(P, C P)``: the coordinates of the columns of Z -- their kernel
    vectors k against the training points, or factor^T k -- and the core C
    applied to them."""
    P = cross_gram(model.X, Z, model.kernel_spec)
    if model.factor is not None:
        P = model.factor.T @ P
    return P, model.core @ P


def _self_products(model: LearnedKernelModel, Z, P: np.ndarray, CP: np.ndarray) -> np.ndarray:
    """Learned self products ``<z, z>_W`` of the columns of Z from their
    kernel terms; CP is spent (overwritten with P * CP) to spare a
    temporary of its size."""
    return kernel_diagonal(Z, model.kernel_spec) + np.sum(np.multiply(P, CP, out=CP), axis=0)


def training_pair_distance(model: LearnedKernelModel, a, b):
    """Learned squared distance between training points by index: a float
    for two indices, an array, pair by pair, for two index arrays (as
    ``linalg.pair_distance_kernel``); a point's distance to itself is 0.

    A training index names a stored point and is served as that point, by
    the terms ``learned_sq_distances`` uses: the pairs' distinct points are
    evaluated once, COLUMN_BLOCK at a time, and each pair's input-kernel value
    is the diagonal of ``cross_gram`` over a block of pairs.
    """
    n = model.X.shape[1]
    i, j = (np.ravel(v) for v in np.broadcast_arrays(a, b))
    if np.any((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)):
        raise InvalidArgumentError(f"training index out of range for n={n}")
    u, at = np.unique(np.concatenate([i, j]), return_inverse=True)
    ui, uj = np.split(at.ravel(), 2)
    P, CP = np.empty((2, u.size, model.core.shape[0]))  # a row per point
    g = np.empty(u.size)
    for cols in _column_blocks(u.size):
        Z = model.X[:, u[cols]]
        Pb, CPb = kernel_terms(model, Z)
        P[cols], CP[cols] = Pb.T, CPb.T
        g[cols] = _self_products(model, Z, Pb, CPb)
    G = np.empty(i.size)
    for p in _column_blocks(i.size):
        K = np.diagonal(cross_gram(model.X[:, i[p]], model.X[:, j[p]], model.kernel_spec))
        G[p] = K + np.sum(P[ui[p]] * CP[uj[p]], axis=1)
    d = np.clip(g[ui] + g[uj] - 2.0 * G, 0.0, None)
    d[i == j] = 0.0
    return float(d[0]) if np.ndim(a) == 0 and np.ndim(b) == 0 else d
