"""Pairwise constraint generation and distance-threshold computation.

Constraints are generated from class labels: pairs inside a class must end
up closer than an upper threshold ``u``, pairs straddling classes farther
than a lower threshold ``l``.  Thresholds come from the 1st and 99th
percentiles of baseline distances.

A full Euclidean pool (and the gaussian pool mapped from it) or linear
kernel pool is packed row by row into the n x n product X^T X it reads and
returned as a view over it: it peaks at that one buffer, and holding the
pool keeps all n^2 doubles alive.  The pool of a Gram matrix goes to a
fresh array, since the caller's K must come back unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .linalg import KernelSpec, gaussian_in_place, gram, pair_distance_kernel

SIMILAR = "similar"
DISSIMILAR = "dissimilar"

# Pool construction: enumerate all pairs up to this n, then fall back to a
# seeded sample of SAMPLED_PAIRS pairs.
FULL_POOL_MAX_N = 2000
SAMPLED_PAIRS = 200_000

# Similar and dissimilar pairs drawn per class when no count is given
# (``train --per-class``, ``eval --per-class`` and the learners).
DEFAULT_PER_CLASS = 100


class ConstraintGenerationWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Constraint:
    i: int
    j: int
    kind: str

    def __post_init__(self):
        if self.i == self.j:
            raise InvalidArgumentError(f"constraint joins a point with itself: {self.i}")
        if self.kind not in (SIMILAR, DISSIMILAR):
            raise InvalidArgumentError(f"unknown constraint kind: {self.kind!r}")


@dataclass(frozen=True)
class Thresholds:
    u: float
    l: float

    def __post_init__(self):
        if not (0 < self.u <= self.l):
            raise InvalidArgumentError(
                f"thresholds must satisfy 0 < u <= l, got u={self.u}, l={self.l}"
            )


@dataclass
class ConstraintSet:
    """Constraints plus their distance thresholds.

    ``xi0`` optionally overrides the global thresholds with a per-constraint
    initial slack (used by the low-rank reduction, whose thresholds vary per
    pair).
    """

    constraints: list[Constraint]
    thresholds: Thresholds
    xi0: np.ndarray | None = field(default=None)

    def __len__(self) -> int:
        return len(self.constraints)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(I, J, similar)``: the constrained index pairs as two integer
        arrays and a boolean mask of the similar ones, in constraint order."""
        I = np.array([c.i for c in self.constraints], dtype=int)
        J = np.array([c.j for c in self.constraints], dtype=int)
        return I, J, np.array([c.kind == SIMILAR for c in self.constraints], dtype=bool)

    def initial_slacks(self) -> np.ndarray:
        if self.xi0 is not None:
            xi0 = np.asarray(self.xi0, dtype=float)
            if xi0.shape != (len(self.constraints),):
                raise InvalidArgumentError(
                    f"xi0 has length {xi0.shape}, expected {len(self.constraints)}"
                )
            return xi0.copy()
        return np.where(self.pairs()[2], float(self.thresholds.u), float(self.thresholds.l))

    def validate_indices(self, n: int) -> None:
        I, J, _ = self.pairs()
        bad = np.flatnonzero((I < 0) | (I >= n) | (J < 0) | (J >= n))
        if bad.size:
            raise InvalidArgumentError(f"constraint ({I[bad[0]]}, {J[bad[0]]}) out of range for n={n}")

    def on_support(self, n: int) -> tuple[np.ndarray, "ConstraintSet"]:
        """``(C, cs)``: the support C, the ascending indices of the points the
        constraints join (of n points), and the same constraints, in order,
        over positions in C."""
        self.validate_indices(n)
        if not self.constraints:
            raise InvalidArgumentError("constraint set is empty")
        I, J, _ = self.pairs()
        C = np.unique(np.concatenate([I, J]))
        at = zip(np.searchsorted(C, I).tolist(), np.searchsorted(C, J).tolist(), self.constraints)
        return C, ConstraintSet([Constraint(i, j, c.kind) for i, j, c in at], self.thresholds,
                                self.xi0)


def _draw_pair(rng, first_pool, second_pool, seen, retries: int = 10):
    """Draw (i, j) with i != j, retrying up to `retries` times to avoid an
    exact duplicate; the last draw is kept when duplicates are unavoidable."""
    for _ in range(retries + 1):
        i = int(first_pool[rng.integers(len(first_pool))])
        j = int(second_pool[rng.integers(len(second_pool))])
        while j == i:
            j = int(second_pool[rng.integers(len(second_pool))])
        if (i, j) not in seen:
            break
    seen.add((i, j))
    return i, j


def generate_from_labels(labels, per_class: int = DEFAULT_PER_CLASS, seed: int = 0) -> list[Constraint]:
    """Sample ``per_class`` similar and ``per_class`` dissimilar constraints
    for each class.

    Similar pairs are drawn uniformly (with replacement across draws) inside
    the class; dissimilar pairs take the first point inside and the second
    outside.  Classes with fewer than two members contribute no similarity
    pairs (a warning is emitted); single-class data yields no dissimilarity
    pairs at all.  Deterministic for a fixed seed.
    """
    labels = np.asarray(labels)
    if per_class < 1:
        raise InvalidArgumentError("per_class must be a positive integer")
    n = labels.shape[0]
    classes = sorted(set(labels.tolist()))
    rng = np.random.default_rng(seed)
    all_idx = np.arange(n)
    out: list[Constraint] = []
    if len(classes) < 2:
        warnings.warn(
            "single-class data: no dissimilarity constraints generated",
            ConstraintGenerationWarning,
        )
    for cls in classes:
        members = all_idx[labels == cls]
        others = all_idx[labels != cls]
        if len(members) >= 2:
            seen: set = set()
            for _ in range(per_class):
                i, j = _draw_pair(rng, members, members, seen)
                out.append(Constraint(i, j, SIMILAR))
        else:
            warnings.warn(
                f"class {cls!r} has fewer than 2 members; its similarity pairs are skipped",
                ConstraintGenerationWarning,
            )
        if len(others) >= 1:
            seen = set()
            for _ in range(per_class):
                i, j = _draw_pair(rng, members, others, seen)
                out.append(Constraint(i, j, DISSIMILAR))
    return out


def generate_pairs_random(labels, n_pairs: int, seed: int = 0) -> list[Constraint]:
    """Sample ``n_pairs`` uniformly random point pairs and constrain each by
    label agreement (same class -> similar, different -> dissimilar).

    This is the sampling used for the semi-supervised clustering protocol,
    where a small total budget of constraints is drawn without per-class
    stratification.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n < 2:
        raise InvalidArgumentError("need at least 2 points to sample pairs")
    rng = np.random.default_rng(seed)
    all_idx = np.arange(n)
    seen: set = set()
    out = []
    for _ in range(n_pairs):
        i, j = _draw_pair(rng, all_idx, all_idx, seen)
        kind = SIMILAR if labels[i] == labels[j] else DISSIMILAR
        out.append(Constraint(i, j, kind))
    return out


def compute_thresholds(distances) -> Thresholds:
    """Thresholds from a pool of baseline distances: u = 1st percentile,
    l = 99th percentile.

    A non-positive u is clamped to 1e-3 times the smallest positive distance;
    an all-zero pool is rejected as degenerate.  Both order statistics come
    from one linear-interpolation ``np.percentile`` call that partially sorts
    a writeable float64 pool in place (a read-only one is copied): the pools
    are built for this call, and a full one holds n(n-1)/2 values.
    """
    d = np.require(distances, dtype=float, requirements="W").ravel()
    if d.size == 0:
        raise InvalidArgumentError("empty distance pool")
    u, l = np.percentile(d, (1.0, 99.0), overwrite_input=True).tolist()
    if u <= 0:
        positive = d[d > 0]
        if positive.size == 0:
            raise InvalidArgumentError("all baseline distances are zero (degenerate data)")
        u = 1e-3 * float(positive.min())
    return Thresholds(u=u, l=max(l, u))


def _upper_triangle_sq_dists(g: np.ndarray, P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``clip(g_i + g_j - 2 P_ij, 0)`` for every pair i < j, in row-major
    order: the upper triangle of the squared-distance matrix of inner
    products P with self products g, written row by row into ``out`` (the
    first n(n-1)/2 values of it) without forming the matrix.

    ``out`` may be P's own C-ordered buffer: packed row i ends at
    (i+1)(n-1) - i(i+1)/2 <= (i+1)n, before any product row still to be read.
    """
    n = P.shape[0]
    out = out[:n * (n - 1) // 2]
    pos = 0
    for i in range(n - 1):
        row = out[pos:pos + n - 1 - i]
        np.multiply(P[i, i + 1:], 2.0, out=row)
        np.subtract(g[i] + g[i + 1:], row, out=row)
        pos += row.size
    return np.clip(out, 0.0, None, out=out)


def kernel_distance_pool(K: np.ndarray, seed: int = 0) -> np.ndarray:
    """Pool of pairwise baseline distances read off a Gram matrix.

    All n(n-1)/2 pairs when n <= FULL_POOL_MAX_N, otherwise a seeded uniform
    sample of SAMPLED_PAIRS pairs.  K is only read.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if n < 2:
        raise InvalidArgumentError("need at least 2 points for a distance pool")
    if n <= FULL_POOL_MAX_N:
        return _upper_triangle_sq_dists(np.diag(K), K, np.empty(n * (n - 1) // 2))
    return np.clip(pair_distance_kernel(K, *_sampled_pairs(n, seed)), 0.0, None)


def euclidean_distance_pool(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """Pool of squared Euclidean pairwise distances between columns of X.

    For a non-identity baseline metric W0, pass X pre-transformed by the
    square root of W0.  A full pool is packed into the product X^T X it is
    read from and returned as a view over that n x n buffer.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise InvalidArgumentError("need at least 2 points for a distance pool")
    if n <= FULL_POOL_MAX_N:
        P = X.T @ X
        return _upper_triangle_sq_dists(np.sum(X * X, axis=0), P, P.reshape(-1))
    i, j = _sampled_pairs(n, seed)
    diff = X[:, i] - X[:, j]
    return np.sum(diff * diff, axis=0)


def linear_kernel_distance_pool(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """Pool of linear-kernel distances between columns of X,
    ``kernel_distance_pool(gram(X, KernelSpec.linear()), seed)`` bit for bit.

    A full pool is packed into the product X^T X, the Gram that ``gram``
    returns: the product is exactly symmetric, so gram's symmetrize changes
    nothing, and the self products are its diagonal (which rounds otherwise
    than the Euclidean pool's column sums).  A sampled pool reads the Gram.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise InvalidArgumentError("need at least 2 points for a distance pool")
    if n > FULL_POOL_MAX_N:
        return kernel_distance_pool(gram(X, KernelSpec.linear()), seed)
    P = X.T @ X
    return _upper_triangle_sq_dists(P.diagonal().copy(), P, P.reshape(-1))


def gaussian_distance_pool(D: np.ndarray, sigma: float) -> np.ndarray:
    """Pool of gaussian-kernel distances 2 - 2 k(x_i, x_j) between columns of
    X, read off the points with no Gram: their Euclidean pool D
    (``euclidean_distance_pool(X, seed)``, in any order) mapped in place.

    For n <= FULL_POOL_MAX_N it is ``kernel_distance_pool(gram(X, spec))``
    bit for bit.  ``gram`` forms K[i, j] from the same product X^T X, by the
    same operations, as the Euclidean pool's (i, j) distance, then maps it
    with ``gaussian_in_place``; that product is exactly symmetric, so gram's
    symmetrize changes nothing, and K's diagonal is exactly 1.  Mapping the
    Euclidean pool in place and taking clip((1 + 1) - 2 k, 0) gives the
    Gram's pool with only the product's buffer held.  A sampled pool (larger
    n) holds the pairs ``kernel_distance_pool`` draws for this seed, each
    distance summed off the points, so it agrees with the Gram's to round-off.
    """
    D = gaussian_in_place(D, sigma)
    D *= 2.0
    np.subtract(2.0, D, out=D)
    return np.clip(D, 0.0, None, out=D)


def _sampled_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """SAMPLED_PAIRS seeded uniform draws of (i, j), those with i == j left out."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=SAMPLED_PAIRS)
    j = rng.integers(0, n, size=SAMPLED_PAIRS)
    keep = i != j
    return i[keep], j[keep]
