"""Dense symmetric-matrix primitives shared by all solvers.

Conventions used throughout the package:

* a data matrix ``X`` has shape ``(d, n)`` -- columns are points;
* symmetric matrices are plain float64 ndarrays kept exactly symmetric
  (``symmetrize`` guarantees entrywise equality of ``A[i, j]`` and ``A[j, i]``);
* all matrix functions (square root, inverse square root) go through a
  single spectral primitive, the symmetric eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError

# A matrix counts as PSD when min eigenvalue >= -PSD_RTOL * max(1, trace/dim);
# rank-one projection updates accumulate round-off of roughly this size.
PSD_RTOL = 1e-8

# Diagonal jitter, relative to trace/dim, added to a Gram matrix only when its
# plain Cholesky factorization fails.
DEFAULT_JITTER = 1e-10

# In-place passes over an n x n matrix (distances, symmetrize) work on row
# blocks of about this many entries, so their temporaries stay small.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """Input kernel description: ``linear``, ``gaussian`` (with width sigma),
    or ``precomputed``: a kernel known only by its table of values, whose
    points are the indices of the table's rows (``index_points``).  The table
    is not part of ``==``: specs of one kind and width compare equal."""

    kind: str
    sigma: float | None = None
    table: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian", "precomputed"):
            raise InvalidArgumentError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma is None or not self.sigma > 0:
                raise InvalidArgumentError("gaussian kernel requires sigma > 0")
        elif self.sigma is not None:
            raise InvalidArgumentError(f"sigma only applies to the gaussian kernel")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        return cls("gaussian", float(sigma))

    @classmethod
    def precomputed(cls, table) -> "KernelSpec":
        return cls("precomputed", table=np.asarray(table, dtype=float))


def index_points(n: int) -> np.ndarray:
    """The points of a precomputed kernel over n values: the 1 x n row of
    indices 0 .. n-1."""
    return np.arange(n, dtype=float)[None, :]


def _table_rows(Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The rows of a precomputed kernel's table that the points Z name; a
    query that is not a row of in-range integer indices is refused."""
    Z = np.asarray(Z, dtype=float)
    n = len(spec.table)
    if Z.ndim != 2 or Z.shape[0] != 1 or not np.all((Z == np.trunc(Z)) & (Z >= 0) & (Z < n)):
        raise InvalidArgumentError("precomputed-kernel models cannot score new points")
    return Z[0].astype(np.intp)


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return 0.5*(A + A.T); the result is exactly symmetric entrywise."""
    return 0.5 * (A + A.T)


def _check_square(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"{name} must be square, got shape {A.shape}")
    return A


def psd_tolerance(A: np.ndarray) -> float:
    """Eigenvalue slack below zero tolerated before declaring A not PSD."""
    n = A.shape[0]
    return PSD_RTOL * max(1.0, float(np.trace(A)) / n)


def min_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = _check_square(A)
    return float(np.linalg.eigvalsh(A)[0])


def is_psd(A: np.ndarray) -> bool:
    return min_eigenvalue(A) >= -psd_tolerance(A)


def logdet_divergence(A: np.ndarray, B: np.ndarray) -> float:
    """LogDet divergence tr(A B^-1) - log det(A B^-1) - d.

    Defined for positive definite A, B; returns ``inf`` when A is singular
    PSD (the log-det limit). Scale invariant: the value is unchanged when
    both arguments are multiplied by the same positive factor.
    """
    A = _check_square(A, "A")
    B = _check_square(B, "B")
    if A.shape != B.shape:
        raise InvalidArgumentError(f"dimension mismatch: {A.shape} vs {B.shape}")
    d = A.shape[0]
    wb, Vb = np.linalg.eigh(B)
    if wb[0] <= psd_tolerance(B):
        raise InvalidArgumentError("B must be positive definite")
    wa = np.linalg.eigvalsh(A)
    tol_a = psd_tolerance(A)
    if wa[0] < -tol_a:
        raise InvalidArgumentError("A must be positive semidefinite")
    if wa[0] <= tol_a:
        return math.inf
    Binv = (Vb / wb) @ Vb.T
    trace_term = float(np.sum(A * Binv))
    logdet_term = float(np.sum(np.log(wa)) - np.sum(np.log(wb)))
    return trace_term - logdet_term - d


def _row_blocks(n_rows: int, n_cols: int):
    """Slices covering ``range(n_rows)`` in blocks of about BLOCK_ELEMENTS
    entries of an (n_rows, n_cols) matrix."""
    step = max(1, BLOCK_ELEMENTS // max(n_cols, 1))
    for r0 in range(0, n_rows, step):
        yield slice(r0, min(r0 + step, n_rows))


def sq_dists_from_products(aa: np.ndarray, bb: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Overwrite the inner products G (na, nb) with the squared distances
    ``clip(aa_i + bb_j - 2 G_ij, 0)`` and return G.

    Works one row block at a time, so the only temporary is a block; the
    IEEE operations per entry are those of the whole-matrix expression.
    """
    for rows in _row_blocks(*G.shape):
        blk = G[rows]
        blk *= 2.0
        np.subtract(aa[rows, None] + bb, blk, out=blk)
        np.clip(blk, 0.0, None, out=blk)
    return G


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between columns of A (d, na) and B (d, nb):
    ``clip(aa + bb - 2 A^T B, 0)``, written over the (na, nb) product A^T B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return sq_dists_from_products(np.sum(A * A, axis=0), np.sum(B * B, axis=0), A.T @ B)


def gaussian_in_place(D: np.ndarray, sigma: float) -> np.ndarray:
    """Overwrite squared distances D with exp(-D / (2 sigma^2)); returns D."""
    np.negative(D, out=D)
    np.divide(D, 2.0 * sigma**2, out=D)
    return np.exp(D, out=D)


def symmetrize_in_place(A: np.ndarray) -> np.ndarray:
    """Overwrite a square A with ``symmetrize(A)`` and return it, one row
    block at a time: each block of 0.5 (A + A^T) is written to both of its
    mirror positions (a + b == b + a exactly), so the result is bit-identical
    to ``symmetrize(A)`` with only a block as temporary."""
    for rows in _row_blocks(*A.shape):
        r0 = rows.start
        S = A[rows, r0:] + A[r0:, rows].T
        S *= 0.5
        A[rows, r0:] = S
        A[r0:, rows] = S.T
    return A


def gram(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the columns of X under the given kernel.

    linear   -> X.T @ X
    gaussian -> exp(-||x_i - x_j||^2 / (2 sigma^2)), unit diagonal

    precomputed -> the table's rows and columns the index points X name;
                   the table itself, not a copy, when X is all of its index
                   points in order (``index_points``): a Gram is only read

    Linear and gaussian are built in the one n x n buffer of the product
    X^T X, in place and a row block at a time: the IEEE operations and their
    order are those of ``symmetrize(X.T @ X)`` and of
    ``symmetrize(exp(-clip(aa + bb - 2 X^T X, 0) / (2 sigma^2)))`` with a
    unit diagonal, so the result is bit-identical to them.
    """
    if spec.kind == "precomputed":
        if np.array_equal(X, index_points(len(spec.table))):
            return spec.table
        return cross_gram(X, X, spec)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise InvalidArgumentError("X must be a (d, n) matrix with n >= 1")
    if spec.kind == "linear":
        return symmetrize_in_place(X.T @ X)
    K = gaussian_in_place(pairwise_sq_dists(X, X), spec.sigma)
    np.fill_diagonal(K, 1.0)
    return symmetrize_in_place(K)


def cross_gram(X: np.ndarray, Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel values kappa(x_i, z_j) between columns of X and columns of Z."""
    if spec.kind == "precomputed":
        return spec.table[np.ix_(_table_rows(X, spec), _table_rows(Z, spec))]
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.shape[0] != Z.shape[0]:
        raise InvalidArgumentError(
            f"point dimension mismatch: {X.shape[0]} vs {Z.shape[0]}"
        )
    if spec.kind == "linear":
        return X.T @ Z
    return gaussian_in_place(pairwise_sq_dists(X, Z), spec.sigma)


def kernel_diagonal(Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel values kappa(z, z) of the columns of Z."""
    if spec.kind == "precomputed":
        rows = _table_rows(Z, spec)
        return spec.table[rows, rows]
    Z = np.asarray(Z, dtype=float)
    if spec.kind == "gaussian":
        return np.ones(Z.shape[1])
    return np.sum(Z * Z, axis=0)


def pair_distance_kernel(K: np.ndarray, i, j):
    """Squared distance K[i,i] + K[j,j] - 2 K[i,j] between points i and j
    read off a kernel matrix: a float for two indices, an array, element by
    element, for two index arrays."""
    K = _check_square(K, "K")
    if np.any((np.minimum(i, j) < 0) | (np.maximum(i, j) >= len(K))):
        raise InvalidArgumentError(f"index out of range for n={len(K)}: ({i}, {j})")
    d = K[i, i] + K[j, j] - 2.0 * K[i, j]
    return float(d) if np.ndim(d) == 0 else d


def inv_sqrt(A: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Inverse square root of a symmetric PD matrix, eigenvalue-wise.

    ``jitter * trace(A)/dim`` is added to the diagonal first; if the result
    is still not positive definite a NumericalError is raised.
    """
    A = _check_square(A)
    n = A.shape[0]
    if jitter < 0:
        raise InvalidArgumentError("jitter must be nonnegative")
    if jitter > 0:
        A = A + (jitter * float(np.trace(A)) / n) * np.eye(n)
    w, V = np.linalg.eigh(A)
    if w[0] <= n * np.finfo(float).eps * max(abs(w[0]), abs(w[-1])):
        raise NumericalError("matrix is singular; inverse square root failed")
    return symmetrize((V / np.sqrt(w)) @ V.T)


def sqrt_psd(A: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix; tiny negative eigenvalues from
    round-off are clamped to zero."""
    A = _check_square(A)
    w, V = np.linalg.eigh(A)
    if w[0] < -psd_tolerance(A):
        raise InvalidArgumentError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return symmetrize((V * np.sqrt(w)) @ V.T)


def inv_psd(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of a symmetric PD matrix with the package jitter policy.

    Tries a plain Cholesky factorization first.  On failure, retries once
    with ``DEFAULT_JITTER * trace(A)/dim`` added to the diagonal.  Returns
    ``(A_inv, jitter_used)`` where jitter_used is the absolute diagonal
    shift that was applied (0.0 when none was).
    """
    A = _check_square(A)
    n = A.shape[0]
    try:
        np.linalg.cholesky(A)
        return symmetrize(np.linalg.inv(A)), 0.0
    except np.linalg.LinAlgError:
        pass
    shift = DEFAULT_JITTER * float(np.trace(A)) / n
    Aj = A + shift * np.eye(n)
    try:
        np.linalg.cholesky(Aj)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matrix is singular even after jitter") from exc
    return symmetrize(np.linalg.inv(Aj)), shift
