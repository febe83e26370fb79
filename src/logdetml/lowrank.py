"""Identity-plus-low-rank metric/kernel learning.

Restricting the learned metric to W = I + U L U^T with U an orthonormal
d x k basis collapses the optimization to a k x k problem: with reduced
points x' = U^T x and F = I + L,

    divergence:  D_ld(W, I_d) = D_ld(F, I_k)
    distances:   d_W(x_i, x_j) = d_I(x_i, x_j) - d_I(x'_i, x'_j) + d_F(x'_i, x'_j)

so each constraint threshold is shifted by d_I(x'_i, x'_j) - d_I(x_i, x_j)
and the projection solver runs on the reduced points with per-pair
thresholds.  In kernel space the basis is given by coefficients J over the
training points, U = X J (J^T K0 J)^(-1/2), and everything is computed from
K0 alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .clustering import cluster_indicator, kernel_kmeans, kmeans
from .constraints import ConstraintSet
from .errors import InvalidArgumentError, NumericalError
from .learned_kernel import LearnedKernelModel
from .linalg import KernelSpec, inv_sqrt, pair_distance_kernel, symmetrize
from .solver import DualState, LinearModel, SolverConfig, fit_linear

EXPLICIT = "explicit-U"
COEFFICIENT = "coefficient-J"

FEATURE_METHODS = ("topk-svd", "class-means")
KERNEL_METHODS = ("random-J", "kernel-kmeans", "subset")


class BasisWarning(UserWarning):
    pass


@dataclass
class Basis:
    """Orthonormal basis for the low-rank part, either given explicitly
    (U, d x k, U^T U = I) or as coefficients over training points
    (J, n x k, with U = X J T and T = (J^T K0 J)^(-1/2)).  A coefficient
    basis carries T once ``fit_low_rank`` has reduced K0 with it, or when it
    is read from a model file; the reduction always forms T on its own K0."""

    mode: str
    matrix: np.ndarray  # U for explicit mode, J for coefficient mode
    k: int
    T: np.ndarray | None = None  # coefficient mode: (J^T K0 J)^(-1/2), k x k

    def __post_init__(self):
        if self.mode not in (EXPLICIT, COEFFICIENT):
            raise InvalidArgumentError(f"unknown basis mode: {self.mode!r}")
        if self.matrix.shape[1] != self.k:
            raise InvalidArgumentError("basis column count disagrees with k")


@dataclass
class LowRankModel:
    basis: Basis
    F: np.ndarray           # k x k learned factor (I + L)
    K0: np.ndarray | None   # kernel mode only
    inner: LinearModel      # reduced-problem solve (dual state, convergence)


def _orthonormalize(R: np.ndarray, name: str = "basis") -> np.ndarray:
    """U = R (R^T R)^(-1/2); rank-deficient R is reduced to its rank with a
    warning instead of failing."""
    R = np.asarray(R, dtype=float)
    G = symmetrize(R.T @ R)
    w, V = np.linalg.eigh(G)
    tol = G.shape[0] * np.finfo(float).eps * max(w[-1], 0.0)
    keep = w > max(tol, 0.0)
    if not np.any(keep):
        raise NumericalError(f"{name} has rank zero")
    if np.count_nonzero(keep) < R.shape[1]:
        warnings.warn(
            f"{name} is rank deficient; k reduced from {R.shape[1]} "
            f"to {int(np.count_nonzero(keep))}",
            BasisWarning,
        )
    return R @ (V[:, keep] / np.sqrt(w[keep]))


def select_basis_feature(X: np.ndarray, method: str, k: int, seed: int = 0,
                         labels=None) -> Basis:
    """Pick an explicit orthonormal basis from feature-space points.

    topk-svd       -- top k left singular vectors of X
    class-means    -- class means; more classes than k: cluster the means
                      into k groups; fewer: split classes into ~k/c clusters
    """
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    if method not in FEATURE_METHODS:
        raise InvalidArgumentError(f"unknown feature basis method: {method!r}")
    if not 1 <= k <= min(n, d):
        raise InvalidArgumentError(f"k must be in [1, min(n, d)={min(n, d)}], got {k}")
    if method == "topk-svd":
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        rank = int(np.sum(s > max(n, d) * np.finfo(float).eps * s[0]))
        if rank < k:
            warnings.warn(
                f"X has rank {rank} < k={k}; k reduced", BasisWarning
            )
            k = rank
        return Basis(EXPLICIT, U[:, :k], k)
    if labels is None:
        raise InvalidArgumentError("class-means basis requires labels")
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    c = len(classes)
    means = np.stack([X[:, labels == cls].mean(axis=1) for cls in classes], axis=1)
    if c == k:
        R = means
    elif c > k:
        _, R = kmeans(means, k, seed=seed)
    else:
        # split each class into roughly k/c clusters (first k % c classes get
        # one extra so the centers sum to k)
        base, extra = divmod(k, c)
        centers = []
        for t, cls in enumerate(classes):
            kc = base + (1 if t < extra else 0)
            members = X[:, labels == cls]
            kc = min(kc, members.shape[1])
            _, ctr = kmeans(members, kc, seed=seed + t)
            centers.append(ctr)
        R = np.concatenate(centers, axis=1)
    U = _orthonormalize(R, "class-mean basis")
    return Basis(EXPLICIT, U, U.shape[1])


def select_basis_kernel(K0: np.ndarray, method: str, k: int, seed: int = 0) -> Basis:
    """Pick a coefficient basis J (n x k) for kernel-space training.

    random-J       -- standard normal entries
    kernel-kmeans  -- indicator means of kernel k-means clusters
    subset         -- k distinct random training indices (indicator columns)

    If J^T K0 J is singular (``coefficient_T``), the draw is retried once.
    """
    K0 = np.asarray(K0, dtype=float)
    n = K0.shape[0]
    if method not in KERNEL_METHODS:
        raise InvalidArgumentError(f"unknown kernel basis method: {method!r}")
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    for attempt in range(2):
        if method == "random-J":
            J = rng.standard_normal((n, k))
        elif method == "subset":
            idx = rng.choice(n, size=k, replace=False)
            J = np.zeros((n, k))
            J[idx, np.arange(k)] = 1.0
        else:
            J = cluster_indicator(kernel_kmeans(K0, k, seed=seed + attempt), k)
        try:
            coefficient_T(J, J.T @ K0)
            return Basis(COEFFICIENT, J, k)
        except NumericalError:
            continue
    raise NumericalError("J^T K0 J is singular after jitter (two draws)")


def coefficient_T(J: np.ndarray, JK: np.ndarray) -> np.ndarray:
    """T = (J^T K0 J)^(-1/2) from JK = J^T K0; it makes U = X J T orthonormal.

    Raises NumericalError when J^T K0 J itself is singular (``inv_sqrt``'s
    test: an eigenvalue at most k eps times the largest), so the basis has
    fewer than k usable directions; T is then formed with a 1e-10 jitter.
    """
    A = symmetrize(JK @ J)
    inv_sqrt(A)
    return inv_sqrt(A, jitter=1e-10)


def reduce_problem(data: np.ndarray, basis: Basis, cs: ConstraintSet, *,
                   with_basis: bool = False):
    """Reduce to the k x k problem: returns (Xproj, ConstraintSet with
    per-pair thresholds), and with ``with_basis`` the basis too, carrying the
    T formed on ``data`` (a coefficient basis; an explicit one as given).

    ``data`` is X (d, n) for an explicit basis, K0 (n, n) for a coefficient
    basis.  Each threshold is shifted by the part of the baseline distance
    the basis cannot see: threshold - d_I(x_i, x_j) + d_I(x'_i, x'_j).
    """
    data = np.asarray(data, dtype=float)
    if basis.mode == EXPLICIT:
        Xp = basis.matrix.T @ data            # data is X (d, n)
    else:
        JK = basis.matrix.T @ data            # data is K0 (n, n)
        basis = replace(basis, T=coefficient_T(basis.matrix, JK))
        Xp = basis.T @ JK
    xi0 = cs.initial_slacks()
    adjusted = np.empty_like(xi0)
    for c, con in enumerate(cs.constraints):
        if basis.mode == EXPLICIT:
            g = data[:, con.i] - data[:, con.j]
            d_full = float(g @ g)
        else:
            d_full = pair_distance_kernel(data, con.i, con.j)
        gp = Xp[:, con.i] - Xp[:, con.j]
        d_proj = float(gp @ gp)
        adjusted[c] = xi0[c] - d_full + d_proj
    reduced = ConstraintSet(list(cs.constraints), cs.thresholds, xi0=adjusted)
    return (Xp, reduced, basis) if with_basis else (Xp, reduced)


def fit_low_rank(data: np.ndarray, basis: Basis, cs: ConstraintSet,
                 cfg: SolverConfig | None = None) -> LowRankModel:
    """Solve the reduced k x k problem; constraints whose adjusted threshold
    is non-positive are unreachable in this parameterization and skipped with
    a warning.

    When some constraints are dropped, ``inner.dual`` is indexed by the kept
    constraints only, in their original order, not by ``cs``.  When every
    constraint is dropped there is nothing to optimize and the prior is the
    minimizer: F = I_k, ``inner.converged`` is True, ``inner.sweeps_used``
    is 0 and ``inner.dual`` is empty.
    """
    cfg = cfg or SolverConfig()
    data = np.asarray(data, dtype=float)
    Xp, reduced, basis = reduce_problem(data, basis, cs, with_basis=True)  # serving reads its T
    keep = reduced.xi0 > 0
    if not np.all(keep):
        warnings.warn(
            f"{int(np.sum(~keep))} constraint(s) dropped: adjusted threshold "
            "is non-positive (pair direction outside the basis)",
            BasisWarning,
        )
        reduced = ConstraintSet(
            [c for c, k_ in zip(reduced.constraints, keep) if k_],
            reduced.thresholds,
            xi0=reduced.xi0[keep],
        )
    if len(reduced) == 0:
        # every constraint is unreachable in this basis; nothing to optimize
        inner = LinearModel(
            W=np.eye(basis.k),
            dual=DualState(np.zeros(0), np.zeros(0)),
            converged=True, sweeps_used=0,
        )
    else:
        inner = fit_linear(Xp, reduced, cfg)
    return LowRankModel(
        basis=basis,
        F=inner.W,
        K0=data if basis.mode == COEFFICIENT else None,
        inner=inner,
    )


def expand(basis: Basis, F: np.ndarray, K0: np.ndarray | None = None,
           X: np.ndarray | None = None, kernel_spec: KernelSpec | None = None):
    """The full form of a solved k x k factor F.

    Explicit basis: the d x d matrix W = I + U (F - I) U^T.
    Coefficient basis: a LearnedKernelModel whose mixing matrix is kept
    factored, M = J' (F - I) J'^T with J' = J T.  Queries are served in the
    k-dimensional factor space, the core F - I acting on the projected points
    x' = J'^T k(x) (``learned_kernel``), so no n x n matrix is ever
    materialized.  T is read from the model (the basis), so no Gram is built
    here; K0 is needed only when X is None (a precomputed kernel).
    """
    core = F - np.eye(F.shape[0])
    if basis.mode == EXPLICIT:
        U = basis.matrix
        return symmetrize(np.eye(U.shape[0]) + U @ core @ U.T)
    return LearnedKernelModel(
        kernel_spec=kernel_spec or KernelSpec.precomputed(),
        X=None if X is None else np.asarray(X, dtype=float),
        K0=K0,
        m_factor=basis.matrix @ basis.T,
        m_core=core,
    )


def reconstruct(model: LowRankModel, X: np.ndarray | None = None,
                kernel_spec: KernelSpec | None = None):
    """Expand the solved factor back to full form (see ``expand``).

    Explicit basis: returns the d x d LinearModel with W = I + U (F - I) U^T.
    Coefficient basis: returns the factored LearnedKernelModel.
    """
    if model.basis.mode == EXPLICIT:
        return replace(model.inner, W=expand(model.basis, model.F))
    return expand(model.basis, model.F, model.K0, X=X, kernel_spec=kernel_spec)
