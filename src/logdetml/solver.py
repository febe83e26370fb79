"""Cyclic Bregman projections for LogDet metric/kernel learning with slack.

The optimizer repeatedly projects onto one violated distance constraint at a
time.  Each projection has a closed form: with ``p`` the current squared
distance of the constrained pair, ``xi`` its slack-adjusted threshold and
``lam`` its dual variable,

    delta = +1 (similar) or -1 (dissimilar)
    alpha = min(lam, delta * gamma/(gamma+1) * (1/p - 1/xi))
    beta  = delta * alpha / (1 - delta * alpha * p)
    xi   <- gamma * xi / (gamma + delta * alpha * xi)
    lam  <- lam - alpha
    K    <- K + beta * K (e_i - e_j)(e_i - e_j)^T K

``gamma`` trades constraint satisfaction against staying close to the input
matrix; ``gamma = inf`` disables slack (the factor gamma/(gamma+1) becomes 1
and xi stays fixed), so projections land exactly on the constraint boundary.

The same update runs in input space on a d x d matrix W with the pair
difference vector ``x_i - x_j`` in place of ``e_i - e_j``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constraints import SIMILAR, ConstraintSet
from .errors import InvalidArgumentError, NumericalError
from .linalg import is_psd, min_eigenvalue, psd_tolerance, sqrt_psd, symmetrize

# Constraints whose current squared distance falls below
# P_MIN_RTOL * trace(K)/n are skipped: the pair has (numerically) collapsed
# and 1/p would blow up.
P_MIN_RTOL = 1e-12

DENOM_TOL = 1e-12


class SolverWarning(UserWarning):
    pass


@dataclass
class SolverConfig:
    """Knobs for a projection run.

    ``gamma`` may be ``math.inf`` for the no-slack (hard constraint) variant.
    ``max_sweeps=None`` derives the cap from the constraint count:
    ceil(1e5 / m), at least 50.
    """

    gamma: float = 1.0
    max_sweeps: int | None = None
    tol: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidArgumentError("gamma must be positive (or inf)")
        if not self.tol > 0:
            raise InvalidArgumentError("tol must be positive")
        if self.max_sweeps is not None and self.max_sweeps < 1:
            raise InvalidArgumentError("max_sweeps must be >= 1")

    def sweep_cap(self, n_constraints: int) -> int:
        if self.max_sweeps is not None:
            return self.max_sweeps
        return max(50, math.ceil(1e5 / max(1, n_constraints)))


@dataclass
class DualState:
    """Per-constraint dual variables lambda (>= 0) and slacks xi (> 0)."""

    lam: np.ndarray
    xi: np.ndarray


@dataclass
class KernelModel:
    K: np.ndarray
    K0: np.ndarray
    dual: DualState
    converged: bool
    sweeps_used: int
    skipped: int = 0


@dataclass
class LinearModel:
    W: np.ndarray
    W0: np.ndarray
    dual: DualState
    converged: bool
    sweeps_used: int
    skipped: int = 0


@dataclass
class ProjectionInfo:
    alpha: float
    clipped: bool   # alpha was capped at lam (dual feasibility)
    skipped: bool   # pair distance below the skip floor


def _projection_scalars(p: float, xi: float, lam: float, delta: float, gamma: float):
    """Closed-form projection parameters for one constraint."""
    factor = 1.0 if math.isinf(gamma) else gamma / (gamma + 1.0)
    raw = delta * factor * (1.0 / p - 1.0 / xi)
    clipped = lam < raw
    alpha = lam if clipped else raw
    denom = 1.0 - delta * alpha * p
    if abs(denom) < DENOM_TOL:
        raise NumericalError(
            f"projection denominator vanished (p={p}, xi={xi}, alpha={alpha})"
        )
    beta = delta * alpha / denom
    if math.isinf(gamma):
        xi_new = xi
    else:
        slack_denom = gamma + delta * alpha * xi
        if slack_denom <= 0:
            raise NumericalError(
                f"slack update denominator vanished (xi={xi}, alpha={alpha})"
            )
        xi_new = gamma * xi / slack_denom
    return alpha, beta, xi_new, lam - alpha, clipped


def _add_outer(A: np.ndarray, beta: float, v: np.ndarray, work: np.ndarray) -> None:
    """A += beta * outer(v, v) in place, using ``work`` for the product.

    These are the IEEE operations of ``A += beta * np.outer(v, v)`` in the same
    order, so the result is bit-identical; only the two temporaries are gone.
    """
    np.multiply(v[:, None], v, out=work)
    np.multiply(work, beta, out=work)
    np.add(A, work, out=A)


def project_constraint_kernel(
    K: np.ndarray,
    i: int,
    j: int,
    kind: str,
    lam: float,
    xi: float,
    gamma: float,
    p_min: float | None = None,
    work: np.ndarray | None = None,
) -> tuple[float, float, ProjectionInfo]:
    """Apply one Bregman projection in kernel space.

    ``K`` is updated in place; the new (lam, xi) for the constraint are
    returned together with diagnostics.  Pairs whose current distance is at
    or below ``p_min`` are skipped untouched.

    ``work`` is scratch space for the rank-one update: a float64 array of
    K's shape, overwritten by the call, which must not alias ``K``.  ``None``
    allocates one per call; a fit passes one buffer to all its projections.
    """
    n = K.shape[0]
    if p_min is None:
        p_min = P_MIN_RTOL * float(np.trace(K)) / n
    v = K[:, i] - K[:, j]
    p = float(v[i] - v[j])
    if p <= p_min:
        return lam, xi, ProjectionInfo(0.0, False, True)
    delta = 1.0 if kind == SIMILAR else -1.0
    alpha, beta, xi_new, lam_new, clipped = _projection_scalars(p, xi, lam, delta, gamma)
    if beta != 0.0:
        _add_outer(K, beta, v, np.empty_like(K) if work is None else work)
    return lam_new, xi_new, ProjectionInfo(alpha, clipped, False)


def project_constraint_linear(
    W: np.ndarray,
    g: np.ndarray,
    kind: str,
    lam: float,
    xi: float,
    gamma: float,
    p_min: float | None = None,
    work: np.ndarray | None = None,
) -> tuple[float, float, ProjectionInfo]:
    """Input-space analog of ``project_constraint_kernel``; ``g`` is the pair
    difference vector x_i - x_j and W is updated in place.

    ``work`` is scratch space for the rank-one update: a float64 array of
    W's shape, overwritten by the call, which must not alias ``W``.  ``None``
    allocates one per call.
    """
    d = W.shape[0]
    if p_min is None:
        p_min = P_MIN_RTOL * float(np.trace(W)) / d
    v = W @ g
    p = float(g @ v)
    if p <= p_min:
        return lam, xi, ProjectionInfo(0.0, False, True)
    delta = 1.0 if kind == SIMILAR else -1.0
    alpha, beta, xi_new, lam_new, clipped = _projection_scalars(p, xi, lam, delta, gamma)
    if beta != 0.0:
        _add_outer(W, beta, v, np.empty_like(W) if work is None else work)
    return lam_new, xi_new, ProjectionInfo(alpha, clipped, False)


def converged(lam_before: np.ndarray, lam_after: np.ndarray, tol: float) -> bool:
    """Relative dual-change stopping rule over one full sweep:
    max |delta lam| / (1 + |lam|) <= tol."""
    if lam_before.shape != lam_after.shape:
        raise InvalidArgumentError("dual states are not aligned")
    if lam_after.size == 0:
        return True
    rel = np.abs(lam_after - lam_before) / (1.0 + np.abs(lam_after))
    return bool(np.max(rel) <= tol)


def _run_sweeps(project_one, m: int, xi0: np.ndarray, cfg: SolverConfig):
    """Shared sweep loop: seed-shuffled fixed order, cyclic passes, dual-change
    stopping rule.  ``project_one(c, lam_c, xi_c)`` performs the projection for
    constraint c and returns (lam, xi, info)."""
    lam = np.zeros(m)
    xi = xi0.astype(float).copy()
    if np.any(xi <= 0):
        raise InvalidArgumentError("initial slacks must be positive")
    order = np.random.default_rng(cfg.seed).permutation(m)
    skipped_pairs: set[int] = set()
    done = False
    sweeps = 0
    for sweeps in range(1, cfg.sweep_cap(m) + 1):
        lam_before = lam.copy()
        for c in order:
            lam_c, xi_c, info = project_one(int(c), lam[c], xi[c])
            lam[c], xi[c] = lam_c, xi_c
            if info.skipped:
                skipped_pairs.add(int(c))
        if not np.all(np.isfinite(lam)) or not np.all(np.isfinite(xi)):
            raise NumericalError("non-finite dual variables encountered")
        if converged(lam_before, lam, cfg.tol):
            done = True
            break
    return DualState(lam=lam, xi=xi), done, sweeps, skipped_pairs


def fit_kernel(K0: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None) -> KernelModel:
    """Learn a kernel matrix satisfying the pairwise constraints while staying
    LogDet-close to ``K0``.

    Starts from K = K0 with zero duals and slacks at the thresholds, then
    sweeps the constraints cyclically (in an order shuffled once from the
    seed) until the dual change over a sweep falls below ``cfg.tol`` or the
    sweep cap is reached.
    """
    cfg = cfg or SolverConfig()
    K0 = symmetrize(np.asarray(K0, dtype=float))
    if not is_psd(K0):
        raise InvalidArgumentError("K0 must be positive semidefinite")
    m = len(cs)
    if m == 0:
        raise InvalidArgumentError("constraint set is empty")
    n = K0.shape[0]
    cs.validate_indices(n)
    K = K0.copy()
    kinds = [c.kind for c in cs.constraints]
    pairs = [(c.i, c.j) for c in cs.constraints]
    work = np.empty_like(K)

    def project_one(c, lam_c, xi_c):
        i, j = pairs[c]
        return project_constraint_kernel(K, i, j, kinds[c], lam_c, xi_c, cfg.gamma,
                                         work=work)

    dual, done, sweeps, skipped = _run_sweeps(project_one, m, cs.initial_slacks(), cfg)
    if not np.all(np.isfinite(K)):
        raise NumericalError("non-finite entries in the learned kernel")
    _warn_skipped(skipped, cs)
    return KernelModel(K=K, K0=K0, dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=len(skipped))


def fit_linear(X: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None) -> LinearModel:
    """Learn a d x d Mahalanobis matrix W (prior: identity) satisfying the
    pairwise constraints; input-space analog of :func:`fit_kernel`."""
    cfg = cfg or SolverConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidArgumentError("X must be a (d, n) matrix")
    d, n = X.shape
    m = len(cs)
    if m == 0:
        raise InvalidArgumentError("constraint set is empty")
    cs.validate_indices(n)
    W = np.eye(d)
    kinds = [c.kind for c in cs.constraints]
    diffs = np.stack([X[:, c.i] - X[:, c.j] for c in cs.constraints], axis=1)
    work = np.empty_like(W)

    def project_one(c, lam_c, xi_c):
        return project_constraint_linear(W, diffs[:, c], kinds[c], lam_c, xi_c, cfg.gamma,
                                         work=work)

    dual, done, sweeps, skipped = _run_sweeps(project_one, m, cs.initial_slacks(), cfg)
    if not np.all(np.isfinite(W)):
        raise NumericalError("non-finite entries in the learned metric")
    _warn_skipped(skipped, cs)
    return LinearModel(W=symmetrize(W), W0=np.eye(d), dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=len(skipped))


def fit_linear_with_prior(
    X: np.ndarray, W0: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None
) -> LinearModel:
    """Learn W regularized toward an arbitrary positive definite prior W0.

    Solved by whitening: with S = W0^(1/2), run the identity-prior solver on
    S X and map the result A back as W = S A S.  For W0 = I this is exactly
    :func:`fit_linear`.
    """
    cfg = cfg or SolverConfig()
    X = np.asarray(X, dtype=float)
    W0 = symmetrize(np.asarray(W0, dtype=float))
    d = X.shape[0]
    if W0.shape != (d, d):
        raise InvalidArgumentError(f"W0 has shape {W0.shape}, expected ({d}, {d})")
    if np.array_equal(W0, np.eye(d)):
        model = fit_linear(X, cs, cfg)
        return LinearModel(W=model.W, W0=W0, dual=model.dual, converged=model.converged,
                           sweeps_used=model.sweeps_used, skipped=model.skipped)
    if min_eigenvalue(W0) <= psd_tolerance(W0):
        raise InvalidArgumentError("W0 must be positive definite")
    S = sqrt_psd(W0)
    inner = fit_linear(S @ X, cs, cfg)
    W = symmetrize(S @ inner.W @ S)
    return LinearModel(W=W, W0=W0, dual=inner.dual, converged=inner.converged,
                       sweeps_used=inner.sweeps_used, skipped=inner.skipped)


def _warn_skipped(skipped: set[int], cs: ConstraintSet) -> None:
    infeasible = [c for c in skipped if cs.constraints[c].kind != SIMILAR]
    if infeasible:
        warnings.warn(
            f"{len(infeasible)} dissimilarity constraint(s) on coincident pairs "
            f"were skipped as infeasible (first: {infeasible[0]})",
            SolverWarning,
        )


def max_violation(K: np.ndarray, cs: ConstraintSet, dual: DualState) -> float:
    """Largest violation of the slack-adjusted constraints by a learned kernel
    (diagnostic; 0 means every pair distance is on the right side of its xi)."""
    worst = 0.0
    for c, con in enumerate(cs.constraints):
        d = K[con.i, con.i] + K[con.j, con.j] - 2.0 * K[con.i, con.j]
        gap = d - dual.xi[c] if con.kind == SIMILAR else dual.xi[c] - d
        worst = max(worst, gap)
    return worst
