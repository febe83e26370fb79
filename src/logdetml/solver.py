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
difference vector g = x_i - x_j in place of e_i - e_j: each space computes
only v = A g and p = g^T v, and one helper (``_project``) does the rest.

A kernel fit delays its rank-one updates (the delayed-update idea of
Schreiber & Van Loan's compact WY form, 1989).  The fit's kernel is held as
A + U diag(beta) U^T with up to ``KERNEL_BLOCK`` pending terms, so each
projection costs O(n t) for t pending terms instead of a full n x n pass:
v = A[:, i] - A[:, j] + U^T (beta * (U[:, i] - U[:, j])) over U's t rows,
and p and the scalars come from v as above.  The skip floor counts the
pending terms, trace(A) + sum beta_s ||u_s||^2.  The block is added into A
when it is full and at the end of every sweep, before the distances the
stopping rule reads, so every sweep ends on a flushed matrix:

* in tiles of A's upper triangle of at most ``FLUSH_MADDS`` multiply-adds
  per ``np.dot``, written into the fit's one n x n ``work`` buffer, two or
  more rows per tile so each is a dgemm.  A dgemm that small stays under
  OpenBLAS's single-thread size threshold, so the flush's bits do not depend
  on the BLAS thread count; that threshold is an OpenBLAS internal, which
  ``test_same_stop_and_bits_on_one_and_two_blas_threads`` guards;
* mirrored: the upper triangle is copied onto the lower one, because the
  entries (a, b) and (b, a) of the product round differently and the
  projections read columns of an exactly symmetric K;
* a block of one term is added by the eager update A += beta v v^T, so with
  ``KERNEL_BLOCK = 1`` a kernel fit is the eager loop, bit for bit.

The delayed fit sums in another order than the eager one: its K agrees
with the eager K to round-off (about 1e-13 of max|K|), not in bits.
Input-space fits (d x d, Python-bound at small d) stay eager.

A fit sweeps the m constraints in a fixed order and stops on primal
evidence: at the end of each sweep every constrained-pair distance p_c is
computed afresh, and the fit stops once no p_c has moved by more than
``tol`` relative to its value at the end of the previous sweep (for the
first sweep, before any projection).  Pairs at or below the skip floor are
left out.  The duals are not part of the rule; their change is recorded in
the per-sweep trace with the rest of the sweep's diagnostics.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .constraints import SIMILAR, ConstraintSet
from .errors import InvalidArgumentError, NumericalError
from .linalg import (is_psd, min_eigenvalue, pair_distance_kernel, psd_tolerance, sqrt_psd,
                     symmetrize)

# Constraints whose current squared distance falls below
# P_MIN_RTOL * trace(K)/n are skipped: the pair has (numerically) collapsed
# and 1/p would blow up.
P_MIN_RTOL = 1e-12

DENOM_TOL = 1e-12

# The stopping rule's default: a fit stops when no constrained-pair distance
# moved by more than 5% of its value over the last sweep.  Every default
# ``tol`` in the package (the CLI's flags, the learners) reads this one.
DEFAULT_TOL = 5e-2

# A kernel fit adds its projections to K this many at a time (chosen from
# paired runs of the ionosphere Gaussian fit, n = 351 and 176).
KERNEL_BLOCK = 32

# The most multiply-adds one ``np.dot`` of a flush does: OpenBLAS runs a
# dgemm with M*N*K <= 65536 * 4 on one thread.  A strip keeps at least two
# rows, so no product wider than one entry is a one-row dgemv, which OpenBLAS
# threads from a much smaller size (M*N >= 2304 * 4).
FLUSH_MADDS = 200_000


class SolverWarning(UserWarning):
    pass


@dataclass
class SolverConfig:
    """Knobs for a projection run.

    ``gamma`` may be ``math.inf`` for the no-slack (hard constraint) variant.
    ``tol`` is the stopping rule's only knob: the fit stops after the first
    sweep over which no constrained-pair distance changed by more than
    ``tol`` relative to its value before the sweep.  ``max_sweeps`` caps the
    sweeps; ``None`` derives the cap from the constraint count:
    ceil(1e5 / m), at least 50.
    """

    gamma: float = 1.0
    max_sweeps: int | None = None
    tol: float = DEFAULT_TOL
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


class SweepStats(NamedTuple):
    """One sweep of a fit: an entry of the model's ``trace``."""

    distance_change: float  # max relative change of a constrained distance
    dual_change: float      # max |delta lam| / (1 + |lam|)
    active: int             # constraints with lam > 0 after the sweep
    lam_to_zero: int        # projections that drove a positive lam to 0
    noops: int              # projections with alpha = 0: nothing to do
    skipped: int            # projections skipped at the floor
    wall_s: float


@dataclass
class KernelModel:
    """A learned kernel.  ``converged`` is True when the stopping rule ended
    the fit, False when the sweep cap did; ``trace`` has one entry per
    sweep."""

    K: np.ndarray
    K0: np.ndarray
    dual: DualState
    converged: bool
    sweeps_used: int
    skipped: int = 0
    trace: list[SweepStats] = field(default_factory=list)


@dataclass
class LinearModel:
    """Input-space analog of :class:`KernelModel`."""

    W: np.ndarray
    dual: DualState
    converged: bool
    sweeps_used: int
    skipped: int = 0
    trace: list[SweepStats] = field(default_factory=list)


class ProjectionInfo(NamedTuple):
    alpha: float
    clipped: bool   # alpha was capped at lam (dual feasibility)
    skipped: bool   # pair distance below the skip floor


_SKIPPED = ProjectionInfo(0.0, False, True)


def _projection_scalars(p: float, xi: float, lam: float, delta: float, gamma: float):
    """Closed-form projection parameters for one constraint."""
    factor = 1.0 if math.isinf(gamma) else gamma / (gamma + 1.0)
    # a zero slack takes numpy's 1/0 = inf (the duals are Python floats here)
    raw = delta * factor * (1.0 / p - (1.0 / xi if xi else math.inf))
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


def _p_min(diag: np.ndarray, n: int, pending: float = 0.0) -> float:
    """Skip floor P_MIN_RTOL * trace / n from A's diagonal and the trace of
    the pending terms.  ``np.add.reduce`` is the reduction ``ndarray.trace``
    runs, without its call overhead."""
    return P_MIN_RTOL * (float(np.add.reduce(diag)) + pending) / n


def _add_outer(A: np.ndarray, beta: float, v: np.ndarray, work: np.ndarray) -> None:
    """A += beta * outer(v, v) in place, using ``work`` for the product.

    ``work`` must be a C-contiguous float64 array of A's shape: ``np.dot``
    writes only into such an ``out``.  These are the IEEE operations of
    ``A += beta * np.outer(v, v)`` in the same order; only the two temporaries
    are gone.  The outer product is a BLAS dgemm with inner dimension 1, so
    each entry is the one product v_i * v_j, however the work is split across
    threads.  Only the sign of a zero product may differ from ``np.outer``:
    dgemm writes an exact zero as +0.0 (an underflowed negative product stays
    -0.0).  Since x + (+-0.0) differs only for x = -0.0, and a sum is -0.0 only
    when both terms are, the result is bit-identical wherever A holds no -0.0;
    a fit never creates one.
    """
    np.dot(v.reshape(-1, 1), v.reshape(1, -1), out=work)
    np.multiply(work, beta, out=work)
    np.add(A, work, out=A)


def _flush_tiles(n: int, t: int):
    """Tiles (r0, r1, c0, c1) of an n x n matrix's upper triangle, strip by
    strip of rows r0:r1 from column r0 on, each with at most
    ``FLUSH_MADDS`` multiply-adds for t pending terms.  A strip has at least
    two rows: only the last row's diagonal entry can be a one-row tile."""
    area = FLUSH_MADDS // t
    h = max(2, min(n, area // n))
    w = area // h
    for r0 in range(0, n, h):
        r1 = min(n, r0 + h)
        for c0 in range(r0, n, w):
            yield r0, r1, c0, min(n, c0 + w)


class _Pending:
    """A kernel fit's projections not yet added to its matrix A: the fit's
    kernel is A + sum_s beta_s u_s u_s^T over the ``t`` rows u_s of ``U``.
    ``work`` is the fit's n x n scratch buffer."""

    def __init__(self, A: np.ndarray, size: int, work: np.ndarray):
        n = A.shape[0]
        self.U, self.beta, self.t = np.empty((size, n)), np.empty(size), 0
        self.trace = 0.0  # sum beta_s ||u_s||^2: the pending part of trace(K)
        self.diag, self.work = A.diagonal(), work

    def floor(self) -> float:
        return _p_min(self.diag, len(self.diag), self.trace)

    def image(self, A: np.ndarray, i: int, j: int) -> np.ndarray:
        """K[:, i] - K[:, j] for the fit's kernel K."""
        v = A[:, i] - A[:, j]
        if t := self.t:
            U = self.U[:t]
            v += (self.beta[:t] * (U[:, i] - U[:, j])) @ U
        return v

    def push(self, A: np.ndarray, beta: float, v: np.ndarray) -> None:
        t = self.t
        self.U[t], self.beta[t] = v, beta
        self.trace += beta * float(v.dot(v))
        self.t = t + 1
        if self.t == len(self.beta):
            self.flush(A)

    def flush(self, A: np.ndarray) -> None:
        """Add the pending terms into A and empty the block."""
        t, self.t, self.trace = self.t, 0, 0.0
        if t == 1:
            _add_outer(A, float(self.beta[0]), self.U[0], self.work)
        elif t:
            n, U = len(self.diag), self.U[:t]
            # the terms beta_s u_s as columns, C-ordered: a small dgemm's bits
            # depend on its operands' layout
            left = np.ascontiguousarray(U.T) * self.beta[:t]
            out = self.work.reshape(-1)
            lower = None  # strictly lower triangle of a strip's diagonal block
            for r0, r1, c0, c1 in _flush_tiles(n, t):
                tile = out[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
                np.dot(left[r0:r1], U[:, c0:c1], out=tile)
                A[r0:r1, c0:c1] += tile
                if c1 == n:  # the strip is done: mirror its lower part
                    if lower is None:
                        lower = np.tri(r1 - r0, k=-1, dtype=bool)
                    A[r0:r1, :r0] = A[:r0, r0:r1].T
                    block = A[r0:r1, r0:r1]
                    np.copyto(block, block.T, where=lower[:r1 - r0, :r1 - r0])


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

    ``work`` is scratch space for the rank-one update: a C-contiguous float64
    array of K's shape, overwritten by the call, which must not alias ``K``.
    ``None`` allocates one per call.  A fit passes its pending block instead
    (``_Pending``): the kernel is then K plus the pending terms, and the
    update joins the block.
    """
    v = work.image(K, i, j) if isinstance(work, _Pending) else K[:, i] - K[:, j]
    return _project(K, v, float(v[i] - v[j]), kind, lam, xi, gamma, p_min, work)


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

    ``work`` is scratch space for the rank-one update: a C-contiguous float64
    array of W's shape, overwritten by the call, which must not alias ``W``.
    ``None`` allocates one per call.
    """
    v = W.dot(g)
    return _project(W, v, float(g.dot(v)), kind, lam, xi, gamma, p_min, work)


def _project(A, v, p, kind, lam, xi, gamma, p_min, work):
    """The update of both spaces from the pair's image v = A g and distance
    p = g^T v: skip at the floor, else the scalars and A += beta v v^T (or
    the term joins the pending block ``work``)."""
    if p_min is None:
        p_min = _p_min(A.diagonal(), A.shape[0])
    if p <= p_min:
        return lam, xi, _SKIPPED
    delta = 1.0 if kind == SIMILAR else -1.0
    alpha, beta, xi_new, lam_new, clipped = _projection_scalars(p, xi, lam, delta, gamma)
    if beta != 0.0:
        if isinstance(work, _Pending):
            work.push(A, beta, v)
        else:
            _add_outer(A, beta, v, np.empty(A.shape) if work is None else work)
    return lam_new, xi_new, ProjectionInfo(alpha, clipped, False)


def max_relative_change(before: np.ndarray, after: np.ndarray, p_min: float = 0.0) -> float:
    """max |after - before| / |before| over the pairs whose distance ``after``
    is above the skip floor ``p_min``; 0 when no pair is.  A pair that rises
    from a zero distance changes by inf."""
    live = after > p_min
    if not np.any(live):
        return 0.0
    b = before[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.abs(after[live] - b) / np.abs(b)))


def _run_sweeps(project, A: np.ndarray, operands: list[tuple], cs: ConstraintSet,
                cfg: SolverConfig, distances, block: int = 0):
    """Shared sweep loop: seed-shuffled fixed order, cyclic passes, stopping
    rule on the constrained distances.  Constraint c of ``cs`` is projected by
    ``project(A, *operands[c], lam_c, xi_c, gamma, p_min, work)``, which
    updates A in place and returns (lam, xi, info); ``distances(A)`` gives
    every constrained-pair distance by the projections' own arithmetic.
    With ``block`` > 0, ``work`` is a pending block of that size, flushed
    into A at the end of each sweep.
    Returns (dual, converged, sweeps, skipped count, trace)."""
    m = len(operands)
    if m == 0:
        raise InvalidArgumentError("constraint set is empty")
    xi0 = cs.initial_slacks()
    if np.any(xi0 <= 0):
        raise InvalidArgumentError("initial slacks must be positive")
    # the duals live in lists between sweeps: Python float arithmetic is the
    # same IEEE arithmetic as numpy's, without the scalar boxing
    lam, xi = [0.0] * m, xi0.tolist()
    lam_after = np.zeros(m)
    order = np.random.default_rng(cfg.seed).permutation(m).tolist()
    gamma = cfg.gamma
    n = A.shape[0]
    diag = A.diagonal()  # a view: it follows the updates to A
    work = np.empty(A.shape)
    if block:
        work = _Pending(A, block, work)
        floor = work.floor
    else:
        floor = partial(_p_min, diag, n)
    skipped_pairs: set[int] = set()
    trace: list[SweepStats] = []
    p_before = distances(A)
    done = False
    sweeps = 0
    for sweeps in range(1, cfg.sweep_cap(m) + 1):
        t0 = time.perf_counter()
        lam_to_zero = noops = skipped = 0
        for c in order:
            lam[c], xi[c], info = project(A, *operands[c], lam[c], xi[c], gamma,
                                          floor(), work)
            if info.skipped:
                skipped_pairs.add(c)
                skipped += 1
            elif info.alpha == 0.0:
                noops += 1
            elif info.clipped:
                lam_to_zero += 1
        if block:
            work.flush(A)
        lam_before = lam_after
        lam_after, xi_after = np.array(lam), np.array(xi)
        if not np.all(np.isfinite(lam_after)) or not np.all(np.isfinite(xi_after)):
            raise NumericalError("non-finite dual variables encountered")
        p_after = distances(A)
        p_min = _p_min(diag, n)
        change = max_relative_change(p_before, p_after, p_min)
        dual_change = float(np.max(np.abs(lam_after - lam_before) / (1.0 + lam_after)))
        trace.append(SweepStats(change, dual_change, int(np.count_nonzero(lam_after)),
                                lam_to_zero, noops, skipped, time.perf_counter() - t0))
        if change <= cfg.tol:
            done = True
            break
        p_before = p_after
    if not np.all(np.isfinite(A)):
        raise NumericalError("non-finite entries in the learned matrix")
    _warn_skipped(skipped_pairs, cs)
    return DualState(lam=lam_after, xi=xi_after), done, sweeps, len(skipped_pairs), trace


def fit_kernel(K0: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None) -> KernelModel:
    """Learn a kernel matrix satisfying the pairwise constraints while staying
    LogDet-close to ``K0``.

    Starts from K = K0 with zero duals and slacks at the thresholds, then
    sweeps the constraints cyclically (in an order shuffled once from the
    seed) until no constrained distance moves by more than ``cfg.tol``
    (relative) over a sweep, or the sweep cap is reached.

    The updates are delayed (see the module docstring): up to
    ``KERNEL_BLOCK`` projections wait as a block U diag(beta) U^T, which is
    added into K in thread-independent tiles and mirrored onto K's lower
    triangle, so K stays exactly symmetric.  A block of one is the eager
    update; the learned K agrees with the eager loop's to round-off.
    """
    cfg = cfg or SolverConfig()
    K0 = symmetrize(np.asarray(K0, dtype=float))
    if not is_psd(K0):
        raise InvalidArgumentError("K0 must be positive semidefinite")
    cs.validate_indices(K0.shape[0])
    K = K0.copy()
    operands = [(c.i, c.j, c.kind) for c in cs.constraints]
    I, J, _ = cs.pairs()

    def distances(K):
        # p = v[i] - v[j] with v = K[:, i] - K[:, j], element by element
        return (K[I, I] - K[I, J]) - (K[J, I] - K[J, J])

    dual, done, sweeps, skipped, trace = _run_sweeps(
        project_constraint_kernel, K, operands, cs, cfg, distances, KERNEL_BLOCK)
    return KernelModel(K=K, K0=K0, dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=skipped, trace=trace)


def fit_linear(X: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None) -> LinearModel:
    """Learn a d x d Mahalanobis matrix W (prior: identity) satisfying the
    pairwise constraints; input-space analog of :func:`fit_kernel`."""
    cfg = cfg or SolverConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidArgumentError("X must be a (d, n) matrix")
    d, n = X.shape
    cs.validate_indices(n)
    W = np.eye(d)
    I, J, _ = cs.pairs()
    # C order, as np.stack made it: W.dot(g) on a strided column keeps its BLAS path and bits
    diffs = np.ascontiguousarray(X[:, I] - X[:, J])
    operands = [(diffs[:, c], con.kind) for c, con in enumerate(cs.constraints)]

    def distances(W):
        # the projection's own products, one pair at a time
        return np.array([g.dot(W.dot(g)) for g, _ in operands])

    dual, done, sweeps, skipped, trace = _run_sweeps(
        project_constraint_linear, W, operands, cs, cfg, distances)
    return LinearModel(W=symmetrize(W), dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=skipped, trace=trace)


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
        return fit_linear(X, cs, cfg)
    if min_eigenvalue(W0) <= psd_tolerance(W0):
        raise InvalidArgumentError("W0 must be positive definite")
    S = sqrt_psd(W0)
    inner = fit_linear(S @ X, cs, cfg)
    return replace(inner, W=symmetrize(S @ inner.W @ S))


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
    I, J, similar = cs.pairs()
    d = pair_distance_kernel(K, I, J)
    return float(np.max(np.where(similar, d - dual.xi, dual.xi - d), initial=0.0))
