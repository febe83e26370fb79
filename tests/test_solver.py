import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import logdetml
from logdetml import solver

from logdetml.constraints import (
    DISSIMILAR,
    SIMILAR,
    Constraint,
    ConstraintSet,
    Thresholds,
    compute_thresholds,
    euclidean_distance_pool,
    generate_from_labels,
)
from logdetml.datasets import load_points_csv
from logdetml.errors import InvalidArgumentError, NumericalError
from logdetml.evaluation import median_pairwise_distance
from logdetml.linalg import (
    KernelSpec,
    gram,
    is_psd,
    pair_distance_kernel,
    psd_tolerance,
    symmetrize,
    symmetrize_in_place,
)
from logdetml.solver import (
    DEFAULT_TOL,
    DENOM_TOL,
    P_MIN_RTOL,
    DualState,
    KernelModel,
    LinearModel,
    SolverConfig,
    SolverWarning,
    _projection_scalars,
    _warn_skipped,
    fit_kernel,
    fit_linear,
    fit_linear_with_prior,
    max_relative_change,
    project_constraint_kernel,
    project_constraint_linear,
)

from conftest import make_blobs, random_pd


def mixed_constraint_set(X, n_sim=3, n_dis=3, seed=0, lo=30, hi=70):
    """Random distinct pairs with percentile thresholds wide enough to keep
    the instance comfortably feasible."""
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    pairs = set()
    while len(pairs) < n_sim + n_dis:
        i, j = rng.integers(0, n, size=2)
        if i != j and (min(i, j), max(i, j)) not in pairs:
            pairs.add((min(i, j), max(i, j)))
    pairs = sorted(pairs)
    cons = [Constraint(i, j, SIMILAR) for i, j in pairs[:n_sim]]
    cons += [Constraint(i, j, DISSIMILAR) for i, j in pairs[n_sim:]]
    pool = euclidean_distance_pool(X)
    ths = Thresholds(float(np.percentile(pool, lo)), float(np.percentile(pool, hi)))
    return ConstraintSet(cons, ths)


class TestSingleProjection:
    def test_satisfied_constraint_is_fixed_point(self):
        K = np.eye(2)
        lam, xi, info = project_constraint_kernel(K, 0, 1, SIMILAR, 0.0, 2.0, 1.0)
        assert np.array_equal(K, np.eye(2))
        assert lam == 0.0 and xi == 2.0 and info.alpha == 0.0

    def test_similar_hand_worked_update(self):
        K = np.eye(2)
        lam, xi, info = project_constraint_kernel(K, 0, 1, SIMILAR, 0.0, 0.5, 1.0)
        assert info.alpha == pytest.approx(-0.75)
        assert lam == pytest.approx(0.75)
        assert xi == pytest.approx(0.8)
        assert np.allclose(K, [[0.7, 0.3], [0.3, 0.7]], atol=1e-15)
        # the projection lands exactly on the slack-adjusted boundary
        assert pair_distance_kernel(K, 0, 1) == pytest.approx(xi, abs=1e-12)

    def test_dissimilar_hand_worked_update(self):
        K = np.eye(2)
        lam, xi, info = project_constraint_kernel(K, 0, 1, DISSIMILAR, 0.0, 4.0, 1.0)
        assert info.alpha == pytest.approx(-0.125)
        assert pair_distance_kernel(K, 0, 1) == pytest.approx(xi, abs=1e-12)

    def test_coincident_pair_skipped(self):
        X = np.zeros((2, 2))
        K = X.T @ X
        lam, xi, info = project_constraint_kernel(K, 0, 1, SIMILAR, 0.0, 1.0, 1.0)
        assert info.skipped and lam == 0.0 and xi == 1.0

    def test_infinite_gamma_keeps_slack_fixed(self):
        K = np.eye(2)
        lam, xi, _ = project_constraint_kernel(K, 0, 1, SIMILAR, 0.0, 0.5, math.inf)
        assert xi == 0.5
        assert pair_distance_kernel(K, 0, 1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_projection_properties(self, seed):
        # ~1.2e3 projections across the parametrized seeds
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            K = random_pd(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            kind = SIMILAR if rng.random() < 0.5 else DISSIMILAR
            p = pair_distance_kernel(K, i, j)
            xi = float(p * np.exp(rng.uniform(-1.2, 1.2)))
            lam = float(rng.choice([0.0, rng.exponential(0.5)]))
            gamma = float(rng.choice([0.5, 1.0, 10.0, math.inf]))
            lam2, xi2, info = project_constraint_kernel(K, int(i), int(j), kind, lam, xi, gamma)
            assert lam2 >= 0.0
            assert xi2 > 0.0
            assert np.linalg.eigvalsh(K)[0] >= -psd_tolerance(K)
            if not info.clipped and not info.skipped:
                assert pair_distance_kernel(K, int(i), int(j)) == pytest.approx(xi2, abs=1e-9)

    def test_linear_projection_mirrors_kernel(self, rng):
        X = rng.standard_normal((3, 5))
        K = X.T @ X
        W = np.eye(3)
        g = X[:, 0] - X[:, 1]
        lam_k, xi_k, _ = project_constraint_kernel(K, 0, 1, SIMILAR, 0.0, 0.4, 2.0)
        lam_l, xi_l, _ = project_constraint_linear(W, g, SIMILAR, 0.0, 0.4, 2.0)
        assert lam_k == pytest.approx(lam_l, abs=1e-12)
        assert xi_k == pytest.approx(xi_l, abs=1e-12)
        assert np.allclose(X.T @ W @ X, K, atol=1e-10)


def _violating_scalars(rng, p, kind, gamma):
    """(lam, xi, beta) for a constraint that the current distance p violates."""
    xi = 0.5 * p if kind == SIMILAR else 2.0 * p
    lam = float(rng.exponential(0.5))
    delta = 1.0 if kind == SIMILAR else -1.0
    _, beta, *_ = _projection_scalars(p, xi, lam, delta, gamma)
    assert beta != 0.0
    return lam, xi, beta


class TestUpdateContract:
    """The rank-one update is exactly A + beta * outer(v, v), whatever the
    scratch buffer holds on entry."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("buffered", [True, False])
    def test_kernel_update_is_bitwise_reference(self, seed, buffered):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        K = random_pd(rng, n)
        i, j = (int(t) for t in rng.choice(n, size=2, replace=False))
        kind = SIMILAR if seed % 2 else DISSIMILAR
        gamma = float(rng.choice([1.0, math.inf]))
        v = K[:, i] - K[:, j]
        lam, xi, beta = _violating_scalars(rng, float(v[i] - v[j]), kind, gamma)
        expected = K + beta * np.outer(v, v)
        work = np.full_like(K, np.nan) if buffered else None
        project_constraint_kernel(K, i, j, kind, lam, xi, gamma, work=work)
        assert np.array_equal(K, expected)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("buffered", [True, False])
    def test_linear_update_is_bitwise_reference(self, seed, buffered):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        W = random_pd(rng, d)
        g = rng.standard_normal(d)
        kind = SIMILAR if seed % 2 else DISSIMILAR
        gamma = float(rng.choice([1.0, math.inf]))
        v = W @ g
        lam, xi, beta = _violating_scalars(rng, float(g @ v), kind, gamma)
        expected = W + beta * np.outer(v, v)
        work = np.full_like(W, np.nan) if buffered else None
        project_constraint_linear(W, g, kind, lam, xi, gamma, work=work)
        assert np.array_equal(W, expected)

    def test_fit_kernel_keeps_exact_symmetry(self, rng):
        X = rng.standard_normal((40, 30))
        K0 = X.T @ X
        cs = mixed_constraint_set(X, n_sim=10, n_dis=10)
        model = fit_kernel(K0, cs, SolverConfig(max_sweeps=20))
        assert not np.array_equal(model.K, model.K0)
        assert np.array_equal(model.K, model.K.T)


def converged(before, after, tol, p_min=0.0):
    """The fits' stopping rule: no pair above ``p_min`` moved by more than tol."""
    return max_relative_change(before, after, p_min) <= tol


class TestConverged:
    def test_identical_states(self):
        lam = np.array([1.0, 2.0])
        assert converged(lam, lam.copy(), 1e-3)

    def test_large_change_fails(self):
        assert not converged(np.zeros(3), np.array([0.0, 10e-3, 0.0]), 1e-3)

    def test_relative_criterion_with_large_duals(self):
        before = np.array([100.0, 50.0])
        after = before + 0.5e-3
        assert converged(before, after, 1e-3)

    def test_empty_is_converged(self):
        assert converged(np.array([]), np.array([]), 1e-3)


class TestFitKernel:
    def test_no_violations_returns_input(self, rng):
        K0 = random_pd(rng, 4)
        d01 = pair_distance_kernel(K0, 0, 1)
        d23 = pair_distance_kernel(K0, 2, 3)
        cs = ConstraintSet(
            [Constraint(0, 1, SIMILAR), Constraint(2, 3, DISSIMILAR)],
            Thresholds(2 * d01, 2 * d01),
            xi0=np.array([2 * d01, 0.5 * d23]),
        )
        model = fit_kernel(K0, cs, SolverConfig())
        assert model.converged and model.sweeps_used == 1
        assert np.array_equal(model.K, K0)

    def test_single_constraint_infinite_gamma_hits_threshold(self):
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(0.5, 0.5))
        model = fit_kernel(np.eye(2), cs, SolverConfig(gamma=math.inf, tol=1e-9))
        assert model.converged
        assert pair_distance_kernel(model.K, 0, 1) == pytest.approx(0.5, abs=1e-8)

    def test_feasibility_at_convergence_on_blobs(self, rng):
        # 3 small Gaussian blobs, linear kernel, mild §-style thresholds
        centers = np.array([[0.0, 4.0, -4.0], [0.0, 4.0, 4.0]])
        X = np.concatenate(
            [centers[:, [c]] + 0.5 * rng.standard_normal((2, 20)) for c in range(3)],
            axis=1,
        )
        labels = np.repeat([0, 1, 2], 20)
        from logdetml.constraints import generate_from_labels

        cons = generate_from_labels(labels, per_class=15, seed=0)
        cs = ConstraintSet(cons, compute_thresholds(euclidean_distance_pool(X)))
        model = fit_kernel(X.T @ X, cs, SolverConfig(gamma=1.0, tol=1e-8))
        assert model.converged
        tol = 1e-6 * max(1.0, float(np.max(model.dual.xi)))
        for c, con in enumerate(cs.constraints):
            d = pair_distance_kernel(model.K, con.i, con.j)
            if con.kind == SIMILAR:
                assert d <= model.dual.xi[c] + tol
            else:
                assert d >= model.dual.xi[c] - tol

    def test_lambda_nonnegative_and_psd_along_the_run(self, rng):
        X = rng.standard_normal((3, 8))
        cs = mixed_constraint_set(X, seed=1)
        model = fit_kernel(X.T @ X, cs, SolverConfig(gamma=1.0))
        assert np.all(model.dual.lam >= 0)
        assert np.all(model.dual.xi > 0)
        assert np.linalg.eigvalsh(model.K)[0] >= -psd_tolerance(model.K)

    def test_determinism(self, rng):
        X = rng.standard_normal((3, 8))
        cs = mixed_constraint_set(X, seed=2)
        m1 = fit_kernel(X.T @ X, cs, SolverConfig(seed=5))
        m2 = fit_kernel(X.T @ X, cs, SolverConfig(seed=5))
        assert np.array_equal(m1.K, m2.K)
        assert np.array_equal(m1.dual.lam, m2.dual.lam)

    def test_rejects_non_psd_input(self):
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(1.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            fit_kernel(np.diag([1.0, -1.0]), cs, SolverConfig())

    def test_rejects_empty_constraints(self):
        cs = ConstraintSet([], Thresholds(1.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            fit_kernel(np.eye(2), cs, SolverConfig())


class TestFitLinear:
    def test_no_violations_returns_identity(self, rng):
        X = np.eye(3)
        cs = ConstraintSet(
            [Constraint(0, 1, SIMILAR)], Thresholds(5.0, 5.0)
        )
        model = fit_linear(X, cs, SolverConfig())
        assert np.array_equal(model.W, np.eye(3))

    def test_unit_points_single_constraint(self):
        X = np.eye(2)
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(0.5, 0.5))
        model = fit_linear(X, cs, SolverConfig(gamma=math.inf, tol=1e-9))
        g = X[:, 0] - X[:, 1]
        assert float(g @ model.W @ g) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_equivalence_with_slack(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 12))
        cs = mixed_constraint_set(X, seed=seed)
        cfg = SolverConfig(gamma=1.0, tol=1e-8, max_sweeps=20000, seed=seed)
        lin = fit_linear(X, cs, cfg)
        ker = fit_kernel(X.T @ X, cs, cfg)
        assert lin.converged and ker.converged
        K_from_W = X.T @ lin.W @ X
        rel = np.linalg.norm(K_from_W - ker.K) / np.linalg.norm(ker.K)
        assert rel <= 1e-4


class TestFitLinearWithPrior:
    def test_identity_prior_is_bitwise_fit_linear(self, rng):
        X = rng.standard_normal((4, 9))
        cs = mixed_constraint_set(X, seed=3)
        base = fit_linear(X, cs, SolverConfig(seed=1))
        prior = fit_linear_with_prior(X, np.eye(4), cs, SolverConfig(seed=1))
        assert np.array_equal(base.W, prior.W)

    def test_scaled_identity_prior_matches_scaled_data(self, rng):
        X = rng.standard_normal((3, 8))
        cs = mixed_constraint_set(X, seed=4)
        cfg = SolverConfig(gamma=1.0, tol=1e-9, seed=2)
        scaled = fit_linear(np.sqrt(2.0) * X, cs, cfg)
        prior = fit_linear_with_prior(X, 2.0 * np.eye(3), cs, cfg)
        # identical learned distances: x^T W x == (sqrt2 x)^T A (sqrt2 x)
        for c in cs.constraints:
            g = X[:, c.i] - X[:, c.j]
            gs = np.sqrt(2.0) * g
            assert float(g @ prior.W @ g) == pytest.approx(float(gs @ scaled.W @ gs), rel=1e-6)

    def test_matches_kernel_route(self, rng):
        # dual-route check: whitened solve vs kernel solve on K0 = X^T W0 X
        X = rng.standard_normal((4, 10))
        W0 = random_pd(rng, 4)
        cs = mixed_constraint_set(X, seed=5)
        cfg = SolverConfig(gamma=1.0, tol=1e-9, max_sweeps=20000, seed=0)
        direct = fit_linear_with_prior(X, W0, cs, cfg)
        K0 = X.T @ W0 @ X
        ker = fit_kernel(K0, cs, cfg)
        assert direct.converged and ker.converged
        K_from_W = X.T @ direct.W @ X
        rel = np.linalg.norm(K_from_W - ker.K) / np.linalg.norm(ker.K)
        assert rel <= 1e-4

    def test_inverse_covariance_prior_feasible(self, rng):
        X = rng.standard_normal((3, 40)) * np.array([[3.0], [1.0], [0.5]])
        from logdetml.evaluation import inverse_covariance_baseline
        from logdetml.linalg import sqrt_psd

        W0 = inverse_covariance_baseline(X)
        cs = mixed_constraint_set(sqrt_psd(W0) @ X, seed=6)
        model = fit_linear_with_prior(X, W0, cs, SolverConfig(gamma=math.inf, tol=1e-8))
        assert model.converged
        for c, con in enumerate(cs.constraints):
            g = X[:, con.i] - X[:, con.j]
            d = float(g @ model.W @ g)
            xi = model.dual.xi[c]
            if con.kind == SIMILAR:
                assert d <= xi * (1 + 1e-6)
            else:
                assert d >= xi * (1 - 1e-6)

    def test_singular_prior_rejected(self, rng):
        X = rng.standard_normal((3, 6))
        cs = mixed_constraint_set(X, seed=7)
        with pytest.raises(InvalidArgumentError):
            fit_linear_with_prior(X, np.diag([1.0, 1.0, 0.0]), cs, SolverConfig())


# -- reference: the sweep loop and projections as they were before the
# per-projection overhead was cut, copied verbatim with a ref_ prefix.  The
# fits above must reproduce them bit for bit.

@dataclass
class RefProjectionInfo:
    alpha: float
    clipped: bool   # alpha was capped at lam (dual feasibility)
    skipped: bool   # pair distance below the skip floor


def ref_projection_scalars(p: float, xi: float, lam: float, delta: float, gamma: float):
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


def ref_add_outer(A: np.ndarray, beta: float, v: np.ndarray, work: np.ndarray) -> None:
    """A += beta * outer(v, v) in place, using ``work`` for the product.

    These are the IEEE operations of ``A += beta * np.outer(v, v)`` in the same
    order; only the two temporaries are gone.  ``einsum`` writes the outer
    product nearly twice as fast as a broadcast ``np.multiply`` at n in the
    hundreds, with each entry still the one product v_i * v_j, except that it
    adds the products to +0.0, so a -0.0 product is stored as +0.0.  Since
    x + (+-0.0) differs only for x = -0.0, and a sum is -0.0 only when both
    terms are, the result is bit-identical wherever A holds no -0.0; a fit
    never creates one.
    """
    np.einsum("i,j->ij", v, v, out=work)
    np.multiply(work, beta, out=work)
    np.add(A, work, out=A)


def ref_project_constraint_kernel(
    K: np.ndarray,
    i: int,
    j: int,
    kind: str,
    lam: float,
    xi: float,
    gamma: float,
    p_min: float | None = None,
    work: np.ndarray | None = None,
) -> tuple[float, float, RefProjectionInfo]:
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
        return lam, xi, RefProjectionInfo(0.0, False, True)
    delta = 1.0 if kind == SIMILAR else -1.0
    alpha, beta, xi_new, lam_new, clipped = ref_projection_scalars(p, xi, lam, delta, gamma)
    if beta != 0.0:
        ref_add_outer(K, beta, v, np.empty_like(K) if work is None else work)
    return lam_new, xi_new, RefProjectionInfo(alpha, clipped, False)


def ref_project_constraint_linear(
    W: np.ndarray,
    g: np.ndarray,
    kind: str,
    lam: float,
    xi: float,
    gamma: float,
    p_min: float | None = None,
    work: np.ndarray | None = None,
) -> tuple[float, float, RefProjectionInfo]:
    """Input-space analog of ``ref_project_constraint_kernel``; ``g`` is the pair
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
        return lam, xi, RefProjectionInfo(0.0, False, True)
    delta = 1.0 if kind == SIMILAR else -1.0
    alpha, beta, xi_new, lam_new, clipped = ref_projection_scalars(p, xi, lam, delta, gamma)
    if beta != 0.0:
        ref_add_outer(W, beta, v, np.empty_like(W) if work is None else work)
    return lam_new, xi_new, RefProjectionInfo(alpha, clipped, False)



def ref_run_sweeps(project_one, m: int, xi0: np.ndarray, cfg: SolverConfig,
                   distance_one, p_min):
    """Shared sweep loop: seed-shuffled fixed order, cyclic passes, stopping
    rule on the constrained distances.  ``project_one(c, lam_c, xi_c)``
    performs the projection for constraint c and returns (lam, xi, info);
    ``distance_one(c)`` is pair c's current distance and ``p_min()`` the
    current skip floor.  The fit stops after the first sweep in which no pair
    above the floor moved by more than ``cfg.tol`` of its distance before
    the sweep."""
    lam = np.zeros(m)
    xi = xi0.astype(float).copy()
    if np.any(xi <= 0):
        raise InvalidArgumentError("initial slacks must be positive")
    order = np.random.default_rng(cfg.seed).permutation(m)
    skipped_pairs: set[int] = set()
    p_before = [distance_one(c) for c in range(m)]
    done = False
    sweeps = 0
    for sweeps in range(1, cfg.sweep_cap(m) + 1):
        for c in order:
            lam_c, xi_c, info = project_one(int(c), lam[c], xi[c])
            lam[c], xi[c] = lam_c, xi_c
            if info.skipped:
                skipped_pairs.add(int(c))
        if not np.all(np.isfinite(lam)) or not np.all(np.isfinite(xi)):
            raise NumericalError("non-finite dual variables encountered")
        p_after = [distance_one(c) for c in range(m)]
        floor = p_min()
        change = max((abs(a - b) / abs(b) if b else math.inf
                      for a, b in zip(p_after, p_before) if a > floor), default=0.0)
        if change <= cfg.tol:
            done = True
            break
        p_before = p_after
    return DualState(lam=lam, xi=xi), done, sweeps, skipped_pairs


def ref_fit_kernel(K0: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None) -> KernelModel:
    """Learn a kernel matrix satisfying the pairwise constraints while staying
    LogDet-close to ``K0``.

    Starts from K = K0 with zero duals and slacks at the thresholds, then
    sweeps the constraints cyclically (in an order shuffled once from the
    seed) until no constrained distance moves by more than ``cfg.tol``
    (relative) over a sweep, or the sweep cap is reached.
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
        return ref_project_constraint_kernel(K, i, j, kinds[c], lam_c, xi_c, cfg.gamma,
                                         work=work)

    def distance_one(c):
        i, j = pairs[c]
        v = K[:, i] - K[:, j]
        return float(v[i] - v[j])

    dual, done, sweeps, skipped = ref_run_sweeps(
        project_one, m, cs.initial_slacks(), cfg, distance_one,
        lambda: P_MIN_RTOL * float(np.trace(K)) / n)
    if not np.all(np.isfinite(K)):
        raise NumericalError("non-finite entries in the learned kernel")
    _warn_skipped(skipped, cs)
    return KernelModel(K=K, K0=K0, dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=len(skipped))


def ref_fit_linear(X: np.ndarray, cs: ConstraintSet, cfg: SolverConfig | None = None) -> LinearModel:
    """Learn a d x d Mahalanobis matrix W (prior: identity) satisfying the
    pairwise constraints; input-space analog of :func:`ref_fit_kernel`."""
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
        return ref_project_constraint_linear(W, diffs[:, c], kinds[c], lam_c, xi_c, cfg.gamma,
                                         work=work)

    def distance_one(c):
        g = diffs[:, c]
        return float(g @ (W @ g))

    dual, done, sweeps, skipped = ref_run_sweeps(
        project_one, m, cs.initial_slacks(), cfg, distance_one,
        lambda: P_MIN_RTOL * float(np.trace(W)) / d)
    if not np.all(np.isfinite(W)):
        raise NumericalError("non-finite entries in the learned metric")
    _warn_skipped(skipped, cs)
    return LinearModel(W=symmetrize(W), dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=len(skipped))



def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_fit(new, ref):
    learned = "K" if isinstance(new, KernelModel) else "W"
    assert _same_bits(getattr(new, learned), getattr(ref, learned))
    assert _same_bits(new.dual.lam, ref.dual.lam)
    assert _same_bits(new.dual.xi, ref.dual.xi)
    assert (new.sweeps_used, new.converged, new.skipped) == \
        (ref.sweeps_used, ref.converged, ref.skipped)


@pytest.fixture
def eager_kernel_updates(monkeypatch):
    """Kernel fits add each projection to K at once (a pending block of one
    term), the summation order of the reference loop."""
    monkeypatch.setattr(solver, "KERNEL_BLOCK", 1)


@pytest.mark.usefixtures("eager_kernel_updates")
class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gamma", [1.0, 0.3, math.inf])
    def test_kernel_fit(self, seed, gamma):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((int(rng.integers(3, 30)), int(rng.integers(10, 60))))
        K0 = X.T @ X if seed % 2 else gram(X, KernelSpec.gaussian(2.0))
        cs = mixed_constraint_set(X, n_sim=8, n_dis=8, seed=seed)
        cfg = SolverConfig(gamma=gamma, max_sweeps=30, seed=seed)
        assert_same_fit(fit_kernel(K0, cs, cfg), ref_fit_kernel(K0, cs, cfg))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gamma", [1.0, 0.3, math.inf])
    def test_linear_fit(self, seed, gamma):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((int(rng.integers(2, 60)), 40))
        cs = mixed_constraint_set(X, n_sim=10, n_dis=10, seed=seed)
        cfg = SolverConfig(gamma=gamma, max_sweeps=30, seed=seed)
        assert_same_fit(fit_linear(X, cs, cfg), ref_fit_linear(X, cs, cfg))

    def test_kernel_fit_with_many_points(self, rng):
        X = rng.standard_normal((5, 420))
        K0 = gram(X, KernelSpec.gaussian(2.0))
        cs = mixed_constraint_set(X, n_sim=4, n_dis=4)
        cfg = SolverConfig(max_sweeps=3)
        assert_same_fit(fit_kernel(K0, cs, cfg), ref_fit_kernel(K0, cs, cfg))

    def test_converged_fit(self, rng):
        X, labels = make_blobs(rng, d=4, n=60, nuisance=1)
        cons = generate_from_labels(labels, per_class=15, seed=0)
        cs = ConstraintSet(cons, compute_thresholds(euclidean_distance_pool(X)))
        cfg = SolverConfig(gamma=1.0, tol=1e-6)
        new, ref = fit_linear(X, cs, cfg), ref_fit_linear(X, cs, cfg)
        assert new.converged
        assert_same_fit(new, ref)
        new, ref = fit_kernel(X.T @ X, cs, cfg), ref_fit_kernel(X.T @ X, cs, cfg)
        assert new.converged
        assert_same_fit(new, ref)

    def test_coincident_dissimilar_pair_is_skipped(self, rng):
        X = rng.standard_normal((3, 8))
        X[:, 5] = X[:, 2]
        cs = mixed_constraint_set(X, seed=4)
        cs = ConstraintSet(cs.constraints + [Constraint(2, 5, DISSIMILAR)], cs.thresholds)
        cfg = SolverConfig(max_sweeps=10)
        for fit, ref, data in [(fit_kernel, ref_fit_kernel, X.T @ X),
                               (fit_linear, ref_fit_linear, X)]:
            with pytest.warns(SolverWarning):
                new = fit(data, cs, cfg)
            with pytest.warns(SolverWarning):
                old = ref(data, cs, cfg)
            assert new.skipped == 1
            assert_same_fit(new, old)

    def test_zero_slack_of_a_dissimilar_pair_is_carried(self):
        # gamma * xi underflows to 0: the slack becomes exactly zero, and
        # the next projection divides by it; the similar pair moves its
        # distance by 3e-10, which keeps the run going past sweep 1
        cs = ConstraintSet([Constraint(0, 1, SIMILAR), Constraint(2, 3, DISSIMILAR)],
                           Thresholds(1.0, 1.0), xi0=np.array([0.5, 1e-315]))
        cfg = SolverConfig(gamma=1e-10, tol=5e-324, max_sweeps=3)
        with np.errstate(divide="ignore", over="ignore"):
            old = ref_fit_kernel(np.eye(4), cs, cfg)
        new = fit_kernel(np.eye(4), cs, cfg)
        assert new.dual.xi[1] == 0.0 and new.sweeps_used >= 2
        assert_same_fit(new, old)

    def test_zero_slack_of_a_similar_pair_is_a_numerical_error(self, monkeypatch):
        # the satisfied pair (0, 1) keeps alpha = 0 and gamma * xi underflows
        # to 0.  Every update to K underflows too, so no distance moves and
        # the fit stops after one sweep with the zero slack unused.
        cs = ConstraintSet([Constraint(0, 1, SIMILAR), Constraint(2, 3, SIMILAR)],
                           Thresholds(1.0, 1.0), xi0=np.array([1e-15, 1e-21]))
        cfg = SolverConfig(gamma=1e-310, tol=5e-324, max_sweeps=3)
        K0 = 1e-20 * np.eye(4)
        with np.errstate(all="ignore"):
            old = ref_fit_kernel(K0, cs, cfg)
            new = fit_kernel(K0, cs, cfg)
        assert new.dual.xi[0] == 0.0 and new.sweeps_used == 1 and new.converged
        assert_same_fit(new, old)
        # projecting onto the zero slack makes the dual non-finite ...
        with np.errstate(all="ignore"):
            lam, _, _ = project_constraint_kernel(new.K, 0, 1, SIMILAR, new.dual.lam[0],
                                                  new.dual.xi[0], cfg.gamma)
        assert not math.isfinite(lam)
        # ... which a fit that projects onto it reports as a numerical error
        monkeypatch.setattr(solver, "project_constraint_kernel",
                            lambda K, i, j, kind, lam, xi, *rest:
                            project_constraint_kernel(K, i, j, kind, lam, 0.0, *rest))
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite"):
            fit_kernel(K0, cs, cfg)


# -- reference: the delayed kernel updates written out longhand.  At the default
# block a kernel fit reproduces it bit for bit, and the eager loop to round-off.

class RefPending:
    def __init__(self):
        self.U, self.beta, self.trace = [], [], 0.0


def ref_flush(K: np.ndarray, pend: RefPending) -> None:
    """K += sum_s beta_s u_s u_s^T: one term by the eager update; more in
    tiles of the upper triangle of at most FLUSH_MADDS multiply-adds each,
    strip by strip, then the upper triangle copied onto the lower one.  The
    left factor is C-ordered, as the fit forms it: the bits of a small dgemm
    depend on its operands' layout."""
    t, n = len(pend.U), K.shape[0]
    if t == 1:
        ref_add_outer(K, pend.beta[0], pend.U[0], np.empty_like(K))
    elif t > 1:
        U, beta = np.array(pend.U), np.array(pend.beta)
        left = np.ascontiguousarray(U.T) * beta
        area = solver.FLUSH_MADDS // t
        h = max(2, min(n, area // n))
        w = area // h
        for r0 in range(0, n, h):
            for c0 in range(r0, n, w):
                r1, c1 = min(n, r0 + h), min(n, c0 + w)
                K[r0:r1, c0:c1] += left[r0:r1] @ U[:, c0:c1]
        lower = np.tril_indices(n, -1)
        K[lower] = K.T[lower]
    pend.U, pend.beta, pend.trace = [], [], 0.0


def ref_delayed_project(K, pend, i, j, kind, lam, xi, gamma, block):
    """One kernel projection against K plus the pending terms."""
    n = K.shape[0]
    p_min = P_MIN_RTOL * (float(np.trace(K)) + pend.trace) / n
    v = K[:, i] - K[:, j]
    if pend.U:
        U, beta = np.array(pend.U), np.array(pend.beta)
        v += (beta * (U[:, i] - U[:, j])) @ U
    p = float(v[i] - v[j])
    if p <= p_min:
        return lam, xi, RefProjectionInfo(0.0, False, True)
    delta = 1.0 if kind == SIMILAR else -1.0
    alpha, beta, xi_new, lam_new, clipped = ref_projection_scalars(p, xi, lam, delta, gamma)
    if beta != 0.0:
        pend.U.append(v)
        pend.beta.append(beta)
        pend.trace += beta * float(v @ v)
        if len(pend.U) == block:
            ref_flush(K, pend)
    return lam_new, xi_new, RefProjectionInfo(alpha, clipped, False)


def ref_fit_kernel_delayed(K0: np.ndarray, cs: ConstraintSet, cfg: SolverConfig,
                           block: int) -> KernelModel:
    """``ref_fit_kernel`` with the projections pending in blocks of ``block``."""
    K = symmetrize(np.asarray(K0, dtype=float))
    K0 = K.copy()
    n = K.shape[0]
    pairs = [(c.i, c.j, c.kind) for c in cs.constraints]
    pend = RefPending()

    def project_one(c, lam_c, xi_c):
        return ref_delayed_project(K, pend, *pairs[c], lam_c, xi_c, cfg.gamma, block)

    def distance_one(c):
        ref_flush(K, pend)  # a sweep ends on a flushed K; a no-op after the first pair
        i, j, _ = pairs[c]
        v = K[:, i] - K[:, j]
        return float(v[i] - v[j])

    dual, done, sweeps, skipped = ref_run_sweeps(
        project_one, len(pairs), cs.initial_slacks(), cfg, distance_one,
        lambda: P_MIN_RTOL * float(np.trace(K)) / n)
    return KernelModel(K=K, K0=K0, dual=dual, converged=done,
                       sweeps_used=sweeps, skipped=len(skipped))


def assert_close_kernel_fit(new, ref):
    """Round-off agreement of a delayed fit with the eager reference."""
    assert np.max(np.abs(new.K - ref.K)) <= 1e-12 * np.max(np.abs(ref.K))
    assert (new.sweeps_used, new.converged, new.skipped) == \
        (ref.sweeps_used, ref.converged, ref.skipped)
    assert np.array_equal(new.K, new.K.T)


class TestDelayedUpdates:
    """Kernel fits at the default block size."""

    def check(self, K0, cs, cfg):
        new = fit_kernel(K0, cs, cfg)
        assert_same_fit(new, ref_fit_kernel_delayed(K0, cs, cfg, solver.KERNEL_BLOCK))
        assert_close_kernel_fit(new, ref_fit_kernel(K0, cs, cfg))
        return new

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gamma", [1.0, 0.3, math.inf])
    def test_kernel_fit(self, seed, gamma):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((int(rng.integers(3, 30)), int(rng.integers(10, 60))))
        K0 = X.T @ X if seed % 2 else gram(X, KernelSpec.gaussian(2.0))
        cs = mixed_constraint_set(X, n_sim=8, n_dis=8, seed=seed)
        self.check(K0, cs, SolverConfig(gamma=gamma, max_sweeps=30, seed=seed))

    def test_many_points_and_blocks_that_do_not_divide_the_sweep(self, rng):
        X = rng.standard_normal((5, 420))
        b = solver.KERNEL_BLOCK
        cs = mixed_constraint_set(X, n_sim=b, n_dis=b + 5)
        assert len(cs) % b != 0
        self.check(gram(X, KernelSpec.gaussian(2.0)), cs, SolverConfig(max_sweeps=3))

    def test_converged_fit(self, rng):
        X, labels = make_blobs(rng, d=4, n=60, nuisance=1)
        cs = ConstraintSet(generate_from_labels(labels, per_class=15, seed=0),
                           compute_thresholds(euclidean_distance_pool(X)))
        assert len(cs) > solver.KERNEL_BLOCK and len(cs) % solver.KERNEL_BLOCK != 0
        assert self.check(X.T @ X, cs, SolverConfig(gamma=1.0, tol=1e-6)).converged

    def test_a_sweep_that_ends_with_one_pending_term(self, rng, monkeypatch):
        # b + 1 similar pairs, each above the threshold: every projection
        # moves K, so each sweep fills one block and ends with one term
        # pending, which the eager update adds
        X = rng.standard_normal((60, 50))
        pairs = set()
        while len(pairs) < solver.KERNEL_BLOCK + 1:
            i, j = sorted(int(t) for t in rng.choice(50, size=2, replace=False))
            pairs.add((i, j))
        K0 = X.T @ X
        u = 0.5 * min(pair_distance_kernel(K0, i, j) for i, j in pairs)
        cs = ConstraintSet([Constraint(i, j, SIMILAR) for i, j in sorted(pairs)],
                           Thresholds(u, 2 * u))
        calls = []
        add_outer = solver._add_outer
        monkeypatch.setattr(solver, "_add_outer", lambda *a: calls.append(1) or add_outer(*a))
        model = self.check(K0, cs, SolverConfig(max_sweeps=3))
        assert all(e.noops == e.skipped == 0 for e in model.trace)
        assert len(calls) == model.sweeps_used

    def test_pending_terms_enter_the_image_and_the_floor(self, rng):
        n = 40
        A = random_pd(rng, n)
        pending = solver._Pending(A, solver.KERNEL_BLOCK, np.empty((n, n)))
        A0, K = A.copy(), A.copy()
        for _ in range(5):
            v, beta = rng.standard_normal(n), float(rng.uniform(0.01, 0.1))
            pending.push(A, beta, v)
            K += beta * np.outer(v, v)
        assert pending.t == 5 and np.array_equal(A, A0)
        assert np.allclose(pending.image(A, 3, 7), K[:, 3] - K[:, 7], rtol=0, atol=1e-13)
        assert pending.floor() == pytest.approx(P_MIN_RTOL * np.trace(K) / n, rel=1e-13, abs=0)
        assert pending.floor() > 1.1 * P_MIN_RTOL * np.trace(A) / n

    @pytest.mark.parametrize("n", [1, 2, 31, 351, 2000, 3200])
    @pytest.mark.parametrize("t", [2, 3, solver.KERNEL_BLOCK])
    def test_every_flush_product_stays_under_the_limit(self, n, t, monkeypatch):
        # a dgemm this small runs on one BLAS thread, so its bits do not
        # depend on the thread count; a one-row product is a dgemv, which
        # BLAS threads at a smaller size, so only a single entry may be one
        rng = np.random.default_rng(n)
        # in place, to hold few n x n temporaries at n = 3200
        A = symmetrize_in_place(rng.standard_normal((n, n)))
        U, beta = rng.standard_normal((t, n)), rng.standard_normal(t)
        expected = (beta[:, None] * U).T @ U
        expected += A
        pending = solver._Pending(A, t, np.empty((n, n)))
        pending.U[:], pending.beta[:], pending.t = U, beta, t
        shapes = []
        dot = np.dot
        monkeypatch.setattr(np, "dot", lambda a, b, out: shapes.append(
            (a.shape[0], a.shape[1], b.shape[1])) or dot(a, b, out=out))
        pending.flush(A)
        assert shapes and max(h * k * w for h, k, w in shapes) <= solver.FLUSH_MADDS
        assert all(w == 1 for h, _, w in shapes if h == 1)
        assert pending.t == 0 and pending.trace == 0.0
        assert np.array_equal(A, A.T)
        scale = np.max(np.abs(expected))
        expected -= A
        assert np.max(np.abs(expected)) <= 1e-13 * scale


@pytest.mark.parametrize("project", ["kernel", "linear"])
@pytest.mark.parametrize("n, order", [(7, "F"), (40, "C"), (40, "F")])
def test_update_without_work_for_any_layout(project, n, order):
    rng = np.random.default_rng(n)
    A = np.asarray(random_pd(rng, n), order=order)
    kind = DISSIMILAR
    if project == "kernel":
        v = A[:, 0] - A[:, 1]
        lam, xi, beta = _violating_scalars(rng, float(v[0] - v[1]), kind, 1.0)
        expected = A + beta * np.outer(v, v)
        project_constraint_kernel(A, 0, 1, kind, lam, xi, 1.0)
    else:
        g = rng.standard_normal(n)
        v = A @ g
        lam, xi, beta = _violating_scalars(rng, float(g @ v), kind, 1.0)
        expected = A + beta * np.outer(v, v)
        project_constraint_linear(A, g, kind, lam, xi, 1.0)
    assert np.array_equal(A, expected)


@pytest.mark.parametrize("name, fit", [("project_constraint_linear", "linear"),
                                       ("project_constraint_kernel", "kernel")])
def test_fits_call_the_projection_through_the_module(monkeypatch, rng, name, fit):
    # the benchmark's tracer counts projections by wrapping these names
    calls = []
    original = getattr(solver, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, name, counted)
    X = rng.standard_normal((4, 12))
    cs = mixed_constraint_set(X, seed=1)
    cfg = SolverConfig(max_sweeps=7, tol=1e-12)
    model = solver.fit_linear(X, cs, cfg) if fit == "linear" else solver.fit_kernel(X.T @ X, cs, cfg)
    assert model.sweeps_used == 7
    assert len(calls) == len(cs) * model.sweeps_used


# -- the stopping rule: constrained distances at the end of each sweep --------------

class TestStoppingRule:
    def test_a_sweep_that_changes_nothing_stops_at_sweep_1(self, rng):
        K0 = random_pd(rng, 4)
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(1.0, 1.0),
                           xi0=np.array([2 * pair_distance_kernel(K0, 0, 1)]))
        model = fit_kernel(K0, cs, SolverConfig(tol=5e-324))
        assert model.converged and model.sweeps_used == 1
        assert model.trace[0].distance_change == 0.0 and model.trace[0].noops == 1

    def test_change_just_above_and_at_tol(self):
        before = np.array([4.0, 1.0])
        assert max_relative_change(before, np.array([5.0, 1.0])) == 0.25
        assert converged(before, np.array([5.0, 1.0]), 0.25)
        assert converged(before, np.array([3.0, 1.0]), 0.25)
        assert not converged(before, np.array([np.nextafter(5.0, 6.0), 1.0]), 0.25)
        assert not converged(before, np.array([np.nextafter(3.0, 2.0), 1.0]), 0.25)

    def test_pairs_at_or_below_the_floor_are_left_out(self):
        before = np.array([1.0, 1e-20, 0.0])
        after = np.array([1.01, 5e-20, 1e-18])
        assert max_relative_change(before, after, p_min=1e-18) == pytest.approx(0.01)
        assert converged(before, after, 0.02, p_min=1e-18)
        # above the floor a pair counts, and one that rises from zero moved by inf
        assert max_relative_change(before, after, p_min=1e-20) == math.inf
        assert max_relative_change(np.ones(2), np.zeros(2)) == 0.0

    def test_skipped_pair_does_not_enter_the_max(self, rng):
        X = rng.standard_normal((3, 8))
        X[:, 5] = X[:, 2]
        cs = mixed_constraint_set(X, seed=4)
        cs = ConstraintSet(cs.constraints + [Constraint(2, 5, DISSIMILAR)], cs.thresholds)
        with pytest.warns(SolverWarning):
            model = fit_kernel(X.T @ X, cs, SolverConfig(max_sweeps=200))
        assert model.skipped == 1 and model.converged
        assert all(e.skipped == 1 for e in model.trace)
        assert math.isfinite(model.trace[-1].distance_change)

    @pytest.mark.parametrize("fit", ["kernel", "linear"])
    def test_the_fits_measure_the_change_once_per_sweep(self, rng, fit, monkeypatch):
        # the stopping rule, change <= tol, on one measurement per sweep
        X, labels = make_blobs(rng, d=6, n=60, nuisance=2)
        cs = ConstraintSet(generate_from_labels(labels, per_class=15, seed=0),
                           compute_thresholds(euclidean_distance_pool(X)))
        data, run = (X.T @ X, fit_kernel) if fit == "kernel" else (X, fit_linear)
        for change, sweeps in ((np.nextafter(1e300, math.inf), 4), (1e300, 1)):
            calls = []
            monkeypatch.setattr(solver, "max_relative_change",
                                lambda *args: calls.append(args) or change)
            model = run(data, cs, SolverConfig(tol=1e300, max_sweeps=4))
            assert model.converged == (sweeps == 1) and model.sweeps_used == len(calls) == sweeps
            assert all(e.distance_change == change for e in model.trace)

    @pytest.mark.parametrize("fit", ["kernel", "linear"])
    def test_the_stop_follows_tol_exactly(self, rng, fit):
        X, labels = make_blobs(rng, d=6, n=60, nuisance=2)
        cs = ConstraintSet(generate_from_labels(labels, per_class=15, seed=0),
                           compute_thresholds(euclidean_distance_pool(X)))
        data, run = (X.T @ X, fit_kernel) if fit == "kernel" else (X, fit_linear)
        full = run(data, cs, SolverConfig(tol=5e-324, max_sweeps=30))
        changes = [e.distance_change for e in full.trace]
        # the first sweep whose change is below every earlier one, after sweep 1
        s = next(i for i in range(1, len(changes)) if changes[i] < min(changes[:i]))
        for tol, stop in [(changes[s], s + 1),
                          (np.nextafter(changes[s], 0.0),
                           next(i + 1 for i, c in enumerate(changes) if c < changes[s]))]:
            model = run(data, cs, SolverConfig(tol=tol, max_sweeps=30))
            assert model.converged and model.sweeps_used == stop
            capped = run(data, cs, SolverConfig(tol=5e-324, max_sweeps=stop))
            assert _same_bits(getattr(model, "K" if fit == "kernel" else "W"),
                              getattr(capped, "K" if fit == "kernel" else "W"))

    @pytest.mark.parametrize("fit", ["kernel", "linear"])
    def test_one_trace_entry_per_sweep(self, rng, fit):
        X, labels = make_blobs(rng, d=6, n=90, nuisance=2)
        cs = ConstraintSet(generate_from_labels(labels, per_class=20, seed=0),
                           compute_thresholds(euclidean_distance_pool(X)))
        cfg = SolverConfig()
        model = fit_kernel(X.T @ X, cs, cfg) if fit == "kernel" else fit_linear(X, cs, cfg)
        trace = model.trace
        assert len(trace) == model.sweeps_used > 1
        # the last entry decided the stop: every earlier change was above tol
        assert model.converged and trace[-1].distance_change <= cfg.tol
        assert all(e.distance_change > cfg.tol for e in trace[:-1])
        assert trace[-1].active == np.count_nonzero(model.dual.lam)
        for e in trace:
            assert e.lam_to_zero + e.noops + e.skipped <= len(cs)
            assert e.dual_change >= 0 and e.wall_s >= 0
        assert trace[0].dual_change > 0

    def test_the_cap_ends_a_fit_that_still_moves(self, rng):
        X = rng.standard_normal((4, 12))
        cs = mixed_constraint_set(X, seed=1)
        model = fit_linear(X, cs, SolverConfig(max_sweeps=1))
        assert not model.converged and model.sweeps_used == len(model.trace) == 1
        assert model.trace[0].distance_change > DEFAULT_TOL


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from logdetml import evaluation, solver
X, y, K0 = (np.load(path) for path in sys.argv[1:])
cfg = solver.SolverConfig(max_sweeps=40)
for fit, learned in [
        (solver.fit_kernel(K0, evaluation.label_constraints(y, 40, 0, K0=K0), cfg), "K"),
        (solver.fit_linear(X, evaluation.label_constraints(y, 100, 0, X=X), cfg), "W")]:
    digest = hashlib.sha256(getattr(fit, learned).tobytes()).hexdigest()
    print(fit.sweeps_used, fit.converged, digest,
          [e.distance_change.hex() for e in fit.trace])
"""


def test_same_stop_and_bits_on_one_and_two_blas_threads(tmp_path):
    # K0 is built here once: the Gram's own dgemm may round differently on
    # another thread count, and the fit must not
    X, y = load_points_csv(Path(__file__).parent / "data" / "ionosphere.csv", label_col="last")
    inputs = {"X": X, "y": y, "K0": gram(X, KernelSpec.gaussian(median_pairwise_distance(X)))}
    paths = []
    for name, array in inputs.items():
        paths.append(str(tmp_path / f"{name}.npy"))
        np.save(paths[-1], array)
    src = str(Path(logdetml.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, *paths], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert [line.split()[1] for line in outputs[0].splitlines()] == ["True", "True"]
