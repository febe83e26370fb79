import math

import numpy as np
import pytest

from logdetml.constraints import (
    DISSIMILAR,
    SIMILAR,
    Constraint,
    ConstraintSet,
    Thresholds,
    compute_thresholds,
    euclidean_distance_pool,
)
from logdetml.errors import InvalidArgumentError
from logdetml.linalg import pair_distance_kernel, psd_tolerance
from logdetml.solver import (
    SolverConfig,
    _projection_scalars,
    converged,
    fit_kernel,
    fit_linear,
    fit_linear_with_prior,
    project_constraint_kernel,
    project_constraint_linear,
)

from conftest import random_pd


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
            fit_kernel(np.diag([1.0, -1.0]), cs)

    def test_rejects_empty_constraints(self):
        cs = ConstraintSet([], Thresholds(1.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            fit_kernel(np.eye(2), cs)


class TestFitLinear:
    def test_no_violations_returns_identity(self, rng):
        X = np.eye(3)
        cs = ConstraintSet(
            [Constraint(0, 1, SIMILAR)], Thresholds(5.0, 5.0)
        )
        model = fit_linear(X, cs)
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
            fit_linear_with_prior(X, np.diag([1.0, 1.0, 0.0]), cs)
