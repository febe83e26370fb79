import numpy as np
import pytest

from logdetml.constraints import (
    DISSIMILAR,
    SIMILAR,
    Constraint,
    ConstraintSet,
    Thresholds,
)
from logdetml.errors import InvalidArgumentError
from logdetml.learned_kernel import LearnedKernelModel, learned_sq_distances
from logdetml.linalg import KernelSpec, logdet_divergence, pair_distance_kernel
from logdetml.lowrank import (
    BasisWarning,
    COEFFICIENT,
    EXPLICIT,
    Basis,
    fit_low_rank,
    reconstruct,
    reduce_problem,
    select_basis_feature,
    select_basis_kernel,
)
from logdetml.solver import SolverConfig, SolverWarning, fit_kernel, fit_linear

from conftest import random_pd
from test_solver import mixed_constraint_set


def random_orthonormal(rng, d, k):
    A = rng.standard_normal((d, k))
    Q, _ = np.linalg.qr(A)
    return Q[:, :k]


class TestBasisSelection:
    def test_topk_svd_full_rank_spans_space(self):
        basis = select_basis_feature(np.eye(3), "topk-svd", 3)
        U = basis.matrix
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-8)
        assert np.allclose(U @ U.T, np.eye(3), atol=1e-8)

    def test_topk_svd_rank_reduction_warns(self, rng):
        X = np.outer(rng.standard_normal(4), rng.standard_normal(6))  # rank 1
        with pytest.warns(BasisWarning):
            basis = select_basis_feature(X, "topk-svd", 3)
        assert basis.k == 1

    def test_class_means_rank_deficiency_warns_and_reduces_k(self):
        # both classes have the mean (1, 1): the two means span one direction
        X = np.array([[0.0, 2.0, 2.0, 0.0], [0.0, 2.0, 0.0, 2.0]])
        with pytest.warns(BasisWarning, match="rank deficient; k reduced from 2 to 1"):
            basis = select_basis_feature(X, "class-means", 2, labels=np.array(["a", "a", "b", "b"]))
        assert basis.k == 1
        assert np.allclose(np.abs(basis.matrix[:, 0]), np.sqrt(0.5), atol=1e-12)

    def test_class_means_cluster_when_classes_exceed_k(self, rng):
        X = rng.standard_normal((5, 40))
        labels = np.repeat([0, 1, 2, 3], 10)
        basis = select_basis_feature(X, "class-means", 2, seed=0, labels=labels)
        assert basis.mode == EXPLICIT and basis.k == 2
        assert np.allclose(basis.matrix.T @ basis.matrix, np.eye(2), atol=1e-8)

    def test_class_means_split_when_k_exceeds_classes(self, rng):
        X = rng.standard_normal((6, 30))
        labels = np.repeat([0, 1], 15)
        basis = select_basis_feature(X, "class-means", 4, seed=0, labels=labels)
        assert basis.k == 4

    def test_subset_full_size_is_permutation(self, rng):
        K0 = random_pd(rng, 5)
        basis = select_basis_kernel(K0, "subset", 5, seed=1)
        J = basis.matrix
        assert np.allclose(np.sort(np.argmax(J, axis=0)), np.arange(5)) or \
            np.allclose(J.sum(axis=0), 1.0)
        assert np.allclose(J.sum(axis=1), 1.0)  # each row used exactly once

    def test_random_j_reproducible(self, rng):
        K0 = random_pd(rng, 6)
        b1 = select_basis_kernel(K0, "random-J", 3, seed=4)
        b2 = select_basis_kernel(K0, "random-J", 3, seed=4)
        assert np.array_equal(b1.matrix, b2.matrix)

    def test_random_j_gram_is_pd_for_identity_kernel(self, rng):
        basis = select_basis_kernel(np.eye(4), "random-J", 2, seed=0)
        G = basis.matrix.T @ basis.matrix
        assert np.linalg.eigvalsh(G)[0] > 0

    def test_kernel_kmeans_indicator_means(self, rng):
        K0 = random_pd(rng, 8)
        basis = select_basis_kernel(K0, "kernel-kmeans", 2, seed=0)
        J = basis.matrix
        # columns are normalized indicators: each column sums to 1
        assert np.allclose(J.sum(axis=0), 1.0)

    def test_k_bounds_validated(self, rng):
        with pytest.raises(InvalidArgumentError):
            select_basis_feature(rng.standard_normal((3, 5)), "topk-svd", 4)
        with pytest.raises(InvalidArgumentError):
            select_basis_kernel(random_pd(rng, 4), "subset", 5)


class TestReduceProblem:
    def test_full_basis_keeps_thresholds(self, rng):
        X = rng.standard_normal((4, 8))
        cs = mixed_constraint_set(X, seed=0)
        basis = Basis(EXPLICIT, np.eye(4), 4)
        Xp, reduced = reduce_problem(X, basis, cs)
        assert np.allclose(Xp, X)
        assert np.allclose(reduced.xi0, cs.initial_slacks(), atol=1e-9)

    def test_orthogonal_basis_direction_removes_pair_distance(self):
        X = np.array([[1.0, -1.0], [0.0, 0.0]])  # pair differs along e1 only
        basis = Basis(EXPLICIT, np.array([[0.0], [1.0]]), 1)  # spans e2
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(1.0, 1.0))
        _, reduced = reduce_problem(X, basis, cs)
        # d_I(x) = 4, d_I(x') = 0: adjusted threshold is u - 4
        assert reduced.xi0[0] == pytest.approx(1.0 - 4.0)

    def test_distance_decomposition_identity(self, rng):
        # d_W = d_I(x) - d_I(x') + d_F(x') for W = I + U (F - I) U^T
        d, k = 6, 3
        for _ in range(100):
            U = random_orthonormal(rng, d, k)
            F = random_pd(rng, k)
            W = np.eye(d) + U @ (F - np.eye(k)) @ U.T
            x1, x2 = rng.standard_normal(d), rng.standard_normal(d)
            g = x1 - x2
            gp = U.T @ g
            lhs = float(g @ W @ g)
            rhs = float(g @ g) - float(gp @ gp) + float(gp @ F @ gp)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_objective_identity(self, rng):
        # D_ld(I + U L U^T, I_d) == D_ld(I + L, I_k)
        d, k = 7, 3
        for _ in range(100):
            U = random_orthonormal(rng, d, k)
            L = random_pd(rng, k) - 0.9 * np.eye(k)  # eigenvalues > -0.9
            big = logdet_divergence(np.eye(d) + U @ L @ U.T, np.eye(d))
            small = logdet_divergence(np.eye(k) + L, np.eye(k))
            assert big == pytest.approx(small, abs=1e-9)


class TestFitAndReconstruct:
    def test_no_violations_leaves_identity_factor(self, rng):
        X = rng.standard_normal((3, 6))
        d01 = float(np.sum((X[:, 0] - X[:, 1]) ** 2))
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(2 * d01, 2 * d01))
        basis = select_basis_feature(X, "topk-svd", 2, seed=0)
        model = fit_low_rank(X, basis, cs)
        assert np.array_equal(model.F, np.eye(2))

    def test_full_basis_matches_unrestricted_solver(self, rng):
        X = rng.standard_normal((5, 11))
        cs = mixed_constraint_set(X, seed=1)
        cfg = SolverConfig(gamma=1.0, tol=1e-9, max_sweeps=20000, seed=0)
        basis = select_basis_feature(X, "topk-svd", 5, seed=0)
        low = fit_low_rank(X, basis, cs, cfg)
        rebuilt = reconstruct(low)
        full = fit_linear(X, cs, cfg)
        rel = np.linalg.norm(rebuilt.W - full.W) / np.linalg.norm(full.W)
        assert rel <= 1e-4

    def test_objective_identity_after_fit(self, rng):
        X = rng.standard_normal((6, 10))
        cs = mixed_constraint_set(X, seed=2)
        basis = select_basis_feature(X, "topk-svd", 3, seed=0)
        low = fit_low_rank(X, basis, cs, SolverConfig(tol=1e-8))
        rebuilt = reconstruct(low)
        big = logdet_divergence(rebuilt.W, np.eye(6))
        small = logdet_divergence(low.F, np.eye(3))
        assert big == pytest.approx(small, abs=1e-8)

    def test_rank_one_reconstruction_hand_value(self):
        basis = Basis(EXPLICIT, np.eye(3)[:, :1], 1)
        from logdetml.lowrank import LowRankModel
        from logdetml.solver import DualState, LinearModel

        inner = LinearModel(W=np.array([[2.0]]),
                            dual=DualState(np.zeros(1), np.ones(1)),
                            converged=True, sweeps_used=1)
        model = LowRankModel(basis=basis, F=np.array([[2.0]]), K0=None, inner=inner)
        rebuilt = reconstruct(model)
        assert np.allclose(rebuilt.W, np.diag([2.0, 1.0, 1.0]))

    def test_kernel_subset_full_basis_matches_fit_kernel(self, rng):
        n = 7
        X = rng.standard_normal((n + 2, n))  # full column rank
        K0 = X.T @ X
        cs = mixed_constraint_set(X, seed=3)
        cfg = SolverConfig(gamma=1.0, tol=1e-9, max_sweeps=20000, seed=0)
        basis = select_basis_kernel(K0, "subset", n, seed=0)
        low = fit_low_rank(K0, basis, cs, cfg)
        model = reconstruct(low, X=X, kernel_spec=KernelSpec.linear())
        full = fit_kernel(K0, cs, cfg)
        # K* = K0 + K0 M K0 with factored M
        MK = model.m_factor @ (model.m_core @ (model.m_factor.T @ K0))
        K_low = K0 + K0 @ MK
        rel = np.linalg.norm(K_low - full.K) / np.linalg.norm(full.K)
        assert rel <= 1e-4

    def test_factored_model_never_materializes_m(self, rng):
        n, k = 9, 3
        X = rng.standard_normal((4, n))
        K0 = X.T @ X
        cs = mixed_constraint_set(X, seed=4)
        basis = select_basis_kernel(K0, "random-J", k, seed=0)
        low = fit_low_rank(K0, basis, cs, SolverConfig(tol=1e-6))
        model = reconstruct(low, X=X, kernel_spec=KernelSpec.linear())
        assert model.M is None
        assert model.m_factor.shape == (n, k)
        assert model.m_core.shape == (k, k)
        # queries still work through the factored form
        D = learned_sq_distances(model, X[:, :3], X[:, :3])
        assert D.shape == (3, 3)

    @pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
    def test_a_coefficient_basis_is_reduced_on_the_gram_it_is_fitted_with(self, rng):
        n, k = 9, 3
        X = rng.standard_normal((4, n))
        K0a, K0b = X.T @ X, X.T @ X + np.eye(n)
        cs = mixed_constraint_set(X, seed=4)
        cfg = SolverConfig(tol=1e-6)
        picked = select_basis_kernel(K0a, "random-J", k, seed=0)
        fresh = Basis(COEFFICIENT, picked.matrix.copy(), k)
        fitted, expected = (fit_low_rank(K0b, b, cs, cfg) for b in (picked, fresh))
        assert fitted.basis.T.tobytes() == expected.basis.T.tobytes()
        assert fitted.F.tobytes() == expected.F.tobytes()
        # nor does the T a fit keeps follow its basis to another Gram
        assert reduce_problem(K0a, fitted.basis, cs)[0].tobytes() == \
            reduce_problem(K0a, fresh, cs)[0].tobytes()

    def test_unreachable_constraint_skipped_with_warning(self):
        X = np.array([[1.0, -1.0], [0.0, 0.0]])
        basis = Basis(EXPLICIT, np.array([[0.0], [1.0]]), 1)
        cs = ConstraintSet([Constraint(0, 1, SIMILAR)], Thresholds(1.0, 1.0))
        with pytest.warns(BasisWarning):
            model = fit_low_rank(X, basis, cs)
        assert np.array_equal(model.F, np.eye(1))
        rebuilt = reconstruct(model)
        assert np.array_equal(rebuilt.W, np.eye(2))
        assert rebuilt.converged is True
        assert rebuilt.sweeps_used == 0

    def test_unreachable_constraint_coefficient_basis(self):
        # x1 - x2 = 2 e2 while the basis sees only x0 = e1: adjusted
        # threshold u - 4 < 0, so the only constraint is dropped
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
        K0 = X.T @ X
        basis = Basis(COEFFICIENT, np.eye(3)[:, :1], 1)
        cs = ConstraintSet([Constraint(1, 2, SIMILAR)], Thresholds(1.0, 1.0))
        with pytest.warns(BasisWarning):
            low = fit_low_rank(K0, basis, cs)
        assert np.array_equal(low.F, np.eye(1))
        model = reconstruct(low, X=X, kernel_spec=KernelSpec.linear())
        assert np.array_equal(model.m_core, np.zeros((1, 1)))
        D = learned_sq_distances(model, X, X)
        euclid = np.sum((X[:, :, None] - X[:, None, :]) ** 2, axis=0)
        assert np.allclose(D, euclid, atol=1e-12)

    def test_reconstruct_keeps_skipped_count(self, rng):
        X = rng.standard_normal((5, 12))
        cs = mixed_constraint_set(X, seed=5)
        # make one dissimilar pair coincident: that constraint is infeasible
        con = next(c for c in cs.constraints if c.kind == DISSIMILAR)
        X[:, con.j] = X[:, con.i]
        basis = select_basis_feature(X, "topk-svd", 5, seed=0)
        with pytest.warns(SolverWarning):
            low = fit_low_rank(X, basis, cs)
        assert reconstruct(low).skipped == low.inner.skipped == 1
