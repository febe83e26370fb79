import math

import numpy as np
import pytest

from logdetml.constraints import compute_thresholds
from logdetml.errors import InvalidArgumentError, NumericalError
from logdetml.linalg import (
    KernelSpec,
    cross_gram,
    gram,
    index_points,
    inv_psd,
    inv_sqrt,
    kernel_diagonal,
    logdet_divergence,
    min_eigenvalue,
    pair_distance_kernel,
    pairwise_sq_dists,
    sqrt_psd,
)

from conftest import random_pd


class TestLogDetDivergence:
    def test_identity_pair_is_zero(self):
        assert logdet_divergence(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_identity(self):
        # tr = 4, log det(2 I_2) = 2 ln 2, so 4 - 2 ln 2 - 2 = 2 - 2 ln 2
        val = logdet_divergence(2 * np.eye(2), np.eye(2))
        assert val == pytest.approx(2 - 2 * math.log(2), abs=1e-12)

    def test_singular_first_argument_gives_inf(self):
        assert logdet_divergence(np.diag([1.0, 0.0]), np.eye(2)) == math.inf

    def test_singular_second_argument_rejected(self):
        with pytest.raises(InvalidArgumentError):
            logdet_divergence(np.eye(2), np.diag([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            logdet_divergence(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_nonnegative_on_random_pd_pairs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            dim = int(rng.integers(1, 9))
            A, B = random_pd(rng, dim), random_pd(rng, dim)
            assert logdet_divergence(A, B) >= -1e-12
            assert logdet_divergence(A, A) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, alpha, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            A, B = random_pd(rng, dim), random_pd(rng, dim)
            base = logdet_divergence(A, B)
            assert logdet_divergence(alpha * A, alpha * B) == pytest.approx(base, abs=1e-9)


class TestGram:
    def test_linear_unit_vectors(self):
        assert np.allclose(gram(np.eye(2), KernelSpec.linear()), np.eye(2))

    def test_linear_matches_xtx(self, rng):
        X = rng.standard_normal((4, 7))
        assert np.max(np.abs(gram(X, KernelSpec.linear()) - X.T @ X)) <= 1e-12

    def test_gaussian_single_point(self):
        K = gram(np.array([[1.0], [0.0]]), KernelSpec.gaussian(1.0))
        assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_gaussian_two_points(self):
        K = gram(np.array([[1.0, -1.0]]), KernelSpec.gaussian(1.0))
        assert K[0, 1] == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert K[0, 0] == 1.0

    def test_precomputed_rejected(self):
        # points that are not a row of indices into the table
        with pytest.raises(InvalidArgumentError):
            gram(np.eye(2), KernelSpec.precomputed(np.eye(2)))

    def test_precomputed_kernel_slices_its_table(self, rng):
        table = random_pd(rng, 6)
        spec = KernelSpec.precomputed(table)
        X = index_points(6)
        assert X.shape == (1, 6) and np.array_equal(X[0], np.arange(6))
        # all of the index points, in order: the table itself, read and never copied
        assert gram(X, spec) is spec.table
        for cols in (slice(None, None, -1), slice(0, 4)):
            sub = gram(X[:, cols], spec)
            assert not np.shares_memory(sub, table)
            assert np.array_equal(sub, table[cols, cols])
        a, b = X[:, [4, 1, 1]], X[:, [0, 5]]
        assert np.array_equal(cross_gram(a, b, spec), table[np.ix_([4, 1, 1], [0, 5])])
        assert np.array_equal(kernel_diagonal(a, spec), table[[4, 1, 1], [4, 1, 1]])
        for Z in (X[:, :3] + 0.5, X + 6, -X[:, 1:], np.vstack([X, X]), np.full((1, 2), np.nan)):
            for evaluate in (lambda: gram(Z, spec), lambda: cross_gram(X, Z, spec),
                             lambda: kernel_diagonal(Z, spec)):
                with pytest.raises(InvalidArgumentError,
                                   match="^precomputed-kernel models cannot score new points$"):
                    evaluate()

    def test_a_precomputed_table_is_not_part_of_equality(self, rng):
        a, b = KernelSpec.precomputed(np.eye(3)), KernelSpec.precomputed(random_pd(rng, 4))
        assert a == b and hash(a) == hash(b)
        assert a != KernelSpec.linear()

    def test_kernel_diagonal_is_the_gram_diagonal(self, rng):
        X = rng.standard_normal((3, 7))
        for spec in (KernelSpec.linear(), KernelSpec.gaussian(0.9)):
            # the BLAS product and np.sum may add a linear diagonal in other orders
            assert np.allclose(kernel_diagonal(X, spec), np.diagonal(gram(X, spec)),
                               rtol=1e-14, atol=0)

    def test_cross_gram_matches_gram_blocks(self, rng):
        X = rng.standard_normal((3, 5))
        for spec in (KernelSpec.linear(), KernelSpec.gaussian(0.7)):
            full = gram(X, spec)
            assert np.allclose(cross_gram(X, X, spec), full, atol=1e-12)

    def test_gaussian_needs_positive_sigma(self):
        with pytest.raises(InvalidArgumentError):
            KernelSpec.gaussian(0.0)


# The buffered Gram and distance code against the plain expressions it
# replaced, copied as they were: the results must be equal bit for bit.

def reference_pairwise_sq_dists(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    aa = np.sum(A * A, axis=0)[:, None]
    bb = np.sum(B * B, axis=0)[None, :]
    D = aa + bb - 2.0 * (A.T @ B)
    return np.clip(D, 0.0, None)


def reference_gaussian_gram(X, sigma):
    D = reference_pairwise_sq_dists(X, X)
    K = np.exp(-D / (2.0 * sigma**2))
    np.fill_diagonal(K, 1.0)
    return 0.5 * (K + K.T)


def _points(rng, d, n, order, duplicates):
    X = rng.standard_normal((d, n)) * rng.uniform(0.1, 10.0)
    if duplicates and n > 2:
        X[:, n - 1] = X[:, 0]
        X[:, 1] = X[:, 0]
    return np.asfortranarray(X) if order == "F" else np.ascontiguousarray(X)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
@pytest.mark.parametrize("seed", range(5))
def test_buffered_gram_and_distances_are_bitwise_reference(seed, duplicates, order):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 60):
        d = int(rng.integers(1, 30))
        X = _points(rng, d, n, order, duplicates)
        Z = _points(rng, d, int(rng.integers(1, 20)), order, duplicates)
        sigma = float(rng.uniform(0.3, 4.0))
        assert np.array_equal(gram(X, KernelSpec.gaussian(sigma)),
                              reference_gaussian_gram(X, sigma))
        assert np.array_equal(pairwise_sq_dists(X, X), reference_pairwise_sq_dists(X, X))
        assert np.array_equal(pairwise_sq_dists(X, Z), reference_pairwise_sq_dists(X, Z))
        assert np.array_equal(cross_gram(X, Z, KernelSpec.gaussian(sigma)),
                              np.exp(-reference_pairwise_sq_dists(X, Z) / (2.0 * sigma**2)))


class TestPairDistanceKernel:
    def test_identity(self):
        assert pair_distance_kernel(np.eye(2), 0, 1) == pytest.approx(2.0)

    def test_same_index_is_zero(self, rng):
        K = random_pd(rng, 5)
        assert pair_distance_kernel(K, 3, 3) == 0.0

    def test_hand_value(self):
        K = np.array([[0.7, 0.3], [0.3, 0.7]])
        assert pair_distance_kernel(K, 0, 1) == pytest.approx(0.8)

    def test_matches_euclidean_under_linear_kernel(self, rng):
        X = rng.standard_normal((4, 6))
        K = X.T @ X
        for i in range(6):
            for j in range(6):
                expected = float(np.sum((X[:, i] - X[:, j]) ** 2))
                assert pair_distance_kernel(K, i, j) == pytest.approx(expected, abs=1e-10)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            pair_distance_kernel(np.eye(2), 0, 2)


class TestEigPrimitives:
    def test_min_eigenvalue_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_min_eigenvalue_diag(self):
        assert min_eigenvalue(np.diag([2.0, -1.0])) == pytest.approx(-1.0)

    def test_min_eigenvalue_2x2(self):
        assert min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)

    def test_inv_sqrt_identity(self):
        assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_inv_sqrt_diagonal(self):
        B = inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(B, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_inv_sqrt_singular_fails(self):
        with pytest.raises(NumericalError):
            inv_sqrt(np.diag([1.0, 0.0]), jitter=0.0)

    def test_inv_sqrt_round_trip(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 21))
            A = random_pd(rng, dim)
            B = inv_sqrt(A)
            err = np.linalg.norm(B @ A @ B - np.eye(dim)) / np.sqrt(dim)
            assert err <= 1e-8

    def test_sqrt_psd_round_trip(self, rng):
        A = random_pd(rng, 6)
        S = sqrt_psd(A)
        assert np.allclose(S @ S, A, atol=1e-10)

    def test_inv_psd_reports_jitter(self, rng):
        A = random_pd(rng, 4)
        Ainv, used = inv_psd(A)
        assert used == 0.0
        assert np.allclose(Ainv @ A, np.eye(4), atol=1e-8)
        # singular matrix gets rescued with the default relative jitter
        B = np.diag([1.0, 1.0, 0.0])
        Binv, used = inv_psd(B)
        assert used > 0.0
        with pytest.raises(NumericalError):
            inv_psd(np.zeros((2, 2)))


class TestPercentile:
    """The 1st/99th-percentile rule that compute_thresholds applies to a pool."""

    def test_single_value(self):
        t = compute_thresholds([5.0])
        assert t.u == t.l == 5.0

    def test_midpoint_interpolation(self):
        t = compute_thresholds([0.0, 10.0])
        assert t.u == pytest.approx(0.1)
        assert t.l == pytest.approx(9.9)

    def test_rank_interpolation(self):
        vals = np.random.default_rng(2).permutation([0.01 * k for k in range(1, 102)])
        t = compute_thresholds(vals)
        assert t.u == pytest.approx(0.02, abs=1e-12)
        assert t.l == pytest.approx(1.00, abs=1e-12)

    def test_a_sequence_gives_each_percentile_from_one_sort(self):
        vals = np.random.default_rng(3).exponential(size=1001)
        t = compute_thresholds(vals.copy())
        assert (t.u, t.l) == tuple(float(np.percentile(vals, p)) for p in (1.0, 99.0))
        assert type(t.u) is float and type(t.l) is float


# -- the row-block passes against the same whole-matrix references -------------

@pytest.mark.parametrize("block", [None, 64, 700], ids=["default", "row", "11-rows"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
def test_row_block_gram_and_distances_are_bitwise_reference(monkeypatch, block, order,
                                                            duplicates):
    from logdetml import linalg

    if block is not None:
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(7)
    n = 600 if block is None else 60  # 6 blocks of 109 rows by default
    X = _points(rng, 13, n, order, duplicates)
    Z = _points(rng, 13, 97, order, duplicates)
    sigma = 2.3
    assert np.array_equal(gram(X, KernelSpec.gaussian(sigma)), reference_gaussian_gram(X, sigma))
    assert np.array_equal(gram(X, KernelSpec.linear()), 0.5 * ((X.T @ X) + (X.T @ X).T))
    assert np.array_equal(pairwise_sq_dists(X, X), reference_pairwise_sq_dists(X, X))
    assert np.array_equal(pairwise_sq_dists(Z, X), reference_pairwise_sq_dists(Z, X))
    assert np.array_equal(cross_gram(Z, X, KernelSpec.gaussian(sigma)),
                          np.exp(-reference_pairwise_sq_dists(Z, X) / (2.0 * sigma**2)))


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16])
def test_symmetrize_in_place_is_bitwise_symmetrize(monkeypatch, block):
    from logdetml import linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", block)
    A = np.random.default_rng(block).standard_normal((37, 37))
    expected = 0.5 * (A + A.T)
    out = linalg.symmetrize_in_place(A)
    assert out is A
    assert np.array_equal(A, expected)
