import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import logdetml
from logdetml.clustering import (_farthest_point_init, _reseed_empty, cluster_indicator,
                                 kernel_kmeans, kmeans, matching_error)
from logdetml.datasets import load_points_csv
from logdetml.errors import InvalidArgumentError, NumericalError
from logdetml.evaluation import median_pairwise_distance
from logdetml.linalg import BLOCK_ELEMENTS, KernelSpec, gram
from logdetml.lowrank import select_basis_kernel

from conftest import make_blobs

IONOSPHERE = Path(__file__).parent / "data" / "ionosphere.csv"


def reference_kernel_kmeans(K, k, seed=0, max_iters=50):
    """The per-cluster kernel k-means loop ``kernel_kmeans`` replaced, kept
    verbatim as the reference its labels must equal."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    rng = np.random.default_rng(seed)
    diag = np.diag(K).copy()

    def dist_to_point(i):
        return np.clip(diag + diag[i] - 2.0 * K[:, i], 0.0, None)

    seeds = _farthest_point_init(dist_to_point, n, k, rng)
    labels = np.full(n, -1)
    # initial assignment: nearest seed point in kernel distance
    D0 = np.stack([dist_to_point(s) for s in seeds], axis=1)
    labels = np.argmin(D0, axis=1)
    for c in range(k):
        if not np.any(labels == c):
            labels[seeds[c]] = c
    for _ in range(max_iters):
        D = np.empty((n, k))
        for c in range(k):
            members = labels == c
            mcount = int(np.sum(members))
            mean_col = K[:, members].mean(axis=1)
            mean_all = float(K[np.ix_(members, members)].sum()) / (mcount * mcount)
            D[:, c] = diag - 2.0 * mean_col + mean_all
        new_labels = np.argmin(D, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(np.min(D, axis=1)))
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def matrix_form_kernel_kmeans(K, k, seed=0, max_iters=50):
    """The matrix-form loop ``kernel_kmeans`` replaced, which formed ``K @ Z``
    in full on every Lloyd pass, kept verbatim as the reference the running
    cluster sums must give the labels of."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    rng = np.random.default_rng(seed)
    diag = np.diag(K).copy()

    def dist_to_point(i):
        return np.clip(diag + diag[i] - 2.0 * K[:, i], 0.0, None)

    seeds = _farthest_point_init(dist_to_point, n, k, rng)
    labels = np.full(n, -1)
    # initial assignment: nearest seed point in kernel distance
    D0 = np.stack([dist_to_point(s) for s in seeds], axis=1)
    labels = np.argmin(D0, axis=1)
    for c in range(k):
        if not np.any(labels == c):
            labels[seeds[c]] = c
    for _ in range(max_iters):
        Z = cluster_indicator(labels, k)
        KZ = K @ Z
        mean_all = np.einsum("ic,ic->c", Z, KZ)
        D = diag[:, None] - 2.0 * KZ + mean_all
        # a seed shared by two clusters (duplicate points) leaves one of them
        # empty before the first pass; it has no mean until the reseed refills it
        D[:, ~Z.any(axis=0)] = np.inf
        new_labels = _reseed_empty(np.argmin(D, axis=1), D)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def gaussian_gram(X):
    return gram(X, KernelSpec.gaussian(median_pairwise_distance(X)))


@pytest.fixture(scope="module")
def ionosphere_gram():
    X, _ = load_points_csv(IONOSPHERE, label_col="last")
    return gaussian_gram(X)


class TestKernelKmeans:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [3, 12])
    def test_matches_reference_loop_on_blobs(self, seed, k):
        X, _ = make_blobs(np.random.default_rng(seed), n=300)
        K = gaussian_gram(X)
        assert np.array_equal(kernel_kmeans(K, k, seed=seed),
                              reference_kernel_kmeans(K, k, seed=seed))

    @pytest.mark.parametrize("seed, k", [(0, 2), (1, 10), (2, 25)])
    def test_matches_reference_loop_on_ionosphere(self, ionosphere_gram, seed, k):
        assert np.array_equal(kernel_kmeans(ionosphere_gram, k, seed=seed),
                              reference_kernel_kmeans(ionosphere_gram, k, seed=seed))

    @pytest.mark.parametrize("n, seed", [(600, 11), (600, 12), (800, 13), (1000, 14),
                                         (1000, 15)])
    @pytest.mark.parametrize("k", [20, 50])
    def test_running_sums_match_the_matrix_form_loop(self, n, seed, k):
        # many passes move only a few points, each updating the sums by its row of K
        X, _ = make_blobs(np.random.default_rng(seed), n=n)
        K = gaussian_gram(X)
        assert np.array_equal(kernel_kmeans(K, k, seed=seed),
                              matrix_form_kernel_kmeans(K, k, seed=seed))

    def test_running_sums_match_the_matrix_form_loop_at_the_benchmark_shape(self):
        X, _ = make_blobs(np.random.default_rng(2301), n=2000)
        K = gaussian_gram(X)
        assert np.array_equal(kernel_kmeans(K, 50, seed=2301),
                              matrix_form_kernel_kmeans(K, 50, seed=2301))

    def test_a_pass_moving_more_points_than_one_chunk_matches_both_loops(self):
        # the first Lloyd pass moves 314 points, so the moved rows of K are
        # added to the running sums in several chunks of BLOCK_ELEMENTS // n rows
        X, _ = make_blobs(np.random.default_rng(1901), n=1000)
        K = gaussian_gram(X)
        first_pass = (matrix_form_kernel_kmeans(K, 10, seed=0, max_iters=1)
                      != matrix_form_kernel_kmeans(K, 10, seed=0, max_iters=0))
        assert np.count_nonzero(first_pass) > 2 * (BLOCK_ELEMENTS // 1000)
        labels = kernel_kmeans(K, 10, seed=0)
        assert np.array_equal(labels, matrix_form_kernel_kmeans(K, 10, seed=0))
        assert np.array_equal(labels, reference_kernel_kmeans(K, 10, seed=0))

    def test_more_clusters_than_distinct_points(self):
        # a reseed that took a cluster's only member left that cluster empty;
        # the per-cluster loop then divided by zero on it
        P = np.array([[0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 5.0]])
        labels = kernel_kmeans(gram(P, KernelSpec.linear()), 5, seed=1)
        assert labels.shape == (7,)
        assert np.all(np.bincount(labels, minlength=5) > 0)

    def test_k_bounds_validated(self):
        with pytest.raises(InvalidArgumentError):
            kernel_kmeans(np.eye(3), 4)


class TestKmeans:
    def test_deterministic_for_a_fixed_seed(self):
        X, _ = make_blobs(np.random.default_rng(5), n=150)
        labels1, centers1 = kmeans(X, 4, seed=3)
        labels2, centers2 = kmeans(X, 4, seed=3)
        assert np.array_equal(labels1, labels2)
        assert np.array_equal(centers1, centers2)
        assert centers1.shape == (X.shape[0], 4)
        assert set(labels1.tolist()) == {0, 1, 2, 3}


# 12 points on 3 distinct values: a Lloyd pass leaves two or more clusters empty
DUPLICATES = np.repeat([[0.0, 1.0, 5.0]], 4, axis=1)


@pytest.mark.parametrize("k", [5, 6, 12])
class TestEmptyClusterReseed:
    """Every empty cluster gets its own point; the reseed used to give them
    all the same farthest point, so all but the last stayed empty (kmeans:
    NaN centers and "Mean of empty slice")."""

    def test_kmeans_leaves_no_cluster_empty(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, centers = kmeans(DUPLICATES, k, seed=0)
        assert np.all(np.isfinite(centers))
        assert np.all(np.bincount(labels, minlength=k) > 0)

    def test_kernel_kmeans_leaves_no_cluster_empty(self, k):
        for spec in (KernelSpec.linear(), KernelSpec.gaussian(1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                labels = kernel_kmeans(gram(DUPLICATES, spec), k, seed=0)
            assert np.all(np.bincount(labels, minlength=k) > 0)

    def test_kernel_kmeans_running_sums_match_the_matrix_form_loop(self, k):
        # duplicate seeds leave clusters empty before the first pass; the reseed
        # refills them, and their sums must then take the rows of the points moved in
        for spec in (KernelSpec.linear(), KernelSpec.gaussian(1.0)):
            K = gram(DUPLICATES, spec)
            assert np.array_equal(kernel_kmeans(K, k, seed=0),
                                  matrix_form_kernel_kmeans(K, k, seed=0))

    def test_kmeans_basis_has_no_zero_column(self, k):
        # the J the kmeans basis draws first; on 3 distinct points J^T K0 J has
        # rank 3 < k, so select_basis_kernel refuses it
        K = gram(DUPLICATES, KernelSpec.gaussian(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J = cluster_indicator(kernel_kmeans(K, k, seed=0), k)
        assert np.all(np.any(J != 0, axis=0))
        assert np.all(np.isfinite(J))
        with pytest.raises(NumericalError, match="J\\^T K0 J is singular"):
            select_basis_kernel(K, "kernel-kmeans", k, seed=0)


def test_cluster_indicator_scales_each_member_by_its_cluster_size():
    Z = cluster_indicator(np.array([2, 0, 2, 2, 0]), 4)
    expected = np.zeros((5, 4))
    expected[[1, 4], 0] = 1.0 / 2
    expected[[0, 2, 3], 2] = 1.0 / 3
    assert np.array_equal(Z, expected)  # the empty clusters 1 and 3 keep zero columns


class TestMatchingError:
    PRED = np.array([0, 0, 1, 1, 1, 2])
    TRUTH = np.array(["a", "a", "b", "b", "a", "c"])

    def test_hand_worked_value(self):
        # best matching 0->a, 1->b, 2->c gets 5 of 6 right
        assert matching_error(self.PRED, self.TRUTH) == pytest.approx(1.0 / 6.0)

    def test_invariant_under_relabelling(self):
        renamed = np.array([7, 3, 9])[self.PRED]
        assert matching_error(renamed, self.TRUTH) == matching_error(self.PRED, self.TRUTH)

    def test_rejects_mismatched_or_empty(self):
        with pytest.raises(InvalidArgumentError):
            matching_error(self.PRED[:2], self.TRUTH)
        with pytest.raises(InvalidArgumentError):
            matching_error([], [])


def test_cli_import_loads_no_scipy():
    """scipy.optimize alone costs every CLI process about 0.7 s of start-up;
    importing the CLI must not pull in any scipy module."""
    src = str(Path(logdetml.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import logdetml.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
