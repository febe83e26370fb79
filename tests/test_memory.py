"""Peak memory of the n x n stages, traced with ``tracemalloc`` (numpy
reports its buffers to it) and stated in units of n^2 float64 values.

Each bound sits between what the row-block code needs and what the
whole-matrix code it replaced took, given after it in the comment.
"""

import tracemalloc

import numpy as np
import pytest

from logdetml.constraints import compute_thresholds, euclidean_distance_pool, kernel_distance_pool
from logdetml.clustering import kernel_kmeans
from logdetml.evaluation import fit_labeled, label_constraints, median_pairwise_distance
from logdetml.learned_kernel import learned_sq_distances
from logdetml.linalg import KernelSpec, gram
from logdetml.lowrank import COEFFICIENT
from logdetml.modelfile import ModelFile

from conftest import make_blobs


def peak_in_n2(n, fn, *args):
    """Peak traced allocation of ``fn(*args)``, in units of n^2 doubles."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * n * n)


@pytest.fixture(scope="module")
def points():
    return np.asfortranarray(np.random.default_rng(0).standard_normal((20, 1000)))


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(3.0), KernelSpec.linear()],
                         ids=["gaussian", "linear"])
def test_gram_holds_one_n2_buffer(points, spec):
    assert peak_in_n2(1000, gram, points, spec) <= 1.3  # was 2.0


def test_kernel_pool_holds_only_the_triangle(points):
    K0 = gram(points, KernelSpec.gaussian(3.0))
    assert peak_in_n2(1000, kernel_distance_pool, K0) <= 0.6  # was 3.0


@pytest.mark.parametrize("fn", [euclidean_distance_pool, median_pairwise_distance])
def test_euclidean_pool_is_packed_into_its_product(points, fn):
    assert peak_in_n2(1000, fn, points) <= 1.2  # was 1.5 (product and triangle), 2.5 before


def test_gaussian_thresholds_hold_no_pool_beside_K0(points):
    # fit_labeled takes them off the points, then builds K0: the two never coexist
    labels = np.arange(1000) % 3

    def thresholds_then_K0():
        cs = label_constraints(labels, 100, 0, X=points, sigma=3.0)
        return cs, gram(points, KernelSpec.gaussian(3.0))

    beside = peak_in_n2(1000, thresholds_then_K0) - peak_in_n2(1000, gram, points,
                                                                KernelSpec.gaussian(3.0))
    assert beside <= 0.1  # was 0.36: the kernel pool read off a K0 already held


def test_kernel_kmeans_never_gathers_the_rows_of_all_movers():
    # its first Lloyd pass moves 314 of 1000 points (test_clustering); the
    # running sums take their rows of K a chunk at a time
    X, _ = make_blobs(np.random.default_rng(1901), n=1000)
    K = gram(X, KernelSpec.gaussian(median_pairwise_distance(X)))
    assert peak_in_n2(1000, kernel_kmeans, K, 10, 0) <= 0.2  # was 0.38


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_a_kmeans_basis_fit_holds_one_n2_buffer():
    # the benchmark's shape at half its n: K0, plus the basis, clustering and fit
    X, labels = make_blobs(np.random.default_rng(1901), n=1000)
    spec = KernelSpec.gaussian(median_pairwise_distance(X))
    assert peak_in_n2(1000, fit_labeled, X, labels, 0, "kernel", spec, 100, 1.0, 5e-2,
                      None, 10, ("kmeans", 50)) <= 1.42  # was 1.66


def test_thresholds_sort_a_writeable_pool_in_place(points):
    pool = euclidean_distance_pool(points)  # 499,500 writeable float64 values
    assert pool.size == 499_500 and pool.dtype == np.float64 and pool.flags.writeable
    half_the_pool = 0.5 * pool.nbytes / (8.0 * 1000 * 1000)
    assert peak_in_n2(1000, compute_thresholds, pool) < half_the_pool  # a copy: the whole pool


def test_serving_against_the_training_points_holds_no_n2_buffer():
    rng = np.random.default_rng(1)
    n, k = 2000, 50
    X = rng.standard_normal((20, n))
    mf = ModelFile(kind="iplr", kernel_spec=KernelSpec.gaussian(4.0), thresholds=None,
                   gamma=1.0, seed=0, converged=True, sweeps_used=1, X=X,
                   basis_mode=COEFFICIENT, basis_matrix=rng.standard_normal((n, k)),
                   F=np.eye(k) + np.diag(rng.uniform(0.0, 0.5, k)))
    model = mf.to_learned_kernel()
    # the Gram that formed T is not kept: neither the file nor the model holds n^2 values
    held = [*vars(mf).values(), *vars(model).values()]
    assert all(v.size < n * n for v in held if isinstance(v, np.ndarray))
    Z = rng.standard_normal((20, 100))
    assert peak_in_n2(n, learned_sq_distances, model, Z, model.X) < 1.0  # was 2.2
