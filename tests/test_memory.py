"""Peak memory of the n x n stages, traced with ``tracemalloc`` (numpy
reports its buffers to it) and stated in units of n^2 float64 values.

Each bound sits between what the row-block code needs and what the
whole-matrix code it replaced took, given after it in the comment.
"""

import tracemalloc

import numpy as np
import pytest

from logdetml.constraints import euclidean_distance_pool, kernel_distance_pool
from logdetml.evaluation import median_pairwise_distance
from logdetml.learned_kernel import learned_sq_distances
from logdetml.linalg import KernelSpec, gram
from logdetml.lowrank import COEFFICIENT
from logdetml.modelfile import ModelFile


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
def test_euclidean_pool_holds_the_product_and_the_triangle(points, fn):
    assert peak_in_n2(1000, fn, points) <= 1.6  # was 2.5


def test_serving_against_the_training_points_holds_no_n2_buffer():
    rng = np.random.default_rng(1)
    n, k = 2000, 50
    X = rng.standard_normal((20, n))
    mf = ModelFile(kind="iplr", kernel_spec=KernelSpec.gaussian(4.0), thresholds=None,
                   gamma=1.0, seed=0, converged=True, sweeps_used=1, X=X,
                   basis_mode=COEFFICIENT, basis_matrix=rng.standard_normal((n, k)),
                   F=np.eye(k) + np.diag(rng.uniform(0.0, 0.5, k)))
    model = mf.to_learned_kernel()
    assert mf.K0 is None and model.K0 is None  # the Gram that formed T is not kept
    Z = rng.standard_normal((20, 100))
    assert peak_in_n2(n, learned_sq_distances, model, Z, model.X) < 1.0  # was 2.2
