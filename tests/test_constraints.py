import numpy as np
import pytest

from logdetml.constraints import (
    DISSIMILAR,
    SIMILAR,
    Constraint,
    ConstraintGenerationWarning,
    ConstraintSet,
    Thresholds,
    compute_thresholds,
    euclidean_distance_pool,
    gaussian_distance_pool,
    generate_from_labels,
    generate_pairs_random,
    kernel_distance_pool,
)
from logdetml.errors import InvalidArgumentError

from conftest import make_blobs


def test_constraint_rejects_self_pair():
    with pytest.raises(InvalidArgumentError):
        Constraint(2, 2, SIMILAR)


def test_thresholds_ordering_enforced():
    with pytest.raises(InvalidArgumentError):
        Thresholds(u=2.0, l=1.0)
    with pytest.raises(InvalidArgumentError):
        Thresholds(u=0.0, l=1.0)


class TestGenerateFromLabels:
    def test_two_class_counts_and_membership(self):
        cons = generate_from_labels([0, 0, 1, 1], per_class=1, seed=7)
        sims = [c for c in cons if c.kind == SIMILAR]
        diss = [c for c in cons if c.kind == DISSIMILAR]
        assert len(sims) == 2 and len(diss) == 2
        class0_sim = sims[0]
        assert {class0_sim.i, class0_sim.j} <= {0, 1}

    def test_single_class_warns_no_dissimilar(self):
        with pytest.warns(ConstraintGenerationWarning):
            cons = generate_from_labels([0, 0], per_class=1, seed=0)
        assert len(cons) == 1 and cons[0].kind == SIMILAR

    def test_small_class_skips_similars(self):
        with pytest.warns(ConstraintGenerationWarning):
            cons = generate_from_labels([0, 1, 1, 1], per_class=2, seed=0)
        # class 0 is a singleton: its 2 similar pairs are skipped
        assert sum(c.kind == SIMILAR for c in cons) == 2
        assert sum(c.kind == DISSIMILAR for c in cons) == 4

    def test_total_budget_three_classes(self):
        labels = np.repeat([0, 1, 2], 40)
        cons = generate_from_labels(labels, per_class=100, seed=1)
        assert len(cons) == 600  # 2 * 100 * 3

    def test_label_agreement(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=30)
        cons = generate_from_labels(labels, per_class=20, seed=9)
        for c in cons:
            if c.kind == SIMILAR:
                assert labels[c.i] == labels[c.j]
            else:
                assert labels[c.i] != labels[c.j]

    def test_deterministic_and_seed_sensitive(self):
        labels = np.repeat([0, 1], 10)
        a = generate_from_labels(labels, per_class=30, seed=3)
        b = generate_from_labels(labels, per_class=30, seed=3)
        c = generate_from_labels(labels, per_class=30, seed=4)
        assert a == b
        assert a != c


class TestGeneratePairsRandom:
    def test_kinds_follow_labels(self):
        labels = np.array([0, 0, 1, 1, 1])
        cons = generate_pairs_random(labels, 30, seed=2)
        assert len(cons) == 30
        for c in cons:
            expected = SIMILAR if labels[c.i] == labels[c.j] else DISSIMILAR
            assert c.kind == expected

    def test_deterministic(self):
        labels = np.array([0, 1] * 10)
        assert generate_pairs_random(labels, 15, seed=1) == generate_pairs_random(labels, 15, seed=1)


class TestComputeThresholds:
    def test_interpolated_percentiles(self):
        dists = [0.01 * k for k in range(1, 102)]
        t = compute_thresholds(dists)
        assert t.u == pytest.approx(0.02, abs=1e-12)
        assert t.l == pytest.approx(1.00, abs=1e-12)

    def test_constant_pool(self):
        t = compute_thresholds([1.0, 1.0, 1.0])
        assert t.u == t.l == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compute_thresholds([0.0, 0.0, 0.0])

    def test_empty_pool_rejected(self):
        with pytest.raises(InvalidArgumentError, match="empty distance pool"):
            compute_thresholds(np.empty(0))

    def test_read_only_pool_is_left_unchanged(self):
        pool = np.random.default_rng(6).exponential(size=1001)
        expected = compute_thresholds(pool.copy())
        before = pool.copy()
        pool.flags.writeable = False
        assert compute_thresholds(pool) == expected
        assert np.array_equal(pool, before)

    def test_zero_percentile_clamped_to_positive(self):
        # enough zeros to push the 1st percentile to 0
        dists = [0.0] * 50 + [1.0] * 50
        t = compute_thresholds(dists)
        assert t.u == pytest.approx(1e-3)
        assert t.u <= t.l

    def test_ordering_holds_on_random_pools(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pool = rng.exponential(size=50) + 1e-6
            t = compute_thresholds(pool)
            assert 0 < t.u <= t.l


class TestDistancePools:
    def test_kernel_pool_matches_euclidean_pool(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 12))
        pk = kernel_distance_pool(X.T @ X)
        pe = euclidean_distance_pool(X)
        assert np.allclose(np.sort(pk), np.sort(pe), atol=1e-10)

    def test_full_pool_size(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2, 10))
        assert euclidean_distance_pool(X).shape == (45,)

    def test_sampled_pool_for_large_n(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((2, 2501))
        pool = euclidean_distance_pool(X, seed=0)
        assert pool.shape[0] > 100_000  # sampled, minus i==j rejections
        assert np.all(pool >= 0)

    def test_sampled_kernel_pool_reads_the_sampled_pairs_off_the_gram(self, monkeypatch):
        import logdetml.constraints as constraints

        monkeypatch.setattr(constraints, "FULL_POOL_MAX_N", 20)  # not a 2001 x 2001 Gram
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 21))
        X[:, 7] = X[:, 3]  # a coincident pair: its round-off must not go negative
        K = X.T @ X
        pool = kernel_distance_pool(K, seed=5)
        i, j = constraints._sampled_pairs(21, 5)
        assert pool.shape == i.shape and pool.shape[0] > 0.9 * constraints.SAMPLED_PAIRS
        assert np.all(pool >= 0)
        # the Euclidean pool samples the same pairs from the same seed
        assert np.allclose(pool, euclidean_distance_pool(X, seed=5), atol=1e-12)
        assert not np.array_equal(pool, kernel_distance_pool(K, seed=6))


class TestConstraintSet:
    def test_initial_slacks_by_kind(self):
        cs = ConstraintSet(
            [Constraint(0, 1, SIMILAR), Constraint(1, 2, DISSIMILAR)],
            Thresholds(0.5, 4.0),
        )
        assert np.allclose(cs.initial_slacks(), [0.5, 4.0])

    def test_per_pair_override(self):
        cs = ConstraintSet(
            [Constraint(0, 1, SIMILAR), Constraint(1, 2, DISSIMILAR)],
            Thresholds(0.5, 4.0),
            xi0=np.array([0.3, 5.0]),
        )
        assert np.allclose(cs.initial_slacks(), [0.3, 5.0])

    def test_index_validation(self):
        cs = ConstraintSet([Constraint(0, 5, SIMILAR)], Thresholds(1.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            cs.validate_indices(4)


# -- the row-by-row pools against the whole-matrix expressions they replaced ----

def _reference_kernel_pool(K):
    diag = np.diag(K)
    D = diag[:, None] + diag[None, :] - 2.0 * K
    return np.clip(D[np.triu_indices(K.shape[0], k=1)], 0.0, None)


def _reference_euclidean_pool(X):
    aa = np.sum(X * X, axis=0)[:, None]
    D = np.clip(aa + aa.T - 2.0 * (X.T @ X), 0.0, None)
    return D[np.triu_indices(X.shape[1], k=1)]


def _thresholds_or_error(pool):
    """``(u, l)`` of a pool, or the message of the error that refuses it."""
    try:
        t = compute_thresholds(pool)
    except InvalidArgumentError as exc:
        return str(exc)
    return t.u, t.l


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [2, 3, 17, 240])
def test_pools_are_bitwise_the_triu_expressions(n, order):
    from logdetml.linalg import KernelSpec, gram

    rng = np.random.default_rng(n)
    X = rng.standard_normal((5, n)) * 3.0
    X[:, -1] = X[:, 0]  # a coincident pair
    X = np.asfortranarray(X) if order == "F" else np.ascontiguousarray(X)
    # a third of the points on one spot: the 1st percentile is 0, so u is clamped
    # (at n = 2 every distance is 0, and both thresholds refuse the pool)
    crowded = X.copy(order="K")
    crowded[:, ::3] = X[:, :1]
    for P in (X, crowded):
        assert np.array_equal(euclidean_distance_pool(P), _reference_euclidean_pool(P))
        spec = KernelSpec.gaussian(1.3)
        for K in (gram(P, spec), P.T @ P):
            assert np.array_equal(kernel_distance_pool(K), _reference_kernel_pool(K))
        # the gaussian pool read off the points is the pool of their Gram
        from_gram = kernel_distance_pool(gram(P, spec))
        assert np.array_equal(gaussian_distance_pool(P, spec.sigma), from_gram)
        assert (_thresholds_or_error(gaussian_distance_pool(P, spec.sigma))
                == _thresholds_or_error(from_gram))
    if n >= 17:
        pool = gaussian_distance_pool(crowded, 1.3)
        assert compute_thresholds(pool.copy()).u == 1e-3 * pool[pool > 0].min()


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_pools_leave_the_caller_s_matrices_unchanged():
    # the Euclidean pool is packed into the product it owns; a Gram's pool must
    # go elsewhere, since callers (the benchmark's check among them) reuse K0
    from logdetml.evaluation import fit_labeled, label_constraints, median_pairwise_distance
    from logdetml.linalg import KernelSpec, gram, index_points

    X, labels = make_blobs(np.random.default_rng(8), n=90)
    spec = KernelSpec.gaussian(median_pairwise_distance(X))
    K0 = gram(X, spec)
    X_bits, K0_bits = X.tobytes(), K0.tobytes()
    euclidean_distance_pool(X)
    gaussian_distance_pool(X, spec.sigma)
    kernel_distance_pool(K0)
    cs = label_constraints(labels, 10, 0, X=X, K0=K0)
    for basis in ((None, 0), ("kmeans", 6)):
        # K0 as a precomputed kernel: its thresholds are read off the Gram of its index points
        mf, _ = fit_labeled(index_points(X.shape[1]), labels, 0, "kernel",
                            KernelSpec.precomputed(K0), per_class=10, max_sweeps=2, basis=basis)
        # thresholds read off K0 are those fit_labeled takes off the points before K0
        assert mf.thresholds == cs.thresholds == fit_labeled(
            X, labels, 0, "kernel", spec, per_class=10, max_sweeps=2,
            basis=basis)[0].thresholds
    assert X.tobytes() == X_bits and K0.tobytes() == K0_bits


def test_thresholds_in_place_equal_thresholds_of_a_copy():
    pool = np.random.default_rng(4).exponential(size=5001)
    expected = (float(np.percentile(pool, 1.0)), float(np.percentile(pool, 99.0)))
    t = compute_thresholds(pool)
    assert (t.u, t.l) == expected
    zeros = np.concatenate([np.zeros(60), np.arange(1.0, 41.0)])
    assert compute_thresholds(zeros).u == 1e-3


@pytest.mark.parametrize("pool", [
    np.repeat([0.5, 2.0, 2.0, 3.5], [40, 150, 10, 1]),  # tied order statistics
    np.repeat([0.25, 4.0], [1, 99]),  # the 1st percentile falls between two values
    np.array([1.75]),
    np.array([0.5, 3.0]),
    np.array([3.0, 0.5]),
], ids=["ties", "tie-edge", "one-value", "two-values", "two-values-descending"])
def test_thresholds_from_one_partition_equal_two_percentiles_of_a_copy(pool):
    expected = (float(np.percentile(pool, 1.0)), float(np.percentile(pool, 99.0)))
    t = compute_thresholds(pool.copy())
    assert (t.u, t.l) == expected


def test_median_width_is_bitwise_the_median_of_the_root_pool():
    from logdetml.evaluation import median_pairwise_distance

    X = np.random.default_rng(5).standard_normal((4, 301))
    assert median_pairwise_distance(X) == float(np.median(np.sqrt(_reference_euclidean_pool(X))))
