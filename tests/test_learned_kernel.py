from pathlib import Path

import numpy as np
import pytest

from logdetml import evaluation
from logdetml.constraints import Constraint, ConstraintSet, SIMILAR, DISSIMILAR, Thresholds
from logdetml.constraints import compute_thresholds, generate_from_labels, kernel_distance_pool
from logdetml.datasets import load_points_csv
from logdetml.errors import InvalidArgumentError
from logdetml.learned_kernel import (
    LearnedKernelModel,
    compute_M,
    from_kernel_fit,
    learned_distance,
    learned_gram,
    learned_inner_product,
    learned_sq_distances,
    training_pair_distance,
)
from logdetml.linalg import KernelSpec, gram, index_points, pair_distance_kernel
from logdetml.linalg import cross_gram
from logdetml.solver import SolverConfig, fit_kernel

from conftest import random_pd
from test_solver import mixed_constraint_set


class TestComputeM:
    def test_equal_kernels_give_zero(self, rng):
        K0 = random_pd(rng, 4)
        M, jitter = compute_M(K0, K0)
        assert np.allclose(M, 0.0, atol=1e-12)
        assert jitter == 0.0

    def test_identity_input_kernel(self):
        K = np.array([[0.7, 0.3], [0.3, 0.7]])
        M, _ = compute_M(np.eye(2), K)
        assert np.allclose(M, [[-0.3, 0.3], [0.3, -0.3]], atol=1e-12)

    def test_diagonal_hand_value(self):
        K0 = np.diag([2.0, 1.0])
        K = K0 + np.array([[1.0, 0.0], [0.0, 0.0]])
        M, _ = compute_M(K0, K)
        assert np.allclose(M, np.diag([0.25, 0.0]), atol=1e-12)

    def test_defining_identity_holds(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            K0, K = random_pd(rng, n), random_pd(rng, n)
            M, _ = compute_M(K0, K)
            resid = np.linalg.norm(K0 @ M @ K0 - (K - K0)) / max(1.0, np.linalg.norm(K - K0))
            assert resid <= 1e-8


def trained_model(rng, spec, n=10, d=3, gamma=1.0):
    # linear kernels need full column rank (K0 invertible) for the training
    # identities to hold exactly; gaussian Gram matrices are full rank anyway
    if spec.kind == "linear":
        d = max(d, n)
    X = rng.standard_normal((d, n))
    K0 = gram(X, spec)
    cs = mixed_constraint_set(X, seed=0)
    km = fit_kernel(K0, cs, SolverConfig(gamma=gamma, tol=1e-8, seed=0))
    return X, from_kernel_fit(km, X, spec), km


class TestLearnedQueries:
    def test_zero_M_reduces_to_input_kernel(self, rng):
        X = rng.standard_normal((3, 5))
        spec = KernelSpec.gaussian(1.3)
        model = LearnedKernelModel(kernel_spec=spec, X=X, core=np.zeros((5, 5)))
        z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
        from logdetml.linalg import cross_gram

        expected = float(cross_gram(z1[:, None], z2[:, None], spec)[0, 0])
        assert learned_inner_product(model, z1, z2) == pytest.approx(expected, abs=1e-12)

    def test_zero_M_linear_distance_is_euclidean(self, rng):
        X = rng.standard_normal((4, 6))
        model = LearnedKernelModel(kernel_spec=KernelSpec.linear(), X=X, core=np.zeros((6, 6)))
        z1, z2 = rng.standard_normal(4), rng.standard_normal(4)
        assert learned_distance(model, z1, z2) == pytest.approx(
            float(np.sum((z1 - z2) ** 2)), abs=1e-10
        )

    def test_same_point_distance_zero(self, rng):
        X, model, _ = trained_model(rng, KernelSpec.linear())
        z = rng.standard_normal(X.shape[0])
        assert learned_distance(model, z, z) == 0.0

    @pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.gaussian(1.5)])
    def test_training_points_recover_kernel_entries(self, rng, spec):
        X, model, km = trained_model(rng, spec)
        n = X.shape[1]
        for a in range(n):
            for b in range(n):
                ip = learned_inner_product(model, X[:, a], X[:, b])
                assert ip == pytest.approx(km.K[a, b], abs=1e-8)

    @pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.gaussian(1.5)])
    def test_training_pairs_recover_kernel_distances(self, rng, spec):
        X, model, km = trained_model(rng, spec)
        n = X.shape[1]
        for a in range(n):
            for b in range(n):
                d = learned_distance(model, X[:, a], X[:, b])
                assert d == pytest.approx(pair_distance_kernel(km.K, a, b), abs=1e-8)
                assert training_pair_distance(model, a, b) == pytest.approx(d, abs=1e-8)

    def test_linear_kernel_matches_explicit_metric(self, rng):
        X, model, km = trained_model(rng, KernelSpec.linear())
        d = X.shape[0]
        W = np.eye(d) + X @ model.core @ X.T
        for _ in range(20):
            z1, z2 = rng.standard_normal(d), rng.standard_normal(d)
            assert learned_inner_product(model, z1, z2) == pytest.approx(
                float(z1 @ W @ z2), abs=1e-8
            )

    def test_explicit_metric_identity_survives_rank_deficiency(self, rng):
        # kappa + k1^T M k2 == z1^T (I + X M X^T) z2 holds for ANY M, even
        # when K0 was singular and M came from the jittered inverse
        X = rng.standard_normal((3, 10))
        spec = KernelSpec.linear()
        K0 = gram(X, spec)
        cs = mixed_constraint_set(X, seed=0)
        km = fit_kernel(K0, cs, SolverConfig(gamma=1.0, tol=1e-8, seed=0))
        model = from_kernel_fit(km, X, spec)
        assert compute_M(km.K0, km.K)[1] == X.shape[1] - X.shape[0]
        W = np.eye(3) + X @ model.core @ X.T
        for _ in range(20):
            z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
            assert learned_inner_product(model, z1, z2) == pytest.approx(
                float(z1 @ W @ z2), abs=1e-8
            )

    def test_symmetry_in_arguments(self, rng):
        _, model, _ = trained_model(rng, KernelSpec.gaussian(2.0))
        z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
        assert learned_inner_product(model, z1, z2) == pytest.approx(
            learned_inner_product(model, z2, z1), abs=1e-12
        )

    def test_batch_matches_scalar_queries(self, rng):
        _, model, _ = trained_model(rng, KernelSpec.gaussian(1.0))
        Z1 = rng.standard_normal((3, 4))
        Z2 = rng.standard_normal((3, 5))
        D = learned_sq_distances(model, Z1, Z2)
        G = learned_gram(model, Z1, Z2)
        for a in range(4):
            for b in range(5):
                assert G[a, b] == pytest.approx(
                    learned_inner_product(model, Z1[:, a], Z2[:, b]), abs=1e-10)
                assert D[a, b] == pytest.approx(
                    learned_distance(model, Z1[:, a], Z2[:, b]), abs=1e-10)

    def test_pseudometric_on_random_triples(self, rng):
        _, model, _ = trained_model(rng, KernelSpec.gaussian(1.2))
        for _ in range(200):
            z1, z2, z3 = (rng.standard_normal(3) for _ in range(3))
            d12 = np.sqrt(learned_distance(model, z1, z2))
            d21 = np.sqrt(learned_distance(model, z2, z1))
            d13 = np.sqrt(learned_distance(model, z1, z3))
            d23 = np.sqrt(learned_distance(model, z2, z3))
            assert d12 == d21
            assert d12 <= d13 + d23 + 1e-8

    def test_consistency_invariant(self, rng):
        _, model, km = trained_model(rng, KernelSpec.linear())
        K0 = gram(model.X, model.kernel_spec)
        resid = np.linalg.norm(K0 + K0 @ model.core @ K0 - km.K)
        assert resid / np.linalg.norm(km.K) <= 1e-6

    def test_dimension_mismatch_rejected(self, rng):
        _, model, _ = trained_model(rng, KernelSpec.linear())
        with pytest.raises(InvalidArgumentError):
            learned_distance(model, np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("query", [
        lambda m, Z: learned_inner_product(m, Z[:, 0], Z[:, 1]),
        lambda m, Z: learned_distance(m, Z[:, 0], Z[:, 1]),
        lambda m, Z: learned_gram(m, Z),
        lambda m, Z: learned_sq_distances(m, Z, Z),
    ], ids=["inner_product", "distance", "gram", "sq_distances"])
    def test_precomputed_model_refuses_new_points_with_one_message(self, rng, query):
        # its points are the indices 0..3: features, fractions and indices out
        # of range name none of them
        spec = KernelSpec.precomputed(random_pd(rng, 4))
        for form in (dict(core=np.zeros((4, 4))), dict(core=np.eye(2), factor=np.eye(4, 2))):
            model = LearnedKernelModel(kernel_spec=spec, X=index_points(4), **form)
            for Z in (rng.standard_normal((3, 2)), np.array([[0.0, 1.5]]), np.array([[4.0, 0.0]])):
                with pytest.raises(InvalidArgumentError,
                                   match="^precomputed-kernel models cannot score new points$"):
                    query(model, Z)

    def test_factored_model_matches_dense(self, rng):
        X = rng.standard_normal((3, 6))
        spec = KernelSpec.linear()
        B = rng.standard_normal((6, 2))
        core = np.diag([0.5, -0.2])
        M = B @ core @ B.T
        dense = LearnedKernelModel(kernel_spec=spec, X=X, core=M)
        fact = LearnedKernelModel(kernel_spec=spec, X=X, core=core, factor=B)
        z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
        assert learned_inner_product(fact, z1, z2) == pytest.approx(
            learned_inner_product(dense, z1, z2), abs=1e-10)


# -- D2: out-of-sample distances on a numerically singular K0 -----------------

IONOSPHERE = Path(__file__).parent / "data" / "ionosphere.csv"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fold", [0, 1])
def test_ionosphere_fold_serves_training_distances_of_K(seed, fold):
    # The Gaussian Gram of an ionosphere half has eigenvalues at round-off
    # level (some negative); inverting it amplified that round-off into
    # served training distances off by up to 1e22 times the median.
    X, labels = load_points_csv(IONOSPHERE, label_col="last")
    train = evaluation.stratified_split(labels, seed)[fold]
    X, labels = X[:, train], labels[train]
    spec = KernelSpec.gaussian(evaluation.median_pairwise_distance(X))
    K0 = gram(X, spec)
    cs = ConstraintSet(generate_from_labels(labels, per_class=100, seed=seed),
                       compute_thresholds(kernel_distance_pool(K0, seed=seed)))
    km = fit_kernel(K0, cs, SolverConfig(gamma=1.0, max_sweeps=5, seed=seed))
    model = from_kernel_fit(km, X, spec)
    served = learned_sq_distances(model, X, X)
    g = np.diag(km.K)
    ref = g[:, None] + g[None, :] - 2.0 * km.K
    iu = np.triu_indices(X.shape[1], 1)
    assert np.max(np.abs(served - ref)[iu]) <= 1e-8 * np.median(ref[iu])


def test_dropped_rank_of_a_singular_K0():
    # K0 = diag(2, 1, 0): the zero direction is dropped, the rest inverted
    K0 = np.diag([2.0, 1.0, 0.0])
    K = np.diag([3.0, 1.0, 0.0])
    M, dropped = compute_M(K0, K)
    assert dropped == 1
    assert np.allclose(M, np.diag([0.25, 0.0, 0.0]), atol=1e-15)


# -- the one-pass query equals the three-pass code it replaced -----------------
#
# The reference writes each form out longhand: k1^T M k2 for a dense model
# (M = core), and for a factored one its k-dimensional coordinates
# p = factor^T k with p1^T C p2, C = core.

def _kernel_vectors(model, Z):
    return cross_gram(model.X, Z, model.kernel_spec)


def _reference_terms(model, K):
    if model.factor is None:
        return K, model.core @ K
    P = model.factor.T @ K
    return P, model.core @ P


def reference_learned_gram(model, Z1, Z2=None):
    Z1 = np.asarray(Z1, dtype=float)
    Z2same = Z2 is None
    Z2 = Z1 if Z2same else np.asarray(Z2, dtype=float)
    K1 = _kernel_vectors(model, Z1)
    K2 = K1 if Z2same else _kernel_vectors(model, Z2)
    base = cross_gram(Z1, Z2, model.kernel_spec)
    P1, _ = _reference_terms(model, K1)
    _, CP2 = _reference_terms(model, K2)
    return base + P1.T @ CP2


def reference_learned_sq_distances(model, Z1, Z2):
    G12 = reference_learned_gram(model, Z1, Z2)
    g1 = _reference_learned_self_products(model, Z1)
    g2 = _reference_learned_self_products(model, Z2)
    D = g1[:, None] + g2[None, :] - 2.0 * G12
    return np.clip(D, 0.0, None)


def _reference_learned_self_products(model, Z):
    P, CP = _reference_terms(model, _kernel_vectors(model, Z))
    if model.kernel_spec.kind == "gaussian":
        base = np.ones(Z.shape[1])
    else:
        base = np.sum(Z * Z, axis=0)
    return base + np.sum(P * CP, axis=0)


def reference_training_pair_distances(model, I, J):
    """Training index pairs served as the stored points they name, pair by
    pair: kappa(x_i, x_j) + p_i^T C p_j against the learned self products of
    the pairs' distinct points, with kappa and the points' terms evaluated
    over all pairs at once.  A precomputed model, whose points are the indices
    of its table, reads them off the table, and a point's distance to itself
    is 0."""
    u = sorted(set(I) | set(J))
    col = {v: c for c, v in enumerate(u)}
    if model.kernel_spec.kind == "precomputed":
        table = model.kernel_spec.table
        P, CP = _reference_terms(model, table[:, u])
        g = table[u, u] + np.sum(P * CP, axis=0)
        kappa = table[I, J]
    else:
        P, CP = _reference_terms(model, _kernel_vectors(model, model.X[:, u]))
        g = _reference_learned_self_products(model, model.X[:, u])
        kappa = np.diagonal(cross_gram(model.X[:, I], model.X[:, J], model.kernel_spec))
    out = []
    for p, (i, j) in enumerate(zip(I, J)):
        a, b = col[i], col[j]
        d = g[a] + g[b] - 2.0 * (kappa[p] + np.sum(P[:, a] * CP[:, b]))
        out.append(0.0 if i == j else max(0.0, d))
    return np.array(out)


def n_space_sq_distances(model, Z1, Z2):
    """A factored model's distances in n dimensions, with M applied to the
    kernel vectors as factor (core (factor^T k)): the form a factored model
    was served in before it was served in its factor space."""
    def apply_M(K):
        return model.factor @ (model.core @ (model.factor.T @ K))

    def self_products(Z, K):
        base = np.ones(Z.shape[1]) if model.kernel_spec.kind == "gaussian" else np.sum(Z * Z, axis=0)
        return base + np.sum(K * apply_M(K), axis=0)

    K1, K2 = _kernel_vectors(model, Z1), _kernel_vectors(model, Z2)
    G12 = cross_gram(Z1, Z2, model.kernel_spec) + K1.T @ apply_M(K2)
    D = self_products(Z1, K1)[:, None] + self_products(Z2, K2)[None, :] - 2.0 * G12
    return np.clip(D, 0.0, None)


def _query_model(rng, spec, form, n=12, d=4):
    X = rng.standard_normal((d, n))
    B = rng.standard_normal((n, 3))
    core = np.diag([0.4, -0.1, 0.05])
    if form == "dense":
        return LearnedKernelModel(kernel_spec=spec, X=X, core=B @ core @ B.T)
    return LearnedKernelModel(kernel_spec=spec, X=X, core=core, factor=B)


@pytest.mark.parametrize("form", ["dense", "factored"])
@pytest.mark.parametrize("spec", [KernelSpec.gaussian(1.7), KernelSpec.linear()],
                         ids=["gaussian", "linear"])
@pytest.mark.parametrize("seed", range(4))
def test_learned_sq_distances_is_bitwise_reference(seed, spec, form):
    rng = np.random.default_rng(seed)
    model = _query_model(rng, spec, form)
    d = model.X.shape[0]
    Z1 = rng.standard_normal((d, 9))
    Z2 = np.asfortranarray(rng.standard_normal((d, 5)))
    Z1[:, 3] = Z1[:, 1]  # a duplicate query point
    cases = [(Z1, Z1), (Z1, Z2), (Z2, Z1), (Z1, Z1.copy()), (model.X, model.X), (Z1, model.X)]
    for A, B in cases:
        assert np.array_equal(learned_sq_distances(model, A, B),
                              reference_learned_sq_distances(model, A, B))


def _ionosphere_lowrank_model(basis, k):
    from logdetml import lowrank

    X, labels = load_points_csv(IONOSPHERE, label_col="last")
    X, labels = X[:, ::2], labels[::2]
    spec = KernelSpec.gaussian(evaluation.median_pairwise_distance(X))
    K0 = gram(X, spec)
    cs = ConstraintSet(generate_from_labels(labels, per_class=40, seed=0),
                       compute_thresholds(kernel_distance_pool(K0, seed=0)))
    b = lowrank.select_basis_kernel(K0, basis, k, seed=0)
    low = lowrank.fit_low_rank(K0, b, cs, SolverConfig(gamma=1.0, max_sweeps=20, seed=0))
    return lowrank.reconstruct(low, X=X, kernel_spec=spec)


def _cross_formula_cases():
    for seed in range(4):
        for spec in (KernelSpec.gaussian(1.7), KernelSpec.linear()):
            rng = np.random.default_rng(seed)
            model = _query_model(rng, spec, "factored", n=60)
            yield model, rng.standard_normal((model.X.shape[0], 25))
    for basis, k in (("random-J", 8), ("kernel-kmeans", 20)):
        model = _ionosphere_lowrank_model(basis, k)
        yield model, model.X[:, ::3] + 0.01
    rng = np.random.default_rng(12)
    n, k = 2000, 50
    model = LearnedKernelModel(kernel_spec=KernelSpec.gaussian(2.1),
                               X=rng.standard_normal((20, n)),
                               factor=rng.standard_normal((n, k)),
                               core=np.diag(rng.uniform(-0.2, 0.3, k)))
    yield model, rng.standard_normal((20, 100))


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_factor_space_distances_match_the_n_space_form():
    # The two formulas sum in different orders.  A same-set query is held to
    # an exact-zero diagonal: its reference diagonal is 0, not the n-space
    # form's own round-off, and the served self pair must be within the bound.
    for model, Z in _cross_formula_cases():
        for A, B in ((Z, Z), (model.X, model.X), (Z, model.X)):
            served = learned_sq_distances(model, A, B)
            ref = n_space_sq_distances(model, A, B)
            if A is B:
                np.fill_diagonal(ref, 0.0)
            assert np.max(np.abs(served - ref)) <= 1e-12 * np.median(ref)


# -- serving a second point set in column blocks -------------------------------
#
# A block changes only how many columns each BLAS product covers.  Whether a
# column's bits depend on that is up to BLAS: on OpenBLAS they do not for the
# shapes the benchmark serves (a 50-column coefficient basis scored against
# its 2000 training points), and they do, in the last bits, for others (a
# block whose width is no multiple of 8, or a rank-4 factor at n=512).

def test_serving_the_training_points_in_blocks_is_bitwise_reference():
    rng = np.random.default_rng(12)
    n, k = 2000, 50
    model = LearnedKernelModel(kernel_spec=KernelSpec.gaussian(2.1),
                               X=rng.standard_normal((20, n)),
                               factor=rng.standard_normal((n, k)),
                               core=np.diag(rng.uniform(-0.2, 0.3, k)))
    Z = rng.standard_normal((20, 100))
    assert np.array_equal(learned_sq_distances(model, Z, model.X),
                          reference_learned_sq_distances(model, Z, model.X))


@pytest.mark.parametrize("block", [None, 16], ids=["default", "16-columns"])
@pytest.mark.parametrize("form", ["dense", "factored"])
@pytest.mark.parametrize("spec", [KernelSpec.gaussian(1.7), KernelSpec.linear()],
                         ids=["gaussian", "linear"])
def test_column_blocks_match_reference_to_round_off(monkeypatch, block, form, spec):
    from logdetml import learned_kernel

    if block is not None:
        monkeypatch.setattr(learned_kernel, "COLUMN_BLOCK", block)
    rng = np.random.default_rng(11)
    model = _query_model(rng, spec, form, n=300)
    d = model.X.shape[0]
    Z1 = rng.standard_normal((d, 9))
    # four default blocks, the last absorbing 76 columns; or 68 blocks of 16
    Z2 = rng.standard_normal((d, 1100))
    Z2[:, 700] = Z2[:, 3]  # a duplicate point in another block
    for B in (Z2, np.asfortranarray(Z2), Z2[:, :257], model.X):
        served = learned_sq_distances(model, Z1, B)
        ref = reference_learned_sq_distances(model, Z1, B)
        assert served.shape == ref.shape
        assert np.max(np.abs(served - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- a training index is served as the stored point it names --------------------

def _training_pair_model(kind, form):
    rng = np.random.default_rng(5)
    model = _query_model(rng, KernelSpec.linear() if kind == "linear" else KernelSpec.gaussian(1.7),
                         form)
    if kind == "precomputed":  # the Gram of its points, known only by its values
        table = gram(model.X, model.kernel_spec)
        model.kernel_spec, model.X = KernelSpec.precomputed(table), index_points(len(table))
    return model


@pytest.mark.parametrize("form", ["dense", "factored"])
@pytest.mark.parametrize("kind", ["gaussian", "linear", "precomputed"])
def test_training_pairs_are_bitwise_reference(kind, form):
    model = _training_pair_model(kind, form)
    # a self pair, both orders of one pair, a repeated pair and the last index
    I, J = [0, 3, 3, 0, 11, 7, 7, 5], [1, 3, 0, 3, 2, 9, 9, 11]
    served = training_pair_distance(model, np.array(I), np.array(J))
    assert np.array_equal(served, reference_training_pair_distances(model, I, J))
    assert served[1] == 0.0
    for p, (i, j) in enumerate(zip(I, J)):
        one = training_pair_distance(model, i, j)
        assert isinstance(one, float)
        assert one == pytest.approx(served[p], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("block", [None, 3], ids=["default", "3-columns"])
def test_training_pairs_match_the_points_they_name(monkeypatch, block):
    from logdetml import learned_kernel

    if block is not None:  # several blocks of distinct points and of pairs
        monkeypatch.setattr(learned_kernel, "COLUMN_BLOCK", block)
    for form in ("dense", "factored"):
        model = _training_pair_model("gaussian", form)
        I, J = np.triu_indices(12)
        served = training_pair_distance(model, I, J)
        ref = reference_learned_sq_distances(model, model.X, model.X)[I, J]
        ref[I == J] = 0.0
        assert np.max(np.abs(served - ref)) <= 1e-12 * np.median(ref)


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_a_precomputed_model_serves_its_indices_as_the_points_they_name(form):
    # the table is the Gram of the gaussian model's points: index i is point i
    points = _training_pair_model("gaussian", form)
    indices = _training_pair_model("precomputed", form)
    sub = [3, 0, 11, 3]
    served = learned_sq_distances(indices, indices.X[:, sub], indices.X)
    ref = learned_sq_distances(points, points.X[:, sub], points.X)
    assert np.max(np.abs(served - ref)) <= 1e-12 * np.median(ref)
    G = learned_gram(indices, indices.X[:, sub])
    assert np.max(np.abs(G - learned_gram(points, points.X[:, sub]))) <= 1e-12


@pytest.mark.parametrize("kind", ["gaussian", "precomputed"])
def test_training_pairs_refuse_an_index_out_of_range(kind):
    model = _training_pair_model(kind, "factored")
    for I, J in (([0, 12], [1, 2]), (-1, 0)):
        with pytest.raises(InvalidArgumentError, match="training index out of range for n=12"):
            training_pair_distance(model, I, J)
