from pathlib import Path

import numpy as np
import pytest

from logdetml import evaluation
from logdetml.cli import main
from logdetml.constraints import (SIMILAR, ConstraintSet, compute_thresholds,
                                  euclidean_distance_pool, generate_from_labels,
                                  kernel_distance_pool)
from logdetml.datasets import load_points_csv
from logdetml.evaluation import (
    GAMMA_GRID,
    EuclideanOracle,
    _k_nearest,
    clustering_protocol,
    crossvalidate_gamma,
    euclidean_learner,
    fit_labeled,
    knn_classify,
    logdet_kernel_learner,
    median_pairwise_distance,
    stratified_split,
    two_fold_cv,
)
from logdetml.linalg import KernelSpec, gram, index_points, pair_distance_kernel, pairwise_sq_dists
from logdetml.modelfile import save_model
from logdetml.solver import SolverConfig, fit_kernel, max_violation

from conftest import make_blobs


def separable(n_per=10, classes=2):
    """Tight, far-apart classes: every neighbour of a point shares its label."""
    rng = np.random.default_rng(3)
    parts = [rng.standard_normal((2, n_per)) * 0.1 + 20.0 * c for c in range(classes)]
    labels = np.repeat(np.arange(classes), n_per)
    return np.concatenate(parts, axis=1), labels


class FarthestOracle:
    """Reversed geometry: the nearest neighbours are the farthest points."""

    def pairwise(self, A, B):
        return -pairwise_sq_dists(A, B)


def stub_factory(good, calls):
    """learner_factory whose learners score 1.0 for gamma in ``good`` and
    0.0 otherwise on ``separable`` data; records the gammas it is asked for."""

    def factory(gamma):
        calls.append(gamma)

        def learn(X, labels, seed):
            return EuclideanOracle() if gamma in good else FarthestOracle()

        return learn

    return factory


class TestCrossvalidateGamma:
    def test_all_tied_picks_smallest(self):
        X, y = separable()
        calls = []
        assert crossvalidate_gamma(X, y, stub_factory(set(GAMMA_GRID), calls), k=3) == 0.01
        assert calls == list(GAMMA_GRID)

    def test_tie_among_best_picks_smaller(self):
        X, y = separable()
        assert crossvalidate_gamma(X, y, stub_factory({10.0, 100.0}, []), k=3) == 10.0

    def test_strictly_better_larger_gamma_wins(self):
        X, y = separable()
        assert crossvalidate_gamma(X, y, stub_factory({1000.0}, []), k=3) == 1000.0


class TestTwoFoldCV:
    def test_folds_are_balanced_and_partition_the_data(self):
        X, y = make_blobs(np.random.default_rng(0), d=4, n=31, classes=3, nuisance=1)
        y = np.concatenate([y, [2]])  # class sizes 10, 10, 11
        X = np.concatenate([X, X[:, :1]], axis=1)
        seen = []

        def recording(Xtr, labels, seed):
            seen.append((Xtr.copy(), labels.copy()))
            return EuclideanOracle()

        two_fold_cv(X, y, recording, k=3, seed=5)
        assert len(seen) == 2
        (Xa, ya), (Xb, yb) = seen
        assert Xa.shape[1] + Xb.shape[1] == X.shape[1]
        for cls in np.unique(y):
            na, nb = np.count_nonzero(ya == cls), np.count_nonzero(yb == cls)
            assert na + nb == np.count_nonzero(y == cls)
            assert abs(na - nb) <= 1
        # the two training folds are disjoint: together they hold every point once
        together = np.concatenate([Xa, Xb], axis=1)
        assert sorted(map(tuple, together.T)) == sorted(map(tuple, X.T))

    def test_separable_data_scores_one(self):
        X, y = separable()
        report = two_fold_cv(X, y, euclidean_learner(), k=3, seed=0)
        assert report.fold_accuracies == [1.0, 1.0]
        assert report.accuracy == 1.0


class TestClusteringProtocol:
    def test_deterministic_and_errors_in_unit_interval(self):
        X, y = make_blobs(np.random.default_rng(1), d=6, n=45, classes=3, nuisance=2)
        first = clustering_protocol(X, y, n_constraints=20, seed=4)
        second = clustering_protocol(X, y, n_constraints=20, seed=4)
        assert first == second
        for err in first:
            assert 0.0 <= err <= 1.0

    def test_the_unsupervised_clustering_runs_once(self, monkeypatch):
        # it uses no fold: one k-means of X scores both test halves
        X, y = make_blobs(np.random.default_rng(1), d=6, n=45, classes=3, nuisance=2)
        expected = clustering_protocol(X, y, n_constraints=20, seed=4)
        calls = []
        original = evaluation.kmeans
        monkeypatch.setattr(evaluation, "kmeans",
                            lambda points, *a, **kw: calls.append(points) or original(points, *a, **kw))
        assert clustering_protocol(X, y, n_constraints=20, seed=4) == expected
        assert sum(np.array_equal(points, X) for points in calls) == 1
        assert len(calls) == 3


# -- the paper's central claim: the learned kernel beats the Euclidean metric --

IONOSPHERE = Path(__file__).parent / "data" / "ionosphere.csv"


def test_learned_kernel_beats_euclidean_on_ionosphere():
    # 2-fold 10-NN over the fixed seeds 0-3; measured gaps 0.10, 0.09, 0.10,
    # 0.06 (mean 0.088).  The mean is asserted, not any single seed.
    X, labels = load_points_csv(IONOSPHERE, label_col="last")
    learned = logdet_kernel_learner(max_sweeps=20)  # Gaussian, median width
    gaps = [two_fold_cv(X, labels, learned, k=10, seed=seed).accuracy
            - two_fold_cv(X, labels, euclidean_learner(), k=10, seed=seed).accuracy
            for seed in range(4)]
    assert np.mean(gaps) >= 0.05


@pytest.mark.parametrize("seed", [1, 2])
def test_a_fit_on_the_support_is_the_fit_on_the_whole_gram(seed):
    # the benchmark's ionosphere fit: M sits on the constrained points alone
    from logdetml.linalg import gram
    from logdetml.solver import fit_kernel

    X, labels = load_points_csv(IONOSPHERE, label_col="last")
    mf, on_C = fit_labeled(X, labels, seed, "kernel", None, max_sweeps=20)
    C = mf.support
    assert 280 < C.size < X.shape[1] and mf.M.shape == (C.size, C.size)
    K0 = gram(X, mf.kernel_spec)
    whole = fit_kernel(K0, evaluation.label_constraints(
        labels, 100, seed, kernel_distance_pool(K0, seed=seed)),
                       SolverConfig(max_sweeps=20, seed=seed))
    assert (on_C.sweeps_used, on_C.converged) == (whole.sweeps_used, whole.converged)
    # the delayed updates of two problem sizes sum in other orders: 5e-13 seen
    assert np.max(np.abs(on_C.K - whole.K[np.ix_(C, C)])) <= 1e-11


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("basis", [(None, 0), ("kmeans", 5)], ids=["dense", "kmeans"])
def test_a_precomputed_fold_fits_on_its_own_rows_and_columns_of_the_table(basis):
    # no fold's fit depends on its held-out points: a training fold of index
    # points fits as a table that holds that fold alone
    X, labels = load_points_csv(IONOSPHERE, label_col="last")
    table = gram(X, KernelSpec.gaussian(3.0))
    points = index_points(X.shape[1])
    for tr in stratified_split(labels, seed=0):
        fold, _ = fit_labeled(points[:, tr], labels[tr], 0, "kernel",
                              KernelSpec.precomputed(table), max_sweeps=3, basis=basis)
        alone, _ = fit_labeled(index_points(tr.size), labels[tr], 0, "kernel",
                               KernelSpec.precomputed(table[np.ix_(tr, tr)]), max_sweeps=3,
                               basis=basis)
        assert fold.thresholds == alone.thresholds
        for key in ("support", "M", "basis_matrix", "F", "T"):
            a, b = getattr(fold, key), getattr(alone, key)
            assert (a is None and b is None) or np.array_equal(a, b), key
        assert np.array_equal(fold.X, points[:, tr])


def test_metric_distances_within_one_set_are_the_two_set_bits():
    # pairwise(Z, Z) takes the two-set path: a shortcut summing (GZ)^T (GZ) on
    # one buffer would be a symmetric product (syrk), which on OpenBLAS gives
    # these 351 points other bits than the general product of two buffers
    X, _ = load_points_csv(IONOSPHERE, label_col="last")
    A = np.random.default_rng(0).standard_normal((34, 34))
    oracle = evaluation.MahalanobisOracle(A @ A.T / 34 + np.eye(34))
    two_sets = pairwise_sq_dists(oracle.G @ X, oracle.G @ X)
    assert oracle.pairwise(X, X).tobytes() == two_sets.tobytes()


# -- the k nearest by partition keep the set a stable argsort keeps ----------------

def stable_argsort_sets(D, k):
    """The first k of a stable argsort of each row, in ascending index order."""
    return np.sort(np.argsort(D, axis=1, kind="stable")[:, :k], axis=1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_k_nearest_is_the_stable_argsort_set(k):
    nan = np.nan
    D = np.array([
        [3.0, 1.0, 2.0, 2.0, 2.0, 0.5],   # a tie over places 3 to 5, straddling k = 3, 4
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],   # an all-equal row
        [nan, 1.0, 0.0, nan, 4.0, 1.0],   # NaN sorts last, its ties by index
        [nan, nan, nan, 7.0, nan, nan],   # fewer numbers than most k
        [1.0, -np.inf, np.inf, 1.0, 0.0, -1.0],
        [nan, nan, nan, nan, nan, nan],
    ])
    assert np.array_equal(_k_nearest(D, k), stable_argsort_sets(D, k))


@pytest.mark.parametrize("seed", range(5))
def test_k_nearest_on_rounded_random_distances(seed):
    # few distinct values, so most rows have ties at the k-th distance
    rng = np.random.default_rng(seed)
    D = np.round(rng.uniform(0, 3, size=(40, 30)))
    D[rng.uniform(size=D.shape) < 0.05] = np.nan
    for k in (1, 7, 10, 29, 30):
        assert np.array_equal(_k_nearest(D, k), stable_argsort_sets(D, k))


def test_knn_classify_ties_go_to_the_smallest_training_index():
    class Fixed:
        def pairwise(self, A, B):
            return np.array([[1.0, 0.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])

    train_labels = np.array(["a", "b", "c", "c"])
    X = np.zeros((1, 4))
    # k=2: row 0 keeps b and, of the three tied at 1.0, a (index 0); row 1 keeps
    # indices 0 and 1; each vote ties, and goes to the class of the smaller index
    assert knn_classify(Fixed(), X, train_labels, np.zeros((1, 2)), 2).tolist() == ["a", "a"]
    # k=3 keeps a, b, c in both rows; k=4 gives c two votes
    assert knn_classify(Fixed(), X, train_labels, np.zeros((1, 2)), 3).tolist() == ["a", "a"]
    assert knn_classify(Fixed(), X, train_labels, np.zeros((1, 2)), 4).tolist() == ["c", "c"]


def reference_knn_votes(D, train_labels, k):
    """The per-row vote with a dict: the most votes win, then the class
    holding the smallest index among the k nearest."""
    out = []
    for row in _k_nearest(D, k):
        votes = {}
        for idx in row:
            cnt, first = votes.get(train_labels[idx], (0, idx))
            votes[train_labels[idx]] = (cnt + 1, min(first, idx))
        out.append(max(votes.items(), key=lambda kv: (kv[1][0], -kv[1][1]))[0])
    return out


@pytest.mark.parametrize("seed", range(3))
def test_knn_classify_votes_as_the_per_row_loop(seed):
    rng = np.random.default_rng(seed)
    D = np.round(rng.uniform(0, 3, size=(40, 30)))  # ties at the k-th distance

    class Fixed:
        def pairwise(self, A, B):
            return D

    train_labels = rng.choice(np.array(["x", "y", "z", "w"]), 30)
    for k in (1, 2, 4, 7, 30):
        assert (knn_classify(Fixed(), np.zeros((1, 30)), train_labels, np.zeros((1, 40)), k)
                .tolist() == reference_knn_votes(D, train_labels, k))


# -- one labelled-fit recipe: train writes the model fit_labeled returns -----------

@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags, space, basis", [
    (["--space", "linear"], "linear", (None, 0)),
    (["--kernel", "gaussian"], "kernel", (None, 0)),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], "kernel", ("kmeans", 8)),
], ids=["space-linear", "kernel-gaussian", "basis-kmeans8"])
def test_train_writes_the_model_fit_labeled_returns(tmp_path, flags, space, basis):
    data = tmp_path / "every6.csv"
    data.write_text("\n".join(IONOSPHERE.read_text().splitlines()[::6]) + "\n")
    trained = tmp_path / "trained.model"
    assert main(["train", "--data", str(data), "--label-col", "last", "--per-class", "10",
                 "--seed", "3", *flags, "--out", str(trained)]) == 0
    X, labels = load_points_csv(data, label_col="last")
    spec = (KernelSpec.linear() if space == "linear"
            else KernelSpec.gaussian(median_pairwise_distance(X)))
    mf, _ = fit_labeled(X, labels, 3, space, spec, per_class=10, basis=basis)
    saved = tmp_path / "fit_labeled.model"
    save_model(saved, mf)
    assert saved.read_bytes() == trained.read_bytes()


# -- one Gram pair distance -----------------------------------------------------------

def test_pair_distance_kernel_on_index_arrays_is_the_scalar_calls():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((7, 9))
    K = A @ A.T
    I, J = rng.integers(0, 7, size=60), rng.integers(0, 7, size=60)
    scalar = np.array([pair_distance_kernel(K, int(i), int(j)) for i, j in zip(I, J)])
    assert pair_distance_kernel(K, I, J).tobytes() == scalar.tobytes()


def test_max_violation_is_the_per_constraint_loop():
    X, y = make_blobs(np.random.default_rng(2), d=5, n=45, classes=3, nuisance=1)
    cs = ConstraintSet(generate_from_labels(y, per_class=8, seed=1),
                       compute_thresholds(euclidean_distance_pool(X)))
    fit = fit_kernel(X.T @ X, cs, SolverConfig(max_sweeps=2))
    K, xi = fit.K, fit.dual.xi
    worst = 0.0
    for c, con in enumerate(cs.constraints):
        d = K[con.i, con.i] + K[con.j, con.j] - 2.0 * K[con.i, con.j]
        worst = max(worst, d - xi[c] if con.kind == SIMILAR else xi[c] - d)
    assert worst > 0.0  # two sweeps leave some constraint violated
    assert max_violation(K, cs, fit.dual) == worst
