"""Evaluation protocol: k-NN under learned distances, two-fold CV, slack
cross-validation, and semi-supervised k-means clustering error.

Distance oracles wrap the different metric sources behind one pairwise
interface.  Tie policy for k-NN (distance ties and vote ties) is: smallest
training index wins, which keeps every run deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import solver
from .clustering import kmeans, matching_error
from .constraints import (
    ConstraintSet,
    compute_thresholds,
    euclidean_distance_pool,
    generate_from_labels,
    generate_pairs_random,
    kernel_distance_pool,
)
from .errors import InvalidArgumentError
from .learned_kernel import LearnedKernelModel, from_kernel_fit, learned_sq_distances
from .linalg import KernelSpec, gram, inv_psd, pairwise_sq_dists, sqrt_psd

GAMMA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class EuclideanOracle:
    """Baseline squared Euclidean distance."""

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return pairwise_sq_dists(A, B)


class MahalanobisOracle:
    """Squared distance (x - y)^T W (x - y) for a PSD W, evaluated through
    the factor G with W = G^T G."""

    def __init__(self, W: np.ndarray):
        self.W = np.asarray(W, dtype=float)
        self.G = sqrt_psd(self.W)

    def pairwise(self, A, B):
        return pairwise_sq_dists(self.G @ A, self.G @ B)


class LearnedKernelOracle:
    """Squared distances under a learned kernel model (extends to new points)."""

    def __init__(self, model: LearnedKernelModel):
        self.model = model

    def pairwise(self, A, B):
        return learned_sq_distances(self.model, A, B)


def knn_classify(oracle, train_X, train_labels, test_X, k: int):
    """Majority vote over the k nearest training points per test point."""
    train_labels = np.asarray(train_labels)
    n_train = train_X.shape[1]
    if n_train == 0:
        raise InvalidArgumentError("empty training set")
    if not 1 <= k <= n_train:
        raise InvalidArgumentError(f"k must be in [1, {n_train}], got {k}")
    D = oracle.pairwise(test_X, train_X)
    # stable sort so equal distances resolve to the smallest training index
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    out = []
    for row in order:
        votes: dict = {}
        for idx in row:
            lab = train_labels[idx]
            cnt, first = votes.get(lab, (0, idx))
            votes[lab] = (cnt + 1, min(first, idx))
        # ties between classes go to the class holding the smallest index
        best = max(votes.items(), key=lambda kv: (kv[1][0], -kv[1][1]))
        out.append(best[0])
    return np.array(out)


def stratified_split(labels, seed: int = 0):
    """Seeded 50/50 split keeping each class balanced within one point."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    a_parts, b_parts = [], []
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        if members.size < 2:
            raise InvalidArgumentError(f"class {cls!r} has fewer than 2 members")
        perm = members[rng.permutation(members.size)]
        half = (members.size + 1) // 2
        a_parts.append(perm[:half])
        b_parts.append(perm[half:])
    return np.sort(np.concatenate(a_parts)), np.sort(np.concatenate(b_parts))


@dataclass
class EvalReport:
    accuracy: float
    error: float
    fold_accuracies: list[float]
    config: dict = field(default_factory=dict)


def two_fold_cv(X, labels, learner, k: int = 10, seed: int = 0) -> EvalReport:
    """Standard two-fold protocol: train on one half, classify the other
    against it, swap, report the mean accuracy.

    ``learner(X_train, y_train, seed)`` must return a distance oracle.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if X.shape[1] < 4:
        raise InvalidArgumentError("need at least 4 points for two folds")
    idx_a, idx_b = stratified_split(labels, seed)
    accs = []
    for tr, te in ((idx_a, idx_b), (idx_b, idx_a)):
        oracle = learner(X[:, tr], labels[tr], seed)
        pred = knn_classify(oracle, X[:, tr], labels[tr], X[:, te], k)
        accs.append(float(np.mean(pred == labels[te])))
    acc = float(np.mean(accs))
    return EvalReport(accuracy=acc, error=1.0 - acc, fold_accuracies=accs,
                      config={"k": k, "seed": seed})


def crossvalidate_gamma(X, labels, learner_factory, grid=GAMMA_GRID,
                        k: int = 10, seed: int = 0) -> float:
    """Pick gamma by an inner two-fold CV on the given (training) data.

    ``learner_factory(gamma)`` returns a learner; ties go to the smaller
    gamma (the grid is scanned in ascending order with strict improvement).
    """
    if len(grid) == 0:
        raise InvalidArgumentError("empty gamma grid")
    best_gamma, best_acc = None, -1.0
    for gamma in sorted(grid):
        report = two_fold_cv(X, labels, learner_factory(gamma), k=k, seed=seed)
        if report.accuracy > best_acc:
            best_gamma, best_acc = gamma, report.accuracy
    return best_gamma


def inverse_covariance_baseline(X: np.ndarray) -> np.ndarray:
    """Mahalanobis matrix from the inverse sample covariance (jittered when
    the covariance is singular)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidArgumentError("need at least 2 points for a covariance")
    C = np.atleast_2d(np.cov(X))
    W0, _ = inv_psd(C)
    return W0


def median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean pairwise distance; the default gaussian width.
    The root and the median are taken in place in the pool."""
    D = euclidean_distance_pool(X)
    np.sqrt(D, out=D)
    med = float(np.median(D, overwrite_input=True))
    if med <= 0:
        raise InvalidArgumentError("all points coincide; no usable kernel width")
    return med


# ---------------------------------------------------------------------------
# learners -- pluggable training pipelines for two_fold_cv


def euclidean_learner():
    def learn(X, labels, seed):
        return EuclideanOracle()
    return learn


def inverse_covariance_learner():
    def learn(X, labels, seed):
        return MahalanobisOracle(inverse_covariance_baseline(X))
    return learn


def label_constraints(labels, per_class: int, seed: int, X=None, K0=None) -> ConstraintSet:
    """The constraint set a LogDet fit trains on: pairs drawn from the
    labels, thresholds from the distance profile of K0 when the fit is in
    kernel space (K0 given), of the points X otherwise."""
    cons = generate_from_labels(labels, per_class=per_class, seed=seed)
    if K0 is not None:
        pool = kernel_distance_pool(K0, seed=seed)
    else:
        pool = euclidean_distance_pool(X, seed=seed)
    return ConstraintSet(cons, compute_thresholds(pool))


def logdet_linear_learner(per_class: int = 100, gamma: float | str = 1.0,
                          tol: float = solver.DEFAULT_TOL, max_sweeps: int | None = None,
                          k: int = 10):
    """LogDet metric learning in input space; ``gamma='cv'`` tunes the slack
    parameter on the training fold, by an inner CV of k-NN with this k."""

    def learn(X, labels, seed):
        g = gamma
        if g == "cv":
            g = crossvalidate_gamma(
                X, labels,
                lambda gg: logdet_linear_learner(per_class, gg, tol, max_sweeps),
                k=k, seed=seed,
            )
        cs = label_constraints(labels, per_class, seed, X=X)
        cfg = solver.SolverConfig(gamma=g, tol=tol, max_sweeps=max_sweeps, seed=seed)
        return MahalanobisOracle(solver.fit_linear(X, cs, cfg).W)

    return learn


def logdet_kernel_learner(spec: KernelSpec | None = None, per_class: int = 100,
                          gamma: float | str = 1.0, tol: float = solver.DEFAULT_TOL,
                          max_sweeps: int | None = None, k: int = 10):
    """LogDet learning in kernel space with out-of-sample extension;
    ``spec=None`` uses a gaussian kernel at the median-distance width, and
    ``gamma='cv'`` is tuned by an inner CV of k-NN with this k."""

    def learn(X, labels, seed):
        g = gamma
        if g == "cv":
            g = crossvalidate_gamma(
                X, labels,
                lambda gg: logdet_kernel_learner(spec, per_class, gg, tol, max_sweeps),
                k=k, seed=seed,
            )
        sp = spec or KernelSpec.gaussian(median_pairwise_distance(X))
        K0 = gram(X, sp)
        cs = label_constraints(labels, per_class, seed, K0=K0)
        cfg = solver.SolverConfig(gamma=g, tol=tol, max_sweeps=max_sweeps, seed=seed)
        km = solver.fit_kernel(K0, cs, cfg)
        return LearnedKernelOracle(from_kernel_fit(km, X, sp))

    return learn


# ---------------------------------------------------------------------------
# semi-supervised clustering


def semisup_kmeans(oracle, X, labels, test_idx, c: int, seed: int = 0) -> float:
    """Cluster the whole dataset with k-means in the oracle's geometry and
    report the matching error on the test subset only.

    A Mahalanobis oracle clusters the G-transformed points, a Euclidean one
    the points themselves.  Empty clusters are reseeded at the farthest
    point.
    """
    if c < 2:
        raise InvalidArgumentError("need at least 2 clusters")
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    test_idx = np.asarray(test_idx)
    if isinstance(oracle, MahalanobisOracle):
        pred, _ = kmeans(oracle.G @ X, c, seed=seed)
    elif isinstance(oracle, EuclideanOracle):
        pred, _ = kmeans(X, c, seed=seed)
    else:
        raise InvalidArgumentError(f"unsupported oracle type: {type(oracle).__name__}")
    return matching_error(pred[test_idx], labels[test_idx])


def clustering_protocol(X, labels, n_constraints: int = 50, gamma: float = 1.0,
                        tol: float = solver.DEFAULT_TOL, seed: int = 0):
    """Two-fold semi-supervised clustering run.

    For each fold: learn a LogDet metric from ``n_constraints`` random pairs
    inside the training half (thresholds from that half's distance profile),
    cluster the entire dataset in the learned geometry, and score the test
    half.  Returns (mean unsupervised error, mean learned-metric error).
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    c = len(set(labels.tolist()))
    idx_a, idx_b = stratified_split(labels, seed)
    unsup, learned = [], []
    for tr, te in ((idx_a, idx_b), (idx_b, idx_a)):
        unsup.append(semisup_kmeans(EuclideanOracle(), X, labels, te, c, seed=seed))
        cons = generate_pairs_random(labels[tr], n_constraints, seed=seed)
        # map fold-local indices back to the full dataset
        cons = [type(con)(int(tr[con.i]), int(tr[con.j]), con.kind) for con in cons]
        pool = euclidean_distance_pool(X[:, tr], seed=seed)
        cs = ConstraintSet(cons, compute_thresholds(pool))
        cfg = solver.SolverConfig(gamma=gamma, tol=tol, seed=seed)
        model = solver.fit_linear(X, cs, cfg)
        learned.append(semisup_kmeans(MahalanobisOracle(model.W), X, labels, te, c, seed=seed))
    return float(np.mean(unsup)), float(np.mean(learned))
