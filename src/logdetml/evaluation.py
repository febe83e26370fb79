"""The one fit path and the evaluation protocol: k-NN under learned
distances, two-fold CV, slack cross-validation, and semi-supervised k-means
clustering error.

``fit_model`` takes points, constraints and fit options to a model file,
and ``serve`` takes any model file to a distance oracle; a precomputed
kernel's points are its indices (``linalg.index_points``).  ``train`` and
``eval`` share ``fit_labeled``, labelled points and fit flags to
``fit_model``: ``train`` saves what it returns, the k-NN learner
(``logdet_learner``) serves it on each training fold.

Distance oracles wrap the different metric sources behind one pairwise
interface.  Tie policy for k-NN (distance ties and vote ties) is: smallest
training index wins, which keeps every run deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lowrank, solver
from .clustering import kmeans, matching_error
from .constraints import (
    DEFAULT_PER_CLASS,
    FULL_POOL_MAX_N,
    ConstraintSet,
    compute_thresholds,
    euclidean_distance_pool,
    gaussian_distance_pool,
    generate_from_labels,
    generate_pairs_random,
    kernel_distance_pool,
)
from .errors import InvalidArgumentError
from .learned_kernel import LearnedKernelModel, compute_M, learned_sq_distances
from .linalg import KernelSpec, gram, inv_psd, pairwise_sq_dists, sqrt_psd
from .modelfile import ModelFile

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
        for Z in (A, B):
            if Z.shape[0] != self.G.shape[0]:
                raise InvalidArgumentError(f"point dimension mismatch: {len(self.G)} vs {len(Z)}")
        return pairwise_sq_dists(self.G @ A, self.G @ B)


class LearnedKernelOracle:
    """Squared distances under a learned kernel model (extends to new points)."""

    def __init__(self, model: LearnedKernelModel):
        self.model = model

    def pairwise(self, A, B):
        return learned_sq_distances(self.model, A, B)


def _k_nearest(D: np.ndarray, k: int) -> np.ndarray:
    """Indices (q, k) of the k nearest of each row of distances D (q, n),
    in ascending index order: the set the first k of a stable argsort keep.

    ``np.partition`` finds each row's k-th smallest distance; the row keeps
    every index strictly below it, then fills up with the lowest indices
    tied at it.  NaN sorts after every number, as in ``np.argsort``: a row
    with fewer than k numbers keeps them all and its lowest-index NaNs.
    """
    D = np.asarray(D, dtype=float)
    kth = np.partition(D, k - 1, axis=1)[:, k - 1:k].copy()
    below = D < kth
    tied = D == kth
    nan_kth = np.isnan(kth)
    if nan_kth.any():
        nan = np.isnan(D)
        below |= nan_kth & ~nan
        tied |= nan_kth & nan
    need = k - np.count_nonzero(below, axis=1, keepdims=True)
    below |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= need)
    return np.nonzero(below)[1].reshape(D.shape[0], k)


def knn_classify(oracle, train_X, train_labels, test_X, k: int):
    """Majority vote over the k nearest training points per test point
    (``_k_nearest``: equal distances go to the smallest training index)."""
    train_labels = np.asarray(train_labels)
    n_train = train_X.shape[1]
    if n_train == 0:
        raise InvalidArgumentError("empty training set")
    if not 1 <= k <= n_train:
        raise InvalidArgumentError(f"k must be in [1, {n_train}], got {k}")
    nearest = _k_nearest(oracle.pairwise(test_X, train_X), k)
    codes = np.unique(train_labels, return_inverse=True)[1].ravel()[nearest]
    rows = np.arange(len(nearest))[:, None]
    votes = np.zeros((len(nearest), codes.max(initial=0) + 1), dtype=int)
    np.add.at(votes, (rows, codes), 1)
    # rows ascend by index: a vote tie goes to the class of the first top-voted one
    votes = votes[rows, codes]
    first = np.argmax(votes == votes.max(axis=1, keepdims=True), axis=1)
    return train_labels[nearest[rows[:, 0], first]]


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
    fold_accuracies: list[float]


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
    return EvalReport(accuracy=float(np.mean(accs)), fold_accuracies=accs)


def crossvalidate_gamma(X, labels, learner_factory, k: int = 10, seed: int = 0) -> float:
    """Pick gamma from the ascending ``GAMMA_GRID`` by an inner two-fold CV
    on the given (training) data.

    ``learner_factory(gamma)`` returns a learner; ties go to the smaller
    gamma (``max`` keeps the first best of the ascending grid).
    """
    return max(GAMMA_GRID, key=lambda gamma: two_fold_cv(
        X, labels, learner_factory(gamma), k=k, seed=seed).accuracy)


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
    The root and the median are taken in place in the pool, which is packed
    into the n x n product it is read from, so this peaks at that buffer."""
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


def label_constraints(labels, per_class: int, seed: int, X=None, K0=None,
                      sigma=None) -> ConstraintSet:
    """The constraint set a LogDet fit trains on: pairs drawn from the
    labels, thresholds from the distance profile of K0 when the fit is in
    kernel space (K0 given), of the gaussian kernel of width sigma on the
    points X when K0 is still to be built (``gaussian_distance_pool``: a full
    pool, bit for bit the one K0 would give), of the points X otherwise."""
    cons = generate_from_labels(labels, per_class=per_class, seed=seed)
    if K0 is not None:
        pool = kernel_distance_pool(K0, seed=seed)
    elif sigma is not None:
        pool = gaussian_distance_pool(X, sigma)
    else:
        pool = euclidean_distance_pool(X, seed=seed)
    return ConstraintSet(cons, compute_thresholds(pool))


# train's --basis names -> lowrank's basis methods
FEATURE_BASES = {"topk": "topk-svd", "classmeans": "class-means"}
KERNEL_BASES = {"random": "random-J", "subset": "subset", "kmeans": "kernel-kmeans"}


def fit_model(X, K0, cs: ConstraintSet, spec: KernelSpec, space: str,
              cfg: solver.SolverConfig, basis=(None, 0), labels=None):
    """The one LogDet fit from (points, constraints, fit options) to a
    model: ``train`` saves what it returns and ``serve`` answers queries.

    ``space`` is ``linear`` or ``kernel``; ``basis`` is ``(name, k)`` with a
    ``--basis`` name, or ``(None, 0)`` for a full-rank fit.  K0, the Gram of
    X under ``spec``, is built when a kernel-space or coefficient-basis fit
    needs it and none is given.  Returns ``(ModelFile, fit)``: the model,
    with the facts ``train`` logs about how the fit ended
    (``modelfile.FACTS``), and the solver's fit (dual, sweeps, trace).
    """
    name, k = basis
    if name is None and space == "linear":
        fit = solver.fit_linear(X, cs, cfg)
        payload = dict(kind="linear", kernel_spec=None, W=fit.W)
    elif name in FEATURE_BASES:
        if spec.kind != "linear":  # a precomputed kernel's points are indices, not features
            raise InvalidArgumentError(f"--basis {name} requires explicit points and a linear kernel")
        b = lowrank.select_basis_feature(X, FEATURE_BASES[name], k, seed=cfg.seed, labels=labels)
        low = lowrank.fit_low_rank(X, b, cs, cfg)
    else:
        K0 = gram(X, spec) if K0 is None else K0
        if name is None:
            fit = solver.fit_kernel(K0, cs, cfg)
            M, dropped_rank = compute_M(fit.K0, fit.K)
            payload = dict(kind="kernel", kernel_spec=spec, X=X, M=M,
                           max_violation=solver.max_violation(fit.K, cs, fit.dual),
                           dropped_rank=dropped_rank)
        else:
            b = lowrank.select_basis_kernel(K0, KERNEL_BASES[name], k, seed=cfg.seed)
            low = lowrank.fit_low_rank(K0, b, cs, cfg)
    if name is not None:
        fit = low.inner
        # the dual state covers only the constraints the basis can reach
        payload = dict(kind="iplr", kernel_spec=spec if b.mode == lowrank.COEFFICIENT else None,
                       X=X, basis_mode=b.mode, basis_matrix=b.matrix, F=low.F,
                       T=low.basis.T, dropped=len(cs) - len(fit.dual.lam))
    mf = ModelFile(thresholds=cs.thresholds, gamma=cfg.gamma, seed=cfg.seed,
                   converged=fit.converged, sweeps_used=fit.sweeps_used,
                   distance_change=fit.trace[-1].distance_change if fit.trace else 0.0,
                   **payload)
    return mf, fit


def serve(mf: ModelFile):
    """The distance oracle of a model file: a d x d metric for the linear
    kind and an explicit basis, the learned kernel otherwise."""
    if mf.kind == "linear" or mf.basis_mode == lowrank.EXPLICIT:
        return MahalanobisOracle(mf.to_mahalanobis())
    return LearnedKernelOracle(mf.to_learned_kernel())


def fit_labeled(X, labels, seed: int, space: str, spec: KernelSpec | None,
                per_class: int = DEFAULT_PER_CLASS, gamma: float | str = 1.0,
                tol: float = solver.DEFAULT_TOL, max_sweeps: int | None = None,
                k: int = 10, basis=(None, 0)):
    """``fit_model`` from labelled points and fit options: ``gamma='cv'``
    tunes the slack by an inner CV of k-NN with this k, ``spec=None`` takes a
    gaussian kernel at the points' median-distance width.

    A gaussian kernel-space fit with a full pool takes its thresholds off the
    points, bit for bit those of the Gram
    (``constraints.gaussian_distance_pool``), before ``fit_model`` builds K0,
    so it never holds the pool and K0 at once.  Other kernel-space fits build
    K0 first and read their thresholds off it."""
    if gamma == "cv":
        gamma = crossvalidate_gamma(X, labels, lambda g: logdet_learner(
            space, spec, per_class, g, tol, max_sweeps, k, basis), k=k, seed=seed)
    spec = spec or KernelSpec.gaussian(median_pairwise_distance(X))
    early = space == "kernel" and spec.kind == "gaussian" and X.shape[1] <= FULL_POOL_MAX_N
    K0 = gram(X, spec) if space == "kernel" and not early else None
    cs = label_constraints(labels, per_class, seed, X=X, K0=K0, sigma=spec.sigma if early else None)
    cfg = solver.SolverConfig(gamma=gamma, tol=tol, max_sweeps=max_sweeps, seed=seed)
    return fit_model(X, K0, cs, spec, space, cfg, basis, labels)


def logdet_learner(space: str, spec: KernelSpec | None, per_class: int = DEFAULT_PER_CLASS,
                   gamma: float | str = 1.0, tol: float = solver.DEFAULT_TOL,
                   max_sweeps: int | None = None, k: int = 10, basis=(None, 0)):
    """A learner that fits what ``train`` fits for these options
    (``fit_labeled``) on the training set it is given, and serves it."""

    def learn(X, labels, seed):
        name, size = basis
        if size > X.shape[1]:
            raise InvalidArgumentError(f"--basis {name}:{size} is larger than a CV fold "
                                       f"({X.shape[1]} training points)")
        return serve(fit_labeled(X, labels, seed, space, spec, per_class, gamma, tol,
                                 max_sweeps, k, basis)[0])

    return learn


def logdet_kernel_learner(spec: KernelSpec | None = None, **opts):
    """``logdet_learner`` in kernel space (a gaussian kernel at each
    training set's median width by default)."""
    return logdet_learner("kernel", spec, **opts)


# ---------------------------------------------------------------------------
# semi-supervised clustering


def semisup_kmeans(points, labels, test_sets, c: int, seed: int = 0) -> list[float]:
    """k-means on all the points (columns: X for the Euclidean geometry, G X for
    a learned metric W = G^T G), scored by the matching error on each test
    subset.  Empty clusters are reseeded at the farthest point."""
    if c < 2:
        raise InvalidArgumentError("need at least 2 clusters")
    pred, _ = kmeans(points, c, seed=seed)
    labels = np.asarray(labels)
    return [matching_error(pred[te], labels[te]) for te in test_sets]


def clustering_protocol(X, labels, n_constraints: int = 50, gamma: float = 1.0,
                        tol: float = solver.DEFAULT_TOL, seed: int = 0):
    """Two-fold semi-supervised clustering run.

    For each fold: learn a LogDet metric from ``n_constraints`` random pairs
    inside the training half (thresholds from that half's distance profile),
    cluster the entire dataset in the learned geometry, and score the test
    half.  The unsupervised baseline uses no fold: one clustering of X scores
    both test halves.  Returns (mean unsupervised error, mean learned-metric
    error).
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    c = len(set(labels.tolist()))
    idx_a, idx_b = stratified_split(labels, seed)
    folds = ((idx_a, idx_b), (idx_b, idx_a))
    unsup = semisup_kmeans(X, labels, [te for _, te in folds], c, seed=seed)
    learned = []
    for tr, te in folds:
        cons = generate_pairs_random(labels[tr], n_constraints, seed=seed)
        # map fold-local indices back to the full dataset
        cons = [type(con)(int(tr[con.i]), int(tr[con.j]), con.kind) for con in cons]
        pool = euclidean_distance_pool(X[:, tr], seed=seed)
        cs = ConstraintSet(cons, compute_thresholds(pool))
        cfg = solver.SolverConfig(gamma=gamma, tol=tol, seed=seed)
        mf, _ = fit_model(X, None, cs, KernelSpec.linear(), "linear", cfg)
        learned += semisup_kmeans(serve(mf).G @ X, labels, [te], c, seed=seed)
    return float(np.mean(unsup)), float(np.mean(learned))
