"""Command-line surface: train models, query distances, run evaluations.

Exit codes: 0 success, 2 malformed data, 3 infeasible or numerical failure,
4 bad flags.  Every run logs its full effective configuration to stderr so
an output is reproducible from the log alone, and stdout carries only data;
all randomness flows from --seed.

``distance`` writes a CSV with the header ``i,j,sq_distance`` and one row
per pair, each value formatted ``.12g``.  With ``--points`` the rows are
every pair i <= j of the query points in row-major order (i ascending, then
j), the diagonal written as 0; with ``--pairs`` they are the given training
index pairs in file order.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time

import numpy as np

from . import evaluation, lowrank, solver
from .alt_solvers import constraint_excess, constraints_to_general, fit_frob_kernel, fit_vn_kernel
from .constraints import (
    ConstraintSet,
    compute_thresholds,
    euclidean_distance_pool,
    generate_from_labels,
    kernel_distance_pool,
)
from .datasets import load_kernel_csv, load_labels_file, load_points_csv
from .errors import InvalidArgumentError, NumericalError
from .learned_kernel import compute_M, learned_sq_distances, training_pair_distance
from .linalg import KernelSpec, gram
from .modelfile import ModelFile, load_model, save_model
from .solver import SolverConfig, max_violation

EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_FLAGS = 4

# The von Neumann loss runs no sweeps: its fit counts as converged when the
# learned kernel meets every constraint to this fraction of its threshold.
VN_VIOLATION_RTOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_FLAGS)


def _checked(convert, ok, what: str):
    """An argparse type: ``convert(text)``, rejected unless ``ok(value)``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v > 0, "positive")
_positive_float = _checked(float, lambda v: v > 0, "positive")
_nonnegative_float = _checked(float, lambda v: v >= 0, "nonnegative")


def _kernel_arg(text: str) -> str:
    if text in ("linear", "precomputed", "gaussian"):
        return text
    if text.startswith("gaussian:"):
        sigma = float(text.split(":", 1)[1])
        if not 0 < sigma < math.inf:
            raise argparse.ArgumentTypeError(f"gaussian width must be positive and finite: {text!r}")
        return text
    raise argparse.ArgumentTypeError(f"unknown kernel: {text!r}")


def _parse_gamma(text: str):
    if text == "cv":
        return "cv"
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("gamma must be positive (or inf, or cv)")
    return value


def _basis_arg(text: str):
    if text == "none":
        return None, 0
    name, _, num = text.partition(":")
    if name not in ("topk", "classmeans", "random", "subset", "kmeans") or not num:
        raise argparse.ArgumentTypeError(f"unknown basis: {text!r}")
    try:
        k = int(num)
    except ValueError:
        raise argparse.ArgumentTypeError(f"basis size must be an integer: {text!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("basis size must be positive")
    return name, k


def _load_dataset(args, need_labels: bool):
    if args.kernel == "precomputed":
        K0 = load_kernel_csv(args.data)
        X = None
        labels = load_labels_file(args.labels) if args.labels else None
    else:
        X, labels = load_points_csv(args.data, label_col=args.label_col)
        if labels is None and args.labels:
            labels = load_labels_file(args.labels)
        K0 = None
    if need_labels and labels is None:
        raise InvalidArgumentError("labels are required (--labels or --label-col last)")
    if labels is not None:
        n = K0.shape[0] if X is None else X.shape[1]
        if len(labels) != n:
            raise InvalidArgumentError(f"{len(labels)} labels for {n} points")
    return X, K0, labels


def _resolve_spec(args, X):
    if args.kernel == "precomputed":
        return KernelSpec.precomputed()
    if args.kernel == "linear":
        return KernelSpec.linear()
    if args.kernel == "gaussian":
        return KernelSpec.gaussian(evaluation.median_pairwise_distance(X))
    return KernelSpec.gaussian(float(args.kernel.split(":", 1)[1]))


def _log(args, key, value):
    # stdout carries only data (distance and eval CSVs); the run log goes to stderr
    print(f"[{args.command}] {key}: {value}", file=sys.stderr)


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    X, K0, labels = _load_dataset(args, need_labels=True)
    spec = _resolve_spec(args, X)
    space = args.space
    if spec.kind != "linear":
        space = "kernel"
    elif space == "auto":
        space = "linear" if X.shape[0] <= X.shape[1] else "kernel"

    for key in ("data", "loss", "space", "kernel", "gamma", "per_class", "basis",
                "tol", "max_sweeps", "seed", "out"):
        _log(args, key, getattr(args, key, None))
    _log(args, "effective_space", space)
    _log(args, "effective_kernel",
         f"{spec.kind}" + (f":{spec.sigma:.6g}" if spec.kind == "gaussian" else ""))

    basis_name, basis_k = args.basis
    if K0 is None and space == "kernel":
        K0 = gram(X, spec)
    cons = generate_from_labels(labels, per_class=args.per_class, seed=args.seed)
    if space == "kernel":
        pool = kernel_distance_pool(K0, seed=args.seed)
    else:
        pool = euclidean_distance_pool(X, seed=args.seed)
    cs = ConstraintSet(cons, compute_thresholds(pool))
    _log(args, "thresholds", f"u={cs.thresholds.u:.6g} l={cs.thresholds.l:.6g}")

    gamma = args.gamma
    if gamma == "cv":
        if args.loss != "logdet":
            raise InvalidArgumentError("--gamma cv is only supported for the logdet loss")
        if space == "kernel" and spec.kind == "precomputed":
            raise InvalidArgumentError("--gamma cv needs explicit points")
        factory = (
            (lambda g: evaluation.logdet_linear_learner(args.per_class, g, args.tol, args.max_sweeps))
            if space == "linear"
            else (lambda g: evaluation.logdet_kernel_learner(spec, args.per_class, g, args.tol, args.max_sweeps))
        )
        gamma = evaluation.crossvalidate_gamma(X, labels, factory, seed=args.seed)
        _log(args, "gamma_selected", gamma)

    cfg = SolverConfig(gamma=gamma, tol=args.tol, max_sweeps=args.max_sweeps, seed=args.seed)

    if args.loss in ("vonneumann", "frobenius"):
        mf = _train_alt(args, X, K0, spec, cs, gamma)
    elif basis_name is not None:
        mf = _train_lowrank(args, X, K0, spec, cs, cfg, labels, basis_name, basis_k, gamma)
    elif space == "linear":
        model = solver.fit_linear(X, cs, cfg)
        _log(args, "sweeps_used", model.sweeps_used)
        _log(args, "converged", model.converged)
        mf = ModelFile(
            kind="linear", kernel_spec=None, thresholds=cs.thresholds,
            gamma=gamma, seed=args.seed, converged=model.converged,
            sweeps_used=model.sweeps_used, W=model.W,
        )
    else:
        km = solver.fit_kernel(K0, cs, cfg)
        _log(args, "sweeps_used", km.sweeps_used)
        _log(args, "converged", km.converged)
        _log(args, "max_violation", f"{max_violation(km.K, cs, km.dual):.6g}")
        M, dropped_rank = compute_M(km.K0, km.K)
        _log(args, "dropped_rank", dropped_rank)
        mf = ModelFile(
            kind="kernel", kernel_spec=spec, thresholds=cs.thresholds,
            gamma=gamma, seed=args.seed, converged=km.converged,
            sweeps_used=km.sweeps_used,
            X=X, K0=km.K0, M=M, constraints=cs.constraints,
            lam=km.dual.lam, xi=km.dual.xi,
        )
    save_model(args.out, mf)
    _log(args, "wall_time_s", f"{time.perf_counter() - t0:.3f}")
    _log(args, "model_written", args.out)
    return 0


def _train_alt(args, X, K0, spec, cs, gamma) -> ModelFile:
    if K0 is None:
        K0 = gram(X, spec)
    gen = constraints_to_general(cs, K0.shape[0])
    if args.loss == "vonneumann":
        lam, K = fit_vn_kernel(K0, gen)
        M, dropped_rank = compute_M(K0, K)
        identity_coeff = 1.0
        _log(args, "dual_norm", f"{float(np.max(lam)) if lam.size else 0.0:.6g}")
        _log(args, "dropped_rank", dropped_rank)
        # the dual solver can stop short of feasibility: check the kernel
        excess = constraint_excess(K, gen)
        violated = int(np.count_nonzero(
            excess > VN_VIOLATION_RTOL * np.abs([con.b for con in gen])))
        _log(args, "max_violation", f"{float(np.max(excess, initial=0.0)):.6g}")
        if violated:
            _log(args, "WARNING", f"{violated} of {len(gen)} constraints are violated by more "
                                  f"than {VN_VIOLATION_RTOL:g} of their threshold")
    else:
        # returns a feasible iterate or raises InfeasibleError
        M = fit_frob_kernel(K0, gen, eta=args.eta)
        identity_coeff = args.eta
        violated = 0
    return ModelFile(
        kind="kernel", kernel_spec=spec, thresholds=cs.thresholds,
        gamma=gamma if gamma != "cv" else 1.0, seed=args.seed,
        converged=not violated, sweeps_used=0,
        identity_coeff=identity_coeff,
        X=X, K0=K0, M=M, constraints=cs.constraints,
    )


def _train_lowrank(args, X, K0, spec, cs, cfg, labels, basis_name, basis_k, gamma) -> ModelFile:
    if basis_name in ("topk", "classmeans"):
        if X is None or spec.kind != "linear":
            raise InvalidArgumentError(f"--basis {basis_name} requires explicit points and a linear kernel")
        method = "topk-svd" if basis_name == "topk" else "class-means"
        basis = lowrank.select_basis_feature(X, method, basis_k, seed=args.seed, labels=labels)
        model = lowrank.fit_low_rank(X, basis, cs, cfg)
    else:
        if K0 is None:
            K0 = gram(X, spec)
        method = {"random": "random-J", "subset": "subset", "kmeans": "kernel-kmeans"}[basis_name]
        basis = lowrank.select_basis_kernel(K0, method, basis_k, seed=args.seed)
        model = lowrank.fit_low_rank(K0, basis, cs, cfg)
    _log(args, "sweeps_used", model.inner.sweeps_used)
    _log(args, "converged", model.inner.converged)
    _log(args, "basis_k", basis.k)
    return ModelFile(
        kind="iplr", kernel_spec=spec if basis.mode == lowrank.COEFFICIENT else None,
        thresholds=cs.thresholds, gamma=gamma, seed=args.seed,
        converged=model.inner.converged, sweeps_used=model.inner.sweeps_used,
        X=X, K0=model.K0, basis_mode=basis.mode, basis_matrix=basis.matrix, F=model.F,
    )


def _model_sq_distance_fn(mf: ModelFile):
    """Returns (pair_fn(i, j), points_fn(Z) -> full distance matrix or None)."""
    if mf.kind == "linear" or (mf.kind == "iplr" and mf.basis_mode == lowrank.EXPLICIT):
        W = mf.to_mahalanobis()
        oracle = evaluation.MahalanobisOracle(W)

        def points_fn(Z):
            return oracle.pairwise(Z, Z)

        def pair_fn(i, j):
            raise InvalidArgumentError("index pairs need a model trained with stored points")

        return pair_fn, points_fn
    model = mf.to_learned_kernel()

    def pair_fn(i, j):
        return training_pair_distance(model, i, j)

    def points_fn(Z):
        if model.X is None:
            raise InvalidArgumentError("precomputed-kernel models cannot score new points")
        return learned_sq_distances(model, Z, Z)

    return pair_fn, points_fn


def cmd_distance(args) -> int:
    mf = load_model(args.model)
    pair_fn, points_fn = _model_sq_distance_fn(mf)
    if args.pairs:
        pairs, _ = load_points_csv(args.pairs)
        if pairs.shape[0] != 2:
            raise InvalidArgumentError(f"{args.pairs}: expected two indices per row, got {pairs.shape[0]}")
        rows = []
        for k, (a, b) in enumerate(pairs.T, start=1):
            # an integral float such as 1.0 names a point; 0.5 names none
            if not (a.is_integer() and b.is_integer()):
                raise InvalidArgumentError(f"{args.pairs}: non-integer index in pair {k}")
            i, j = int(a), int(b)
            rows.append((i, j, pair_fn(i, j)))
    else:
        Z, _ = load_points_csv(args.points)
        I, J = np.triu_indices(Z.shape[1])
        vals = points_fn(Z)[I, J]
        vals[I == J] = 0.0
        rows = zip(I.tolist(), J.tolist(), vals.tolist())
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        out.write("i,j,sq_distance\n")
        out.writelines("%d,%d,%.12g\n" % row for row in rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _eval_learner(args, spec):
    if args.loss == "euclidean":
        return evaluation.euclidean_learner()
    if args.loss == "inverse-covariance":
        return evaluation.inverse_covariance_learner()
    if args.space == "kernel" or spec.kind != "linear":
        return evaluation.logdet_kernel_learner(
            spec if spec.kind != "linear" else None,
            per_class=args.per_class, gamma=args.gamma, tol=args.tol,
        )
    return evaluation.logdet_linear_learner(
        per_class=args.per_class, gamma=args.gamma, tol=args.tol,
    )


def cmd_eval(args) -> int:
    X, K0, labels = _load_dataset(args, need_labels=True)
    if X is None:
        raise InvalidArgumentError("eval requires explicit points")
    spec = _resolve_spec(args, X)
    dataset = os.path.basename(args.data)
    gamma_txt = args.gamma if isinstance(args.gamma, str) else f"{args.gamma:.12g}"
    rows = []
    if args.mode == "knn":
        learner = _eval_learner(args, spec)
        report = evaluation.two_fold_cv(X, labels, learner, k=args.k, seed=args.seed)
        for fold, acc in enumerate(report.fold_accuracies):
            rows.append([dataset, "knn", "accuracy", f"{acc:.12g}", str(fold),
                         str(args.seed), gamma_txt, "0"])
        rows.append([dataset, "knn", "accuracy", f"{report.accuracy:.12g}", "mean",
                     str(args.seed), gamma_txt, "0"])
    else:
        if args.gamma == "cv":
            print("error: --gamma cv is not supported in cluster mode", file=sys.stderr)
            return EXIT_FLAGS
        gamma = args.gamma
        unsup, learned = evaluation.clustering_protocol(
            X, labels, n_constraints=args.constraints, gamma=gamma,
            tol=args.tol, seed=args.seed,
        )
        rows.append([dataset, "cluster", "error_unsupervised", f"{unsup:.12g}",
                     "mean", str(args.seed), gamma_txt, "0"])
        rows.append([dataset, "cluster", "error_logdet", f"{learned:.12g}",
                     "mean", str(args.seed), gamma_txt, "0"])
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["dataset", "mode", "metric", "value", "fold", "seed",
                         "gamma", "basis_k"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="logdetml",
                     description="Metric/kernel learning from pairwise constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="learn a metric/kernel model")
    train.add_argument("--data", required=True)
    train.add_argument("--labels")
    train.add_argument("--label-col", choices=["last"], dest="label_col")
    train.add_argument("--loss", choices=["logdet", "vonneumann", "frobenius"],
                       default="logdet")
    train.add_argument("--space", choices=["auto", "linear", "kernel"], default="auto")
    train.add_argument("--kernel", type=_kernel_arg, default="linear",
                       help="linear | gaussian[:sigma] | precomputed")
    train.add_argument("--gamma", type=_parse_gamma, default=1.0,
                       help="slack tradeoff, a float, 'inf', or 'cv'")
    train.add_argument("--eta", type=_nonnegative_float, default=1.0,
                       help="identity shift for the frobenius loss")
    train.add_argument("--per-class", type=_positive_int, default=100, dest="per_class")
    train.add_argument("--basis", type=_basis_arg, default=(None, 0),
                       help="none | topk:K | classmeans:K | random:K | subset:K | kmeans:K")
    train.add_argument("--tol", type=_positive_float, default=1e-3)
    train.add_argument("--max-sweeps", type=_positive_int, default=None, dest="max_sweeps")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    dist = sub.add_parser("distance", help="learned squared distances from a model")
    dist.add_argument("model")
    group = dist.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", help="CSV of training index pairs i,j")
    group.add_argument("--points", help="CSV of query points (one per row)")
    dist.add_argument("--out")
    dist.set_defaults(func=cmd_distance)

    ev = sub.add_parser("eval", help="k-NN or clustering evaluation")
    ev.add_argument("--data", required=True)
    ev.add_argument("--labels")
    ev.add_argument("--label-col", choices=["last"], dest="label_col")
    ev.add_argument("--mode", choices=["knn", "cluster"], required=True)
    ev.add_argument("--loss", choices=["logdet", "euclidean", "inverse-covariance"],
                    default="logdet")
    ev.add_argument("--space", choices=["auto", "linear", "kernel"], default="auto")
    ev.add_argument("--kernel", type=_kernel_arg, default="linear")
    ev.add_argument("--gamma", type=_parse_gamma, default=1.0)
    ev.add_argument("--k", type=_positive_int, default=10)
    ev.add_argument("--constraints", type=_positive_int, default=50)
    ev.add_argument("--per-class", type=_positive_int, default=100, dest="per_class")
    ev.add_argument("--tol", type=_positive_float, default=1e-3)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
