"""Command-line surface: train models, query distances, run evaluations.

``train`` fits the LogDet loss: a Mahalanobis matrix (linear space), a
learned kernel, or, with ``--basis``, an identity-plus-low-rank model.
``eval`` resolves ``--space`` and ``--kernel`` exactly as ``train`` does
and scores the same fit; ``eval --loss`` compares it with the Euclidean and
inverse-covariance baselines.

Exit codes: 0 success, 2 malformed data, 3 numerical failure,
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
from .datasets import load_kernel_csv, load_labels_file, load_points_csv
from .errors import InvalidArgumentError, NumericalError
from .learned_kernel import from_kernel_fit, training_pair_distance
from .linalg import KernelSpec, gram
from .modelfile import ModelFile, load_model, save_model
from .solver import SolverConfig, max_violation

EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_FLAGS = 4


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
        if args.labels:
            labels = load_labels_file(args.labels)
        K0 = None
    if need_labels and labels is None:
        raise InvalidArgumentError("labels are required (--labels or --label-col last)")
    if labels is not None:
        n = K0.shape[0] if X is None else X.shape[1]
        if len(labels) != n:
            raise InvalidArgumentError(f"{len(labels)} labels for {n} points")
    return X, K0, labels


def _resolve(args, X):
    """``(space, spec)`` for the ``--space`` and ``--kernel`` flags: a
    non-linear kernel forces kernel space, and ``auto`` picks linear space
    when d <= n.  ``train`` and ``eval`` both resolve here."""
    if args.kernel == "precomputed":
        spec = KernelSpec.precomputed()
    elif args.kernel == "linear":
        spec = KernelSpec.linear()
    elif args.kernel == "gaussian":
        spec = KernelSpec.gaussian(evaluation.median_pairwise_distance(X))
    else:
        spec = KernelSpec.gaussian(float(args.kernel.split(":", 1)[1]))
    space = args.space
    if spec.kind != "linear":
        space = "kernel"
    elif space == "auto":
        space = "linear" if X.shape[0] <= X.shape[1] else "kernel"
    return space, spec


def _log(args, key, value):
    # stdout carries only data (distance and eval CSVs); the run log goes to stderr
    print(f"[{args.command}] {key}: {value}", file=sys.stderr)


def _log_effective(args, space, spec):
    _log(args, "effective_space", space)
    _log(args, "effective_kernel",
         f"{spec.kind}" + (f":{spec.sigma:.6g}" if spec.kind == "gaussian" else ""))


def _logdet_learner(args, space, spec, gamma):
    """A two-fold CV learner that fits what ``train`` fits for these flags;
    ``eval --gamma cv`` tunes gamma with the outer ``--k``."""
    opts = dict(per_class=args.per_class, gamma=gamma, tol=args.tol,
                max_sweeps=getattr(args, "max_sweeps", None), k=getattr(args, "k", 10))
    if space == "linear":
        return evaluation.logdet_linear_learner(**opts)
    return evaluation.logdet_kernel_learner(spec, **opts)


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    X, K0, labels = _load_dataset(args, need_labels=True)
    space, spec = _resolve(args, X)

    for key in ("data", "space", "kernel", "gamma", "per_class", "basis",
                "tol", "max_sweeps", "seed", "out"):
        _log(args, key, getattr(args, key, None))
    _log_effective(args, space, spec)

    basis_name, basis_k = args.basis
    if K0 is None and space == "kernel":
        K0 = gram(X, spec)
    cs = evaluation.label_constraints(labels, args.per_class, args.seed, X=X, K0=K0)
    _log(args, "thresholds", f"u={cs.thresholds.u:.6g} l={cs.thresholds.l:.6g}")

    gamma = args.gamma
    if gamma == "cv":
        if spec.kind == "precomputed":
            raise InvalidArgumentError("--gamma cv needs explicit points")
        gamma = evaluation.crossvalidate_gamma(
            X, labels, lambda g: _logdet_learner(args, space, spec, g), seed=args.seed)
        _log(args, "gamma_selected", gamma)

    cfg = SolverConfig(gamma=gamma, tol=args.tol, max_sweeps=args.max_sweeps, seed=args.seed)

    if basis_name is not None:
        fit, payload = _train_lowrank(args, X, K0, spec, cs, cfg, labels, basis_name, basis_k)
    elif space == "linear":
        fit = solver.fit_linear(X, cs, cfg)
        _log_fit(args, fit)
        payload = dict(kind="linear", kernel_spec=None, W=fit.W)
    else:
        fit = solver.fit_kernel(K0, cs, cfg)
        _log_fit(args, fit)
        _log(args, "max_violation", f"{max_violation(fit.K, cs, fit.dual):.6g}")
        model = from_kernel_fit(fit, X, spec)
        _log(args, "dropped_rank", model.dropped_rank)
        payload = dict(kind="kernel", kernel_spec=spec, X=X, K0=fit.K0, M=model.M,
                       constraints=cs.constraints, lam=fit.dual.lam, xi=fit.dual.xi)
    save_model(args.out, ModelFile(thresholds=cs.thresholds, gamma=gamma, seed=args.seed,
                                   converged=fit.converged, sweeps_used=fit.sweeps_used,
                                   **payload))
    _log(args, "wall_time_s", f"{time.perf_counter() - t0:.3f}")
    _log(args, "model_written", args.out)
    return 0


def _log_fit(args, fit):
    for key in ("sweeps_used", "converged", "skipped"):
        _log(args, key, getattr(fit, key))


def _train_lowrank(args, X, K0, spec, cs, cfg, labels, basis_name, basis_k):
    """Fit with ``--basis``; returns the inner fit and the model file payload."""
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
    _log_fit(args, model.inner)
    # the dual state covers only the constraints the basis can reach
    _log(args, "dropped", len(cs) - len(model.inner.dual.lam))
    _log(args, "basis_k", basis.k)
    return model.inner, dict(
        kind="iplr", kernel_spec=spec if basis.mode == lowrank.COEFFICIENT else None,
        X=X, K0=model.K0, basis_mode=basis.mode, basis_matrix=basis.matrix, F=model.F,
    )


def cmd_distance(args) -> int:
    mf = load_model(args.model)
    if mf.kind == "linear" or (mf.kind == "iplr" and mf.basis_mode == lowrank.EXPLICIT):
        model, oracle = None, evaluation.MahalanobisOracle(mf.to_mahalanobis())
    else:
        model = mf.to_learned_kernel()
        oracle = evaluation.LearnedKernelOracle(model)
    if args.pairs:
        pairs, _ = load_points_csv(args.pairs)
        if pairs.shape[0] != 2:
            raise InvalidArgumentError(f"{args.pairs}: expected two indices per row, got {pairs.shape[0]}")
        rows = []
        for k, (a, b) in enumerate(pairs.T, start=1):
            # an integral float such as 1.0 names a point; 0.5 names none
            if not (a.is_integer() and b.is_integer()):
                raise InvalidArgumentError(f"{args.pairs}: non-integer index in pair {k}")
            if model is None:
                raise InvalidArgumentError("index pairs need a model trained with stored points")
            i, j = int(a), int(b)
            rows.append((i, j, training_pair_distance(model, i, j)))
    else:
        Z, _ = load_points_csv(args.points)
        if model is not None and model.X is None:
            raise InvalidArgumentError("precomputed-kernel models cannot score new points")
        I, J = np.triu_indices(Z.shape[1])
        vals = oracle.pairwise(Z, Z)[I, J]
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


def _eval_learner(args, space, spec):
    if args.loss == "euclidean":
        return evaluation.euclidean_learner()
    if args.loss == "inverse-covariance":
        return evaluation.inverse_covariance_learner()
    _log_effective(args, space, spec)
    return _logdet_learner(args, space, spec, args.gamma)


def cmd_eval(args) -> int:
    X, K0, labels = _load_dataset(args, need_labels=True)
    if X is None:
        raise InvalidArgumentError("eval requires explicit points")
    space, spec = _resolve(args, X)
    dataset = os.path.basename(args.data)
    gamma_txt = args.gamma if isinstance(args.gamma, str) else f"{args.gamma:.12g}"
    rows = []
    if args.mode == "knn":
        learner = _eval_learner(args, space, spec)
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


def _add_label_flags(parser) -> None:
    # labels come from a file or from the data's last column, never both
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--labels")
    group.add_argument("--label-col", choices=["last"], dest="label_col")


def build_parser() -> _Parser:
    parser = _Parser(prog="logdetml",
                     description="Metric/kernel learning from pairwise constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="learn a metric/kernel model under the LogDet loss")
    train.add_argument("--data", required=True)
    _add_label_flags(train)
    train.add_argument("--space", choices=["auto", "linear", "kernel"], default="auto")
    train.add_argument("--kernel", type=_kernel_arg, default="linear",
                       help="linear | gaussian[:sigma] | precomputed")
    train.add_argument("--gamma", type=_parse_gamma, default=1.0,
                       help="slack tradeoff, a float, 'inf', or 'cv'")
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
    _add_label_flags(ev)
    ev.add_argument("--mode", choices=["knn", "cluster"], required=True)
    ev.add_argument("--loss", choices=["logdet", "euclidean", "inverse-covariance"],
                    default="logdet", help="the learned metric or a baseline")
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
