"""Command-line surface: train models, query distances, run evaluations.

One path runs from flags to a served model.  ``train`` fits the LogDet loss
through ``evaluation.fit_labeled`` -- a Mahalanobis matrix (linear space), a
learned kernel, or, with ``--basis``, an identity-plus-low-rank model -- and
saves the model file it returns; ``distance`` answers from that file through
``evaluation.serve``.  ``eval --mode knn`` and ``--gamma cv`` score the same
fit, ``fit_labeled`` on each training fold (``evaluation.logdet_learner``),
with the same ``--max-sweeps`` flag as ``train`` but no ``--basis`` (the
output's ``basis_k`` column is 0).  ``eval --loss`` compares the fit with
the Euclidean and inverse-covariance baselines, which fit nothing and reject
``--max-sweeps`` with exit 4.  ``eval --mode cluster`` fits a linear-space
metric to ``--constraints`` random pairs, and rejects ``--space kernel``, a
non-linear ``--kernel``, a baseline ``--loss``, ``--gamma cv``,
``--per-class`` and ``--max-sweeps`` with exit 4.  ``train`` logs why the fit
stopped: ``rule`` when no constrained distance moved by more than ``--tol``
over the last sweep, ``cap`` when the sweep cap ended it (with a WARNING).
A gaussian width left unset is logged as ``gaussian:median`` with the
rest of the configuration, before the fit; the fit takes the width off the
pool it reads its thresholds from, and ``train`` logs it as
``median_width`` after the fit.

A full-rank kernel-space model is fitted on, and its M covers, the
constrained points only; its file keeps every training point, so
``distance --pairs`` serves any training index (``modelfile``).

Exit codes: 0 success, 2 malformed data, 3 numerical failure,
4 bad flags.  Every run logs its full effective configuration to stderr,
stdout carries only data, and all randomness flows from --seed.  The log
and the seed fix an output only for one BLAS thread count
(``OPENBLAS_NUM_THREADS``): the bits of a kernel Gram, of the M a dense
kernel fit is served from (``compute_M``'s eigendecomposition and products)
and of a low-rank fit depend on it, and so do the model files built from
them.

A precomputed kernel's points are its indices: ``--kernel precomputed``
reads the n x n table and trains, evaluates and tunes on the index points
0 .. n-1 as on any other points, except that ``eval --loss euclidean`` and
``--loss inverse-covariance`` refuse it with exit 2 (indices are not
features).

``distance`` writes a CSV with the header ``i,j,sq_distance`` and one row
per pair, each value formatted ``.12g``.  With ``--points`` the rows are
every pair i <= j of the query points in row-major order (i ascending, then
j), the diagonal written as 0; with ``--pairs`` they are the given training
index pairs in file order, each index served as the stored point it names,
by the rule that serves ``--points``.  So a precomputed-kernel model serves
a one-column ``--points`` file of training indices as those points, and
refuses any other row.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import time

import numpy as np

from . import evaluation, solver
from .constraints import DEFAULT_PER_CLASS
from .datasets import load_kernel_csv, load_labels_file, load_points_csv
from .errors import InvalidArgumentError, NumericalError
from .learned_kernel import training_pair_distance
from .linalg import KernelSpec, index_points
from .modelfile import BLOCK_VALUES, FACTS, load_model, save_model

EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_FLAGS = 4
BASES = evaluation.FEATURE_BASES | evaluation.KERNEL_BASES  # the --basis names


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
    if name not in BASES or not num:
        raise argparse.ArgumentTypeError(f"unknown basis: {text!r}")
    try:
        k = int(num)
    except ValueError:
        raise argparse.ArgumentTypeError(f"basis size must be an integer: {text!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("basis size must be positive")
    return name, k


def _load_dataset(args, need_labels: bool):
    """``(X, table, labels)``: the points, and for a precomputed kernel the
    table read from ``--data``, whose points are its indices."""
    if args.kernel == "precomputed":
        table = load_kernel_csv(args.data)
        X = index_points(len(table))
        labels = load_labels_file(args.labels) if args.labels else None
    else:
        X, labels = load_points_csv(args.data, label_col=args.label_col)
        if args.labels:
            labels = load_labels_file(args.labels)
        table = None
    if need_labels and labels is None:
        raise InvalidArgumentError("labels are required (--labels or --label-col last)")
    if labels is not None and len(labels) != X.shape[1]:
        raise InvalidArgumentError(f"{len(labels)} labels for {X.shape[1]} points")
    return X, table, labels


def _resolve(args, X, table=None):
    """``(space, spec)`` for the ``--space`` and ``--kernel`` flags: a
    non-linear kernel forces kernel space, and ``auto`` picks linear space
    when d <= n.  ``train`` and ``eval`` both resolve here.  A gaussian
    kernel with no width takes the median distance of the points it trains
    on: the spec is None, and ``evaluation.fit_labeled`` takes the width off
    the pool it reads its thresholds from, of all the points for ``train``
    and of each training fold for ``eval``, so no fold's kernel depends on
    its held-out points.  ``train --gamma cv`` takes the width of all its
    points here, so its inner folds fit at that width.  A precomputed kernel
    is the ``table`` that ``_load_dataset`` read."""
    if args.kernel == "precomputed":
        spec = KernelSpec.precomputed(table)
    elif args.kernel == "linear":
        spec = KernelSpec.linear()
    elif args.kernel == "gaussian":
        spec = KernelSpec.gaussian(evaluation.median_pairwise_distance(X)) \
            if args.command == "train" and args.gamma == "cv" else None
    else:
        spec = KernelSpec.gaussian(float(args.kernel.split(":", 1)[1]))
    space = args.space
    if spec is None or spec.kind != "linear":
        space = "kernel"
    elif space == "auto":
        space = "linear" if X.shape[0] <= X.shape[1] else "kernel"
    return space, spec


def _log(args, key, value):
    # stdout carries only data (distance and eval CSVs); the run log goes to stderr
    print(f"[{args.command}] {key}: {value}", file=sys.stderr)


def _log_effective(args, space, spec):
    _log(args, "effective_space", space)
    if spec is None:  # the fit takes the median width of its points (each fold's for eval)
        _log(args, "effective_kernel",
             "gaussian:fold-median" if args.command == "eval" else "gaussian:median")
    else:
        _log(args, "effective_kernel",
             f"{spec.kind}" + (f":{spec.sigma:.6g}" if spec.kind == "gaussian" else ""))


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    X, table, labels = _load_dataset(args, need_labels=True)
    space, spec = _resolve(args, X, table)

    for key in ("data", "space", "kernel", "gamma", "per_class", "basis",
                "tol", "max_sweeps", "seed", "out"):
        _log(args, key, getattr(args, key, None))
    _log_effective(args, space, spec)

    mf, fit = evaluation.fit_labeled(X, labels, args.seed, space, spec, args.per_class,
                                     args.gamma, args.tol, args.max_sweeps, basis=args.basis)
    if spec is None:
        _log(args, "median_width", f"{mf.kernel_spec.sigma:.6g}")
    _log(args, "thresholds", f"u={mf.thresholds.u:.6g} l={mf.thresholds.l:.6g}")
    if args.gamma == "cv":
        _log(args, "gamma_selected", mf.gamma)
    for key in ("sweeps_used", "converged", "skipped"):
        _log(args, key, getattr(fit, key))
    change = mf.distance_change
    _log(args, "stop_reason", mf.stop_reason)
    _log(args, "distance_change", f"{change:.6g}")
    if not fit.converged:
        _log(args, "WARNING", f"the sweep cap ended the fit after {fit.sweeps_used} sweeps; "
             f"a constrained distance still moved by {change:.3g} (relative) in the last "
             f"sweep, above --tol {args.tol:g}")
    for key, cast in FACTS[1:]:  # the rest of what the model file records about the fit
        value = getattr(mf, key)
        if value is not None:
            _log(args, key, f"{value:.6g}" if cast is float else value)
    if mf.basis_mode is not None:
        _log(args, "basis_k", mf.basis_matrix.shape[1])
    save_model(args.out, mf)
    _log(args, "wall_time_s", f"{time.perf_counter() - t0:.3f}")
    _log(args, "model_written", args.out)
    return 0


def cmd_distance(args) -> int:
    mf = load_model(args.model)
    oracle = evaluation.serve(mf)
    model = getattr(oracle, "model", None)  # the learned kernel; None for a d x d metric
    if args.pairs:
        pairs, _ = load_points_csv(args.pairs)
        if pairs.shape[0] != 2:
            raise InvalidArgumentError(f"{args.pairs}: expected two indices per row, got {pairs.shape[0]}")
        # an integral float such as 1.0 names a point; 0.5 names none.  The k
        # pairs before the first that names none are checked first, as the
        # file is read in order
        k = int(np.argmin(np.append(np.all(pairs == np.trunc(pairs), axis=0), False)))
        if k and model is None:
            raise InvalidArgumentError("index pairs need a model trained with stored points")
        # an index past any int64 names no point either: -1 keeps it out of range
        I, J = np.where(np.abs(pairs[:, :k]) < 2.0**62, pairs[:, :k], -1).astype(int)
        vals = training_pair_distance(model, mf.X, I, J) if k else None
        if k < pairs.shape[1]:
            raise InvalidArgumentError(f"{args.pairs}: non-integer index in pair {k + 1}")
    else:
        Z, _ = load_points_csv(args.points)
        I, J = np.triu_indices(Z.shape[1])
        vals = oracle.pairwise(Z, Z)[I, J]
        vals[I == J] = 0.0
    with _output(args.out) as out:
        out.write("i,j,sq_distance\n")
        step = BLOCK_VALUES // 3  # rows a block, three values each
        for a in range(0, len(vals), step):  # one % per block: the bytes of one % per row
            flat = [None] * (3 * len(vals[a:a + step]))
            flat[0::3], flat[1::3], flat[2::3] = (v[a:a + step].tolist() for v in (I, J, vals))
            out.write(("%d,%d,%.12g\n" * (len(flat) // 3)) % tuple(flat))
    return 0


def _output(path):
    """Where ``distance`` and ``eval`` write their CSV: ``--out``, else stdout."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _eval_learner(args, space, spec):
    if args.loss == "euclidean":
        return evaluation.euclidean_learner()
    if args.loss == "inverse-covariance":
        return evaluation.inverse_covariance_learner()
    _log_effective(args, space, spec)
    # eval --gamma cv tunes gamma with the outer --k
    per_class = DEFAULT_PER_CLASS if args.per_class is None else args.per_class
    return evaluation.logdet_learner(space, spec, per_class, args.gamma, args.tol,
                                     args.max_sweeps, args.k, args.basis)


def _eval_flag_error(args):
    """Why ``eval`` cannot honour its flags, or None.  Cluster mode fits a
    linear-space LogDet metric at a fixed gamma to ``--constraints`` random
    pairs whatever the flags say; a baseline ``--loss`` fits nothing."""
    if args.mode == "cluster":
        given = {"--space kernel": args.space == "kernel",
                 f"--kernel {args.kernel}": args.kernel != "linear",
                 f"--loss {args.loss}": args.loss != "logdet",
                 "--gamma cv": args.gamma == "cv",
                 "--per-class": args.per_class is not None,
                 "--max-sweeps": args.max_sweeps is not None}
        bad = next((flag for flag, on in given.items() if on), None)
        return bad and f"{bad} is not supported in cluster mode " \
            "(it learns a linear-space LogDet metric)"
    if args.loss != "logdet" and args.max_sweeps is not None:
        return f"--max-sweeps is not supported with --loss {args.loss} (a baseline fits nothing)"
    return None


def cmd_eval(args) -> int:
    if bad := _eval_flag_error(args):
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_FLAGS
    X, table, labels = _load_dataset(args, need_labels=True)
    if table is not None and args.loss != "logdet":
        raise InvalidArgumentError(f"--loss {args.loss} needs explicit points: "
                                   "a precomputed kernel's points are indices, not features")
    space, spec = _resolve(args, X, table)
    if args.mode == "knn":
        learner = _eval_learner(args, space, spec)
        report = evaluation.two_fold_cv(X, labels, learner, k=args.k, seed=args.seed)
        results = [("accuracy", acc, str(fold)) for fold, acc in enumerate(report.fold_accuracies)]
        results.append(("accuracy", report.accuracy, "mean"))
    else:
        unsup, learned = evaluation.clustering_protocol(
            X, labels, n_constraints=args.constraints, gamma=args.gamma,
            tol=args.tol, seed=args.seed,
        )
        results = [("error_unsupervised", unsup, "mean"), ("error_logdet", learned, "mean")]
    dataset = os.path.basename(args.data)
    gamma_txt = args.gamma if isinstance(args.gamma, str) else f"{args.gamma:.12g}"
    rows = [[dataset, args.mode, metric, f"{value:.12g}", fold, str(args.seed), gamma_txt, "0"]
            for metric, value, fold in results]
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["dataset", "mode", "metric", "value", "fold", "seed",
                         "gamma", "basis_k"])
        writer.writerows(rows)
    return 0


def _add_fit_flags(parser, per_class) -> None:
    """The flags ``train`` and ``eval`` share: the data, its labels and the fit."""
    parser.add_argument("--data", required=True)
    # labels come from a file or from the data's last column, never both
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--labels")
    group.add_argument("--label-col", choices=["last"], dest="label_col")
    parser.add_argument("--space", choices=["auto", "linear", "kernel"], default="auto")
    parser.add_argument("--kernel", type=_kernel_arg, default="linear",
                        help="linear | gaussian[:sigma] | precomputed")
    parser.add_argument("--gamma", type=_parse_gamma, default=1.0,
                        help="slack tradeoff, a float, 'inf', or 'cv'")
    parser.add_argument("--per-class", type=_positive_int, default=per_class, dest="per_class",
                        help=f"similar and dissimilar pairs per class (default {DEFAULT_PER_CLASS})")
    parser.add_argument("--tol", type=_positive_float, default=solver.DEFAULT_TOL,
                        help="stop a fit once no constrained-pair distance moved by more "
                             "than this fraction over a sweep (default %(default)g)")
    parser.add_argument("--max-sweeps", type=_positive_int, default=None, dest="max_sweeps")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="logdetml",
                     description="Metric/kernel learning from pairwise constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="learn a metric/kernel model under the LogDet loss")
    _add_fit_flags(train, per_class=DEFAULT_PER_CLASS)
    train.add_argument("--basis", type=_basis_arg, default=(None, 0),
                       help=" | ".join(["none", *(f"{name}:K" for name in BASES)]))
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
    # --per-class unset, not the default, so cluster mode can reject an explicit value
    _add_fit_flags(ev, per_class=None)
    ev.add_argument("--mode", choices=["knn", "cluster"], required=True)
    ev.add_argument("--loss", choices=["logdet", "euclidean", "inverse-covariance"],
                    default="logdet", help="the learned metric or a baseline")
    ev.add_argument("--k", type=_positive_int, default=10)
    ev.add_argument("--constraints", type=_positive_int, default=50)
    ev.add_argument("--out")
    # eval fits what train fits with no --basis
    ev.set_defaults(func=cmd_eval, basis=(None, 0))
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
