"""Run one benchmark stage in this (fresh) process.

    python3 bench/stage.py [--spans OUT.json] cli <logdetml CLI arguments>
    python3 bench/stage.py [--spans OUT.json] knn2fold --data CSV ...
    python3 bench/stage.py [--spans OUT.json] heldout-knn --model M ...
    python3 bench/stage.py check INPUTS.json OUT.json

``cli`` is what the ``logdetml`` console script does.  ``knn2fold`` and
``heldout-knn`` are k-NN evaluations the CLI cannot express (a sweep budget
for the folds; scoring held-out points against a saved model), built from
the package's public functions.  ``check`` is the untimed correctness check.

With ``--spans`` the package's public functions are wrapped before the stage
runs and the recorded spans are written to OUT.json when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def knn2fold(argv) -> int:
    """Two-fold k-NN with a Gaussian LogDet kernel at a fixed sweep budget."""
    from logdetml import evaluation
    from logdetml.datasets import load_points_csv

    p = argparse.ArgumentParser(prog="knn2fold")
    for flag in ("--data", "--out"):
        p.add_argument(flag, required=True)
    for flag in ("--per-class", "--max-sweeps", "--k", "--seed"):
        p.add_argument(flag, type=int, required=True)
    a = p.parse_args(argv)
    X, labels = load_points_csv(a.data, label_col="last")
    learner = evaluation.logdet_kernel_learner(per_class=a.per_class, gamma=1.0,
                                               max_sweeps=a.max_sweeps)
    report = evaluation.two_fold_cv(X, labels, learner, k=a.k, seed=a.seed)
    with open(a.out, "w") as fh:
        json.dump({"accuracy": report.accuracy, "tested": int(X.shape[1])}, fh)
    return 0


def heldout_knn(argv) -> int:
    """k-NN of held-out points against the saved model's training points."""
    import numpy as np

    from logdetml import evaluation
    from logdetml.datasets import load_points_csv
    from logdetml.modelfile import load_model

    p = argparse.ArgumentParser(prog="heldout-knn")
    for flag in ("--model", "--train", "--test", "--out"):
        p.add_argument(flag, required=True)
    p.add_argument("--k", type=int, required=True)
    a = p.parse_args(argv)
    mf = load_model(a.model)
    oracle = evaluation.LearnedKernelOracle(mf.to_learned_kernel())
    _, train_labels = load_points_csv(a.train, label_col="last")
    Z, test_labels = load_points_csv(a.test, label_col="last")
    pred = evaluation.knn_classify(oracle, mf.X, train_labels, Z, a.k)
    with open(a.out, "w") as fh:
        json.dump({"accuracy": float(np.mean(pred == test_labels)),
                   "tested": int(Z.shape[1])}, fh)
    return 0


def run_check(argv) -> int:
    import environment
    import workloads

    with open(argv[0]) as fh:
        inp = json.load(fh)
    result = workloads.check(inp)
    result["env"] = environment.record()
    with open(argv[1], "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    if kind == "check":
        return run_check(rest)
    tracer = None
    if spans is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def run():
        if kind == "cli":
            from logdetml import cli

            return cli.main(rest)
        return {"knn2fold": knn2fold, "heldout-knn": heldout_knn}[kind](rest)

    try:
        return tracer.root(kind, run) if tracer else run()
    finally:
        if tracer is not None:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
