"""Workload definitions: generated inputs, the stage commands, and the
untimed correctness check.

A workload runs three stages, each in its own fresh process:
train -> distance -> eval.  Inputs are derived from the seed only; the
program under test receives nothing but the generated files and flags.

This module imports only the standard library, so the orchestrator can use
it without importing numpy or the package under test.  The correctness check
(``check``) imports both and runs in its own process via ``stage.py``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

IONO_CSV = os.path.join("tests", "data", "ionosphere.csv")

# Served distances are compared with the solver's own result; a pair fails
# when it is non-finite or off by more than REL_TOL times the median
# reference distance.  Round-off on the exact serving paths is ~1e-13, and
# the distance CSV prints 12 significant digits, so 1e-6 sits far above it.
REL_TOL = 1e-6

K_NEIGHBOURS = 10


@dataclass(frozen=True)
class Size:
    """Problem sizes for one workload; ``FULL`` is the benchmark, ``TINY``
    runs every stage in a few seconds for the benchmark's own tests."""

    iono_rows: int | None      # None = all 351 rows
    per_class: int
    linear_sweeps: int | None  # None = the solver's default cap
    kernel_sweeps: int
    blob_train: int
    blob_test: int
    basis_k: int


FULL = Size(iono_rows=None, per_class=100, linear_sweeps=None, kernel_sweeps=20,
            blob_train=2000, blob_test=600, basis_k=50)
TINY = Size(iono_rows=60, per_class=8, linear_sweeps=5, kernel_sweeps=3,
            blob_train=90, blob_test=30, basis_k=5)
SIZES = {"full": FULL, "tiny": TINY}


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _iono_inputs(root, work, size: Size):
    """Copy ionosphere (labels last) and a features-only copy for queries."""
    with open(os.path.join(root, IONO_CSV), newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if size.iono_rows is not None:
        rows = rows[:size.iono_rows]
    data = os.path.join(work, "data.csv")
    points = os.path.join(work, "points.csv")
    _write_csv(data, rows)
    _write_csv(points, [r[:-1] for r in rows])
    return {"data": data, "points": points}


def make_blobs(rng: random.Random, means: random.Random, d=20, n=300, classes=3,
               sep=4.0, nuisance=12, nuisance_scale=6.0):
    """Anisotropic Gaussian class blobs, as in the test suite's fixture:
    classes separated in the leading dimensions, high-variance nuisance
    dimensions appended.  Class means come from ``means``, points from
    ``rng``.  Returns (points as rows, labels)."""
    per = n // classes
    informative = d - nuisance
    points, labels = [], []
    for c in range(classes):
        mean = [sep * means.gauss(0.0, 1.0) / math.sqrt(informative) for _ in range(informative)]
        mean += [0.0] * nuisance
        for _ in range(per):
            p = [mean[t] + rng.gauss(0.0, 1.0) for t in range(d)]
            for t in range(informative, d):
                p[t] *= nuisance_scale
            points.append(p)
            labels.append(c)
    return points, labels


# The class means are the same for every seed: drawn from the seed, the
# spread between them (and with it knn_acc) swings by 0.3 from seed to seed.
BLOB_MEANS_SEED = 0


def _blob_inputs(work, size: Size, seed: int):
    """One seeded blob draw, split at random into training and held-out."""
    rng = random.Random(seed)
    total = size.blob_train + size.blob_test
    points, labels = make_blobs(rng, random.Random(BLOB_MEANS_SEED), n=total + 3)
    order = list(range(len(points)))
    rng.shuffle(order)
    train = order[:size.blob_train]
    test = order[size.blob_train:size.blob_train + size.blob_test]
    fmt = lambda p: [repr(v) for v in p]  # noqa: E731 - lossless float text
    paths = {k: os.path.join(work, f"{k}.csv") for k in ("train", "test", "test_points")}
    _write_csv(paths["train"], [fmt(points[i]) + [str(labels[i])] for i in train])
    _write_csv(paths["test"], [fmt(points[i]) + [str(labels[i])] for i in test])
    _write_csv(paths["test_points"], [fmt(points[i]) for i in test])
    return paths


def _train_flags(size: Size, seed: int, sweeps):
    flags = ["--per-class", str(size.per_class), "--gamma", "1", "--seed", str(seed)]
    if sweeps is not None:
        flags += ["--max-sweeps", str(sweeps)]
    return flags


def stages(name: str, root: str, work: str, size: Size, seed: int):
    """Make the inputs and return (inputs, [(stage, argv for stage.py)])."""
    model = os.path.join(work, "model.txt")
    dist = os.path.join(work, "distances.csv")
    out = os.path.join(work, "eval.out")
    if name in ("iono-linear", "iono-kernel"):
        inp = _iono_inputs(root, work, size)
        if name == "iono-linear":
            sweeps, kernel = size.linear_sweeps, ["--space", "linear"]
        else:
            sweeps, kernel = size.kernel_sweeps, ["--kernel", "gaussian"]
        train = ["cli", "train", "--data", inp["data"], "--label-col", "last", *kernel,
                 *_train_flags(size, seed, sweeps), "--out", model]
        if name == "iono-linear":
            # `logdetml eval` has no sweep flag: the folds run to the default cap
            evaluate = ["cli", "eval", "--data", inp["data"], "--label-col", "last",
                        "--mode", "knn", "--space", "linear", "--per-class",
                        str(size.per_class), "--gamma", "1", "--k", str(K_NEIGHBOURS),
                        "--seed", str(seed), "--out", out]
        else:
            evaluate = ["knn2fold", "--data", inp["data"], "--per-class",
                        str(size.per_class), "--max-sweeps", str(sweeps),
                        "--k", str(K_NEIGHBOURS), "--seed", str(seed), "--out", out]
        query = inp["points"]
    elif name == "blobs-lowrank":
        inp = _blob_inputs(work, size, seed)
        train = ["cli", "train", "--data", inp["train"], "--label-col", "last",
                 "--kernel", "gaussian", "--basis", f"kmeans:{size.basis_k}",
                 *_train_flags(size, seed, size.linear_sweeps), "--out", model]
        evaluate = ["heldout-knn", "--model", model, "--train", inp["train"],
                    "--test", inp["test"], "--k", str(K_NEIGHBOURS), "--out", out]
        query = inp["test_points"]
    else:
        raise KeyError(name)
    distance = ["cli", "distance", model, "--points", query, "--out", dist]
    inp.update(model=model, distances=dist, eval_out=out, seed=seed, workload=name,
               size=size.__dict__)
    return inp, [("train", train), ("distance", distance), ("eval", evaluate)]


def read_accuracy(path: str) -> float:
    """k-NN accuracy from an eval stage output (CLI CSV or stage JSON)."""
    with open(path) as fh:
        text = fh.read()
    if text.startswith("{"):
        return float(json.loads(text)["accuracy"])
    for row in csv.DictReader(text.splitlines()):
        if row["mode"] == "knn" and row["fold"] == "mean":
            return float(row["value"])
    raise ValueError(f"{path}: no mean k-NN accuracy row")


# ---------------------------------------------------------------------------
# correctness check (runs in its own process, imports numpy and logdetml)


def _read_served(path, n):
    """Served off-diagonal distances of a `distance --points` CSV as an
    upper-triangular n x n array (NaN where a row is missing)."""
    import numpy as np

    D = np.full((n, n), np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, j, d in reader:
            D[int(i), int(j)] = float(d)
    return D


def _compare(served, ref):
    """Count failing pairs: non-finite, or off by more than REL_TOL times the
    median reference distance.  Returns (pairs, failed, max_rel_err)."""
    import numpy as np

    served = np.asarray(served, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = float(np.median(ref))
    err = np.abs(served - ref) / scale
    finite = np.isfinite(err)
    bad = ~finite | (err > REL_TOL)
    worst = float(err.max()) if finite.all() else math.inf
    return int(served.size), int(np.count_nonzero(bad)), worst


def _sq_dists_from_gram(G):
    import numpy as np

    g = np.diag(G)
    return g[:, None] + g[None, :] - 2.0 * G


def check(inp: dict) -> dict:
    """Re-run the train stage's fit through the public API (untimed) and
    compare the served distances against the solver's own output.

    Linear: d = (x_i - x_j)^T W (x_i - x_j) with the solver's W.
    Kernel: d = K_ii + K_jj - 2 K_ij with the solver's learned K.
    Low rank: d = d_K0 - d_I(x') + d_F(x') with x', F from fit_low_rank, for
    every training pair (served from the saved file) and every held-out pair
    (served by the distance stage).
    """
    import numpy as np

    from logdetml import evaluation, lowrank, solver
    from logdetml.constraints import (ConstraintSet, compute_thresholds,
                                      euclidean_distance_pool, generate_from_labels,
                                      kernel_distance_pool)
    from logdetml.datasets import load_points_csv
    from logdetml.learned_kernel import learned_sq_distances
    from logdetml.linalg import KernelSpec, cross_gram, gram, inv_sqrt, symmetrize
    from logdetml.modelfile import load_model

    name, size, seed = inp["workload"], Size(**inp["size"]), inp["seed"]
    data = inp["train"] if name == "blobs-lowrank" else inp["data"]
    X, labels = load_points_csv(data, label_col="last")
    n = X.shape[1]
    iu = np.triu_indices(n, 1)
    cons = generate_from_labels(labels, per_class=size.per_class, seed=seed)
    if name != "iono-linear":
        spec = KernelSpec.gaussian(evaluation.median_pairwise_distance(X))
        K0 = gram(X, spec)
        pool = kernel_distance_pool(K0, seed=seed)
    else:
        pool = euclidean_distance_pool(X, seed=seed)
    cs = ConstraintSet(cons, compute_thresholds(pool))
    sweeps = size.kernel_sweeps if name == "iono-kernel" else size.linear_sweeps
    cfg = solver.SolverConfig(gamma=1.0, max_sweeps=sweeps, seed=seed)
    out = {"m": len(cs), "dropped": 0}
    parts = []  # (pairs, failed, max_rel_err) per served source

    if name == "iono-linear":
        fit = solver.fit_linear(X, cs, cfg)
        K = symmetrize(X.T @ fit.W @ X)
        out["max_violation"] = solver.max_violation(K, cs, fit.dual)
        parts.append(_compare(_read_served(inp["distances"], n)[iu],
                              _sq_dists_from_gram(K)[iu]))
    elif name == "iono-kernel":
        fit = solver.fit_kernel(K0, cs, cfg)
        out["max_violation"] = solver.max_violation(fit.K, cs, fit.dual)
        parts.append(_compare(_read_served(inp["distances"], n)[iu],
                              _sq_dists_from_gram(fit.K)[iu]))
    else:
        basis = lowrank.select_basis_kernel(K0, "kernel-kmeans", size.basis_k, seed=seed)
        fit = lowrank.fit_low_rank(K0, basis, cs, cfg)
        Xp, reduced = lowrank.reduce_problem(K0, basis, cs)
        keep = reduced.xi0 > 0
        kept = ConstraintSet([c for c, k in zip(reduced.constraints, keep) if k],
                             reduced.thresholds, xi0=reduced.xi0[keep])
        out["dropped"] = int(np.count_nonzero(~keep))
        out["max_violation"] = solver.max_violation(Xp.T @ fit.F @ Xp, kept, fit.inner.dual)

        def reference(Kzz, Zp):
            return _sq_dists_from_gram(Kzz) - _sq_dists_from_gram(Zp.T @ Zp) \
                + _sq_dists_from_gram(Zp.T @ fit.F @ Zp)

        # training pairs, served from the saved file through the public API
        mf = load_model(inp["model"])
        served = learned_sq_distances(mf.to_learned_kernel(), mf.X, mf.X)
        parts.append(_compare(served[iu], reference(K0, Xp)[iu]))
        # held-out pairs, served by the distance stage
        Z, _ = load_points_csv(inp["test_points"])
        J = basis.matrix
        Zp = inv_sqrt(symmetrize(J.T @ K0 @ J), jitter=1e-10) @ (J.T @ cross_gram(X, Z, spec))
        iz = np.triu_indices(Z.shape[1], 1)
        parts.append(_compare(_read_served(inp["distances"], Z.shape[1])[iz],
                              reference(gram(Z, spec), Zp)[iz]))

    out["pairs"] = sum(p[0] for p in parts)
    out["failed"] = sum(p[1] for p in parts)
    out["max_rel_err"] = max(p[2] for p in parts)
    return out
