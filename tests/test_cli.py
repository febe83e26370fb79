import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from logdetml import cli, evaluation, lowrank, solver
from logdetml.cli import EXIT_DATA, EXIT_FLAGS, EXIT_NUMERIC, build_parser, main
from logdetml.constraints import (DEFAULT_PER_CLASS, ConstraintGenerationWarning,
                                  euclidean_distance_pool, generate_from_labels,
                                  kernel_distance_pool)
from logdetml.datasets import load_points_csv
from logdetml.linalg import KernelSpec, gram
from logdetml.modelfile import BLOCK_VALUES, load_model

IONOSPHERE = Path(__file__).parent / "data" / "ionosphere.csv"


@pytest.fixture(scope="module")
def ionosphere_rows(tmp_path_factory):
    """Every eighth ionosphere row: 44 points, both classes."""
    path = tmp_path_factory.mktemp("data") / "ionosphere_every8.csv"
    path.write_text("\n".join(IONOSPHERE.read_text().splitlines()[::8]) + "\n")
    return path


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--max-sweeps", "0"),
    ("train", "--max-sweeps", "-1"),
    ("train", "--per-class", "0"),
    ("train", "--tol", "0"),
    ("train", "--tol", "nan"),
    ("train", "--kernel", "gaussian:-1"),
    ("train", "--kernel", "gaussian:nan"),
    ("train", "--kernel", "gaussian:inf"),
    ("train", "--kernel", "cosine"),
    ("train", "--basis", "spectral:3"),
    ("train", "--basis", "topk:x"),
    ("train", "--basis", "topk:0"),
    ("train", "--gamma", "0"),
    ("train", "--gamma", "-1"),
    ("eval", "--k", "0"),
    ("eval", "--k", "-3"),
    ("eval", "--loss", "bogus"),
    ("eval", "--constraints", "-2"),
    ("eval", "--per-class", "0"),
    ("eval", "--tol", "0"),
])
def test_bad_flag_value_exits_4(ionosphere_rows, tmp_path, capsys, command, flag, value):
    argv = [command, "--data", str(ionosphere_rows), "--label-col", "last"]
    if command == "train":
        argv += ["--out", str(tmp_path / "model.txt")]
    else:
        argv += ["--mode", "cluster" if flag == "--constraints" else "knn"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == EXIT_FLAGS
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("name", list(evaluation.FEATURE_BASES | evaluation.KERNEL_BASES))
def test_every_basis_name_trains(ionosphere_rows, tmp_path, capsys, name):
    # the one name table reaches fit_model: a row added there trains with no other edit
    assert build_parser().parse_args(["train", "--data", "x", "--out", "y", "--basis",
                                      f"{name}:3"]).basis == (name, 3)
    space = ["--space", "linear"] if name in evaluation.FEATURE_BASES else ["--kernel", "gaussian"]
    model = tmp_path / "model.txt"
    assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last", *space,
                 "--basis", f"{name}:3", "--per-class", "10", "--out", str(model)]) == 0
    assert _logged(capsys.readouterr().err, "train", "basis_k") == "3"
    assert load_model(model).basis_matrix.shape[1] == 3


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("name", list(evaluation.FEATURE_BASES | evaluation.KERNEL_BASES))
def test_a_rank_one_basis_model_trains_and_serves(ionosphere_rows, tmp_path, capsys, name):
    # F, and a coefficient basis's T, are 1 x 1: symmetric blocks of one value
    space = ["--space", "linear"] if name in evaluation.FEATURE_BASES else ["--kernel", "gaussian"]
    model = tmp_path / "model.txt"
    assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last", *space,
                 "--basis", f"{name}:1", "--per-class", "10", "--out", str(model)]) == 0
    assert "packed-symmetric F 1" in model.read_text().splitlines()
    X, _ = load_points_csv(ionosphere_rows, label_col="last")
    points = tmp_path / "points.csv"
    points.write_text("".join(",".join(f"{v:.17g}" for v in x) + "\n" for x in X[:, :4].T))
    capsys.readouterr()
    assert main(["distance", str(model), "--points", str(points)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 5 // 2


def test_a_one_feature_linear_model_trains_and_serves(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{v},{v % 2}\n" for v in range(8)))
    model = tmp_path / "model.txt"
    assert main(["train", "--data", str(data), "--label-col", "last", "--space", "linear",
                 "--per-class", "3", "--out", str(model)]) == 0
    assert "packed-symmetric W 1" in model.read_text().splitlines()
    points = tmp_path / "points.csv"
    points.write_text("0\n3\n")
    capsys.readouterr()
    assert main(["distance", str(model), "--points", str(points)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3


@pytest.mark.parametrize("flags", [
    ["--loss", "frobenius"],
    ["--loss", "vonneumann"],
    ["--eta", "1"],
], ids=["loss-frobenius", "loss-vonneumann", "eta"])
def test_removed_train_flags_exit_4(ionosphere_rows, tmp_path, capsys, flags):
    # train fits only the LogDet loss: it has no --loss or --eta flag
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
              "--out", str(tmp_path / "model.txt"), *flags])
    assert exc.value.code == EXIT_FLAGS
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()


# -- train logs how many constraints it skipped ---------------------------------

def _logged_skipped(err: str) -> int:
    return int(re.search(r"^\[train\] skipped: (\d+)$", err, re.MULTILINE).group(1))


@pytest.mark.filterwarnings("ignore::logdetml.solver.SolverWarning",
                            "ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags", [
    ["--space", "linear"],
    ["--space", "kernel"],
    ["--basis", "topk:2"],
], ids=["linear", "kernel", "basis"])
def test_train_logs_skipped_constraints_on_coincident_points(tmp_path, capsys, flags):
    # 20 copies of one point in two classes, and two distinct points that
    # keep the baseline distances from all being zero
    labels = ["ab"[i % 2] for i in range(20)] + ["a", "b"]
    rows = ["1.0,2.0,3.0"] * 20 + ["4.0,0.0,1.0", "0.0,5.0,2.0"]
    data = tmp_path / "coincident.csv"
    data.write_text("".join(f"{r},{c}\n" for r, c in zip(rows, labels)))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--label-col", "last", "--gamma", "inf",
                 "--max-sweeps", "3", "--out", str(tmp_path / "model.txt"), *flags]) == 0
    # a pair of coincident points has distance 0 under every metric: skipped
    coincident = sum(c.i < 20 and c.j < 20
                     for c in generate_from_labels(np.array(labels), per_class=100, seed=0))
    assert coincident > 0
    assert _logged_skipped(capsys.readouterr().err) == coincident


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags", [
    ["--space", "linear"],
    ["--kernel", "gaussian"],
    ["--kernel", "gaussian", "--basis", "kmeans:10"],
], ids=["linear", "kernel", "basis"])
def test_train_logs_no_skipped_constraints_on_ionosphere(ionosphere_rows, tmp_path, capsys,
                                                         flags):
    capsys.readouterr()
    assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
                 "--per-class", "10", "--max-sweeps", "3",
                 "--out", str(tmp_path / "model.txt"), *flags]) == 0
    assert _logged_skipped(capsys.readouterr().err) == 0


# -- train logs how many constraints a --basis fit dropped ---------------------------

def _logged(err: str, command: str, key: str) -> str:
    return re.search(rf"^\[{command}\] {key}: (.*)$", err, re.MULTILINE).group(1)


def _unreachable(data, basis, cs) -> int:
    """Constraints whose adjusted threshold is non-positive in the basis."""
    _, reduced = lowrank.reduce_problem(data, basis, cs)
    return int(np.count_nonzero(reduced.xi0 <= 0))


@pytest.mark.filterwarnings("ignore::logdetml.solver.SolverWarning",
                            "ignore::logdetml.lowrank.BasisWarning")
def test_train_logs_dropped_constraints_on_coincident_points(tmp_path, capsys):
    labels = ["ab"[i % 2] for i in range(20)] + ["a", "b"]
    rows = ["1.0,2.0,3.0"] * 20 + ["4.0,0.0,1.0", "0.0,5.0,2.0"]
    data = tmp_path / "coincident.csv"
    data.write_text("".join(f"{r},{c}\n" for r, c in zip(rows, labels)))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--label-col", "last", "--gamma", "inf",
                 "--max-sweeps", "3", "--basis", "topk:2",
                 "--out", str(tmp_path / "model.txt")]) == 0
    X, y = load_points_csv(data, label_col="last")
    basis = lowrank.select_basis_feature(X, "topk-svd", 2)
    expected = _unreachable(X, basis, evaluation.label_constraints(
        y, 100, 0, euclidean_distance_pool(X)))
    assert expected > 0
    assert int(_logged(capsys.readouterr().err, "train", "dropped")) == expected


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_train_logs_dropped_constraints_on_ionosphere(ionosphere_rows, tmp_path, capsys):
    capsys.readouterr()
    assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
                 "--kernel", "gaussian", "--basis", "kmeans:10", "--per-class", "10",
                 "--max-sweeps", "3", "--out", str(tmp_path / "model.txt")]) == 0
    X, y = load_points_csv(ionosphere_rows, label_col="last")
    K0 = gram(X, KernelSpec.gaussian(evaluation.median_pairwise_distance(X)))
    basis = lowrank.select_basis_kernel(K0, "kernel-kmeans", 10)
    expected = _unreachable(K0, basis, evaluation.label_constraints(
        y, 10, 0, kernel_distance_pool(K0)))
    assert int(_logged(capsys.readouterr().err, "train", "dropped")) == expected


# -- eval resolves --space and --kernel exactly as train does -------------------------

@pytest.fixture(scope="module")
def ionosphere_every4(tmp_path_factory):
    """Every fourth ionosphere row: 88 points, both classes."""
    path = tmp_path_factory.mktemp("data") / "ionosphere_every4.csv"
    path.write_text("\n".join(IONOSPHERE.read_text().splitlines()[::4]) + "\n")
    return path


def _eval_mean(data, capsys, *flags) -> str:
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--label-col", "last", "--mode", "knn",
                 *flags]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[4] == "mean"
    return last[3]


def test_eval_kernel_space_linear_kernel_fits_the_linear_kernel(ionosphere_every4, capsys):
    # the linear kernel, not a Gaussian at each fold's median width
    flags = ["--space", "kernel", "--per-class", "20", "--seed", "0"]
    served = _eval_mean(ionosphere_every4, capsys, *flags, "--kernel", "linear")
    X, y = load_points_csv(ionosphere_every4, label_col="last")
    learner = evaluation.logdet_kernel_learner(KernelSpec.linear(), per_class=20)
    assert served == f"{evaluation.two_fold_cv(X, y, learner, seed=0).accuracy:.12g}"
    assert served != _eval_mean(ionosphere_every4, capsys, *flags, "--kernel", "gaussian")


@pytest.mark.parametrize("seed", [1, 2])
def test_eval_gaussian_takes_each_training_folds_median_width(ionosphere_every4, capsys, seed):
    # each fold's kernel width comes from its training half alone, as with
    # logdet_kernel_learner(); a width from both halves scored 0.864 and 0.773
    served = _eval_mean(ionosphere_every4, capsys, "--kernel", "gaussian",
                        "--per-class", "20", "--seed", str(seed))
    X, y = load_points_csv(ionosphere_every4, label_col="last")
    learner = evaluation.logdet_kernel_learner(per_class=20)
    assert served == f"{evaluation.two_fold_cv(X, y, learner, seed=seed).accuracy:.12g}"


@pytest.mark.parametrize("loss, learner", [
    ("euclidean", evaluation.euclidean_learner),
    ("inverse-covariance", evaluation.inverse_covariance_learner),
])
def test_eval_baseline_loss_scores_its_learner(ionosphere_every4, capsys, loss, learner):
    capsys.readouterr()
    assert main(["eval", "--data", str(ionosphere_every4), "--label-col", "last",
                 "--mode", "knn", "--loss", loss, "--k", "3", "--seed", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    X, y = load_points_csv(ionosphere_every4, label_col="last")
    report = evaluation.two_fold_cv(X, y, learner(), k=3, seed=1)
    assert [(row[2], row[3], row[4]) for row in rows] == [
        ("accuracy", f"{acc:.12g}", fold) for acc, fold in
        zip([*report.fold_accuracies, report.accuracy], ["0", "1", "mean"])]


def test_gaussian_width_flag_sets_the_kernel_of_train_and_eval(ionosphere_every4, tmp_path,
                                                                capsys):
    flags = ["--data", str(ionosphere_every4), "--label-col", "last", "--kernel",
             "gaussian:2.5", "--per-class", "20", "--seed", "0", "--max-sweeps", "3"]
    capsys.readouterr()
    assert main(["train", *flags, "--out", str(tmp_path / "model.txt")]) == 0
    trained = capsys.readouterr().err
    assert load_model(tmp_path / "model.txt").kernel_spec == KernelSpec.gaussian(2.5)
    assert main(["eval", *flags, "--mode", "knn"]) == 0
    evaluated = capsys.readouterr()
    assert _logged(trained, "train", "effective_kernel") == "gaussian:2.5"
    assert _logged(evaluated.err, "eval", "effective_kernel") == "gaussian:2.5"
    # every fold fits the given width, not its own median
    X, y = load_points_csv(ionosphere_every4, label_col="last")
    learner = evaluation.logdet_kernel_learner(KernelSpec.gaussian(2.5), per_class=20,
                                               max_sweeps=3)
    served = evaluated.out.splitlines()[-1].split(",")[3]
    assert served == f"{evaluation.two_fold_cv(X, y, learner, seed=0).accuracy:.12g}"


def test_basis_none_trains_the_full_rank_model(ionosphere_rows, tmp_path):
    for name, flags in (("default", []), ("none", ["--basis", "none"])):
        assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
                     "--kernel", "gaussian", "--per-class", "5", "--max-sweeps", "3",
                     "--out", str(tmp_path / f"{name}.model"), *flags]) == 0
    assert (tmp_path / "none.model").read_bytes() == (tmp_path / "default.model").read_bytes()
    assert load_model(tmp_path / "none.model").kind == "kernel"


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags", [[], ["--basis", "kmeans:5"]], ids=["dense", "kmeans"])
def test_a_gaussian_train_forms_one_euclidean_pool(ionosphere_rows, tmp_path, monkeypatch,
                                                   flags):
    # the median width and the thresholds are read off the same pool
    from logdetml import constraints

    pool, calls = constraints.euclidean_distance_pool, []
    for module in (constraints, evaluation):
        monkeypatch.setattr(module, "euclidean_distance_pool",
                            lambda *a, **kw: calls.append(a) or pool(*a, **kw))
    assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
                 "--kernel", "gaussian", "--per-class", "5", "--max-sweeps", "2",
                 "--out", str(tmp_path / "model.txt"), *flags]) == 0
    assert len(calls) == 1


@pytest.fixture(scope="module")
def wide_rows(tmp_path_factory):
    """16 points in 20 dimensions (d > n), two classes."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((16, 20)) + np.arange(16)[:, None] % 2
    path = tmp_path_factory.mktemp("data") / "wide.csv"
    path.write_text("".join(",".join(f"{v:.17g}" for v in x) + f",{'ab'[i % 2]}\n"
                            for i, x in enumerate(X)))
    return path


@pytest.mark.filterwarnings("ignore::logdetml.constraints.ConstraintGenerationWarning")
@pytest.mark.parametrize("kernel", ["linear", "gaussian"])
@pytest.mark.parametrize("space", ["auto", "linear", "kernel"])
@pytest.mark.parametrize("dataset", ["ionosphere", "wide"])
def test_train_and_eval_resolve_space_and_kernel_alike(ionosphere_rows, wide_rows, tmp_path,
                                                       capsys, dataset, space, kernel):
    data = ionosphere_rows if dataset == "ionosphere" else wide_rows
    flags = ["--data", str(data), "--label-col", "last", "--space", space,
             "--kernel", kernel, "--per-class", "3"]
    capsys.readouterr()
    assert main(["train", *flags, "--max-sweeps", "3",
                 "--out", str(tmp_path / "model.txt")]) == 0
    trained = capsys.readouterr().err
    assert main(["eval", *flags, "--mode", "knn", "--k", "3"]) == 0
    evaluated = capsys.readouterr().err
    assert _logged(evaluated, "eval", "effective_space") == _logged(trained, "train", "effective_space")
    if kernel == "gaussian":
        # train takes the median width of all its points, eval that of each training fold
        assert _logged(trained, "train", "effective_kernel") == "gaussian:median"
        X, _ = load_points_csv(data, label_col="last")
        assert (_logged(trained, "train", "median_width")
                == f"{evaluation.median_pairwise_distance(X):.6g}")
        assert _logged(evaluated, "eval", "effective_kernel") == "gaussian:fold-median"
    else:
        assert _logged(evaluated, "eval", "effective_kernel") == _logged(trained, "train", "effective_kernel")
    if dataset == "wide" and kernel == "linear" and space != "linear":
        assert _logged(trained, "train", "effective_space") == "kernel"


# -- exits on degenerate data -----------------------------------------------------

def _write_rows(path, rows):
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


def _train_degenerate(tmp_path, capsys, data, *flags):
    """Run train; return (exit code, stderr) and check no traceback escaped."""
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "model.txt"), *flags])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_coincident_points_with_gaussian_kernel_exit_2(tmp_path, capsys):
    data = _write_rows(tmp_path / "same.csv", [[1.0, 2.0, "ab"[i % 2]] for i in range(8)])
    code, err = _train_degenerate(tmp_path, capsys, data, "--label-col", "last",
                                  "--kernel", "gaussian")
    assert code == EXIT_DATA
    assert "all points coincide" in err
    # the effective configuration is logged before the fit that fails
    assert _logged(err, "train", "effective_space") == "kernel"
    assert _logged(err, "train", "effective_kernel") == "gaussian:median"


@pytest.mark.parametrize("defect, message", [
    ("asymmetric", "not symmetric"),
    ("indefinite", "not positive semidefinite"),
])
def test_bad_precomputed_kernel_exits_2(tmp_path, capsys, defect, message):
    X = np.random.default_rng(0).standard_normal((3, 6))
    K = X.T @ X
    if defect == "asymmetric":
        K[0, 1] += 0.5
    else:
        K -= 3.0 * np.eye(6)
    kernel = _write_rows(tmp_path / "kernel.csv", [[f"{v:.17g}" for v in row] for row in K])
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n" * 3)
    code, err = _train_degenerate(tmp_path, capsys, kernel, "--labels", str(labels),
                                  "--kernel", "precomputed")
    assert code == EXIT_DATA
    assert message in err


def test_single_class_labels_train_with_a_warning(tmp_path, capsys):
    X = np.random.default_rng(0).standard_normal((12, 2))
    data = _write_rows(tmp_path / "one_class.csv", [[*x, "only"] for x in X])
    with pytest.warns(ConstraintGenerationWarning, match="single-class data"):
        code, _ = _train_degenerate(tmp_path, capsys, data, "--label-col", "last")
    assert code == 0


@pytest.mark.filterwarnings("ignore::logdetml.constraints.ConstraintGenerationWarning")
def test_two_points_train(tmp_path, capsys):
    data = _write_rows(tmp_path / "two.csv", [[1.0, 2.0, "a"], [3.0, 1.0, "b"]])
    code, _ = _train_degenerate(tmp_path, capsys, data, "--label-col", "last")
    assert code == 0
    assert (tmp_path / "model.txt").exists()


@pytest.mark.filterwarnings("ignore::logdetml.constraints.ConstraintGenerationWarning")
def test_gamma_cv_on_two_points_exits_2(tmp_path, capsys):
    data = _write_rows(tmp_path / "two.csv", [[1.0, 2.0, "a"], [3.0, 1.0, "b"]])
    code, err = _train_degenerate(tmp_path, capsys, data, "--label-col", "last",
                                  "--gamma", "cv")
    assert code == EXIT_DATA
    assert "at least 4 points" in err


def test_singular_subset_basis_exits_3(tmp_path, capsys):
    # every 2 x 2 principal submatrix of this K0 is singular, so no subset
    # basis of two points is usable
    K0 = np.zeros((8, 8))
    K0[0, 0] = 1.0
    kernel = _write_rows(tmp_path / "kernel.csv", K0.tolist())
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n" * 4)
    code, err = _train_degenerate(tmp_path, capsys, kernel, "--labels", str(labels),
                                  "--kernel", "precomputed", "--basis", "subset:2",
                                  "--per-class", "3", "--seed", "0")
    assert code == EXIT_NUMERIC
    assert "numerical failure: J^T K0 J is singular after jitter (two draws)" in err


def test_kmeans_basis_over_fewer_distinct_points_than_k_exits_3(tmp_path, capsys):
    # J^T K0 J has rank 3 < k = 5 whatever clusters kernel k-means finds
    data = _write_rows(tmp_path / "three.csv", [[v, "ab"[i % 2]] for i, v in enumerate([0, 1, 2] * 4)])
    code, err = _train_degenerate(tmp_path, capsys, data, "--label-col", "last",
                                  "--kernel", "gaussian", "--basis", "kmeans:5",
                                  "--per-class", "3")
    assert code == EXIT_NUMERIC
    assert "numerical failure: J^T K0 J is singular" in err
    assert not (tmp_path / "model.txt").exists()


@pytest.fixture(scope="module")
def constant_column(tmp_path_factory):
    """24 points in 4 dimensions whose third feature is always 5."""
    X = np.random.default_rng(1).standard_normal((24, 4)) + np.arange(24)[:, None] % 2
    X[:, 2] = 5.0
    path = tmp_path_factory.mktemp("data") / "constant.csv"
    return _write_rows(path, [[*x, "ab"[i % 2]] for i, x in enumerate(X)])


@pytest.mark.parametrize("kernel", ["linear", "gaussian"])
def test_constant_feature_trains_and_evaluates(constant_column, tmp_path, capsys, kernel):
    code, _ = _train_degenerate(tmp_path, capsys, constant_column, "--label-col", "last",
                                "--kernel", kernel, "--per-class", "10")
    assert code == 0
    assert main(["eval", "--data", str(constant_column), "--label-col", "last",
                 "--mode", "knn", "--kernel", kernel, "--per-class", "10", "--k", "3"]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def ionosphere_gram(tmp_path_factory):
    """Ionosphere's Gaussian Gram at width 3 as a precomputed kernel CSV, and
    its labels file."""
    X, labels = load_points_csv(IONOSPHERE, label_col="last")
    K = gram(X, KernelSpec.gaussian(3.0))
    root = tmp_path_factory.mktemp("gram")
    _write_rows(root / "kernel.csv", [[f"{v:.17g}" for v in row] for row in K])
    (root / "labels.txt").write_text("\n".join(labels) + "\n")
    return root / "kernel.csv", root / "labels.txt"


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("seed", ["0", "1901"])
def test_a_precomputed_gram_evaluates_and_tunes_as_the_kernel_it_holds(ionosphere_gram, tmp_path,
                                                                       capsys, seed):
    # its points are its indices, so a fold's training kernel and the kernel
    # vectors of its held-out points are slices of the table
    kernel, labels = ionosphere_gram
    runs = {"precomputed": ["--data", str(kernel), "--labels", str(labels),
                            "--kernel", "precomputed"],
            "gaussian": ["--data", str(IONOSPHERE), "--label-col", "last",
                         "--kernel", "gaussian:3.0"]}
    folds, gammas = {}, {}
    for name, data in runs.items():
        capsys.readouterr()
        assert main(["eval", *data, "--mode", "knn", "--max-sweeps", "20", "--seed", seed]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        folds[name] = [row.split(",")[3:5] for row in rows]
        for basis in ("none", "kmeans:5"):  # a kernel basis is chosen on each fold's table
            assert main(["train", *data, "--gamma", "cv", "--max-sweeps", "3", "--per-class",
                         "20", "--basis", basis, "--seed", seed,
                         "--out", str(tmp_path / f"{name}.model")]) == 0
            gammas[name, basis] = _logged(capsys.readouterr().err, "train", "gamma_selected")
    assert folds["precomputed"] == folds["gaussian"]
    assert [fold for _, fold in folds["gaussian"]] == ["0", "1", "mean"]
    for basis in ("none", "kmeans:5"):
        assert gammas["precomputed", basis] == gammas["gaussian", basis]


@pytest.mark.parametrize("case", ["cluster-cv", "precomputed-loss-euclidean",
                                  "precomputed-loss-inverse-covariance", "precomputed-topk",
                                  "no-labels", "label-count", "missing-file",
                                  "topk-gaussian"])
def test_rejected_run_exits_with_a_message(ionosphere_rows, tmp_path, capsys, case):
    kernel = _write_rows(tmp_path / "kernel.csv", np.eye(6).tolist())
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n" * 3)
    four = tmp_path / "four.txt"
    four.write_text("a\nb\n" * 2)
    data = ["--data", str(ionosphere_rows), "--label-col", "last"]
    precomputed = ["--data", str(kernel), "--labels", str(labels), "--kernel", "precomputed"]
    out = ["--out", str(tmp_path / "model.txt")]
    argv, code, message = {
        "cluster-cv": (["eval", *data, "--mode", "cluster", "--gamma", "cv"],
                       EXIT_FLAGS, "--gamma cv is not supported in cluster mode"),
        # a precomputed kernel's points are indices, not features
        "precomputed-loss-euclidean": (
            ["eval", *precomputed, "--mode", "knn", "--loss", "euclidean"],
            EXIT_DATA, "--loss euclidean needs explicit points"),
        "precomputed-loss-inverse-covariance": (
            ["eval", *precomputed, "--mode", "knn", "--loss", "inverse-covariance"],
            EXIT_DATA, "--loss inverse-covariance needs explicit points"),
        "precomputed-topk": (["train", *precomputed, "--basis", "topk:2", *out],
                             EXIT_DATA, "--basis topk requires explicit points and a linear kernel"),
        "no-labels": (["train", "--data", str(kernel), *out],
                      EXIT_DATA, "labels are required"),
        "label-count": (["train", "--data", str(kernel), "--labels", str(four), *out],
                        EXIT_DATA, "4 labels for 6 points"),
        "missing-file": (["train", "--data", str(tmp_path / "absent.csv"), *out],
                         EXIT_DATA, "absent.csv"),
        "topk-gaussian": (["train", *data, "--kernel", "gaussian", "--basis", "topk:2", *out],
                          EXIT_DATA, "--basis topk requires explicit points and a linear kernel"),
    }[case]
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert message in captured.err
    assert not (tmp_path / "model.txt").exists()


def test_class_means_basis_of_rank_zero_exits_3(tmp_path, capsys):
    # both classes are centred on the origin, so both class means are zero
    rows = [[1.0, 0.0, "a"], [-1.0, 0.0, "a"], [0.0, 1.0, "a"], [0.0, -1.0, "a"],
            [2.0, 0.0, "b"], [-2.0, 0.0, "b"], [0.0, 2.0, "b"], [0.0, -2.0, "b"]]
    data = _write_rows(tmp_path / "centred.csv", rows)
    code, err = _train_degenerate(tmp_path, capsys, data, "--label-col", "last",
                                  "--basis", "classmeans:2", "--per-class", "3")
    assert code == EXIT_NUMERIC
    assert "numerical failure: class-mean basis has rank zero" in err
    assert not (tmp_path / "model.txt").exists()


@pytest.fixture(scope="module")
def ionosphere_every12(tmp_path_factory):
    """Every twelfth ionosphere row: 30 points, both classes."""
    path = tmp_path_factory.mktemp("data") / "ionosphere_every12.csv"
    path.write_text("\n".join(IONOSPHERE.read_text().splitlines()[::12]) + "\n")
    return path


def test_eval_gamma_cv_tunes_with_the_outer_k(ionosphere_every12, capsys):
    # the inner folds hold 7 or 8 training points: k=3 fits them, the
    # default k=10 the inner CV used to take did not
    argv = ["eval", "--data", str(ionosphere_every12), "--label-col", "last",
            "--mode", "knn", "--gamma", "cv", "--per-class", "5"]
    capsys.readouterr()
    assert main(argv + ["--k", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("ionosphere_every12.csv,knn,accuracy,")
    X, labels = load_points_csv(ionosphere_every12, label_col="last")
    learner = evaluation.logdet_kernel_learner(KernelSpec.linear(), per_class=5, gamma="cv", k=3)
    report = evaluation.two_fold_cv(X, labels, learner, k=3, seed=0)
    assert captured.out.splitlines()[-1].split(",")[3] == f"{report.accuracy:.12g}"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_labels_file_and_label_column_are_exclusive(tmp_path, capsys, command):
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n")
    # the data file does not exist: the flags are rejected before any read
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--label-col", "last",
            "--labels", str(labels)]
    argv += ["--out", str(tmp_path / "model.txt")] if command == "train" else ["--mode", "knn"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_FLAGS
    assert "not allowed with argument" in capsys.readouterr().err


# -- one default tol, and train says why a fit stopped ---------------------------------

def test_every_default_tol_is_the_solver_default():
    parser = build_parser()
    defaults = [
        solver.SolverConfig().tol,
        parser.parse_args(["train", "--data", "d.csv", "--out", "m.txt"]).tol,
        parser.parse_args(["eval", "--data", "d.csv", "--mode", "knn"]).tol,
        *(inspect.signature(f).parameters["tol"].default
          for f in (evaluation.logdet_learner, evaluation.clustering_protocol)),
    ]
    assert defaults == [solver.DEFAULT_TOL] * 5


@pytest.mark.parametrize("flags, reason", [(["--max-sweeps", "1"], "cap"), ([], "rule")])
def test_train_logs_why_the_fit_stopped(ionosphere_every4, tmp_path, capsys, flags, reason):
    capsys.readouterr()
    assert main(["train", "--data", str(ionosphere_every4), "--label-col", "last",
                 "--out", str(tmp_path / "model.txt"), *flags]) == 0
    err = capsys.readouterr().err
    assert _logged(err, "train", "stop_reason") == reason
    assert _logged(err, "train", "converged") == str(reason == "rule")
    change = float(_logged(err, "train", "distance_change"))
    assert (change > solver.DEFAULT_TOL) == (reason == "cap")
    warnings = re.findall(r"^\[train\] WARNING: (.*)$", err, re.MULTILINE)
    if reason == "cap":
        assert len(warnings) == 1 and warnings[0].startswith("the sweep cap ended the fit")
    else:
        assert warnings == []


# -- cluster mode rejects the flags it cannot honour ---------------------------------

@pytest.mark.parametrize("flags, named", [
    (["--space", "kernel"], "--space kernel"),
    (["--kernel", "gaussian"], "--kernel gaussian"),
    (["--loss", "euclidean"], "--loss euclidean"),
    (["--kernel", "gaussian", "--space", "kernel", "--loss", "euclidean"], "--space kernel"),
    (["--per-class", "5"], "--per-class"),  # cluster mode draws --constraints random pairs
])
def test_cluster_mode_rejects_flags_it_cannot_honour(tmp_path, capsys, flags, named):
    # the data file does not exist: the flags are rejected before any read
    argv = ["eval", "--data", str(tmp_path / "absent.csv"), "--label-col", "last",
            "--mode", "cluster", *flags]
    assert main(argv) == EXIT_FLAGS
    err = capsys.readouterr().err
    assert f"error: {named} is not supported in cluster mode" in err
    assert "absent.csv" not in err


def test_cluster_mode_runs_with_linear_flags(ionosphere_every4, capsys):
    argv = ["eval", "--data", str(ionosphere_every4), "--label-col", "last",
            "--mode", "cluster", "--constraints", "20"]
    outputs = []
    for flags in ([], ["--space", "linear", "--kernel", "linear"]):
        capsys.readouterr()
        assert main(argv + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert [row.split(",")[2] for row in outputs[0].splitlines()[1:]] == \
        ["error_unsupervised", "error_logdet"]


def test_every_default_per_class_is_the_constraints_default(ionosphere_every12, capsys):
    parser = build_parser()
    assert parser.parse_args(["train", "--data", "d.csv", "--out", "m.txt"]).per_class == \
        DEFAULT_PER_CLASS
    for f in (generate_from_labels, evaluation.logdet_learner):
        assert inspect.signature(f).parameters["per_class"].default == DEFAULT_PER_CLASS
    # eval leaves it unset, so that cluster mode can tell an explicit value
    # apart; k-NN mode reads the unset value as the default
    assert parser.parse_args(["eval", "--data", "d.csv", "--mode", "knn"]).per_class is None
    outputs = []
    for flags in ([], ["--per-class", str(DEFAULT_PER_CLASS)]):
        capsys.readouterr()
        assert main(["eval", "--data", str(ionosphere_every12), "--label-col", "last",
                     "--mode", "knn", *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# -- one fit path: the CV learner fits and serves what train saves ---------------------

@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags", [
    ["--space", "linear"],
    ["--kernel", "gaussian"],
    ["--kernel", "gaussian", "--basis", "random:8"],
    ["--basis", "topk:5"],
], ids=["space-linear", "kernel-gaussian", "basis-random8", "basis-topk5"])
def test_cv_learner_serves_what_distance_prints(ionosphere_every4, tmp_path, capsys, flags):
    argv = ["train", "--data", str(ionosphere_every4), "--label-col", "last",
            "--per-class", "20", "--seed", "3", *flags, "--out", str(tmp_path / "model.txt")]
    assert main(argv) == 0
    X, labels = load_points_csv(ionosphere_every4, label_col="last")
    points = tmp_path / "points.csv"
    points.write_text("".join(",".join(f"{v:.17g}" for v in x) + "\n" for x in X[:, ::4].T))
    capsys.readouterr()
    assert main(["distance", str(tmp_path / "model.txt"), "--points", str(points)]) == 0
    printed = [row.split(",")[2] for row in capsys.readouterr().out.splitlines()[1:]]

    args = build_parser().parse_args(argv)
    space, spec = cli._resolve(args, X)
    learner = evaluation.logdet_learner(space, spec, args.per_class, args.gamma, args.tol,
                                        args.max_sweeps, basis=args.basis)
    oracle = learner(X, labels, args.seed)
    Z, _ = load_points_csv(points)
    I, J = np.triu_indices(Z.shape[1])
    served = oracle.pairwise(Z, Z)[I, J]
    served[I == J] = 0.0
    # the file serves X in training's layout, so the bits, and the 12-digit
    # strings, are those of the model in memory
    assert ["%.12g" % v for v in served] == printed


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_gamma_cv_with_a_basis_tunes_the_low_rank_fit(ionosphere_every4, tmp_path, monkeypatch):
    calls = {"fit_kernel": 0, "fit_low_rank": 0}
    for module, name in ((solver, "fit_kernel"), (lowrank, "fit_low_rank")):
        def counted(*a, _fit=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _fit(*a, **kw)
        monkeypatch.setattr(module, name, counted)
    assert main(["train", "--data", str(ionosphere_every4), "--label-col", "last",
                 "--kernel", "gaussian", "--basis", "random:8", "--gamma", "cv",
                 "--per-class", "10", "--out", str(tmp_path / "model.txt")]) == 0
    # two folds for each of the six gammas, then the fit train saves
    assert calls == {"fit_kernel": 0, "fit_low_rank": 2 * len(evaluation.GAMMA_GRID) + 1}


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_basis_larger_than_a_cv_fold_exits_2(ionosphere_every12, tmp_path, capsys):
    # 30 points hold a 20-vector basis; neither two-fold half does
    argv = ["train", "--data", str(ionosphere_every12), "--label-col", "last",
            "--kernel", "gaussian", "--basis", "random:20", "--per-class", "5",
            "--out", str(tmp_path / "model.txt")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--gamma", "cv"]) == EXIT_DATA
    _, labels = load_points_csv(ionosphere_every12, label_col="last")
    first_fold = len(evaluation.stratified_split(labels, seed=0)[0])
    assert f"error: --basis random:20 is larger than a CV fold ({first_fold} training " \
        "points)\n" in capsys.readouterr().err


# -- eval takes train's --max-sweeps --------------------------------------------

def test_eval_max_sweeps_is_the_benchmark_knn2fold(capsys, monkeypatch):
    # what `bench/stage.py knn2fold` runs: two-fold 10-NN with the default
    # gaussian learner at gamma 1 and a 20-sweep budget
    caps = []
    fit_kernel = solver.fit_kernel
    monkeypatch.setattr(solver, "fit_kernel",
                        lambda K0, cs, cfg: caps.append(cfg.max_sweeps) or fit_kernel(K0, cs, cfg))
    served = _eval_mean(IONOSPHERE, capsys, "--kernel", "gaussian", "--max-sweeps", "20",
                        "--per-class", "100", "--k", "10")
    assert caps == [20, 20]
    X, y = load_points_csv(IONOSPHERE, label_col="last")
    learner = evaluation.logdet_kernel_learner(per_class=100, gamma=1.0, max_sweeps=20)
    assert served == f"{evaluation.two_fold_cv(X, y, learner, k=10, seed=0).accuracy:.12g}"


@pytest.mark.parametrize("flags, message", [
    (["--mode", "cluster", "--max-sweeps", "5"],
     "--max-sweeps is not supported in cluster mode"),
    (["--mode", "knn", "--loss", "euclidean", "--max-sweeps", "5"],
     "--max-sweeps is not supported with --loss euclidean"),
    (["--mode", "knn", "--loss", "inverse-covariance", "--max-sweeps", "5"],
     "--max-sweeps is not supported with --loss inverse-covariance"),
])
def test_eval_rejects_fit_flags_where_nothing_takes_them(tmp_path, capsys, flags, message):
    # the data file does not exist: the flags are rejected before any read
    argv = ["eval", "--data", str(tmp_path / "absent.csv"), "--label-col", "last", *flags]
    assert main(argv) == EXIT_FLAGS
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "absent.csv" not in err


@pytest.mark.parametrize("flags", [["--space", "linear"], ["--kernel", "gaussian"]],
                         ids=["linear", "kernel"])
def test_distance_csv_across_write_blocks_is_the_per_row_format(ionosphere_rows, tmp_path,
                                                                capsys, flags):
    # 130 query points: 8,515 rows, three whole blocks of BLOCK_VALUES // 3 = 2,730 rows
    # (three values a row) and a remainder of 325
    model = tmp_path / "trained.model"
    assert main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
                 "--per-class", "10", "--max-sweeps", "3", "--out", str(model), *flags]) == 0
    query = tmp_path / "query.csv"
    query.write_text("".join(row.rsplit(",", 1)[0] + "\n"
                             for row in IONOSPHERE.read_text().splitlines()[:130]))
    Z, _ = load_points_csv(query)
    D = evaluation.serve(load_model(model)).pairwise(Z, Z)
    rows = [(i, j, 0.0 if i == j else float(D[i, j]))
            for i in range(Z.shape[1]) for j in range(i, Z.shape[1])]
    step = BLOCK_VALUES // 3
    assert len(rows) > 2 * step and len(rows) % step
    expected = "i,j,sq_distance\n" + "".join("%d,%d,%.12g\n" % row for row in rows)

    out = tmp_path / "distances.csv"
    capsys.readouterr()
    assert main(["distance", str(model), "--points", str(query), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    assert main(["distance", str(model), "--points", str(query)]) == 0
    assert capsys.readouterr().out == expected
