import re
from pathlib import Path

import numpy as np
import pytest

from logdetml.cli import EXIT_DATA, EXIT_FLAGS, main
from logdetml.constraints import ConstraintGenerationWarning, generate_from_labels

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
