from pathlib import Path

import pytest

from logdetml.cli import EXIT_FLAGS, main
from logdetml.modelfile import load_model

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
    ("train", "--eta", "-1"),
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
        if flag == "--eta":
            argv += ["--loss", "frobenius"]
    else:
        argv += ["--mode", "cluster" if flag == "--constraints" else "knn"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == EXIT_FLAGS
    assert f"argument {flag}" in capsys.readouterr().err


def test_vonneumann_reports_the_constraints_it_misses(ionosphere_rows, tmp_path, capsys):
    model = tmp_path / "vn.model"
    code = main(["train", "--data", str(ionosphere_rows), "--label-col", "last",
                 "--loss", "vonneumann", "--kernel", "gaussian", "--per-class", "10",
                 "--out", str(model)])
    assert code == 0
    err = capsys.readouterr().err
    violated = int(err.split("[train] WARNING: ")[1].split()[0])
    assert violated > 0
    worst = float(err.split("[train] max_violation: ")[1].split()[0])
    assert worst > 0.1
    assert not load_model(model).converged
