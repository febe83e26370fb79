import numpy as np
import pytest

from logdetml.cli import EXIT_DATA, main
from logdetml.datasets import load_kernel_csv, load_points_csv
from logdetml.errors import InvalidArgumentError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_points_transposed_and_labels_peeled(tmp_path):
    path = write(tmp_path, "1,2,a\n3,4.5,b\n-1e3,0,a\n")
    X, labels = load_points_csv(path, label_col="last")
    assert np.array_equal(X, [[1.0, 3.0, -1000.0], [2.0, 4.5, 0.0]])
    assert list(labels) == ["a", "b", "a"]


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_value_rejected_with_row(tmp_path, bad):
    path = write(tmp_path, f"1,2,a\n3,{bad},b\n")
    with pytest.raises(InvalidArgumentError, match=r"data\.csv: non-finite value on row 2"):
        load_points_csv(path, label_col="last")


def test_non_finite_label_text_is_a_label(tmp_path):
    X, labels = load_points_csv(write(tmp_path, "1,2,nan\n3,4,inf\n"), label_col="last")
    assert np.all(np.isfinite(X))
    assert list(labels) == ["nan", "inf"]


def test_non_numeric_value_rejected_with_row(tmp_path):
    path = write(tmp_path, "1,2\n3,4\nfive,6\n")
    with pytest.raises(InvalidArgumentError, match=r"data\.csv: non-numeric value on row 3"):
        load_points_csv(path)


def test_ragged_rows_rejected(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5\n")
    with pytest.raises(InvalidArgumentError, match=r"ragged rows \(widths \[2, 3\]\)"):
        load_points_csv(path)


def test_non_finite_kernel_entry_rejected(tmp_path):
    path = write(tmp_path, "1,0\n0,inf\n", name="kernel.csv")
    with pytest.raises(InvalidArgumentError, match=r"kernel\.csv: non-finite value on row 2"):
        load_kernel_csv(path)


@pytest.mark.parametrize("kernel", ["linear", "gaussian"])
def test_train_on_nan_exits_with_data_error(tmp_path, capsys, kernel):
    rows = [f"{i},{(i * 7) % 5},{'a' if i % 2 else 'b'}" for i in range(12)]
    rows[5] = "nan,1,a"
    path = write(tmp_path, "\n".join(rows) + "\n")
    code = main(["train", "--data", str(path), "--label-col", "last", "--kernel", kernel,
                 "--per-class", "3", "--max-sweeps", "2", "--out", str(tmp_path / "m.txt")])
    assert code == EXIT_DATA
    assert "non-finite value on row 6" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("bad", ["data", "labels"])
def test_train_on_non_utf8_file_exits_with_data_error(tmp_path, capsys, bad):
    good = write(tmp_path, "".join(f"{i},{(i * 7) % 5}\n" for i in range(12)))
    write(tmp_path, "".join("a\n" if i % 2 else "b\n" for i in range(12)), name="labels.txt")
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe1,2\n")
    data, labels = (binary, tmp_path / "labels.txt") if bad == "data" else (good, binary)
    code = main(["train", "--data", str(data), "--labels", str(labels), "--per-class", "3",
                 "--max-sweeps", "2", "--out", str(tmp_path / "m.txt")])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert f"{binary}: not a UTF-8 text file" in captured.err
    assert not (tmp_path / "m.txt").exists()
