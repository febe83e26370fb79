from pathlib import Path

import numpy as np
import pytest

from logdetml.cli import main
from logdetml.datasets import load_kernel_csv, load_points_csv
from logdetml.linalg import KernelSpec, gram
from logdetml.modelfile import load_model, save_model

IONOSPHERE = Path(__file__).parent / "data" / "ionosphere.csv"


@pytest.fixture(scope="module")
def small_ionosphere(tmp_path_factory):
    """Every sixth ionosphere row: 59 points, both classes."""
    rows = IONOSPHERE.read_text().splitlines()[::6]
    path = tmp_path_factory.mktemp("data") / "ionosphere_small.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("linear", ["--space", "linear"]),
        ("kernel", ["--kernel", "gaussian"]),
        # a 20-centre basis cannot reach every pair direction of this kernel
        pytest.param("iplr", ["--kernel", "gaussian", "--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["linear", "kernel", "iplr"],
)
def test_save_load_save_is_byte_identical(small_ionosphere, tmp_path, kind, flags):
    trained = tmp_path / "trained.model"
    code = main(["train", "--data", str(small_ionosphere), "--label-col", "last",
                 "--per-class", "10", "--max-sweeps", "5", "--out", str(trained), *flags])
    assert code == 0
    mf = load_model(trained)
    assert mf.kind == kind
    resaved = tmp_path / "resaved.model"
    save_model(resaved, mf)
    assert resaved.read_bytes() == trained.read_bytes()


# -- format version 2: K0 is derived, not stored ----------------------------

# Written by the version-1 format (K0 stored) with
#   logdetml train --data <every 18th ionosphere row> --label-col last
#       --kernel gaussian --per-class 5 --max-sweeps 5
V1_KERNEL_MODEL = Path(__file__).parent / "data" / "ionosphere_kernel_v1.model"


def _train(data, out, *flags):
    return main(["train", "--data", str(data), "--label-col", "last",
                 "--per-class", "10", "--max-sweeps", "5", "--out", str(out), *flags])


def _matrix_names(path):
    return [line.split()[1] for line in path.read_text().splitlines()
            if line.startswith("matrix ")]


@pytest.fixture(scope="module")
def query_points(tmp_path_factory):
    """Out-of-sample points: ionosphere rows not in the 18-row subset, no labels."""
    rows = IONOSPHERE.read_text().splitlines()[1::18]
    path = tmp_path_factory.mktemp("query") / "query.csv"
    path.write_text("\n".join(row.rsplit(",", 1)[0] for row in rows) + "\n")
    return path


@pytest.fixture(scope="module")
def gaussian_model(small_ionosphere, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "gaussian.model"
    assert _train(small_ionosphere, path, "--kernel", "gaussian") == 0
    return path


@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel", "gaussian"],
        ["--space", "kernel", "--kernel", "linear"],
        pytest.param(["--kernel", "gaussian", "--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["gaussian", "linear-kernel", "iplr-kmeans"],
)
def test_v2_drops_K0_and_rebuilds_it_bit_identically(small_ionosphere, tmp_path, flags):
    path = tmp_path / "trained.model"
    assert _train(small_ionosphere, path, *flags) == 0
    assert path.read_text().startswith("version 2\n")
    assert "K0" not in _matrix_names(path)
    mf = load_model(path)
    X_csv, _ = load_points_csv(small_ionosphere, label_col="last")
    assert np.array_equal(mf.X, X_csv)
    assert np.array_equal(mf.K0, gram(X_csv, mf.kernel_spec))


@pytest.mark.parametrize(
    "flags",
    [
        [],
        pytest.param(["--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["kernel", "iplr-kmeans"],
)
def test_precomputed_kernel_keeps_K0(small_ionosphere, tmp_path, flags):
    X, labels = load_points_csv(small_ionosphere, label_col="last")
    K = gram(X, KernelSpec.gaussian(3.0))
    kernel_csv = tmp_path / "kernel.csv"
    kernel_csv.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in K) + "\n")
    labels_txt = tmp_path / "labels.txt"
    labels_txt.write_text("\n".join(labels) + "\n")
    trained = tmp_path / "trained.model"
    code = main(["train", "--data", str(kernel_csv), "--labels", str(labels_txt),
                 "--kernel", "precomputed", "--per-class", "10", "--max-sweeps", "5",
                 "--out", str(trained), *flags])
    assert code == 0
    assert "K0" in _matrix_names(trained)
    assert "X" not in _matrix_names(trained)
    mf = load_model(trained)
    assert np.array_equal(mf.K0, load_kernel_csv(kernel_csv))
    resaved = tmp_path / "resaved.model"
    save_model(resaved, mf)
    assert resaved.read_bytes() == trained.read_bytes()


def test_v1_model_loads_and_serves_like_v2(tmp_path, query_points):
    assert V1_KERNEL_MODEL.read_text().startswith("version 1\n")
    assert "K0" in _matrix_names(V1_KERNEL_MODEL)
    v1 = load_model(V1_KERNEL_MODEL)
    v2_path = tmp_path / "v2.model"
    save_model(v2_path, v1)
    assert "K0" not in _matrix_names(v2_path)
    v2 = load_model(v2_path)
    assert np.array_equal(v2.K0, v1.K0)

    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n2,19\n5,11\n13,7\n")
    for query in (["--points", str(query_points)], ["--pairs", str(pairs)]):
        outputs = []
        for model in (V1_KERNEL_MODEL, v2_path):
            out = tmp_path / f"{model.stem}_{query[0][2:]}.csv"
            assert main(["distance", str(model), *query, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# -- malformed model files exit 2 with a message ------------------------------

def _replace_line(text, prefix, new):
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = new
    return "\n".join(lines) + "\n", at + 1


def _drop_matrix(text, name):
    lines = text.splitlines()
    at = lines.index(next(line for line in lines if line.startswith(f"matrix {name} ")))
    rows = int(lines[at].split()[2])
    del lines[at:at + 1 + rows]
    return "\n".join(lines) + "\n"


def _malformed(text, case):
    """(broken file text, 1-based line the error names, message fragment)."""
    if case == "missing-value":
        return _replace_line(text, "version", "version") + ("missing a value",)
    if case == "non-numeric-entry":
        lines = text.splitlines()
        at = lines.index(next(line for line in lines if line.startswith("matrix X "))) + 1
        vals = lines[at].split()
        vals[3] = "abc"
        lines[at] = " ".join(vals)
        return "\n".join(lines) + "\n", at + 1, "non-numeric"
    if case == "non-integer":
        return _replace_line(text, "seed", "seed 1.5") + ("integer",)
    if case == "unknown-kind":
        return _replace_line(text, "kind", "kind quadratic") + ("unknown model kind",)
    if case == "no-points":
        broken = _drop_matrix(text, "X")
        return broken, len(broken.splitlines()), "no K0 block"
    if case == "precomputed-no-K0":
        broken, _ = _replace_line(text, "kernel", "kernel precomputed")
        return broken, len(broken.splitlines()), "no K0 block"
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["missing-value", "non-numeric-entry", "non-integer",
                                  "unknown-kind", "no-points", "precomputed-no-K0"])
def test_malformed_model_file_exits_2(gaussian_model, query_points, tmp_path, capsys, case):
    text, line, fragment = _malformed(gaussian_model.read_text(), case)
    broken = tmp_path / "broken.model"
    broken.write_text(text)
    capsys.readouterr()
    code = main(["distance", str(broken), "--points", str(query_points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{broken}: line {line}:" in captured.err
    assert fragment in captured.err


def test_binary_model_file_exits_2(query_points, tmp_path, capsys):
    broken = tmp_path / "binary.model"
    broken.write_bytes(b"\xff\xfe\x00version 2\n")
    code = main(["distance", str(broken), "--points", str(query_points)])
    assert code == 2
    assert f"{broken}: not a text model file" in capsys.readouterr().err


# -- stdout carries only data ---------------------------------------------------

def test_train_logs_to_stderr_and_distance_prints_only_csv(small_ionosphere, query_points,
                                                           tmp_path, capsys):
    model = tmp_path / "linear.model"
    capsys.readouterr()
    assert _train(small_ionosphere, model, "--space", "linear") == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[train] model_written:" in captured.err

    assert main(["distance", str(model), "--points", str(query_points)]) == 0
    printed = capsys.readouterr().out
    written = tmp_path / "distances.csv"
    assert main(["distance", str(model), "--points", str(query_points),
                 "--out", str(written)]) == 0
    assert printed == written.read_text()
    lines = printed.splitlines()
    assert lines[0] == "i,j,sq_distance"
    n = len(query_points.read_text().splitlines())
    assert len(lines) == 1 + n * (n + 1) // 2


# -- `distance --pairs` takes integer indices ------------------------------------

@pytest.mark.parametrize("text, fragment", [
    ("0,1\n\n0.5,1\n", "non-integer index in pair 2"),
    ("0,1,2\n", "expected two indices per row, got 3"),
], ids=["fractional", "three-columns"])
def test_distance_rejects_malformed_pairs(gaussian_model, tmp_path, capsys, text, fragment):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(text)
    capsys.readouterr()
    code = main(["distance", str(gaussian_model), "--pairs", str(pairs)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{pairs}: {fragment}" in captured.err


def test_distance_accepts_integral_float_pairs(gaussian_model, tmp_path, capsys):
    outputs = []
    for text in ("0,1\n2,19\n", "0.0,1\n2,1.9e1\n"):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(text)
        capsys.readouterr()
        assert main(["distance", str(gaussian_model), "--pairs", str(pairs)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1].startswith("0,1,")


def test_non_utf8_points_exit_2(gaussian_model, tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_bytes(b"\xff\xfe1,2\n")
    capsys.readouterr()
    code = main(["distance", str(gaussian_model), "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{points}: not a UTF-8 text file" in captured.err
