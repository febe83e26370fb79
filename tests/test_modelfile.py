import csv
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import logdetml
from logdetml.cli import main
from logdetml.constraints import kernel_distance_pool
from logdetml.datasets import load_kernel_csv, load_points_csv
from logdetml.errors import InvalidArgumentError
from logdetml.linalg import KernelSpec, gram, index_points
from logdetml.linalg import symmetrize
from logdetml.modelfile import BLOCK_VALUES, ModelFile, load_model, save_model, training_gram

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


# -- format versions 2 and 3: K0 is derived, not stored ---------------------

# Written by the version-1 format (K0 stored) with
#   logdetml train --data <every 18th ionosphere row> --label-col last
#       --kernel gaussian --per-class 5 --max-sweeps 5
V1_KERNEL_MODEL = Path(__file__).parent / "data" / "ionosphere_kernel_v1.model"
# Written by the version-2 format (every matrix in full, no T) with
#   logdetml train --data <every 18th ionosphere row> --label-col last
#       --kernel gaussian --basis kmeans:4 --per-class 5 --max-sweeps 5
V2_IPLR_MODEL = Path(__file__).parent / "data" / "ionosphere_iplr_v2.model"
# Written when a precomputed-kernel model held K0 and no points, with
#   logdetml train --data <the width-3 Gaussian Gram of every 18th ionosphere row>
#       --labels <its labels> --kernel precomputed --per-class 5 --max-sweeps 5
#       [--basis kmeans:4]
# and served, next to each, as MODEL_pairs.csv by
#   logdetml distance MODEL --pairs <PRECOMPUTED_PAIRS>
PRECOMPUTED_MODELS = [Path(__file__).parent / "data" / f"ionosphere_precomputed_{form}.model"
                      for form in ("dense", "kmeans")]
PRECOMPUTED_PAIRS = "0,1\n2,19\n5,5\n13,7\n"


def _train(data, out, *flags):
    return main(["train", "--data", str(data), "--label-col", "last",
                 "--per-class", "10", "--max-sweeps", "5", "--out", str(out), *flags])


def _matrix_names(path):
    return [line.split()[1] for line in path.read_text().splitlines()
            if line.startswith(("matrix ", "symmetric "))]


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
    assert path.read_text().startswith("version 3\n")
    assert "K0" not in _matrix_names(path)
    mf = load_model(path)
    X_csv, _ = load_points_csv(small_ionosphere, label_col="last")
    assert np.array_equal(mf.X, X_csv)
    assert mf.K0 is None  # the model serves its points, and holds no Gram of them
    assert np.array_equal(training_gram(mf.X, mf.kernel_spec), gram(X_csv, mf.kernel_spec))


def _train_precomputed(data, tmp_path, *flags):
    """Train on the Gaussian Gram of ``data`` given as a precomputed kernel;
    returns (kernel CSV, model file)."""
    X, labels = load_points_csv(data, label_col="last")
    K = gram(X, KernelSpec.gaussian(3.0))
    kernel_csv = tmp_path / "kernel.csv"
    kernel_csv.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in K) + "\n")
    labels_txt = tmp_path / "labels.txt"
    labels_txt.write_text("\n".join(labels) + "\n")
    trained = tmp_path / "trained.model"
    assert main(["train", "--data", str(kernel_csv), "--labels", str(labels_txt),
                 "--kernel", "precomputed", "--per-class", "10", "--max-sweeps", "5",
                 "--out", str(trained), *flags]) == 0
    return kernel_csv, trained


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
    kernel_csv, trained = _train_precomputed(small_ionosphere, tmp_path, *flags)
    assert "K0" in _matrix_names(trained)
    assert "X" not in _matrix_names(trained)
    mf = load_model(trained)
    # the K0 block is read back as the kernel's table, over the index points
    table = load_kernel_csv(kernel_csv)
    assert mf.kernel_spec.table.tobytes() == table.tobytes()
    assert np.array_equal(mf.X, index_points(len(table))) and mf.K0 is None
    resaved = tmp_path / "resaved.model"
    save_model(resaved, mf)
    assert resaved.read_bytes() == trained.read_bytes()


def _resaved_serves_alike(old, tmp_path, query_points):
    """Save the model file ``old`` as the current version; both files must
    serve the same bytes.  Returns (resaved path, its --pairs output)."""
    resaved = tmp_path / "resaved.model"
    save_model(resaved, load_model(old))
    assert resaved.read_text().startswith("version 3\n")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n2,19\n5,11\n13,7\n")
    for query in (["--points", str(query_points)], ["--pairs", str(pairs)]):
        outputs = []
        for model in (old, resaved):
            out = tmp_path / f"{model.stem}_{query[0][2:]}.csv"
            assert main(["distance", str(model), *query, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
    return resaved, outputs[1].decode()


def test_v1_model_loads_and_serves_like_v2(tmp_path, query_points):
    assert V1_KERNEL_MODEL.read_text().startswith("version 1\n")
    assert "K0" in _matrix_names(V1_KERNEL_MODEL)
    lines = V1_KERNEL_MODEL.read_text().splitlines()
    at = next(r for r, line in enumerate(lines) if line.startswith("matrix K0 "))
    K0_v1 = np.loadtxt(lines[at + 1:at + 1 + int(lines[at].split()[2])], ndmin=2)
    assert load_model(V1_KERNEL_MODEL).K0 is None  # the points rebuild it
    resaved, _ = _resaved_serves_alike(V1_KERNEL_MODEL, tmp_path, query_points)
    assert "K0" not in _matrix_names(resaved) and "S" not in _matrix_names(resaved)
    mf = load_model(resaved)
    assert np.array_equal(training_gram(mf.X, mf.kernel_spec), K0_v1)


def test_v2_coefficient_model_loads_and_serves_the_distances_it_always_served(
        tmp_path, query_points):
    assert V2_IPLR_MODEL.read_text().startswith("version 2\n")
    assert "T" not in _matrix_names(V2_IPLR_MODEL)
    resaved, served = _resaved_serves_alike(V2_IPLR_MODEL, tmp_path, query_points)
    assert "T" in _matrix_names(resaved)
    # what the version-2 reader served from this file
    assert served == ("i,j,sq_distance\n0,1,0.450478763176\n2,19,0.0448341904763\n"
                      "5,11,1.43468997502\n13,7,0.628165452276\n")
    out = tmp_path / "points_out.csv"
    assert main(["distance", str(V2_IPLR_MODEL), "--points", str(query_points),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 210
    assert lines[:3] == ["i,j,sq_distance", "0,0,0", "0,1,1.49343454047"]
    assert "5,15,0.669152538005" in lines


@pytest.mark.parametrize("old", [V1_KERNEL_MODEL, V2_IPLR_MODEL], ids=["v1", "v2"])
def test_an_older_file_loads_with_the_fit_facts_unset(old):
    mf = load_model(old)
    assert (mf.distance_change, mf.max_violation, mf.dropped_rank, mf.dropped) == (None,) * 4


def test_v1_model_serves_the_distances_it_always_served(tmp_path, query_points):
    # how a fit stops decides what a new file holds, never how a stored one serves
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n2,19\n5,11\n13,7\n")
    out = tmp_path / "pairs_out.csv"
    assert main(["distance", str(V1_KERNEL_MODEL), "--pairs", str(pairs), "--out", str(out)]) == 0
    assert out.read_text() == ("i,j,sq_distance\n0,1,0.0609433468012\n2,19,0.0331867511771\n"
                               "5,11,0.599703027899\n13,7,0.51822416709\n")
    out = tmp_path / "points_out.csv"
    assert main(["distance", str(V1_KERNEL_MODEL), "--points", str(query_points),
                 "--out", str(out)]) == 0
    served = {(int(i), int(j)): float(d) for i, j, d in
              csv.reader(out.read_text().splitlines()[1:])}
    assert len(served) == 210
    expected = {(0, 1): 1.11055719943, (0, 3): 1.05085382167, (2, 11): 1.07571980722,
                (5, 13): 0.548331169525, (9, 13): 0.556883602652, (19, 19): 0.0}
    for pair, d in expected.items():
        assert served[pair] == pytest.approx(d, rel=1e-9, abs=0)


@pytest.mark.parametrize("golden", PRECOMPUTED_MODELS, ids=["dense", "kmeans"])
def test_a_precomputed_model_file_serves_and_resaves_its_bytes(tmp_path, monkeypatch, golden):
    # its K0 block is its kernel's table over the index points 0 .. 19, and a
    # file with no S block has M on all of them
    from logdetml import modelfile

    mf = load_model(golden)
    assert np.array_equal(mf.X, index_points(20)) and mf.kernel_spec.table.shape == (20, 20)
    assert mf.support is None
    # the table is written as it is held, not gathered into a Gram of its index points
    written, write_block = {}, modelfile._write_block

    def spy(write, name, A, symmetric):
        written[name] = A
        return write_block(write, name, A, symmetric)

    monkeypatch.setattr(modelfile, "_write_block", spy)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(PRECOMPUTED_PAIRS)
    out = tmp_path / "pairs_out.csv"
    assert main(["distance", str(golden), "--pairs", str(pairs), "--out", str(out)]) == 0
    assert out.read_bytes() == golden.with_name(f"{golden.stem}_pairs.csv").read_bytes()
    resaved = tmp_path / "resaved.model"
    save_model(resaved, mf)
    assert resaved.read_bytes() == golden.read_bytes()
    assert written["K0"] is mf.kernel_spec.table


@pytest.mark.parametrize("golden", PRECOMPUTED_MODELS, ids=["dense", "kmeans"])
def test_a_precomputed_model_serves_a_column_of_training_indices_as_those_points(
        tmp_path, capsys, golden):
    indices = [0, 2, 5, 13, 19, 7]
    points = tmp_path / "indices.csv"
    points.write_text("".join(f"{i}\n" for i in indices))
    pairs = tmp_path / "pairs.csv"
    I, J = np.triu_indices(len(indices))
    pairs.write_text("".join(f"{indices[i]},{indices[j]}\n" for i, j in zip(I, J)))
    served = {}
    for query, path in (("--points", points), ("--pairs", pairs)):
        out = tmp_path / f"{query[2:]}.csv"
        assert main(["distance", str(golden), query, str(path), "--out", str(out)]) == 0
        served[query] = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(served["--points"][:, :2], np.stack([I, J], axis=1))
    # one sum of products, or one product per pair: the same distances to round-off
    np.testing.assert_allclose(served["--points"][:, 2], served["--pairs"][:, 2],
                               rtol=1e-9, atol=1e-12)
    for text in ("0\n20\n", "0\n1.5\n", "0,1\n"):  # out of range, no index, two columns
        points.write_text(text)
        capsys.readouterr()
        assert main(["distance", str(golden), "--points", str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: precomputed-kernel models cannot score new points" in captured.err


# -- malformed model files exit 2 with a message ------------------------------

def _replace_line(text, prefix, new):
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = new
    return "\n".join(lines) + "\n", at + 1


def _drop_matrix(text, name):
    lines = text.splitlines()
    at = lines.index(next(line for line in lines
                          if line.startswith((f"matrix {name} ", f"symmetric {name} "))))
    rows = int(lines[at].split()[2])
    del lines[at:at + 1 + rows]
    return "\n".join(lines) + "\n"


# constraint lines (kind i j lambda xi) as dense kernel files held them before files
# dropped them; they follow the thresholds
OLD_CONSTRAINT_LINES = ("constraints 2\nsimilar 0 1 1.5 0.25\n"
                        "dissimilar 3 2 0 1.2749999999999999\n")


def _with_constraint_lines(text, lines=OLD_CONSTRAINT_LINES):
    return text.replace("\nconstraints 0\n", "\n" + lines, 1)


def _malformed(text, case):
    """(broken file text, 1-based line the error names, message fragment)."""
    if case == "missing-value":
        return _replace_line(text, "version", "version") + ("missing a value",)
    if case == "version-4":
        return _replace_line(text, "version", "version 4") + ("unsupported model version 4",)
    if case == "short-constraint-line":  # the second constraint has no xi
        short = OLD_CONSTRAINT_LINES.replace(" 1.2749999999999999", "")
        broken = _with_constraint_lines(text, short)
        at = broken.splitlines().index("dissimilar 3 2 0")
        return broken, at + 1, "a constraint line needs: kind i j lambda xi"
    if case == "one-threshold":
        return _replace_line(text, "thresholds", "thresholds 0.5") + (
            "'thresholds' entry needs u and l",)
    if case == "unexpected-line":
        broken, at = _replace_line(text, "constraints", "constraints 0\ncolumns 34")
        return broken, at + 1, "unexpected line 'columns 34'"
    if case == "negative-size":
        return _replace_line(text, "matrix X", "matrix X -1 59") + (
            "matrix X has a negative size",)
    if case == "truncated":
        kept = text.splitlines()
        kept = kept[:len(kept) // 2]
        return "\n".join(kept) + "\n", len(kept) + 1, "truncated model file"
    if case == "non-numeric-entry":
        lines = text.splitlines()
        at = lines.index(next(line for line in lines if line.startswith("matrix X "))) + 1
        vals = lines[at].split()
        vals[3] = "abc"
        lines[at] = " ".join(vals)
        return "\n".join(lines) + "\n", at + 1, "non-numeric"
    if case in ("short-triangle-row", "non-numeric-triangle-entry"):
        lines = text.splitlines()
        at = lines.index(next(line for line in lines if line.startswith("symmetric M "))) + 3
        vals = lines[at].split()
        if case == "short-triangle-row":
            del vals[-1]
        else:
            vals[1] = "abc"
        lines[at] = " ".join(vals)
        fragment = "has wrong width" if case == "short-triangle-row" else "has a non-numeric entry"
        return "\n".join(lines) + "\n", at + 1, f"symmetric M row 2 {fragment}"
    if case == "non-integer":
        return _replace_line(text, "seed", "seed 1.5") + ("integer",)
    if case == "stop-reason":
        # the fit converged: the file may not say the cap stopped it
        return _replace_line(text, "stop_reason", "stop_reason cap") + (
            "stop_reason disagrees with converged 1",)
    if case == "unknown-kind":
        return _replace_line(text, "kind", "kind quadratic") + ("unknown model kind",)
    if case == "identity-coeff":
        # every model has identity_coeff 1; the line stays in the format
        return _replace_line(text, "identity_coeff", "identity_coeff 0.5") + (
            "identity_coeff must be 1",)
    if case == "no-points":
        broken = _drop_matrix(text, "X")
        return broken, len(broken.splitlines()), "no K0 block"
    if case.startswith("support-"):  # the S block: one row of ascending point indices
        lines = text.splitlines()
        at = lines.index(next(line for line in lines if line.startswith("matrix S "))) + 1
        C = lines[at].split()
        if case == "support-non-integer":
            C[3] = "7.5"
            fragment = "matrix S has a non-integer entry"
        elif case == "support-out-of-range":
            C[-1] = "59"
            fragment = "matrix S names a point out of range for the 59 points"
        elif case == "support-column":  # the indices as a column: one a row
            lines[at - 1:at + 1] = [f"matrix S {len(C)} 1", *C]
            return "\n".join(lines) + "\n", at, \
                "matrix S must list the points of the support in one row"
        elif case in ("support-repeated", "support-out-of-order"):
            C[1] = C[0] if case == "support-repeated" else C[2]
            fragment = "matrix S repeats an index or is out of order"
        else:  # one point fewer than M has rows: the M-shape check names it
            lines[at - 1] = f"matrix S 1 {len(C) - 1}"
            del C[-1]
            lines[at] = " ".join(C)
            return "\n".join(lines) + "\n", len(lines), \
                f"needs a {len(C)} x {len(C)} matrix M for the {len(C)} points of its support"
        lines[at] = " ".join(C)
        return "\n".join(lines) + "\n", at + 1, fragment
    if case == "precomputed-no-K0":
        broken, _ = _replace_line(text, "kernel", "kernel precomputed")
        return broken, len(broken.splitlines()), "no K0 block"
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["missing-value", "non-numeric-entry", "short-triangle-row",
                                  "non-numeric-triangle-entry", "non-integer", "stop-reason",
                                  "unknown-kind", "identity-coeff", "no-points",
                                  "precomputed-no-K0", "version-4", "short-constraint-line",
                                  "one-threshold", "unexpected-line", "negative-size",
                                  "truncated", "support-non-integer", "support-out-of-range",
                                  "support-repeated", "support-out-of-order",
                                  "support-length", "support-column"])
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


@pytest.mark.parametrize("old", ["v1", "v3"])
def test_a_file_with_constraint_lines_serves_alike_and_resaves_without_them(
        gaussian_model, query_points, tmp_path, old):
    if old == "v1":
        path = V1_KERNEL_MODEL
    else:  # a dense kernel file as written before the constraints were dropped
        path = tmp_path / "with_constraints.model"
        path.write_text(_with_constraint_lines(gaussian_model.read_text()))
    assert "constraints 0" not in path.read_text().splitlines()
    resaved, _ = _resaved_serves_alike(path, tmp_path, query_points)
    lines = resaved.read_text().splitlines()
    assert "constraints 0" in lines
    assert not [line for line in lines if line.startswith(("similar ", "dissimilar "))]
    if old == "v3":
        assert resaved.read_bytes() == gaussian_model.read_bytes()


def _swap_matrix(text, name, A):
    """The file text with matrix ``name`` replaced by A."""
    lines = _drop_matrix(text, name).splitlines()
    end = lines.index("end")
    lines[end:end] = [f"matrix {name} {A.shape[0]} {A.shape[1]}",
                      *(" ".join(map(str, row)) for row in A)]
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags, edit, fragment", [
    (["--space", "linear"], lambda t: _swap_matrix(t, "W", np.ones((2, 3))), "square matrix W"),
    (["--kernel", "gaussian"], lambda t: _swap_matrix(t, "M", np.eye(3)),
     "45 x 45 matrix M for the 45 points of its support"),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], lambda t: _drop_matrix(t, "B"),
     "matrix B with 59 rows and 8 columns"),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], lambda t: _drop_matrix(t, "F"),
     "8 x 8 matrix F"),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], lambda t: _drop_matrix(t, "T"),
     "8 x 8 matrix T"),
], ids=["linear-W-not-square", "kernel-M-wrong-size", "iplr-no-B", "iplr-no-F", "iplr-no-T"])
def test_model_payload_missing_or_of_the_wrong_size_exits_2(small_ionosphere, query_points,
                                                            tmp_path, capsys, flags, edit,
                                                            fragment):
    trained = tmp_path / "trained.model"
    assert _train(small_ionosphere, trained, *flags) == 0
    broken = tmp_path / "broken.model"
    broken.write_text(edit(trained.read_text()))
    capsys.readouterr()
    code = main(["distance", str(broken), "--points", str(query_points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{broken}: line {len(broken.read_text().splitlines())}:" in captured.err
    assert fragment in captured.err


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags", [["--space", "linear"], ["--basis", "topk:5"]],
                         ids=["linear", "iplr-topk"])
def test_distance_on_points_of_another_dimension_exits_2(small_ionosphere, tmp_path, capsys,
                                                        flags):
    model = tmp_path / "trained.model"
    assert _train(small_ionosphere, model, *flags) == 0
    points = tmp_path / "points.csv"
    points.write_text("1,2\n3,4\n")
    capsys.readouterr()
    code = main(["distance", str(model), "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: point dimension mismatch: 34 vs 2" in captured.err


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


# -- explicit-metric models serve (x - y)^T W (x - y) ----------------------------

@pytest.mark.parametrize("flags", [
    ["--space", "linear"],
    pytest.param(["--basis", "topk:5"],
                 marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
], ids=["linear", "iplr-topk"])
def test_explicit_metric_distance_matches_naive_quadratic_form(small_ionosphere, query_points,
                                                               tmp_path, flags):
    model = tmp_path / "trained.model"
    assert _train(small_ionosphere, model, *flags) == 0
    mf = load_model(model)
    if mf.kind == "linear":
        W = mf.W
    else:
        B = mf.basis_matrix
        W = np.eye(B.shape[0]) + B @ (mf.F - np.eye(B.shape[1])) @ B.T
    out = tmp_path / "distances.csv"
    assert main(["distance", str(model), "--points", str(query_points), "--out", str(out)]) == 0
    served = np.loadtxt(out, delimiter=",", skiprows=1)
    Z, _ = load_points_csv(query_points)
    naive = [(i, j, float((Z[:, i] - Z[:, j]) @ W @ (Z[:, i] - Z[:, j])))
             for i in range(Z.shape[1]) for j in range(i, Z.shape[1])]
    np.testing.assert_array_equal(served[:, :2], [row[:2] for row in naive])
    np.testing.assert_allclose(served[:, 2], [row[2] for row in naive], rtol=1e-9, atol=0)


@pytest.mark.parametrize("model, query, message", [
    ("linear", "--pairs", "index pairs need a model trained with stored points"),
    ("precomputed", "--points", "precomputed-kernel models cannot score new points"),
])
def test_distance_refuses_a_query_the_model_cannot_serve(small_ionosphere, query_points,
                                                         tmp_path, capsys, model, query,
                                                         message):
    if model == "linear":
        path = tmp_path / "linear.model"
        assert _train(small_ionosphere, path, "--space", "linear") == 0
    else:
        _, path = _train_precomputed(small_ionosphere, tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n")
    capsys.readouterr()
    code = main(["distance", str(path), query, str(pairs if query == "--pairs" else query_points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err


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


@pytest.mark.parametrize("model, text, message", [
    ("gaussian", "0,1\n0,59\n0.5,1\n", "training index out of range for n=59"),
    ("gaussian", "0,1\n0.5,1\n0,59\n", "non-integer index in pair 2"),
    ("linear", "0.5,1\n", "non-integer index in pair 1"),
    ("linear", "0,1\n0.5,1\n", "index pairs need a model trained with stored points"),
    ("gaussian", "0,1\n1e30,0\n", "training index out of range for n=59"),
], ids=["range-first", "fraction-first", "linear-fraction", "linear-pair", "past-int64"])
@pytest.mark.filterwarnings("error")
def test_distance_pairs_report_the_first_bad_pair_in_file_order(
        small_ionosphere, gaussian_model, tmp_path, capsys, model, text, message):
    if model == "linear":
        gaussian_model = tmp_path / "linear.model"
        assert _train(small_ionosphere, gaussian_model, "--space", "linear") == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(text)
    capsys.readouterr()
    assert main(["distance", str(gaussian_model), "--pairs", str(pairs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel", "gaussian"],
        pytest.param(["--kernel", "gaussian", "--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["kernel", "iplr-coefficient"],
)
def test_distance_pairs_serve_the_training_points_they_name(small_ionosphere, tmp_path, flags):
    model = tmp_path / "trained.model"
    assert _train(small_ionosphere, model, *flags) == 0
    rows = small_ionosphere.read_text().splitlines()
    names = [0, 1, 2, 5, 7, 13, 19, 33, 40, 58]
    points = tmp_path / "points.csv"
    points.write_text("\n".join(rows[i].rsplit(",", 1)[0] for i in names) + "\n")
    I, J = np.triu_indices(len(names))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(f"{names[a]},{names[b]}\n" for a, b in zip(I, J)))
    served = []
    for query in (["--points", str(points)], ["--pairs", str(pairs)]):
        out = tmp_path / "distances.csv"
        assert main(["distance", str(model), *query, "--out", str(out)]) == 0
        served.append(np.loadtxt(out, delimiter=",", skiprows=1))
    by_points, by_pairs = served
    np.testing.assert_array_equal(by_pairs[:, :2], np.take(names, by_points[:, :2].astype(int)))
    ref = by_points[:, 2]
    assert np.max(np.abs(by_pairs[:, 2] - ref)) <= 1e-12 * np.median(ref)


def test_a_model_on_its_support_serves_as_the_model_of_the_whole_gram(
        small_ionosphere, query_points, tmp_path):
    # M is on the 45 constrained points; the 14 others, like held-out points, are
    # served from their kernel vectors against those 45
    from logdetml import evaluation, solver
    from logdetml.learned_kernel import (LearnedKernelModel, compute_M, learned_sq_distances,
                                         training_pair_distance)

    path = tmp_path / "trained.model"
    assert _train(small_ionosphere, path, "--kernel", "gaussian") == 0
    mf = load_model(path)
    X, labels = load_points_csv(small_ionosphere, label_col="last")
    K0 = gram(X, mf.kernel_spec)
    full = solver.fit_kernel(K0, evaluation.label_constraints(
        labels, 10, 0, kernel_distance_pool(K0)),
                             solver.SolverConfig(max_sweeps=5))
    assert (full.sweeps_used, full.converged) == (mf.sweeps_used, mf.converged)
    on_C = full.K[np.ix_(mf.support, mf.support)]
    served = mf.to_learned_kernel()
    assert np.max(np.abs(learned_sq_distances(served, served.X, served.X)
                         - (np.diag(on_C)[:, None] + np.diag(on_C) - 2.0 * on_C))) <= 1e-12
    whole = LearnedKernelModel(mf.kernel_spec, X, compute_M(full.K0, full.K)[0])
    free = np.setdiff1d(np.arange(59), mf.support)
    assert free.size == 14
    I = np.concatenate([free, free[:7]])
    J = np.concatenate([np.roll(free, 1), mf.support[:7]])
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(f"{i},{j}\n" for i, j in zip(I, J)))
    Z, _ = load_points_csv(query_points)
    upper = np.triu_indices(Z.shape[1])
    for query, want in ((["--pairs", str(pairs)], training_pair_distance(whole, X, I, J)),
                        (["--points", str(query_points)],
                         learned_sq_distances(whole, Z, Z)[upper] * (upper[0] != upper[1]))):
        out = tmp_path / "distances.csv"
        assert main(["distance", str(path), *query, "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
        # round-off of two fits and two pseudo-inverses, and the CSV's 12 digits
        assert np.max(np.abs(got - want)) <= 1e-10 * np.median(want)  # 4e-13 seen


def test_non_utf8_points_exit_2(gaussian_model, tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_bytes(b"\xff\xfe1,2\n")
    capsys.readouterr()
    code = main(["distance", str(gaussian_model), "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{points}: not a UTF-8 text file" in captured.err


# -- `distance` output equals the per-row csv.writer output it replaced ----------

def reference_distance_csv(model_path, query):
    """The CSV the nested-loop, per-row ``csv.writer`` code wrote; training
    index pairs are served as the stored points they name."""
    from test_learned_kernel import (reference_learned_sq_distances,
                                     reference_training_pair_distances)

    mf = load_model(model_path)
    model = mf.to_learned_kernel()
    rows = []
    if query[0] == "--pairs":
        I, J = load_points_csv(query[1])[0].astype(int).tolist()
        rows = list(zip(I, J, reference_training_pair_distances(model, mf.X, I, J).tolist()))
    else:
        Z, _ = load_points_csv(query[1])
        D = reference_learned_sq_distances(model, Z, Z)
        for i in range(Z.shape[1]):
            for j in range(i, Z.shape[1]):
                rows.append((i, j, float(D[i, j]) if i != j else 0.0))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", "sq_distance"])
    for i, j, d in rows:
        writer.writerow([i, j, f"{d:.12g}"])
    return out.getvalue().encode()


@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel", "gaussian"],
        pytest.param(["--kernel", "gaussian", "--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["kernel", "iplr-coefficient"],
)
def test_distance_csv_is_byte_identical_to_reference(small_ionosphere, query_points,
                                                     tmp_path, flags):
    model = tmp_path / "trained.model"
    assert _train(small_ionosphere, model, *flags) == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n2,19\n5,5\n13,7\n58,0\n")
    for query in (["--points", str(query_points)], ["--pairs", str(pairs)]):
        out = tmp_path / "distances.csv"
        assert main(["distance", str(model), *query, "--out", str(out)]) == 0
        assert out.read_bytes() == reference_distance_csv(model, query)


# -- a coefficient model serves training pairs as it did with K0 built on load ----

@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_coefficient_model_serves_pairs_as_with_K0_built_on_load(small_ionosphere, tmp_path):
    from logdetml.linalg import inv_sqrt

    path = tmp_path / "trained.model"
    assert _train(small_ionosphere, path, "--kernel", "gaussian", "--basis", "kmeans:20") == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n2,19\n5,5\n13,7\n58,0\n")
    out = tmp_path / "distances.csv"
    assert main(["distance", str(path), "--pairs", str(pairs), "--out", str(out)]) == 0

    # the served form as it was built when load_model formed K0 and kept it
    mf = load_model(path)
    K0 = gram(np.asfortranarray(mf.X), mf.kernel_spec)
    J = mf.basis_matrix
    P = J @ inv_sqrt(symmetrize(J.T @ K0 @ J), jitter=1e-10)
    core = mf.F - np.eye(mf.F.shape[0])
    lines = ["i,j,sq_distance"]
    for i, j in ((0, 1), (2, 19), (5, 5), (13, 7), (58, 0)):
        kv = K0[:, [i, j]]
        G = K0[np.ix_([i, j], [i, j])] + kv.T @ (P @ (core @ (P.T @ kv)))
        lines.append("%d,%d,%.12g" % (i, j, max(0.0, float(G[0, 0] + G[1, 1] - 2.0 * G[0, 1]))))
    assert out.read_text() == "\n".join(lines) + "\n"


# -- version 3 records the fit's facts and T, and writes symmetric blocks once -------

@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("flags, facts", [
    (["--space", "linear"], ()),
    (["--kernel", "gaussian"], ("max_violation", "dropped_rank")),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], ("dropped",)),
], ids=["linear", "kernel", "iplr"])
def test_v3_header_records_what_train_logs(small_ionosphere, tmp_path, capsys, flags, facts):
    path = tmp_path / "trained.model"
    capsys.readouterr()
    assert _train(small_ionosphere, path, *flags) == 0
    logged = dict(line[len("[train] "):].split(": ", 1)
                  for line in capsys.readouterr().err.splitlines())
    mf = load_model(path)
    assert mf.stop_reason == logged["stop_reason"]
    for key in ("distance_change", *facts):
        value = getattr(mf, key)
        assert (f"{value:.6g}" if isinstance(value, float) else str(value)) == logged[key]
    unset = {"max_violation", "dropped_rank", "dropped"} - set(facts)
    assert all(getattr(mf, key) is None for key in unset)
    assert "jitter" not in path.read_text()
    resaved = tmp_path / "resaved.model"
    save_model(resaved, mf)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
def test_a_v3_coefficient_model_serves_points_without_building_a_gram(
        small_ionosphere, query_points, tmp_path, monkeypatch):
    import sys

    path = tmp_path / "trained.model"
    assert _train(small_ionosphere, path, "--kernel", "gaussian", "--basis", "kmeans:8") == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1\n2,19\n5,5\n13,7\n58,0\n")
    queries = (["--points", str(query_points)], ["--pairs", str(pairs)])
    expected = []
    for query in queries:
        out = tmp_path / f"expected_{query[0][2:]}.csv"
        assert main(["distance", str(path), *query, "--out", str(out)]) == 0
        expected.append(out.read_bytes())

    def no_gram(*args):
        raise AssertionError("serving built the training Gram")

    for name, module in list(sys.modules.items()):
        for attr in ("gram", "training_gram"):
            if name.startswith("logdetml") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, no_gram)
    out = tmp_path / "distances.csv"
    for query, want in zip(queries, expected):
        assert main(["distance", str(path), *query, "--out", str(out)]) == 0
        assert out.read_bytes() == want
    with pytest.raises(AssertionError, match="training Gram"):
        load_model(V2_IPLR_MODEL)  # no T stored: it is derived from K0


@pytest.mark.parametrize("name", ["W", "M", "F", "T", "K0"])
@pytest.mark.parametrize("flaw", ["asymmetric", "signed-zero"])
def test_save_refuses_a_symmetric_block_that_is_not_exactly_symmetric(tmp_path, name, flaw):
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
    if flaw == "asymmetric":
        A[0, 1] = np.nextafter(0.5, 1.0)
    else:
        A[2, 0] = -0.0
    mf = _linear_model(np.eye(3))
    setattr(mf, name, A)
    with pytest.raises(InvalidArgumentError, match=f"matrix {name} is not exactly symmetric"):
        save_model(tmp_path / "model.txt", mf)


def test_a_refused_save_leaves_no_file_and_an_old_file_untouched(tmp_path):
    # W and X come before the flawed T in the file: the check must run before
    # anything is written
    A = np.array([[2.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])
    mf = _linear_model(np.eye(2), X=np.ones((2, 3)), T=A)
    path = tmp_path / "model.txt"
    with pytest.raises(InvalidArgumentError, match="matrix T is not exactly symmetric"):
        save_model(path, mf)
    assert not path.exists()
    path.write_bytes(b"an older model\n")
    with pytest.raises(InvalidArgumentError, match="matrix T is not exactly symmetric"):
        save_model(path, mf)
    assert path.read_bytes() == b"an older model\n"


# -- a model served from its file is the model served in memory -------------------

@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel", "gaussian"],
        pytest.param(["--kernel", "gaussian", "--basis", "random:8"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
        ["--space", "kernel", "--kernel", "linear"],
    ],
    ids=["kernel", "iplr-coefficient", "kernel-linear"],
)
def test_loaded_model_serves_the_bits_of_the_fitted_model(small_ionosphere, query_points,
                                                           tmp_path, flags):
    from logdetml import cli, evaluation
    from logdetml.learned_kernel import learned_sq_distances
    from logdetml.solver import SolverConfig

    X, labels = load_points_csv(small_ionosphere, label_col="last")
    args = cli.build_parser().parse_args(["train", "--data", str(small_ionosphere),
                                          "--out", "unused", *flags])
    space, spec = cli._resolve(args, X)
    spec = spec or KernelSpec.gaussian(evaluation.median_pairwise_distance(X))
    K0 = gram(X, spec)
    cs = evaluation.label_constraints(labels, 10, 0, kernel_distance_pool(K0))
    mf, _ = evaluation.fit_model(X, K0, cs, spec, space, SolverConfig(max_sweeps=5),
                                 args.basis, labels)
    save_model(tmp_path / "model.txt", mf)
    loaded = load_model(tmp_path / "model.txt")
    # training's column-major layout, in which BLAS sums the kernel products
    assert loaded.X.flags.f_contiguous and np.array_equal(loaded.X, X)
    Z, _ = load_points_csv(query_points)
    served, fitted = loaded.to_learned_kernel(), mf.to_learned_kernel()
    # the same queries: both sets fresh, or scored against each model's own
    # training points (whose products with themselves BLAS may sum otherwise)
    for B in (Z, np.asfortranarray(X.copy())):
        assert np.array_equal(learned_sq_distances(served, Z, B),
                              learned_sq_distances(fitted, Z, B))
    assert np.array_equal(learned_sq_distances(served, Z, served.X),
                          learned_sq_distances(fitted, Z, fitted.X))


# -- matrices are written and parsed a block of rows at a time ----------------------

def _linear_model(W, **matrices):
    return ModelFile(kind="linear", kernel_spec=None, thresholds=None, gamma=1.0, seed=0,
                     converged=True, sweeps_used=1, W=W, **matrices)


def test_matrix_blocks_write_the_per_value_lines_and_read_back_bit_for_bit(tmp_path):
    n = 150  # blocks of 54 rows (BLOCK_VALUES // n) and a remainder; W's triangle: 54, 85, 11
    assert n > BLOCK_VALUES // n and n % (BLOCK_VALUES // n)
    rng = np.random.default_rng(7)
    specials = [-0.0, 5e-324, 1e308, 0.1, 3.0, -7.0, 2.0**53, 1e16, -1e308, 0.0]
    W, X = (rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
            for _ in range(2))
    for A in (W, X):
        A.flat[::5] = np.resize(specials, A.flat[::5].size)
    upper = np.triu_indices(n, 1)
    W.T[upper] = W[upper]  # exactly symmetric, -0.0 kept
    B = rng.standard_normal((3, 5000))  # one row a block
    path = tmp_path / "model.txt"
    save_model(path, _linear_model(W, X=X, basis_matrix=B))
    lines = path.read_text().splitlines()
    at = lines.index(f"symmetric W {n}") + 1
    assert lines[at:at + n] == [" ".join(f"{float(v):.17g}" for v in row[i:])
                                for i, row in enumerate(W)]
    for name, A in (("X", X), ("B", B)):
        at = lines.index(f"matrix {name} {A.shape[0]} {A.shape[1]}") + 1
        assert lines[at:at + len(A)] == [" ".join(f"{float(v):.17g}" for v in row) for row in A]
    mf = load_model(path)
    assert mf.W.tobytes() == W.tobytes() and mf.X.tobytes() == X.tobytes()
    assert mf.basis_matrix.tobytes() == B.tobytes()


def test_a_one_value_symmetric_block_reads_back_bit_for_bit(tmp_path):
    W = np.array([[-2.5]])
    path = tmp_path / "model.txt"
    save_model(path, _linear_model(W))
    assert "symmetric W 1" in path.read_text().splitlines()
    assert load_model(path).W.tobytes() == W.tobytes()


def _with_W_block(tmp_path, rows, cols, block, header="matrix"):
    """A linear model file whose W block is ``matrix W rows cols`` (or
    ``symmetric W rows``) and the given lines, and the 1-based line of the
    block's first row."""
    save_model(tmp_path / "base.model", _linear_model(np.eye(1)))
    lines = (tmp_path / "base.model").read_text().splitlines()
    at = lines.index("symmetric W 1")
    size = f"{rows} {cols}" if header == "matrix" else f"{rows}"
    lines[at:at + 2] = [f"{header} W {size}", *block]
    path = tmp_path / "block.model"
    path.write_text("\n".join(lines) + "\n")
    return path, at + 2


@pytest.mark.parametrize("block, one_call", [
    (["0.1 -0 5e-324 1E+308", "+1.5 .5 5. inf", "-inf nan 1e-400 1e400",
      "  7\t8  -nan 0.30000000000000004 "], True),
    # float() reads these; loadtxt does not, so the rows are read one by one
    (["1_0 2 3 4", "١ 5 6 7", "1 2 3 4", "1 2 3 4"], False),
], ids=["one-loadtxt", "row-by-row"])
def test_a_matrix_block_parses_to_the_bits_float_gives(tmp_path, monkeypatch, block, one_call):
    parsed = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(loadtxt(*a, **k)) or parsed[-1])
    path, _ = _with_W_block(tmp_path, 4, 4, block)
    W = load_model(path).W
    assert W.tobytes() == np.array([[float(v) for v in row.split()] for row in block]).tobytes()
    assert [p.shape for p in parsed] == ([(4, 4)] if one_call else [])


@pytest.mark.parametrize("block, one_call", [
    (["0.1 -0 5e-324", "+1.5\t.5", "  -nan "], True),
    (["1_0 2 3", "١ 5", "6"], False),  # float() reads these, loadtxt does not
], ids=["one-loadtxt", "row-by-row"])
def test_a_symmetric_block_parses_to_the_bits_float_gives(tmp_path, monkeypatch, block,
                                                          one_call):
    parsed = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(loadtxt(*a, **k)) or parsed[-1])
    path, _ = _with_W_block(tmp_path, 3, 3, block, header="symmetric")
    upper, expected = np.triu_indices(3), np.empty((3, 3))
    expected[upper] = expected.T[upper] = [float(v) for row in block for v in row.split()]
    assert load_model(path).W.tobytes() == expected.tobytes()
    assert [p.shape for p in parsed] == ([(6,)] if one_call else [])


@pytest.mark.parametrize("rows, cols, block, bad_row, message", [
    (3, 3, ["1 2 3", "4 5", "7 8 9"], 1, "has wrong width"),
    (3, 3, ["1 2 3", "4 5 6", "7 8 9 10"], 2, "has wrong width"),
    (3, 3, ["1 2 3", "4 abc 6", "7 8 9"], 1, "has a non-numeric entry"),
    # read with '#' as a comment mark, each of these two blocks would parse as 3 x 2
    (3, 2, ["1 2#3", "4 5#6", "7 8#9"], 0, "has a non-numeric entry"),
    (3, 2, ["1 2 #", "4 5 #", "7 8 #"], 0, "has wrong width"),
    (3, 3, ["1 2 3", "", "7 8 9"], 1, "has wrong width"),
    (1, 3, [""], 0, "has wrong width"),  # no data at all: loadtxt warns
], ids=["short", "long", "non-numeric", "hash-in-token", "hash-token", "empty-row",
        "only-an-empty-row"])
def test_a_malformed_matrix_row_is_named_as_the_row_by_row_reading_names_it(
        tmp_path, rows, cols, block, bad_row, message):
    path, first = _with_W_block(tmp_path, rows, cols, block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidArgumentError) as exc:
            load_model(path)
    assert str(exc.value) == f"{path}: line {first + bad_row}: matrix W row {bad_row} {message}"
    assert caught == []


def test_empty_matrices_load_without_a_warning(tmp_path):
    # a 0 x 0 W, then a 3 x 0 and a 0 x 4 block, which load_model reads and ignores
    path, _ = _with_W_block(tmp_path, 0, 0, ["matrix Q 3 0", "", "", "", "matrix R 0 4"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mf = load_model(path)
    assert mf.W.shape == (0, 0)


# -- every field survives a round trip, and a file holds only what serving reads ------

def _fit_labeled(data, case):
    """``fit_model``'s model for one case, on points or on their Gaussian Gram."""
    from logdetml.evaluation import fit_labeled, median_pairwise_distance

    X, labels = load_points_csv(data, label_col="last")
    space, kernel = "kernel", KernelSpec.gaussian(median_pairwise_distance(X))
    if case in ("linear", "topk", "classmeans"):  # input space, as train picks for d <= n
        space, kernel = "linear", KernelSpec.linear()
    if case.startswith("precomputed"):
        X, kernel = index_points(X.shape[1]), KernelSpec.precomputed(gram(X, KernelSpec.gaussian(3.0)))
    basis = {"topk": ("topk", 5), "classmeans": ("classmeans", 2), "kmeans": ("kmeans", 8),
             "precomputed-kmeans": ("kmeans", 8)}.get(case, (None, 0))
    return fit_labeled(X, labels, 0, space, kernel, per_class=10, max_sweeps=5,
                       basis=basis)[0]


def _same(a, b) -> bool:
    """Equal, with arrays and floats compared bit for bit and None only to None."""
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("case", ["linear", "gaussian", "precomputed", "topk", "kmeans",
                                  "precomputed-kmeans"])
def test_every_field_survives_a_round_trip(small_ionosphere, tmp_path, case):
    import dataclasses

    mf = _fit_labeled(small_ionosphere, case)
    save_model(tmp_path / "model.txt", mf)
    # a dense kernel fit's 40 constraints join 45 of the 59 points: M is on those
    dense = case in ("gaussian", "precomputed")
    assert ("S" in _matrix_names(tmp_path / "model.txt")) == dense
    assert not dense or (mf.support.size == 45 and mf.M.shape == (45, 45))
    loaded = load_model(tmp_path / "model.txt")
    for f in dataclasses.fields(ModelFile):
        assert _same(getattr(loaded, f.name), getattr(mf, f.name)), f.name
    if case.startswith("precomputed"):  # a kernel spec's == leaves out its table
        assert _same(loaded.kernel_spec.table, mf.kernel_spec.table)


@pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")
@pytest.mark.parametrize("case, basis", [("topk", "topk:5"), ("classmeans", "classmeans:2")])
def test_an_explicit_basis_file_holds_no_points(small_ionosphere, query_points, tmp_path,
                                                monkeypatch, case, basis):
    from logdetml import cli

    path = tmp_path / "trained.model"
    assert _train(small_ionosphere, path, "--basis", basis) == 0
    assert "X" not in _matrix_names(path)

    def served(model):
        out = tmp_path / "distances.csv"
        assert main(["distance", str(model), "--points", str(query_points),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    want = served(path)
    in_memory = _fit_labeled(small_ionosphere, case)
    assert in_memory.X is None
    with monkeypatch.context() as m:
        m.setattr(cli, "load_model", lambda _: in_memory)
        assert served("in-memory") == want
    # a file written before explicit-basis models dropped their points
    in_memory.X, _ = load_points_csv(small_ionosphere, label_col="last")
    older = tmp_path / "older.model"
    save_model(older, in_memory)
    assert "X" in _matrix_names(older)
    loaded = load_model(older)
    assert loaded.X is None and served(older) == want
    save_model(tmp_path / "resaved.model", loaded)
    assert (tmp_path / "resaved.model").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("seed", ["1", "2"])
def test_a_linear_space_file_has_the_same_bytes_on_one_and_two_blas_threads(tmp_path, seed):
    # a kernel-space file does not: its Gram, its M and a low-rank fit round
    # differently on another thread count
    src = str(Path(logdetml.__file__).parents[1])
    files = []
    for threads in ("1", "2"):
        files.append(tmp_path / f"threads{threads}.model")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "logdetml.cli", "train", "--data", str(IONOSPHERE),
                        "--label-col", "last", "--space", "linear", "--seed", seed,
                        "--out", str(files[-1])], env=env, capture_output=True, check=True)
    assert files[0].read_bytes() == files[1].read_bytes()
    assert files[0].read_text().startswith("version 3\nkind linear\n")
