import csv
import io
from pathlib import Path

import numpy as np
import pytest

from logdetml.cli import main
from logdetml.datasets import load_kernel_csv, load_points_csv
from logdetml.linalg import KernelSpec, gram
from logdetml.linalg import symmetrize
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
    if case == "identity-coeff":
        # every model has identity_coeff 1; the line stays in the format
        return _replace_line(text, "identity_coeff", "identity_coeff 0.5") + (
            "identity_coeff must be 1",)
    if case == "no-points":
        broken = _drop_matrix(text, "X")
        return broken, len(broken.splitlines()), "no K0 block"
    if case == "precomputed-no-K0":
        broken, _ = _replace_line(text, "kernel", "kernel precomputed")
        return broken, len(broken.splitlines()), "no K0 block"
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["missing-value", "non-numeric-entry", "non-integer",
                                  "unknown-kind", "identity-coeff", "no-points",
                                  "precomputed-no-K0"])
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
     "59 x 59 matrix M for its 59 points"),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], lambda t: _drop_matrix(t, "B"),
     "matrix B with 59 rows and 8 columns"),
    (["--kernel", "gaussian", "--basis", "kmeans:8"], lambda t: _drop_matrix(t, "F"),
     "8 x 8 matrix F"),
], ids=["linear-W-not-square", "kernel-M-wrong-size", "iplr-no-B", "iplr-no-F"])
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
    """The CSV the nested-loop, per-row ``csv.writer`` code wrote, with the
    learned K formed on load as that code did."""
    from test_learned_kernel import _reference_terms, reference_learned_sq_distances

    mf = load_model(model_path)
    model = mf.to_learned_kernel()
    if mf.kind == "kernel":
        model.K = symmetrize(mf.K0 + mf.K0 @ mf.M @ mf.K0)
    rows = []
    if query[0] == "--pairs":
        pairs, _ = load_points_csv(query[1])
        for a, b in pairs.T:
            i, j = int(a), int(b)
            if model.K is not None:
                d = float(model.K[i, i] + model.K[j, j] - 2.0 * model.K[i, j])
            else:
                P, CP = _reference_terms(model, model.K0[:, [i, j]])
                G = model.K0[np.ix_([i, j], [i, j])] + P.T @ CP
                d = max(0.0, float(G[0, 0] + G[1, 1] - 2.0 * G[0, 1]))
            rows.append((i, j, d))
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


# -- K0 is rebuilt on first use, not on load -----------------------------------

@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel", "gaussian"],
        pytest.param(["--kernel", "gaussian", "--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["kernel", "iplr-coefficient"],
)
def test_load_model_leaves_K0_unbuilt_until_read(small_ionosphere, tmp_path, flags):
    path = tmp_path / "trained.model"
    assert _train(small_ionosphere, path, *flags) == 0
    mf = load_model(path)
    assert mf._K0 is None
    model = mf.to_learned_kernel()
    assert mf._K0 is None and model._K0 is None
    X_csv, _ = load_points_csv(small_ionosphere, label_col="last")
    assert np.array_equal(model.K0, gram(X_csv, mf.kernel_spec))
    assert np.array_equal(mf.K0, model.K0)


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
    K0 = gram(X, spec)
    cs = evaluation.label_constraints(labels, 10, 0, X=X, K0=K0)
    mf, _, _ = evaluation.fit_model(X, K0, cs, spec, space, SolverConfig(max_sweeps=5),
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
